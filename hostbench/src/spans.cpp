#include "spans.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace hostbench {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// One thread's spans plus its stack of open spans.  Owned by the
/// registry, so records outlive the thread that made them.
struct ThreadBuffer {
  std::uint32_t id = 0;
  std::vector<SpanRecord> records;
  std::vector<std::int32_t> open;
};

std::atomic<bool> g_enabled{false};

/// Spans kept across all threads.  Spans past the cap are still timed, so
/// the tracing cost stays the same for the whole traced phase, but they
/// are not kept.
constexpr std::size_t kMaxSpans = 300000;
std::atomic<std::size_t> g_kept{0};
std::atomic<std::uint64_t> g_dropped{0};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->id = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return *buffer;
}

}  // namespace

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

namespace spans {

void set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<SpanRecord> out;
  for (const auto& buffer : g_buffers) {
    const auto base = static_cast<std::int32_t>(out.size());
    for (SpanRecord r : buffer->records) {
      if (r.parent >= 0) r.parent += base;
      out.push_back(r);
    }
  }
  return out;
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_buffers) {
    buffer->records.clear();
    buffer->open.clear();
  }
  g_kept.store(0);
  g_dropped.store(0);
}

std::uint64_t dropped() { return g_dropped.load(); }

bool write_jsonl(const std::vector<SpanRecord>& records,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& r : records) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"route\":%d,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"cpu_ns\":%lld,\"parent\":%d,"
                 "\"thread\":%u,\"msg\":%llu}\n",
                 r.name, r.route, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.cpu()), r.parent, r.thread,
                 static_cast<unsigned long long>(r.msg));
  }
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& records) {
  std::vector<std::vector<std::int32_t>> children(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::int32_t p = records[i].parent;
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back(
        static_cast<std::int32_t>(i));
  }
  std::vector<std::int64_t> self(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& span = records[i];
    // Children clipped to the parent, merged so overlaps count once.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::int32_t c : children[i]) {
      const SpanRecord& child = records[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(child.start_ns, span.start_ns);
      const std::int64_t hi = std::min(child.end_ns, span.end_ns);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = span.wall() - covered;
  }
  return self;
}

}  // namespace spans

Span::Span(const char* name, int route, std::uint64_t msg) {
  if (!spans::enabled()) return;
  if (g_kept.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    index_ = kDropped;
    thread_cpu_ns();
    host_ns();
    return;
  }
  ThreadBuffer& buffer = local_buffer();
  SpanRecord r;
  r.name = name;
  r.route = route;
  r.thread = buffer.id;
  if (!buffer.open.empty()) {
    r.parent = buffer.open.back();
    if (msg == 0) msg = buffer.records[static_cast<std::size_t>(r.parent)].msg;
  }
  r.msg = msg;
  index_ = static_cast<std::int32_t>(buffer.records.size());
  buffer.open.push_back(index_);
  r.cpu_start_ns = thread_cpu_ns();
  r.start_ns = host_ns();
  buffer.records.push_back(r);
}

Span::~Span() {
  if (index_ == kOff) return;
  const std::int64_t end = host_ns();
  const std::int64_t cpu_end = thread_cpu_ns();
  if (index_ == kDropped) return;
  ThreadBuffer& buffer = local_buffer();
  SpanRecord& r = buffer.records[static_cast<std::size_t>(index_)];
  r.end_ns = end;
  r.cpu_end_ns = cpu_end;
  buffer.open.pop_back();
}

}  // namespace hostbench
