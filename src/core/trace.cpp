#include "core/trace.hpp"

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "core/router.hpp"
#include "mpisim/reliable.hpp"
#include "mpisim/types.hpp"
#include "pilot/app.hpp"
#include "pilot/tables.hpp"

namespace cellpilot::trace {

// ---------------------------------------------------------------------------
// ChannelCounters

struct ChannelCounters::Impl {
  struct Cell {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> payload_bytes{0};
    std::atomic<std::uint64_t> copilot_hops{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> faults{0};
    std::atomic<std::uint64_t> retransmits{0};
    std::atomic<std::uint64_t> duplicates{0};
    std::atomic<std::uint64_t> corrupt_detected{0};
    std::atomic<std::uint64_t> respawns{0};
    std::atomic<std::uint64_t> recovered_ops{0};
    std::atomic<std::uint64_t> checkpoints{0};
    std::atomic<std::uint64_t> restores{0};
  };
  std::mutex mu;  ///< guards resizing only; cells are touched lock-free
  std::vector<std::unique_ptr<Cell>> cells;

  Cell* cell(int channel) {
    // `cells` only grows under reset(), which runs at route compilation —
    // before any traffic — so indexing during traffic is race-free.
    if (channel < 0 || static_cast<std::size_t>(channel) >= cells.size()) {
      return nullptr;
    }
    return cells[static_cast<std::size_t>(channel)].get();
  }
};

ChannelCounters& ChannelCounters::global() {
  static ChannelCounters* g = new ChannelCounters;
  return *g;
}

ChannelCounters::Impl* ChannelCounters::impl() {
  static Impl* g = new Impl;
  return g;
}

const ChannelCounters::Impl* ChannelCounters::impl() const {
  return const_cast<ChannelCounters*>(this)->impl();
}

namespace {

/// mpisim::reliable -> ChannelCounters bridge: the reliable layer knows
/// tags, not channels, so the event carries the tag and we attribute it
/// here.  Ack/reorder events are timing bookkeeping, not channel stats.
void reliable_event_trampoline(mpisim::reliable::Event event, int tag) {
  const int channel = channel_of_tag(tag);
  switch (event) {
    case mpisim::reliable::Event::kRetransmit:
      ChannelCounters::global().add_retransmit(channel);
      break;
    case mpisim::reliable::Event::kDuplicate:
      ChannelCounters::global().add_duplicate(channel);
      break;
    case mpisim::reliable::Event::kCorrupt:
      ChannelCounters::global().add_corrupt(channel);
      break;
    case mpisim::reliable::Event::kAck:
    case mpisim::reliable::Event::kReorder:
    case mpisim::reliable::Event::kStale:
      break;
  }
}

}  // namespace

void ChannelCounters::reset(std::size_t channels) {
  Impl* im = impl();
  std::lock_guard lock(im->mu);
  im->cells.clear();
  im->cells.reserve(channels);
  for (std::size_t i = 0; i < channels; ++i) {
    im->cells.push_back(std::make_unique<Impl::Cell>());
  }
  mpisim::reliable::set_observer(&reliable_event_trampoline);
}

std::size_t ChannelCounters::size() const {
  const Impl* im = impl();
  std::lock_guard lock(const_cast<Impl*>(im)->mu);
  return im->cells.size();
}

void ChannelCounters::add_message(int channel, std::uint64_t payload_bytes) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->messages.fetch_add(1, std::memory_order_relaxed);
    c->payload_bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_copilot_hop(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->copilot_hops.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_retry(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->retries.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_timeout(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->timeouts.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_fault(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->faults.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_retransmit(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->retransmits.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_duplicate(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->duplicates.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_corrupt(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->corrupt_detected.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_respawn(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->respawns.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_recovered_op(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->recovered_ops.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_checkpoint(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->checkpoints.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChannelCounters::add_restore(int channel) {
  if (Impl::Cell* c = impl()->cell(channel)) {
    c->restores.fetch_add(1, std::memory_order_relaxed);
  }
}

ChannelStats ChannelCounters::snapshot(int channel) const {
  ChannelStats s;
  Impl* im = const_cast<ChannelCounters*>(this)->impl();
  if (Impl::Cell* c = im->cell(channel)) {
    s.messages = c->messages.load(std::memory_order_relaxed);
    s.payload_bytes = c->payload_bytes.load(std::memory_order_relaxed);
    s.copilot_hops = c->copilot_hops.load(std::memory_order_relaxed);
    s.retries = c->retries.load(std::memory_order_relaxed);
    s.timeouts = c->timeouts.load(std::memory_order_relaxed);
    s.faults = c->faults.load(std::memory_order_relaxed);
    s.retransmits = c->retransmits.load(std::memory_order_relaxed);
    s.duplicates = c->duplicates.load(std::memory_order_relaxed);
    s.corrupt_detected = c->corrupt_detected.load(std::memory_order_relaxed);
    s.respawns = c->respawns.load(std::memory_order_relaxed);
    s.recovered_ops = c->recovered_ops.load(std::memory_order_relaxed);
    s.checkpoints = c->checkpoints.load(std::memory_order_relaxed);
    s.restores = c->restores.load(std::memory_order_relaxed);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Tag attribution

int channel_of_tag(std::int64_t tag) {
  // Channel id `c` travels as tag kChannelTagBase + c; everything at or
  // above kReservedTagBase is pilot control traffic.  (Raw mpisim users
  // with small tags fall below the base and stay unattributed.)
  if (tag >= pilot::kChannelTagBase && tag < mpisim::kReservedTagBase) {
    return static_cast<int>(tag - pilot::kChannelTagBase);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Chrome trace JSON

namespace {

/// Virtual nanoseconds -> microseconds with exactly three decimals, via
/// integer arithmetic so the text is reproducible on any libc.
void append_us(std::string& out, simtime::SimTime ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::string chrome_trace_json(const std::vector<JobBatch>& batches) {
  std::string out;
  out += "{\n\"traceEvents\":[\n";
  bool first = true;
  std::uint64_t dropped_total = 0;
  for (const JobBatch& b : batches) {
    dropped_total += b.dropped;
    // Stable tid per entity: 1-based index in name order within this job.
    std::map<std::string, int> tids;
    for (const auto& e : b.events) tids.emplace(e.entity, 0);
    int next = 1;
    for (auto& [name, tid] : tids) tid = next++;

    for (const auto& [name, tid] : tids) {
      if (!first) out += ",\n";
      first = false;
      char head[64];
      std::snprintf(head, sizeof head,
                    "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,", b.job, tid);
      out += head;
      out += "\"name\":\"thread_name\",\"args\":{\"name\":\"";
      obs::append_json_escaped(out, name.c_str());
      out += "\"}}";
    }

    for (const auto& e : b.events) {
      if (!first) out += ",\n";
      first = false;
      char head[64];
      std::snprintf(head, sizeof head, "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,",
                    b.job, tids[e.entity]);
      out += head;
      out += "\"ts\":";
      append_us(out, e.begin);
      out += ",\"dur\":";
      append_us(out, e.end - e.begin);
      out += ",\"name\":\"";
      out += simtime::tracebuf::kind_name(e.kind);
      out += "\",\"cat\":\"cellpilot\",\"args\":{\"entity\":\"";
      obs::append_json_escaped(out, e.entity);
      char tail[128];
      std::snprintf(tail, sizeof tail,
                    "\",\"channel\":%d,\"route\":%d,\"bytes\":%llu,"
                    "\"aux\":%lld}}",
                    e.channel, static_cast<int>(e.route_type),
                    static_cast<unsigned long long>(e.bytes),
                    static_cast<long long>(e.aux));
      out += tail;
    }
  }
  out += "\n],\n\"displayTimeUnit\":\"ms\",\n";
  char meta[96];
  std::snprintf(meta, sizeof meta,
                "\"otherData\":{\"generator\":\"cellpilot\",\"jobs\":%zu,"
                "\"droppedEvents\":%llu,\n",
                batches.size(),
                static_cast<unsigned long long>(dropped_total));
  out += meta;
  out += "\"channelStats\":[";
  bool first_ch = true;
  for (const JobBatch& b : batches) {
    for (const ChannelSummary& ch : b.channels) {
      if (!first_ch) out += ",";
      first_ch = false;
      out += "\n{\"job\":";
      out += std::to_string(b.job);
      out += ",\"channel\":";
      out += std::to_string(ch.channel);
      out += ",\"name\":\"";
      obs::append_json_escaped(out, ch.name.c_str());
      char stats[256];
      std::snprintf(
          stats, sizeof stats,
          "\",\"route\":%d,\"messages\":%llu,\"payloadBytes\":%llu,"
          "\"copilotHops\":%llu,\"retries\":%llu,\"timeouts\":%llu,"
          "\"faults\":%llu",
          ch.route_type, static_cast<unsigned long long>(ch.stats.messages),
          static_cast<unsigned long long>(ch.stats.payload_bytes),
          static_cast<unsigned long long>(ch.stats.copilot_hops),
          static_cast<unsigned long long>(ch.stats.retries),
          static_cast<unsigned long long>(ch.stats.timeouts),
          static_cast<unsigned long long>(ch.stats.faults));
      out += stats;
      // Reliable-layer counters only exist when faults were injected;
      // emitting them conditionally keeps clean-run traces byte-identical
      // to builds that predate the reliable layer.
      if (ch.stats.retransmits != 0 || ch.stats.duplicates != 0 ||
          ch.stats.corrupt_detected != 0) {
        char rel[160];
        std::snprintf(
            rel, sizeof rel,
            ",\"retransmits\":%llu,\"duplicates\":%llu,"
            "\"corruptDetected\":%llu",
            static_cast<unsigned long long>(ch.stats.retransmits),
            static_cast<unsigned long long>(ch.stats.duplicates),
            static_cast<unsigned long long>(ch.stats.corrupt_detected));
        out += rel;
      }
      // Same conditional-emission contract for the self-healing counters:
      // only a run that actually respawned a writer widens the record.
      if (ch.stats.respawns != 0 || ch.stats.recovered_ops != 0) {
        char heal[96];
        std::snprintf(heal, sizeof heal,
                      ",\"respawns\":%llu,\"recoveredOps\":%llu",
                      static_cast<unsigned long long>(ch.stats.respawns),
                      static_cast<unsigned long long>(ch.stats.recovered_ops));
        out += heal;
      }
      // And for the checkpoint counters: only a run that actually cut a
      // coordinated snapshot (or restored from one) widens the record.
      if (ch.stats.checkpoints != 0 || ch.stats.restores != 0) {
        char ckpt[96];
        std::snprintf(ckpt, sizeof ckpt,
                      ",\"checkpoints\":%llu,\"restores\":%llu",
                      static_cast<unsigned long long>(ch.stats.checkpoints),
                      static_cast<unsigned long long>(ch.stats.restores));
        out += ckpt;
      }
      out += "}";
    }
  }
  out += "\n]}\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// TraceSession

TraceSession::TraceSession()
    : Session("-pitrace=", "CELLPILOT_TRACE", "tracing stays disarmed") {}

TraceSession& TraceSession::global() {
  static TraceSession* g = [] {
    auto* s = new TraceSession;
    s->start();
    return s;
  }();
  return *g;
}

void TraceSession::arm_engine() { simtime::tracebuf::arm(); }
void TraceSession::disarm_engine() { simtime::tracebuf::disarm(); }
void TraceSession::clear_engine() { simtime::tracebuf::clear(); }
void TraceSession::restart() { batches_.clear(); }

std::optional<std::string> TraceSession::render_job(
    int job, pilot::PilotApp& app) {
  JobBatch batch;
  batch.job = job;
  batch.dropped = simtime::tracebuf::dropped();
  batch.events = simtime::tracebuf::drain();
  for (int c = 0; c < app.channel_count(); ++c) {
    const PI_CHANNEL& ch = app.channel(c);
    ChannelSummary s;
    s.channel = c;
    s.route_type = ch.route == nullptr ? 0 : static_cast<int>(ch.route->type);
    s.name = ch.name;
    s.stats = ChannelCounters::global().snapshot(c);
    batch.channels.push_back(std::move(s));
  }
  // Attribute MPI legs to channels post-hoc: mpisim records the tag, the
  // tag encodes the channel.
  for (auto& e : batch.events) {
    if (e.channel < 0) e.channel = channel_of_tag(e.aux);
  }
  batches_.push_back(std::move(batch));
  return chrome_trace_json(batches_);
}

// ---------------------------------------------------------------------------
// ScopedTraceCapture

ScopedTraceCapture::ScopedTraceCapture()
    : CaptureScope(&simtime::tracebuf::arm, &simtime::tracebuf::disarm) {}

std::vector<simtime::tracebuf::Event> ScopedTraceCapture::drain() {
  auto events = simtime::tracebuf::drain();
  for (auto& e : events) {
    if (e.channel < 0) e.channel = channel_of_tag(e.aux);
  }
  return events;
}

}  // namespace cellpilot::trace
