// spans.hpp — the benchmark's in-memory span recorder and host clocks.
//
// A Span brackets one call into the simulator (a PI_* call, a launch, one
// ping-pong rep) on the calling thread.  It records its name, host start
// and end, the thread's CPU clock at both ends (so wall time splits into
// busy and blocked), the enclosing span on the same thread, and a message
// id inherited from the parent when not given.  Recording is off unless
// enabled, and then costs one relaxed load per span; records stay in
// per-thread buffers until collect() after the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

/// Monotonic host time, ns.
std::int64_t host_ns();
/// CPU time of the calling thread (user + sys), ns.
std::int64_t thread_cpu_ns();
/// CPU time of the whole process (user + sys), ns.
std::int64_t process_cpu_ns();

/// One finished span.  `parent` indexes the vector collect() returns (-1
/// for a root span).
struct SpanRecord {
  const char* name = "";
  int route = 0;  ///< Table I route type 1..5; 0 when not channel traffic
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_start_ns = 0;
  std::int64_t cpu_end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t thread = 0;
  std::uint64_t msg = 0;

  std::int64_t wall() const { return end_ns - start_ns; }
  std::int64_t cpu() const { return cpu_end_ns - cpu_start_ns; }
};

namespace spans {

/// Turns recording on or off.  Spans opened while off record nothing.
void set_enabled(bool enabled);
bool enabled();

/// Every span recorded since the last clear(), all threads, with parents
/// remapped to indices of the returned vector.  Call only while no thread
/// records (after the run has joined every thread).
std::vector<SpanRecord> collect();

/// Drops every recorded span.  Same quiescence rule as collect().
void clear();

/// Spans timed but not kept since the last clear(): at most 300 000 spans
/// are kept, to bound memory and the size of the span file.
std::uint64_t dropped();

/// Writes spans as JSON lines to `path`.  Returns false on I/O failure.
bool write_jsonl(const std::vector<SpanRecord>& records,
                 const std::string& path);

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& records);

}  // namespace spans

/// RAII span.  `name` must be a string literal (it is stored, not copied).
class Span {
 public:
  explicit Span(const char* name, int route = 0, std::uint64_t msg = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr std::int32_t kOff = -1;      // recording was off
  static constexpr std::int32_t kDropped = -2;  // timed, over the cap
  std::int32_t index_ = kOff;  // slot in the thread's buffer
};

}  // namespace hostbench
