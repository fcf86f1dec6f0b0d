#pragma once
/// \file
/// CellPilot vocabulary over the simtime::tracebuf engine.
///
/// Two consumers share the engine:
///
///  * TraceSession — the `-pitrace=FILE` / `CELLPILOT_TRACE` layer of the
///    obs session spine (core/obs).  While armed, every instrumented seam
///    records into per-thread rings; cellpilot::run's epilogue (all
///    threads joined) drains them into a per-job batch and rewrites the
///    whole Chrome `chrome://tracing` JSON file, so a bench binary that
///    runs many CellPilot jobs accumulates them all (one Chrome "process"
///    per job).
///    Because all stamps are virtual and the schedule is deterministic, two
///    runs of the same program produce byte-identical files — `tracecheck`
///    turns that into a CI oracle.
///
///  * ScopedTraceCapture — the in-process test harness, an
///    obs::CaptureScope.  Arms the engine for a scope and hands the
///    drained events straight to the test (the channel-matrix test
///    asserts which Table I legs a message actually crossed).  While a
///    capture is active every session flush is suppressed so the two
///    consumers never steal each other's events.
///
/// Independent of arming, ChannelCounters aggregates always-on per-channel
/// totals (messages, bytes, Co-Pilot hops, retries, timeouts, faults)
/// surfaced through the public PI_GetChannelStats call.  Counters are
/// plain atomic increments on the host — they never touch virtual clocks.

#include <cstdint>
#include <string>
#include <vector>

#include "core/obs.hpp"
#include "simtime/tracebuf.hpp"

namespace cellpilot::trace {

/// Aggregated totals for one channel since route compilation.
struct ChannelStats {
  std::uint64_t messages = 0;       ///< completed writes (per Table I leg set)
  std::uint64_t payload_bytes = 0;  ///< marshalled payload bytes written
  std::uint64_t copilot_hops = 0;   ///< Co-Pilot legs executed (relay/pair/deliver)
  std::uint64_t retries = 0;        ///< deadline extensions granted
  std::uint64_t timeouts = 0;       ///< requests completed PI_SPE_TIMEOUT
  /// Channel *poisonings*: SPE deaths the supervisor could not (or was not
  /// armed to) recover, i.e. the degradation ladder's last rung.  A death
  /// absorbed by a supervised respawn is NOT a fault — it lands in
  /// `respawns` and the channel keeps flowing under a bumped epoch.
  std::uint64_t faults = 0;
  std::uint64_t retransmits = 0;    ///< reliable-layer frame retransmissions
  std::uint64_t duplicates = 0;     ///< duplicate frames window-suppressed
  std::uint64_t corrupt_detected = 0;  ///< CRC-caught damaged frames
  std::uint64_t respawns = 0;       ///< writer deaths absorbed by respawn
  std::uint64_t recovered_ops = 0;  ///< ops replayed/deduped across a respawn
  std::uint64_t checkpoints = 0;    ///< committed coordinated cuts covering
                                    ///< this channel
  std::uint64_t restores = 0;       ///< blade restores that replayed this
                                    ///< channel from a checkpoint
};

/// Always-on per-channel counter table.  Sized by Router::compile (which
/// runs before any traffic), read by PI_GetChannelStats and the trace
/// flush.  Out-of-range channel ids are ignored so probes never throw.
class ChannelCounters {
 public:
  static ChannelCounters& global();

  void reset(std::size_t channels);
  std::size_t size() const;

  void add_message(int channel, std::uint64_t payload_bytes);
  void add_copilot_hop(int channel);
  void add_retry(int channel);
  void add_timeout(int channel);
  void add_fault(int channel);
  void add_retransmit(int channel);
  void add_duplicate(int channel);
  void add_corrupt(int channel);
  void add_respawn(int channel);
  void add_recovered_op(int channel);
  void add_checkpoint(int channel);
  void add_restore(int channel);

  ChannelStats snapshot(int channel) const;

 private:
  ChannelCounters() = default;
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

/// What the flush needs to know about each channel (for the per-channel
/// stats block in the trace file and for tag -> channel attribution).
struct ChannelSummary {
  int channel = -1;
  int route_type = 0;
  std::string name;
  ChannelStats stats;
};

/// Render accumulated batches as Chrome trace JSON (exposed for tests).
struct JobBatch {
  int job = 0;  ///< 1-based job ordinal, becomes the Chrome pid
  std::vector<simtime::tracebuf::Event> events;
  std::vector<ChannelSummary> channels;
  std::uint64_t dropped = 0;
};
std::string chrome_trace_json(const std::vector<JobBatch>& batches);

/// The `-pitrace` / `CELLPILOT_TRACE` session: arming, the job list and
/// the file rewrite are the obs spine's; this layer drains the engine into
/// one JobBatch per job and renders Chrome JSON.
class TraceSession final : public obs::Session {
 public:
  static TraceSession& global();

 private:
  TraceSession();
  void arm_engine() override;
  void disarm_engine() override;
  void clear_engine() override;
  void restart() override;
  std::optional<std::string> render_job(int job,
                                        pilot::PilotApp& app) override;

  std::vector<JobBatch> batches_;
};

/// RAII test harness over obs::CaptureScope: arms the trace engine for
/// its lifetime and hands the drained events straight to the test, while
/// every session flush stays suppressed.
class ScopedTraceCapture : public obs::CaptureScope {
 public:
  ScopedTraceCapture();

  /// Drain everything recorded so far (canonical order).
  std::vector<simtime::tracebuf::Event> drain();
};

/// Map a MiniMPI tag back to the CellPilot channel id it serves, or -1 if
/// the tag is not a channel tag (control traffic, user tags).
int channel_of_tag(std::int64_t tag);

}  // namespace cellpilot::trace
