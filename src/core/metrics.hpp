#pragma once
/// \file
/// CellPilot vocabulary over the simtime::metrics histogram engine.
///
/// Mirrors core/trace layer-for-layer:
///
///  * MetricsSession — the `-pimetrics=FILE` / `CELLPILOT_METRICS` layer
///    of the obs session spine (core/obs).  While armed, the instrumented
///    seams (pilot API, SPE runtime, Co-Pilot loop, SPU mailbox
///    intrinsic, mpisim reliable sublayer) record virtual-ns samples;
///    cellpilot::run's epilogue (full quiescence, same point as the trace
///    flush) drains the registry into a per-job report and rewrites the
///    whole JSON file.  Every number in the report is an exact integer
///    derived from virtual stamps, so two runs of the same program
///    produce byte-identical reports — the `parity` CI job plus the
///    `tracestats` cross-oracle turn that into an enforced invariant.
///
///  * ScopedMetricsCapture — the in-process test harness, an
///    obs::CaptureScope like ScopedTraceCapture: while any capture is
///    active every session flush is suppressed and every engine is
///    cleared at the capture boundaries, so the per-job numbering of the
///    trace file and the metrics report stays aligned (tracestats joins
///    them by job).
///
///  * LatencyLedger — the online half of end-to-end message latency.
///    Each completed write pushes its begin stamp into a per-channel
///    FIFO *before* the payload is handed to the transport (so the push
///    happens-before any read completion); each successful read pops one
///    stamp and records `read_end - write_begin`.  The offline oracle
///    (tools/tracestats) pairs the k-th write with the k-th read of the
///    same channel in canonical trace order — the same pairing — so the
///    two totals agree exactly.

#include <cstdint>
#include <string>
#include <vector>

#include "core/obs.hpp"
#include "simtime/metrics.hpp"
#include "simtime/sim_time.hpp"

namespace cellpilot::metrics {

/// One flushed job: ordinal plus the canonical series drain.
struct JobReport {
  int job = 0;
  std::vector<simtime::metrics::Series> series;
};

/// The `-pimetrics` / `CELLPILOT_METRICS` session: the obs spine owns
/// arming, the job list and the file rewrite; this layer drains the
/// histogram registry into one JobReport per job.
class MetricsSession final : public obs::Session {
 public:
  static MetricsSession& global();

 private:
  MetricsSession();
  void arm_engine() override;
  void disarm_engine() override;
  void clear_engine() override;
  void restart() override;
  std::optional<std::string> render_job(int job,
                                        pilot::PilotApp& app) override;

  std::vector<JobReport> reports_;
};

/// Render accumulated reports as the metrics JSON (exposed for tests).
/// Line-oriented: every per-series and per-route record sits alone on a
/// line tagged "agg":"series" / "agg":"route", which is what tracestats'
/// --check-metrics mode parses.
std::string metrics_report_json(const std::vector<JobReport>& jobs);

/// RAII test harness over obs::CaptureScope: arms the metrics engine for
/// its lifetime; every session flush stays suppressed.
class ScopedMetricsCapture : public obs::CaptureScope {
 public:
  ScopedMetricsCapture();

  /// Drain everything recorded so far (canonical order).
  std::vector<simtime::metrics::Series> drain();
};

/// Per-channel FIFO of write-begin stamps for end-to-end latency.  Sized
/// by Router::compile (before any traffic), like ChannelCounters.  All
/// operations are cheap and mutex-guarded; callers gate on
/// simtime::metrics::armed() so the disarmed path never touches it.
class LatencyLedger {
 public:
  static LatencyLedger& global();

  void reset(std::size_t channels);

  /// Record a write's begin stamp.  Out-of-range channels are ignored.
  void push(int channel, simtime::SimTime write_begin);

  /// Pop the oldest stamp for the channel.  Returns false (and leaves
  /// *write_begin alone) for out-of-range channels or an empty FIFO —
  /// which cannot happen for a successful read, but a fault path may
  /// leave stamps behind, and those are simply never popped.
  bool pop(int channel, simtime::SimTime* write_begin);

 private:
  LatencyLedger() = default;
  struct Impl;
  Impl* impl();
};

}  // namespace cellpilot::metrics
