#pragma once
/// \file
/// CellPilot vocabulary over the simtime::timeseries windowed engine.
///
/// Mirrors core/trace and core/metrics layer-for-layer:
///
///  * TelemetrySession — the `-pitelemetry=FILE` / `CELLPILOT_TELEMETRY`
///    layer of the obs session spine (core/obs).  While armed, the
///    instrumented seams (Co-Pilot service loop, completion engine, SPE
///    pool, reliable sublayer, replay journal, read/write endpoints)
///    record windowed gauges and counters stamped with virtual time;
///    cellpilot::run's epilogue (full quiescence, same point as the trace
///    and metrics flushes) drains the engine into a per-job report and
///    rewrites the whole JSON file through the shared benchkit/benchjson
///    writer.  Every number is an
///    exact integer derived from virtual stamps, so two runs of the same
///    program produce byte-identical reports — the `parity` CI job
///    enforces it, chaos cocktails included.
///
///  * ScopedTelemetryCapture — the in-process test harness, an
///    obs::CaptureScope like the trace and metrics captures, so per-job
///    numbering stays aligned across the trace file, the metrics report
///    and the telemetry report (tools/pitop joins telemetry and trace by
///    job).
///
/// The window length comes from `-pitelemetryevery=US` (default 1000 us)
/// and must be set before traffic — the session forwards it to the engine
/// at configure time, so every sample of a run shares one window grid.

#include <cstdint>
#include <string>
#include <vector>

#include "core/obs.hpp"
#include "simtime/sim_time.hpp"
#include "simtime/timeseries.hpp"

namespace cellpilot::telemetry {

/// One flushed job: ordinal plus the canonical series drain.
struct JobTelemetry {
  int job = 0;
  std::vector<simtime::timeseries::Series> series;
};

/// Render accumulated reports as the telemetry JSON (exposed for tests).
/// Built with the shared benchkit/benchjson writer: one meta block
/// (bench/unit/windowNs) plus one row per populated (job, series, window)
/// cell, each row alone on its line — which is what tools/pitop parses.
std::string telemetry_report_json(const std::vector<JobTelemetry>& jobs,
                                  simtime::SimTime window_ns);

/// The `-pitelemetry` / `CELLPILOT_TELEMETRY` session: the obs spine owns
/// arming, the job list and the file rewrite; this layer adds the window
/// length and drains the engine into one JobTelemetry per job.
class TelemetrySession final : public obs::Session {
 public:
  static TelemetrySession& global();

  /// Set the window length (`-pitelemetryevery=US`, carried here in ns).
  /// Applies to samples recorded afterwards; PI_Configure calls it before
  /// any traffic.
  void configure_window(simtime::SimTime window_ns);
  simtime::SimTime window_ns() const;

 private:
  TelemetrySession();
  void arm_engine() override;
  void disarm_engine() override;
  void clear_engine() override;
  void read_env() override;
  void restart() override;
  std::optional<std::string> render_job(int job,
                                        pilot::PilotApp& app) override;

  std::vector<JobTelemetry> reports_;
};

/// RAII test harness over obs::CaptureScope: arms the telemetry engine for
/// its lifetime; every session flush stays suppressed.
class ScopedTelemetryCapture : public obs::CaptureScope {
 public:
  ScopedTelemetryCapture();

  /// Drain everything recorded so far (canonical order).
  std::vector<simtime::timeseries::Series> drain();
};

}  // namespace cellpilot::telemetry
