#include "core/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "benchkit/benchjson.hpp"

namespace cellpilot::telemetry {

// ---------------------------------------------------------------------------
// Report JSON

std::string telemetry_report_json(const std::vector<JobTelemetry>& jobs,
                                  simtime::SimTime window_ns) {
  benchkit::BenchJson doc("telemetry");
  doc.meta("unit", std::string("virtual_ns"));
  doc.meta("windowNs", static_cast<std::int64_t>(window_ns));
  std::int64_t job_count = 0;
  for (const JobTelemetry& jt : jobs) {
    job_count = std::max<std::int64_t>(job_count, jt.job);
  }
  doc.meta("jobs", job_count);
  for (const JobTelemetry& jt : jobs) {
    for (const auto& s : jt.series) {
      for (const auto& [win, cell] : s.windows) {
        doc.add_row()
            .set("job", static_cast<std::int64_t>(jt.job))
            .set("kind",
                 std::string(simtime::timeseries::kind_name(s.key.kind)))
            .set("route", static_cast<std::int64_t>(s.key.route_type))
            .set("channel", static_cast<std::int64_t>(s.key.channel))
            .set("entity", s.key.entity)
            .set("win", win)
            .set("count", static_cast<std::int64_t>(cell.count))
            .set("sum", cell.sum)
            .set("min", cell.min)
            .set("max", cell.max);
      }
    }
  }
  return doc.to_string();
}

// ---------------------------------------------------------------------------
// TelemetrySession

TelemetrySession::TelemetrySession()
    : Session("-pitelemetry=", "CELLPILOT_TELEMETRY",
              "telemetry stays disarmed") {}

TelemetrySession& TelemetrySession::global() {
  static TelemetrySession* g = [] {
    auto* s = new TelemetrySession;
    s->start();
    return s;
  }();
  return *g;
}

void TelemetrySession::arm_engine() { simtime::timeseries::arm(); }
void TelemetrySession::disarm_engine() { simtime::timeseries::disarm(); }
void TelemetrySession::clear_engine() { simtime::timeseries::clear(); }
void TelemetrySession::restart() { reports_.clear(); }

/// CELLPILOT_TELEMETRY_EVERY (virtual microseconds), read before the
/// arming decision so an env-armed session never records a sample under
/// the default window and then shrinks it mid-run: positive numbers set
/// the window, anything else is a loud no-op.
void TelemetrySession::read_env() {
  const char* every = std::getenv("CELLPILOT_TELEMETRY_EVERY");
  if (every == nullptr || every[0] == '\0') return;
  char* end = nullptr;
  const double us = std::strtod(every, &end);
  if (end != every && *end == '\0' && us > 0) {
    simtime::timeseries::set_window(simtime::us(us));
  } else {
    std::fprintf(stderr,
                 "cellpilot: ignoring CELLPILOT_TELEMETRY_EVERY=\"%s\" "
                 "(not a positive microsecond count)\n",
                 every);
  }
}

void TelemetrySession::configure_window(simtime::SimTime window_ns) {
  simtime::timeseries::set_window(window_ns);
}

simtime::SimTime TelemetrySession::window_ns() const {
  return simtime::timeseries::window();
}

std::optional<std::string> TelemetrySession::render_job(
    int job, pilot::PilotApp& /*app*/) {
  reports_.push_back(JobTelemetry{job, simtime::timeseries::drain()});
  // Quiet rewrite (no benchjson stderr note): the epilogue may run once
  // per job and stderr is part of the parity diff surface the benches pin
  // down.
  return telemetry_report_json(reports_, simtime::timeseries::window());
}

// ---------------------------------------------------------------------------
// ScopedTelemetryCapture

ScopedTelemetryCapture::ScopedTelemetryCapture()
    : CaptureScope(&simtime::timeseries::arm, &simtime::timeseries::disarm) {}

std::vector<simtime::timeseries::Series> ScopedTelemetryCapture::drain() {
  return simtime::timeseries::drain();
}

}  // namespace cellpilot::telemetry
