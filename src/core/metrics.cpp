#include "core/metrics.hpp"

#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <utility>

namespace cellpilot::metrics {

// ---------------------------------------------------------------------------
// Report JSON

namespace {

void append_stat_fields(std::string& out, const simtime::metrics::Histogram& h) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"count\":%llu,\"sumNs\":%llu,\"minNs\":%lld,"
                "\"p50Ns\":%lld,\"p90Ns\":%lld,\"p99Ns\":%lld,"
                "\"maxNs\":%lld",
                static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.sum()),
                static_cast<long long>(h.min()),
                static_cast<long long>(h.percentile(50)),
                static_cast<long long>(h.percentile(90)),
                static_cast<long long>(h.percentile(99)),
                static_cast<long long>(h.max()));
  out += buf;
}

}  // namespace

std::string metrics_report_json(const std::vector<JobReport>& jobs) {
  std::string out;
  out += "{\n\"generator\":\"cellpilot-metrics\",\n\"unit\":\"virtual_ns\",\n";
  out += "\"jobs\":[";
  bool first_job = true;
  for (const JobReport& jr : jobs) {
    if (!first_job) out += ",";
    first_job = false;
    out += "\n{\"job\":";
    out += std::to_string(jr.job);
    out += ",\"series\":[";
    bool first = true;
    for (const auto& s : jr.series) {
      if (!first) out += ",";
      first = false;
      char head[96];
      std::snprintf(head, sizeof head,
                    "\n{\"agg\":\"series\",\"job\":%d,\"kind\":\"%s\","
                    "\"route\":%d,\"channel\":%d,\"entity\":\"",
                    jr.job, simtime::metrics::kind_name(s.key.kind),
                    static_cast<int>(s.key.route_type), s.key.channel);
      out += head;
      obs::append_json_escaped(out, s.key.entity);
      out += "\",";
      append_stat_fields(out, s.hist);
      out += "}";
    }
    out += "\n],\"byRoute\":[";
    // Per-route rollups for the two route-attributed kinds: these are the
    // rows tracestats recomputes from the trace file of the same run.
    std::map<std::pair<int, int>, simtime::metrics::Histogram> rollup;
    for (const auto& s : jr.series) {
      if (s.key.kind != simtime::metrics::Kind::kMsgLatency &&
          s.key.kind != simtime::metrics::Kind::kReadBlock) {
        continue;
      }
      if (s.key.route_type <= 0) continue;
      rollup[{static_cast<int>(s.key.kind),
              static_cast<int>(s.key.route_type)}]
          .merge(s.hist);
    }
    first = true;
    for (const auto& [key, hist] : rollup) {
      if (!first) out += ",";
      first = false;
      char head[96];
      std::snprintf(
          head, sizeof head,
          "\n{\"agg\":\"route\",\"job\":%d,\"kind\":\"%s\",\"route\":%d,",
          jr.job,
          simtime::metrics::kind_name(
              static_cast<simtime::metrics::Kind>(key.first)),
          key.second);
      out += head;
      append_stat_fields(out, hist);
      out += "}";
    }
    out += "\n]}";
  }
  out += "\n]\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// MetricsSession

MetricsSession::MetricsSession()
    : Session("-pimetrics=", "CELLPILOT_METRICS", "metrics stay disarmed") {}

MetricsSession& MetricsSession::global() {
  static MetricsSession* g = [] {
    auto* s = new MetricsSession;
    s->start();
    return s;
  }();
  return *g;
}

void MetricsSession::arm_engine() { simtime::metrics::arm(); }
void MetricsSession::disarm_engine() { simtime::metrics::disarm(); }
void MetricsSession::clear_engine() { simtime::metrics::clear(); }
void MetricsSession::restart() { reports_.clear(); }

std::optional<std::string> MetricsSession::render_job(
    int job, pilot::PilotApp& /*app*/) {
  reports_.push_back(JobReport{job, simtime::metrics::drain()});
  return metrics_report_json(reports_);
}

// ---------------------------------------------------------------------------
// ScopedMetricsCapture

ScopedMetricsCapture::ScopedMetricsCapture()
    : CaptureScope(&simtime::metrics::arm, &simtime::metrics::disarm) {}

std::vector<simtime::metrics::Series> ScopedMetricsCapture::drain() {
  return simtime::metrics::drain();
}

// ---------------------------------------------------------------------------
// LatencyLedger

struct LatencyLedger::Impl {
  std::mutex mu;
  std::vector<std::deque<simtime::SimTime>> fifos;
};

LatencyLedger& LatencyLedger::global() {
  static LatencyLedger* g = new LatencyLedger;
  return *g;
}

LatencyLedger::Impl* LatencyLedger::impl() {
  static Impl* g = new Impl;
  return g;
}

void LatencyLedger::reset(std::size_t channels) {
  Impl* im = impl();
  std::lock_guard lock(im->mu);
  im->fifos.assign(channels, {});
}

void LatencyLedger::push(int channel, simtime::SimTime write_begin) {
  Impl* im = impl();
  std::lock_guard lock(im->mu);
  if (channel < 0 || static_cast<std::size_t>(channel) >= im->fifos.size()) {
    return;
  }
  im->fifos[static_cast<std::size_t>(channel)].push_back(write_begin);
}

bool LatencyLedger::pop(int channel, simtime::SimTime* write_begin) {
  Impl* im = impl();
  std::lock_guard lock(im->mu);
  if (channel < 0 || static_cast<std::size_t>(channel) >= im->fifos.size()) {
    return false;
  }
  auto& q = im->fifos[static_cast<std::size_t>(channel)];
  if (q.empty()) return false;
  *write_begin = q.front();
  q.pop_front();
  return true;
}

}  // namespace cellpilot::metrics
