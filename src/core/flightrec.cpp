#include "core/flightrec.hpp"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "core/completion.hpp"
#include "core/faultplan.hpp"
#include "core/trace.hpp"
#include "simtime/tracebuf.hpp"

namespace cellpilot::flightrec {

namespace {

std::string postmortem_json(const std::string& reason, int dump_ordinal) {
  std::string out;
  out += "{\n\"generator\":\"cellpilot-flightrec\",\n\"reason\":\"";
  obs::append_json_escaped(out, reason);
  out += "\",\n\"dumpOrdinal\":";
  out += std::to_string(dump_ordinal);

  // The armed fault plan: what was being injected when it went wrong.
  faults::FaultPlan& plan = faults::FaultPlan::global();
  out += ",\n\"faultPlan\":{\"armed\":";
  out += plan.armed() ? "true" : "false";
  out += ",\"seed\":";
  out += std::to_string(plan.seed());
  out += ",\"rules\":[";
  bool first = true;
  for (const faults::Rule& r : plan.rules()) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"kind\":\"";
    out += faults::to_string(r.kind);
    out += "\",\"site\":\"";
    obs::append_json_escaped(out, r.site);
    char tail[128];
    std::snprintf(tail, sizeof tail,
                  "\",\"op\":%llu,\"count\":%llu,\"delayNs\":%lld}",
                  static_cast<unsigned long long>(r.op),
                  static_cast<unsigned long long>(r.count),
                  static_cast<long long>(r.delay));
    out += tail;
  }
  out += "]}";

  // Every channel's counters at dump time (monotonic, lock-free reads).
  trace::ChannelCounters& counters = trace::ChannelCounters::global();
  const std::size_t channels = counters.size();
  out += ",\n\"channelStats\":[";
  for (std::size_t c = 0; c < channels; ++c) {
    const trace::ChannelStats s = counters.snapshot(static_cast<int>(c));
    if (c != 0) out += ",";
    char row[320];
    std::snprintf(
        row, sizeof row,
        "\n{\"channel\":%zu,\"messages\":%llu,\"payloadBytes\":%llu,"
        "\"copilotHops\":%llu,\"retries\":%llu,\"timeouts\":%llu,"
        "\"faults\":%llu,\"retransmits\":%llu,\"duplicates\":%llu,"
        "\"corruptDetected\":%llu}",
        c, static_cast<unsigned long long>(s.messages),
        static_cast<unsigned long long>(s.payload_bytes),
        static_cast<unsigned long long>(s.copilot_hops),
        static_cast<unsigned long long>(s.retries),
        static_cast<unsigned long long>(s.timeouts),
        static_cast<unsigned long long>(s.faults),
        static_cast<unsigned long long>(s.retransmits),
        static_cast<unsigned long long>(s.duplicates),
        static_cast<unsigned long long>(s.corrupt_detected));
    out += row;
  }
  out += "\n]";

  // Every operation still live in the completion engine: submitted handles
  // nobody harvested yet.  On a hang or watchdog trip this is the direct
  // answer to "who is everyone waiting for?" — each row names the channel,
  // direction, state and submitting call site of one outstanding transfer.
  out += ",\n\"pendingOps\":[";
  first = true;
  for (const completion::PendingOp& p :
       completion::OpRegistry::global().pending()) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"id\":";
    out += std::to_string(p.id);
    out += ",\"kind\":\"";
    out += completion::kind_name(p.kind);
    out += "\",\"state\":\"";
    out += completion::state_name(p.state);
    out += "\",\"entity\":\"";
    obs::append_json_escaped(out, p.entity);
    out += "\",\"site\":\"";
    obs::append_json_escaped(out, p.file.empty()
                                 ? std::string()
                                 : p.file + ":" + std::to_string(p.line));
    char tail[192];
    std::snprintf(tail, sizeof tail,
                  "\",\"status\":%u,\"channel\":%d,\"route\":%d,"
                  "\"speSide\":%s,\"blocking\":%s,\"bytes\":%llu,"
                  "\"submitNs\":%lld}",
                  p.status, p.channel, static_cast<int>(p.route_type),
                  p.spe_side ? "true" : "false",
                  p.blocking ? "true" : "false",
                  static_cast<unsigned long long>(p.bytes),
                  static_cast<long long>(p.submit_begin));
    out += tail;
  }
  out += "\n]";

  // The last-N events of every recording thread, canonically sorted.
  const auto events = simtime::tracebuf::blackbox_snapshot();
  out += ",\n\"events\":[";
  first = true;
  for (const auto& e : events) {
    if (!first) out += ",";
    first = false;
    const int channel =
        e.channel >= 0 ? e.channel : trace::channel_of_tag(e.aux);
    out += "\n{\"name\":\"";
    out += simtime::tracebuf::kind_name(e.kind);
    out += "\",\"entity\":\"";
    obs::append_json_escaped(out, e.entity);
    char tail[192];
    std::snprintf(tail, sizeof tail,
                  "\",\"beginNs\":%lld,\"endNs\":%lld,\"channel\":%d,"
                  "\"route\":%d,\"bytes\":%llu,\"aux\":%lld}",
                  static_cast<long long>(e.begin),
                  static_cast<long long>(e.end), channel,
                  static_cast<int>(e.route_type),
                  static_cast<unsigned long long>(e.bytes),
                  static_cast<long long>(e.aux));
    out += tail;
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace

FlightRecorder::FlightRecorder()
    : Session("-piflightrec=", "CELLPILOT_FLIGHTREC",
              "flight recorder stays disarmed") {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* g = [] {
    auto* s = new FlightRecorder;
    s->start();
    return s;
  }();
  return *g;
}

void FlightRecorder::arm_engine() {
  // The recorder needs events flowing: arm the trace engine (never
  // perturbs virtual time) and switch on the black-box tails.  The
  // completion engine's registry arms with it, so postmortems carry the
  // table of operations that were still pending when things went wrong.
  simtime::tracebuf::arm();
  simtime::tracebuf::set_blackbox(kTailEvents);
  completion::OpRegistry::global().set_armed(true);
}

void FlightRecorder::disarm_engine() {
  completion::OpRegistry::global().set_armed(false);
  simtime::tracebuf::set_blackbox(0);
  simtime::tracebuf::disarm();
}

void FlightRecorder::restart() { dumps_ = 0; }

void FlightRecorder::dump(const std::string& reason) {
  std::lock_guard lock(mu_);
  if (!armed_) return;
  ++dumps_;
  // The artifact holds the whole crash sequence: arming starts a fresh
  // file, every later trigger appends its scene.  A cascade (blade_kill →
  // per-victim degrade faults) would otherwise destroy the first dump —
  // the one taken while the doomed ops were still pending.
  const auto mode = dumps_ == 1 ? std::ios::binary | std::ios::trunc
                                : std::ios::binary | std::ios::app;
  std::ofstream f(path_, mode);
  if (f) f << postmortem_json(reason, dumps_);
}

int FlightRecorder::dump_count() const {
  std::lock_guard lock(mu_);
  return dumps_;
}

}  // namespace cellpilot::flightrec
