// hostbench — host-time benchmark of the CellPilot simulator.
//
//   hostbench --workload spe_pingpong|rank_pingpong|mixed_load --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 runs the workload for S seconds and prints the end-to-end
// metrics.  --trace 1 runs it S/2 seconds untraced, S/2 seconds with the
// span recorder on, then the layer probes, and prints the per-layer
// metrics (spans go to DIR/spans_<workload>.jsonl).  The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// A human summary goes to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <set>
#include <string>

#include "workload.hpp"

namespace hostbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload spe_pingpong|rank_pingpong|"
               "mixed_load --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n");
  return 2;
}

bool parse(int argc, char** argv, Options* opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      opt->trace = std::strtol(value, &end, 10) != 0;
    } else if (key == "--out-dir") {
      opt->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && opt->seconds > 0;
}

using WorkloadFn = void (*)(const Options&, double, Tally&);

WorkloadFn find_workload(const std::string& name) {
  if (name == "spe_pingpong") return run_spe_pingpong;
  if (name == "rank_pingpong") return run_rank_pingpong;
  if (name == "mixed_load") return run_mixed_load;
  return nullptr;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double per_msg(double total, const Tally& t) {
  return t.delivered > 0 ? total / static_cast<double>(t.delivered) : 0;
}

/// Virtual one-way latencies of the eight SPE cells for vt_err_pct: the
/// spe_pingpong run's own last round, or a short model check otherwise.
void model_check(const Options& opt, Tally& tally) {
  if (opt.workload == "spe_pingpong") return;
  Tally check;
  spe_model_check(opt.seed, 40, check);
  tally.vt_one_way_us = check.vt_one_way_us;
  for (const std::string& p : check.problems) tally.fail(0, p);
  tally.failed += check.failed;
}

std::vector<Metric> end_to_end(const Tally& t, double rss_mb) {
  using Round = Tally::Round;
  return {
      {"msg_per_s", t.median_of(&Round::msg_per_s), "msg/s"},
      {"cpu_us_per_msg", t.median_of(&Round::cpu_us_per_msg), "us"},
      {"rtt_p50_us", t.median_of(&Round::rtt_p50_us), "us"},
      {"setup_s", t.median_of(&Round::setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"vt_err_pct", vt_err_pct(t.vt_one_way_us, kPaperSpeCells), "%"},
  };
}

/// Wall, CPU and blocked (wall minus thread CPU) samples of one span kind.
struct CallTimes {
  std::vector<double> wall_us;
  std::vector<double> cpu_us;
  std::vector<double> blocked_us;
};

std::vector<Metric> per_layer(const Tally& untraced, const Tally& traced,
                              const std::vector<SpanRecord>& records,
                              const std::vector<ProbeResult>& probes) {
  std::map<std::pair<std::string, int>, CallTimes> calls;
  std::vector<double> rep_self_us;
  const std::vector<std::int64_t> self = spans::self_times(records);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    const double wall = static_cast<double>(r.wall()) / 1e3;
    const double cpu = static_cast<double>(r.cpu()) / 1e3;
    // Per route, and pooled over all routes under route 0.
    for (int route : {r.route, 0}) {
      CallTimes& c = calls[{r.name, route}];
      c.wall_us.push_back(wall);
      c.cpu_us.push_back(cpu);
      c.blocked_us.push_back(std::max(0.0, wall - cpu));
      if (r.route == 0) break;
    }
    if (std::strcmp(r.name, "bench.rep") == 0) {
      rep_self_us.push_back(static_cast<double>(self[i]) / 1e3);
    }
  }
  const auto times = [&](const char* name, int route) -> const CallTimes& {
    return calls[{name, route}];
  };

  std::vector<Metric> out = {
      // The round-trip tail, from the untraced half.  Reported here, not
      // end to end: on mixed_load it follows neighbour load on the host
      // (one busy core outside the process moves it by half) more than
      // the program.
      {"rtt_p99_us", untraced.median_of(&Tally::Round::rtt_p99_us), "us"},
      {"cluster.build_ms", median(traced.build_ms), "ms"},
      {"pilot.startall_ms", median(traced.startall_ms), "ms"},
      {"pilot.stopmain_ms", median(traced.stopmain_ms), "ms"},
  };
  const auto route_metric = [&](const std::string& base, int route,
                                double value, const char* unit) {
    out.push_back({base + ".t" + std::to_string(route), value, unit});
  };
  for (int route = 1; route <= 3; ++route) {
    const CallTimes& w = times("pilot.write", route);
    const CallTimes& r = times("pilot.read", route);
    route_metric("pilot.write.wall_us.p50", route, nearest_rank(w.wall_us, 50), "us");
    route_metric("pilot.write.wall_us.p99", route, nearest_rank(w.wall_us, 99), "us");
    route_metric("pilot.write.cpu_us", route, mean(w.cpu_us), "us");
    route_metric("pilot.read.wall_us.p50", route, nearest_rank(r.wall_us, 50), "us");
    route_metric("pilot.read.wall_us.p99", route, nearest_rank(r.wall_us, 99), "us");
    route_metric("pilot.read.blocked_us", route, mean(r.blocked_us), "us");
  }
  for (int route = 2; route <= 5; ++route) {
    const CallTimes& w = times("spe_runtime.write", route);
    const CallTimes& r = times("spe_runtime.read", route);
    route_metric("spe_runtime.write.wall_us.p50", route, nearest_rank(w.wall_us, 50), "us");
    route_metric("spe_runtime.write.wall_us.p99", route, nearest_rank(w.wall_us, 99), "us");
    route_metric("spe_runtime.read.wall_us.p50", route, nearest_rank(r.wall_us, 50), "us");
    route_metric("spe_runtime.read.wall_us.p99", route, nearest_rank(r.wall_us, 99), "us");
    route_metric("spe_runtime.read.blocked_us", route, mean(r.blocked_us), "us");
  }
  const CallTimes& submit = times("completion.submit", 0);
  const CallTimes& harvest = times("completion.harvest", 0);
  const double traced_mps = traced.median_of(&Tally::Round::msg_per_s);
  std::set<std::uint64_t> digests = untraced.digests;
  digests.insert(traced.digests.begin(), traced.digests.end());
  const double unattributed_ns =
      static_cast<double>(traced.active_cpu_ns - traced.bench_cpu_ns);
  out.insert(out.end(), {
      {"completion.submit.wall_us.p50", nearest_rank(submit.wall_us, 50), "us"},
      {"completion.submit.wall_us.p99", nearest_rank(submit.wall_us, 99), "us"},
      {"completion.harvest.wall_us.p50", nearest_rank(harvest.wall_us, 50), "us"},
      {"completion.harvest.wall_us.p99", nearest_rank(harvest.wall_us, 99), "us"},
      {"completion.harvest.blocked_us", mean(harvest.blocked_us), "us"},
      {"copilot.unattributed_cpu_us_per_msg",
       per_msg(std::max(0.0, unattributed_ns) / 1e3, traced), "us/msg"},
      {"copilot.hops_per_msg",
       traced.channel_messages > 0
           ? static_cast<double>(traced.copilot_hops) /
                 static_cast<double>(traced.channel_messages)
           : 0,
       "hops/msg"},
      {"copilot.service_busy",
       per_msg(static_cast<double>(traced.service_busy_vns), traced),
       "vns/msg"},
      {"cellsim.mailbox_depth.max",
       static_cast<double>(traced.mailbox_depth_max), "count"},
      {"mpisim.match_depth.master.p50",
       nearest_rank(traced.match_depth_master, 50), "count"},
      {"mpisim.match_depth.master.max",
       nearest_rank(traced.match_depth_master, 100), "count"},
      {"mpisim.match_depth.copilot.p50",
       nearest_rank(traced.match_depth_copilot, 50), "count"},
      {"mpisim.match_depth.copilot.max",
       nearest_rank(traced.match_depth_copilot, 100), "count"},
      {"mpisim.reliable.retransmits", static_cast<double>(traced.retransmits),
       "count"},
      {"mpisim.reliable.duplicates", static_cast<double>(traced.duplicates),
       "count"},
      {"mpisim.reliable.corrupt", static_cast<double>(traced.corrupt), "count"},
      {"driver.late_over_early", median(traced.late_over_early), "ratio"},
      {"driver.trace_overhead_pct",
       traced_mps > 0
           ? 100.0 * (untraced.median_of(&Tally::Round::msg_per_s) /
                          traced_mps -
                      1)
           : 0,
       "%"},
      {"driver.rep_self_us", median(rep_self_us), "us"},
      {"driver.vt_digests", static_cast<double>(digests.size()), "count"},
  });
  for (const ProbeResult& p : probes) out.push_back({p.name, p.value, p.unit});
  return out;
}

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  const bool correct = t.failed == 0 && t.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", t.attempted, t.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void summarize(const Options& opt, const char* phase, const Tally& t) {
  std::fprintf(stderr,
               "hostbench %s seed=%" PRIu64 " %s: %zu rounds, %" PRIu64
               " messages delivered of %" PRIu64 " (error_rate %.3g), "
               "CPU/wall %.3f, %zu round-trip samples\n",
               opt.workload.c_str(), opt.seed, phase, t.rounds.size(), t.delivered,
               t.attempted,
               t.attempted ? static_cast<double>(t.failed) /
                                 static_cast<double>(t.attempted)
                           : 0.0,
               t.active_ns ? static_cast<double>(t.active_cpu_ns) /
                                 static_cast<double>(t.active_ns)
                           : 0.0,
               t.rtt_us.size());
  std::vector<double> rates;
  for (const Tally::Round& r : t.rounds) rates.push_back(r.msg_per_s);
  std::fprintf(stderr, "  msg/s per round: min %.0f median %.0f max %.0f\n",
               nearest_rank(rates, 0), median(rates), nearest_rank(rates, 100));
  for (std::size_t i = 0; i < t.vt_one_way_us.size(); ++i) {
    std::fprintf(stderr, "  virtual one-way type %d %d B: %.4f us\n",
                 kSpeCells[i].type, kSpeCells[i].bytes, t.vt_one_way_us[i]);
  }
  for (const std::uint64_t d : t.digests) {
    std::fprintf(stderr, "  virtual-time digest %016" PRIx64 "\n", d);
  }
  for (const std::string& p : t.problems) {
    std::fprintf(stderr, "  problem: %s\n", p.c_str());
  }
}

int run(const Options& opt) {
  const WorkloadFn workload = find_workload(opt.workload);
  if (workload == nullptr) return usage();

  if (!opt.trace) {
    Tally t;
    workload(opt, opt.seconds, t);
    const double rss = peak_rss_mb();
    model_check(opt, t);
    summarize(opt, "untraced", t);
    print_result(t, end_to_end(t, rss));
    return 0;
  }

  Tally untraced;
  workload(opt, opt.seconds / 2, untraced);
  Tally traced;
  spans::set_enabled(true);
  workload(opt, opt.seconds / 2, traced);
  spans::set_enabled(false);
  const std::vector<SpanRecord> records = spans::collect();
  std::fprintf(stderr, "hostbench: %zu spans kept, %" PRIu64 " dropped\n",
               records.size(), spans::dropped());
  const std::string spans_path =
      opt.out_dir + "/spans_" + opt.workload + ".jsonl";
  if (!spans::write_jsonl(records, spans_path)) {
    std::fprintf(stderr, "hostbench: cannot write %s\n", spans_path.c_str());
  }
  const std::vector<ProbeResult> probes = run_probes(opt.seed);
  model_check(opt, traced);
  summarize(opt, "untraced", untraced);
  summarize(opt, "traced", traced);

  Tally both = traced;
  both.attempted += untraced.attempted;
  both.failed += untraced.failed;
  both.problems.insert(both.problems.end(), untraced.problems.begin(),
                       untraced.problems.end());
  print_result(both, per_layer(untraced, traced, records, probes));
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  hostbench::Options opt;
  if (!hostbench::parse(argc, argv, &opt)) return hostbench::usage();
  try {
    return hostbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
