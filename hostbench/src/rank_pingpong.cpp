// rank_pingpong — closed loop: Table I type 1 rank <-> rank ping-pong at
// 1 B, 1600 B and 64 KiB over one warm format plan, observability
// disarmed.  Two single-rank Xeon nodes, so no Co-Pilot and no SPE runs:
// the cost is pilot/api, core/router marshal, core/completion and mpisim
// matching.  The control on which a Co-Pilot change must not move.
#include <cmath>
#include <cstdio>

#include "workload.hpp"

namespace hostbench {

namespace {

constexpr int kWarmup = 10;
constexpr int kReps = 334;  // timed reps per size per launch
constexpr int kSizes[3] = {1, 1600, 65536};
/// Parent-commit virtual one-way latencies (us) per size on this topology.
constexpr double kExpectUs[3] = {53.429, 87.008, 1429.664};

struct Harness {
  const Payload* payload[3] = {};
  LaunchClock* clock = nullptr;
  cluster::Cluster* machine = nullptr;
  std::atomic<PI_CHANNEL*> fwd{nullptr};
  std::atomic<PI_CHANNEL*> rev{nullptr};

  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> mismatches{0};
  Tally stats;  // channel statistics, harvested by PI_MAIN
  std::vector<double> rtt_us;        // initiator thread only
  double vt_us[3] = {};              // initiator thread only
};

/// "%*b" is the one format every size shares, so after the first message
/// the router's format cache always hits.
constexpr const char* kFormat = "%*b";

void receive(Harness& h, int size, const std::vector<std::byte>& buf,
             std::uint64_t id) {
  if (h.payload[size]->check(buf.data(), id)) {
    h.delivered.fetch_add(1, std::memory_order_relaxed);
  } else {
    h.mismatches.fetch_add(1, std::memory_order_relaxed);
  }
}

int responder(int /*index*/, void* arg) {
  Harness& h = *static_cast<Harness*>(arg);
  BenchThread account(*h.clock);
  std::vector<std::byte> buf(kSizes[2]);
  for (int s = 0; s < 3; ++s) {
    for (int k = 0; k < kWarmup + kReps; ++k) {
      const std::uint64_t id = 2 * static_cast<std::uint64_t>(k) + 1;
      {
        Span call("pilot.read", 1);
        PI_Read(h.fwd.load(), kFormat, kSizes[s], buf.data());
      }
      receive(h, s, buf, id);
      h.payload[s]->fill(buf.data(), id + 1);
      {
        Span call("pilot.write", 1);
        PI_Write(h.rev.load(), kFormat, kSizes[s], buf.data());
      }
    }
  }
  return 0;
}

void initiate(Harness& h) {
  simtime::VirtualClock& vclock = h.machine->world().clock(0);
  std::vector<std::byte> buf(kSizes[2]);
  h.rtt_us.reserve(3 * kReps);
  for (int s = 0; s < 3; ++s) {
    simtime::SimTime vt_begin = 0;
    for (int k = 0; k < kWarmup + kReps; ++k) {
      if (k == kWarmup) vt_begin = vclock.now();
      const std::uint64_t id = 2 * static_cast<std::uint64_t>(k) + 1;
      const std::int64_t t0 = host_ns();
      {
        Span rep("bench.rep", 1, id);
        h.payload[s]->fill(buf.data(), id);
        {
          Span call("pilot.write", 1);
          PI_Write(h.fwd.load(), kFormat, kSizes[s], buf.data());
        }
        {
          Span call("pilot.read", 1);
          PI_Read(h.rev.load(), kFormat, kSizes[s], buf.data());
        }
        receive(h, s, buf, id + 1);
      }
      if (k >= kWarmup) {
        h.rtt_us.push_back(static_cast<double>(host_ns() - t0) / 1e3);
      }
    }
    h.vt_us[s] = simtime::to_us(vclock.now() - vt_begin) / (2 * kReps);
  }
}

int pingpong_main(Harness& h, int argc, char** argv) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* remote = PI_CreateProcess(responder, 0, &h);
  h.fwd = PI_CreateChannel(PI_MAIN, remote);
  h.rev = PI_CreateChannel(remote, PI_MAIN);
  h.clock->start_all();
  {
    BenchThread account(*h.clock);
    initiate(h);
  }
  h.clock->stop_main();
  PI_CHANNEL* channels[] = {h.fwd, h.rev};
  add_channel_stats(channels, 2, h.stats);
  return 0;
}

}  // namespace

void run_rank_pingpong(const Options& opt, double seconds, Tally& tally) {
  const Payload p0(opt.seed, kSizes[0]);
  const Payload p1(opt.seed, kSizes[1]);
  const Payload p2(opt.seed, kSizes[2]);
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::xeon(1));
  config.nodes.push_back(cluster::NodeSpec::xeon(1));

  const std::int64_t deadline =
      host_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    Harness h;
    h.payload[0] = &p0;
    h.payload[1] = &p1;
    h.payload[2] = &p2;
    LaunchClock clock;
    h.clock = &clock;
    const cellpilot::RunResult result = launch(
        config,
        [&h](cluster::Cluster& machine, int argc, char** argv) {
          h.machine = &machine;
          return pingpong_main(h, argc, argv);
        },
        {}, clock, tally);

    const std::uint64_t attempted = 3 * 2 * (kWarmup + kReps);
    const std::uint64_t delivered = h.delivered.load();
    tally.attempted += attempted;
    tally.delivered += delivered;
    if (delivered < attempted) {
      tally.fail(attempted - delivered,
                 "type 1: " + std::to_string(attempted - delivered) +
                     " messages failed (" +
                     std::to_string(h.mismatches.load()) + " wrong payloads)");
    }
    tally.rtt_us.insert(tally.rtt_us.end(), h.rtt_us.begin(), h.rtt_us.end());
    merge_counters(tally, h.stats);
    for (int s = 0; s < 3 && !result.aborted; ++s) {
      if (std::fabs(h.vt_us[s] - kExpectUs[s]) > 1e-3) {
        char why[128];
        std::snprintf(why, sizeof why,
                      "model moved: type 1 %d B one-way %.3f us, expected "
                      "%.3f",
                      kSizes[s], h.vt_us[s], kExpectUs[s]);
        tally.fail(0, why);
      }
    }
    tally.end_round(static_cast<double>(clock.started - clock.begin) / 1e9);
  } while (host_ns() < deadline);
}

}  // namespace hostbench
