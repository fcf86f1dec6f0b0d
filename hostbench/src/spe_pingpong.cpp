// spe_pingpong — closed loop, one message in flight: blocking PI_Write /
// PI_Read ping-pong over Table I types 2..5 at 1 B and 1600 B (the eight
// SPE-connected Table II cells), observability disarmed.  Every hop
// crosses cellsim mailboxes and the Co-Pilot scheduler.
#include <cmath>
#include <cstdio>

#include "cellsim/spu.hpp"
#include "workload.hpp"

namespace hostbench {

// Parent-commit steady-state virtual one-way latencies: the mean over the
// reps after the warm-up, which is exact to the ns and the same for any
// rep count up to 100.  (EXPERIMENTS.md T2 prints 63.1, 74.3, 145.8,
// 217.6, 107.0, 119.8, 185.7, 260.8: the IMB mean over 1000 bounces from
// the first one, which costs ~8 s of host time to reproduce.)
const SpeCell kSpeCells[8] = {
    {2, 1, 63.079},  {2, 1600, 74.272},  {3, 1, 145.981}, {3, 1600, 217.936},
    {4, 1, 107.008}, {4, 1600, 119.800}, {5, 1, 185.983}, {5, 1600, 261.136},
};

namespace {

/// Warm-up reps per launch, excluded from round trips and the virtual
/// steady state.
constexpr int kWarmup = 10;
/// Timed reps per launch in the benchmark loop.
constexpr int kReps = 125;

/// Per-launch state shared by the ping-pong processes (PI_MAIN, the
/// responder rank, the SPE bodies).  Handles are atomics because every
/// rank runs the configuration phase and stores the same values.
struct Harness {
  const SpeCell* cell = nullptr;
  int reps = 0;
  const Payload* payload = nullptr;
  LaunchClock* clock = nullptr;
  cluster::Cluster* machine = nullptr;
  std::atomic<PI_CHANNEL*> fwd{nullptr};
  std::atomic<PI_CHANNEL*> rev{nullptr};
  std::atomic<PI_PROCESS*> initiator{nullptr};
  std::atomic<PI_PROCESS*> responder{nullptr};

  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> mismatches{0};
  Tally stats;  // channel statistics, harvested by PI_MAIN
  // Written by the initiator thread, read after the run joins it.
  std::vector<double> rtt_us;
  simtime::SimTime vt_begin = 0;
  simtime::SimTime vt_end = 0;
};

/// Names of the spans around a benchmark thread's calls: rank-side calls go
/// through pilot/api, SPE-side calls through core/spe_runtime.
struct CallNames {
  const char* write;
  const char* read;
};
constexpr CallNames kRankCalls{"pilot.write", "pilot.read"};
constexpr CallNames kSpeCalls{"spe_runtime.write", "spe_runtime.read"};

void receive(Harness& h, std::vector<std::byte>& buf, std::uint64_t id) {
  if (h.payload->check(buf.data(), id)) {
    h.delivered.fetch_add(1, std::memory_order_relaxed);
  } else {
    h.mismatches.fetch_add(1, std::memory_order_relaxed);
  }
}

void initiate(Harness& h, const CallNames& calls,
              simtime::VirtualClock& vclock) {
  const int bytes = h.cell->bytes;
  const int route = h.cell->type;
  std::vector<std::byte> buf(static_cast<std::size_t>(bytes));
  h.rtt_us.reserve(static_cast<std::size_t>(h.reps));
  for (int k = 0; k < kWarmup + h.reps; ++k) {
    if (k == kWarmup) h.vt_begin = vclock.now();
    const std::uint64_t id = 2 * static_cast<std::uint64_t>(k) + 1;
    const std::int64_t t0 = host_ns();
    {
      Span rep("bench.rep", route, id);
      h.payload->fill(buf.data(), id);
      {
        Span call(calls.write, route);
        PI_Write(h.fwd.load(), "%*b", bytes, buf.data());
      }
      {
        Span call(calls.read, route);
        PI_Read(h.rev.load(), "%*b", bytes, buf.data());
      }
      receive(h, buf, id + 1);
    }
    if (k >= kWarmup) {
      h.rtt_us.push_back(static_cast<double>(host_ns() - t0) / 1e3);
    }
  }
  h.vt_end = vclock.now();
}

void respond(Harness& h, const CallNames& calls) {
  const int bytes = h.cell->bytes;
  const int route = h.cell->type;
  std::vector<std::byte> buf(static_cast<std::size_t>(bytes));
  for (int k = 0; k < kWarmup + h.reps; ++k) {
    const std::uint64_t id = 2 * static_cast<std::uint64_t>(k) + 1;
    {
      Span call(calls.read, route);
      PI_Read(h.fwd.load(), "%*b", bytes, buf.data());
    }
    receive(h, buf, id);
    h.payload->fill(buf.data(), id + 1);
    {
      Span call(calls.write, route);
      PI_Write(h.rev.load(), "%*b", bytes, buf.data());
    }
  }
}

PI_SPE_PROGRAM_SIZED(hb_spe_initiator, 2048) {
  Harness& h = *static_cast<Harness*>(arg2);
  BenchThread account(*h.clock);
  initiate(h, kSpeCalls, cellsim::spu::self().clock());
  return 0;
}

PI_SPE_PROGRAM_SIZED(hb_spe_responder, 2048) {
  Harness& h = *static_cast<Harness*>(arg2);
  BenchThread account(*h.clock);
  respond(h, kSpeCalls);
  return 0;
}

/// The remote blade's rank: launches the responder SPE placed there.
int rank_parent(int /*index*/, void* arg) {
  Harness& h = *static_cast<Harness*>(arg);
  {
    Span call("pilot.runspe");
    PI_RunSPE(h.responder.load(), 0, &h);
  }
  return 0;
}

void run_spe(Harness& h, PI_PROCESS* p) {
  Span call("pilot.runspe");
  PI_RunSPE(p, 0, &h);
}

int pingpong_main(Harness& h, int argc, char** argv) {
  PI_Configure(&argc, &argv);
  LaunchClock& clock = *h.clock;
  switch (h.cell->type) {
    case 2:
      h.responder = PI_CreateSPE(hb_spe_responder, PI_MAIN, 0);
      h.fwd = PI_CreateChannel(PI_MAIN, h.responder);
      h.rev = PI_CreateChannel(h.responder, PI_MAIN);
      clock.start_all();
      run_spe(h, h.responder);
      break;
    case 3: {
      PI_PROCESS* remote = PI_CreateProcess(rank_parent, 0, &h);
      h.responder = PI_CreateSPE(hb_spe_responder, remote, 0);
      h.fwd = PI_CreateChannel(PI_MAIN, h.responder);
      h.rev = PI_CreateChannel(h.responder, PI_MAIN);
      clock.start_all();
      break;
    }
    case 4:
      h.initiator = PI_CreateSPE(hb_spe_initiator, PI_MAIN, 0);
      h.responder = PI_CreateSPE(hb_spe_responder, PI_MAIN, 1);
      h.fwd = PI_CreateChannel(h.initiator, h.responder);
      h.rev = PI_CreateChannel(h.responder, h.initiator);
      clock.start_all();
      run_spe(h, h.initiator);
      run_spe(h, h.responder);
      break;
    case 5: {
      PI_PROCESS* remote = PI_CreateProcess(rank_parent, 0, &h);
      h.initiator = PI_CreateSPE(hb_spe_initiator, PI_MAIN, 0);
      h.responder = PI_CreateSPE(hb_spe_responder, remote, 0);
      h.fwd = PI_CreateChannel(h.initiator, h.responder);
      h.rev = PI_CreateChannel(h.responder, h.initiator);
      clock.start_all();
      run_spe(h, h.initiator);
      break;
    }
    default: break;
  }
  {
    BenchThread account(clock);
    if (h.cell->type <= 3) {
      initiate(h, kRankCalls, h.machine->world().clock(0));
    }
  }
  clock.stop_main();
  PI_CHANNEL* channels[] = {h.fwd, h.rev};
  add_channel_stats(channels, 2, h.stats);
  return 0;
}

cluster::ClusterConfig cluster_for(int type) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  if (type == 3 || type == 5) {
    config.nodes.push_back(cluster::NodeSpec::cell(1));
  }
  return config;
}

/// One launch of one cell.  Returns the set-up time (s) and stores the
/// steady virtual one-way latency (us) in `*vt_us`.
double run_cell(const SpeCell& cell, int reps, std::uint64_t seed,
                Tally& tally, double* vt_us) {
  const Payload payload(seed ^ static_cast<std::uint64_t>(cell.type),
                        static_cast<std::size_t>(cell.bytes));
  Harness h;
  h.cell = &cell;
  h.reps = reps;
  h.payload = &payload;
  LaunchClock clock;
  h.clock = &clock;
  const cellpilot::RunResult result = launch(
      cluster_for(cell.type),
      [&h](cluster::Cluster& machine, int argc, char** argv) {
        h.machine = &machine;
        return pingpong_main(h, argc, argv);
      },
      {}, clock, tally);

  const std::uint64_t attempted = 2 * static_cast<std::uint64_t>(kWarmup + reps);
  const std::uint64_t delivered = h.delivered.load();
  tally.attempted += attempted;
  tally.delivered += delivered;
  if (delivered < attempted) {
    char why[128];
    std::snprintf(why, sizeof why,
                  "type %d %d B: %llu of %llu messages failed (%llu wrong "
                  "payloads)",
                  cell.type, cell.bytes,
                  static_cast<unsigned long long>(attempted - delivered),
                  static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(h.mismatches.load()));
    tally.fail(attempted - delivered, why);
  }
  tally.rtt_us.insert(tally.rtt_us.end(), h.rtt_us.begin(), h.rtt_us.end());
  merge_counters(tally, h.stats);
  *vt_us = result.aborted ? 0
                          : simtime::to_us(h.vt_end - h.vt_begin) / (2 * reps);
  return static_cast<double>(clock.started - clock.begin) / 1e9;
}

/// Checks each cell's virtual one-way latency against the parent model
/// and stores the latencies.
void check_model(const double (&vt_us)[8], Tally& tally) {
  tally.vt_one_way_us.assign(std::begin(vt_us), std::end(vt_us));
  for (int i = 0; i < 8; ++i) {
    if (std::fabs(vt_us[i] - kSpeCells[i].expect_us) > 1e-3) {
      char why[128];
      std::snprintf(why, sizeof why,
                    "model moved: type %d %d B one-way %.3f us, expected %.3f",
                    kSpeCells[i].type, kSpeCells[i].bytes, vt_us[i],
                    kSpeCells[i].expect_us);
      tally.fail(0, why);
    }
  }
}

}  // namespace

void spe_model_check(std::uint64_t seed, int reps, Tally& tally) {
  double vt_us[8] = {};
  for (int i = 0; i < 8; ++i) run_cell(kSpeCells[i], reps, seed, tally, &vt_us[i]);
  check_model(vt_us, tally);
}

void run_spe_pingpong(const Options& opt, double seconds, Tally& tally) {
  const std::int64_t deadline =
      host_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    double setup = 0;
    double vt_us[8] = {};
    for (int i = 0; i < 8; ++i) {
      setup += run_cell(kSpeCells[i], kReps, opt.seed, tally, &vt_us[i]);
    }
    check_model(vt_us, tally);
    tally.end_round(setup);
  } while (host_ns() < deadline);
}

}  // namespace hostbench
