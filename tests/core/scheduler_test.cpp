// Tests for the Co-Pilot's conservative virtual-time event ordering.
//
// The SchedulerUnit tests drive core/scheduler against a fake source set
// on one thread: they pin the gate's one order, the revalidation drain, the
// published bound and the shutdown deferral.  The ConservativeScheduler
// tests run whole jobs: with a serial Co-Pilot, concurrent SPE workers must
// (a) produce bit-identical virtual times run after run, regardless of host
// scheduling, and (b) genuinely overlap their compute phases.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <deque>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "cellsim/spu.hpp"
#include "core/cellpilot.hpp"
#include "core/scheduler.hpp"
#include "pilot/context.hpp"

namespace {

using cellpilot::Candidate;
using cellpilot::EventQueue;
using cellpilot::Pending;
using cellpilot::schedule;
using cellpilot::Step;
using simtime::SimTime;

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
constexpr SimTime kT = simtime::us(1000);

/// What the scheduler sees of a blade, MPI and the cluster, held in plain
/// vectors the test sets directly.
class FakeSources final : public cellpilot::Sources {
 public:
  explicit FakeSources(unsigned spes)
      : mailbox(spes), bound(spes, kForever), fault(spes) {}

  std::vector<std::deque<cellsim::MailboxEntry>> mailbox;
  std::vector<SimTime> bound;
  std::vector<std::optional<SimTime>> fault;
  /// Arrival stamp of the first queued message, by (source, tag).
  std::map<std::pair<mpisim::Rank, int>, SimTime> queued;
  SimTime ranks = kForever;         ///< the user ranks' send bound
  FakeSources* peer = nullptr;      ///< a peer Co-Pilot's source set
  SimTime published = 0;            ///< 0 until the first publish
  bool deferred = false;
  /// Words an SPE emits just before it parks: they reach its mailbox at
  /// the first spe_bound() read, after the step's first drain.
  std::vector<std::pair<unsigned, cellsim::MailboxEntry>> emit_then_park;

  /// Queues one whole blocking request of SPE `spe`, every word at `stamp`.
  void request(unsigned spe, SimTime stamp, int channel = 0) {
    words(spe, stamp, cellpilot::kRequestWords, channel);
  }

  /// Queues the first `n` words of a blocking write request.
  void words(unsigned spe, SimTime stamp, int n, int channel = 0) {
    const std::uint32_t w0 =
        cellpilot::pack_op_channel(cellpilot::Opcode::kWrite, channel);
    for (int i = 0; i < n; ++i) {
      mailbox[spe].push_back({i == 0 ? w0 : 0u, stamp});
    }
  }

  std::optional<cellsim::MailboxEntry> pop_word(unsigned spe) override {
    if (mailbox[spe].empty()) return std::nullopt;
    const cellsim::MailboxEntry e = mailbox[spe].front();
    mailbox[spe].pop_front();
    return e;
  }
  SimTime spe_bound(unsigned spe) override {
    for (const auto& [s, w] : emit_then_park) mailbox[s].push_back(w);
    emit_then_park.clear();
    return bound[spe];
  }
  std::optional<SimTime> fault_stamp(unsigned spe) override {
    return fault[spe];
  }
  std::optional<mpisim::Envelope> probe(mpisim::Rank source,
                                        int tag) override {
    std::optional<mpisim::Envelope> first;
    for (const auto& [key, arrival] : queued) {
      if (key.second != tag) continue;
      if (source != mpisim::kAnySource && key.first != source) continue;
      if (!first || arrival < first->arrival) {
        first = mpisim::Envelope{key.first, tag, 0, arrival};
      }
    }
    return first;
  }
  SimTime remote_bound() override {
    return peer == nullptr ? ranks : std::min(ranks, peer->published);
  }
  void publish_bound(SimTime b) override { published = b; }
  bool shutdown_deferred() override { return deferred; }
};

const std::multimap<int, Pending> kNoReads;

EventQueue queue_for(unsigned spes) {
  EventQueue q;
  q.assembly.resize(spes);
  return q;
}

TEST(SchedulerUnit, EqualStampRequestsOnTwoCopilotsBothRun) {
  // Each Co-Pilot's earliest request sits at T, and each sees the other's
  // published bound as its remote bound.  A peer can only send kMpiData or
  // kShutdown here, both after a kRequest at T, so neither waits.
  FakeSources a(1), b(1);
  a.peer = &b;
  b.peer = &a;
  a.request(0, kT);
  b.request(0, kT);
  EventQueue qa = queue_for(1);
  EventQueue qb = queue_for(1);

  // b has not published yet, so a waits once; then both run.
  EXPECT_EQ(schedule(a, qa, kNoReads).status, Step::kBlocked);
  EXPECT_EQ(a.published, kT);
  const Step run_b = schedule(b, qb, kNoReads);
  EXPECT_EQ(b.published, kT);
  ASSERT_EQ(run_b.status, Step::kRun);
  EXPECT_EQ(run_b.event.kind, Candidate::kRequest);
  EXPECT_EQ(run_b.event.stamp, kT);
  const Step run_a = schedule(a, qa, kNoReads);
  ASSERT_EQ(run_a.status, Step::kRun);
  EXPECT_EQ(run_a.event.kind, Candidate::kRequest);
  EXPECT_EQ(run_a.event.stamp, kT);
}

TEST(SchedulerUnit, MpiDataAtTheRemoteBoundWaits) {
  // A rank at T may still send a message that arrives at T on a channel
  // that sorts first, so data at exactly the remote bound must wait.
  FakeSources src(1);
  EventQueue q = queue_for(1);
  std::multimap<int, Pending> reads;
  Pending p;
  p.spe = 0;
  p.expected_source = 3;
  p.tag = 7;
  reads.emplace(4, p);
  src.queued[{3, 7}] = kT;
  src.ranks = kT;

  EXPECT_EQ(schedule(src, q, reads).status, Step::kBlocked);
  src.ranks = kT + 1;
  const Step step = schedule(src, q, reads);
  ASSERT_EQ(step.status, Step::kRun);
  EXPECT_EQ(step.event.kind, Candidate::kMpiData);
  EXPECT_EQ(step.event.channel, 4);
}

TEST(SchedulerUnit, RequestAtALocalSpeBoundWaits) {
  // A local SPE at T may still emit a request at T from a lower slot, so
  // against local SPEs the gate stays strict.
  FakeSources src(2);
  EventQueue q = queue_for(2);
  src.request(1, kT);
  src.bound[0] = kT;

  EXPECT_EQ(schedule(src, q, kNoReads).status, Step::kBlocked);
  src.bound[0] = kT + 1;
  const Step step = schedule(src, q, kNoReads);
  ASSERT_EQ(step.status, Step::kRun);
  EXPECT_EQ(step.event.spe, 1u);
}

TEST(SchedulerUnit, RevalidationDrainRetiresAStaleCandidate) {
  // SPE 1 emits an earlier request and parks between the first drain and
  // the gate: the gate passes on the stale candidate, the second drain
  // surfaces the earlier request, and the step runs nothing.
  FakeSources src(2);
  EventQueue q = queue_for(2);
  src.request(0, kT);
  for (int i = 0; i < cellpilot::kRequestWords; ++i) {
    src.emit_then_park.push_back(
        {1u, {cellpilot::pack_op_channel(cellpilot::Opcode::kWrite, 0),
              kT - 5}});
  }

  const Step stale = schedule(src, q, kNoReads);
  EXPECT_EQ(stale.status, Step::kStale);
  EXPECT_EQ(stale.event.spe, 0u);
  ASSERT_EQ(q.ready.size(), 2u);

  const Step next = schedule(src, q, kNoReads);
  ASSERT_EQ(next.status, Step::kRun);
  EXPECT_EQ(next.event.spe, 1u);
  EXPECT_EQ(next.event.stamp, kT - 5);
}

TEST(SchedulerUnit, PublishedBoundIsTheMinimumOfEveryLocalSource) {
  FakeSources src(3);
  EventQueue q = queue_for(3);
  src.request(0, 100);
  src.words(1, 40, 1);
  src.words(1, 60, 1);
  src.bound[2] = 80;

  // A partial assembly pins the bound at its *last* word's stamp.
  schedule(src, q, kNoReads);
  EXPECT_EQ(src.published, 60);

  src.bound[2] = 30;
  schedule(src, q, kNoReads);
  EXPECT_EQ(src.published, 30);

  // With the assembly complete and every SPE parked, the earliest ready
  // request is the bound.
  src.bound[2] = kForever;
  src.words(1, 70, cellpilot::kRequestWords - 2);
  schedule(src, q, kNoReads);
  EXPECT_EQ(src.published, 70);
}

TEST(SchedulerUnit, NoShutdownCandidateWhileDeferred) {
  FakeSources src(1);
  EventQueue q = queue_for(1);
  src.queued[{2, pilot::kTagShutdown}] = kT;
  src.deferred = true;

  EXPECT_EQ(schedule(src, q, kNoReads).status, Step::kIdle);
  src.deferred = false;
  const Step step = schedule(src, q, kNoReads);
  ASSERT_EQ(step.status, Step::kRun);
  EXPECT_EQ(step.event.kind, Candidate::kShutdown);
}

constexpr int kStrips = 8;
constexpr simtime::SimTime kComputePerStrip = simtime::us(400);

int g_workers = 1;
std::array<std::atomic<PI_CHANNEL*>, 4> g_task;
std::array<std::atomic<PI_CHANNEL*>, 4> g_sum;
std::atomic<simtime::SimTime> g_elapsed{0};

PI_SPE_PROGRAM(sched_worker) {
  const int id = arg1;
  for (;;) {
    double lo = 0, hi = 0;
    PI_Read(g_task[id], "%lf %lf", &lo, &hi);
    if (hi < lo) return 0;
    cellsim::spu::self().clock().advance(kComputePerStrip);
    PI_Write(g_sum[id], "%lf", lo + hi);
  }
}

int farm_main(int argc, char* argv[]) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* spes[4];
  for (int w = 0; w < g_workers; ++w) {
    spes[w] = PI_CreateSPE(sched_worker, PI_MAIN, w);
    g_task[w] = PI_CreateChannel(PI_MAIN, spes[w]);
    g_sum[w] = PI_CreateChannel(spes[w], PI_MAIN);
  }
  PI_StartAll();
  for (int w = 0; w < g_workers; ++w) PI_RunSPE(spes[w], w, nullptr);

  simtime::VirtualClock& clock = pilot::context().mpi().clock();
  const simtime::SimTime start = clock.now();
  int dealt = 0, busy = 0;
  std::array<int, 4> outstanding{};
  while (dealt < kStrips || busy > 0) {
    for (int w = 0; w < g_workers; ++w) {
      auto& flag = outstanding[static_cast<std::size_t>(w)];
      if (flag == 0 && dealt < kStrips) {
        PI_Write(g_task[w], "%lf %lf", dealt * 1.0, dealt + 1.0);
        ++dealt;
        flag = 1;
        ++busy;
      } else if (flag == 1) {
        double part = 0;
        PI_Read(g_sum[w], "%lf", &part);
        flag = 0;
        --busy;
      }
    }
  }
  g_elapsed.store(clock.now() - start);
  for (int w = 0; w < g_workers; ++w) {
    PI_Write(g_task[w], "%lf %lf", 1.0, 0.0);
  }
  PI_StopMain(0);
  return 0;
}

simtime::SimTime run_farm(int workers) {
  g_workers = workers;
  g_elapsed.store(0);
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));
  const auto result = cellpilot::run(machine, farm_main);
  EXPECT_FALSE(result.aborted) << result.abort_reason;
  return g_elapsed.load();
}

TEST(ConservativeScheduler, ConcurrentWorkersAreDeterministic) {
  // The headline property: identical virtual makespans across repeated
  // runs, even though host threads interleave differently every time.
  const simtime::SimTime first = run_farm(2);
  for (int attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(run_farm(2), first) << "attempt " << attempt;
  }
}

TEST(ConservativeScheduler, TwoWorkersOverlapCompute) {
  // 8 strips x 400us compute: one worker pays all compute serially; two
  // workers must overlap a substantial part of it despite the serial
  // Co-Pilot handling every request.
  const simtime::SimTime one = run_farm(1);
  const simtime::SimTime two = run_farm(2);
  EXPECT_LT(two, one * 8 / 10);  // at least 1.25x speedup
  EXPECT_GT(two, one / 2);       // but not superlinear: Co-Pilot is serial
}

TEST(ConservativeScheduler, FourWorkersKeepImproving) {
  const simtime::SimTime two = run_farm(2);
  const simtime::SimTime four = run_farm(4);
  EXPECT_LT(four, two);
}

TEST(ConservativeScheduler, PingPongStaysDeterministicWithIdlePeers) {
  // Two-node machine: the initiating node's Co-Pilot must not stall
  // behind the remote node's idle Co-Pilot (published-bound protocol).
  g_workers = 1;
  g_elapsed.store(0);
  cluster::Cluster machine(cluster::ClusterConfig::two_cells());
  const auto result = cellpilot::run(machine, farm_main);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  const simtime::SimTime first = g_elapsed.load();

  g_elapsed.store(0);
  cluster::Cluster machine2(cluster::ClusterConfig::two_cells());
  const auto result2 = cellpilot::run(machine2, farm_main);
  ASSERT_FALSE(result2.aborted) << result2.abort_reason;
  EXPECT_EQ(g_elapsed.load(), first);
}

}  // namespace
