// spe_respawn_test.cpp — transparent SPE self-healing under -pirespawn.
//
// Contract under test (the graceful-degradation ladder, top to bottom):
//  * a covered death is invisible: supervision respawns the program into a
//    fresh slot, the channel epoch advances, journaled ops are replayed
//    (writes deduped, reads re-served) and every peer sees exactly the
//    data a fault-free run would have produced — no error, no gap, no dup;
//  * recovery is first-class vocabulary: spe_respawn / epoch_flush trace
//    events, a respawn_latency metric sample per attempt, and
//    respawns/recovered_ops in PI_CHANNEL_STATS;
//  * consecutive respawns of the same process double the backoff charged
//    before the new occupant starts (visible as the spe_respawn event
//    duration);
//  * a death chain that outlives the budget degrades — the channel is
//    poisoned and peers get PI_SPE_FAULT, exactly as if -pirespawn were
//    absent — never a hang, never an abort;
//  * an armed but untripped budget is free: no counters move.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/cellpilot.hpp"
#include "core/copilot.hpp"
#include "core/faultplan.hpp"
#include "core/trace.hpp"
#include "pilot/context.hpp"
#include "pilot/errors.hpp"
#include "simtime/metrics.hpp"
#include "simtime/tracebuf.hpp"

namespace {

namespace tb = simtime::tracebuf;
namespace sm = simtime::metrics;
using cellpilot::faults::FaultPlan;
using cellpilot::supervision::fault_count;
using cellpilot::supervision::recovered_op_count;
using cellpilot::supervision::reset_counters;
using cellpilot::supervision::respawn_count;
using cellpilot::trace::ScopedTraceCapture;
using pilot::PilotError;

std::atomic<PI_CHANNEL*> g_ch_main{nullptr};  ///< writer SPE -> PI_MAIN
/// Writer SPE -> reader SPE (Table I type 4).
std::atomic<PI_CHANNEL*> g_ch_pair{nullptr};
std::atomic<PI_CHANNEL*> g_ch_sum{nullptr};  ///< reader SPE -> PI_MAIN
std::atomic<int> g_writer_code{-1};

constexpr int kBurst = 8;  ///< messages per writer program run

cluster::Cluster one_cell() {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  return cluster::Cluster(std::move(config));
}

class SpeRespawnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_counters();
    g_ch_main = nullptr;
    g_ch_pair = nullptr;
    g_ch_sum = nullptr;
    g_writer_code.store(-1);
  }
  ~SpeRespawnTest() override { FaultPlan::global().reset(); }
};

PI_SPE_PROGRAM(burst_writer) {
  // Each incarnation runs the whole loop from the top; the journal dedupes
  // whatever the previous incarnation already delivered.
  try {
    for (int i = 0; i < kBurst; ++i) PI_Write(g_ch_main, "%d", 10 * i);
  } catch (const pilot::PilotError& e) {
    g_writer_code.store(static_cast<int>(e.code()));
    return 0;
  }
  g_writer_code.store(0);
  return 0;
}

// --- covered death mid-burst: transparent recovery -----------------------

TEST_F(SpeRespawnTest, CoveredDeathMidBurstIsInvisibleToTheReader) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  // Kill the original occupant during its third request: two writes are
  // already journaled, so the replacement's replay must dedupe them.
  opts.args = {"-pirespawn=2",
               "-pifault=spe_crash_mid@node0.cell0.spe0:op=3"};
  std::vector<int> got;
  PI_CHANNEL_STATS stats{};
  ScopedTraceCapture capture;
  sm::arm();
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* writer = PI_CreateSPE(burst_writer, PI_MAIN, 0);
        g_ch_main = PI_CreateChannel(writer, PI_MAIN);  // Table I type 2
        PI_StartAll();
        PI_RunSPE(writer, 0, nullptr);  // first launch -> node0.cell0.spe0
        for (int i = 0; i < kBurst; ++i) {
          int v = -1;
          PI_Read(g_ch_main, "%d", &v);
          got.push_back(v);
        }
        EXPECT_EQ(PI_GetChannelStats(g_ch_main, &stats), 0);
        PI_StopMain(0);
        return 0;
      },
      opts);
  const std::vector<sm::Series> series = sm::drain();
  sm::disarm();
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();

  // Exactly the fault-free sequence: no gap, no duplicate, no error.
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(got[i], 10 * i) << "i=" << i;
  EXPECT_EQ(g_writer_code.load(), 0) << "the replacement must finish clean";

  EXPECT_EQ(respawn_count(), 1u);
  EXPECT_GE(recovered_op_count(), 1u)
      << "the replay never deduped the journaled writes";
  EXPECT_EQ(fault_count(), 0u) << "a covered death must not poison peers";

  // The recovery is visible in the channel totals but not as a fault.
  EXPECT_EQ(stats.respawns, 1u);
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_GE(stats.recovered_ops, 1u);

  // Observability: one spe_respawn event (attempt 1) naming the fresh
  // slot the replacement landed in (faulted slots are never reused), and
  // one respawn_latency sample covering death -> restart.
  const auto events = capture.drain();
  int respawn_events = 0;
  for (const auto& e : events) {
    if (e.kind != tb::Kind::kSpeRespawn) continue;
    ++respawn_events;
    EXPECT_EQ(std::string(e.entity), "node0.cell0.spe1");
    EXPECT_EQ(e.aux, 1) << "first (and only) attempt";
    EXPECT_GT(e.end, e.begin) << "backoff must charge virtual time";
  }
  EXPECT_EQ(respawn_events, 1);
  std::uint64_t latency_samples = 0;
  for (const auto& s : series) {
    if (s.key.kind == sm::Kind::kRespawnLatency) latency_samples += s.hist.count();
  }
  EXPECT_EQ(latency_samples, 1u);
}

// --- budget exhaustion: clean degradation to the poisoned channel --------

TEST_F(SpeRespawnTest, ExhaustedBudgetDegradesToPeerFaultWithoutAbort) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  // site=* kills *every* incarnation at its first request, so a budget of
  // one is spent on a replacement that immediately dies too.
  opts.args = {"-pirespawn=1", "-pifault=spe_crash_mid@*:op=1"};
  int main_code = -1;
  PI_CHANNEL_STATS stats{};
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* writer = PI_CreateSPE(burst_writer, PI_MAIN, 0);
        g_ch_main = PI_CreateChannel(writer, PI_MAIN);
        PI_StartAll();
        PI_RunSPE(writer, 0, nullptr);
        int v = -1;
        try {
          PI_Read(g_ch_main, "%d", &v);
        } catch (const PilotError& e) {
          main_code = static_cast<int>(e.code());
        }
        EXPECT_EQ(PI_GetChannelStats(g_ch_main, &stats), 0);
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted)
      << "degradation must never abort the job: " << r.abort_reason;
  EXPECT_EQ(main_code, static_cast<int>(PI_SPE_FAULT));
  EXPECT_EQ(respawn_count(), 1u) << "the whole budget must be spent first";
  EXPECT_GE(fault_count(), 1u);
  EXPECT_EQ(stats.respawns, 1u);
  EXPECT_GE(stats.faults, 1u) << "exhaustion must fall back to poisoning";
}

// --- chained deaths: backoff doubles per attempt --------------------------

TEST_F(SpeRespawnTest, ConsecutiveRespawnsDoubleTheBackoff) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  // Budget two against an every-incarnation killer: attempt 1, attempt 2
  // (a respawn of a respawn), then degradation.
  opts.args = {"-pirespawn=2", "-pifault=spe_crash_mid@*:op=1"};
  int main_code = -1;
  ScopedTraceCapture capture;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* writer = PI_CreateSPE(burst_writer, PI_MAIN, 0);
        g_ch_main = PI_CreateChannel(writer, PI_MAIN);
        PI_StartAll();
        PI_RunSPE(writer, 0, nullptr);
        int v = -1;
        try {
          PI_Read(g_ch_main, "%d", &v);
        } catch (const PilotError& e) {
          main_code = static_cast<int>(e.code());
        }
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(main_code, static_cast<int>(PI_SPE_FAULT));
  EXPECT_EQ(respawn_count(), 2u);

  // The spe_respawn event spans death -> replacement start: a constant
  // dispatch cost plus the backoff deadline * 2^(attempt-1).  With the
  // default 500us SPE deadline, attempt 2 therefore charges exactly one
  // extra base deadline over attempt 1 (2d - d = d) — the doubling made
  // visible without knowing the dispatch constant.
  const auto events = capture.drain();
  std::vector<simtime::SimTime> spans;
  std::vector<std::int64_t> attempts;
  for (const auto& e : events) {
    if (e.kind != tb::Kind::kSpeRespawn) continue;
    spans.push_back(e.end - e.begin);
    attempts.push_back(e.aux);
  }
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(attempts[0], 1);
  EXPECT_EQ(attempts[1], 2);
  EXPECT_GT(spans[0], 0);
  EXPECT_EQ(spans[1] - spans[0], 500'000)
      << "the second attempt must double the first attempt's backoff";
}

// --- respawn of a respawn that eventually succeeds ------------------------

TEST_F(SpeRespawnTest, RespawnOfARespawnStillDeliversTheBurst) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  // Kill the original occupant *and* its first replacement (which lands in
  // the next pool slot, spe1); the second replacement survives and the
  // burst must still arrive intact.
  opts.args = {"-pirespawn=3",
               "-pifault=spe_crash_mid@node0.cell0.spe0:op=1"
               ";spe_crash_mid@node0.cell0.spe1:op=1"};
  std::vector<int> got;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* writer = PI_CreateSPE(burst_writer, PI_MAIN, 0);
        g_ch_main = PI_CreateChannel(writer, PI_MAIN);
        PI_StartAll();
        PI_RunSPE(writer, 0, nullptr);
        for (int i = 0; i < kBurst; ++i) {
          int v = -1;
          PI_Read(g_ch_main, "%d", &v);
          got.push_back(v);
        }
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(got[i], 10 * i) << "i=" << i;
  EXPECT_EQ(respawn_count(), 2u) << "both deaths must be absorbed";
  EXPECT_EQ(fault_count(), 0u);
}

// --- a self-healed process runs again ------------------------------------

TEST_F(SpeRespawnTest, RespawnedProcessRunsAgainOnceItHasExited) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  // The faulted context stays bound to the writer after the replacement
  // retires; a later launch of the writer must still be accepted.
  opts.args = {"-pirespawn=1",
               "-pifault=spe_crash_mid@node0.cell0.spe0:op=1"};
  std::vector<int> got;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* writer = PI_CreateSPE(burst_writer, PI_MAIN, 0);
        g_ch_main = PI_CreateChannel(writer, PI_MAIN);
        PI_StartAll();
        for (int run = 0; run < 2; ++run) {
          PI_RunSPE(writer, run, nullptr);
          for (int i = 0; i < kBurst; ++i) {
            int v = -1;
            PI_Read(g_ch_main, "%d", &v);
            got.push_back(v);
          }
          pilot::context().app().join_spe_threads(0);
        }
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * kBurst));
  for (int i = 0; i < 2 * kBurst; ++i) {
    EXPECT_EQ(got[i], 10 * (i % kBurst)) << "i=" << i;
  }
  EXPECT_EQ(respawn_count(), 1u);
  EXPECT_EQ(fault_count(), 0u);
}

// --- reader-side death: journaled reads are re-served ---------------------

PI_SPE_PROGRAM(pair_writer) {
  for (int i = 0; i < kBurst; ++i) PI_Write(g_ch_pair, "%d", i + 1);
  return 0;
}

PI_SPE_PROGRAM(doomed_reader) {
  // Dies during its third read; the replacement re-runs from the top and
  // the first two reads must come back from the journal (the writer's
  // copies of those messages are long consumed).
  int sum = 0;
  for (int i = 0; i < kBurst; ++i) {
    int v = 0;
    PI_Read(g_ch_pair, "%d", &v);
    sum += v;
  }
  PI_Write(g_ch_sum, "%d", sum);
  return 0;
}

TEST_F(SpeRespawnTest, DeadReaderReplaysJournaledReadsAfterRespawn) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  // Launch order pins the names: writer -> spe0, reader -> spe1.
  opts.args = {"-pirespawn=2",
               "-pifault=spe_crash_mid@node0.cell0.spe1:op=3"};
  int sum = 0;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* writer = PI_CreateSPE(pair_writer, PI_MAIN, 0);
        PI_PROCESS* reader = PI_CreateSPE(doomed_reader, PI_MAIN, 1);
        g_ch_pair = PI_CreateChannel(writer, reader);  // Table I type 4
        g_ch_sum = PI_CreateChannel(reader, PI_MAIN);
        PI_StartAll();
        PI_RunSPE(writer, 0, nullptr);
        PI_RunSPE(reader, 0, nullptr);
        PI_Read(g_ch_sum, "%d", &sum);
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(sum, kBurst * (kBurst + 1) / 2)
      << "every message must be counted exactly once across incarnations";
  EXPECT_EQ(respawn_count(), 1u);
  EXPECT_GE(recovered_op_count(), 2u)
      << "the journaled reads were never re-served";
  EXPECT_EQ(fault_count(), 0u);
}

// --- armed but untripped: the budget is free ------------------------------

TEST_F(SpeRespawnTest, ArmedBudgetWithoutFaultsMovesNoCounters) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  opts.args = {"-pirespawn=4"};
  std::vector<int> got;
  PI_CHANNEL_STATS stats{};
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* writer = PI_CreateSPE(burst_writer, PI_MAIN, 0);
        g_ch_main = PI_CreateChannel(writer, PI_MAIN);
        PI_StartAll();
        PI_RunSPE(writer, 0, nullptr);
        for (int i = 0; i < kBurst; ++i) {
          int v = -1;
          PI_Read(g_ch_main, "%d", &v);
          got.push_back(v);
        }
        EXPECT_EQ(PI_GetChannelStats(g_ch_main, &stats), 0);
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(got[i], 10 * i);
  EXPECT_EQ(respawn_count(), 0u);
  EXPECT_EQ(recovered_op_count(), 0u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_EQ(stats.recovered_ops, 0u);
}

}  // namespace
