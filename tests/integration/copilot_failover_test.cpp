// Co-Pilot crash recovery: with copilot_crash armed, the serving Co-Pilot
// dies mid-request, a standby takes over after the heartbeat lease, replays
// the channel/route journal, and resumes service.  The one non-replayable
// request — the victim in flight at the instant of death — fails cleanly
// with PI_COPILOT_FAULT at every peer; everything after the takeover is
// served normally.  No hang, no abort.  The standby also inherits the
// supervision state of processes respawned before the crash: their replay
// cursors keep delivery exactly-once across both recoveries.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/cellpilot.hpp"
#include "core/copilot.hpp"
#include "core/faultplan.hpp"
#include "pilot/errors.hpp"

namespace {

using cellpilot::faults::FaultPlan;
using cellpilot::supervision::failover_count;
using cellpilot::supervision::recovered_op_count;
using cellpilot::supervision::reset_counters;
using cellpilot::supervision::respawn_count;

/// In flight when the Co-Pilot dies.
std::atomic<PI_CHANNEL*> g_ch_victim{nullptr};
std::atomic<PI_CHANNEL*> g_ch_after{nullptr};  ///< served by the standby
std::atomic<int> g_victim_code{-1};
std::atomic<int> g_after_code{-1};
std::atomic<PI_CHANNEL*> g_ch_burst{nullptr};  ///< respawned writer -> PI_MAIN
std::atomic<int> g_burst_code{-1};

constexpr int kBurst = 8;  ///< messages per burst-writer program run

cluster::Cluster one_cell() {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  return cluster::Cluster(std::move(config));
}

class CopilotFailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_counters();
    g_victim_code.store(-1);
    g_after_code.store(-1);
    g_burst_code.store(-1);
  }
  ~CopilotFailoverTest() override { FaultPlan::global().reset(); }
};

PI_SPE_PROGRAM(writes_across_the_crash) {
  // The Co-Pilot crashes serving this first write: it completes with
  // PI_COPILOT_FAULT (the standby cannot replay a request that died with
  // the journal's owner), never hangs.
  try {
    PI_Write(g_ch_victim, "%d", 11);
    g_victim_code.store(0);
  } catch (const pilot::PilotError& e) {
    g_victim_code.store(static_cast<int>(e.code()));
  }
  // The second write lands at the standby: served normally.
  try {
    PI_Write(g_ch_after, "%d", 22);
    g_after_code.store(0);
  } catch (const pilot::PilotError& e) {
    g_after_code.store(static_cast<int>(e.code()));
  }
  return 0;
}

TEST_F(CopilotFailoverTest, StandbyTakesOverAndFailsOnlyTheInflightRequest) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  // copilotN alias: node 0's Co-Pilot dies on the first request it serves.
  opts.args = {"-pifault=copilot_crash@copilot0:op=1"};
  int victim_read_code = -1;
  int after_value = -1;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* spe = PI_CreateSPE(writes_across_the_crash, PI_MAIN, 0);
        g_ch_victim = PI_CreateChannel(spe, PI_MAIN);  // Table I type 2
        g_ch_after = PI_CreateChannel(spe, PI_MAIN);
        PI_StartAll();
        PI_RunSPE(spe, 0, nullptr);
        int v = -1;
        try {
          PI_Read(g_ch_victim, "%d", &v);
        } catch (const pilot::PilotError& e) {
          victim_read_code = static_cast<int>(e.code());
          EXPECT_NE(e.detail().find("Co-Pilot"), std::string::npos)
              << "diagnostic must name the crashed Co-Pilot: " << e.detail();
        }
        PI_Read(g_ch_after, "%d", &after_value);
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << "a survivable Co-Pilot crash aborted the job: "
                          << r.abort_reason;
  // The in-flight request fails cleanly at both ends ...
  EXPECT_EQ(g_victim_code.load(), static_cast<int>(PI_COPILOT_FAULT));
  EXPECT_EQ(victim_read_code, static_cast<int>(PI_COPILOT_FAULT));
  // ... and the standby serves everything issued after the takeover.
  EXPECT_EQ(g_after_code.load(), 0);
  EXPECT_EQ(after_value, 22);
  EXPECT_EQ(failover_count(), 1u);
  EXPECT_EQ(machine.copilot_failover_count(0), 1);
}

TEST_F(CopilotFailoverTest, WildcardSiteCrashesTheOnlyCopilot) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  opts.args = {"-pifault=copilot_crash@*:op=1"};
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* spe = PI_CreateSPE(writes_across_the_crash, PI_MAIN, 0);
        g_ch_victim = PI_CreateChannel(spe, PI_MAIN);
        g_ch_after = PI_CreateChannel(spe, PI_MAIN);
        PI_StartAll();
        PI_RunSPE(spe, 0, nullptr);
        int v = -1;
        try {
          PI_Read(g_ch_victim, "%d", &v);
        } catch (const pilot::PilotError&) {
        }
        PI_Read(g_ch_after, "%d", &v);
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(failover_count(), 1u);
  EXPECT_EQ(machine.copilot_failover_count(0), 1);
}

PI_SPE_PROGRAM(burst_writer) {
  // Each incarnation runs the whole loop from the top; the journal dedupes
  // whatever the previous incarnation already delivered.
  try {
    for (int i = 0; i < kBurst; ++i) PI_Write(g_ch_burst, "%d", 10 * i);
  } catch (const pilot::PilotError& e) {
    g_burst_code.store(static_cast<int>(e.code()));
    return 0;
  }
  g_burst_code.store(0);
  return 0;
}

PI_SPE_PROGRAM(writes_once) {
  try {
    PI_Write(g_ch_victim, "%d", 11);
    g_victim_code.store(0);
  } catch (const pilot::PilotError& e) {
    g_victim_code.store(static_cast<int>(e.code()));
  }
  return 0;
}

TEST_F(CopilotFailoverTest, StandbyInheritsARespawnedProcessJournal) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  // The writer dies during its third request and is respawned with two
  // writes journaled.  The Co-Pilot then crashes serving the third request
  // it sees — the late writer's — before the replacement's replayed writes
  // arrive: the standby must inherit the replay cursors, or it re-delivers
  // the journaled prefix.
  opts.args = {"-pirespawn=2",
               "-pifault=spe_crash_mid@node0.cell0.spe0:op=3"
               ";copilot_crash@copilot0:op=3"};
  std::vector<int> got;
  int victim_read_code = -1;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* burst = PI_CreateSPE(burst_writer, PI_MAIN, 0);
        PI_PROCESS* late = PI_CreateSPE(writes_once, PI_MAIN, 0);
        g_ch_burst = PI_CreateChannel(burst, PI_MAIN);  // Table I type 2
        g_ch_victim = PI_CreateChannel(late, PI_MAIN);  // Table I type 2
        PI_StartAll();
        PI_RunSPE(burst, 0, nullptr);  // first launch -> node0.cell0.spe0
        for (int i = 0; i < 2; ++i) {
          int v = -1;
          PI_Read(g_ch_burst, "%d", &v);
          got.push_back(v);
        }
        PI_RunSPE(late, 0, nullptr);
        int v = -1;
        try {
          PI_Read(g_ch_victim, "%d", &v);
        } catch (const pilot::PilotError& e) {
          victim_read_code = static_cast<int>(e.code());
        }
        for (int i = 2; i < kBurst; ++i) {
          PI_Read(g_ch_burst, "%d", &v);
          got.push_back(v);
        }
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << r.abort_reason;

  // Exactly the fault-free sequence across the respawn and the failover.
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(got[i], 10 * i) << "i=" << i;
  EXPECT_EQ(g_burst_code.load(), 0);
  // The request the Co-Pilot died holding fails cleanly at both ends.
  EXPECT_EQ(g_victim_code.load(), static_cast<int>(PI_COPILOT_FAULT));
  EXPECT_EQ(victim_read_code, static_cast<int>(PI_COPILOT_FAULT));
  EXPECT_EQ(respawn_count(), 1u);
  EXPECT_EQ(failover_count(), 1u);
  EXPECT_EQ(recovered_op_count(), 2u)
      << "the standby lost the replay cursors of the respawned writer";
}

TEST_F(CopilotFailoverTest, CleanRunsNeverTripTheFailoverMachinery) {
  cluster::Cluster machine = one_cell();
  int v1 = -1;
  int v2 = -1;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(writes_across_the_crash, PI_MAIN, 0);
    g_ch_victim = PI_CreateChannel(spe, PI_MAIN);
    g_ch_after = PI_CreateChannel(spe, PI_MAIN);
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    PI_Read(g_ch_victim, "%d", &v1);
    PI_Read(g_ch_after, "%d", &v2);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(v1, 11);
  EXPECT_EQ(v2, 22);
  EXPECT_EQ(g_victim_code.load(), 0);
  EXPECT_EQ(g_after_code.load(), 0);
  EXPECT_EQ(failover_count(), 0u);
  EXPECT_EQ(machine.copilot_failover_count(0), 0);
}

}  // namespace
