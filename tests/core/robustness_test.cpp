// Failure-injection tests: the library must fail loudly and cleanly — no
// hangs, no silent corruption — when programs misbehave mid-protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "cellsim/spu.hpp"
#include "core/cellpilot.hpp"
#include "core/protocol.hpp"

namespace {

cluster::Cluster one_cell() {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  return cluster::Cluster(std::move(config));
}

std::atomic<PI_CHANNEL*> g_ch{nullptr};
std::atomic<PI_CHANNEL*> g_ch2{nullptr};
std::atomic<std::uint32_t> g_status{0};

PI_SPE_PROGRAM(throwing_spe) {
  throw std::runtime_error("injected SPE failure");
}

TEST(Robustness, SpeProgramExceptionAbortsTheJobCleanly) {
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(throwing_spe, PI_MAIN, 0);
    g_ch = PI_CreateChannel(spe, PI_MAIN);
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    int v = 0;
    PI_Read(g_ch, "%d", &v);  // would hang forever without the abort
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("injected SPE failure"), std::string::npos);
}

PI_SPE_PROGRAM(rogue_requester) {
  // Bypass the runtime and write a garbage request straight into the
  // outbound mailbox: unknown opcode, nonexistent channel.
  using namespace cellsim::spu;
  spu_write_out_mbox(cellpilot::pack_op_channel(
      static_cast<cellpilot::Opcode>(9), 0x00FFFFF0));
  spu_write_out_mbox(0);
  spu_write_out_mbox(16);
  spu_write_out_mbox(0xDEAD);
  g_status.store(spu_read_in_mbox());
  return 0;
}

TEST(Robustness, CopilotRejectsMalformedRequestsWithProtocolError) {
  cluster::Cluster machine = one_cell();
  g_status.store(0xFFFFFFFF);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(rogue_requester, PI_MAIN, 0);
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(g_status.load(),
            static_cast<std::uint32_t>(
                cellpilot::CompletionStatus::kProtocol));
}

int worker_that_throws(int /*index*/, void* /*arg*/) {
  throw std::logic_error("worker exploded");
}

PI_SPE_PROGRAM(parked_spe) {
  int v = 0;
  PI_Read(g_ch, "%d", &v);  // parked forever; must be released by abort
  return 0;
}

TEST(Robustness, RankFailureReleasesParkedSpeThreads) {
  // A worker rank throws while an SPE sits parked on a channel that will
  // never be written; the job must still terminate (no hang).
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(2));
  cluster::Cluster machine(std::move(config));
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* bad = PI_CreateProcess(worker_that_throws, 0, nullptr);
    (void)bad;
    PI_PROCESS* spe = PI_CreateSPE(parked_spe, PI_MAIN, 0);
    g_ch = PI_CreateChannel(PI_MAIN, spe);   // never written: parks the SPE
    g_ch2 = PI_CreateChannel(spe, PI_MAIN);  // never written: blocks main
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    int v = 0;
    PI_Read(g_ch2, "%d", &v);  // unblocked by the abort
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("worker exploded"), std::string::npos)
      << "actual reason: " << r.abort_reason;
}

TEST(Robustness, ReconfigureIsRejected) {
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_Configure(&argc, &argv);  // twice
    PI_StartAll();
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("twice"), std::string::npos);
}

PI_SPE_PROGRAM(quiet_spe) { return 0; }

TEST(Robustness, SpeLaunchAfterStopIsImpossible) {
  // PI_StopMain joins SPE threads before tearing down; a PI_RunSPE after
  // PI_StopMain is a phase error.
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(quiet_spe, PI_MAIN, 0);
    PI_StartAll();
    PI_StopMain(0);
    PI_RunSPE(spe, 0, nullptr);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
}

TEST(Robustness, RepeatedRunsOnFreshClustersAreIndependent) {
  // Back-to-back jobs must not leak state through the library's globals.
  for (int round = 0; round < 3; ++round) {
    cluster::Cluster machine = one_cell();
    g_status.store(111);
    const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
      PI_Configure(&argc, &argv);
      PI_PROCESS* spe = PI_CreateSPE(quiet_spe, PI_MAIN, 0);
      PI_StartAll();
      PI_RunSPE(spe, 0, nullptr);
      PI_StopMain(0);
      return 0;
    });
    ASSERT_FALSE(r.aborted) << "round " << round << ": " << r.abort_reason;
  }
}

}  // namespace
