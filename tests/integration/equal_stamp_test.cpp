// equal_stamp_test.cpp — two Co-Pilots whose earliest requests share a
// stamp must both make progress.
//
// Each blade runs one SPE.  Both SPEs join the same virtual instant, write
// one int over a type-5 channel to the other blade's SPE, then read the
// other's int.  The two write requests reach their Co-Pilots with equal
// stamps, and each Co-Pilot's published bound is its own request's stamp.
// A gate that waited for every remote bound to pass the candidate would
// leave each Co-Pilot waiting on the other forever.
//
// The job runs in a forked child under a watchdog, so a hang fails the test
// within the time limit instead of stalling the suite.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <optional>
#include <thread>

#include "cellsim/spu.hpp"
#include "core/cellpilot.hpp"

namespace {

constexpr simtime::SimTime kMeet = simtime::us(1000);
constexpr auto kWatchdog = std::chrono::seconds(25);

PI_CHANNEL* g_to_b = nullptr;
PI_CHANNEL* g_to_a = nullptr;
PI_PROCESS* g_spe_b = nullptr;

// What each SPE read from the other; the child checks them.
int g_a_read = -1;
int g_b_read = -1;

PI_SPE_PROGRAM(spe_a) {
  cellsim::spu::self().clock().join(kMeet);
  PI_Write(g_to_b, "%d", 1);
  int v = 0;
  PI_Read(g_to_a, "%d", &v);
  g_a_read = v;
  return 0;
}

PI_SPE_PROGRAM(spe_b) {
  cellsim::spu::self().clock().join(kMeet);
  PI_Write(g_to_a, "%d", 2);
  int v = 0;
  PI_Read(g_to_b, "%d", &v);
  g_b_read = v;
  return 0;
}

int run_b(int /*arg*/, void* /*ptr*/) {
  PI_RunSPE(g_spe_b, 0, nullptr);
  return 0;
}

int app_main(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* ppe_b = PI_CreateProcess(run_b, 0, nullptr);
  PI_PROCESS* spe_a_proc = PI_CreateSPE(spe_a, PI_MAIN, 0);
  g_spe_b = PI_CreateSPE(spe_b, ppe_b, 0);
  g_to_b = PI_CreateChannel(spe_a_proc, g_spe_b);
  g_to_a = PI_CreateChannel(g_spe_b, spe_a_proc);
  PI_StartAll();
  PI_RunSPE(spe_a_proc, 0, nullptr);
  PI_StopMain(0);
  return 0;
}

/// The child's whole life: run the job, report through the exit code.
[[noreturn]] void child(const simtime::CostModel& cost) {
  cluster::ClusterConfig config = cluster::ClusterConfig::two_cells();
  config.cost = cost;
  cluster::Cluster machine(std::move(config));
  const cellpilot::RunResult r = cellpilot::run(machine, app_main);
  const bool ok = !r.aborted && r.errors.empty() && r.status == 0 &&
                  g_a_read == 2 && g_b_read == 1;
  _exit(ok ? 0 : 1);
}

/// Runs the job in a child process.  Returns its exit status, or nullopt
/// when the watchdog fired (the child is then killed and reaped).
std::optional<int> run_watched(const simtime::CostModel& cost) {
  const pid_t pid = fork();
  if (pid == 0) child(cost);
  if (pid < 0) return 127;
  const auto deadline = std::chrono::steady_clock::now() + kWatchdog;
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (waitpid(pid, &status, WNOHANG) == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  return std::nullopt;
}

TEST(EqualStampCopilots, CalibratedModelCompletes) {
  const std::optional<int> status =
      run_watched(cluster::ClusterConfig::two_cells().cost);
  ASSERT_TRUE(status.has_value())
      << "the two Co-Pilots hung on equal request stamps";
  EXPECT_EQ(*status, 0) << "the job completed but delivered wrong data";
}

TEST(EqualStampCopilots, ZeroCostModelCompletes) {
  const std::optional<int> status = run_watched(simtime::zero_cost_model());
  ASSERT_TRUE(status.has_value())
      << "the two Co-Pilots hung on equal request stamps";
  EXPECT_EQ(*status, 0) << "the job completed but delivered wrong data";
}

}  // namespace
