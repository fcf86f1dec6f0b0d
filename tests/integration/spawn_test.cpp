// spawn_test.cpp — runtime SPE spawning through PI_CreateSPESlot +
// PI_SpawnSPE.
//
// The spawn tier lifts Pilot's static-declaration restriction: the
// communication structure (processes, channels, routes) is still declared
// in the configuration phase, but *which program* occupies an SPE slot is
// decided at execution time.  Contract under test:
//  * a slot created with PI_CreateSPESlot runs whatever program each
//    PI_SpawnSPE binds, and a respawn reuses the pooled SPE context the
//    previous occupant vacated (visible as a stable entity across the
//    spe_spawn / spe_retire trace events);
//  * spawn and retire are first-class vocabulary: spe_spawn/spe_retire
//    events and a spawn_latency metric per launch;
//  * a slot whose occupant faulted is poisoned — respawning it is a usage
//    error, not a haunted context;
//  * a spawn waits for every earlier occupant of the slot, one that Co-Pilot
//    supervision respawned included;
//  * the usual phase/typing misuses are caught as PI_USAGE errors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cellpilot.hpp"
#include "core/faultplan.hpp"
#include "core/trace.hpp"
#include "pilot/errors.hpp"
#include "simtime/metrics.hpp"
#include "simtime/tracebuf.hpp"

namespace {

namespace tb = simtime::tracebuf;
namespace sm = simtime::metrics;
using cellpilot::faults::FaultPlan;
using cellpilot::trace::ScopedTraceCapture;
using pilot::ErrorCode;
using pilot::PilotError;

std::atomic<PI_CHANNEL*> g_out{nullptr};
std::atomic<int> g_value{0};
std::atomic<bool> g_retired{false};
std::atomic<int> g_saw_retired{-1};

cluster::Cluster one_cell() {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  return cluster::Cluster(std::move(config));
}

class SpawnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_out = nullptr;
    g_value.store(0);
    g_retired.store(false);
    g_saw_retired.store(-1);
  }
  ~SpawnTest() override { FaultPlan::global().reset(); }
};

PI_SPE_PROGRAM(first_occupant) {
  PI_Write(g_out, "%d", 101 + arg1);
  return 0;
}

PI_SPE_PROGRAM(second_occupant) {
  PI_Write(g_out, "%d", 202);
  return 0;
}

PI_SPE_PROGRAM(crashing_occupant) {
  PI_Write(g_out, "%d", 1);  // the fault plan kills the SPE at this request
  return 0;
}

PI_SPE_PROGRAM(slow_occupant) {
  PI_Write(g_out, "%d", 1);  // the fault plan kills the first incarnation
  // Host time, not virtual time: a spawn that does not wait for this
  // occupant starts its successor long before the flag is set.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  g_retired.store(true);
  return 0;
}

PI_SPE_PROGRAM(successor) {
  g_saw_retired.store(g_retired.load() ? 1 : 0);
  PI_Write(g_out, "%d", 2);
  return 0;
}

TEST_F(SpawnTest, SlotRunsEachBoundProgramAndReusesThePooledContext) {
  cluster::Cluster machine = one_cell();
  int v1 = 0;
  int v2 = 0;
  ScopedTraceCapture capture;
  sm::arm();
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* slot = PI_CreateSPESlot(PI_MAIN, 0);
    g_out = PI_CreateChannel(slot, PI_MAIN);
    PI_StartAll();
    PI_SpawnSPE(slot, &first_occupant, 0, nullptr);
    PI_Read(g_out, "%d", &v1);
    // Respawn: waits for the first occupant to retire, then binds a
    // different program to the same declared slot and channel.
    PI_SpawnSPE(slot, &second_occupant, 0, nullptr);
    PI_Read(g_out, "%d", &v2);
    PI_StopMain(0);
    return 0;
  });
  const std::vector<sm::Series> series = sm::drain();
  sm::disarm();
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(v1, 101);
  EXPECT_EQ(v2, 202);

  // Two launches, two retirements — and the respawn reuses the context
  // the first occupant vacated (same entity on every event).
  const auto events = capture.drain();
  std::vector<std::string> spawn_entities;
  std::vector<std::string> retire_entities;
  for (const auto& e : events) {
    if (e.kind == tb::Kind::kSpeSpawn) spawn_entities.push_back(e.entity);
    if (e.kind == tb::Kind::kSpeRetire) retire_entities.push_back(e.entity);
  }
  ASSERT_EQ(spawn_entities.size(), 2u);
  ASSERT_EQ(retire_entities.size(), 2u);
  EXPECT_EQ(spawn_entities[0], spawn_entities[1])
      << "the respawn must reuse the pooled SPE context";
  EXPECT_EQ(retire_entities[0], spawn_entities[0]);

  std::uint64_t spawn_samples = 0;
  for (const auto& s : series) {
    if (s.key.kind == sm::Kind::kSpawnLatency) spawn_samples += s.hist.count();
  }
  EXPECT_EQ(spawn_samples, 2u) << "one spawn_latency sample per launch";
}

TEST_F(SpawnTest, SpawnOverridesAStaticallyBoundProgram) {
  cluster::Cluster machine = one_cell();
  int v = 0;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    // Declared with one program, spawned with another: PI_SpawnSPE's
    // runtime binding wins.
    PI_PROCESS* proc = PI_CreateSPE(first_occupant, PI_MAIN, 0);
    g_out = PI_CreateChannel(proc, PI_MAIN);
    PI_StartAll();
    PI_SpawnSPE(proc, &second_occupant, 0, nullptr);
    PI_Read(g_out, "%d", &v);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(v, 202);
}

TEST_F(SpawnTest, AFaultedOccupantPoisonsTheSlot) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  opts.args = {"-pifault=spe_crash@node0.cell0.spe0:op=1"};
  int read_code = -1;
  int respawn_code = -1;
  std::string respawn_detail;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* slot = PI_CreateSPESlot(PI_MAIN, 0);
        g_out = PI_CreateChannel(slot, PI_MAIN);
        PI_StartAll();
        PI_SpawnSPE(slot, &crashing_occupant, 0, nullptr);
        int v = 0;
        try {
          PI_Read(g_out, "%d", &v);
        } catch (const PilotError& e) {
          read_code = static_cast<int>(e.code());
        }
        try {
          PI_SpawnSPE(slot, &second_occupant, 0, nullptr);
        } catch (const PilotError& e) {
          respawn_code = static_cast<int>(e.code());
          respawn_detail = e.detail();
        }
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << "a survivable SPE fault aborted the job: "
                          << r.abort_reason;
  EXPECT_EQ(read_code, static_cast<int>(PI_SPE_FAULT));
  EXPECT_EQ(respawn_code, static_cast<int>(ErrorCode::kUsage));
  EXPECT_NE(respawn_detail.find("cannot be respawned"), std::string::npos)
      << respawn_detail;
}

TEST_F(SpawnTest, SpawnWaitsForARespawnedOccupant) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  opts.args = {"-pirespawn=1",
               "-pifault=spe_crash_mid@node0.cell0.spe0:op=1"};
  int v1 = 0;
  int v2 = 0;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* slot = PI_CreateSPESlot(PI_MAIN, 0);
        g_out = PI_CreateChannel(slot, PI_MAIN);
        PI_StartAll();
        PI_SpawnSPE(slot, &slow_occupant, 0, nullptr);
        // Delivered by the respawned incarnation on another context.
        PI_Read(g_out, "%d", &v1);
        PI_SpawnSPE(slot, &successor, 0, nullptr);
        PI_Read(g_out, "%d", &v2);
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(v1, 1);
  EXPECT_EQ(v2, 2);
  EXPECT_EQ(g_saw_retired.load(), 1)
      << "PI_SpawnSPE started the successor before the respawned occupant "
         "retired";
}

TEST_F(SpawnTest, MisusesAreCaughtAsUsageErrors) {
  cluster::Cluster machine = one_cell();
  // Code and detail of each configuration-phase misuse ({-1, ""}: none).
  std::vector<std::pair<int, std::string>> early(4, {-1, ""});
  int late_slot_code = -1;
  int rank_target_code = -1;
  int null_program_code = -1;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* slot = PI_CreateSPESlot(PI_MAIN, 0);
    g_out = PI_CreateChannel(slot, PI_MAIN);
    const auto catch_usage = [&](std::size_t i, const auto& call) {
      try {
        call();
      } catch (const PilotError& e) {
        early[i] = {static_cast<int>(e.code()), e.detail()};
      }
    };
    // Launches before the execution phase.
    catch_usage(0, [&] { PI_RunSPE(slot, 0, nullptr); });
    catch_usage(1, [&] { PI_SpawnSPE(slot, &first_occupant, 0, nullptr); });
    // An SPE process cannot parent another one.
    catch_usage(2, [&] { (void)PI_CreateSPESlot(slot, 1); });
    catch_usage(3, [&] { (void)PI_CreateSPE(first_occupant, slot, 1); });
    PI_StartAll();
    try {
      (void)PI_CreateSPESlot(PI_MAIN, 1);  // configuration phase is over
    } catch (const PilotError& e) {
      late_slot_code = static_cast<int>(e.code());
    }
    try {
      PI_SpawnSPE(PI_MAIN, &first_occupant, 0, nullptr);  // not an SPE
    } catch (const PilotError& e) {
      rank_target_code = static_cast<int>(e.code());
    }
    try {
      PI_SpawnSPE(slot, nullptr, 0, nullptr);
    } catch (const PilotError& e) {
      null_program_code = static_cast<int>(e.code());
    }
    // Leave the slot occupied so its declared channel is actually used.
    PI_SpawnSPE(slot, &first_occupant, 0, nullptr);
    int v = 0;
    PI_Read(g_out, "%d", &v);
    EXPECT_EQ(v, 101);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  const char* const early_detail[] = {
      "outside the execution phase", "outside the execution phase",
      "not another SPE process", "not another SPE process"};
  for (std::size_t i = 0; i < early.size(); ++i) {
    EXPECT_EQ(early[i].first, static_cast<int>(ErrorCode::kUsage)) << i;
    EXPECT_NE(early[i].second.find(early_detail[i]), std::string::npos)
        << i << ": " << early[i].second;
  }
  EXPECT_EQ(late_slot_code, static_cast<int>(ErrorCode::kUsage));
  EXPECT_EQ(rank_target_code, static_cast<int>(ErrorCode::kUsage));
  EXPECT_EQ(null_program_code, static_cast<int>(ErrorCode::kUsage));
}

}  // namespace
