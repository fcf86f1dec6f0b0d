// flightrec_test.cpp — the fault flight recorder: an SPE death on an armed
// recorder must leave a self-contained postmortem artifact on disk (reason,
// event tail, channel counters, armed fault plan), a disarmed recorder
// must leave nothing, and manual dumps must honor the same contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/cellpilot.hpp"
#include "core/faultplan.hpp"
#include "core/flightrec.hpp"
#include "core/obs.hpp"
#include "pilot/errors.hpp"

namespace {

using cellpilot::faults::FaultPlan;
using cellpilot::flightrec::FlightRecorder;

PI_CHANNEL* g_ch = nullptr;
std::atomic<int> g_main_code{-1};

cluster::Cluster one_cell() {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  return cluster::Cluster(std::move(config));
}

std::string artifact_path(const char* name) {
  return ::testing::TempDir() + "cellpilot_" + name + ".json";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class FlightRecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cellpilot::obs::reset_for_tests();
    g_main_code.store(-1);
  }
  void TearDown() override {
    FaultPlan::global().reset();
    cellpilot::obs::reset_for_tests();
  }
};

PI_SPE_PROGRAM(doomed_writer) {
  PI_Write(g_ch, "%d", 17);  // the fault plan kills the SPE at this request
  return 0;
}

int crash_main(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* doomed = PI_CreateSPE(doomed_writer, PI_MAIN, 0);
  g_ch = PI_CreateChannel(doomed, PI_MAIN);
  PI_StartAll();
  PI_RunSPE(doomed, 0, nullptr);
  int v = 0;
  try {
    PI_Read(g_ch, "%d", &v);
  } catch (const pilot::PilotError& e) {
    g_main_code.store(static_cast<int>(e.code()));
  }
  PI_StopMain(0);
  return 0;
}

cellpilot::RunOptions crash_opts() {
  cellpilot::RunOptions opts;
  opts.args = {"-pifault=spe_crash@node0.cell0.spe0:op=1"};
  return opts;
}

TEST_F(FlightRecTest, SpeDeathDumpsASelfContainedArtifact) {
  const std::string path = artifact_path("flightrec_spe_death");
  std::remove(path.c_str());
  FlightRecorder::global().configure(path);

  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, crash_main, crash_opts());
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(g_main_code.load(), static_cast<int>(PI_SPE_FAULT));
  EXPECT_GE(FlightRecorder::global().dump_count(), 1);

  const std::string artifact = slurp(path);
  ASSERT_FALSE(artifact.empty()) << "no artifact at " << path;
  EXPECT_NE(artifact.find("\"generator\":\"cellpilot-flightrec\""),
            std::string::npos);
  EXPECT_NE(artifact.find("\"reason\":\"spe_fault: "), std::string::npos)
      << "trigger reason must name the fault class";
  EXPECT_NE(artifact.find("\"faultPlan\""), std::string::npos);
  EXPECT_NE(artifact.find("spe_crash"), std::string::npos)
      << "the armed rule must be reproducible from the artifact";
  EXPECT_NE(artifact.find("\"channelStats\""), std::string::npos);
  EXPECT_NE(artifact.find("\"events\""), std::string::npos);
  // The SPE dies before its write completes, so the last breadcrumbs are
  // the transport hop that carried the doomed request and the Co-Pilot's
  // fault event — exactly what a postmortem needs.
  EXPECT_NE(artifact.find("\"name\":\"mpi_send\""), std::string::npos);
  EXPECT_NE(artifact.find("\"name\":\"copilot_fault\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FlightRecTest, DisarmedRecorderWritesNothing) {
  ASSERT_FALSE(FlightRecorder::global().armed());
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, crash_main, crash_opts());
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(g_main_code.load(), static_cast<int>(PI_SPE_FAULT));
  EXPECT_EQ(FlightRecorder::global().dump_count(), 0);
  FlightRecorder::global().dump("ignored: recorder is disarmed");
  EXPECT_EQ(FlightRecorder::global().dump_count(), 0);
}

PI_CHANNEL* g_pending_go = nullptr;
PI_CHANNEL* g_pending_out = nullptr;

PI_SPE_PROGRAM(gated_pending_writer) {
  PI_Read(g_pending_go, "");  // hold the rank's async read in flight
  PI_Write(g_pending_out, "%d", 5);
  return 0;
}

TEST_F(FlightRecTest, PostmortemListsPendingOperationsBesideTheEventTail) {
  const std::string path = artifact_path("flightrec_pending_ops");
  std::remove(path.c_str());
  FlightRecorder::global().configure(path);

  cluster::Cluster machine = one_cell();
  int v = 0;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(gated_pending_writer, PI_MAIN, 0);
    g_pending_go = PI_CreateChannel(PI_MAIN, spe);
    g_pending_out = PI_CreateChannel(spe, PI_MAIN);
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    // The writer is gated on g_pending_go, so this read cannot settle:
    // a dump taken now must list it as an in-flight operation — the
    // "who is everyone waiting for?" table of a hang postmortem.
    PI_HANDLE h = PI_ReadAsync(g_pending_out, "%d", &v);
    FlightRecorder::global().dump("watchdog: simulated hang");
    PI_Write(g_pending_go, "");
    PI_Wait(h);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(v, 5) << "the pending read must still settle after the dump";

  const std::string artifact = slurp(path);
  ASSERT_FALSE(artifact.empty()) << "no artifact at " << path;
  EXPECT_NE(artifact.find("\"pendingOps\""), std::string::npos);
  EXPECT_NE(artifact.find("\"kind\":\"read\""), std::string::npos);
  EXPECT_NE(artifact.find("\"state\":\"in_flight\""), std::string::npos);
  EXPECT_NE(artifact.find("flightrec_test.cpp"), std::string::npos)
      << "each pending row must name its submitting call site";
  std::remove(path.c_str());
}

PI_CHANNEL* g_blade_go = nullptr;
PI_CHANNEL* g_blade_out = nullptr;
PI_CHANNEL* g_blade_burst = nullptr;

PI_SPE_PROGRAM(blade_gated_responder) {
  // Blocks until the master writes — which it never does before the blade
  // dies, so the master's async read of g_blade_out stays parked on this
  // blade's Co-Pilot for the whole crash sequence.
  PI_Read(g_blade_go, "");
  PI_Write(g_blade_out, "%d", 1);
  return 0;
}

PI_SPE_PROGRAM(blade_burst_writer) {
  for (int i = 0; i < 4; ++i) PI_Write(g_blade_burst, "%d", i);
  return 0;
}

TEST_F(FlightRecTest, BladeKillCrashSceneNamesTheParkedOpsOnTheDeadBlade) {
  const std::string path = artifact_path("flightrec_blade_kill");
  std::remove(path.c_str());
  FlightRecorder::global().configure(path);

  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  // The burst drives the victim blade's op count to the trigger; there is
  // no checkpoint, so the kill degrades to peer faults instead of a
  // restore — the crash scene is the only record of what was in flight.
  opts.args = {"-pifault=blade_kill@node0:op=3"};
  int v = 0;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* gated = PI_CreateSPE(blade_gated_responder, PI_MAIN, 0);
        PI_PROCESS* writer = PI_CreateSPE(blade_burst_writer, PI_MAIN, 0);
        g_blade_go = PI_CreateChannel(PI_MAIN, gated);
        g_blade_out = PI_CreateChannel(gated, PI_MAIN);
        g_blade_burst = PI_CreateChannel(writer, PI_MAIN);
        PI_StartAll();
        PI_RunSPE(gated, 0, nullptr);
        PI_RunSPE(writer, 0, nullptr);
        // Parked on the doomed blade: the responder is gated, so this read
        // cannot settle before the kill.  It is never harvested — harvest
        // would release the registry row, and the crash scene exists to
        // record exactly the ops nobody got to harvest.  The rank engine
        // reclaims the slot at thread teardown.
        PI_HANDLE h = PI_ReadAsync(g_blade_out, "%d", &v);
        (void)h;
        try {
          int b = -1;
          for (int i = 0; i < 4; ++i) PI_Read(g_blade_burst, "%d", &b);
          PI_Write(g_blade_go, "");
        } catch (const pilot::PilotError& e) {
          g_main_code.store(static_cast<int>(e.code()));
        }
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(g_main_code.load(), static_cast<int>(PI_SPE_FAULT));
  EXPECT_EQ(machine.blade_kill_count(0), 1);
  EXPECT_GE(FlightRecorder::global().dump_count(), 1);

  const std::string artifact = slurp(path);
  ASSERT_FALSE(artifact.empty()) << "no artifact at " << path;
  // The sequence opens with the blade_kill scene and keeps the degrade
  // faults that follow it.
  const std::size_t kill_at =
      artifact.find("\"reason\":\"blade_kill: node 0 lost");
  ASSERT_NE(kill_at, std::string::npos)
      << "the crash sequence must open with the blade_kill scene";
  EXPECT_NE(artifact.find("\"reason\":\"spe_fault: blade node0 killed"),
            std::string::npos)
      << "the degrade faults must ride behind the kill scene";
  // The kill scene's pendingOps table must carry the read still parked on
  // the dead blade: the "who died holding what" line of a blade
  // postmortem.
  const std::size_t ops_at = artifact.find("\"pendingOps\":[", kill_at);
  ASSERT_NE(ops_at, std::string::npos);
  const std::size_t ops_end = artifact.find("\n]", ops_at);
  ASSERT_NE(ops_end, std::string::npos);
  const std::string ops = artifact.substr(ops_at, ops_end - ops_at);
  EXPECT_NE(ops.find("\"kind\":\"read\""), std::string::npos) << ops;
  EXPECT_NE(ops.find("\"entity\":\"node0."), std::string::npos)
      << "the parked op must be attributed to the dead blade:\n" << ops;
  EXPECT_NE(ops.find("flightrec_test.cpp"), std::string::npos)
      << "the parked op must name its submitting call site:\n" << ops;
  if (::getenv("KEEP_ARTIFACT") == nullptr) std::remove(path.c_str());
}

TEST_F(FlightRecTest, ManualDumpsAccumulateTheWholeCrashSequence) {
  const std::string path = artifact_path("flightrec_manual");
  std::remove(path.c_str());
  FlightRecorder::global().configure(path);
  EXPECT_TRUE(FlightRecorder::global().armed());
  EXPECT_EQ(FlightRecorder::global().path(), path);

  FlightRecorder::global().dump("watchdog: first trigger");
  FlightRecorder::global().dump("watchdog: second trigger");
  EXPECT_EQ(FlightRecorder::global().dump_count(), 2);

  const std::string artifact = slurp(path);
  EXPECT_NE(artifact.find("\"reason\":\"watchdog: first trigger\""),
            std::string::npos)
      << "the first scene must survive later triggers";
  EXPECT_NE(artifact.find("\"reason\":\"watchdog: second trigger\""),
            std::string::npos);
  EXPECT_NE(artifact.find("\"dumpOrdinal\":1"), std::string::npos);
  EXPECT_NE(artifact.find("\"dumpOrdinal\":2"), std::string::npos);

  // Re-arming starts a fresh artifact: the sequence belongs to one run.
  FlightRecorder::global().configure(path);
  FlightRecorder::global().dump("watchdog: after rearm");
  const std::string rearmed = slurp(path);
  EXPECT_EQ(rearmed.find("first trigger"), std::string::npos);
  EXPECT_NE(rearmed.find("\"reason\":\"watchdog: after rearm\""),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
