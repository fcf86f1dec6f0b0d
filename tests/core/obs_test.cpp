// obs_test.cpp — the observability session spine across layers: a job run
// under any capture kind must leave no trace in any session's file (its
// flush is suppressed and its engine contents are cleared at both capture
// boundaries), so the next uncaptured job is flushed exactly as if it had
// run alone.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cellpilot.hpp"
#include "core/metrics.hpp"
#include "core/obs.hpp"
#include "core/telemetry.hpp"
#include "core/trace.hpp"

namespace {

PI_CHANNEL* g_ch = nullptr;

cluster::Cluster one_cell() {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  return cluster::Cluster(std::move(config));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

PI_SPE_PROGRAM(burst_writer) {
  for (int i = 0; i < 5; ++i) PI_Write(g_ch, "%d", i);
  return 0;
}

/// Job A: an SPE writes a burst to PI_MAIN (type 2, five messages).
int job_a(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* spe = PI_CreateSPE(burst_writer, PI_MAIN, 0);
  g_ch = PI_CreateChannel(spe, PI_MAIN);
  PI_StartAll();
  PI_RunSPE(spe, 0, nullptr);
  for (int i = 0; i < 5; ++i) {
    int v = 0;
    PI_Read(g_ch, "%d", &v);
  }
  PI_StopMain(0);
  return 0;
}

PI_SPE_PROGRAM(one_reader) {
  int v = 0;
  PI_Read(g_ch, "%d", &v);
  return 0;
}

/// Job B: PI_MAIN writes one message to an SPE (type 2, the other way).
int job_b(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* spe = PI_CreateSPE(one_reader, PI_MAIN, 0);
  g_ch = PI_CreateChannel(PI_MAIN, spe);
  PI_StartAll();
  PI_RunSPE(spe, 0, nullptr);
  PI_Write(g_ch, "%d", 7);
  PI_StopMain(0);
  return 0;
}

void run_job(int (*main)(int, char**)) {
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, main);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
}

struct Files {
  std::string trace, metrics, telemetry;
};

Files files(const char* tag) {
  const std::string base = ::testing::TempDir() + "cellpilot_obs_" + tag;
  return {base + ".trace.json", base + ".metrics.json",
          base + ".telemetry.json"};
}

void configure(const Files& f) {
  cellpilot::trace::TraceSession::global().configure(f.trace);
  cellpilot::metrics::MetricsSession::global().configure(f.metrics);
  cellpilot::telemetry::TelemetrySession::global().configure(f.telemetry);
}

class ObsSpineTest : public ::testing::Test {
 protected:
  void SetUp() override { cellpilot::obs::reset_for_tests(); }
  void TearDown() override {
    cellpilot::obs::reset_for_tests();
    for (const Files& f : {files("alone"), files("after")}) {
      std::remove(f.trace.c_str());
      std::remove(f.metrics.c_str());
      std::remove(f.telemetry.c_str());
    }
  }
};

TEST_F(ObsSpineTest, CapturedJobsLeaveNoResidueInAnySessionFile) {
  const Files alone = files("alone");
  configure(alone);
  run_job(job_b);

  const Files after = files("after");
  configure(after);
  {
    cellpilot::trace::ScopedTraceCapture capture;
    run_job(job_a);
  }
  {
    cellpilot::metrics::ScopedMetricsCapture capture;
    run_job(job_a);
  }
  {
    cellpilot::telemetry::ScopedTelemetryCapture capture;
    run_job(job_a);
  }
  run_job(job_b);

  const std::string trace = slurp(after.trace);
  EXPECT_NE(trace.find("\"jobs\":1,"), std::string::npos)
      << "captured jobs must not be flushed";
  EXPECT_EQ(trace, slurp(alone.trace));
  const std::string metrics = slurp(after.metrics);
  EXPECT_NE(metrics.find("\"agg\":\"series\""), std::string::npos);
  EXPECT_EQ(metrics, slurp(alone.metrics));
  const std::string telemetry = slurp(after.telemetry);
  EXPECT_NE(telemetry.find("\"jobs\": 1"), std::string::npos) << telemetry;
  EXPECT_EQ(telemetry, slurp(alone.telemetry));
}

}  // namespace
