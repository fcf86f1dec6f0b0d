// telemetry_e2e_test.cpp — the `-pitelemetry` flag path end to end: the
// session arms at PI_Configure, the run's epilogue writes the windowed
// report through benchjson, PI_GetTelemetrySnapshot honours the metrics
// harvest contract (PI_ERR_PHASE before PI_StartAll, totals final after
// PI_StopMain, all-zero when disarmed), and two seeded runs leave
// byte-identical report files — the property the parity CI job
// pins on the real binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchkit/benchjson.hpp"
#include "core/cellpilot.hpp"
#include "core/obs.hpp"
#include "core/telemetry.hpp"
#include "pilot/errors.hpp"
#include "simtime/timeseries.hpp"

namespace {

namespace ts = simtime::timeseries;

// Canonical kind slots of PI_TELEMETRY_SNAPSHOT::kinds.
constexpr int kSlotDelivered = 8;
constexpr int kSlotSent = 9;

PI_CHANNEL* g_ch = nullptr;
std::atomic<int> g_sum{0};

PI_SPE_PROGRAM(burst_writer) {
  for (int i = 0; i < 4; ++i) PI_Write(g_ch, "%d", i + 1);
  return 0;
}

cluster::Cluster one_cell() {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  return cluster::Cluster(std::move(config));
}

std::string report_path(const char* name) {
  return ::testing::TempDir() + "cellpilot_" + name + ".json";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The shared job: a 4-int type-2 burst, with the snapshot contract
/// checked in-phase on both sides of PI_StartAll.
int telemetry_job(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* spe = PI_CreateSPE(burst_writer, PI_MAIN, 0);
  g_ch = PI_CreateChannel(spe, PI_MAIN);

  PI_TELEMETRY_SNAPSHOT snap{};
  EXPECT_EQ(PI_GetTelemetrySnapshot(&snap), PI_ERR_PHASE)
      << "before PI_StartAll there is no epoch to report";
  EXPECT_THROW(PI_GetTelemetrySnapshot(nullptr), pilot::PilotError);

  PI_StartAll();
  PI_RunSPE(spe, 0, nullptr);
  int sum = 0;
  for (int i = 0; i < 4; ++i) {
    int v = 0;
    PI_Read(g_ch, "%d", &v);
    sum += v;
  }
  g_sum.store(sum);
  PI_StopMain(0);

  // Quiesced: the whole burst is visible.  Slot layout is the engine's
  // canonical kind order, pinned by PI_TELEMETRY_KIND_COUNT's doc block.
  EXPECT_EQ(PI_GetTelemetrySnapshot(&snap), 0);
  if (cellpilot::telemetry::TelemetrySession::global().armed()) {
    EXPECT_EQ(snap.window_ns, ts::window());
    EXPECT_EQ(snap.kinds[kSlotDelivered].count, 4u);
    EXPECT_EQ(snap.kinds[kSlotSent].count, 4u);
    EXPECT_EQ(snap.kinds[kSlotDelivered].sum,
              snap.kinds[kSlotSent].sum)
        << "counter sums carry payload bytes on both endpoints";
    EXPECT_GE(snap.kinds[kSlotDelivered].windows, 1u);
  } else {
    for (const PI_TELEMETRY_STAT& k : snap.kinds) {
      EXPECT_EQ(k.windows, 0u);
      EXPECT_EQ(k.count, 0u);
    }
  }
  return 0;
}

class TelemetryE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cellpilot::obs::reset_for_tests();
    g_sum.store(0);
  }
  void TearDown() override {
    cellpilot::obs::reset_for_tests();
  }
};

cellpilot::RunOptions armed_opts(const std::string& path) {
  cellpilot::RunOptions opts;
  opts.args = {"-pitelemetry=" + path, "-pitelemetryevery=100"};
  return opts;
}

TEST_F(TelemetryE2eTest, FlagArmedRunWritesAParsableWindowedReport) {
  const std::string path = report_path("telemetry_e2e");
  std::remove(path.c_str());

  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, telemetry_job, armed_opts(path));
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(g_sum.load(), 10);

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << "no report at " << path;
  benchkit::Doc doc;
  std::string error;
  ASSERT_TRUE(benchkit::parse(text, &doc, &error)) << error;
  std::string bench;
  EXPECT_TRUE(benchkit::get_string(doc.meta, "bench", &bench));
  EXPECT_EQ(bench, "telemetry");
  double window_ns = 0;
  EXPECT_TRUE(benchkit::get_number(doc.meta, "windowNs", &window_ns));
  EXPECT_EQ(window_ns, 100000) << "-pitelemetryevery=100 is 100 us";
  ASSERT_FALSE(doc.rows.empty());
  std::uint64_t delivered = 0;
  bool saw_gauge = false;
  for (const benchkit::Fields& row : doc.rows) {
    std::string kind;
    ASSERT_TRUE(benchkit::get_string(row, "kind", &kind));
    double count = 0;
    ASSERT_TRUE(benchkit::get_number(row, "count", &count));
    if (kind == "delivered") delivered += static_cast<std::uint64_t>(count);
    if (kind == "mailbox_depth" || kind == "spe_pool_busy") saw_gauge = true;
  }
  EXPECT_EQ(delivered, 4u) << "the report must cover the whole burst";
  EXPECT_TRUE(saw_gauge) << "gauges must ride beside the counters";
  std::remove(path.c_str());
}

TEST_F(TelemetryE2eTest, TwoSeededRunsLeaveByteIdenticalReports) {
  const std::string path = report_path("telemetry_parity");
  auto one_run = [&] {
    std::remove(path.c_str());
    cellpilot::obs::reset_for_tests();
    cluster::Cluster machine = one_cell();
    const auto r = cellpilot::run(machine, telemetry_job, armed_opts(path));
    EXPECT_FALSE(r.aborted) << r.abort_reason;
    return slurp(path);
  };
  const std::string first = one_run();
  const std::string second = one_run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  std::remove(path.c_str());
}

TEST_F(TelemetryE2eTest, DisarmedRunWritesNothingAndSnapshotsZero) {
  ASSERT_FALSE(cellpilot::telemetry::TelemetrySession::global().armed());
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, telemetry_job);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(g_sum.load(), 10);
  EXPECT_FALSE(ts::armed());
}

}  // namespace
