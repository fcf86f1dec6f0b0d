// telemetry_layer_test.cpp — the CellPilot vocabulary over the windowed
// time-series engine: the report serializer (parsed back through the same
// benchjson reader pitop uses), the scoped capture harness, end-to-end seam
// coverage on a type-2 job, byte-determinism of the report, virtual-time
// neutrality of arming, and the empty-env disarm baselines shared with the
// trace / metrics / flight-recorder sessions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchkit/benchjson.hpp"
#include "benchkit/pingpong.hpp"
#include "core/cellpilot.hpp"
#include "core/flightrec.hpp"
#include "core/metrics.hpp"
#include "core/obs.hpp"
#include "core/telemetry.hpp"
#include "core/trace.hpp"
#include "pilot/errors.hpp"
#include "simtime/timeseries.hpp"

namespace {

namespace ts = simtime::timeseries;
using cellpilot::telemetry::JobTelemetry;
using cellpilot::telemetry::ScopedTelemetryCapture;
using cellpilot::telemetry::telemetry_report_json;

// --- report serializer ---------------------------------------------------

std::vector<JobTelemetry> sample_jobs() {
  JobTelemetry jt;
  jt.job = 1;
  ts::Series s;
  s.key.kind = ts::Kind::kDelivered;
  s.key.route_type = 2;
  s.key.channel = 0;
  s.key.entity = "node0.copilot";
  ts::Cell cell;
  cell.add(32);
  cell.add(32);
  s.windows.emplace_back(4, cell);
  jt.series.push_back(s);
  return {jt};
}

TEST(TelemetryReportJson, RoundTripsThroughTheSharedBenchjsonReader) {
  const std::string json =
      telemetry_report_json(sample_jobs(), simtime::us(50));
  benchkit::Doc doc;
  std::string error;
  ASSERT_TRUE(benchkit::parse(json, &doc, &error)) << error;

  std::string bench;
  EXPECT_TRUE(benchkit::get_string(doc.meta, "bench", &bench));
  EXPECT_EQ(bench, "telemetry");
  std::string unit;
  EXPECT_TRUE(benchkit::get_string(doc.meta, "unit", &unit));
  EXPECT_EQ(unit, "virtual_ns");
  double window_ns = 0;
  EXPECT_TRUE(benchkit::get_number(doc.meta, "windowNs", &window_ns));
  EXPECT_EQ(window_ns, 50000);
  double jobs = 0;
  EXPECT_TRUE(benchkit::get_number(doc.meta, "jobs", &jobs));
  EXPECT_EQ(jobs, 1);

  ASSERT_EQ(doc.rows.size(), 1u);
  std::string kind;
  EXPECT_TRUE(benchkit::get_string(doc.rows[0], "kind", &kind));
  EXPECT_EQ(kind, "delivered");
  double value = 0;
  EXPECT_TRUE(benchkit::get_number(doc.rows[0], "win", &value));
  EXPECT_EQ(value, 4);
  EXPECT_TRUE(benchkit::get_number(doc.rows[0], "count", &value));
  EXPECT_EQ(value, 2);
  EXPECT_TRUE(benchkit::get_number(doc.rows[0], "sum", &value));
  EXPECT_EQ(value, 64);
}

TEST(TelemetryReportJson, SerializationIsAPureFunctionOfTheReports) {
  const std::vector<JobTelemetry> jobs = sample_jobs();
  EXPECT_EQ(telemetry_report_json(jobs, simtime::us(50)),
            telemetry_report_json(jobs, simtime::us(50)));
}

// --- a small type-2 job for seam coverage --------------------------------

PI_CHANNEL* g_ch = nullptr;
std::atomic<int> g_value{0};

PI_SPE_PROGRAM(writes_one_int) {
  PI_Write(g_ch, "%d", 4242);
  return 0;
}

cluster::Cluster one_cell() {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  return cluster::Cluster(std::move(config));
}

int telemetry_main(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* spe = PI_CreateSPE(writes_one_int, PI_MAIN, 0);
  g_ch = PI_CreateChannel(spe, PI_MAIN);  // Table I type 2
  PI_StartAll();
  PI_RunSPE(spe, 0, nullptr);
  int v = 0;
  PI_Read(g_ch, "%d", &v);
  g_value.store(v);
  PI_StopMain(0);
  return 0;
}

TEST(TelemetryLayer, CapturedJobRecordsTheCoreSeamKinds) {
  ScopedTelemetryCapture capture;
  g_value.store(0);
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, telemetry_main);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(g_value.load(), 4242);

  const std::vector<ts::Series> series = capture.drain();
  ASSERT_FALSE(series.empty());
  std::uint64_t delivered = 0;
  std::uint64_t sent = 0;
  std::uint64_t mailbox = 0;
  std::uint64_t service_busy = 0;
  std::uint64_t pool = 0;
  for (const ts::Series& s : series) {
    std::uint64_t samples = 0;
    for (const auto& [win, cell] : s.windows) {
      (void)win;
      samples += cell.count;
    }
    switch (s.key.kind) {
      case ts::Kind::kDelivered:
        delivered += samples;
        EXPECT_EQ(s.key.route_type, 2);
        break;
      case ts::Kind::kSent: sent += samples; break;
      case ts::Kind::kMailboxDepth:
        mailbox += samples;
        EXPECT_EQ(s.key.entity.find("node0"), 0u)
            << "mailbox gauge must name its Co-Pilot: " << s.key.entity;
        break;
      case ts::Kind::kServiceBusy: service_busy += samples; break;
      case ts::Kind::kSpePoolBusy: pool += samples; break;
      default: break;
    }
  }
  EXPECT_EQ(delivered, 1u) << "one message end to end";
  EXPECT_EQ(sent, 1u);
  EXPECT_GE(mailbox, 1u) << "type 2 crosses the Co-Pilot ready queue";
  EXPECT_GE(service_busy, 1u);
  EXPECT_GE(pool, 2u) << "the SPE context spawns (1) and retires (0)";
}

TEST(TelemetryDeterminism, TwoSeededRunsSerializeByteIdentically) {
  auto one_run = [] {
    ScopedTelemetryCapture capture;
    cluster::Cluster machine = one_cell();
    const auto r = cellpilot::run(machine, telemetry_main);
    EXPECT_FALSE(r.aborted) << r.abort_reason;
    JobTelemetry jt;
    jt.job = 1;
    jt.series = capture.drain();
    return telemetry_report_json({jt}, ts::window());
  };
  const std::string first = one_run();
  const std::string second = one_run();
  EXPECT_NE(first.find("\"kind\": \"delivered\""), std::string::npos)
      << "capture saw no delivery rows: " << first;
  EXPECT_EQ(first, second);
}

// --- virtual-time neutrality ---------------------------------------------

TEST(TelemetryNeutrality, ArmingDoesNotPerturbVirtualTime) {
  benchkit::PingPongSpec spec;
  spec.type = cellpilot::ChannelType::kType2;
  spec.bytes = 32;
  spec.reps = 20;
  const simtime::CostModel cost = simtime::default_cost_model();
  const simtime::SimTime plain =
      benchkit::pingpong(spec, benchkit::Method::kCellPilot, cost);
  simtime::SimTime armed = 0;
  {
    ScopedTelemetryCapture capture;
    armed = benchkit::pingpong(spec, benchkit::Method::kCellPilot, cost);
  }
  EXPECT_EQ(plain, armed)
      << "recording must read clocks the seams already hold, never move "
         "them";
}

// --- empty-env disarm baselines ------------------------------------------

// CELLPILOT_TELEMETRY="" (and its trace / metrics / flight-recorder
// siblings) must keep the feature disarmed: an empty value is a disarm
// baseline, not an instruction to open an unnamed file.  The obs reset
// re-reads every environment variable through the same guard first touch
// uses, so this exercises the arming decision itself — loud-ignore notes
// included.
class EmptyEnvBaselineTest : public ::testing::Test {
 protected:
  // Construct every session under the unset environment first, so the
  // notes a test captures are the reset's alone.
  void SetUp() override { cellpilot::obs::begin_job(); }
  void TearDown() override {
    ::unsetenv("CELLPILOT_TELEMETRY");
    ::unsetenv("CELLPILOT_TRACE");
    ::unsetenv("CELLPILOT_METRICS");
    ::unsetenv("CELLPILOT_FLIGHTREC");
    cellpilot::obs::reset_for_tests();
  }
};

TEST_F(EmptyEnvBaselineTest, EmptyValuesKeepEverySessionDisarmed) {
  ::setenv("CELLPILOT_TELEMETRY", "", 1);
  ::setenv("CELLPILOT_TRACE", "", 1);
  ::setenv("CELLPILOT_METRICS", "", 1);
  ::setenv("CELLPILOT_FLIGHTREC", "", 1);
  ::testing::internal::CaptureStderr();
  cellpilot::obs::reset_for_tests();
  const std::string notes = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(notes,
            "cellpilot: ignoring empty CELLPILOT_TRACE "
            "(tracing stays disarmed)\n"
            "cellpilot: ignoring empty CELLPILOT_METRICS "
            "(metrics stay disarmed)\n"
            "cellpilot: ignoring empty CELLPILOT_TELEMETRY "
            "(telemetry stays disarmed)\n"
            "cellpilot: ignoring empty CELLPILOT_FLIGHTREC "
            "(flight recorder stays disarmed)\n");
  EXPECT_FALSE(cellpilot::telemetry::TelemetrySession::global().armed());
  EXPECT_FALSE(cellpilot::trace::TraceSession::global().armed());
  EXPECT_FALSE(cellpilot::metrics::MetricsSession::global().armed());
  EXPECT_FALSE(cellpilot::flightrec::FlightRecorder::global().armed());
  EXPECT_FALSE(ts::armed()) << "no engine may be left armed either";
}

TEST_F(EmptyEnvBaselineTest, NonEmptyValuesStillArmAfterAReset) {
  ::setenv("CELLPILOT_TELEMETRY", "env_tel.json", 1);
  cellpilot::obs::reset_for_tests();
  EXPECT_TRUE(cellpilot::telemetry::TelemetrySession::global().armed());
  EXPECT_EQ(cellpilot::telemetry::TelemetrySession::global().path(),
            "env_tel.json");
}

TEST_F(EmptyEnvBaselineTest, TelemetryWindowEnvParsesOrIsLoudlyIgnored) {
  const simtime::SimTime before = ts::window();
  // A positive microsecond count takes effect at session (re)construction.
  ::setenv("CELLPILOT_TELEMETRY_EVERY", "25", 1);
  cellpilot::obs::reset_for_tests();
  EXPECT_EQ(ts::window(), simtime::us(25));
  // Garbage and non-positive values must leave the window alone.
  for (const char* bad : {"banana", "0", "-5", "10us"}) {
    ::setenv("CELLPILOT_TELEMETRY_EVERY", bad, 1);
    cellpilot::obs::reset_for_tests();
    EXPECT_EQ(ts::window(), simtime::us(25)) << "value: " << bad;
  }
  ::unsetenv("CELLPILOT_TELEMETRY_EVERY");
  ts::set_window(before);
}

}  // namespace
