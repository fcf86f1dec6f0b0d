// metrics_layer_test.cpp — the CellPilot vocabulary over the histogram
// engine: the report serializer, the scoped capture harness, end-to-end
// seam coverage on a type-2 job, the PI_GetMetricsSnapshot harvest
// contract (including PI_ERR_PHASE before PI_StartAll), determinism of
// the report bytes, and virtual-time neutrality of arming.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "benchkit/pingpong.hpp"
#include "core/cellpilot.hpp"
#include "core/metrics.hpp"
#include "pilot/errors.hpp"
#include "simtime/metrics.hpp"

namespace {

namespace sm = simtime::metrics;
using cellpilot::metrics::JobReport;
using cellpilot::metrics::LatencyLedger;
using cellpilot::metrics::metrics_report_json;
using cellpilot::metrics::ScopedMetricsCapture;

// --- report serializer ---------------------------------------------------

JobReport sample_report() {
  JobReport r;
  r.job = 1;
  sm::Series s;
  s.key.kind = sm::Kind::kMsgLatency;
  s.key.route_type = 2;
  s.key.channel = 0;
  s.key.entity = "rank0";
  s.hist.add(1000);
  s.hist.add(3000);
  r.series.push_back(s);
  return r;
}

TEST(MetricsReportJson, EmitsSeriesAndRouteRollupLines) {
  const std::string json = metrics_report_json({sample_report()});
  EXPECT_NE(json.find("\"generator\":\"cellpilot-metrics\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"unit\":\"virtual_ns\""), std::string::npos);
  EXPECT_NE(json.find("{\"agg\":\"series\",\"job\":1,"
                      "\"kind\":\"msg_latency\",\"route\":2,\"channel\":0,"
                      "\"entity\":\"rank0\",\"count\":2,\"sumNs\":4000,"
                      "\"minNs\":1000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"agg\":\"route\",\"job\":1,"
                      "\"kind\":\"msg_latency\",\"route\":2,\"count\":2,"
                      "\"sumNs\":4000"),
            std::string::npos)
      << json;
}

TEST(MetricsReportJson, SerializationIsAPureFunctionOfTheReports) {
  EXPECT_EQ(metrics_report_json({sample_report()}),
            metrics_report_json({sample_report()}));
}

// --- latency ledger ------------------------------------------------------

TEST(LatencyLedgerTest, FifoPerChannelAndRangeChecked) {
  LatencyLedger& ledger = LatencyLedger::global();
  ledger.reset(2);
  ledger.push(0, 100);
  ledger.push(0, 200);
  ledger.push(1, 300);
  ledger.push(7, 400);  // out of range: ignored
  simtime::SimTime got = 0;
  EXPECT_TRUE(ledger.pop(0, &got));
  EXPECT_EQ(got, 100);
  EXPECT_TRUE(ledger.pop(0, &got));
  EXPECT_EQ(got, 200);
  EXPECT_FALSE(ledger.pop(0, &got)) << "FIFO exhausted";
  EXPECT_FALSE(ledger.pop(7, &got)) << "out-of-range channel";
  EXPECT_TRUE(ledger.pop(1, &got));
  EXPECT_EQ(got, 300);
  ledger.reset(1);
  EXPECT_FALSE(ledger.pop(1, &got)) << "reset starts a fresh epoch";
}

// --- end-to-end: a type-2 job under a scoped capture ---------------------

std::atomic<PI_CHANNEL*> g_ch{nullptr};
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

int metrics_main(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* spe = PI_CreateSPE(writes_one_int, PI_MAIN, 0);
  g_ch = PI_CreateChannel(spe, PI_MAIN);  // Table I type 2

  // Harvest-contract negative tests: before PI_StartAll neither stats API
  // has an epoch to report, and both say so with PI_ERR_PHASE rather
  // than a throw (null arguments are still usage errors).
  PI_CHANNEL_STATS cstats{};
  PI_METRICS_SNAPSHOT snap{};
  EXPECT_EQ(PI_GetChannelStats(g_ch, &cstats), PI_ERR_PHASE);
  EXPECT_EQ(PI_GetMetricsSnapshot(&snap), PI_ERR_PHASE);
  EXPECT_THROW(PI_GetMetricsSnapshot(nullptr), pilot::PilotError);

  PI_StartAll();
  PI_RunSPE(spe, 0, nullptr);
  int v = 0;
  PI_Read(g_ch, "%d", &v);
  g_value.store(v);
  PI_StopMain(0);

  // After PI_StopMain the job is quiesced: the snapshot covers the one
  // message end to end.  Slot 0 aggregates all routes, slot 2 is Table I
  // type 2.
  EXPECT_EQ(PI_GetMetricsSnapshot(&snap), 0);
  EXPECT_EQ(snap.msg_latency[2].count, 1u);
  EXPECT_EQ(snap.msg_latency[0].count, 1u);
  EXPECT_EQ(snap.read_block[2].count, 1u);
  EXPECT_EQ(snap.msg_latency[1].count, 0u) << "no type-1 traffic ran";
  EXPECT_GT(snap.msg_latency[2].sum_ns, 0u);
  EXPECT_GE(snap.msg_latency[2].max_ns, snap.msg_latency[2].min_ns);
  EXPECT_GE(snap.msg_latency[2].p50_ns, snap.msg_latency[2].min_ns);
  EXPECT_LE(snap.msg_latency[2].p99_ns, snap.msg_latency[2].max_ns);
  EXPECT_GE(snap.msg_latency[2].min_ns, snap.read_block[2].min_ns)
      << "end-to-end latency includes the read's blocking time";
  return 0;
}

TEST(MetricsLayer, CapturedJobRecordsEverySeamKind) {
  ScopedMetricsCapture capture;
  g_value.store(0);
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, metrics_main);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(g_value.load(), 4242);

  const auto series = capture.drain();
  ASSERT_FALSE(series.empty());
  std::uint64_t latency = 0;
  std::uint64_t block = 0;
  std::uint64_t queue_wait = 0;
  std::uint64_t service = 0;
  std::uint64_t mbox = 0;
  for (const auto& s : series) {
    switch (s.key.kind) {
      case sm::Kind::kMsgLatency:
        latency += s.hist.count();
        EXPECT_EQ(s.key.route_type, 2);
        EXPECT_EQ(s.key.channel, 0);
        break;
      case sm::Kind::kReadBlock: block += s.hist.count(); break;
      case sm::Kind::kCopilotQueueWait: queue_wait += s.hist.count(); break;
      case sm::Kind::kCopilotService: service += s.hist.count(); break;
      case sm::Kind::kMboxWait: mbox += s.hist.count(); break;
      case sm::Kind::kRetransmitDelay: break;  // clean run: none expected
      // A clean one-message type-2 run waits on no handle, spawns and
      // respawns nothing, and neither checkpoints nor restores.
      case sm::Kind::kHandleWait:
      case sm::Kind::kSpawnLatency:
      case sm::Kind::kRespawnLatency:
      case sm::Kind::kCkptQuiesce:
      case sm::Kind::kRestoreLatency:
        ADD_FAILURE() << "unexpected kind " << sm::kind_name(s.key.kind);
        break;
    }
  }
  EXPECT_EQ(latency, 1u) << "one message end to end";
  EXPECT_EQ(block, 1u) << "one PI_Read";
  EXPECT_GE(queue_wait, 1u) << "type 2 crosses the Co-Pilot";
  EXPECT_EQ(queue_wait, service)
      << "every served request has both a queue-wait and a service sample";
  EXPECT_GE(mbox, 1u) << "the SPE write talks over its mailbox";
}

TEST(MetricsDeterminism, TwoSeededRunsSerializeByteIdentically) {
  auto one_run = [] {
    ScopedMetricsCapture capture;
    cluster::Cluster machine = one_cell();
    const auto r = cellpilot::run(machine, metrics_main);
    EXPECT_FALSE(r.aborted) << r.abort_reason;
    JobReport report;
    report.job = 1;
    report.series = capture.drain();
    return metrics_report_json({report});
  };
  const std::string first = one_run();
  const std::string second = one_run();
  EXPECT_NE(first.find("\"agg\":\"series\""), std::string::npos)
      << "capture saw no series";
  EXPECT_EQ(first, second);
}

// --- virtual-time neutrality ---------------------------------------------

TEST(MetricsNeutrality, ArmingDoesNotPerturbVirtualTime) {
  benchkit::PingPongSpec spec;
  spec.type = cellpilot::ChannelType::kType2;
  spec.bytes = 32;
  spec.reps = 20;
  const simtime::CostModel cost = simtime::default_cost_model();
  const simtime::SimTime plain =
      benchkit::pingpong(spec, benchkit::Method::kCellPilot, cost);
  simtime::SimTime armed = 0;
  {
    ScopedMetricsCapture capture;
    armed = benchkit::pingpong(spec, benchkit::Method::kCellPilot, cost);
  }
  EXPECT_EQ(plain, armed)
      << "recording must read clocks the seams already hold, never move "
         "them";
}

TEST(MetricsNeutrality, PingPongStatsMeanMatchesPlainPingPong) {
  benchkit::PingPongSpec spec;
  spec.type = cellpilot::ChannelType::kType4;
  spec.bytes = 64;
  spec.reps = 10;
  const simtime::CostModel cost = simtime::default_cost_model();
  const benchkit::PingPongStats stats =
      benchkit::pingpong_stats(spec, benchkit::Method::kCellPilot, cost);
  EXPECT_EQ(stats.one_way,
            benchkit::pingpong(spec, benchkit::Method::kCellPilot, cost))
      << "per-rep sampling is clock reads only";
  EXPECT_LE(stats.p50, stats.p99);
  EXPECT_GT(stats.p50, 0);
}

}  // namespace
