// trace_layer_test.cpp — the CellPilot vocabulary over the trace engine:
// always-on channel counters, tag attribution, the Chrome JSON serializer,
// PI_GetChannelStats, and end-to-end determinism of a captured job.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/cellpilot.hpp"
#include "core/trace.hpp"
#include "mpisim/types.hpp"
#include "pilot/errors.hpp"
#include "pilot/tables.hpp"
#include "simtime/sim_time.hpp"
#include "simtime/tracebuf.hpp"

namespace {

namespace tb = simtime::tracebuf;
using cellpilot::trace::channel_of_tag;
using cellpilot::trace::ChannelCounters;
using cellpilot::trace::ChannelSummary;
using cellpilot::trace::chrome_trace_json;
using cellpilot::trace::JobBatch;
using cellpilot::trace::ScopedTraceCapture;
using simtime::us;

// --- tag attribution -----------------------------------------------------

TEST(ChannelOfTag, MapsChannelTagsAndRejectsEverythingElse) {
  EXPECT_EQ(channel_of_tag(pilot::kChannelTagBase), 0);
  EXPECT_EQ(channel_of_tag(pilot::kChannelTagBase + 7), 7);
  EXPECT_EQ(channel_of_tag(pilot::kChannelTagBase - 1), -1)
      << "user tags below the base are not channels";
  EXPECT_EQ(channel_of_tag(0), -1);
  EXPECT_EQ(channel_of_tag(-3), -1);
  EXPECT_EQ(channel_of_tag(mpisim::kReservedTagBase), -1)
      << "control traffic is never attributed to a channel";
  EXPECT_EQ(channel_of_tag(mpisim::kReservedTagBase - 1),
            static_cast<int>(mpisim::kReservedTagBase - 1 -
                             pilot::kChannelTagBase));
}

// --- always-on counters --------------------------------------------------

TEST(ChannelCountersTest, ResetSizesTheTableAndZeroesTotals) {
  ChannelCounters& cc = ChannelCounters::global();
  cc.reset(2);
  EXPECT_EQ(cc.size(), 2u);
  cc.add_message(1, 64);
  cc.reset(3);
  EXPECT_EQ(cc.size(), 3u);
  EXPECT_EQ(cc.snapshot(1).messages, 0u) << "reset starts a fresh epoch";
}

TEST(ChannelCountersTest, AccumulatesPerChannel) {
  ChannelCounters& cc = ChannelCounters::global();
  cc.reset(2);
  cc.add_message(0, 16);
  cc.add_message(0, 48);
  cc.add_copilot_hop(0);
  cc.add_retry(1);
  cc.add_timeout(1);
  cc.add_fault(1);

  const auto s0 = cc.snapshot(0);
  EXPECT_EQ(s0.messages, 2u);
  EXPECT_EQ(s0.payload_bytes, 64u);
  EXPECT_EQ(s0.copilot_hops, 1u);
  EXPECT_EQ(s0.retries, 0u);

  const auto s1 = cc.snapshot(1);
  EXPECT_EQ(s1.messages, 0u);
  EXPECT_EQ(s1.retries, 1u);
  EXPECT_EQ(s1.timeouts, 1u);
  EXPECT_EQ(s1.faults, 1u);
}

TEST(ChannelCountersTest, OutOfRangeChannelsAreIgnoredNotFatal) {
  ChannelCounters& cc = ChannelCounters::global();
  cc.reset(1);
  cc.add_message(-1, 8);
  cc.add_message(1, 8);
  cc.add_copilot_hop(99);
  EXPECT_EQ(cc.snapshot(0).messages, 0u);
  EXPECT_EQ(cc.snapshot(-1).messages, 0u) << "snapshot of a bad id is zeroes";
  EXPECT_EQ(cc.snapshot(99).messages, 0u);
}

// --- Chrome JSON serializer ----------------------------------------------

JobBatch sample_batch() {
  JobBatch b;
  b.job = 1;
  tb::Event e;
  e.begin = us(1.5);
  e.end = us(3.5);
  e.bytes = 400;
  e.aux = pilot::kChannelTagBase;
  e.channel = 0;
  e.route_type = 4;
  e.kind = tb::Kind::kCopilotPair;
  std::snprintf(e.entity, sizeof e.entity, "%s", "node0.copilot");
  b.events.push_back(e);

  ChannelSummary ch;
  ch.channel = 0;
  ch.route_type = 4;
  ch.name = "P1->P2";
  ch.stats.messages = 1;
  ch.stats.payload_bytes = 400;
  ch.stats.copilot_hops = 1;
  b.channels.push_back(ch);
  return b;
}

TEST(ChromeTraceJson, EmitsOneEventPerLineWithVirtualMicroseconds) {
  const std::string json = chrome_trace_json({sample_batch()});
  // One complete event, pid = job, µs with exactly three decimals.
  EXPECT_NE(json.find("{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":1.500,\"dur\":2.000,"
                      "\"name\":\"copilot_pair\""),
            std::string::npos)
      << json;
  // Thread-name metadata for the recording entity.
  EXPECT_NE(json.find("\"name\":\"thread_name\",\"args\":"
                      "{\"name\":\"node0.copilot\"}"),
            std::string::npos)
      << json;
  // Per-channel stats block.
  EXPECT_NE(json.find("\"channelStats\":["), std::string::npos);
  EXPECT_NE(json.find("\"route\":4,\"messages\":1,\"payloadBytes\":400,"
                      "\"copilotHops\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"generator\":\"cellpilot\""), std::string::npos);
}

TEST(ChromeTraceJson, SerializationIsAPureFunctionOfTheBatches) {
  const std::string a = chrome_trace_json({sample_batch()});
  const std::string b = chrome_trace_json({sample_batch()});
  EXPECT_EQ(a, b);
}

TEST(ChromeTraceJson, EscapesQuotesAndControlCharactersInNames) {
  JobBatch b = sample_batch();
  b.channels[0].name = "a\"b\\c\n";
  const std::string json = chrome_trace_json({b});
  EXPECT_NE(json.find("a\\\"b\\\\c\\u000a"), std::string::npos) << json;
}

// --- end-to-end: captured job, stats API, determinism --------------------

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

int stats_main(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* spe = PI_CreateSPE(writes_one_int, PI_MAIN, 0);
  g_ch = PI_CreateChannel(spe, PI_MAIN);  // Table I type 2
  PI_StartAll();
  PI_RunSPE(spe, 0, nullptr);
  int v = 0;
  PI_Read(g_ch, "%d", &v);
  g_value.store(v);
  PI_StopMain(0);

  // Totals are complete at quiescence — the SPE-side and Co-Pilot-side
  // increments land on their own threads, so PI_MAIN harvests after
  // PI_StopMain (the documented contract).
  PI_CHANNEL_STATS stats{};
  EXPECT_EQ(PI_GetChannelStats(g_ch, &stats), 0);
  EXPECT_EQ(stats.channel, 0);
  EXPECT_EQ(stats.route_type, 2);
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.payload_bytes, sizeof(int));
  EXPECT_GE(stats.copilot_hops, 1u) << "type 2 crosses the Co-Pilot";
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.faults, 0u);

  EXPECT_THROW(PI_GetChannelStats(nullptr, &stats), pilot::PilotError);
  EXPECT_THROW(PI_GetChannelStats(g_ch, nullptr), pilot::PilotError);
  return 0;
}

TEST(ChannelStatsApi, ReportsWriterTotalsAndCopilotHops) {
  g_value.store(0);
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, stats_main);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(g_value.load(), 4242);
}

/// Runs the tiny type-2 job under a capture and serializes what happened.
/// Channel attribution and serialization both run, so equality of the
/// returned strings is exactly the byte-identical-trace guarantee.
std::string traced_run() {
  ScopedTraceCapture capture;
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, stats_main);
  EXPECT_FALSE(r.aborted) << r.abort_reason;
  JobBatch batch;
  batch.job = 1;
  batch.events = capture.drain();
  return chrome_trace_json({batch});
}

TEST(TraceDeterminism, TwoSeededRunsSerializeByteIdentically) {
  const std::string first = traced_run();
  const std::string second = traced_run();
  EXPECT_NE(first.find("\"ph\":\"X\""), std::string::npos)
      << "capture saw no events";
  EXPECT_EQ(first, second);
}

TEST(TraceDeterminism, CapturedJobRecordsTheExpectedLegKinds) {
  ScopedTraceCapture capture;
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, stats_main);
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  const auto events = capture.drain();
  ASSERT_FALSE(events.empty());

  int spe_writes = 0;
  int copilot_relays = 0;
  int rank_reads = 0;
  int mpi_on_channel = 0;
  for (const auto& e : events) {
    if (e.kind == tb::Kind::kSpeWrite && e.channel == 0) ++spe_writes;
    if (e.kind == tb::Kind::kCopilotRelay && e.channel == 0) {
      ++copilot_relays;
    }
    if (e.kind == tb::Kind::kPilotRead && e.channel == 0) ++rank_reads;
    if (e.kind == tb::Kind::kMpiSend && e.channel == 0) ++mpi_on_channel;
  }
  EXPECT_EQ(spe_writes, 1);
  EXPECT_EQ(copilot_relays, 1) << "type 2 is one Co-Pilot relay leg";
  EXPECT_EQ(rank_reads, 1);
  EXPECT_GE(mpi_on_channel, 1)
      << "the relayed frame crosses MiniMPI with the channel's tag";
}

}  // namespace
