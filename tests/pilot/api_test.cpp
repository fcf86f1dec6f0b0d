// Integration tests for the Pilot API on rank-backed (type-1) channels:
// phases, process/channel creation, reads/writes of every data type,
// endpoint enforcement, format agreement, and bundles.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>

#include "core/cellpilot.hpp"
#include "core/trace.hpp"
#include "pilot/errors.hpp"

namespace {

/// A Xeon-only machine with `ranks` Pilot processes.
cluster::Cluster xeon_cluster(unsigned ranks) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::xeon(ranks));
  return cluster::Cluster(std::move(config));
}

// Worker functions must be plain function pointers for PI_CreateProcess;
// they reach their test through these globals.
PI_CHANNEL* g_ch = nullptr;
PI_CHANNEL* g_ch2 = nullptr;
std::atomic<bool> g_flag{false};

TEST(PilotApi, ConfigureReturnsAvailableProcesses) {
  cluster::Cluster machine = xeon_cluster(3);
  std::atomic<int> reported{0};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    const int n = PI_Configure(&argc, &argv);
    reported.store(n);
    PI_StartAll();
    PI_StopMain(0);
    return 0;
  });
  EXPECT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(reported.load(), 3);
}

TEST(PilotApi, ConfigureStripsPilotOptions) {
  cluster::Cluster machine = xeon_cluster(1);
  std::atomic<int> remaining{-1};
  cellpilot::RunOptions opts;
  opts.args = {"-pisvc=x-not-ours", "-pirespawn=0"};
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        remaining.store(argc);
        EXPECT_STREQ(argv[1], "-pisvc=x-not-ours");
        PI_StartAll();
        PI_StopMain(0);
        return 0;
      },
      opts);
  EXPECT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(remaining.load(), 2);  // program name + unknown arg survive
}

int echo_worker(int /*index*/, void* /*arg*/) {
  // Reads every scalar type and an array, echoes a checksum back.
  std::uint8_t b;
  char c;
  std::int16_t h;
  int d;
  long long ld;
  unsigned u;
  unsigned long long lu;
  float f;
  double lf;
  long double Lf;
  PI_Read(g_ch, "%b %c %hd %d %ld %u %lu %f %lf %Lf", &b, &c, &h, &d, &ld,
          &u, &lu, &f, &lf, &Lf);
  double sum = b + c + h + d + static_cast<double>(ld) + u +
               static_cast<double>(lu) + f + lf + static_cast<double>(Lf);
  PI_Write(g_ch2, "%lf", sum);
  return 0;
}

TEST(PilotApi, EveryDataTypeRoundTrips) {
  cluster::Cluster machine = xeon_cluster(2);
  std::atomic<double> echoed{0};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(echo_worker, 0, nullptr);
    g_ch = PI_CreateChannel(PI_MAIN, w);
    g_ch2 = PI_CreateChannel(w, PI_MAIN);
    PI_StartAll();
    PI_Write(g_ch, "%b %c %hd %d %ld %u %lu %f %lf %Lf", 1, 'A', 300, 70000,
             5000000000LL, 17u, 99ULL, 1.5, 2.25, 3.75L);
    double sum = 0;
    PI_Read(g_ch2, "%lf", &sum);
    echoed.store(sum);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_DOUBLE_EQ(echoed.load(),
                   1 + 65 + 300 + 70000 + 5000000000.0 + 17 + 99 + 1.5 +
                       2.25 + 3.75);
}

int array_worker(int /*index*/, void* /*arg*/) {
  float data[1000];
  PI_Read(g_ch, "%1000f", data);
  float total = 0;
  for (float v : data) total += v;
  PI_Write(g_ch2, "%f", static_cast<double>(total));
  return 0;
}

TEST(PilotApi, PaperWriteExampleThousandFloats) {
  // The paper's §II.C example: PI_Write(workerdata, "%1000f", data).
  cluster::Cluster machine = xeon_cluster(2);
  std::atomic<float> total{0};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(array_worker, 0, nullptr);
    g_ch = PI_CreateChannel(PI_MAIN, w);
    g_ch2 = PI_CreateChannel(w, PI_MAIN);
    PI_StartAll();
    float data[1000];
    for (int i = 0; i < 1000; ++i) data[i] = 1.0f;
    PI_Write(g_ch, "%1000f", data);
    float sum = 0;
    PI_Read(g_ch2, "%f", &sum);
    total.store(sum);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(total.load(), 1000.0f);
}

int wrong_writer(int /*index*/, void* /*arg*/) {
  // This process is the READER of g_ch; writing must be rejected.
  int v = 0;
  PI_Write(g_ch, "%d", v);
  return 0;
}

TEST(PilotApi, WritingFromTheReaderAborts) {
  cluster::Cluster machine = xeon_cluster(2);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(wrong_writer, 0, nullptr);
    g_ch = PI_CreateChannel(PI_MAIN, w);
    PI_StartAll();
    int v = 1;
    PI_Write(g_ch, "%d", v);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("not the writer"), std::string::npos);
  // The diagnostic carries the offending source location.
  EXPECT_NE(r.abort_reason.find("api_test.cpp"), std::string::npos);
}

int int_reader(int /*index*/, void* /*arg*/) {
  unsigned v = 0;
  PI_Read(g_ch, "%u", &v);  // writer sends %d: type mismatch
  return 0;
}

TEST(PilotApi, FormatDisagreementAborts) {
  cluster::Cluster machine = xeon_cluster(2);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(int_reader, 0, nullptr);
    g_ch = PI_CreateChannel(PI_MAIN, w);
    PI_StartAll();
    PI_Write(g_ch, "%d", 5);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("does not match"), std::string::npos);
}

TEST(PilotApi, CreateProcessAfterStartAllAborts) {
  cluster::Cluster machine = xeon_cluster(2);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_StartAll();
    PI_CreateProcess(echo_worker, 0, nullptr);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("wrong phase"), std::string::npos);
}

TEST(PilotApi, TooManyProcessesAborts) {
  cluster::Cluster machine = xeon_cluster(2);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_CreateProcess(echo_worker, 0, nullptr);
    PI_CreateProcess(echo_worker, 1, nullptr);  // third rank doesn't exist
    PI_StartAll();
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("out of MPI processes"), std::string::npos);
}

int stop_main_caller(int /*index*/, void* /*arg*/) {
  PI_StopMain(0);  // only PI_MAIN may do this
  return 0;
}

TEST(PilotApi, StopMainFromWorkerAborts) {
  cluster::Cluster machine = xeon_cluster(2);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(stop_main_caller, 0, nullptr);
    g_ch = PI_CreateChannel(PI_MAIN, w);
    PI_StartAll();
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
}

int slow_writer(int /*index*/, void* /*arg*/) {
  const int v = 9;
  PI_Write(g_ch, "%d", v);
  return 0;
}

TEST(PilotApi, ChannelHasDataReflectsQueue) {
  cluster::Cluster machine = xeon_cluster(2);
  std::atomic<int> before{-1}, after{-1};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(slow_writer, 0, nullptr);
    g_ch = PI_CreateChannel(w, PI_MAIN);
    PI_StartAll();
    // Poll until the message lands, then assert the transitions.
    int seen = PI_ChannelHasData(g_ch);
    before.store(seen);
    while (PI_ChannelHasData(g_ch) == 0) {
    }
    int v = 0;
    PI_Read(g_ch, "%d", &v);
    after.store(PI_ChannelHasData(g_ch));
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(after.load(), 0);
}

PI_CHANNEL* g_worker_ch[3];

int index_writer(int index, void* /*arg*/) {
  // Each worker writes its own index on its own channel.
  PI_Write(g_worker_ch[index], "%d", index);
  return 0;
}

TEST(PilotApi, SelectFindsReadyChannels) {
  cluster::Cluster machine = xeon_cluster(4);
  std::atomic<int> sum{0};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    for (int i = 0; i < 3; ++i) {
      PI_PROCESS* w = PI_CreateProcess(index_writer, i, nullptr);
      g_worker_ch[i] = PI_CreateChannel(w, PI_MAIN);
    }
    PI_BUNDLE* bundle = PI_CreateBundle(PI_SELECT, g_worker_ch, 3);
    PI_StartAll();
    EXPECT_EQ(PI_GetBundleSize(bundle), 3);
    for (int done = 0; done < 3; ++done) {
      const int who = PI_Select(bundle);
      EXPECT_EQ(PI_GetBundleChannel(bundle, who), g_worker_ch[who]);
      int v = -1;
      PI_Read(g_worker_ch[who], "%d", &v);
      EXPECT_EQ(v, who);
      sum.fetch_add(v);
    }
    EXPECT_EQ(PI_TrySelect(bundle), -1);  // drained
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
}

PI_CHANNEL* g_bcast_ch[3];

int bcast_receiver(int index, void* /*arg*/) {
  double v = 0;
  PI_Read(g_bcast_ch[index], "%lf", &v);
  EXPECT_DOUBLE_EQ(v, 6.28);
  return 0;
}

TEST(PilotApi, BroadcastIsMpmd) {
  // Only the broadcaster calls PI_Broadcast; receivers call PI_Read —
  // the paper's contrast with MPI's SPMD convention.
  cluster::Cluster machine = xeon_cluster(4);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    for (int i = 0; i < 3; ++i) {
      PI_PROCESS* w = PI_CreateProcess(bcast_receiver, i, nullptr);
      g_bcast_ch[i] = PI_CreateChannel(PI_MAIN, w);
    }
    PI_BUNDLE* bundle = PI_CreateBundle(PI_BROADCAST, g_bcast_ch, 3);
    PI_StartAll();
    PI_Broadcast(bundle, "%lf", 6.28);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_FALSE(r.aborted) << r.abort_reason;
}

PI_CHANNEL* g_gather_ch[3];

int gather_contributor(int index, void* /*arg*/) {
  const int v = index * 7;
  const double d = index + 0.5;
  PI_Write(g_gather_ch[index], "%d %lf", v, d);
  return 0;
}

TEST(PilotApi, GatherFillsPerItemArrays) {
  cluster::Cluster machine = xeon_cluster(4);
  std::array<int, 3> ints{};
  std::array<double, 3> doubles{};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    for (int i = 0; i < 3; ++i) {
      PI_PROCESS* w = PI_CreateProcess(gather_contributor, i, nullptr);
      g_gather_ch[i] = PI_CreateChannel(w, PI_MAIN);
    }
    PI_BUNDLE* bundle = PI_CreateBundle(PI_GATHER, g_gather_ch, 3);
    PI_StartAll();
    PI_Gather(bundle, "%d %lf", ints.data(), doubles.data());
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(ints, (std::array<int, 3>{0, 7, 14}));
  EXPECT_EQ(doubles, (std::array<double, 3>{0.5, 1.5, 2.5}));
}

TEST(PilotApi, BundleNeedsCommonEndpoint) {
  cluster::Cluster machine = xeon_cluster(3);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* a = PI_CreateProcess(echo_worker, 0, nullptr);
    PI_PROCESS* b = PI_CreateProcess(echo_worker, 1, nullptr);
    PI_CHANNEL* chans[2] = {PI_CreateChannel(a, PI_MAIN),
                            PI_CreateChannel(a, b)};  // readers differ
    PI_CreateBundle(PI_SELECT, chans, 2);
    PI_StartAll();
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("common"), std::string::npos);
}

PI_CHANNEL* g_select_up = nullptr;

int select_writer(int /*index*/, void* /*arg*/) {
  PI_Write(g_select_up, "%d", 1);
  return 0;
}

TEST(PilotApi, BundleUsageIsEnforced) {
  cluster::Cluster machine = xeon_cluster(2);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(select_writer, 0, nullptr);
    g_select_up = PI_CreateChannel(w, PI_MAIN);
    PI_CHANNEL* chans[1] = {g_select_up};
    PI_BUNDLE* select_bundle = PI_CreateBundle(PI_SELECT, chans, 1);
    PI_StartAll();
    PI_Gather(select_bundle, "%d", nullptr);  // wrong usage
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("different usage"), std::string::npos)
      << r.abort_reason;
}

int noop_worker(int /*index*/, void* /*arg*/) { return 0; }

TEST(PilotApi, SurplusRanksExitCleanly) {
  // 4 ranks available, only 1 worker created: ranks 2..3 are surplus.
  cluster::Cluster machine = xeon_cluster(4);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_CreateProcess(noop_worker, 0, nullptr);
    PI_StartAll();
    PI_StopMain(0);
    return 0;
  });
  EXPECT_FALSE(r.aborted) << r.abort_reason;
}

int identity_checker(int index, void* /*arg*/) {
  EXPECT_EQ(PI_MyProcess(), index);
  return 0;
}

TEST(PilotApi, ProcessIdentityIsVisible) {
  cluster::Cluster machine = xeon_cluster(3);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    EXPECT_EQ(PI_MyProcess() == 0 || PI_MyProcess() == -1, true);
    PI_CreateProcess(identity_checker, 1, nullptr);
    PI_CreateProcess(identity_checker, 2, nullptr);
    PI_StartAll();
    EXPECT_EQ(PI_MyProcess(), 0);
    EXPECT_EQ(PI_ProcessCount(), 3);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_FALSE(r.aborted) << r.abort_reason;
}

TEST(PilotApi, ApiOutsideAnyApplicationThrows) {
  EXPECT_THROW(PI_GetMain(), pilot::PilotError);
  EXPECT_THROW(PI_ProcessCount(), pilot::PilotError);
}

TEST(PilotApi, SetNamesImproveDiagnostics) {
  cluster::Cluster machine = xeon_cluster(2);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(wrong_writer, 0, nullptr);
    g_ch = PI_CreateChannel(PI_MAIN, w);
    PI_SetName(w, "worker");
    PI_SetChannelName(g_ch, "results");
    PI_StartAll();
    int v = 1;
    PI_Write(g_ch, "%d", v);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("results"), std::string::npos);
}

}  // namespace

namespace {

TEST(PilotApi, PiAbortCarriesCodeAndLocation) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::xeon(1));
  cluster::Cluster machine(std::move(config));
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_StartAll();
    PI_Abort(42, "giving up");
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("PI_Abort(42)"), std::string::npos);
  EXPECT_NE(r.abort_reason.find("giving up"), std::string::npos);
  EXPECT_NE(r.abort_reason.find("api_test.cpp"), std::string::npos);
}

TEST(PilotApi, PiLogRecordsIntoTheTrace) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::xeon(1));
  cluster::Cluster machine(std::move(config));
  cellpilot::trace::ScopedTraceCapture capture;
  int log_line = 0;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_StartAll();
    log_line = __LINE__ + 1;
    PI_Log("phase one complete");
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  int found = 0;
  for (const auto& e : capture.drain()) {
    if (e.kind != simtime::tracebuf::Kind::kUser) continue;
    ++found;
    EXPECT_STREQ(e.entity, "P0");
    EXPECT_EQ(e.aux, log_line);
    EXPECT_EQ(e.begin, e.end) << "a log line is an instant";
  }
  EXPECT_EQ(found, 1);
}

}  // namespace

namespace {

PI_CHANNEL* g_req[2];
PI_CHANNEL** g_rep = nullptr;

int copy_channel_worker(int index, void* /*arg*/) {
  int v = 0;
  PI_Read(g_req[index], "%d", &v);
  PI_Write(g_rep[index], "%d", v * 10);
  return 0;
}

TEST(PilotApi, CopyChannelsCarryAnIndependentReverseStream) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::xeon(3));
  cluster::Cluster machine(std::move(config));
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w0 = PI_CreateProcess(copy_channel_worker, 0, nullptr);
    PI_PROCESS* w1 = PI_CreateProcess(copy_channel_worker, 1, nullptr);
    g_req[0] = PI_CreateChannel(PI_MAIN, w0);
    g_req[1] = PI_CreateChannel(PI_MAIN, w1);
    // A duplicate set with REVERSED use is not what CopyChannels gives
    // (same endpoints); so copy the workers' reply channels instead.
    PI_CHANNEL* replies[2] = {PI_CreateChannel(w0, PI_MAIN),
                              PI_CreateChannel(w1, PI_MAIN)};
    g_rep = PI_CopyChannels(replies, 2);
    EXPECT_NE(g_rep[0], replies[0]);  // fresh channels...
    EXPECT_EQ(g_rep[0]->from, replies[0]->from);  // ...same endpoints
    EXPECT_EQ(g_rep[1]->to, replies[1]->to);
    PI_StartAll();
    PI_Write(g_req[0], "%d", 3);
    PI_Write(g_req[1], "%d", 4);
    int a = 0, b = 0;
    PI_Read(g_rep[0], "%d", &a);
    PI_Read(g_rep[1], "%d", &b);
    EXPECT_EQ(a, 30);
    EXPECT_EQ(b, 40);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_FALSE(r.aborted) << r.abort_reason;
}

TEST(PilotApi, CopyChannelsValidatesInput) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::xeon(1));
  cluster::Cluster machine(std::move(config));
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_CopyChannels(nullptr, 1);
    PI_StartAll();
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
}

}  // namespace
