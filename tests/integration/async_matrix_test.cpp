// async_matrix_test.cpp — the Table I conformance matrix, async tier.
//
// The completion engine's promise is that PI_WriteAsync/PI_ReadAsync +
// PI_Wait are the *split form* of PI_Write/PI_Read: same payloads, same
// transport legs, same counters — only the call shape differs.  This file
// re-runs the five-route-type × three-payload-class matrix of
// channel_matrix_test.cpp with every transfer going through the async
// tier, and asserts
//   (a) the payload arrives intact,
//   (b) the message crosses exactly the Table I transport legs its
//       blocking twin crosses (pair stays a memcpy, remote SPE stays
//       relay + deliver, type 1 never touches a Co-Pilot), and
//   (c) the async tier leaves its own vocabulary — op_submit/op_complete
//       events and handle_wait metrics — and *none* of the blocking tier's
//       (no pilot_write/pilot_read/spe_write/spe_read), so the two tiers
//       are distinguishable in any trace.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>
#include <vector>

#include "core/cellpilot.hpp"
#include "core/trace.hpp"
#include "simtime/metrics.hpp"
#include "simtime/tracebuf.hpp"

namespace {

namespace tb = simtime::tracebuf;
namespace sm = simtime::metrics;
using cellpilot::trace::ChannelCounters;
using cellpilot::trace::ScopedTraceCapture;

enum Payload { kZero = 0, kScalar = 1, kArray = 2 };

constexpr int kScalarValue = 535353;
constexpr int kArrayCount = 200;

double array_element(int i) { return 2.0 + 0.25 * i; }

std::uint64_t payload_bytes(Payload p) {
  switch (p) {
    case kZero: return 0;
    case kScalar: return sizeof(int);
    case kArray: return kArrayCount * sizeof(double);
  }
  return 0;
}

// --- the job (shared by all 15 matrix cells) -----------------------------

int g_type = 0;               ///< Table I type under test
Payload g_payload = kZero;    ///< payload class under test
// Every rank's configuration phase stores these at once, so they are
// atomic.
std::atomic<PI_CHANNEL*> g_data{nullptr};  ///< the one channel (id 0)
std::atomic<PI_PROCESS*> g_spe_r{nullptr};
std::atomic<bool> g_ok{false};

void write_payload_async() {
  PI_HANDLE h = nullptr;
  switch (g_payload) {
    case kZero:
      h = PI_WriteAsync(g_data, "");
      break;
    case kScalar:
      h = PI_WriteAsync(g_data, "%d", kScalarValue);
      break;
    case kArray: {
      double values[kArrayCount];
      for (int i = 0; i < kArrayCount; ++i) values[i] = array_element(i);
      // The payload is marshalled at submission: the stack array may go
      // out of scope before the harvest.
      h = PI_WriteAsync(g_data, "%*lf", kArrayCount, values);
      break;
    }
  }
  PI_Wait(h);
}

bool read_and_check_async() {
  switch (g_payload) {
    case kZero: {
      PI_HANDLE h = PI_ReadAsync(g_data, "");
      PI_Wait(h);
      return true;  // arrival *is* the payload
    }
    case kScalar: {
      int v = 0;
      PI_HANDLE h = PI_ReadAsync(g_data, "%d", &v);
      PI_Wait(h);  // destinations are filled exactly here
      return v == kScalarValue;
    }
    case kArray: {
      double values[kArrayCount] = {};
      PI_HANDLE h = PI_ReadAsync(g_data, "%*lf", kArrayCount, values);
      PI_Wait(h);
      for (int i = 0; i < kArrayCount; ++i) {
        if (values[i] != array_element(i)) return false;
      }
      return true;
    }
  }
  return false;
}

PI_SPE_PROGRAM(amatrix_spe_writer) {
  write_payload_async();
  return 0;
}

PI_SPE_PROGRAM(amatrix_spe_reader) {
  g_ok.store(read_and_check_async());
  return 0;
}

int amatrix_rank_reader(int /*arg*/, void* /*ptr*/) {
  g_ok.store(read_and_check_async());
  return 0;
}

int amatrix_rank_parent(int /*arg*/, void* /*ptr*/) {
  PI_RunSPE(g_spe_r, 0, nullptr);
  return 0;
}

int amatrix_main(int argc, char** argv) {
  PI_Configure(&argc, &argv);
  switch (g_type) {
    case 1: {  // PPE <-> remote PPE
      PI_PROCESS* reader = PI_CreateProcess(amatrix_rank_reader, 0, nullptr);
      g_data = PI_CreateChannel(PI_MAIN, reader);
      PI_StartAll();
      write_payload_async();
      break;
    }
    case 2: {  // PPE <-> local SPE
      PI_PROCESS* reader = PI_CreateSPE(amatrix_spe_reader, PI_MAIN, 0);
      g_data = PI_CreateChannel(PI_MAIN, reader);
      PI_StartAll();
      PI_RunSPE(reader, 0, nullptr);
      write_payload_async();
      break;
    }
    case 3: {  // PPE <-> remote SPE
      PI_PROCESS* parent = PI_CreateProcess(amatrix_rank_parent, 0, nullptr);
      g_spe_r = PI_CreateSPE(amatrix_spe_reader, parent, 0);
      g_data = PI_CreateChannel(PI_MAIN, g_spe_r);
      PI_StartAll();
      write_payload_async();
      break;
    }
    case 4: {  // SPE <-> local SPE
      PI_PROCESS* writer = PI_CreateSPE(amatrix_spe_writer, PI_MAIN, 0);
      PI_PROCESS* reader = PI_CreateSPE(amatrix_spe_reader, PI_MAIN, 1);
      g_data = PI_CreateChannel(writer, reader);
      PI_StartAll();
      PI_RunSPE(writer, 0, nullptr);
      PI_RunSPE(reader, 0, nullptr);
      break;
    }
    case 5: {  // SPE <-> remote SPE
      PI_PROCESS* parent = PI_CreateProcess(amatrix_rank_parent, 0, nullptr);
      PI_PROCESS* writer = PI_CreateSPE(amatrix_spe_writer, PI_MAIN, 0);
      g_spe_r = PI_CreateSPE(amatrix_spe_reader, parent, 0);
      g_data = PI_CreateChannel(writer, g_spe_r);
      PI_StartAll();
      PI_RunSPE(writer, 0, nullptr);
      break;
    }
  }
  PI_StopMain(0);
  return 0;
}

// --- leg accounting ------------------------------------------------------

struct LegCounts {
  int blocking_api = 0;  ///< any pilot_write/pilot_read/spe_write/spe_read
  int op_submit = 0;
  int op_complete = 0;
  int pair = 0;
  int relay = 0;
  int deliver = 0;
  int mpi_send = 0;
};

LegCounts count_legs(const std::vector<tb::Event>& events, int channel) {
  LegCounts n;
  for (const auto& e : events) {
    if (e.channel != channel) continue;
    switch (e.kind) {
      case tb::Kind::kPilotWrite:
      case tb::Kind::kPilotRead:
      case tb::Kind::kSpeWrite:
      case tb::Kind::kSpeRead: ++n.blocking_api; break;
      case tb::Kind::kOpSubmit: ++n.op_submit; break;
      case tb::Kind::kOpComplete: ++n.op_complete; break;
      case tb::Kind::kCopilotPair: ++n.pair; break;
      case tb::Kind::kCopilotRelay: ++n.relay; break;
      case tb::Kind::kCopilotDeliver: ++n.deliver; break;
      case tb::Kind::kMpiSend: ++n.mpi_send; break;
      default: break;
    }
  }
  return n;
}

// --- the matrix ----------------------------------------------------------

class AsyncChannelMatrix
    : public ::testing::TestWithParam<std::tuple<int, Payload>> {};

TEST_P(AsyncChannelMatrix, AsyncTierCrossesExactlyTheTableILegs) {
  g_type = std::get<0>(GetParam());
  g_payload = std::get<1>(GetParam());
  g_data = nullptr;
  g_spe_r = nullptr;
  g_ok.store(false);

  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  const bool remote = g_type == 1 || g_type == 3 || g_type == 5;
  if (remote) config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine{std::move(config)};

  ScopedTraceCapture capture;
  sm::arm();
  const auto r = cellpilot::run(machine, amatrix_main);
  const std::vector<sm::Series> series = sm::drain();
  sm::disarm();
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_TRUE(g_ok.load()) << "payload did not arrive intact";

  const auto events = capture.drain();
  const LegCounts legs = count_legs(events, 0);

  // Writer-side accounting is identical to the blocking tier.
  const auto stats = ChannelCounters::global().snapshot(0);
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.payload_bytes, payload_bytes(g_payload));
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.faults, 0u);

  // The async tier speaks its own vocabulary: one submit + one complete
  // per side, every event stamped with the channel's Table I type, and
  // no blocking-tier event anywhere near the channel.
  EXPECT_EQ(legs.blocking_api, 0)
      << "an async transfer must never record a blocking-tier event";
  EXPECT_EQ(legs.op_submit, 2);
  EXPECT_EQ(legs.op_complete, 2);
  for (const auto& e : events) {
    if (e.channel != 0) continue;
    if (e.kind == tb::Kind::kOpSubmit || e.kind == tb::Kind::kOpComplete) {
      EXPECT_EQ(static_cast<int>(e.route_type), g_type);
    }
  }

  // Every harvest leaves a handle_wait sample.
  std::uint64_t handle_waits = 0;
  for (const auto& s : series) {
    if (s.key.kind == sm::Kind::kHandleWait && s.key.channel == 0) {
      handle_waits += s.hist.count();
    }
  }
  EXPECT_EQ(handle_waits, 2u) << "one handle_wait sample per PI_Wait";

  switch (g_type) {
    case 1:  // pure MPI: no Co-Pilot leg may touch the message
      EXPECT_GE(legs.mpi_send, 1);
      EXPECT_EQ(legs.pair + legs.relay + legs.deliver, 0);
      EXPECT_EQ(stats.copilot_hops, 0u);
      break;
    case 2:  // PPE -> local Co-Pilot -> parked SPE read
    case 3:  // same legs; the Co-Pilot is on the *SPE's* node
      EXPECT_EQ(legs.deliver, 1);
      EXPECT_EQ(legs.pair, 0);
      EXPECT_EQ(legs.relay, 0);
      EXPECT_GE(legs.mpi_send, 1);
      EXPECT_EQ(stats.copilot_hops, 1u);
      break;
    case 4:  // one memcpy pairing, never the network
      EXPECT_EQ(legs.pair, 1);
      EXPECT_EQ(legs.relay, 0);
      EXPECT_EQ(legs.deliver, 0);
      EXPECT_EQ(legs.mpi_send, 0)
          << "a local SPE pair must not cross MiniMPI";
      EXPECT_EQ(stats.copilot_hops, 1u);
      break;
    case 5:  // relay out of the writer's node, deliver into the reader's
      EXPECT_EQ(legs.relay, 1);
      EXPECT_EQ(legs.deliver, 1);
      EXPECT_EQ(legs.pair, 0);
      EXPECT_GE(legs.mpi_send, 1);
      EXPECT_EQ(stats.copilot_hops, 2u);
      break;
    default:
      FAIL() << "bad route type " << g_type;
  }
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<int, Payload>>& info) {
  static const char* payload_names[] = {"Zero", "Scalar", "Array"};
  return "Type" + std::to_string(std::get<0>(info.param)) +
         payload_names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    TableI, AsyncChannelMatrix,
    ::testing::Combine(::testing::Range(1, 6),
                       ::testing::Values(kZero, kScalar, kArray)),
    case_name);

}  // namespace
