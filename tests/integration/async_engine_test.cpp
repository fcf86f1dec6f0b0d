// async_engine_test.cpp — handle lifecycle and readiness multiplexing.
//
// The completion engine's contract beyond "the payload arrives":
//  * a rank-side write settles at submission — PI_Test returns 1 on the
//    first poll, and the marshalled arguments may be reused immediately;
//  * a harvested handle is dead — a second PI_Wait is a usage error, not
//    a crash or a hang;
//  * handles are thread-affine — harvesting another thread's handle is a
//    usage error (the rule MPI requests live by);
//  * an SPE program keeps at most 4 operations in flight (the inbound-
//    mailbox depth) — the fifth submission is a usage error;
//  * PI_WaitAny harvests exactly one settled handle and leaves the rest
//    live; PI_SelectAny multiplexes bundles and handle sets in one call;
//  * PI_Select / PI_TrySelect on a bundle with a dead writer return that
//    channel's index so the caller's PI_Read surfaces PI_SPE_FAULT /
//    PI_COPILOT_FAULT — readiness includes "ready to fail", never a hang;
//    PI_WaitAny / PI_SelectAny treat a read handle the same way;
//  * a refused submission leaves no latency-ledger stamp behind;
//  * a blocking call made while a handle is in flight still works, and
//    still records as a blocking call.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "cellsim/spu.hpp"
#include "core/cellpilot.hpp"
#include "core/faultplan.hpp"
#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "pilot/errors.hpp"
#include "simtime/metrics.hpp"
#include "simtime/tracebuf.hpp"

namespace {

using cellpilot::faults::FaultPlan;
using pilot::ErrorCode;
using pilot::PilotError;

// Every rank's configuration phase stores the same channel pointers here,
// concurrently, so the stores are atomic.
std::atomic<PI_CHANNEL*> g_a{nullptr};
std::atomic<PI_CHANNEL*> g_b{nullptr};
std::atomic<PI_CHANNEL*> g_go{nullptr};
std::atomic<PI_CHANNEL*> g_go2{nullptr};
std::atomic<PI_CHANNEL*> g_res{nullptr};
std::atomic<PI_OP*> g_handle{nullptr};
std::atomic<int> g_code{-1};
std::atomic<int> g_cap_code{-1};
std::atomic<int> g_held{-1};

cluster::Cluster one_cell(unsigned ranks = 1) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(ranks));
  return cluster::Cluster(std::move(config));
}

class AsyncEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_a = g_b = g_go = g_go2 = g_res = nullptr;
    g_handle.store(nullptr);
    g_code.store(-1);
    g_cap_code.store(-1);
    g_held.store(-1);
  }
  ~AsyncEngineTest() override { FaultPlan::global().reset(); }
};

// --- settle-at-submission + double wait ----------------------------------

int settled_reader(int /*arg*/, void* /*ptr*/) {
  int v = 0;
  PI_Read(g_a, "%d", &v);
  g_code.store(v);
  return 0;
}

TEST_F(AsyncEngineTest, RankWriteSettlesAtSubmissionAndDoubleWaitIsCaught) {
  cluster::Cluster machine = one_cell(2);
  int first_poll = -1;
  int double_wait_code = -1;
  std::string double_wait_detail;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* reader = PI_CreateProcess(settled_reader, 0, nullptr);
    g_a = PI_CreateChannel(PI_MAIN, reader);
    PI_StartAll();
    PI_HANDLE h = PI_WriteAsync(g_a, "%d", 77);
    first_poll = PI_Test(h);  // settles at submission: harvests right here
    try {
      PI_Wait(h);
    } catch (const PilotError& e) {
      double_wait_code = static_cast<int>(e.code());
      double_wait_detail = e.detail();
    }
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(g_code.load(), 77);
  EXPECT_EQ(first_poll, 1) << "a rank-side write must be settled by submit";
  EXPECT_EQ(double_wait_code, static_cast<int>(ErrorCode::kUsage));
  EXPECT_NE(double_wait_detail.find("already harvested"), std::string::npos)
      << double_wait_detail;
}

// --- thread affinity ------------------------------------------------------

int foreign_harvester(int /*arg*/, void* /*ptr*/) {
  PI_Read(g_go, "");  // the handle is published before this token arrives
  int code = 0;
  try {
    PI_Wait(g_handle.load());
  } catch (const PilotError& e) {
    code = static_cast<int>(e.code());
  }
  PI_Write(g_res, "%d", code);
  int v = 0;
  PI_Read(g_a, "%d", &v);  // drain the payload the foreign handle carried
  return 0;
}

TEST_F(AsyncEngineTest, HandlesAreThreadAffine) {
  cluster::Cluster machine = one_cell(2);
  int foreign_code = -1;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* other = PI_CreateProcess(foreign_harvester, 0, nullptr);
    g_a = PI_CreateChannel(PI_MAIN, other);
    g_go = PI_CreateChannel(PI_MAIN, other);
    g_res = PI_CreateChannel(other, PI_MAIN);
    PI_StartAll();
    PI_HANDLE h = PI_WriteAsync(g_a, "%d", 5);
    g_handle.store(h);
    PI_Write(g_go, "");
    PI_Read(g_res, "%d", &foreign_code);
    PI_Wait(h);  // the owner may still harvest its own handle
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(foreign_code, static_cast<int>(ErrorCode::kUsage));
}

// --- the SPE outstanding-operation cap ------------------------------------

PI_SPE_PROGRAM(capped_writer) {
  PI_HANDLE inflight[4];
  for (int i = 0; i < 4; ++i) {
    inflight[i] = PI_WriteAsync(g_a, "%d", 10 + i);
  }
  try {
    (void)PI_WriteAsync(g_a, "%d", 99);  // fifth: over the mailbox depth
  } catch (const PilotError& e) {
    g_cap_code.store(static_cast<int>(e.code()));
  }
  for (int i = 0; i < 4; ++i) PI_Wait(inflight[i]);
  return 0;
}

TEST_F(AsyncEngineTest, FifthOutstandingSpeOperationIsAUsageError) {
  cluster::Cluster machine = one_cell();
  int sum = 0;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(capped_writer, PI_MAIN, 0);
    g_a = PI_CreateChannel(spe, PI_MAIN);
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    for (int i = 0; i < 4; ++i) {
      int v = 0;
      PI_Read(g_a, "%d", &v);
      sum += v;
    }
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(sum, 10 + 11 + 12 + 13) << "the four capped writes must land";
  EXPECT_EQ(g_cap_code.load(), static_cast<int>(ErrorCode::kUsage));
}

// --- a refused submission leaves no latency stamp -------------------------

PI_SPE_PROGRAM(refused_then_blocking_writer) {
  PI_HANDLE inflight[4];
  for (int i = 0; i < 4; ++i) inflight[i] = PI_WriteAsync(g_a, "%d", i);
  try {
    (void)PI_WriteAsync(g_a, "%d", 99);  // fifth: over the mailbox depth
  } catch (const PilotError& e) {
    g_cap_code.store(static_cast<int>(e.code()));
  }
  for (int i = 0; i < 4; ++i) PI_Wait(inflight[i]);
  cellsim::spu::self().clock().advance(simtime::ms(1));
  PI_Write(g_a, "%d", 4);
  return 0;
}

TEST_F(AsyncEngineTest, RefusedSubmissionLeavesNoLatencyStamp) {
  cellpilot::metrics::ScopedMetricsCapture capture;
  cluster::Cluster machine = one_cell();
  int sum = 0;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(refused_then_blocking_writer, PI_MAIN, 0);
    g_a = PI_CreateChannel(spe, PI_MAIN);
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    for (int i = 0; i < 5; ++i) {
      int v = 0;
      PI_Read(g_a, "%d", &v);
      sum += v;
    }
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(sum, 0 + 1 + 2 + 3 + 4);
  EXPECT_EQ(g_cap_code.load(), static_cast<int>(ErrorCode::kUsage));

  std::uint64_t samples = 0;
  std::int64_t longest = 0;
  for (const auto& s : capture.drain()) {
    if (s.key.kind != simtime::metrics::Kind::kMsgLatency) continue;
    samples += s.hist.count();
    longest = std::max(longest, s.hist.max());
  }
  EXPECT_EQ(samples, 5u) << "one latency per delivered message";
  // A stamp left by the refused write would pair the last read with a
  // write begun before the writer's 1 ms pause.
  EXPECT_LT(longest, simtime::ms(1));
}

// --- PI_WaitAny ------------------------------------------------------------

PI_SPE_PROGRAM(eager_writer) {
  PI_Write(g_a, "%d", 111);
  return 0;
}

PI_SPE_PROGRAM(gated_writer) {
  PI_Read(g_go, "");
  PI_Write(g_b, "%d", 222);
  return 0;
}

TEST_F(AsyncEngineTest, WaitAnyHarvestsTheSettledHandleAndLeavesTheRest) {
  cluster::Cluster machine = one_cell();
  int va = 0;
  int vb = 0;
  int first = -1;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* eager = PI_CreateSPE(eager_writer, PI_MAIN, 0);
    PI_PROCESS* gated = PI_CreateSPE(gated_writer, PI_MAIN, 1);
    g_a = PI_CreateChannel(eager, PI_MAIN);
    g_b = PI_CreateChannel(gated, PI_MAIN);
    g_go = PI_CreateChannel(PI_MAIN, gated);
    PI_StartAll();
    PI_RunSPE(eager, 0, nullptr);
    PI_RunSPE(gated, 0, nullptr);
    PI_HANDLE handles[2] = {PI_ReadAsync(g_a, "%d", &va),
                            PI_ReadAsync(g_b, "%d", &vb)};
    first = PI_WaitAny(handles, 2);
    PI_Write(g_go, "");  // only now may the second writer proceed
    PI_Wait(handles[1]);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(first, 0) << "only the eager writer's read could settle first";
  EXPECT_EQ(va, 111);
  EXPECT_EQ(vb, 222);
}

// --- PI_SelectAny over a bundle and a handle set ---------------------------

PI_SPE_PROGRAM(gated_bundle_writer) {
  PI_Read(arg1 == 0 ? g_go : g_go2, "");
  PI_Write(arg1 == 0 ? g_a : g_b, "%d", 1000 + arg1);
  return 0;
}

PI_SPE_PROGRAM(eager_handle_writer) {
  PI_Write(g_res, "%d", 333);
  return 0;
}

TEST_F(AsyncEngineTest, SelectAnyMultiplexesBundleChannelsAndHandles) {
  cluster::Cluster machine = one_cell();
  int hv = 0;
  int ready = -1;
  int later = -1;
  int bundled = 0;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w0 = PI_CreateSPE(gated_bundle_writer, PI_MAIN, 0);
    PI_PROCESS* w1 = PI_CreateSPE(gated_bundle_writer, PI_MAIN, 1);
    PI_PROCESS* wh = PI_CreateSPE(eager_handle_writer, PI_MAIN, 2);
    g_a = PI_CreateChannel(w0, PI_MAIN);
    g_b = PI_CreateChannel(w1, PI_MAIN);
    g_res = PI_CreateChannel(wh, PI_MAIN);
    PI_CHANNEL* gated[2] = {g_a, g_b};
    PI_BUNDLE* bundle = PI_CreateBundle(PI_SELECT, gated, 2);
    g_go = PI_CreateChannel(PI_MAIN, w0);
    g_go2 = PI_CreateChannel(PI_MAIN, w1);
    PI_StartAll();
    PI_RunSPE(w0, 0, nullptr);
    PI_RunSPE(w1, 1, nullptr);
    PI_RunSPE(wh, 0, nullptr);
    PI_HANDLE handles[1] = {PI_ReadAsync(g_res, "%d", &hv)};
    // Both bundle writers are gated: only the handle can become ready.
    ready = PI_SelectAny(bundle, handles, 1);
    EXPECT_EQ(hv, 0) << "a settled handle is not harvested by PI_SelectAny";
    PI_Wait(handles[0]);
    // Release exactly one bundle writer; the next PI_SelectAny (with no
    // handles at all) must name its channel.
    PI_Write(g_go, "");
    later = PI_SelectAny(bundle, nullptr, 0);
    PI_Read(PI_GetBundleChannel(bundle, later), "%d", &bundled);
    // Drain the other writer so the job ends cleanly.
    PI_Write(g_go2, "");
    int rest = 0;
    PI_Read(later == 0 ? g_b : g_a, "%d", &rest);
    EXPECT_EQ(rest, later == 0 ? 1001 : 1000);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(ready, 2) << "bundle_size + handle index names the handle";
  EXPECT_EQ(hv, 333);
  EXPECT_EQ(later, 0);
  EXPECT_EQ(bundled, 1000);
}

// --- select over dead writers ---------------------------------------------

PI_SPE_PROGRAM(doomed_select_writer) {
  // The fault plan kills this program at its first channel request.
  PI_Write(g_b, "%d", 17);
  return 0;
}

PI_SPE_PROGRAM(quiet_writer) {
  return 0;  // exits cleanly without ever writing its channel
}

TEST_F(AsyncEngineTest, SelectSurfacesSpeFaultInsteadOfHanging) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  opts.args = {"-pifault=spe_crash@node0.cell0.spe0:op=1"};
  int selected = -1;
  int try_selected = -2;
  int read_code = -1;
  std::string read_detail;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* doomed = PI_CreateSPE(doomed_select_writer, PI_MAIN, 0);
        PI_PROCESS* quiet = PI_CreateSPE(quiet_writer, PI_MAIN, 1);
        g_a = PI_CreateChannel(quiet, PI_MAIN);
        g_b = PI_CreateChannel(doomed, PI_MAIN);
        PI_CHANNEL* chans[2] = {g_a, g_b};
        PI_BUNDLE* bundle = PI_CreateBundle(PI_SELECT, chans, 2);
        PI_StartAll();
        PI_RunSPE(doomed, 0, nullptr);  // first launch -> node0.cell0.spe0
        PI_RunSPE(quiet, 0, nullptr);
        selected = PI_Select(bundle);       // must not hang on the death
        try_selected = PI_TrySelect(bundle);  // dead writer counts ready
        int v = 0;
        try {
          PI_Read(g_b, "%d", &v);
        } catch (const pilot::PilotError& e) {
          read_code = static_cast<int>(e.code());
          read_detail = e.detail();
        }
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << "a survivable SPE fault aborted the job: "
                          << r.abort_reason;
  EXPECT_EQ(selected, 1) << "select must name the dead writer's channel";
  EXPECT_EQ(try_selected, 1);
  EXPECT_EQ(read_code, static_cast<int>(PI_SPE_FAULT));
  EXPECT_NE(read_detail.find("Table I type"), std::string::npos)
      << read_detail;
}

TEST_F(AsyncEngineTest, WaitAnyAndSelectAnySurfaceADeadWriterWithAnEmptyWire) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  opts.args = {"-pifault=spe_crash@node0.cell0.spe0:op=1"};
  int first_code = -1;
  int wait_any_code = -1;
  std::string wait_any_detail;
  int selected = -1;
  int wait_code = -1;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* doomed = PI_CreateSPE(doomed_select_writer, PI_MAIN, 0);
        PI_PROCESS* quiet = PI_CreateSPE(quiet_writer, PI_MAIN, 1);
        g_a = PI_CreateChannel(quiet, PI_MAIN);
        g_b = PI_CreateChannel(doomed, PI_MAIN);
        PI_CHANNEL* chans[1] = {g_a};
        PI_BUNDLE* bundle = PI_CreateBundle(PI_SELECT, chans, 1);
        PI_StartAll();
        // Submitted before the writer runs, so all three are in flight.
        int v = 0;
        PI_HANDLE first = PI_ReadAsync(g_b, "%d", &v);
        PI_HANDLE waited[1] = {PI_ReadAsync(g_b, "%d", &v)};
        PI_HANDLE selects[1] = {PI_ReadAsync(g_b, "%d", &v)};
        PI_RunSPE(doomed, 0, nullptr);  // first launch -> node0.cell0.spe0
        PI_RunSPE(quiet, 0, nullptr);
        // The first harvest consumes the Co-Pilot's fault frame; after it
        // the writer is dead and nothing of its is left on the wire.
        try {
          PI_Wait(first);
        } catch (const PilotError& e) {
          first_code = static_cast<int>(e.code());
        }
        try {
          PI_WaitAny(waited, 1);
        } catch (const PilotError& e) {
          wait_any_code = static_cast<int>(e.code());
          wait_any_detail = e.detail();
        }
        selected = PI_SelectAny(bundle, selects, 1);
        try {
          PI_Wait(selects[0]);
        } catch (const PilotError& e) {
          wait_code = static_cast<int>(e.code());
        }
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << "a survivable SPE fault aborted the job: "
                          << r.abort_reason;
  EXPECT_EQ(first_code, static_cast<int>(PI_SPE_FAULT));
  EXPECT_EQ(wait_any_code, static_cast<int>(PI_SPE_FAULT))
      << "PI_WaitAny must not hang on a dead writer";
  EXPECT_NE(wait_any_detail.find("Table I type"), std::string::npos)
      << wait_any_detail;
  EXPECT_EQ(selected, 1) << "bundle_size + handle index names the handle";
  EXPECT_EQ(wait_code, static_cast<int>(PI_SPE_FAULT));
}

PI_SPE_PROGRAM(victim_writer) {
  // The Co-Pilot dies serving this write: the program sees the fault
  // itself and exits cleanly; the rank side learns through select + read.
  try {
    PI_Write(g_b, "%d", 11);
  } catch (const pilot::PilotError&) {
  }
  return 0;
}

TEST_F(AsyncEngineTest, SelectSurfacesCopilotFaultInsteadOfHanging) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  opts.args = {"-pifault=copilot_crash@copilot0:op=1"};
  int selected = -1;
  int read_code = -1;
  const auto r = cellpilot::run(
      machine,
      [&](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* victim = PI_CreateSPE(victim_writer, PI_MAIN, 0);
        PI_PROCESS* quiet = PI_CreateSPE(quiet_writer, PI_MAIN, 1);
        g_a = PI_CreateChannel(quiet, PI_MAIN);
        g_b = PI_CreateChannel(victim, PI_MAIN);
        PI_CHANNEL* chans[2] = {g_a, g_b};
        PI_BUNDLE* bundle = PI_CreateBundle(PI_SELECT, chans, 2);
        PI_StartAll();
        PI_RunSPE(victim, 0, nullptr);
        PI_RunSPE(quiet, 0, nullptr);
        selected = PI_Select(bundle);
        int v = 0;
        try {
          PI_Read(g_b, "%d", &v);
        } catch (const pilot::PilotError& e) {
          read_code = static_cast<int>(e.code());
        }
        PI_StopMain(0);
        return 0;
      },
      opts);
  ASSERT_FALSE(r.aborted) << "a survivable Co-Pilot crash aborted the job: "
                          << r.abort_reason;
  EXPECT_EQ(selected, 1) << "select must name the poisoned channel";
  EXPECT_EQ(read_code, static_cast<int>(PI_COPILOT_FAULT));
}

// --- a blocking call while a handle is in flight ----------------------------

PI_SPE_PROGRAM(mixed_tier_spe) {
  int held = 0;
  // g_a is written only after the blocking calls below complete, so the
  // handle stays in flight through both of them.
  PI_HANDLE h = PI_ReadAsync(g_a, "%d", &held);
  PI_Write(g_b, "%d", 21);
  int v = 0;
  PI_Read(g_go, "%d", &v);
  PI_Wait(h);
  g_code.store(v);
  g_held.store(held);
  return 0;
}

TEST_F(AsyncEngineTest, BlockingCallsWithAHandleInFlightRecordAsBlocking) {
  cellpilot::trace::ScopedTraceCapture capture;
  cluster::Cluster machine = one_cell();
  int written = 0;
  int ids[3] = {-1, -1, -1};  // g_a, g_b, g_go
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(mixed_tier_spe, PI_MAIN, 0);
    g_a = PI_CreateChannel(PI_MAIN, spe);
    g_b = PI_CreateChannel(spe, PI_MAIN);
    g_go = PI_CreateChannel(PI_MAIN, spe);
    PI_StartAll();
    ids[0] = g_a.load()->id;
    ids[1] = g_b.load()->id;
    ids[2] = g_go.load()->id;
    PI_RunSPE(spe, 0, nullptr);
    PI_Read(g_b, "%d", &written);
    PI_Write(g_go, "%d", 42);
    PI_Write(g_a, "%d", 7);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  ASSERT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_EQ(written, 21);
  EXPECT_EQ(g_code.load(), 42);
  EXPECT_EQ(g_held.load(), 7);

  namespace tb = simtime::tracebuf;
  std::vector<std::pair<tb::Kind, int>> calls;  // (kind, channel)
  int request_words = 0;
  for (const tb::Event& e : capture.drain()) {
    if (std::string(e.entity) != "node0.cell0.spe0") continue;
    switch (e.kind) {
      case tb::Kind::kSpeWrite:
      case tb::Kind::kSpeRead:
      case tb::Kind::kOpSubmit:
        calls.emplace_back(e.kind, e.channel);
        break;
      case tb::Kind::kMboxPush: ++request_words; break;
      default: break;
    }
  }
  const std::vector<std::pair<tb::Kind, int>> expected = {
      {tb::Kind::kOpSubmit, ids[0]},
      {tb::Kind::kSpeWrite, ids[1]},
      {tb::Kind::kSpeRead, ids[2]}};
  EXPECT_EQ(calls, expected)
      << "the blocking calls record spe_write/spe_read, never op_submit";
  // Every inbound word is a packed completion while the handle is in
  // flight, so the blocking calls post the 5-word async request too.
  EXPECT_EQ(request_words, 3 * 5);
}

}  // namespace
