// The SPE runtime's request post: a request reaches the Co-Pilot's side of
// the outbound mailbox whole, before the SPU waits for its completion.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "cellsim/spe.hpp"
#include "cellsim/spu.hpp"
#include "core/faultplan.hpp"
#include "core/protocol.hpp"
#include "core/spe_runtime.hpp"

namespace {

using namespace cellpilot;

const simtime::CostModel kCost = simtime::default_cost_model();

class SpeRequest : public ::testing::Test {
 protected:
  void TearDown() override { faults::FaultPlan::global().reset(); }

  /// Runs a blocking 16-byte write on `spe` from its own SPU thread, with
  /// no Co-Pilot draining the outbound mailbox.  The thread's exception,
  /// if any, lands in `error_`.
  std::thread start_write(cellsim::Spe& spe) {
    ch_.id = 3;
    ch_.name = "ch3";
    return std::thread([this, &spe] {
      cellsim::spu::bind({&spe, &kCost, 0});
      try {
        std::array<std::byte, 16> payload{};
        spe_channel_op(completion::Kind::kWrite, ch_, /*sig=*/0x5151,
                       payload);
      } catch (...) {
        error_ = std::current_exception();
      }
      cellsim::spu::unbind();
      done_ = true;
    });
  }

  /// Joins `spu` once its program ends, within 5 s; past that, closes the
  /// SPE's mailboxes to unstick it and fails.
  void join_within_5s(cellsim::Spe& spe, std::thread& spu) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done_ && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool finished = done_;
    if (!finished) {
      spe.outbound_mailbox().close();
      spe.inbound_mailbox().close();
    }
    spu.join();
    done_ = false;
    ASSERT_TRUE(finished) << "the SPU program did not end";
  }

  /// Waits at most 5 s for the SPU to sleep on its inbound mailbox.
  static bool await_reader(cellsim::Spe& spe) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!spe.inbound_mailbox().reader_waiting()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  static std::vector<cellsim::MailboxEntry> drain(cellsim::Spe& spe) {
    std::vector<cellsim::MailboxEntry> words;
    while (auto e = spe.outbound_mailbox().try_pop()) words.push_back(*e);
    return words;
  }

  /// Runs a blocking write on a fresh SPE and expects all its words queued
  /// by the time the SPU sleeps on its inbound mailbox, then completes it.
  void expect_request_queued_whole() {
    cellsim::Spe spe(0, "t.spe0", kCost);
    std::thread spu = start_write(spe);
    if (!await_reader(spe)) {
      const std::size_t queued = drain(spe).size();
      spe.outbound_mailbox().close();  // unstick the SPU mid-request
      spe.inbound_mailbox().close();
      spu.join();
      FAIL() << "the SPU never finished posting its request; queued words: "
             << queued;
    }
    const auto words = drain(spe);
    ASSERT_EQ(words.size(), static_cast<std::size_t>(kRequestWords));
    EXPECT_EQ(words[0].value, pack_op_channel(Opcode::kWrite, 3));
    EXPECT_EQ(words[2].value, 16u);
    EXPECT_EQ(words[3].value, 0x5151u);
    for (std::size_t i = 1; i < words.size(); ++i) {
      EXPECT_EQ(words[i].stamp, words[i - 1].stamp + kCost.mbox_spu_write);
    }
    spe.inbound_mailbox().push_blocking(
        static_cast<std::uint32_t>(CompletionStatus::kOk), words[3].stamp);
    spu.join();
    EXPECT_EQ(error_, nullptr);
  }

  PI_CHANNEL ch_;
  std::exception_ptr error_;
  std::atomic<bool> done_{false};
};

TEST_F(SpeRequest, BlockingRequestIsQueuedWholeBeforeTheSpuWaits) {
  expect_request_queued_whole();
}

TEST_F(SpeRequest, ArmedPlanWithoutACrashMidRuleStillPostsWhole) {
  faults::FaultPlan::global().configure("mbox_stall@other.spe0:op=1");
  expect_request_queued_whole();
}

TEST_F(SpeRequest, MidRequestCrashLeavesATwoWordAssembly) {
  faults::FaultPlan::global().configure("spe_crash_mid@t.spe0:op=1");
  cellsim::Spe spe(0, "t.spe0", kCost);
  std::thread spu = start_write(spe);
  spu.join();
  ASSERT_NE(error_, nullptr);
  EXPECT_THROW(std::rethrow_exception(error_), faults::InjectedCrash);
  const auto words = drain(spe);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0].value, pack_op_channel(Opcode::kWrite, 3));
  // The dying SPU's clock stops after the second word.
  EXPECT_EQ(spe.clock().now(), words[1].stamp);
}

TEST_F(SpeRequest, MidRequestCrashCountsOnlyRequestsWhoseFirstWordsLanded) {
  faults::FaultPlan::global().configure("spe_crash_mid@t.spe0:op=1");
  {
    // A closed mailbox (a killed blade) refuses word 0: the request never
    // reached the crash seam, so it must not use up the rule's ordinal.
    cellsim::Spe spe(0, "t.spe0", kCost);
    spe.outbound_mailbox().close();
    std::thread spu = start_write(spe);
    join_within_5s(spe, spu);
    ASSERT_NE(error_, nullptr);
    EXPECT_THROW(std::rethrow_exception(error_), cellsim::MailboxFault);
  }
  error_ = nullptr;
  cellsim::Spe spe(0, "t.spe0", kCost);
  std::thread spu = start_write(spe);
  join_within_5s(spe, spu);
  ASSERT_NE(error_, nullptr);
  EXPECT_THROW(std::rethrow_exception(error_), faults::InjectedCrash);
  EXPECT_EQ(drain(spe).size(), 2u);
}

}  // namespace
