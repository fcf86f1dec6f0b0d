// Unit tests for SPE mailbox FIFOs (hardware depths, stalls, stamps).
#include "cellsim/mailbox.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cellsim/inject.hpp"
#include "cellsim/signal.hpp"
#include "cellsim/spe.hpp"
#include "cellsim/spu.hpp"

namespace {

using namespace cellsim;
using simtime::us;

TEST(Mailbox, RejectsZeroCapacity) { EXPECT_THROW(Mailbox m(0), MailboxFault); }

TEST(Mailbox, FifoOrderAndStamps) {
  Mailbox m(4);
  ASSERT_TRUE(m.try_push(1, us(1)));
  ASSERT_TRUE(m.try_push(2, us(2)));
  auto a = m.pop_blocking();
  auto b = m.pop_blocking();
  EXPECT_EQ(a.value, 1u);
  EXPECT_EQ(a.stamp, us(1));
  EXPECT_EQ(b.value, 2u);
  EXPECT_EQ(b.stamp, us(2));
}

TEST(Mailbox, TryPushFailsWhenFull) {
  Mailbox m(1);
  EXPECT_TRUE(m.try_push(7, 0));
  EXPECT_FALSE(m.try_push(8, 0));
  EXPECT_EQ(m.count(), 1u);
  EXPECT_EQ(m.free_slots(), 0u);
}

TEST(Mailbox, TryPopEmptyReturnsNothing) {
  Mailbox m(4);
  EXPECT_FALSE(m.try_pop().has_value());
}

TEST(Mailbox, HardwareDepthsMatchCellBe) {
  EXPECT_EQ(kInboundMailboxDepth, 4u);
  EXPECT_EQ(kOutboundMailboxDepth, 1u);
  EXPECT_EQ(kOutboundInterruptMailboxDepth, 1u);
}

TEST(Mailbox, BlockingPushStallsUntilDrained) {
  Mailbox m(1);
  ASSERT_TRUE(m.try_push(1, 0));
  std::thread writer([&] { m.push_blocking(2, us(9)); });
  // Give the writer a chance to block, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(m.pop_blocking().value, 1u);
  writer.join();
  EXPECT_EQ(m.pop_blocking().value, 2u);
}

TEST(Mailbox, BlockingPopStallsUntilDataArrives) {
  Mailbox m(4);
  std::uint32_t got = 0;
  std::thread reader([&] { got = m.pop_blocking().value; });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  m.push_blocking(42, 0);
  reader.join();
  EXPECT_EQ(got, 42u);
}

TEST(Mailbox, PushEndsTheReadersQuiescence) {
  // A reader a push wakes may act at once, so from the push on it must not
  // read as waiting, even before its thread has run.
  Mailbox m(4);
  std::thread reader([&] { m.pop_blocking(); });
  while (!m.reader_waiting()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  m.push_blocking(42, 0);
  EXPECT_FALSE(m.reader_waiting());
  reader.join();
  EXPECT_FALSE(m.reader_waiting());
}

TEST(Mailbox, CloseWakesBlockedReaderWithFault) {
  Mailbox m(4);
  std::exception_ptr seen;
  std::thread reader([&] {
    try {
      m.pop_blocking();
    } catch (...) {
      seen = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  m.close();
  reader.join();
  ASSERT_TRUE(seen != nullptr);
  EXPECT_THROW(std::rethrow_exception(seen), MailboxFault);
}

TEST(Mailbox, CloseWakesBlockedWriterWithFault) {
  Mailbox m(1);
  ASSERT_TRUE(m.try_push(1, 0));
  std::exception_ptr seen;
  std::thread writer([&] {
    try {
      m.push_blocking(2, 0);
    } catch (...) {
      seen = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  m.close();
  writer.join();
  ASSERT_TRUE(seen != nullptr);
  EXPECT_THROW(std::rethrow_exception(seen), MailboxFault);
}

TEST(Mailbox, ClosedMailboxDrainsThenFaults) {
  Mailbox m(4);
  m.try_push(5, 0);
  m.close();
  EXPECT_TRUE(m.closed());
  // A queued entry is still deliverable...
  EXPECT_EQ(m.pop_blocking().value, 5u);
  // ...but an empty closed mailbox faults.
  EXPECT_THROW(m.pop_blocking(), MailboxFault);
  EXPECT_THROW(m.try_pop(), MailboxFault);
  EXPECT_THROW(m.try_push(1, 0), MailboxFault);
}

TEST(Mailbox, StatusRegistersClampToTheHardwareDepth) {
  // A post queues all its words behind a depth-1 mailbox; the status
  // registers still read as the hardware would: full, nothing free.
  Mailbox m(1);
  const std::array<MailboxEntry, 4> post{{{1, us(1)}, {2, us(2)},
                                          {3, us(3)}, {4, us(4)}}};
  m.push_blocking(post);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_EQ(m.free_slots(), 0u);
  EXPECT_FALSE(m.try_push(5, us(5)));
  for (const MailboxEntry& want : post) {
    const MailboxEntry got = m.pop_blocking();
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.stamp, want.stamp);
  }
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.free_slots(), 1u);
}

TEST(Mailbox, PostToClosedMailboxFaults) {
  Mailbox m(1);
  m.close();
  const std::array<MailboxEntry, 2> post{{{1, 0}, {2, 0}}};
  EXPECT_THROW(m.push_blocking(post), MailboxFault);
  EXPECT_FALSE(m.earliest_stamp().has_value());
}

TEST(Mailbox, PostWaitsOnlyWhileAnEarlierPostIsUndrained) {
  Mailbox m(1);
  const std::array<MailboxEntry, 4> first{{{1, 0}, {2, 0}, {3, 0}, {4, 0}}};
  m.push_blocking(first);  // an empty mailbox takes the whole post
  std::atomic<bool> done{false};
  std::thread writer([&] {
    const std::array<MailboxEntry, 2> second{{{5, 0}, {6, 0}}};
    m.push_blocking(second);
    done = true;
  });
  for (std::uint32_t v = 1; v <= 3; ++v) EXPECT_EQ(m.pop_blocking().value, v);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(done) << "the second post overtook an undrained first post";
  EXPECT_EQ(m.pop_blocking().value, 4u);
  writer.join();
  EXPECT_TRUE(done);
  EXPECT_EQ(m.pop_blocking().value, 5u);
  EXPECT_EQ(m.pop_blocking().value, 6u);
}

// --- spu_write_out_mbox: one post per span, word-at-a-time stamps --------

const simtime::CostModel kCost = simtime::default_cost_model();

// A probe hook acting on the k-th outbound-mailbox write probe (0-based).
std::atomic<int> g_probes{0};
std::atomic<int> g_act_at{-1};
std::atomic<bool> g_fault{false};
simtime::SimTime g_watched_word0_stamp = 0;

inject::Action act_at_word(inject::Site site, const char*, simtime::SimTime) {
  inject::Action a;
  if (site != inject::Site::kMboxWrite) return a;
  if (g_probes++ != g_act_at.load()) return a;
  if (g_fault) {
    a.fault = true;
  } else {
    a.delay = us(3);
  }
  return a;
}

class SpuPost : public ::testing::Test {
 protected:
  void TearDown() override {
    inject::set_hook(nullptr);
    spu::unbind();
  }

  /// Arms the hook to stall (or fault) the k-th write from now.
  static void act_at(int k, bool fault) {
    g_probes = 0;
    g_act_at = k;
    g_fault = fault;
    inject::set_hook(&act_at_word);
  }

  /// Writes `words` on a fresh SPE, one word at a time or as one span, and
  /// returns every entry it delivered (drained after each write, so the
  /// depth-1 mailbox never stalls the single-threaded test).
  static std::vector<MailboxEntry> write(std::span<const std::uint32_t> words,
                                         bool one_at_a_time) {
    Spe spe(0, "t.spe0", kCost);
    spe.clock().advance(us(10));
    spu::bind({&spe, &kCost, 0});
    std::vector<MailboxEntry> out;
    const auto drain = [&] {
      while (auto e = spe.outbound_mailbox().try_pop()) out.push_back(*e);
    };
    try {
      if (one_at_a_time) {
        for (const std::uint32_t w : words) {
          spu::spu_write_out_mbox(w);
          drain();
        }
      } else {
        spu::spu_write_out_mbox(words);
      }
    } catch (...) {
      drain();
      spu::unbind();
      throw;
    }
    drain();
    out.push_back({0, spe.clock().now()});  // the SPU clock after the write
    spu::unbind();
    return out;
  }
};

void expect_same(const std::vector<MailboxEntry>& a,
                 const std::vector<MailboxEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value) << "word " << i;
    EXPECT_EQ(a[i].stamp, b[i].stamp) << "word " << i;
  }
}

constexpr std::array<std::uint32_t, 5> kWords{11, 22, 33, 44, 55};

TEST_F(SpuPost, StampsMatchWordAtATimeWrites) {
  const auto single = write(kWords, /*one_at_a_time=*/true);
  const auto post = write(kWords, /*one_at_a_time=*/false);
  expect_same(single, post);
  ASSERT_EQ(post.size(), kWords.size() + 1);
  for (std::size_t i = 0; i < kWords.size(); ++i) {
    EXPECT_EQ(post[i].stamp,
              us(10) + static_cast<simtime::SimTime>(i + 1) *
                           kCost.mbox_spu_write);
  }
}

TEST_F(SpuPost, StallOnWordKShiftsEveryLaterStamp) {
  const auto clean = write(kWords, false);
  act_at(2, /*fault=*/false);
  const auto single = write(kWords, true);
  act_at(2, false);
  const auto post = write(kWords, false);
  expect_same(single, post);
  ASSERT_EQ(post.size(), clean.size());
  for (std::size_t i = 0; i < post.size(); ++i) {
    EXPECT_EQ(post[i].stamp, clean[i].stamp + (i >= 2 ? us(3) : 0))
        << "word " << i;
  }
}

TEST_F(SpuPost, FaultOnWordKDeliversTheWordsBeforeIt) {
  for (int k = 0; k < static_cast<int>(kWords.size()); ++k) {
    act_at(k, /*fault=*/true);
    Spe spe(0, "t.spe0", kCost);
    spu::bind({&spe, &kCost, 0});
    EXPECT_THROW(spu::spu_write_out_mbox(kWords), MailboxFault);
    spu::unbind();
    for (int i = 0; i < k; ++i) {
      auto e = spe.outbound_mailbox().try_pop();
      ASSERT_TRUE(e.has_value()) << "k=" << k << " word " << i;
      EXPECT_EQ(e->value, kWords[i]);
    }
    EXPECT_FALSE(spe.outbound_mailbox().try_pop().has_value()) << "k=" << k;
    // The SPU clock stops where a word-at-a-time write's would: after word
    // k-1.
    EXPECT_EQ(spe.clock().now(),
              static_cast<simtime::SimTime>(k) * kCost.mbox_spu_write)
        << "k=" << k;
  }
}

// The SPE the clock-watching hook below reads, and what it saw.
Spe* g_watched = nullptr;
std::atomic<int> g_late_reads{0};

inject::Action check_clock(inject::Site site, const char*, simtime::SimTime) {
  if (site == inject::Site::kMboxWrite && g_probes++ >= 1 &&
      g_watched->outbound_mailbox().count() == 0 &&
      g_watched->clock().now() > g_watched_word0_stamp) {
    ++g_late_reads;
  }
  return {};
}

TEST_F(SpuPost, ClockStaysBehindEveryWordNotYetQueued) {
  // The Co-Pilot reads the SPU clock as a lower bound on the stamp of any
  // word the SPU may still put into its outbound mailbox.  While words
  // 1.. are probed, word 0 is not queued yet, so the clock must not have
  // passed word 0's stamp.
  Spe spe(0, "t.spe0", kCost);
  spe.clock().advance(us(10));
  g_watched = &spe;
  g_watched_word0_stamp = us(10) + kCost.mbox_spu_write;
  g_probes = 0;
  g_late_reads = 0;
  inject::set_hook(&check_clock);
  spu::bind({&spe, &kCost, 0});
  spu::spu_write_out_mbox(kWords);
  EXPECT_EQ(g_probes.load(), static_cast<int>(kWords.size()));
  EXPECT_EQ(g_late_reads.load(), 0);
  EXPECT_EQ(spe.clock().now(),
            us(10) + static_cast<simtime::SimTime>(kWords.size()) *
                         kCost.mbox_spu_write);
}

TEST_F(SpuPost, PostToAClosedMailboxDiesHavingWrittenWordZero) {
  Spe spe(0, "t.spe0", kCost);
  spe.outbound_mailbox().close();
  spu::bind({&spe, &kCost, 0});
  EXPECT_THROW(spu::spu_write_out_mbox(kWords), MailboxFault);
  EXPECT_EQ(spe.clock().now(), kCost.mbox_spu_write);
}

TEST_F(SpuPost, OverlongPostFaultsAndWritesNothing) {
  // On its own thread, so a post that hands over part of the span and
  // then waits for a drain fails the test instead of hanging it.
  Spe spe(0, "t.spe0", kCost);
  std::atomic<bool> done{false};
  bool refused = false;
  std::thread spu_thread([&] {
    spu::bind({&spe, &kCost, 0});
    const std::array<std::uint32_t, spu::kMaxPostWords + 1> words{};
    try {
      spu::spu_write_out_mbox(words);
    } catch (const ContextFault&) {
      refused = true;
    } catch (const MailboxFault&) {
    }
    spu::unbind();
    done = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool finished = done;
  if (!finished) spe.outbound_mailbox().close();
  spu_thread.join();
  ASSERT_TRUE(finished) << "the post waited for a drain";
  EXPECT_TRUE(refused);
  EXPECT_FALSE(spe.outbound_mailbox().try_pop().has_value());
  EXPECT_EQ(spe.clock().now(), 0);
}

TEST(SignalRegister, OrModeAccumulates) {
  cellsim::SignalRegister sig(/*or_mode=*/true);
  sig.send(0b001, us(1));
  sig.send(0b100, us(2));
  const auto r = sig.read_blocking();
  EXPECT_EQ(r.bits, 0b101u);
  EXPECT_EQ(r.stamp, us(2));
  EXPECT_EQ(sig.peek(), 0u);  // read clears
}

TEST(SignalRegister, OverwriteModeKeepsLast) {
  cellsim::SignalRegister sig(/*or_mode=*/false);
  sig.send(0b001, us(1));
  sig.send(0b100, us(2));
  EXPECT_EQ(sig.read_blocking().bits, 0b100u);
}

TEST(SignalRegister, ReadBlocksUntilNonZero) {
  cellsim::SignalRegister sig;
  std::uint32_t got = 0;
  std::thread reader([&] { got = sig.read_blocking().bits; });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sig.send(9, 0);
  reader.join();
  EXPECT_EQ(got, 9u);
}

}  // namespace
