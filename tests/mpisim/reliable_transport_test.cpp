// Unit tests for the reliable delivery sublayer (mpisim/reliable.hpp):
// framing/CRC pure functions, the receiver window at the MatchQueue
// boundary, and whole-World runs with each message-level fault injected
// through the mpisim::inject hook directly (no fault plan involved).
#include "mpisim/reliable.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "mpisim/inject.hpp"
#include "mpisim/launcher.hpp"
#include "mpisim/mpi.hpp"
#include "simtime/sim_time.hpp"

namespace {

using namespace mpisim;
using simtime::CoreKind;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::vector<RankInfo> xeon_ranks(int n) {
  std::vector<RankInfo> ranks;
  for (int i = 0; i < n; ++i) {
    ranks.push_back({CoreKind::kXeon, i, "r" + std::to_string(i)});
  }
  return ranks;
}

// --- pure functions ---------------------------------------------------------

TEST(ReliableFraming, Crc32KnownAnswer) {
  const std::vector<std::byte> check = bytes_of("123456789");
  EXPECT_EQ(reliable::crc32(check), 0xCBF43926u);
  EXPECT_EQ(reliable::crc32({}), 0u);
}

/// The bit-at-a-time CRC-32 (reflected 0xEDB88320) the table must match.
std::uint32_t bitwise_crc32(std::span<const std::byte> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc ^= std::to_integer<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(ReliableFraming, Crc32MatchesBitwiseReference) {
  // Frames, checkpoint files and journal marks all carry these values, so
  // every length and alignment must agree with the bitwise definition.
  std::mt19937_64 rng(20110913);
  std::vector<std::byte> buf(4096 + 8);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096;
         len += (len < 64 ? 1 : 1 + len / 8)) {
      const std::span<const std::byte> view(buf.data() + offset, len);
      ASSERT_EQ(reliable::crc32(view), bitwise_crc32(view))
          << "offset " << offset << " length " << len;
    }
  }
  const std::span<const std::byte> whole(buf.data(), 4096);
  EXPECT_EQ(reliable::crc32(whole), bitwise_crc32(whole));
}

TEST(ReliableFraming, FrameRoundTrip) {
  const std::vector<std::byte> payload = bytes_of("hello, wire");
  const std::vector<std::byte> wire = reliable::frame(7, 2, payload);
  ASSERT_EQ(wire.size(), sizeof(reliable::FrameHeader) + payload.size());

  const auto parsed = reliable::unframe(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.magic, reliable::kFrameMagic);
  EXPECT_EQ(parsed->header.seq, 7u);
  EXPECT_EQ(parsed->header.attempt, 2u);
  EXPECT_EQ(parsed->header.payload_bytes, payload.size());
  EXPECT_TRUE(parsed->crc_ok);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(ReliableFraming, EmptyPayloadRoundTrip) {
  const std::vector<std::byte> wire = reliable::frame(1, 1, {});
  const auto parsed = reliable::unframe(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->crc_ok);
  EXPECT_TRUE(parsed->payload.empty());
}

TEST(ReliableFraming, CorruptionFailsCrcButParses) {
  const std::vector<std::byte> payload = bytes_of("precious bits");
  std::vector<std::byte> wire = reliable::frame(3, 1, payload);
  wire[sizeof(reliable::FrameHeader) + 4] ^= std::byte{0x01};

  const auto parsed = reliable::unframe(wire);
  ASSERT_TRUE(parsed.has_value());  // structurally fine ...
  EXPECT_FALSE(parsed->crc_ok);     // ... but the checksum catches it
}

TEST(ReliableFraming, HeaderCorruptionIsRejected) {
  std::vector<std::byte> wire = reliable::frame(3, 1, bytes_of("x"));
  wire[0] ^= std::byte{0xFF};  // damage the magic
  EXPECT_FALSE(reliable::unframe(wire).has_value());
}

TEST(ReliableFraming, ShortAndTruncatedBuffersRejected) {
  const std::vector<std::byte> wire = reliable::frame(9, 1, bytes_of("abcd"));
  std::vector<std::byte> header_only(wire.begin(),
                                     wire.begin() + sizeof(reliable::FrameHeader) - 1);
  EXPECT_FALSE(reliable::unframe(header_only).has_value());

  std::vector<std::byte> truncated(wire.begin(), wire.end() - 2);
  EXPECT_FALSE(reliable::unframe(truncated).has_value());
}

TEST(ReliableFraming, BackoffDoublesPerAttempt) {
  const simtime::SimTime saved_base = reliable::backoff(1);
  const int saved_retries = reliable::max_retries();

  reliable::set_backoff(simtime::us(100.0), 5);
  EXPECT_EQ(reliable::backoff(1), simtime::us(100.0));
  EXPECT_EQ(reliable::backoff(2), simtime::us(200.0));
  EXPECT_EQ(reliable::backoff(3), simtime::us(400.0));
  EXPECT_EQ(reliable::max_retries(), 5);

  reliable::set_backoff(saved_base, saved_retries);
}

// --- the receiver window at the MatchQueue boundary -------------------------

InboundMessage msg_with(int tag, int value) {
  InboundMessage m;
  m.source = 0;
  m.tag = tag;
  m.payload.resize(sizeof value);
  std::memcpy(m.payload.data(), &value, sizeof value);
  return m;
}

int value_of(const InboundMessage& m) {
  int v = 0;
  std::memcpy(&v, m.payload.data(), sizeof v);
  return v;
}

class ReliableWindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reliable::reset_links();
    reliable::reset_totals();
  }
  void TearDown() override {
    reliable::reset_links();
    reliable::reset_totals();
  }
};

TEST_F(ReliableWindowTest, BuffersGapAndReleasesInOrder) {
  MatchQueue q;
  // seq 2 arrives first: buffered, nothing released.
  EXPECT_FALSE(reliable::window_deposit(q, 0, 1, msg_with(5, 222), 2, 5));
  EXPECT_EQ(q.pending(), 0u);

  // seq 1 closes the gap: both frames drain, in sequence order.
  EXPECT_TRUE(reliable::window_deposit(q, 0, 1, msg_with(5, 111), 1, 5));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(value_of(q.match_blocking(0, 5)), 111);
  EXPECT_EQ(value_of(q.match_blocking(0, 5)), 222);
  EXPECT_EQ(reliable::totals().acks, 2u);
}

TEST_F(ReliableWindowTest, SuppressesDuplicates) {
  MatchQueue q;
  EXPECT_TRUE(reliable::window_deposit(q, 0, 1, msg_with(5, 111), 1, 5));
  // The same sequence again: discarded, counted.
  EXPECT_FALSE(reliable::window_deposit(q, 0, 1, msg_with(5, 111), 1, 5));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(reliable::totals().duplicates, 1u);

  // A duplicate of a frame still buffered in the window is also discarded.
  EXPECT_FALSE(reliable::window_deposit(q, 0, 1, msg_with(5, 333), 3, 5));
  EXPECT_FALSE(reliable::window_deposit(q, 0, 1, msg_with(5, 333), 3, 5));
  EXPECT_EQ(reliable::totals().duplicates, 2u);
}

TEST_F(ReliableWindowTest, LinksHaveIndependentSequenceSpaces) {
  EXPECT_EQ(reliable::next_seq(0, 1), 1u);
  EXPECT_EQ(reliable::next_seq(0, 1), 2u);
  EXPECT_EQ(reliable::next_seq(1, 0), 1u);  // the reverse link starts fresh
  EXPECT_EQ(reliable::next_seq(0, 2), 1u);

  reliable::reset_links();
  EXPECT_EQ(reliable::next_seq(0, 1), 1u);  // reset drops the counters
}

// --- whole-World runs with injected faults ----------------------------------

// The hook is a plain function pointer, so the per-test behaviour is
// parameterized through these globals.  `g_fault_budget` is the number of
// inject probes (delivery attempts) that still get the fault applied.
std::atomic<int> g_fault_budget{0};
std::atomic<int> g_fault_tag{-1};

template <bool inject::Action::* Flag>
inject::Action flag_hook(Rank, Rank, int tag, simtime::SimTime) {
  inject::Action act;
  if (tag != g_fault_tag.load() && g_fault_tag.load() != -1) return act;
  if (g_fault_budget.fetch_sub(1) > 0) act.*Flag = true;
  return act;
}

class ReliableWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_hook_ = inject::detail::g_hook.load();
    inject::set_hook(nullptr);
    reliable::reset_links();
    reliable::reset_totals();
    reliable::set_enabled(true);
    g_fault_budget.store(0);
    g_fault_tag.store(-1);
  }
  void TearDown() override {
    reliable::set_enabled(false);
    inject::set_hook(saved_hook_);
    reliable::reset_links();
    reliable::reset_totals();
  }

  inject::Hook saved_hook_ = nullptr;
};

TEST_F(ReliableWorldTest, DropIsRetransmittedTransparently) {
  inject::set_hook(&flag_hook<&inject::Action::msg_drop>);
  g_fault_tag.store(5);
  g_fault_budget.store(1);  // lose exactly the first attempt

  const simtime::CostModel cost = simtime::default_cost_model();
  World w(xeon_ranks(2), cost);
  std::atomic<int> got{0};
  const LaunchResult res = launch(w, [&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      const int v = 4242;
      mpi.send(&v, sizeof v, 1, 5);
    } else {
      int v = 0;
      mpi.recv(&v, sizeof v, 0, 5);
      got.store(v);
    }
    return 0;
  });
  EXPECT_FALSE(res.aborted);
  EXPECT_EQ(got.load(), 4242);
  EXPECT_EQ(reliable::totals().retransmits, 1u);
  EXPECT_GE(reliable::totals().acks, 1u);
}

TEST_F(ReliableWorldTest, CorruptionIsDetectedAndRetransmitted) {
  inject::set_hook(&flag_hook<&inject::Action::msg_corrupt>);
  g_fault_tag.store(5);
  g_fault_budget.store(2);  // damage the first two attempts

  const simtime::CostModel cost = simtime::default_cost_model();
  World w(xeon_ranks(2), cost);
  std::atomic<int> got{0};
  const LaunchResult res = launch(w, [&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      const int v = 777;
      mpi.send(&v, sizeof v, 1, 5);
    } else {
      int v = 0;
      mpi.recv(&v, sizeof v, 0, 5);
      got.store(v);
    }
    return 0;
  });
  EXPECT_FALSE(res.aborted);
  EXPECT_EQ(got.load(), 777);  // the clean retransmission got through intact
  EXPECT_EQ(reliable::totals().corrupt_detected, 2u);
  EXPECT_EQ(reliable::totals().retransmits, 2u);
}

TEST_F(ReliableWorldTest, DuplicateIsDeliveredExactlyOnce) {
  inject::set_hook(&flag_hook<&inject::Action::msg_dup>);
  g_fault_tag.store(5);
  g_fault_budget.store(1);

  const simtime::CostModel cost = simtime::default_cost_model();
  World w(xeon_ranks(2), cost);
  std::atomic<int> got{0};
  std::atomic<bool> extra{false};
  const LaunchResult res = launch(w, [&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      const int v = 99;
      mpi.send(&v, sizeof v, 1, 5);
    } else {
      int v = 0;
      mpi.recv(&v, sizeof v, 0, 5);
      got.store(v);
      // The shadow copy must have been suppressed by the window.
      extra.store(mpi.iprobe(0, 5).has_value());
    }
    return 0;
  });
  EXPECT_FALSE(res.aborted);
  EXPECT_EQ(got.load(), 99);
  EXPECT_FALSE(extra.load());
  EXPECT_EQ(reliable::totals().duplicates, 1u);
}

TEST_F(ReliableWorldTest, ReorderIsAbsorbedInOrder) {
  inject::set_hook(&flag_hook<&inject::Action::msg_reorder>);
  g_fault_tag.store(5);
  g_fault_budget.store(1);  // hold the first frame back past the second

  const simtime::CostModel cost = simtime::default_cost_model();
  World w(xeon_ranks(2), cost);
  int seen[2] = {0, 0};
  const LaunchResult res = launch(w, [&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (int v : {111, 222}) mpi.send(&v, sizeof v, 1, 5);
    } else {
      for (int& slot : seen) mpi.recv(&slot, sizeof slot, 0, 5);
    }
    return 0;
  });
  EXPECT_FALSE(res.aborted);
  EXPECT_EQ(seen[0], 111);  // program order survives the wire inversion
  EXPECT_EQ(seen[1], 222);
  EXPECT_EQ(reliable::totals().reorders, 1u);
}

// Satellite (c): adversarial interleavings across two channels (tags)
// sharing one link must not cross-deliver payloads — the window releases by
// link sequence, the MatchQueue then matches by tag.
TEST_F(ReliableWorldTest, CrossChannelReorderDoesNotCrossDeliver) {
  inject::set_hook(&flag_hook<&inject::Action::msg_reorder>);
  g_fault_tag.store(-1);  // every send on the link is a reorder candidate
  g_fault_budget.store(3);

  const simtime::CostModel cost = simtime::default_cost_model();
  World w(xeon_ranks(2), cost);
  int chan_a[2] = {0, 0};
  int chan_b[2] = {0, 0};
  const LaunchResult res = launch(w, [&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      // Interleave two "channels" (tags 5 and 6) on the same 0->1 link.
      for (int v : {1001, 2001, 1002, 2002}) {
        const int tag = v < 2000 ? 5 : 6;
        mpi.send(&v, sizeof v, 1, tag);
      }
    } else {
      for (int& slot : chan_a) mpi.recv(&slot, sizeof slot, 0, 5);
      for (int& slot : chan_b) mpi.recv(&slot, sizeof slot, 0, 6);
    }
    return 0;
  });
  EXPECT_FALSE(res.aborted);
  EXPECT_EQ(chan_a[0], 1001);  // tag 5 only ever sees tag-5 payloads ...
  EXPECT_EQ(chan_a[1], 1002);
  EXPECT_EQ(chan_b[0], 2001);  // ... and in the order they were written
  EXPECT_EQ(chan_b[1], 2002);
  EXPECT_GE(reliable::totals().reorders, 1u);
}

TEST_F(ReliableWorldTest, FaultCocktailStillDeliversEverything) {
  // Rotate through all four message faults across a burst of sends.
  static std::atomic<int> calls{0};
  inject::set_hook(+[](Rank, Rank, int, simtime::SimTime) {
    inject::Action act;
    switch (calls.fetch_add(1) % 5) {
      case 0: act.msg_drop = true; break;
      case 1: act.msg_corrupt = true; break;
      case 2: act.msg_dup = true; break;
      case 3: act.msg_reorder = true; break;
      default: break;  // one clean send per cycle
    }
    return act;
  });
  calls.store(0);

  const simtime::CostModel cost = simtime::default_cost_model();
  World w(xeon_ranks(2), cost);
  constexpr int kCount = 20;
  std::vector<int> seen;
  const LaunchResult res = launch(w, [&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (int v = 0; v < kCount; ++v) mpi.send(&v, sizeof v, 1, 7);
    } else {
      for (int i = 0; i < kCount; ++i) {
        int v = -1;
        mpi.recv(&v, sizeof v, 0, 7);
        seen.push_back(v);
      }
    }
    return 0;
  });
  EXPECT_FALSE(res.aborted);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(seen[i], i);  // exactly once, in order
}

TEST_F(ReliableWorldTest, EnabledWithoutFaultsKeepsVirtualTimeParity) {
  const simtime::CostModel cost = simtime::default_cost_model();
  const auto run = [&cost]() {
    World w(xeon_ranks(2), cost);
    std::atomic<simtime::SimTime> finish{0};
    launch(w, [&](Mpi& mpi) {
      if (mpi.rank() == 0) {
        for (int v = 0; v < 8; ++v) {
          mpi.send(&v, sizeof v, 1, 3);
          int echo = 0;
          mpi.recv(&echo, sizeof echo, 1, 4);
        }
      } else {
        for (int i = 0; i < 8; ++i) {
          int v = 0;
          mpi.recv(&v, sizeof v, 0, 3);
          mpi.send(&v, sizeof v, 1 - mpi.rank(), 4);
        }
        finish.store(mpi.clock().now());
      }
      return 0;
    });
    return finish.load();
  };

  reliable::set_enabled(false);
  const simtime::SimTime baseline = run();
  reliable::set_enabled(true);
  reliable::reset_links();
  const simtime::SimTime framed = run();
  EXPECT_EQ(framed, baseline);  // the envelope is modeled as free
}

}  // namespace
