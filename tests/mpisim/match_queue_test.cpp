// Unit tests for MPI matching rules in the per-rank queue.
#include "mpisim/match_queue.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <thread>
#include <vector>

namespace {

using namespace mpisim;

InboundMessage msg(Rank src, int tag, std::size_t bytes = 0,
                   simtime::SimTime arrival = 0) {
  InboundMessage m;
  m.source = src;
  m.tag = tag;
  m.payload.resize(bytes);
  m.arrival = arrival;
  return m;
}

TEST(MatchQueue, ExactMatch) {
  MatchQueue q;
  q.deposit(msg(1, 10));
  q.deposit(msg(2, 20));
  const InboundMessage got = q.match_blocking(2, 20);
  EXPECT_EQ(got.source, 2);
  EXPECT_EQ(got.tag, 20);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(MatchQueue, WildcardSourceAndTag) {
  MatchQueue q;
  q.deposit(msg(3, 30));
  EXPECT_EQ(q.match_blocking(kAnySource, 30).source, 3);
  q.deposit(msg(4, 40));
  EXPECT_EQ(q.match_blocking(4, kAnyTag).tag, 40);
  q.deposit(msg(5, 50));
  EXPECT_EQ(q.match_blocking(kAnySource, kAnyTag).source, 5);
}

TEST(MatchQueue, NonOvertakingSameSourceSameTag) {
  MatchQueue q;
  q.deposit(msg(1, 10, 1));
  q.deposit(msg(1, 10, 2));
  EXPECT_EQ(q.match_blocking(1, 10).payload.size(), 1u);
  EXPECT_EQ(q.match_blocking(1, 10).payload.size(), 2u);
}

TEST(MatchQueue, MatchSkipsNonMatchingEarlierMessages) {
  MatchQueue q;
  q.deposit(msg(1, 10));
  q.deposit(msg(2, 20));
  EXPECT_EQ(q.match_blocking(2, 20).source, 2);
  EXPECT_EQ(q.pending(), 1u);  // the (1,10) message is untouched
}

TEST(MatchQueue, TryMatchReturnsNulloptOnMiss) {
  MatchQueue q;
  q.deposit(msg(1, 10));
  EXPECT_FALSE(q.try_match(1, 99).has_value());
  EXPECT_TRUE(q.try_match(1, 10).has_value());
}

TEST(MatchQueue, ProbeIsNonDestructive) {
  MatchQueue q;
  q.deposit(msg(1, 10, 64));
  const auto env = q.probe(kAnySource, kAnyTag);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->source, 1);
  EXPECT_EQ(env->bytes, 64u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(MatchQueue, BlockingMatchWaitsForDeposit) {
  MatchQueue q;
  std::size_t got = 0;
  std::thread reader([&] { got = q.match_blocking(7, 70).payload.size(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.deposit(msg(7, 70, 9));
  reader.join();
  EXPECT_EQ(got, 9u);
}

TEST(MatchQueue, DepositEndsTheSleepersQuiescence) {
  // A sleeper that a deposit may wake can send again, so from the deposit
  // on it must not read as quiescent, even before its thread has run.
  MatchQueue q;
  const auto until_asleep = [&q] {
    while (!q.waiting()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::thread reader([&] { q.match_blocking(7, 70); });
  until_asleep();
  // Not the one it waits for: it wakes, looks and goes back to sleep.
  q.deposit(msg(7, 71));
  until_asleep();
  // The match: the sleeper will not sleep again, so the flag must already
  // be down when deposit returns.
  q.deposit(msg(7, 70));
  EXPECT_FALSE(q.waiting());
  reader.join();
  EXPECT_FALSE(q.waiting());
}

TEST(MatchQueue, ProbeBlockingLeavesMessage) {
  MatchQueue q;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.deposit(msg(1, 5, 3));
  });
  const Envelope env = q.probe_blocking(1, 5);
  writer.join();
  EXPECT_EQ(env.bytes, 3u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(MatchQueue, ProbeAnyPrefersEarlierPattern) {
  MatchQueue q;
  q.deposit(msg(2, 20));
  q.deposit(msg(1, 10));
  const MatchQueue::Pattern patterns[] = {{1, 10}, {2, 20}};
  const auto [idx, env] = q.probe_any_blocking(patterns);
  EXPECT_EQ(idx, 0u);  // pattern order, not arrival order
  EXPECT_EQ(env.source, 1);
}

TEST(MatchQueue, TryProbeAnyMissesCleanly) {
  MatchQueue q;
  const MatchQueue::Pattern patterns[] = {{1, 10}};
  EXPECT_FALSE(q.try_probe_any(patterns).has_value());
  q.deposit(msg(1, 10));
  EXPECT_TRUE(q.try_probe_any(patterns).has_value());
}

TEST(MatchQueue, AbortWakesBlockedMatcher) {
  MatchQueue q;
  std::exception_ptr seen;
  std::thread reader([&] {
    try {
      q.match_blocking(1, 1);
    } catch (...) {
      seen = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.abort("test teardown");
  reader.join();
  ASSERT_TRUE(seen != nullptr);
  try {
    std::rethrow_exception(seen);
  } catch (const WorldAborted& e) {
    EXPECT_NE(std::string(e.what()).find("test teardown"), std::string::npos);
  }
}

TEST(MatchQueue, AbortedQueueThrowsOnEveryOp) {
  MatchQueue q;
  q.abort("dead");
  EXPECT_THROW(q.try_match(1, 1), WorldAborted);
  EXPECT_THROW(q.probe(1, 1), WorldAborted);
  EXPECT_THROW(q.match_blocking(1, 1), WorldAborted);
}

TEST(MatchQueue, DepositAfterAbortIsDropped) {
  MatchQueue q;
  q.abort("dead");
  q.deposit(msg(1, 1));
  EXPECT_EQ(q.pending(), 0u);
}

// --- matching across (source, tag) lanes ------------------------------------

TEST(MatchQueue, WildcardsPickTheEarliestDepositAcrossLanes) {
  MatchQueue q;
  q.deposit(msg(2, 20, 0, 1));
  q.deposit(msg(1, 20, 0, 2));
  q.deposit(msg(1, 10, 0, 3));
  EXPECT_EQ(q.probe(kAnySource, 20)->source, 2);
  EXPECT_EQ(q.probe(1, kAnyTag)->tag, 20);
  const auto any = q.probe(kAnySource, kAnyTag);
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->source, 2);
  EXPECT_EQ(any->tag, 20);
  // Matching in deposit order drains the lanes oldest first.
  EXPECT_EQ(q.try_match(kAnySource, kAnyTag)->arrival, 1);
  EXPECT_EQ(q.try_match(1, kAnyTag)->arrival, 2);
  EXPECT_EQ(q.try_match(kAnySource, 10)->arrival, 3);
  EXPECT_FALSE(q.probe(kAnySource, kAnyTag).has_value());
}

TEST(MatchQueue, ProbeAnyWithWildcardPatterns) {
  MatchQueue q;
  q.deposit(msg(3, 30, 0, 1));
  q.deposit(msg(1, 10, 0, 2));
  q.deposit(msg(1, 11, 0, 3));
  // Pattern order wins; within a pattern, the earliest deposit.
  const MatchQueue::Pattern patterns[] = {
      {2, kAnyTag}, {1, kAnyTag}, {kAnySource, kAnyTag}};
  const auto hit = q.try_probe_any(patterns);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, 1u);
  EXPECT_EQ(hit->second.arrival, 2);
  const MatchQueue::Pattern by_tag[] = {{kAnySource, 99}, {kAnySource, 11}};
  const auto [idx, env] = q.probe_any_blocking(by_tag);
  EXPECT_EQ(idx, 1u);
  EXPECT_EQ(env.source, 1);
  EXPECT_EQ(env.arrival, 3);
}

TEST(MatchQueue, PendingCountsEveryLane) {
  MatchQueue q;
  q.deposit(msg(1, 10));
  q.deposit(msg(1, 10));
  q.deposit(msg(2, 10));
  q.deposit(msg(1, 11));
  EXPECT_EQ(q.pending(), 4u);
  ASSERT_TRUE(q.try_match(kAnySource, 10).has_value());
  EXPECT_EQ(q.pending(), 3u);
  ASSERT_TRUE(q.try_match(1, 11).has_value());
  ASSERT_TRUE(q.try_match(2, 10).has_value());
  ASSERT_TRUE(q.try_match(1, 10).has_value());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.try_match(kAnySource, kAnyTag).has_value());
}

TEST(MatchQueue, AbortWithSeveralNonEmptyLanes) {
  MatchQueue q;
  q.deposit(msg(1, 10));
  q.deposit(msg(2, 20));
  q.deposit(msg(3, 30));
  std::exception_ptr seen;
  std::thread reader([&] {
    try {
      q.match_blocking(4, 40);  // no lane for it: parks
    } catch (...) {
      seen = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.abort("lanes");
  reader.join();
  EXPECT_TRUE(seen != nullptr);
  EXPECT_THROW(q.try_match(1, 10), WorldAborted);
  EXPECT_THROW(q.probe(kAnySource, kAnyTag), WorldAborted);
  const MatchQueue::Pattern patterns[] = {{2, 20}};
  EXPECT_THROW(q.try_probe_any(patterns), WorldAborted);
  EXPECT_THROW(q.probe_any_blocking(patterns), WorldAborted);
  q.deposit(msg(1, 10));  // dropped
  EXPECT_EQ(q.pending(), 3u);
}

/// The matching rule stated directly: one queue in deposit order, scanned
/// front to back.
class LinearModel {
 public:
  void deposit(const InboundMessage& m) { fifo_.push_back(m); }
  std::optional<InboundMessage> try_match(Rank source, int tag) {
    const std::size_t i = find(source, tag);
    if (i == fifo_.size()) return std::nullopt;
    InboundMessage m = fifo_[i];
    fifo_.erase(fifo_.begin() + static_cast<std::ptrdiff_t>(i));
    return m;
  }
  std::optional<Envelope> probe(Rank source, int tag) const {
    const std::size_t i = find(source, tag);
    if (i == fifo_.size()) return std::nullopt;
    return Envelope{fifo_[i].source, fifo_[i].tag, fifo_[i].payload.size(),
                    fifo_[i].arrival};
  }
  std::optional<std::pair<std::size_t, Envelope>> try_probe_any(
      std::span<const MatchQueue::Pattern> patterns) const {
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      if (auto env = probe(patterns[p].source, patterns[p].tag)) {
        return {{p, *env}};
      }
    }
    return std::nullopt;
  }
  std::size_t pending() const { return fifo_.size(); }

 private:
  std::size_t find(Rank source, int tag) const {
    std::size_t i = 0;
    for (; i < fifo_.size(); ++i) {
      if ((source == kAnySource || fifo_[i].source == source) &&
          (tag == kAnyTag || fifo_[i].tag == tag)) {
        break;
      }
    }
    return i;
  }

  std::deque<InboundMessage> fifo_;
};

void expect_same(const std::optional<Envelope>& got,
                 const std::optional<Envelope>& want, int op) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
  if (!got) return;
  EXPECT_EQ(got->source, want->source) << "op " << op;
  EXPECT_EQ(got->tag, want->tag) << "op " << op;
  EXPECT_EQ(got->bytes, want->bytes) << "op " << op;
  EXPECT_EQ(got->arrival, want->arrival) << "op " << op;
}

TEST(MatchQueue, RandomOpsMatchALinearScan) {
  std::mt19937 rng(7);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  // Four sources and four tags; a quarter of the patterns are wildcards.
  auto pattern = [&] {
    MatchQueue::Pattern p;
    p.source = pick(4) == 0 ? kAnySource : pick(4);
    p.tag = pick(4) == 0 ? kAnyTag : 10 + pick(4);
    return p;
  };
  MatchQueue q;
  LinearModel model;
  simtime::SimTime id = 0;
  for (int op = 0; op < 10000; ++op) {
    switch (pick(4)) {
      case 0: {
        const InboundMessage m = msg(pick(4), 10 + pick(4),
                                     static_cast<std::size_t>(pick(3)), ++id);
        model.deposit(m);
        q.deposit(m);
        break;
      }
      case 1: {
        const MatchQueue::Pattern p = pattern();
        auto got = q.try_match(p.source, p.tag);
        auto want = model.try_match(p.source, p.tag);
        auto env = [](const std::optional<InboundMessage>& m) {
          return m ? std::optional<Envelope>(Envelope{
                         m->source, m->tag, m->payload.size(), m->arrival})
                   : std::nullopt;
        };
        expect_same(env(got), env(want), op);
        break;
      }
      case 2: {
        const MatchQueue::Pattern p = pattern();
        expect_same(q.probe(p.source, p.tag), model.probe(p.source, p.tag),
                    op);
        break;
      }
      default: {
        std::vector<MatchQueue::Pattern> patterns(
            static_cast<std::size_t>(1 + pick(3)));
        for (auto& p : patterns) p = pattern();
        const auto got = q.try_probe_any(patterns);
        const auto want = model.try_probe_any(patterns);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (got) {
          EXPECT_EQ(got->first, want->first) << "op " << op;
          expect_same(got->second, want->second, op);
        }
        break;
      }
    }
    ASSERT_EQ(q.pending(), model.pending()) << "op " << op;
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
