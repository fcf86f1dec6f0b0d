// hostwait_test.cpp — the Doorbell eventcount, the Park wait and the
// Co-Pilot's idle park.
//
// Contract under test:
//  * a ring that lands between announce() and park() makes the park
//    return at once (no lost wakeup);
//  * a ring with no announced owner touches neither the generation nor
//    the owner (no wake);
//  * two threads handing a token back and forth through two doorbells
//    finish 100,000 rounds (no lost wakeup under contention);
//  * a Park's flag is up only while its owner sleeps on a false predicate,
//    and a wake lowers it before the owner runs;
//  * a Park rings its watcher when the owner falls asleep, so a service
//    parked on that doorbell sees it; wake_all releases every sleeper;
//  * an idle-parked Co-Pilot wakes for the ring sources no other test
//    isolates: a world abort, and the release of a respawned occupant's
//    slot that ends a deferred shutdown;
//  * acquiring an SPE slot lowers the bound a parked Co-Pilot published
//    and rings it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cellpilot.hpp"
#include "core/copilot.hpp"
#include "core/faultplan.hpp"
#include "pilot/app.hpp"
#include "simtime/hostwait.hpp"

namespace {

using namespace std::chrono_literals;
using cellpilot::faults::FaultPlan;
using simtime::Doorbell;
using simtime::Park;

/// Runs `body` on its own thread and fails the whole binary if it has not
/// returned within `limit`: a lost wakeup shows as a hang, and a hung
/// thread cannot be joined.
void within(std::chrono::seconds limit, const std::function<void()>& body) {
  auto done = std::async(std::launch::async, body);
  if (done.wait_for(limit) == std::future_status::timeout) {
    ADD_FAILURE() << "still blocked after " << limit.count()
                  << " s: a wakeup was lost";
    std::_Exit(1);
  }
  done.get();
}

/// Waits until the owner of `bell` has sat parked for `settle` without a
/// break, so that it has seen everything produced before the call.
void wait_parked(const Doorbell& bell, std::chrono::milliseconds settle) {
  auto since = std::chrono::steady_clock::now();
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (bell.sleepers() == 0) {
      since = now;
    } else if (now - since >= settle) {
      return;
    }
    std::this_thread::sleep_for(1ms);
  }
}

TEST(Doorbell, RingBetweenAnnounceAndParkReturnsAtOnce) {
  Doorbell bell;
  within(10s, [&] {
    const std::uint32_t seen = bell.announce();
    bell.ring();      // the work appeared after the owner looked
    bell.park(seen);  // must not sleep: the generation moved
  });
  EXPECT_EQ(bell.wakes(), 0u) << "nobody was asleep, so nothing to notify";
  EXPECT_EQ(bell.sleepers(), 0u);
}

TEST(Doorbell, RingWithNoAnnouncedOwnerMakesNoWake) {
  Doorbell bell;
  const std::uint32_t before = bell.announce();
  bell.unannounce();
  for (int i = 0; i < 1000; ++i) bell.ring();
  EXPECT_EQ(bell.wakes(), 0u);
  EXPECT_EQ(bell.announce(), before)
      << "a ring while the owner is busy must not move the generation";
}

TEST(Doorbell, TwoThreadHandshakeCompletes) {
  constexpr int kRounds = 100000;
  Doorbell bells[2];
  std::atomic<int> ball{0};  // even: thread 0's turn; odd: thread 1's
  auto player = [&](int me) {
    Doorbell& mine = bells[me];
    Doorbell& theirs = bells[1 - me];
    for (int round = 0; round < kRounds; ++round) {
      const int turn = 2 * round + me;
      for (;;) {
        const std::uint32_t seen = mine.announce();
        if (ball.load(std::memory_order_acquire) == turn) break;
        mine.park(seen);
      }
      mine.unannounce();
      ball.store(turn + 1, std::memory_order_release);
      theirs.ring();
    }
  };
  within(60s, [&] {
    std::thread other(player, 1);
    player(0);
    other.join();
  });
  EXPECT_EQ(ball.load(), 2 * kRounds);
}

// --- Park ------------------------------------------------------------------

void until_parked(const Park& park) {
  while (!park.parked()) std::this_thread::sleep_for(1ms);
}

TEST(Park, FlagIsUpOnlyWhileTheOwnerSleepsOnAFalsePredicate) {
  std::mutex mu;
  Park park;
  int arrived = 0;
  {
    std::unique_lock lock(mu);
    park.wait(lock, [] { return true; });
  }
  EXPECT_FALSE(park.parked()) << "a true predicate never sleeps";
  std::thread owner([&] {
    std::unique_lock lock(mu);
    park.wait(lock, [&] { return arrived == 2; });
    EXPECT_FALSE(park.parked()) << "the owner runs with the flag down";
  });
  within(10s, [&] { until_parked(park); });
  {
    // Not enough: the owner wakes, looks and sleeps again.
    std::lock_guard lock(mu);
    arrived = 1;
    park.wake_one();
    EXPECT_FALSE(park.parked());
  }
  within(10s, [&] { until_parked(park); });
  {
    std::lock_guard lock(mu);
    arrived = 2;
    park.wake_one();
  }
  owner.join();
  EXPECT_FALSE(park.parked());
}

TEST(Park, WakeLowersTheFlagBeforeTheOwnerRuns) {
  std::mutex mu;
  Park park;
  bool ready = false;
  std::thread owner([&] {
    std::unique_lock lock(mu);
    park.wait(lock, [&] { return ready; });
  });
  within(10s, [&] { until_parked(park); });
  {
    // The owner cannot run while this thread holds the lock.
    std::lock_guard lock(mu);
    ready = true;
    park.wake_one();
    EXPECT_FALSE(park.parked());
  }
  owner.join();
}

TEST(Park, FallingAsleepRingsTheWatcher) {
  std::mutex mu;
  Park park;
  Doorbell bell;
  park.set_watcher(&bell);
  bool ready = false;
  within(10s, [&] {
    std::thread owner([&] {
      std::unique_lock lock(mu);
      park.wait(lock, [&] { return ready; });
    });
    // The watching service parks until the owner reads as asleep; only the
    // owner's own ring can wake it.
    for (;;) {
      const std::uint32_t seen = bell.announce();
      if (park.parked()) break;
      bell.park(seen);
    }
    bell.unannounce();
    std::unique_lock lock(mu);
    ready = true;
    park.wake_one(lock);
    owner.join();
  });
  EXPECT_FALSE(park.parked());
}

TEST(Park, WakeAllReleasesEverySleeper) {
  constexpr int kSleepers = 4;
  std::mutex mu;
  Park park;
  int looks = 0;
  bool closed = false;
  std::atomic<int> released{0};
  within(10s, [&] {
    std::vector<std::thread> sleepers;
    for (int i = 0; i < kSleepers; ++i) {
      sleepers.emplace_back([&] {
        std::unique_lock lock(mu);
        park.wait(lock, [&] {
          ++looks;
          return closed;
        });
        released.fetch_add(1);
      });
    }
    // With no watcher a sleeper goes from its false look straight to the
    // wait, lock held: once every sleeper has looked, all of them sleep.
    for (;;) {
      std::unique_lock lock(mu);
      if (looks >= kSleepers) {
        closed = true;  // a close or an abort
        park.wake_all();
        break;
      }
      lock.unlock();
      std::this_thread::sleep_for(1ms);
    }
    for (std::thread& t : sleepers) t.join();
  });
  EXPECT_EQ(released.load(), kSleepers);
  EXPECT_FALSE(park.parked());
}

// --- the Co-Pilot's ring sources -------------------------------------------

std::atomic<PI_CHANNEL*> g_ch{nullptr};
std::atomic<int> g_incarnation{0};
std::atomic<bool> g_release{false};

cluster::Cluster one_cell() {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  return cluster::Cluster(std::move(config));
}

class CopilotPark : public ::testing::Test {
 protected:
  void SetUp() override {
    cellpilot::supervision::reset_counters();
    g_ch = nullptr;
    g_incarnation.store(0);
    g_release.store(false);
  }
  ~CopilotPark() override { FaultPlan::global().reset(); }
};

TEST_F(CopilotPark, WorldAbortWakesAnIdleCopilot) {
  cluster::Cluster machine = one_cell();
  const std::string reason = "aborted with the Co-Pilot parked";
  // No SPE ever runs, so the Co-Pilot parks at once and nothing but the
  // abort (its queue's abort, the blade's mailbox closes) can wake it.
  std::thread aborter([&] {
    wait_parked(machine.copilot_doorbell(0), 20ms);
    machine.world().abort(reason);
  });
  cellpilot::RunResult r;
  within(30s, [&] {
    r = cellpilot::run(machine, [&](int argc, char** argv) {
      PI_Configure(&argc, &argv);
      PI_StartAll();
      while (!machine.world().aborted()) std::this_thread::sleep_for(1ms);
      PI_StopMain(0);
      return 0;
    });
  });
  aborter.join();
  ASSERT_TRUE(r.aborted);
  EXPECT_EQ(r.abort_reason, reason);
}

TEST(CopilotBound, AcquiringASlotLowersTheParkedBoundAndRings) {
  // A parked Co-Pilot published kForever for its free slots and does not
  // republish; a new occupant's stamps start at its SPE's clock.
  cluster::Cluster machine = one_cell();
  pilot::PilotApp app(machine);
  machine.spe(0, 0).clock().advance(5000);
  Doorbell& bell = machine.copilot_doorbell(0);
  const std::uint32_t seen = bell.announce();
  EXPECT_EQ(app.acquire_spe(0), 0u);
  EXPECT_EQ(machine.copilot_bound(0).load(), 5000);
  within(10s, [&] { bell.park(seen); });  // the acquire rang
  // A bound already below the new occupant's clock stays put.
  machine.spe(0, 1).clock().advance(9000);
  EXPECT_EQ(app.acquire_spe(0), 1u);
  EXPECT_EQ(machine.copilot_bound(0).load(), 5000);
}

PI_SPE_PROGRAM(lingering_writer) {
  if (g_incarnation.fetch_add(1) == 0) {
    PI_Write(g_ch, "%d", 1);  // the fault plan kills this request
    return 0;
  }
  // The respawned occupant does no I/O: it outlives PI_StopMain, holding
  // the Co-Pilot's shutdown deferred, until the test lets it retire.
  while (!g_release.load()) std::this_thread::sleep_for(1ms);
  return 0;
}

TEST_F(CopilotPark, ReleasedRespawnSlotEndsADeferredShutdown) {
  cluster::Cluster machine = one_cell();
  cellpilot::RunOptions opts;
  opts.args = {"-pirespawn=1",
               "-pifault=spe_crash_mid@node0.cell0.spe0:op=1"};
  const mpisim::Rank copilot = machine.copilot_rank(0);
  bool deferred = false;
  // PI_StopMain joins the original occupant, then sends the shutdown;
  // the Co-Pilot respawns the process only once PI_MAIN is passive, so
  // the replacement is still running when the shutdown arrives.  Wait for
  // the Co-Pilot to park with the shutdown queued, then let the
  // replacement retire: its slot release is the only ring left.
  std::thread releaser([&] {
    const auto give_up = std::chrono::steady_clock::now() + 20s;
    while (std::chrono::steady_clock::now() < give_up) {
      if (cellpilot::supervision::respawn_count() == 1 &&
          machine.world().queue(copilot).pending() > 0) {
        wait_parked(machine.copilot_doorbell(0), 20ms);
        deferred = machine.world().queue(copilot).pending() > 0;
        break;
      }
      std::this_thread::sleep_for(1ms);
    }
    g_release.store(true);
  });
  cellpilot::RunResult r;
  within(60s, [&] {
    r = cellpilot::run(
        machine,
        [&](int argc, char** argv) {
          PI_Configure(&argc, &argv);
          PI_PROCESS* writer = PI_CreateSPE(lingering_writer, PI_MAIN, 0);
          g_ch = PI_CreateChannel(writer, PI_MAIN);
          PI_StartAll();
          PI_RunSPE(writer, 0, nullptr);
          PI_StopMain(0);
          return 0;
        },
        opts);
  });
  releaser.join();
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_TRUE(deferred)
      << "the Co-Pilot never parked with the shutdown queued";
  EXPECT_EQ(cellpilot::supervision::respawn_count(), 1u);
  EXPECT_EQ(g_incarnation.load(), 2);
}

}  // namespace
