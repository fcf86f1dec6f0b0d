#pragma once
/// \file
/// Host-thread waiting for the simulator's service loops.
///
/// How a host thread waits never moves virtual time; it only decides how
/// much host time and CPU a run burns.  A Doorbell is an eventcount with
/// one owner: a service thread (a Co-Pilot) that parks on it when it has
/// nothing to do, woken by any thread that produced work it could act on.
///
/// The owner's loop:
///
///     for (;;) {
///       const std::uint32_t seen = bell.announce();
///       if (nothing_to_do()) { bell.park(seen); continue; }
///       bell.unannounce();
///       do_one_step();
///     }
///
/// A producer publishes its work (and releases any lock it took to do so),
/// then calls ring().  Either the owner's check after announce() sees the
/// work, or the ring sees the announcement and moves the generation, so
/// the park that follows returns at once: no wakeup is lost.  A ring costs
/// one seq_cst fence and one load while the owner is busy (not announced),
/// and makes a syscall only when the owner is asleep.

#include <atomic>
#include <cstdint>

namespace simtime {

class alignas(64) Doorbell {
 public:
  /// Owner: announces that it is about to look for work and returns the
  /// generation to park on.
  std::uint32_t announce() {
    checking_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return generation_.load(std::memory_order_acquire);
  }

  /// Owner: stops announcing while it runs a step; rings then stay cheap.
  void unannounce() { checking_.store(false, std::memory_order_relaxed); }

  /// Owner: sleeps until the generation differs from `seen`, returning at
  /// once if a ring already moved it.  The owner stays announced.
  void park(std::uint32_t seen);

  /// Producer: wakes the owner if it is looking for work or asleep.  Call
  /// after the work is visible and after releasing any lock.
  void ring() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (checking_.load(std::memory_order_relaxed)) ring_announced();
  }

  /// Rings that woke a sleeping owner (each one a notify syscall).
  std::uint64_t wakes() const { return wakes_.load(std::memory_order_relaxed); }

  /// Owners asleep in park() right now (0 or 1).
  std::uint32_t sleepers() const {
    return sleepers_.load(std::memory_order_acquire);
  }

 private:
  void ring_announced();

  std::atomic<std::uint32_t> generation_{0};
  std::atomic<bool> checking_{false};
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<std::uint64_t> wakes_{0};
};

}  // namespace simtime
