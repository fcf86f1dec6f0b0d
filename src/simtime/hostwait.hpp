#pragma once
/// \file
/// Host-thread waiting: the one place a simulated entity sleeps.
///
/// How a host thread waits never moves virtual time; it only decides how
/// much host time and CPU a run burns.  An entity stalled on shared state
/// (an SPU on a mailbox, a rank in a blocking receive) sleeps in a Park.
/// A Doorbell is an eventcount with one owner: a service thread (a
/// Co-Pilot, the CML daemon) that parks on it when it has nothing to do,
/// woken by any thread that produced work it could act on.
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
#include <condition_variable>
#include <cstdint>
#include <mutex>

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

/// A condition-variable wait on the caller's mutex that knows whether its
/// owner sleeps.  parked() reads true from the moment the owner falls
/// asleep on a false predicate until a producer, holding the lock, wakes
/// it: an owner asleep with nothing arrived since cannot act, so a
/// conservative scheduler may treat it as quiescent.  The watcher doorbell
/// (null: none) is rung once the lock is released, when the owner falls
/// asleep and when a producer wakes it through the lock-taking overloads.
class Park {
 public:
  /// Set before any thread uses the park.
  void set_watcher(Doorbell* bell) { watcher_ = bell; }

  bool parked() const { return parked_.load(std::memory_order_acquire); }

  /// Owner, holding `lock`: returns, with the flag down, once pred() holds.
  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& lock, Pred pred) {
    if (pred()) return;
    for (;;) {
      parked_.store(true, std::memory_order_release);
      if (watcher_ != nullptr) {
        unlock_and_ring(lock);
        lock.lock();
        if (pred()) break;
        // Woken while the lock was free: fall asleep anew, and ring again.
        if (!parked_.load(std::memory_order_relaxed)) continue;
      }
      cv_.wait(lock);
      if (pred()) break;
    }
    parked_.store(false, std::memory_order_release);
  }

  /// Producer, holding the lock: wakes one sleeper / every sleeper.
  void wake_one() {
    parked_.store(false, std::memory_order_release);
    cv_.notify_one();
  }
  void wake_all() {
    parked_.store(false, std::memory_order_release);
    cv_.notify_all();
  }

  /// Producer: as above, then releases `lock` and rings the watcher.
  void wake_one(std::unique_lock<std::mutex>& lock) {
    wake_one();
    unlock_and_ring(lock);
  }
  void wake_all(std::unique_lock<std::mutex>& lock) {
    wake_all();
    unlock_and_ring(lock);
  }

 private:
  void unlock_and_ring(std::unique_lock<std::mutex>& lock) const {
    lock.unlock();
    if (watcher_ != nullptr) watcher_->ring();
  }

  std::condition_variable cv_;
  std::atomic<bool> parked_{false};
  Doorbell* watcher_ = nullptr;
};

}  // namespace simtime
