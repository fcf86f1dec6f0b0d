// mailbox.hpp — SPE mailbox FIFOs.
//
// Each SPE has three mailbox channels, with the hardware depths:
//   * inbound  (PPE -> SPE), 4 entries deep,
//   * outbound (SPE -> PPE), 1 entry deep,
//   * outbound-interrupt (SPE -> PPE, raises an interrupt), 1 entry deep.
// Entries are 32-bit words.  An SPU write to a full outbound mailbox and an
// SPU read from an empty inbound mailbox *stall the SPU* — modelled here as
// blocking on a condition variable.  The PPE side either polls or, like the
// Co-Pilot, parks on a doorbell that the mailboxes it watches ring.
//
// Virtual time: every entry carries the sender's virtual timestamp at
// completion of the send; the receiver joins its clock with that stamp.  The
// per-operation CPU costs (cheap channel ops on the SPU, slow MMIO on the
// PPE) are charged by the caller from the CostModel, keeping the hardware
// model purely functional.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>

#include "cellsim/errors.hpp"
#include "simtime/hostwait.hpp"
#include "simtime/sim_time.hpp"

namespace cellsim {

/// One 32-bit mailbox entry plus the virtual time it was deposited.
struct MailboxEntry {
  std::uint32_t value = 0;
  simtime::SimTime stamp = simtime::kSimTimeZero;
};

/// A bounded FIFO of 32-bit words with blocking and polling interfaces.
class Mailbox {
 public:
  /// Creates a mailbox holding at most `capacity` entries (>= 1).
  explicit Mailbox(std::size_t capacity);

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Maximum number of entries.
  std::size_t capacity() const { return capacity_; }

  /// Current number of entries (racy snapshot, as on hardware), at most
  /// capacity(): a post may queue more words than the hardware depth.
  std::size_t count() const;

  /// Number of free slots (hardware "status" register read); 0 while a
  /// post holds the FIFO at or past its depth.
  std::size_t free_slots() const;

  /// Blocking write of a whole post: waits while full (the SPU stalling on
  /// a full outbound channel), then appends every entry in order, wakes
  /// the reader once and rings the doorbell once.  The entries may
  /// outnumber the free slots: hardware would stall between words, but
  /// each entry's stamp is fixed by its writer before the push, so that
  /// stall never moved virtual time and the post lands whole.  Throws
  /// MailboxFault if the mailbox is closed while waiting.
  void push_blocking(std::span<const MailboxEntry> entries);

  /// The one-entry post.
  void push_blocking(std::uint32_t value, simtime::SimTime stamp) {
    const MailboxEntry entry{value, stamp};
    push_blocking(std::span(&entry, 1));
  }

  /// Non-blocking write: returns false when full (PPE-style write of the
  /// inbound mailbox with SPE_MBOX_ANY_NONBLOCKING behaviour).
  bool try_push(std::uint32_t value, simtime::SimTime stamp);

  /// Blocking read: waits while empty (SPU stalling on an empty inbound
  /// channel).  Throws MailboxFault if closed while waiting.
  MailboxEntry pop_blocking();

  /// Non-blocking read: empty optional when no entry (PPE polling).
  std::optional<MailboxEntry> try_pop();

  /// Wakes all blocked parties with MailboxFault; further ops fault too.
  /// Used for simulated-node teardown; real hardware has no equivalent.
  void close();

  /// True while a reader is asleep in pop_blocking with an empty FIFO.
  /// Together with earliest_stamp(), this lets a conservative scheduler
  /// (the Co-Pilot) decide whether the SPU behind this mailbox can still
  /// produce an early-stamped event: asleep-and-empty means it can only be
  /// woken by a future deposit.
  bool reader_waiting() const {
    return reader_waiting_.load(std::memory_order_acquire);
  }

  /// Virtual stamp of the oldest queued entry, if any.
  std::optional<simtime::SimTime> earliest_stamp() const;

  /// Whether close() has been called.
  bool closed() const;

  /// Rings `bell` after every push and close(), and when a reader starts
  /// to wait in pop_blocking(), each time once the lock is released.  Set
  /// before any thread uses the mailbox; null (the default) rings nothing.
  void set_doorbell(simtime::Doorbell* bell) { doorbell_ = bell; }

 private:
  void ring() {
    if (doorbell_ != nullptr) doorbell_->ring();
  }

  const std::size_t capacity_;
  simtime::Doorbell* doorbell_ = nullptr;
  std::atomic<bool> reader_waiting_{false};
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<MailboxEntry> fifo_;
  bool closed_ = false;
};

}  // namespace cellsim
