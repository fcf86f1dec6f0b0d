// mailbox.hpp — SPE mailbox FIFOs.
//
// Each SPE has three mailbox channels, with the hardware depths:
//   * inbound  (PPE -> SPE), 4 entries deep,
//   * outbound (SPE -> PPE), 1 entry deep,
//   * outbound-interrupt (SPE -> PPE, raises an interrupt), 1 entry deep.
// Entries are 32-bit words.  An SPU write to a full outbound mailbox and an
// SPU read from an empty inbound mailbox *stall the SPU* — modelled here as
// a simtime::Park.  The PPE side either polls or, like the Co-Pilot, parks
// on a doorbell that the mailboxes it watches ring.
//
// Virtual time: every entry carries the sender's virtual timestamp at
// completion of the send; the receiver joins its clock with that stamp.  The
// per-operation CPU costs (cheap channel ops on the SPU, slow MMIO on the
// PPE) are charged by the caller from the CostModel, keeping the hardware
// model purely functional.
#pragma once

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
  std::size_t free_slots() const { return capacity_ - count(); }

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

  /// True while a reader sleeps in pop_blocking and nothing was pushed
  /// since: with earliest_stamp(), how the Co-Pilot bounds the SPU's stamps.
  bool reader_waiting() const { return not_empty_.parked(); }

  /// Virtual stamp of the oldest queued entry, if any.
  std::optional<simtime::SimTime> earliest_stamp() const;

  /// Whether close() has been called.
  bool closed() const;

  /// The reader's Park watcher: rung after every push and close(), and
  /// when a reader falls asleep in pop_blocking().
  void set_doorbell(simtime::Doorbell* bell) { not_empty_.set_watcher(bell); }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  simtime::Park not_full_;
  simtime::Park not_empty_;
  std::deque<MailboxEntry> fifo_;
  bool closed_ = false;
};

}  // namespace cellsim
