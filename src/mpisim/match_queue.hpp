// match_queue.hpp — per-rank incoming message queue with MPI matching rules.
//
// Every rank owns one MatchQueue.  Senders deposit complete messages
// (eager protocol); receivers match on (source, tag) with wildcard support,
// honouring MPI's non-overtaking rule: among messages from the same source
// with a matching tag, the earliest deposited wins.
//
// Messages sit in one FIFO lane per (source, tag), stamped with a per-queue
// deposit sequence number.  An exact match is the head of one lane; a
// wildcard match is the lowest-sequence head among the matching lanes, which
// is the earliest deposited matching message — the same answer a single
// queue scanned front to back gives, at a cost independent of queue depth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpisim/types.hpp"
#include "simtime/hostwait.hpp"
#include "simtime/sim_time.hpp"

namespace mpisim {

/// A complete in-flight message.
struct InboundMessage {
  Rank source = 0;
  int tag = 0;
  std::vector<std::byte> payload;
  /// Virtual time at which the message is fully available at the receiver
  /// (sender departure + transit); the receiver's clock joins this.
  simtime::SimTime arrival = simtime::kSimTimeZero;
};

/// The receive side of one rank.  Cache-line aligned, so that the mutex
/// and the fields every operation touches share one line and no neighbour
/// shares it.
class alignas(64) MatchQueue {
 public:
  /// Deposits a message (called from the sender's thread).
  void deposit(InboundMessage msg);

  /// Blocks until a message matching (source, tag) is available and removes
  /// it.  Wildcards kAnySource / kAnyTag accepted.  Throws WorldAborted if
  /// aborted while waiting.
  InboundMessage match_blocking(Rank source, int tag);

  /// Non-blocking match: removes and returns the message if present.
  std::optional<InboundMessage> try_match(Rank source, int tag);

  /// Non-destructive probe: envelope of the first matching message.
  std::optional<Envelope> probe(Rank source, int tag) const;

  /// Blocks until a matching message is present (MPI_Probe); leaves it
  /// queued and returns its envelope.
  Envelope probe_blocking(Rank source, int tag);

  /// A (source, tag) match pattern for multi-pattern probes.
  struct Pattern {
    Rank source = kAnySource;
    int tag = kAnyTag;
  };

  /// Blocks until a message matching *any* pattern is queued; returns the
  /// index of the first pattern (in `patterns` order) with a match, plus
  /// the envelope.  Used by Pilot's select.
  std::pair<std::size_t, Envelope> probe_any_blocking(
      std::span<const Pattern> patterns);

  /// Non-blocking variant: nullopt when nothing matches.
  std::optional<std::pair<std::size_t, Envelope>> try_probe_any(
      std::span<const Pattern> patterns) const;

  /// Number of queued messages (diagnostics).
  std::size_t pending() const;

  /// Aborts the queue: wakes all waiters with WorldAborted(reason), and
  /// makes future blocking calls throw likewise.
  void abort(const std::string& reason);

  /// True while the owning rank sleeps in a blocking match/probe and
  /// nothing was deposited since: it cannot send, so World::quiescent()
  /// counts it as quiescent.
  bool waiting() const { return arrived_.parked(); }

  /// The owner's Park watcher: rung after every deposit and abort(), so
  /// an owner that parks on `bell` needs no blocking call.
  void set_doorbell(simtime::Doorbell* bell) { arrived_.set_watcher(bell); }

 private:
  /// The queued messages of one (source, tag) pair, oldest first:
  /// fifo[head..] are queued.  Lanes are never erased, and a lane keeps
  /// its buffer when it drains, so a warm lane takes and hands out messages
  /// without allocating.
  struct Lane {
    struct Entry {
      std::uint64_t seq;  ///< deposit order across the whole queue
      InboundMessage msg;
    };
    Rank source;
    int tag;
    std::size_t head = 0;
    std::vector<Entry> fifo;

    bool empty() const { return head == fifo.size(); }
    const Entry& front() const { return fifo[head]; }
  };

  static std::uint64_t key(Rank source, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }
  static Envelope envelope(const InboundMessage& m) {
    return Envelope{m.source, m.tag, m.payload.size(), m.arrival};
  }
  /// The lane of an exact (source, tag), or nullptr if none was ever
  /// deposited.  Caller holds mu_.
  Lane* exact_lane(Rank source, int tag) const;
  /// The lane whose head is the earliest queued message matching
  /// (source, tag), or nullptr.  Caller holds mu_.
  Lane* find(Rank source, int tag) const;
  /// Removes and returns the head of a non-empty lane.  Caller holds mu_.
  InboundMessage pop(Lane& lane);
  /// try_probe_any() with mu_ held.
  std::optional<std::pair<std::size_t, Envelope>> first(
      std::span<const Pattern> patterns) const;

  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  simtime::Park arrived_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Lane>> lanes_;
  std::unordered_map<int, std::vector<Lane*>> by_tag_;  // (kAnySource, tag)
  bool aborted_ = false;
  std::string abort_reason_;
};

}  // namespace mpisim
