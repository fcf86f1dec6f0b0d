// scheduler.hpp — the Co-Pilot's conservative discrete-event scheduler.
//
// The Co-Pilot is a *serial* resource (the PPE's second hardware thread):
// its virtual clock accumulates every request it services, which is exactly
// the contention the paper measures.  Because the simulation's host threads
// race, events do not arrive in virtual-time order; the scheduler therefore
// runs a conservative discrete-event rule: an event runs only once no source
// -- local SPEs, user ranks, peer Co-Pilots -- can still produce one that
// comes before it.  One order, Candidate::before, decides both which event
// runs next and when it may run, so every timing result is independent of
// host scheduling.
//
// The scheduler sees the machine only through Sources, so tests can drive
// it without threads against a fake source set.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "cellsim/mailbox.hpp"
#include "core/protocol.hpp"
#include "mpisim/types.hpp"
#include "simtime/sim_time.hpp"

namespace cellpilot {

/// The words of one SPE's request that have arrived so far.
struct Assembly {
  std::uint32_t words[kAsyncRequestWords] = {};
  int n = 0;
  simtime::SimTime first_stamp = 0;  ///< stamp of the request's first word
  simtime::SimTime last_stamp = 0;
};

/// A whole request, decoded, waiting for its turn.
struct ReadyRequest {
  SpeRequest req;
  unsigned spe = 0;
  simtime::SimTime stamp = 0;        ///< stamp of the request's final word
  simtime::SimTime first_stamp = 0;  ///< stamp of its first word (deadline)
};

/// A request parked until its peer arrives.
struct Pending {
  SpeRequest req;
  unsigned spe = 0;
  /// MPI source the data will come from (kRank writer or remote Co-Pilot);
  /// kAnySource for type-4 reads awaiting a local writer.
  mpisim::Rank expected_source = mpisim::kAnySource;
  /// The channel's data tag, copied from its compiled route.
  int tag = 0;
};

/// The scheduler's share of the Co-Pilot's recovery record: partial
/// mailbox assemblies and whole requests not yet serviced.
struct EventQueue {
  std::vector<Assembly> assembly;  ///< one per SPE slot
  std::vector<ReadyRequest> ready;
};

/// One event the Co-Pilot may service.
struct Candidate {
  enum Kind { kRequest, kMpiData, kShutdown, kSpeFault };
  simtime::SimTime stamp = 0;
  Kind kind = kRequest;
  std::size_t index = 0;  ///< into EventQueue::ready for kRequest
  int channel = -1;       ///< pending-read channel for kMpiData
  unsigned spe = 0;       ///< issuing SPE for kRequest (tie-breaking)

  /// Total order: stamp, then kind, then SPE, then channel — so that
  /// equal-stamp events are processed in the same order regardless of
  /// the real-time order in which they became visible.
  bool before(const Candidate& other) const {
    if (stamp != other.stamp) return stamp < other.stamp;
    if (kind != other.kind) return kind < other.kind;
    if (spe != other.spe) return spe < other.spe;
    return channel < other.channel;
  }
};

/// Everything the scheduler reads from, or tells, the machine.
class Sources {
 public:
  /// Pops the next word of SPE `spe`'s outbound mailbox, if one is there.
  virtual std::optional<cellsim::MailboxEntry> pop_word(unsigned spe) = 0;
  /// Lower bound on the stamp of anything SPE `spe` may still emit.
  virtual simtime::SimTime spe_bound(unsigned spe) = 0;
  /// Stamp of SPE `spe`'s unconsumed fault notice, if it has one.
  virtual std::optional<simtime::SimTime> fault_stamp(unsigned spe) = 0;
  /// The first queued message from `source` with `tag` (MPI_Iprobe).
  virtual std::optional<mpisim::Envelope> probe(mpisim::Rank source,
                                                int tag) = 0;
  /// Lower bound on the stamp of anything a user rank or a peer Co-Pilot
  /// may still send here: the minimum of the ranks' send bounds and the
  /// peers' published bounds.
  virtual simtime::SimTime remote_bound() = 0;
  /// Publishes this Co-Pilot's bound for its peers' remote_bound().
  virtual void publish_bound(simtime::SimTime bound) = 0;
  /// Whether a queued shutdown must not run yet.
  virtual bool shutdown_deferred() = 0;

 protected:
  ~Sources() = default;
};

/// What one scheduling step found.
struct Step {
  enum Status {
    kIdle,     ///< no event is available
    kBlocked,  ///< a source could still produce an earlier event
    kStale,    ///< the revalidation drain surfaced an earlier event
    kRun,      ///< `event` may run now
  };
  Status status = kIdle;
  Candidate event;
};

/// One step of the scheduler: drains the mailboxes into `queue`, publishes
/// this Co-Pilot's bound, and returns the earliest event of `queue`, the
/// parked `reads`, the shutdown message and the fault notices, gated
/// against every source.
Step schedule(Sources& sources, EventQueue& queue,
              const std::multimap<int, Pending>& reads);

}  // namespace cellpilot
