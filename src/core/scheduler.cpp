#include "core/scheduler.hpp"

#include <algorithm>
#include <limits>

namespace cellpilot {

namespace {

using simtime::SimTime;

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

SpeRequest decode(const std::uint32_t words[kAsyncRequestWords]) {
  SpeRequest r;
  r.opcode = unpack_opcode(words[0]);
  r.channel = unpack_channel(words[0]);
  r.ls_addr = words[1];
  r.length = words[2];
  r.signature = words[3];
  if (words_for(r.opcode) == kAsyncRequestWords) r.token = words[4];
  return r;
}

/// Moves available mailbox words into per-SPE assemblies and completed
/// requests into the ready queue.  No virtual time is charged here; the
/// MMIO read costs are charged when the request is processed, in stamp
/// order.
void drain(Sources& sources, EventQueue& queue) {
  for (unsigned s = 0; s < queue.assembly.size(); ++s) {
    while (auto entry = sources.pop_word(s)) {
      Assembly& a = queue.assembly[s];
      if (a.n == 0) a.first_stamp = entry->stamp;
      a.words[a.n++] = entry->value;
      a.last_stamp = entry->stamp;
      // The first word names the opcode, which fixes the request length
      // (4 words for the blocking opcodes, 5 for the token-carrying async
      // ones; unknown opcodes decode as 4 so the protocol check can reject
      // them without desynchronising the word stream).
      if (a.n == words_for(unpack_opcode(a.words[0]))) {
        ReadyRequest ready;
        ready.req = decode(a.words);
        ready.spe = s;
        ready.stamp = a.last_stamp;
        ready.first_stamp = a.first_stamp;
        queue.ready.push_back(ready);
        a.n = 0;
      }
    }
  }
}

/// Publishes the lower bound on stamps of future *inter-node relays* this
/// Co-Pilot may originate: the minimum over local SPE bounds, queued
/// requests, and partial assemblies.  Peer Co-Pilots fold this into their
/// remote bound (conservative null message).
void publish(Sources& sources, const EventQueue& queue) {
  SimTime bound = kForever;
  for (unsigned s = 0; s < queue.assembly.size(); ++s) {
    if (queue.assembly[s].n > 0) {
      bound = std::min(bound, queue.assembly[s].last_stamp);
    }
    bound = std::min(bound, sources.spe_bound(s));
  }
  for (const ReadyRequest& r : queue.ready) {
    bound = std::min(bound, r.stamp);
  }
  sources.publish_bound(bound);
}

/// The earliest available event, if any.
std::optional<Candidate> pick(Sources& sources, const EventQueue& queue,
                              const std::multimap<int, Pending>& reads) {
  std::optional<Candidate> best;
  auto consider = [&best](Candidate c) {
    if (!best || c.before(*best)) best = c;
  };
  for (std::size_t i = 0; i < queue.ready.size(); ++i) {
    consider({queue.ready[i].stamp, Candidate::kRequest, i, -1,
              queue.ready[i].spe});
  }
  int last_channel = -1;
  for (const auto& [channel, p] : reads) {
    if (channel == last_channel) continue;  // only the FIFO head pairs
    last_channel = channel;
    if (p.expected_source == mpisim::kAnySource) continue;  // type 4
    if (auto env = sources.probe(p.expected_source, p.tag)) {
      consider({env->arrival, Candidate::kMpiData, 0, channel, p.spe});
    }
  }
  if (auto env = sources.probe(mpisim::kAnySource, pilot::kTagShutdown)) {
    // Shutdown is deferred while a respawned occupant is still running.
    // PI_StopMain's rank barrier only proves the *originally launched* SPE
    // threads have retired; a supervised respawn registered after the
    // owner's join sweep may still be executing, and exiting now would
    // leave its requests unserved — a teardown hang.  The message stays
    // queued and is consumed once no respawned occupant is alive.
    if (!sources.shutdown_deferred()) {
      consider({env->arrival, Candidate::kShutdown, 0, -1, 0});
    }
  }
  for (unsigned s = 0; s < queue.assembly.size(); ++s) {
    if (auto stamp = sources.fault_stamp(s)) {
      consider({*stamp, Candidate::kSpeFault, 0, -1, s});
    }
  }
  return best;
}

/// The gate: does `c` come before the earliest event any source could
/// still produce?  A local SPE can produce a kRequest or a kSpeFault at its
/// bound, so against local SPEs the gate is strict.  A user rank or a peer
/// Co-Pilot can only produce a kMpiData or a kShutdown here, and both sort
/// after a kRequest with the same stamp; so a kRequest stamped exactly at
/// the remote bound may run.  Two Co-Pilots whose earliest requests share a
/// stamp therefore both run instead of waiting on each other.
bool may_run(Sources& sources, const Candidate& c, std::size_t spes) {
  SimTime local = kForever;
  for (unsigned s = 0; s < spes; ++s) {
    local = std::min(local, sources.spe_bound(s));
  }
  if (local != kForever && !c.before({local, Candidate::kRequest})) {
    return false;
  }
  const SimTime remote = sources.remote_bound();
  return remote == kForever || c.before({remote, Candidate::kMpiData});
}

}  // namespace

Step schedule(Sources& sources, EventQueue& queue,
              const std::multimap<int, Pending>& reads) {
  drain(sources, queue);
  publish(sources, queue);
  const auto candidate = pick(sources, queue, reads);
  if (!candidate) return {Step::kIdle, {}};
  if (!may_run(sources, *candidate, queue.assembly.size())) {
    return {Step::kBlocked, *candidate};
  }
  // Revalidate: a source may have emitted an earlier event and then parked
  // *between* the drain above and the quiescence check (parking is what
  // made the gate pass).  Its event is already in the mailbox, so one more
  // drain surfaces it; if the earliest candidate changed, start over.
  drain(sources, queue);
  const auto recheck = pick(sources, queue, reads);
  if (!recheck || recheck->before(*candidate) ||
      candidate->before(*recheck)) {
    return {Step::kStale, *candidate};
  }
  return {Step::kRun, *candidate};
}

}  // namespace cellpilot
