// copilot.hpp — the Co-Pilot process.
//
// The paper's first key innovation: every Cell node runs one extra MPI rank,
// the Co-Pilot, occupying the PPE's otherwise-idle second hardware thread.
// It services all SPE-connected channel types so that (a) SPE processes can
// participate in MPI as first-class citizens without MPI living in their
// 256 KB local stores, and (b) the PPE's own Pilot process is never
// interrupted by SPE traffic.  It exists as a separate *process* (rank), not
// a thread, so the design works under MPI_THREAD_SINGLE (paper §IV.B).
//
// The service loop drains its node's SPE outbound mailboxes for requests
// (protocol.hpp) and checks its MPI queue for data addressed to local SPE
// readers, pairing writers with readers.  With no event to run it parks on
// the node's doorbell (Cluster::copilot_doorbell) until a ring source
// produces one:
//   type 2/3, SPE writer:  frame from local store -> MPI send to reader rank
//   type 2/3, SPE reader:  MPI recv -> straight into local store
//   type 4:                pair two local requests -> memcpy LS -> LS
//   type 5:                writer Co-Pilot MPI-sends to reader Co-Pilot
// Completions go back through each SPE's inbound mailbox.
#pragma once

#include <cstdint>

#include "mpisim/mpi.hpp"
#include "pilot/app.hpp"
#include "simtime/sim_time.hpp"

namespace cellpilot {

/// Entry point of the Co-Pilot rank serving Cell node `node`.
/// Runs until the shutdown control message from PI_StopMain; returns 0.
int copilot_main(mpisim::Mpi& mpi, pilot::PilotApp& app, int node);

/// Counters describing the Co-Pilot supervision machinery's activity,
/// process-wide across all Co-Pilot ranks.  Tests use them to pin down
/// that retry/backoff recovered a transient stall (rather than the run
/// accidentally never stalling) and that clean runs never trip
/// supervision at all.
namespace supervision {

/// Requests declared late but recovered within the retry/backoff ladder.
std::uint64_t recovered_count();

/// Requests that exhausted their retries and completed with kSpeTimeout.
std::uint64_t timeout_count();

/// SPE deaths (hardware faults) converted into peer error completions.
std::uint64_t fault_count();

/// Injected Co-Pilot crashes recovered by a standby takeover (the
/// copilot_crash fault kind).
std::uint64_t failover_count();

/// Supervised respawns: SPE deaths absorbed by relaunching the process's
/// program into a fresh context under the -pirespawn budget.
std::uint64_t respawn_count();

/// Operations a respawned incarnation replayed from the journal (writes
/// deduped, reads re-served) instead of re-executing on the wire.
std::uint64_t recovered_op_count();

/// SPE contexts relaunched from the last committed coordinated checkpoint
/// after a blade_kill fault (core/checkpoint).  A kill with no checkpoint
/// degrades to the poison + PILF ladder and counts under fault_count()
/// instead.
std::uint64_t restore_count();

/// Virtual-time span of recovery activity: the earliest crash stamp and
/// the latest recovery-complete stamp over all failovers and respawns
/// since the last reset.  Both 0 when supervision never acted.  Virtual
/// stamps, not wall clock — a load generator can split its latency
/// samples around this window deterministically (bench/loadgen's
/// "degraded-window p99"), which no amount of counter polling can do:
/// the poller's wall-clock position bears no relation to where the
/// recovery landed on the virtual timeline.
simtime::SimTime recovery_begin();
simtime::SimTime recovery_end();

/// Widens the recovery window to include [begin, end] (supervision
/// internals; exposed for the failover/respawn sites).
void note_recovery_span(simtime::SimTime begin, simtime::SimTime end);

/// Zeroes all counters and the recovery window (test isolation).
void reset_counters();

}  // namespace supervision

}  // namespace cellpilot
