#pragma once
/// \file
/// Ring-buffered event capture for the virtual-time trace layer.
///
/// This is the *engine* under `core/trace`: a process-wide set of per-thread
/// ring buffers that record fixed-size events stamped with virtual time.
/// It lives in simtime (the lowest layer) so that cellsim, mpisim and core
/// can all record into it without layering inversions; the CellPilot
/// vocabulary (channel ids, Table I route types, flush-to-file policy) is
/// layered on top in `core/trace`.
///
/// Design constraints, in order:
///  1. Zero cost when disarmed: every seam guards its record with
///     `if (tracebuf::armed())` — one relaxed atomic load and a branch.
///  2. Never perturb virtual time: recording reads clocks that the seam
///     already holds; it neither advances nor joins any clock, so armed
///     and disarmed runs are bit-for-bit identical in virtual time.
///  3. Deterministic drain: events are sorted into a canonical order that
///     depends only on their recorded fields, never on host scheduling.
///
/// Threading model: each recording thread owns one ring (acquired from a
/// pool on first record, returned at thread exit so short-lived SPE/rank
/// threads across many jobs reuse a bounded set of rings).  `drain()` and
/// `clear()` must only be called at quiescence — i.e. when no simulation
/// thread can be recording — which CellPilot guarantees by flushing in
/// cellpilot::run's epilogue after every rank, Co-Pilot, service and SPE
/// thread has been joined.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "simtime/sim_time.hpp"

namespace simtime::tracebuf {

/// What happened.  The names are CellPilot-flavoured because the consumers
/// are; the engine itself treats them as opaque tags.
enum class Kind : std::uint8_t {
  kMboxPush = 0,      ///< mailbox word written (SPU intrinsic / Co-Pilot)
  kMboxPop,           ///< mailbox word read
  kDmaGet,            ///< MFC transfer, main memory -> local store
  kDmaPut,            ///< MFC transfer, local store -> main memory
  kMpiSend,           ///< MiniMPI message deposited (aux = tag)
  kMpiRecv,           ///< MiniMPI message matched   (aux = tag)
  kMpiDrop,           ///< MiniMPI message dropped by fault injection
  kPilotWrite,        ///< PI_Write (rank side), one per channel leg
  kPilotRead,         ///< PI_Read  (rank side)
  kSpeWrite,          ///< PI_Write issued from an SPE
  kSpeRead,           ///< PI_Read  issued from an SPE
  kCopilotRequest,    ///< Co-Pilot accepted an SPE request (aux = opcode)
  kCopilotRelay,      ///< Co-Pilot forwarded SPE data over MPI
  kCopilotPair,       ///< Co-Pilot paired a local SPE<->SPE copy (memcpy leg)
  kCopilotDeliver,    ///< Co-Pilot delivered MPI data into a parked SPE read
  kCopilotPark,       ///< Co-Pilot parked a request waiting for its peer
  kCopilotRetry,      ///< deadline supervision extended a deadline (aux = #)
  kCopilotTimeout,    ///< deadline supervision gave up (PI_SPE_TIMEOUT)
  kCopilotFault,      ///< Co-Pilot processed an SPE death notice
  kNetAck,            ///< reliable layer released a frame to the receiver
  kNetRetransmit,     ///< reliable layer resent a frame (aux = tag)
  kNetDuplicate,      ///< receive window discarded a duplicate frame
  kNetCorrupt,        ///< CRC check caught a damaged frame
  kNetReorder,        ///< a frame was held back to arrive out of order
  kCopilotFailover,   ///< standby Co-Pilot took over after a crash
  kOpSubmit,          ///< async operation submitted (PI_WriteAsync/ReadAsync)
  kOpComplete,        ///< async operation harvested (PI_Wait/Test/WaitAny)
  kSpeSpawn,          ///< PI_SpawnSPE bound a program to an SPE slot
  kSpeRetire,         ///< a spawned SPE program finished; context returned
  kSpeRespawn,        ///< supervision respawned a faulted SPE (aux = attempt)
  kEpochFlush,        ///< stale-epoch traffic tombstoned after a respawn
  kCkptBegin,         ///< a Co-Pilot opened a coordinated cut (aux = cut id)
  kCkptCut,           ///< a Co-Pilot contributed its shard (aux = cut id)
  kCkptCommit,        ///< all shards in; checkpoint file written (aux = cut)
  kBladeRestore,      ///< blade contexts relaunched from a checkpoint
  kUser,              ///< PI_Log user event (aux = source line)
};

/// Stable lower-case token for a kind (used in trace JSON and tests).
const char* kind_name(Kind kind);

/// Number of distinct kinds (for iteration in tests/tools).
inline constexpr int kKindCount = static_cast<int>(Kind::kUser) + 1;

/// Inline capacity for the entity name.  Longest simulator names are
/// "nodeNN.cell0.speNN" / "nodeNN.copilot" — 31 chars is generous; longer
/// names are truncated, never overrun.
inline constexpr std::size_t kEntityBytes = 32;

/// One recorded event.  POD, fixed size; the entity name is copied inline
/// so a drained trace never dangles into a destroyed simulation.
struct Event {
  SimTime begin{0};              ///< virtual start of the operation
  SimTime end{0};                ///< virtual end (== begin for instants)
  std::uint64_t bytes = 0;       ///< payload bytes moved, 0 if n/a
  std::int64_t aux = -1;         ///< kind-specific extra (tag/opcode/retry#)
  std::int32_t channel = -1;     ///< CellPilot channel id, -1 if unknown
  std::int8_t route_type = 0;    ///< Table I type 1..5, 0 if unknown
  Kind kind = Kind::kUser;
  char entity[kEntityBytes] = {};  ///< NUL-terminated recorder name
  /// Names the tail bytes, so an Event has no padding and two events with
  /// equal fields compare equal bytewise (tests memcmp captured traces).
  std::uint8_t tail[2] = {};
};
static_assert(std::has_unique_object_representations_v<Event>,
              "an Event must hold no padding bytes");

namespace detail {
extern std::atomic<bool> g_armed;
void record_slow(const Event& e);
}  // namespace detail

/// True while at least one consumer (trace session or test capture) wants
/// events.  Seams must check this before building an Event.
inline bool armed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Record one event into the calling thread's ring.  No-op when disarmed.
inline void record(const Event& e) {
  if (armed()) detail::record_slow(e);
}

/// Convenience: fill an Event and record it.  `entity` is copied (and
/// truncated to kEntityBytes-1); it does not need to outlive the call.
void record(Kind kind, const std::string& entity, SimTime begin, SimTime end,
            std::uint64_t bytes = 0, std::int32_t channel = -1,
            std::int8_t route_type = 0, std::int64_t aux = -1);

/// Arm / disarm are reference counted so a trace session and a scoped test
/// capture can overlap without fighting over the flag.
void arm();
void disarm();

/// Drop all buffered events (rings stay allocated).  Quiescence required.
void clear();

/// Move all buffered events out in canonical order and clear the rings.
/// Canonical order sorts by (begin, end, entity, kind, channel, aux, bytes)
/// — every component is a recorded field, so the order is independent of
/// host thread scheduling.  Quiescence required.
std::vector<Event> drain();

/// Events discarded because a ring hit its growth limit since the last
/// clear()/drain().  Deterministic for a deterministic program.
std::uint64_t dropped();

/// Black-box mode for the flight recorder: keep the most recent
/// `per_thread_tail` events of every ring in a side buffer that survives
/// clear()/drain() and — unlike the rings — may be snapshotted *while the
/// simulation is still running* (each tail has its own lock).  0 disables
/// and frees the tails.  Only armed recording feeds the tails, so the
/// zero-cost disarmed guarantee is untouched.
void set_blackbox(std::size_t per_thread_tail);

/// Copy the black-box tails of every ring, canonically sorted like
/// drain().  Safe to call from any thread at any time; returns the most
/// recent <= per_thread_tail events each recording thread produced.
std::vector<Event> blackbox_snapshot();

}  // namespace simtime::tracebuf
