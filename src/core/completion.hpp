// completion.hpp — the async completion engine under PI_Write / PI_Read.
//
// Every async transfer (PI_WriteAsync / PI_ReadAsync returning PI_HANDLE,
// then PI_Wait / PI_Test / PI_WaitAny), rank- or SPE-side, is an
// *operation* moving through a small state machine:
//
//   pending -> staged -> in-flight -> complete | faulted -> released
//
// The blocking tier (PI_Write / PI_Read) shares the async tier's send and
// receive paths but creates no operation: a rank sends or receives in
// place, and an SPE posts a 4-word request and waits for a bare status
// word.  Only a blocking SPE call made while async operations are in
// flight is a submit plus a wait on a private operation, because every
// inbound-mailbox word is then a packed completion.  The operation object
// carries everything the deferred half needs: the reader's scatter plan,
// the local-store staging an SPE write parked with its Co-Pilot, the
// completion token matching a mailbox word back to its operation, and the
// fault status a failed peer left behind.
//
// Threading model: operations are owned by the *submitting* thread's
// engine (one engine per rank/SPE thread, thread-local).  Handles must be
// waited on the thread that submitted them — the same rule MPI requests
// live by — which keeps the engine lock-free.  The only cross-thread
// reader is the flight recorder's watchdog, which sees operations through
// the OpRegistry below: immutable fields are copied at registration and
// the mutable state/status fields are atomics, so a mid-run snapshot is
// race-free without a lock on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pilot/wire.hpp"
#include "simtime/sim_time.hpp"

namespace cellpilot::completion {

/// Which way the operation moves data.
enum class Kind : std::uint8_t {
  kWrite = 0,
  kRead = 1,
};

/// The operation state machine.  kReleased marks a recycled slot so a
/// double PI_Wait is caught as a usage error instead of corrupting state.
enum class State : std::uint8_t {
  kPending = 0,   ///< created, nothing staged yet
  kStaged,        ///< payload marshalled / staging allocated
  kInFlight,      ///< handed to the transport (MPI deposit or Co-Pilot)
  kComplete,      ///< transfer done; result awaiting harvest
  kFaulted,       ///< peer failure recorded; harvest will throw
  kReleased,      ///< harvested and back on the free list
};

/// Stable lower-case tokens (flight-recorder JSON and tests).
const char* state_name(State state);
const char* kind_name(Kind kind);

class Engine;

}  // namespace cellpilot::completion

/// One operation.  This is the type behind the public PI_HANDLE.
struct PI_OP {
  // Immutable per submission (set before the operation becomes visible
  // to the registry, constant until released).
  cellpilot::completion::Kind kind = cellpilot::completion::Kind::kWrite;
  int channel = -1;
  std::int8_t route_type = 0;
  bool spe_side = false;
  bool blocking = false;          ///< submitted by the blocking veneer
  std::uint64_t bytes = 0;        ///< payload bytes
  const char* file = "";          ///< PI_WriteAsync/... call site
  int line = 0;
  std::uint32_t signature = 0;    ///< resolved wire signature
  std::uint32_t token = 0;        ///< SPE completion token (async opcodes)
  simtime::SimTime submit_begin = 0;

  // Deferred-read state: the scatter plan captured at submit (holds the
  // caller's destination pointers — they must stay alive until harvest)
  // and a host staging buffer private to this operation so overlapping
  // reads on one channel cannot collide.
  pilot::ReadPlan plan;
  std::vector<std::byte> data;
  bool swap = false;              ///< writer is big-endian: swap at harvest

  // SPE-side staging: a local-store buffer held until harvest so the
  // Co-Pilot can read/fill it while the SPE program keeps computing.
  std::uint32_t ls_addr = 0;
  std::uint32_t ls_bytes = 0;

  // Mutable while in flight (atomic: the flight recorder may snapshot
  // from the watchdog thread mid-run).
  std::atomic<std::uint8_t> state{0};   ///< completion::State
  std::atomic<std::uint32_t> status{0}; ///< CompletionStatus once settled
  std::string fault_detail;             ///< rank-side failure diagnostic

  // Bookkeeping.
  std::uint64_t registry_id = 0;
  cellpilot::completion::Engine* owner = nullptr;
};

namespace cellpilot::completion {

inline State op_state(const PI_OP& op) {
  return static_cast<State>(op.state.load(std::memory_order_relaxed));
}
inline void set_state(PI_OP& op, State s) {
  op.state.store(static_cast<std::uint8_t>(s), std::memory_order_relaxed);
}
inline bool is_settled(const PI_OP& op) {
  const State s = op_state(op);
  return s == State::kComplete || s == State::kFaulted;
}

/// Per-thread operation arena.  Owns every PI_OP the thread ever
/// submitted; released operations are recycled through a free list so a
/// long-running farm does not grow the arena per message.
class Engine {
 public:
  /// The calling thread's engine (created on first use).
  static Engine& local();

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// A fresh (or recycled) operation in kPending state.
  PI_OP* create(Kind kind);

  /// Returns the operation to the free list (state -> kReleased) and
  /// removes it from the registry.
  void release(PI_OP* op);

  /// Whether this engine owns `op` — PI_Wait on a handle from another
  /// thread is a usage error, detected through this.
  bool owns(const PI_OP* op) const { return op != nullptr && op->owner == this; }

  /// Operations currently live in this arena (created and not yet
  /// released) — the per-engine pending-op gauge the telemetry layer
  /// samples at submit/harvest seams.  Per-thread, so deterministic.
  int live() const {
    return static_cast<int>(ops_.size() - free_.size());
  }

  /// SPE-side in-flight tracking: operations awaiting a completion word.
  void track(PI_OP* op);
  void untrack(PI_OP* op);
  PI_OP* find_token(std::uint32_t token) const;
  int inflight() const { return static_cast<int>(inflight_.size()); }

  /// Copy of the in-flight list (the SPE epilogue drain mutates the real
  /// one while iterating).
  std::vector<PI_OP*> snapshot_inflight() const { return inflight_; }

  /// Next SPE completion token (24-bit wrap, never 0 twice in flight for
  /// realistic depths — outstanding operations are capped well below 2^24).
  std::uint32_t next_token();

 private:
  Engine() = default;

  std::vector<std::unique_ptr<PI_OP>> ops_;
  std::vector<PI_OP*> free_;
  std::vector<PI_OP*> inflight_;
  std::uint32_t token_seq_ = 0;
};

/// One row of the flight recorder's pending-operation table.
struct PendingOp {
  std::uint64_t id = 0;
  Kind kind = Kind::kWrite;
  State state = State::kPending;
  std::uint32_t status = 0;
  int channel = -1;
  std::int8_t route_type = 0;
  bool spe_side = false;
  bool blocking = false;
  std::uint64_t bytes = 0;
  std::string entity;
  std::string file;
  int line = 0;
  simtime::SimTime submit_begin = 0;
};

/// Process-wide table of live operations, for the flight recorder's
/// postmortems.  Armed together with the recorder; when disarmed (the
/// default) registration is a single relaxed load, so the data plane pays
/// nothing for observability it did not ask for.
class OpRegistry {
 public:
  static OpRegistry& global();

  void set_armed(bool armed);
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Registers `op` under `entity` (submitting rank/SPE name).  No-op
  /// when disarmed.  Safe to call from any simulation thread.
  void add(PI_OP* op, const std::string& entity);

  /// Unregisters `op` (harvest, release, or engine teardown).
  void remove(PI_OP* op);

  /// Snapshot of every live operation, ordered by registration id —
  /// deterministic for a deterministic program.  Safe mid-run.
  std::vector<PendingOp> pending() const;

 private:
  OpRegistry() = default;

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  struct Entry {
    const PI_OP* op;
    std::string entity;
  };
  std::map<std::uint64_t, Entry> live_;
};

}  // namespace cellpilot::completion
