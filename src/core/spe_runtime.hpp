// spe_runtime.hpp — the CellPilot runtime resident on each SPE.
//
// This is the SPE half of the paper's design: a slim layer (the bulk of the
// messaging logic lives in the Co-Pilot, conserving local store) that
//   * stages the message described by a PI_Write/PI_Read format into a
//     local-store buffer,
//   * posts the request to the node's Co-Pilot through the outbound
//     mailbox: 4 words for a blocking call, 5 for an async one (the fifth
//     is a completion token), and
//   * reads the inbound mailbox for the answer: a bare status word for a
//     blocking call, a packed (status | token) word for an async one.
// A blocking call made while async operations are in flight travels the
// async opcodes (submit + wait), because every inbound word is then a
// packed completion.
// Its local-store footprint (protocol.hpp: kCellPilotSpuFootprintBytes,
// modelled on the paper's 10 336-byte cellpilot.o) is reserved when an SPE
// program starts, so user code sees the same 256 KB budget as on hardware.
#pragma once

#include <cstdint>
#include <span>

#include "cellsim/spe.hpp"
#include "core/completion.hpp"
#include "pilot/app.hpp"
#include "pilot/tables.hpp"

namespace cellpilot {

/// Arguments ferried to an SPE program through the libspe2 `argp`
/// mechanism.  Built by launch_spe; consumed by the PI_SPE_PROGRAM
/// trampoline.
struct SpeLaunchArgs {
  pilot::PilotApp* app = nullptr;
  int process_id = -1;  ///< the SPE process being embodied
  int arg = 0;          ///< user int argument from PI_RunSPE/PI_SpawnSPE
  void* ptr = nullptr;  ///< user pointer argument from PI_RunSPE/PI_SpawnSPE
};

/// A launch front-end's records for a clean retirement, run on the worker
/// thread just before the context returns to the pool.
using RetireHook = void (*)(cellsim::Spe& spe, int process_id);

/// The one way an SPE program starts — PI_RunSPE, PI_SpawnSPE, supervised
/// respawn and blade restore all call it with a context they acquired.
/// Binds pooled context `flat` of `node` to `process_id`, records `recipe`
/// as the process's launch recipe, and starts the paper's PPE pthread: it
/// loads the program no earlier than `start` and waits for it.  A clean
/// exit runs `on_retire` (if any) and frees the context; a hardware fault
/// leaves a notice for the Co-Pilot and keeps the context out of the pool;
/// anything else aborts the world.
void launch_spe(pilot::PilotApp& app, int node, unsigned flat, int process_id,
                const pilot::PilotApp::LaunchRecipe& recipe,
                simtime::SimTime start, RetireHook on_retire = nullptr);

namespace detail {

/// Signature of the user's SPE process body (the code between the
/// PI_SPE_PROGRAM braces).
using SpeBody = int (*)(int, void*);

/// Trampoline called by the generated `<name>_pi_entry`: unpacks
/// SpeLaunchArgs, reserves the CellPilot runtime's local-store segment,
/// binds the Pilot SPE dispatch record, runs `body`, and unwinds cleanly.
int run_spe_body(std::uint64_t argp, SpeBody body);

}  // namespace detail

/// The SPE side of a blocking PI_Write (`kind` kWrite: `data` is the
/// payload) or PI_Read (kRead: `data` receives exactly data.size() bytes):
/// stages `data` in local store, requests the Co-Pilot and awaits the
/// completion.  With metrics armed, a write pushes its latency-ledger
/// stamp once nothing can refuse it.  Throws PilotError on protocol errors.
void spe_channel_op(completion::Kind kind, const PI_CHANNEL& ch,
                    std::uint32_t sig, std::span<std::byte> data);

// --- async tier -----------------------------------------------------------
//
// The async opcodes carry a completion token, so an SPE may have several
// operations in flight while it computes; the Co-Pilot answers each with a
// packed (status | token) word.  Outstanding operations are capped at the
// inbound-mailbox depth (4, as on hardware): that guarantee is what lets
// the Co-Pilot deliver every completion without ever blocking on a full
// mailbox of an SPE that is busy computing.

/// Issues the async request of `op`, whose kind picks write or read: a
/// write stages `data` as its payload; a read stages data.size() bytes for
/// the Co-Pilot to fill, which the harvest copies out.  On return `op` is
/// in flight (token assigned, local-store staging parked until harvest).
/// A submission refused by the in-flight cap pushes no latency stamp.
void spe_submit_channel_op(PI_OP& op, const PI_CHANNEL& ch,
                           std::uint32_t sig,
                           std::span<const std::byte> data);

/// Stalls until `op` settles, then harvests: copies a read's staging into
/// `out` (out.size() == submitted bytes) and frees the local store.
/// Throws PilotError if the operation faulted (staging freed first).
void spe_wait_channel_op(PI_OP& op, const PI_CHANNEL& ch,
                         std::span<std::byte> out);

/// Non-blocking poll: drains arrived completion words; harvests like
/// spe_wait_channel_op when `op` has settled.  Returns false if `op` is
/// still in flight.
bool spe_test_channel_op(PI_OP& op, const PI_CHANNEL& ch,
                         std::span<std::byte> out);

/// Stalls until one of `ops` settles and returns its index — without
/// harvesting (call spe_wait_channel_op on the winner, which returns
/// immediately).  At least one op must be in flight or already settled.
int spe_wait_any_channel_op(PI_OP* const* ops, int n);

/// Drains every outstanding async operation of the calling SPE thread,
/// discarding results and fault statuses.  Called when an SPE program
/// returns with handles still in flight, so the next occupant of the
/// context starts with an empty mailbox and the Co-Pilot is never left
/// blocked on an abandoned completion.
void spe_drain_outstanding();

}  // namespace cellpilot
