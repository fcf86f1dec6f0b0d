// spe_runtime.hpp — the CellPilot runtime resident on each SPE.
//
// This is the SPE half of the paper's design: a slim layer (the bulk of the
// messaging logic lives in the Co-Pilot, conserving local store) that
//   * stages the message described by a PI_Write/PI_Read format into a
//     local-store buffer,
//   * issues the 4-word mailbox request to the node's Co-Pilot, and
//   * stalls on the inbound mailbox for the completion word.
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

/// SPE-side blocking channel write: stage payload in local store, request
/// the Co-Pilot, await completion.  Throws PilotError on protocol errors.
void spe_channel_write(const PI_CHANNEL& ch, std::uint32_t sig,
                       std::span<const std::byte> payload);

/// SPE-side blocking channel read into `out` (exactly out.size() bytes).
void spe_channel_read(const PI_CHANNEL& ch, std::uint32_t sig,
                      std::span<std::byte> out);

// --- async tier -----------------------------------------------------------
//
// The async opcodes carry a completion token, so an SPE may have several
// operations in flight while it computes; the Co-Pilot answers each with a
// packed (status | token) word.  Outstanding operations are capped at the
// inbound-mailbox depth (4, as on hardware): that guarantee is what lets
// the Co-Pilot deliver every completion without ever blocking on a full
// mailbox of an SPE that is busy computing.

/// Stages `payload` and issues an async write request.  On return `op` is
/// in flight (token assigned, local-store staging parked until harvest).
void spe_submit_channel_write(PI_OP& op, const PI_CHANNEL& ch,
                              std::uint32_t sig,
                              std::span<const std::byte> payload);

/// Issues an async read request for `bytes` payload bytes.
void spe_submit_channel_read(PI_OP& op, const PI_CHANNEL& ch,
                             std::uint32_t sig, std::size_t bytes);

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
