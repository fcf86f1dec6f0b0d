// spu.hpp — SPU-side "intrinsics".
//
// Code written for the SPE (PI_SPE_PROGRAM bodies and the hand-coded
// baselines) talks to its own hardware via these free functions, mirroring
// the SDK's spu_mfcio.h channel intrinsics: spu_read_in_mbox,
// spu_write_out_mbox, mfc_get/mfc_put, mfc_write_tag_mask,
// mfc_read_tag_status_all, ...
//
// The binding from the executing host thread to the simulated SPE is a
// thread_local set by the libspe2 shim while spe_context_run is active;
// calling an intrinsic on a thread that is not running an SPE program
// raises ContextFault (the analogue of executing SPU channel instructions
// on the PPE).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "cellsim/mfc.hpp"
#include "cellsim/spe.hpp"
#include "simtime/cost_model.hpp"

namespace cellsim::spu {

/// The thread's SPU execution environment while an SPE program runs.
struct SpuEnv {
  Spe* spe = nullptr;
  const simtime::CostModel* cost = nullptr;
  std::uint64_t speid = 0;
};

/// Binds/unbinds the calling thread to an SPE.  Used by the libspe2 shim;
/// tests may bind directly.  Passing an empty env unbinds.
void bind(const SpuEnv& env);
void unbind();

/// The calling thread's environment; throws ContextFault when unbound.
const SpuEnv& env();

/// True when the calling thread is running as an SPE.
bool bound();

/// The SPE this thread executes on; throws ContextFault when unbound.
Spe& self();

// --- Mailbox channel ops (stall semantics as on hardware) -------------------

/// Reads the next word of the inbound mailbox, stalling while empty.
std::uint32_t spu_read_in_mbox();

/// The longest post `spu_write_out_mbox` takes (a CellPilot request is 4
/// or 5 words); a longer span raises ContextFault and writes nothing.
inline constexpr std::size_t kMaxPostWords = 8;

/// Writes `words` to the outbound mailbox in order, stalling while full.
/// Each word is probed, charged `mbox_spu_write` and traced as if written
/// alone, so its stamp is the one a word-at-a-time write would give it;
/// the words then reach the reader in one hand-off, and the SPU clock
/// moves past them only after it.  A fault on word k delivers words
/// 0..k-1 first.
void spu_write_out_mbox(std::span<const std::uint32_t> words);

/// Writes one word to the outbound mailbox, stalling while full.
inline void spu_write_out_mbox(std::uint32_t value) {
  spu_write_out_mbox(std::span(&value, 1));
}

/// Writes a word to the interrupting outbound mailbox, stalling while full.
void spu_write_out_intr_mbox(std::uint32_t value);

/// Number of words waiting in the inbound mailbox.
unsigned spu_stat_in_mbox();

// --- Signal notification -----------------------------------------------------

/// Reads signal register 1 or 2 (index 0/1), stalling until non-zero.
std::uint32_t spu_read_signal(unsigned index);

// --- MFC (DMA) ops -----------------------------------------------------------

/// DMA get: main/effective memory -> local store.
void mfc_get(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
             unsigned tag);

/// DMA put: local store -> main/effective memory.
void mfc_put(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
             unsigned tag);

/// Arbitrary-size helpers (chunked into legal commands).
void mfc_get_any(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
                 unsigned tag);
void mfc_put_any(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
                 unsigned tag);

/// Sets the tag mask for subsequent status reads.
void mfc_write_tag_mask(std::uint32_t mask);

/// Stalls until all commands in masked tag groups complete.
std::uint32_t mfc_read_tag_status_all();

// --- Local store access ------------------------------------------------------

/// Host pointer to `addr` in this SPE's local store (bounds-checked).
void* ls_ptr(LsAddr addr, std::size_t len);

/// Allocates `len` bytes in this SPE's local store (quad-word aligned).
LsAddr ls_alloc(std::size_t len, std::size_t align = 16);

/// Frees a block from ls_alloc.
void ls_free(LsAddr addr);

}  // namespace cellsim::spu
