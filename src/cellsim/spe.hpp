// spe.hpp — one Synergistic Processor Element.
//
// An Spe bundles the per-SPE hardware: the 256 KB local store with its
// allocator, the MFC (DMA engine), the three mailbox channels, the two
// signal-notification registers, and the SPE's virtual clock.  The PPE sees
// the local store memory-mapped into the effective-address space; the
// simulation exposes that mapping as `ls_effective_base()`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cellsim/errors.hpp"
#include "cellsim/local_store.hpp"
#include "cellsim/mailbox.hpp"
#include "cellsim/mfc.hpp"
#include "cellsim/signal.hpp"
#include "simtime/cost_model.hpp"
#include "simtime/virtual_clock.hpp"

namespace cellsim {

/// Hardware mailbox depths.
inline constexpr std::size_t kInboundMailboxDepth = 4;
inline constexpr std::size_t kOutboundMailboxDepth = 1;
inline constexpr std::size_t kOutboundInterruptMailboxDepth = 1;

/// One SPE and its private hardware.
class Spe {
 public:
  /// `name` is used in traces/diagnostics, e.g. "node0.spe3".
  Spe(unsigned physical_id, std::string name, const simtime::CostModel& cost);

  Spe(const Spe&) = delete;
  Spe& operator=(const Spe&) = delete;

  /// Physical SPE index within its Cell chip (0..7) or blade (0..15).
  unsigned physical_id() const { return physical_id_; }

  /// The cost model this SPE's primitives are charged against.
  const simtime::CostModel& cost() const { return *cost_; }

  /// Diagnostic name.
  const std::string& name() const { return name_; }

  /// The 256 KB local store.
  LocalStore& local_store() { return ls_; }
  const LocalStore& local_store() const { return ls_; }

  /// The linker/runtime allocator over the local store.
  LsAllocator& allocator() { return alloc_; }

  /// The DMA engine.
  Mfc& mfc() { return mfc_; }

  /// PPE -> SPE mailbox (depth 4).
  Mailbox& inbound_mailbox() { return inbound_; }

  /// SPE -> PPE mailbox (depth 1).
  Mailbox& outbound_mailbox() { return outbound_; }

  /// SPE -> PPE interrupting mailbox (depth 1).
  Mailbox& outbound_interrupt_mailbox() { return outbound_intr_; }

  /// Signal-notification registers 1 and 2 (index 0 or 1).
  SignalRegister& signal(unsigned index);

  /// This SPE's virtual clock.
  simtime::VirtualClock& clock() { return clock_; }
  const simtime::VirtualClock& clock() const { return clock_; }

  /// Effective address at which the local store is memory-mapped (the
  /// simulated analogue of the problem-state LS window).
  EffectiveAddress ls_effective_base() const { return ea_of(ls_.base()); }

  /// Translates a local-store address to its effective address, bounds-
  /// checked for `len` bytes.  This is the translation the Co-Pilot performs.
  EffectiveAddress ls_to_ea(LsAddr addr, std::size_t len) const {
    return ea_of(ls_.at(addr, len));
  }

  /// Whether an SPE program is currently loaded/running (libspe2 shim state).
  std::atomic<bool>& busy() { return busy_; }

  /// Posthumous record of a fault that killed the SPE program.
  struct FaultNotice {
    FaultCode code = FaultCode::kGeneric;
    simtime::SimTime stamp = 0;  ///< SPE clock at the moment of death
    std::string detail;          ///< the fault's what() text
  };

  /// Records that the program running on this SPE died of `code` at virtual
  /// time `stamp` (called once, from the dying SPE thread).  The Co-Pilot
  /// reads fault_notice() and converts the death into Pilot-level errors.
  void raise_fault(FaultCode code, simtime::SimTime stamp, std::string detail);

  /// The death notice, or nullptr while the SPE is healthy.  The returned
  /// record is immutable once visible (release/acquire on the flag).
  const FaultNotice* fault_notice() const;

  /// Closes the mailboxes, releasing any blocked parties (node teardown).
  void shutdown();

  /// The doorbell of the PPE-side service that serves this SPE: rung by
  /// raise_fault and, through the mailboxes, by every outbound push or
  /// close and by the SPU starting to wait on its inbound mailbox.  Set
  /// before the SPE runs; null rings nothing.
  void set_doorbell(simtime::Doorbell* bell) {
    doorbell_ = bell;
    inbound_.set_doorbell(bell);
    outbound_.set_doorbell(bell);
  }

 private:
  unsigned physical_id_;
  const simtime::CostModel* cost_;
  std::string name_;
  LocalStore ls_;
  LsAllocator alloc_;
  simtime::VirtualClock clock_;
  Mfc mfc_;
  Mailbox inbound_;
  Mailbox outbound_;
  Mailbox outbound_intr_;
  SignalRegister signals_[2];
  std::atomic<bool> busy_{false};
  FaultNotice notice_;
  std::atomic<bool> fault_raised_{false};
  simtime::Doorbell* doorbell_ = nullptr;
};

}  // namespace cellsim
