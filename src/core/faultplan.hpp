// faultplan.hpp — the seeded, deterministic fault-injection plan.
//
// A FaultPlan is a list of rules describing *which* operation at *which*
// site should misbehave, all expressed in terms the simulation already
// makes deterministic: per-site operation ordinals and virtual time.  The
// plan installs itself into the cellsim/mpisim injection seams
// (`cellsim/inject.hpp`, `mpisim/inject.hpp`) and is probed directly by
// the SPE runtime (crash-before-request) and the Co-Pilot loop (service
// delay).  When disarmed the seams hold a null hook and every clean-path
// virtual stamp is bit-for-bit identical to a plan-free build.
//
// Configuration reaches the plan two ways:
//   * the `CELLPILOT_FAULTS` environment variable, read once at startup
//     ("on" arms the machinery with no rules; "off"/unset disarms; any
//     other value is parsed as a spec), and
//   * the `-pifault=<spec>` PI_Configure flag, which overrides it.
//
// Spec grammar (semicolon-separated items):
//
//   spec   := "on" | "off" | item (";" item)*
//   item   := "seed=" N
//           | kind "@" site [":op=" N] [",count=" N] [",delay=" dur]
//   kind   := spe_crash | mbox_stall | dma_fault | copilot_delay
//           | send_delay | send_drop
//           | msg_drop | msg_corrupt | msg_dup | msg_reorder
//           | copilot_crash | blade_kill
//   site   := "*" | an entity name ("node0.spe1", "copilot0", "3->5")
//   dur    := number with optional unit suffix us (default), ms, ns
//
// Example: "seed=7;mbox_stall@node0.spe0:op=2,delay=600us"
//
// Operation ordinals are 1-based and counted per (rule, site); every site
// name denotes a single-threaded actor (one SPE thread, one rank thread,
// one Co-Pilot thread), so the counts — and therefore the injections —
// are deterministic.  `op=0` (the default) derives a small ordinal from
// the seed, so "crash somewhere early" plans vary reproducibly with the
// seed alone.
//
// The msg_* kinds are the recoverable message-level faults: arming any of
// them switches MiniMPI onto the reliable sublayer (mpisim/reliable.hpp),
// which absorbs them with CRC checks, retransmits and a receive window.
// Their send probes are made once per delivery attempt, so a retransmitted
// frame consumes additional ordinals at its link site — deterministic, but
// shifted relative to a plan without retransmissions.  copilot_crash kills
// the Co-Pilot process at a request boundary; the cluster runner's standby
// failover (core/copilot.cpp) takes over from the journal.  blade_kill
// takes out a whole blade (every SPE context plus its Co-Pilot) at a
// request boundary; recovery restores the lost contexts from the last
// committed coordinated checkpoint (core/checkpoint) or, with none,
// degrades to the poison + PILF ladder.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cellsim/errors.hpp"
#include "cellsim/inject.hpp"
#include "mpisim/inject.hpp"
#include "simtime/sim_time.hpp"

namespace cellpilot::faults {

/// What a rule injects.
enum class Kind {
  kSpeCrash,      ///< SPE program dies before issuing its next request
  kSpeCrashMid,   ///< SPE dies mid-message: between mailbox request words,
                  ///< leaving the Co-Pilot a partial assembly
  kMboxStall,     ///< extra virtual delay on an SPU mailbox operation
  kDmaFault,      ///< MFC transfer raises DmaFault
  kCopilotDelay,  ///< extra service time charged to the Co-Pilot
  kSendDelay,     ///< extra transit time on a MiniMPI send
  kSendDrop,      ///< a MiniMPI send is silently lost
  kMsgDrop,       ///< a delivery attempt is lost; reliable layer retransmits
  kMsgCorrupt,    ///< a delivery attempt is damaged; CRC catches it
  kMsgDup,        ///< the frame arrives twice; receive window dedupes
  kMsgReorder,    ///< the frame arrives after its successor on the link
  kCopilotCrash,  ///< the Co-Pilot dies; a standby takes over its journal
  kBladeKill,     ///< a whole blade dies: every SPE context plus its
                  ///< Co-Pilot; recovery restores from the last committed
                  ///< checkpoint (core/checkpoint) or degrades to poison
};

/// Returns the spec keyword for a kind ("spe_crash", ...).
const char* to_string(Kind k);

/// One injection rule.
struct Rule {
  Kind kind = Kind::kMboxStall;
  std::string site = "*";      ///< "*" or an exact entity name
  std::uint64_t op = 0;        ///< 1-based ordinal; 0 = derive from seed
  std::uint64_t count = 1;     ///< consecutive operations affected
  simtime::SimTime delay = 0;  ///< for the delay/stall kinds
};

/// The fault an injected SPE crash raises (FaultCode::kInjected).
class InjectedCrash : public cellsim::HardwareFault {
 public:
  using HardwareFault::HardwareFault;
  cellsim::FaultCode fault_code() const override {
    return cellsim::FaultCode::kInjected;
  }
};

/// The process-wide fault plan.
class FaultPlan {
 public:
  /// The singleton; first call reads CELLPILOT_FAULTS and installs hooks.
  static FaultPlan& global();

  /// Replaces the active plan with `spec` (see grammar above).  Throws
  /// std::invalid_argument on a malformed spec.  Clears all counters.
  void configure(const std::string& spec);

  /// Restores the CELLPILOT_FAULTS baseline (tests call this in teardown
  /// so plans never leak between cases).
  void reset();

  /// Whether any injection machinery is live.
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// The plan's seed (default 0x5eed).
  std::uint64_t seed() const;

  /// The active rules.
  std::vector<Rule> rules() const;

  /// Whether any active rule is of `kind`.
  bool has_rule(Kind kind) const;

  /// The seed-derived ordinal an `op=0` rule resolves to at `site`
  /// (deterministic in (seed, rule index, site); range [1, 16]).
  std::uint64_t derived_op(std::size_t rule_index,
                           const std::string& site) const;

  // --- probes (called from the seams and from core code) ---

  /// cellsim seam: mailbox stalls/faults and DMA faults.
  cellsim::inject::Action on_cell_site(cellsim::inject::Site site,
                                       const char* owner,
                                       simtime::SimTime now);

  /// mpisim seam: delayed or dropped sends (site "<from>-><to>").
  mpisim::inject::Action on_send(int from, int to, int tag,
                                 simtime::SimTime now);

  /// SPE runtime probe: should the program at `owner` die before issuing
  /// its next Co-Pilot request?
  bool should_crash_spe(const char* owner);

  /// SPE runtime probe: should the program at `owner` die *mid-message* —
  /// after pushing some but not all of a request's mailbox words?  Keyed
  /// by its own rule kind (spe_crash_mid) so arming it never perturbs the
  /// ordinals of existing spe_crash rules.
  bool should_crash_spe_mid(const char* owner);

  /// Co-Pilot probe: extra service delay for this request, if any.
  simtime::SimTime copilot_delay(const char* owner);

  /// Co-Pilot probe: should the Co-Pilot named `owner` (canonical
  /// "nodeN.copilot") die before serving its next request?  A rule site
  /// matches "*", the canonical name, or the "copilotN" alias for node
  /// index `node`; ordinals are always keyed by the canonical name so both
  /// spellings count the same sequence.
  bool should_crash_copilot(const char* owner, int node);

  /// Co-Pilot probe: should the whole blade hosting the Co-Pilot at
  /// `owner` (canonical node name, e.g. "node1") die before the next
  /// request is served?  A rule site matches "*", the canonical node name,
  /// or the "bladeN" alias for node index `node`; ordinals are keyed by
  /// the canonical name.
  bool should_kill_blade(const char* owner, int node);

 private:
  FaultPlan();
  void apply(const std::string& spec);
  bool hit(std::size_t rule_index, const Rule& rule, const std::string& site);

  mutable std::mutex mu_;
  std::string env_spec_;  ///< CELLPILOT_FAULTS baseline, re-applied by reset
  std::vector<Rule> rules_;
  std::uint64_t seed_ = 0x5eed;
  std::atomic<bool> armed_{false};
  /// Operation counters, parallel to rules_: per-site ordinal counts.
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> counters_;
};

}  // namespace cellpilot::faults
