#pragma once
/// \file
/// The fault flight recorder: a black-box postmortem for failing runs.
///
/// When armed (`-piflightrec=FILE` / `CELLPILOT_FLIGHTREC`), the trace
/// engine keeps a bounded tail of the most recent events per recording
/// thread (simtime::tracebuf black-box mode) and the recorder dumps a
/// self-contained JSON artifact on every fault trigger:
///
///   * SPE death / HardwareFault propagation (Co-Pilot fail_process),
///   * a supervision deadline giving up (copilot_timeout),
///   * Co-Pilot crash failover (standby takeover), and
///   * external watchdogs (bench/chaos_sweep wires its liveness watchdog
///     and its parity-violation path here).
///
/// The artifact contains the trigger reason, the last-N events per
/// thread, every channel's counters, and the armed fault plan (seed plus
/// rules), so a failed chaos seed is diagnosable from the file alone.
/// Arming starts a fresh file; every trigger after the first appends its
/// scene, so a cascade (blade_kill, then the per-victim degrade faults)
/// keeps the whole crash sequence — including the first scene, the one
/// taken while the doomed operations were still pending.
///
/// Unlike the other sessions' flushes the dump does NOT require
/// quiescence: the black-box tails carry their own locks, so a fault
/// path (or a watchdog thread) may dump while the simulation is live.
/// Arming the recorder arms the trace engine (it needs events recorded),
/// which by the tracebuf contract never perturbs virtual time.

#include <string>

#include "core/obs.hpp"

namespace cellpilot::flightrec {

/// Events kept per recording thread while armed.
inline constexpr std::size_t kTailEvents = 256;

/// The `-piflightrec` / `CELLPILOT_FLIGHTREC` session.  Arming and reset
/// are the obs spine's; unlike the other layers it writes no per-job file
/// but a postmortem scene per dump().
class FlightRecorder final : public obs::Session {
 public:
  static FlightRecorder& global();

  /// Write the postmortem artifact.  No-op when disarmed.  Safe from any
  /// thread, including fault paths and watchdogs on a live simulation.
  void dump(const std::string& reason);

  /// Number of dumps written since configure (test hook).
  int dump_count() const;

 private:
  FlightRecorder();
  void arm_engine() override;
  void disarm_engine() override;
  void restart() override;

  int dumps_ = 0;
};

}  // namespace cellpilot::flightrec
