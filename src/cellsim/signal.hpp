// signal.hpp — SPE signal-notification registers.
//
// Each SPE has two 32-bit signal-notification registers (SigNotify1/2).
// Writers (the PPE, other SPEs via the MFC sndsig command) deposit a value;
// in logical-OR mode concurrent writes accumulate, in overwrite mode the
// last write wins.  The SPU reads its register with a channel instruction
// that *stalls until the register is non-zero* and clears it on read.
// Hand-coded SPE-to-SPE baselines use these for completion handshakes.
#pragma once

#include <cstdint>
#include <mutex>

#include "simtime/hostwait.hpp"
#include "simtime/sim_time.hpp"

namespace cellsim {

/// One signal-notification register.
class SignalRegister {
 public:
  /// In OR mode, writes accumulate with bitwise OR; otherwise they overwrite.
  explicit SignalRegister(bool or_mode = true) : or_mode_(or_mode) {}

  SignalRegister(const SignalRegister&) = delete;
  SignalRegister& operator=(const SignalRegister&) = delete;

  /// Deposits `bits` with the sender's virtual timestamp.
  void send(std::uint32_t bits, simtime::SimTime stamp);

  /// SPU-side blocking read: stalls until non-zero, clears the register,
  /// and returns the accumulated value plus the latest depositor stamp.
  struct Received {
    std::uint32_t bits;
    simtime::SimTime stamp;
  };
  Received read_blocking();

  /// Non-destructive snapshot of the pending bits (0 if none).
  std::uint32_t peek() const;

 private:
  const bool or_mode_;
  mutable std::mutex mu_;
  simtime::Park nonzero_;
  std::uint32_t bits_ = 0;
  simtime::SimTime stamp_ = simtime::kSimTimeZero;
};

}  // namespace cellsim
