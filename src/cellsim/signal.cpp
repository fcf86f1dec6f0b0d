#include "cellsim/signal.hpp"

#include <algorithm>

namespace cellsim {

void SignalRegister::send(std::uint32_t bits, simtime::SimTime stamp) {
  std::lock_guard lock(mu_);
  bits_ = or_mode_ ? (bits_ | bits) : bits;
  stamp_ = std::max(stamp_, stamp);
  if (bits_ != 0) nonzero_.wake_all();
}

SignalRegister::Received SignalRegister::read_blocking() {
  std::unique_lock lock(mu_);
  nonzero_.wait(lock, [&] { return bits_ != 0; });
  Received r{bits_, stamp_};
  bits_ = 0;
  stamp_ = simtime::kSimTimeZero;
  return r;
}

std::uint32_t SignalRegister::peek() const {
  std::lock_guard lock(mu_);
  return bits_;
}

}  // namespace cellsim
