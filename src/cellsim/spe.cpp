#include "cellsim/spe.hpp"

namespace cellsim {

Spe::Spe(unsigned physical_id, std::string name,
         const simtime::CostModel& cost)
    : physical_id_(physical_id),
      cost_(&cost),
      name_(std::move(name)),
      mfc_(ls_, clock_, cost, name_),
      inbound_(kInboundMailboxDepth),
      outbound_(kOutboundMailboxDepth),
      outbound_intr_(kOutboundInterruptMailboxDepth) {}

SignalRegister& Spe::signal(unsigned index) {
  if (index > 1) {
    throw HardwareFault("SPE has signal registers 0 and 1 only");
  }
  return signals_[index];
}

void Spe::raise_fault(FaultCode code, simtime::SimTime stamp,
                      std::string detail) {
  if (fault_raised_.load(std::memory_order_acquire)) {
    return;  // first death wins; an SPE dies once
  }
  notice_.code = code;
  notice_.stamp = stamp;
  notice_.detail = std::move(detail);
  fault_raised_.store(true, std::memory_order_release);
  if (doorbell_ != nullptr) doorbell_->ring();
}

const Spe::FaultNotice* Spe::fault_notice() const {
  return fault_raised_.load(std::memory_order_acquire) ? &notice_ : nullptr;
}

void Spe::shutdown() {
  inbound_.close();
  outbound_.close();
  outbound_intr_.close();
}

}  // namespace cellsim
