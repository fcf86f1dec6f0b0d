#include "simtime/hostwait.hpp"

namespace simtime {

void Doorbell::park(std::uint32_t seen) {
  // seq_cst on both sides: either the ringer's sleepers_ load sees this
  // increment and notifies, or wait()'s load sees its generation bump.
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  generation_.wait(seen, std::memory_order_seq_cst);
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

void Doorbell::ring_announced() {
  generation_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  wakes_.fetch_add(1, std::memory_order_relaxed);
  generation_.notify_one();
}

}  // namespace simtime
