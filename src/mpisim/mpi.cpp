#include "mpisim/mpi.hpp"

#include <cstring>

#include "mpisim/inject.hpp"
#include "mpisim/reliable.hpp"
#include "simtime/metrics.hpp"
#include "simtime/timeseries.hpp"
#include "simtime/tracebuf.hpp"

namespace mpisim {

namespace {
// Reserved tags for the built-in collectives.
constexpr int kTagBarrierIn = kReservedTagBase + 1;
constexpr int kTagBarrierOut = kReservedTagBase + 2;
constexpr int kTagBcast = kReservedTagBase + 3;
constexpr int kTagGather = kReservedTagBase + 4;
constexpr int kTagReduce = kReservedTagBase + 5;
}  // namespace

Mpi::Mpi(World& world, Rank me) : world_(&world), me_(me) {
  world.check_rank(me, "Mpi");
}

void Mpi::check_user_tag(int tag) const {
  if (tag < 0 || tag >= kReservedTagBase) {
    throw MpiError("user tag " + std::to_string(tag) +
                   " out of range [0," + std::to_string(kReservedTagBase) +
                   ")");
  }
}

void Mpi::send_impl(const void* data, std::size_t bytes, Rank dest, int tag) {
  if (reliable::enabled()) {
    send_reliable(data, bytes, dest, tag);
    return;
  }
  world_->check_rank(dest, "send");
  if (world_->aborted()) throw WorldAborted(world_->abort_reason());
  const auto legs = world_->cost().mpi_leg_costs(
      bytes, world_->info(me_).core, world_->info(dest).core,
      world_->same_node(me_, dest));
  const simtime::SimTime begin = clock().now();
  const simtime::SimTime depart = clock().advance(legs.sender);

  const inject::Action act = inject::probe(me_, dest, tag, depart);
  if (act.drop) {
    // The sender paid its leg but the message never arrives.
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(simtime::tracebuf::Kind::kMpiDrop,
                                world_->info(me_).name, begin, depart, bytes,
                                /*channel=*/-1, /*route_type=*/0, tag);
    }
    return;
  }

  InboundMessage msg;
  msg.source = me_;
  msg.tag = tag;
  msg.payload.resize(bytes);
  if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);
  msg.arrival = depart + legs.transit + act.delay;
  world_->queue(dest).deposit(std::move(msg));

  if (simtime::tracebuf::armed()) {
    // mpisim knows tags, not channels; the trace consumer maps channel
    // tags back to channel ids at flush time.
    simtime::tracebuf::record(simtime::tracebuf::Kind::kMpiSend,
                              world_->info(me_).name, begin, depart, bytes,
                              /*channel=*/-1, /*route_type=*/0, tag);
  }
}

void Mpi::send_reliable(const void* data, std::size_t bytes, Rank dest,
                        int tag) {
  world_->check_rank(dest, "send");
  if (world_->aborted()) throw WorldAborted(world_->abort_reason());
  // A frame held back on another link must not be overtaken by this send.
  reliable::flush_other_links(me_, dest);

  // Leg costs are charged on the raw payload, exactly as the unframed
  // path does: an armed-but-unhit plan keeps every timing bit-identical,
  // so the only virtual-time deltas come from injected recoveries.
  const auto legs = world_->cost().mpi_leg_costs(
      bytes, world_->info(me_).core, world_->info(dest).core,
      world_->same_node(me_, dest));
  const simtime::SimTime begin = clock().now();
  const simtime::SimTime depart = clock().advance(legs.sender);

  const std::uint64_t seq = reliable::next_seq(me_, dest);
  // The channel epoch the caller armed (if any) rides in the frame header;
  // consuming it here keeps the thread-local from leaking into later sends.
  const std::uint32_t epoch = reliable::take_send_epoch();
  const std::vector<std::byte> wire = reliable::frame(
      seq, /*attempt=*/1,
      std::span(static_cast<const std::byte*>(data), bytes), epoch);

  // Model the whole detect/retransmit conversation now: each attempt
  // re-probes the plan; a dropped or damaged attempt costs one backoff
  // rung of virtual wait before the resend.  The ladder is finite — the
  // attempt after the last retry always goes through (the plan models
  // transient faults; permanent loss stays the legacy send_drop).
  simtime::SimTime penalty = 0;
  bool dup = false;
  bool reorder = false;
  int attempt = 1;
  for (;;) {
    const inject::Action act = inject::probe(me_, dest, tag, depart + penalty);
    penalty += act.delay;
    dup = dup || act.msg_dup;
    reorder = reorder || act.msg_reorder;
    if (act.drop) {
      // Legacy unrecoverable loss: the sender paid its leg, the message —
      // and any sequence-number hole it leaves — is gone for good.
      if (simtime::tracebuf::armed()) {
        simtime::tracebuf::record(simtime::tracebuf::Kind::kMpiDrop,
                                  world_->info(me_).name, begin, depart, bytes,
                                  /*channel=*/-1, /*route_type=*/0, tag);
      }
      return;
    }
    bool lost = act.msg_drop;
    if (act.msg_corrupt) {
      // Damage a copy of the wire frame and run the real integrity check:
      // only a flip the CRC actually catches counts as a detected (and
      // therefore recoverable) corruption.
      std::vector<std::byte> damaged = wire;
      const std::size_t victim =
          bytes > 0 ? sizeof(reliable::FrameHeader)
                    : offsetof(reliable::FrameHeader, crc);
      damaged[victim] ^= std::byte{0x40};
      const auto parsed = reliable::unframe(damaged);
      if (!parsed || !parsed->crc_ok) {
        lost = true;
        reliable::record_event(reliable::Event::kCorrupt, tag);
        if (simtime::tracebuf::armed()) {
          simtime::tracebuf::record(simtime::tracebuf::Kind::kNetCorrupt,
                                    world_->info(me_).name, depart,
                                    depart + penalty, bytes, /*channel=*/-1,
                                    /*route_type=*/0, tag);
        }
      }
    }
    if (lost && attempt <= reliable::max_retries()) {
      penalty += reliable::backoff(attempt);
      ++attempt;
      reliable::record_event(reliable::Event::kRetransmit, tag);
      if (simtime::tracebuf::armed()) {
        simtime::tracebuf::record(simtime::tracebuf::Kind::kNetRetransmit,
                                  world_->info(me_).name, depart,
                                  depart + penalty, bytes, /*channel=*/-1,
                                  /*route_type=*/0, tag);
      }
      if (simtime::timeseries::armed()) {
        // Same attribution as the kNetRetransmit trace event: the mpisim
        // layer knows tags, not channels, so the per-route split happens
        // in the consumers (tag -> channel -> route).
        simtime::timeseries::record(
            simtime::timeseries::Kind::kRetransmits, /*route_type=*/0,
            /*channel=*/-1, world_->info(me_).name, depart,
            static_cast<std::int64_t>(bytes));
      }
      continue;
    }
    break;
  }

  if (penalty > 0 && simtime::metrics::armed()) {
    // The whole detect/backoff/resend conversation, as one virtual-time
    // cost the receiver will observe on top of the clean transit.
    simtime::metrics::record(simtime::metrics::Kind::kRetransmitDelay,
                             /*route_type=*/0, /*channel=*/-1,
                             world_->info(me_).name, penalty);
  }

  auto parsed = reliable::unframe(wire);
  InboundMessage msg;
  msg.source = me_;
  msg.tag = tag;
  msg.payload = std::move(parsed->payload);
  msg.arrival = depart + legs.transit + penalty;

  if (reorder) {
    reliable::stash(world_->queue(dest), me_, dest, std::move(msg), seq, tag,
                    dup, epoch);
  } else {
    reliable::window_deposit(world_->queue(dest), me_, dest, std::move(msg),
                             seq, tag, epoch);
    // A frame stashed earlier on this same link has now been overtaken —
    // release it so the receive window can drain both in order.
    reliable::flush_link(me_, dest);
    if (dup) {
      // The duplicate copy takes the same wire journey; the receive
      // window suppresses it by sequence number.
      InboundMessage copy;
      copy.source = me_;
      copy.tag = tag;
      copy.payload.resize(bytes);
      if (bytes > 0) std::memcpy(copy.payload.data(), data, bytes);
      copy.arrival = depart + legs.transit + penalty;
      reliable::window_deposit(world_->queue(dest), me_, dest,
                               std::move(copy), seq, tag, epoch);
    }
  }

  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kMpiSend,
                              world_->info(me_).name, begin, depart, bytes,
                              /*channel=*/-1, /*route_type=*/0, tag);
  }
}

Status Mpi::recv_impl(void* data, std::size_t bytes, Rank source, int tag) {
  if (reliable::enabled()) reliable::flush_from(me_);
  if (source != kAnySource) world_->check_rank(source, "recv");
  const simtime::SimTime begin = clock().now();
  InboundMessage msg = world_->queue(me_).match_blocking(source, tag);
  if (msg.payload.size() > bytes) {
    throw MpiError("recv truncation: message of " +
                   std::to_string(msg.payload.size()) +
                   " bytes into a " + std::to_string(bytes) +
                   "-byte buffer (src=" + std::to_string(msg.source) +
                   " tag=" + std::to_string(msg.tag) + ")");
  }
  if (!msg.payload.empty()) {
    std::memcpy(data, msg.payload.data(), msg.payload.size());
  }
  const auto legs = world_->cost().mpi_leg_costs(
      msg.payload.size(), world_->info(msg.source).core,
      world_->info(me_).core, world_->same_node(msg.source, me_));
  clock().join_advance(msg.arrival, legs.receiver);

  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kMpiRecv,
                              world_->info(me_).name, begin, clock().now(),
                              msg.payload.size(), /*channel=*/-1,
                              /*route_type=*/0, msg.tag);
  }
  return Status{msg.source, msg.tag, msg.payload.size()};
}

void Mpi::send(const void* data, std::size_t bytes, Rank dest, int tag) {
  check_user_tag(tag);
  send_impl(data, bytes, dest, tag);
}

Status Mpi::recv(void* data, std::size_t bytes, Rank source, int tag) {
  if (tag != kAnyTag) check_user_tag(tag);
  return recv_impl(data, bytes, source, tag);
}

std::vector<std::byte> Mpi::recv_any_size(Rank source, int tag, Status* st) {
  if (reliable::enabled()) reliable::flush_from(me_);
  if (source != kAnySource) world_->check_rank(source, "recv");
  const simtime::SimTime begin = clock().now();
  InboundMessage msg = world_->queue(me_).match_blocking(source, tag);
  const auto legs = world_->cost().mpi_leg_costs(
      msg.payload.size(), world_->info(msg.source).core,
      world_->info(me_).core, world_->same_node(msg.source, me_));
  clock().join_advance(msg.arrival, legs.receiver);
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kMpiRecv,
                              world_->info(me_).name, begin, clock().now(),
                              msg.payload.size(), /*channel=*/-1,
                              /*route_type=*/0, msg.tag);
  }
  if (st != nullptr) *st = Status{msg.source, msg.tag, msg.payload.size()};
  return std::move(msg.payload);
}

std::optional<Envelope> Mpi::iprobe(Rank source, int tag) {
  if (reliable::enabled()) reliable::flush_from(me_);
  if (source != kAnySource) world_->check_rank(source, "iprobe");
  return world_->queue(me_).probe(source, tag);
}

Envelope Mpi::probe(Rank source, int tag) {
  if (reliable::enabled()) reliable::flush_from(me_);
  if (source != kAnySource) world_->check_rank(source, "probe");
  return world_->queue(me_).probe_blocking(source, tag);
}

void Mpi::send_internal(const void* data, std::size_t bytes, Rank dest,
                        int tag) {
  send_impl(data, bytes, dest, tag);
}

Status Mpi::recv_internal(void* data, std::size_t bytes, Rank source,
                          int tag) {
  return recv_impl(data, bytes, source, tag);
}

void Mpi::barrier() {
  std::uint8_t token = 0;
  if (me_ == 0) {
    // Gather in rank order (not ANY_SOURCE) so the root's clock sequence --
    // and with it every timing result -- is deterministic.
    for (int r = 1; r < size(); ++r) {
      recv_impl(&token, 1, r, kTagBarrierIn);
    }
    for (int r = 1; r < size(); ++r) {
      send_impl(&token, 1, r, kTagBarrierOut);
    }
  } else {
    send_impl(&token, 1, 0, kTagBarrierIn);
    recv_impl(&token, 1, 0, kTagBarrierOut);
  }
}

void Mpi::bcast(void* data, std::size_t bytes, Rank root) {
  world_->check_rank(root, "bcast");
  if (me_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send_impl(data, bytes, r, kTagBcast);
    }
  } else {
    recv_impl(data, bytes, root, kTagBcast);
  }
}

void Mpi::gather(const void* contrib, std::size_t bytes, void* recv_all,
                 Rank root) {
  world_->check_rank(root, "gather");
  if (me_ == root) {
    auto* out = static_cast<std::byte*>(recv_all);
    if (bytes > 0) {
      std::memcpy(out + static_cast<std::size_t>(root) * bytes, contrib,
                  bytes);
    }
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv_impl(out + static_cast<std::size_t>(r) * bytes, bytes, r,
                kTagGather);
    }
  } else {
    send_impl(contrib, bytes, root, kTagGather);
  }
}

void Mpi::reduce_sum(const double* contrib, double* result,
                     std::size_t count, Rank root) {
  world_->check_rank(root, "reduce");
  const std::size_t bytes = count * sizeof(double);
  if (me_ == root) {
    std::memcpy(result, contrib, bytes);
    std::vector<double> tmp(count);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv_impl(tmp.data(), bytes, r, kTagReduce);
      for (std::size_t i = 0; i < count; ++i) result[i] += tmp[i];
    }
  } else {
    send_impl(contrib, bytes, root, kTagReduce);
  }
}

void Mpi::allreduce_sum(const double* contrib, double* result,
                        std::size_t count) {
  reduce_sum(contrib, result, count, 0);
  bcast(result, count * sizeof(double), 0);
}

}  // namespace mpisim
