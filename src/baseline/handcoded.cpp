#include "baseline/handcoded.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "cellsim/libspe2.hpp"
#include "cellsim/spu.hpp"
#include "mpisim/launcher.hpp"
#include "mpisim/mpi.hpp"

namespace baseline {
namespace {

using cellpilot::ChannelType;
using cellsim::EffectiveAddress;
using cellsim::Spe;
using simtime::CoreKind;
using simtime::CostModel;
using simtime::SimTime;
using simtime::VirtualClock;

/// 128-byte-aligned main-memory buffer (DMA wants quad-word alignment).
class AlignedBuffer {
 public:
  explicit AlignedBuffer(std::size_t n) {
    const std::size_t rounded = ((n == 0 ? 1 : n) + 127) / 128 * 128;
    ptr_ = std::aligned_alloc(128, rounded);
  }
  ~AlignedBuffer() { std::free(ptr_); }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  std::byte* data() { return static_cast<std::byte*>(ptr_); }
  EffectiveAddress ea() const { return cellsim::ea_of(ptr_); }

 private:
  void* ptr_;
};

/// PPE-side poll of an SPE outbound mailbox: waits (in real time) until a
/// word arrives, charging the MMIO read and joining the sender's stamp.
std::uint32_t ppe_poll(cellsim::Mailbox& mb, VirtualClock& clk,
                       const CostModel& cost) {
  const cellsim::MailboxEntry e = mb.pop_blocking();
  clk.join(e.stamp);
  clk.advance(cost.mbox_ppe_read);
  return e.value;
}

/// PPE-side write of an SPE inbound mailbox.
void ppe_notify(Spe& spe, VirtualClock& clk, const CostModel& cost) {
  clk.advance(cost.mbox_ppe_write);
  spe.inbound_mailbox().push_blocking(1, clk.now());
}

/// PPE-side memcpy through the memory-mapped local-store window.
void ppe_mapped_copy_in(Spe& spe, cellsim::LsAddr ls, const std::byte* src,
                        std::size_t n, VirtualClock& clk,
                        const CostModel& cost) {
  std::memcpy(spe.local_store().at(ls, n), src, n);
  clk.advance(cost.mapped_copy(n));
}

void ppe_mapped_copy_out(Spe& spe, cellsim::LsAddr ls, std::byte* dst,
                         std::size_t n, VirtualClock& clk,
                         const CostModel& cost) {
  std::memcpy(dst, spe.local_store().at(ls, n), n);
  clk.advance(cost.mapped_copy(n));
}

/// Parameters handed to baseline SPE programs through argp.
struct Params {
  EffectiveAddress main_fwd = 0;  ///< main-memory staging, forward leg
  EffectiveAddress main_rev = 0;  ///< main-memory staging, reverse leg
  Spe* peer = nullptr;            ///< peer SPE (type-4 signalling)
  std::uint32_t bytes = 0;
  int reps = 0;
  std::atomic<SimTime>* elapsed = nullptr;  ///< initiator's measured span
};

/// The fixed LS address the baselines stage data at (hand-coded programs
/// use a static buffer; we allocate one and remember it).
cellsim::LsAddr spe_buffer(std::uint32_t bytes) {
  return cellsim::spu::ls_alloc(std::max<std::size_t>(bytes, 16), 128);
}

void dma_in(cellsim::LsAddr ls, EffectiveAddress ea, std::uint32_t bytes) {
  cellsim::spu::mfc_get_any(ls, ea, bytes, 0);
  cellsim::spu::mfc_write_tag_mask(1);
  cellsim::spu::mfc_read_tag_status_all();
}

void dma_out(cellsim::LsAddr ls, EffectiveAddress ea, std::uint32_t bytes) {
  cellsim::spu::mfc_put_any(ls, ea, bytes, 0);
  cellsim::spu::mfc_write_tag_mask(1);
  cellsim::spu::mfc_read_tag_status_all();
}

Params& params_of(std::uint64_t argp) {
  return *static_cast<Params*>(
      cellsim::ptr_of(static_cast<EffectiveAddress>(argp)));
}

// --- SPE programs -----------------------------------------------------------

/// Types 2/3/5 responder, DMA style: on "go", pull the message from main
/// memory, push the reply back, raise "done".
int spe_dma_responder(std::uint64_t, std::uint64_t argp, std::uint64_t) {
  Params& p = params_of(argp);
  const cellsim::LsAddr ls = spe_buffer(p.bytes);
  for (int i = 0; i < p.reps; ++i) {
    cellsim::spu::spu_read_in_mbox();
    dma_in(ls, p.main_fwd, p.bytes);
    dma_out(ls, p.main_rev, p.bytes);
    cellsim::spu::spu_write_out_mbox(1);
  }
  return 0;
}

/// Types 2/3/5 responder, Copy style: the PPE moves the data; the SPE only
/// handshakes.  The buffer's LS address is announced through the outbound
/// mailbox first, as a hand-coded program would arrange.
int spe_copy_responder(std::uint64_t, std::uint64_t argp, std::uint64_t) {
  Params& p = params_of(argp);
  const cellsim::LsAddr ls = spe_buffer(p.bytes);
  cellsim::spu::spu_write_out_mbox(ls);
  for (int i = 0; i < p.reps; ++i) {
    cellsim::spu::spu_read_in_mbox();
    cellsim::spu::spu_write_out_mbox(1);
  }
  return 0;
}

/// Type-4 initiator, DMA style: stage to main memory, signal the peer,
/// await its signal, pull the reply.  Measures its own span.
int spe_dma_initiator4(std::uint64_t, std::uint64_t argp, std::uint64_t) {
  Params& p = params_of(argp);
  const cellsim::LsAddr ls = spe_buffer(p.bytes);
  VirtualClock& clk = cellsim::spu::self().clock();
  const SimTime start = clk.now();
  const CostModel& cost = *cellsim::spu::env().cost;
  for (int i = 0; i < p.reps; ++i) {
    dma_out(ls, p.main_fwd, p.bytes);
    clk.advance(cost.handcoded_sync);
    p.peer->signal(0).send(1, clk.now());
    cellsim::spu::spu_read_signal(0);
    dma_in(ls, p.main_rev, p.bytes);
  }
  p.elapsed->store(clk.now() - start);
  return 0;
}

/// Type-4 responder, DMA style.
int spe_dma_responder4(std::uint64_t, std::uint64_t argp, std::uint64_t) {
  Params& p = params_of(argp);
  const cellsim::LsAddr ls = spe_buffer(p.bytes);
  VirtualClock& clk = cellsim::spu::self().clock();
  const CostModel& cost = *cellsim::spu::env().cost;
  for (int i = 0; i < p.reps; ++i) {
    cellsim::spu::spu_read_signal(0);
    dma_in(ls, p.main_fwd, p.bytes);
    dma_out(ls, p.main_rev, p.bytes);
    clk.advance(cost.handcoded_sync);
    p.peer->signal(0).send(1, clk.now());
  }
  return 0;
}

/// Type-4 extension: direct LS->LS DMA, one command, no main-memory stage.
int spe_dma_direct_initiator4(std::uint64_t, std::uint64_t argp,
                              std::uint64_t) {
  Params& p = params_of(argp);
  const cellsim::LsAddr ls = spe_buffer(p.bytes);
  // Peer's buffer is at the same LS offset; its store is memory-mapped.
  const EffectiveAddress peer_ea =
      p.peer->ls_effective_base() + ls;  // same allocation order both sides
  VirtualClock& clk = cellsim::spu::self().clock();
  const SimTime start = clk.now();
  const CostModel& cost = *cellsim::spu::env().cost;
  for (int i = 0; i < p.reps; ++i) {
    dma_out(ls, peer_ea, p.bytes);
    clk.advance(cost.handcoded_sync);
    p.peer->signal(0).send(1, clk.now());
    cellsim::spu::spu_read_signal(0);  // reply already DMA'd into our LS
  }
  p.elapsed->store(clk.now() - start);
  return 0;
}

int spe_dma_direct_responder4(std::uint64_t, std::uint64_t argp,
                              std::uint64_t) {
  Params& p = params_of(argp);
  const cellsim::LsAddr ls = spe_buffer(p.bytes);
  const EffectiveAddress peer_ea = p.peer->ls_effective_base() + ls;
  VirtualClock& clk = cellsim::spu::self().clock();
  const CostModel& cost = *cellsim::spu::env().cost;
  for (int i = 0; i < p.reps; ++i) {
    cellsim::spu::spu_read_signal(0);
    dma_out(ls, peer_ea, p.bytes);
    clk.advance(cost.handcoded_sync);
    p.peer->signal(0).send(1, clk.now());
  }
  return 0;
}

/// Type-4 Copy endpoints: the PPE relays; SPEs handshake through their
/// mailboxes.  The initiator measures.
int spe_copy_initiator4(std::uint64_t, std::uint64_t argp, std::uint64_t) {
  Params& p = params_of(argp);
  cellsim::spu::spu_write_out_mbox(spe_buffer(p.bytes));
  VirtualClock& clk = cellsim::spu::self().clock();
  const SimTime start = clk.now();
  for (int i = 0; i < p.reps; ++i) {
    cellsim::spu::spu_write_out_mbox(1);  // my data is ready
    cellsim::spu::spu_read_in_mbox();     // reply has landed in my LS
  }
  p.elapsed->store(clk.now() - start);
  return 0;
}

int spe_copy_responder4(std::uint64_t, std::uint64_t argp, std::uint64_t) {
  Params& p = params_of(argp);
  cellsim::spu::spu_write_out_mbox(spe_buffer(p.bytes));
  for (int i = 0; i < p.reps; ++i) {
    cellsim::spu::spu_read_in_mbox();     // message landed in my LS
    cellsim::spu::spu_write_out_mbox(1);  // reply is ready
  }
  return 0;
}

/// Type-5 initiator (both styles): DMA stages through main memory and uses
/// mailboxes toward the node's PPE; Copy only handshakes (PPE copies).
int spe_dma_initiator5(std::uint64_t, std::uint64_t argp, std::uint64_t) {
  Params& p = params_of(argp);
  const cellsim::LsAddr ls = spe_buffer(p.bytes);
  VirtualClock& clk = cellsim::spu::self().clock();
  const SimTime start = clk.now();
  for (int i = 0; i < p.reps; ++i) {
    dma_out(ls, p.main_fwd, p.bytes);
    cellsim::spu::spu_write_out_mbox(1);  // tell my PPE to ship it
    cellsim::spu::spu_read_in_mbox();     // reply is in main memory
    dma_in(ls, p.main_rev, p.bytes);
  }
  p.elapsed->store(clk.now() - start);
  return 0;
}

int spe_dma_responder5(std::uint64_t, std::uint64_t argp, std::uint64_t) {
  Params& p = params_of(argp);
  const cellsim::LsAddr ls = spe_buffer(p.bytes);
  for (int i = 0; i < p.reps; ++i) {
    cellsim::spu::spu_read_in_mbox();  // message is in main memory
    dma_in(ls, p.main_fwd, p.bytes);
    dma_out(ls, p.main_rev, p.bytes);
    cellsim::spu::spu_write_out_mbox(1);  // reply staged; ship it
  }
  return 0;
}

int spe_copy_initiator5(std::uint64_t, std::uint64_t argp, std::uint64_t) {
  Params& p = params_of(argp);
  cellsim::spu::spu_write_out_mbox(spe_buffer(p.bytes));
  VirtualClock& clk = cellsim::spu::self().clock();
  const SimTime start = clk.now();
  for (int i = 0; i < p.reps; ++i) {
    cellsim::spu::spu_write_out_mbox(1);
    cellsim::spu::spu_read_in_mbox();
  }
  p.elapsed->store(clk.now() - start);
  return 0;
}

int spe_copy_responder5(std::uint64_t, std::uint64_t argp, std::uint64_t) {
  Params& p = params_of(argp);
  cellsim::spu::spu_write_out_mbox(spe_buffer(p.bytes));
  for (int i = 0; i < p.reps; ++i) {
    cellsim::spu::spu_read_in_mbox();
    cellsim::spu::spu_write_out_mbox(1);
  }
  return 0;
}

/// Runs `entry` on `spe` in a fresh thread (the PPE-side pthread of the
/// hand-coded pattern).
std::thread run_spe_program(Spe& spe, cellsim::spe2::SpeEntry entry,
                            const char* name, Params* params) {
  return std::thread([&spe, entry, name, params] {
    cellsim::spe2::SpeContext ctx(spe);
    const cellsim::spe2::spe_program_handle_t program{name, entry, 2048};
    ctx.run(program, cellsim::ea_of(params), 0);
  });
}

// --- PingPong drivers per type ----------------------------------------------

SimTime type1(std::size_t bytes, int reps, const CostModel& cost) {
  mpisim::World world({{CoreKind::kPpe, 0, "a"}, {CoreKind::kPpe, 1, "b"}},
                      cost);
  std::atomic<SimTime> elapsed{0};
  mpisim::launch(world, [&](mpisim::Mpi& mpi) {
    std::vector<std::byte> buf(bytes);
    if (mpi.rank() == 0) {
      simtime::ClockSpan span(mpi.clock());
      for (int i = 0; i < reps; ++i) {
        mpi.send(buf.data(), bytes, 1, 1);
        mpi.recv(buf.data(), bytes, 1, 2);
      }
      elapsed.store(span.elapsed());
    } else {
      for (int i = 0; i < reps; ++i) {
        mpi.recv(buf.data(), bytes, 0, 1);
        mpi.send(buf.data(), bytes, 0, 2);
      }
    }
    return 0;
  });
  return elapsed.load() / (2 * reps);
}

SimTime type2(std::size_t bytes, int reps, const CostModel& cost, bool dma) {
  Spe spe(0, "hb.spe0", cost);
  VirtualClock ppe_clock;
  AlignedBuffer fwd(bytes);
  AlignedBuffer rev(bytes);

  Params params;
  params.main_fwd = fwd.ea();
  params.main_rev = rev.ea();
  params.bytes = static_cast<std::uint32_t>(bytes);
  params.reps = reps;

  std::thread spe_thread = run_spe_program(
      spe, dma ? &spe_dma_responder : &spe_copy_responder,
      dma ? "dma_responder" : "copy_responder", &params);

  // The Copy responder announces its LS buffer address first (setup, not
  // part of the timed loop).
  cellsim::LsAddr ls = 0;
  if (!dma) ls = ppe_poll(spe.outbound_mailbox(), ppe_clock, cost);

  SimTime result = 0;
  {
    simtime::ClockSpan span(ppe_clock);
    std::vector<std::byte> scratch(bytes);
    for (int i = 0; i < reps; ++i) {
      if (!dma) {
        ppe_mapped_copy_in(spe, ls, scratch.data(), bytes, ppe_clock, cost);
      }
      ppe_notify(spe, ppe_clock, cost);
      ppe_poll(spe.outbound_mailbox(), ppe_clock, cost);
      if (!dma) {
        ppe_mapped_copy_out(spe, ls, scratch.data(), bytes, ppe_clock, cost);
      }
    }
    result = span.elapsed();
  }
  spe_thread.join();
  return result / (2 * reps);
}

SimTime type3(std::size_t bytes, int reps, const CostModel& cost, bool dma) {
  mpisim::World world({{CoreKind::kPpe, 0, "a"}, {CoreKind::kPpe, 1, "b"}},
                      cost);
  Spe spe(0, "hb.spe0", cost);
  AlignedBuffer fwd(bytes);
  AlignedBuffer rev(bytes);

  Params params;
  params.main_fwd = fwd.ea();
  params.main_rev = rev.ea();
  params.bytes = static_cast<std::uint32_t>(bytes);
  params.reps = reps;

  std::thread spe_thread = run_spe_program(
      spe, dma ? &spe_dma_responder : &spe_copy_responder,
      dma ? "dma_responder" : "copy_responder", &params);

  std::atomic<SimTime> elapsed{0};
  mpisim::launch(world, [&](mpisim::Mpi& mpi) {
    if (mpi.rank() == 0) {
      std::vector<std::byte> buf(bytes);
      simtime::ClockSpan span(mpi.clock());
      for (int i = 0; i < reps; ++i) {
        mpi.send(buf.data(), bytes, 1, 1);
        mpi.recv(buf.data(), bytes, 1, 2);
      }
      elapsed.store(span.elapsed());
    } else {
      cellsim::LsAddr ls = 0;
      if (!dma) ls = ppe_poll(spe.outbound_mailbox(), mpi.clock(), cost);
      for (int i = 0; i < reps; ++i) {
        mpi.recv(fwd.data(), bytes, 0, 1);
        if (!dma) {
          ppe_mapped_copy_in(spe, ls, fwd.data(), bytes, mpi.clock(), cost);
        }
        ppe_notify(spe, mpi.clock(), cost);
        ppe_poll(spe.outbound_mailbox(), mpi.clock(), cost);
        if (!dma) {
          ppe_mapped_copy_out(spe, ls, rev.data(), bytes, mpi.clock(), cost);
        }
        mpi.send(rev.data(), bytes, 0, 2);
      }
    }
    return 0;
  });
  spe_thread.join();
  return elapsed.load() / (2 * reps);
}

SimTime type4(std::size_t bytes, int reps, const CostModel& cost, bool dma) {
  Spe spe_a(0, "hb.spe0", cost);
  Spe spe_b(1, "hb.spe1", cost);
  AlignedBuffer fwd(bytes);
  AlignedBuffer rev(bytes);
  std::atomic<SimTime> elapsed{0};

  Params pa;
  pa.main_fwd = fwd.ea();
  pa.main_rev = rev.ea();
  pa.peer = &spe_b;
  pa.bytes = static_cast<std::uint32_t>(bytes);
  pa.reps = reps;
  pa.elapsed = &elapsed;

  Params pb = pa;
  pb.peer = &spe_a;
  pb.elapsed = nullptr;

  std::thread ta = run_spe_program(
      spe_a, dma ? &spe_dma_initiator4 : &spe_copy_initiator4, "init4", &pa);
  std::thread tb = run_spe_program(
      spe_b, dma ? &spe_dma_responder4 : &spe_copy_responder4, "resp4", &pb);

  if (!dma) {
    // The Copy style needs the PPE to relay between the two local stores
    // (through a staging buffer, hence two mapped copies per leg).
    VirtualClock ppe_clock;
    std::vector<std::byte> stage(bytes);
    const cellsim::LsAddr ls_a =
        ppe_poll(spe_a.outbound_mailbox(), ppe_clock, cost);
    const cellsim::LsAddr ls_b =
        ppe_poll(spe_b.outbound_mailbox(), ppe_clock, cost);
    for (int i = 0; i < reps; ++i) {
      ppe_poll(spe_a.outbound_mailbox(), ppe_clock, cost);
      ppe_mapped_copy_out(spe_a, ls_a, stage.data(), bytes, ppe_clock, cost);
      ppe_mapped_copy_in(spe_b, ls_b, stage.data(), bytes, ppe_clock, cost);
      ppe_notify(spe_b, ppe_clock, cost);
      ppe_poll(spe_b.outbound_mailbox(), ppe_clock, cost);
      ppe_mapped_copy_out(spe_b, ls_b, stage.data(), bytes, ppe_clock, cost);
      ppe_mapped_copy_in(spe_a, ls_a, stage.data(), bytes, ppe_clock, cost);
      ppe_notify(spe_a, ppe_clock, cost);
    }
  }

  ta.join();
  tb.join();
  return elapsed.load() / (2 * reps);
}

SimTime type4_direct(std::size_t bytes, int reps, const CostModel& cost) {
  Spe spe_a(0, "hb.spe0", cost);
  Spe spe_b(1, "hb.spe1", cost);
  std::atomic<SimTime> elapsed{0};

  Params pa;
  pa.peer = &spe_b;
  pa.bytes = static_cast<std::uint32_t>(bytes);
  pa.reps = reps;
  pa.elapsed = &elapsed;
  Params pb = pa;
  pb.peer = &spe_a;
  pb.elapsed = nullptr;

  std::thread ta =
      run_spe_program(spe_a, &spe_dma_direct_initiator4, "dinit4", &pa);
  std::thread tb =
      run_spe_program(spe_b, &spe_dma_direct_responder4, "dresp4", &pb);
  ta.join();
  tb.join();
  return elapsed.load() / (2 * reps);
}

SimTime type5(std::size_t bytes, int reps, const CostModel& cost, bool dma) {
  mpisim::World world({{CoreKind::kPpe, 0, "a"}, {CoreKind::kPpe, 1, "b"}},
                      cost);
  Spe spe_a(0, "hb.spe0", cost);
  Spe spe_b(1, "hb.spe1", cost);
  AlignedBuffer buf_a_fwd(bytes), buf_a_rev(bytes);
  AlignedBuffer buf_b_fwd(bytes), buf_b_rev(bytes);
  std::atomic<SimTime> elapsed{0};

  Params pa;
  pa.main_fwd = buf_a_fwd.ea();
  pa.main_rev = buf_a_rev.ea();
  pa.bytes = static_cast<std::uint32_t>(bytes);
  pa.reps = reps;
  pa.elapsed = &elapsed;

  Params pb;
  pb.main_fwd = buf_b_fwd.ea();
  pb.main_rev = buf_b_rev.ea();
  pb.bytes = static_cast<std::uint32_t>(bytes);
  pb.reps = reps;

  std::thread ta = run_spe_program(
      spe_a, dma ? &spe_dma_initiator5 : &spe_copy_initiator5, "init5", &pa);
  std::thread tb = run_spe_program(
      spe_b, dma ? &spe_dma_responder5 : &spe_copy_responder5, "resp5", &pb);

  mpisim::launch(world, [&](mpisim::Mpi& mpi) {
    if (mpi.rank() == 0) {
      cellsim::LsAddr ls = 0;
      if (!dma) ls = ppe_poll(spe_a.outbound_mailbox(), mpi.clock(), cost);
      for (int i = 0; i < reps; ++i) {
        ppe_poll(spe_a.outbound_mailbox(), mpi.clock(), cost);
        if (!dma) {
          // One mapped copy per leg: copy out of A's LS for the send, but
          // receive the reply straight into the mapped LS window.
          ppe_mapped_copy_out(spe_a, ls, buf_a_fwd.data(), bytes,
                              mpi.clock(), cost);
          mpi.send(buf_a_fwd.data(), bytes, 1, 1);
          mpi.recv(spe_a.local_store().at(ls, bytes), bytes, 1, 2);
        } else {
          mpi.send(buf_a_fwd.data(), bytes, 1, 1);
          mpi.recv(buf_a_rev.data(), bytes, 1, 2);
        }
        ppe_notify(spe_a, mpi.clock(), cost);
      }
    } else {
      cellsim::LsAddr ls = 0;
      if (!dma) ls = ppe_poll(spe_b.outbound_mailbox(), mpi.clock(), cost);
      for (int i = 0; i < reps; ++i) {
        if (!dma) {
          mpi.recv(spe_b.local_store().at(ls, bytes), bytes, 0, 1);
        } else {
          mpi.recv(buf_b_fwd.data(), bytes, 0, 1);
        }
        ppe_notify(spe_b, mpi.clock(), cost);
        ppe_poll(spe_b.outbound_mailbox(), mpi.clock(), cost);
        if (!dma) {
          ppe_mapped_copy_out(spe_b, ls, buf_b_rev.data(), bytes,
                              mpi.clock(), cost);
        }
        mpi.send(buf_b_rev.data(), bytes, 0, 2);
      }
    }
    return 0;
  });
  ta.join();
  tb.join();
  return elapsed.load() / (2 * reps);
}

SimTime dispatch(ChannelType type, std::size_t bytes, int reps,
                 const CostModel& cost, bool dma) {
  switch (type) {
    case ChannelType::kType1: return type1(bytes, reps, cost);
    case ChannelType::kType2: return type2(bytes, reps, cost, dma);
    case ChannelType::kType3: return type3(bytes, reps, cost, dma);
    case ChannelType::kType4: return type4(bytes, reps, cost, dma);
    case ChannelType::kType5: return type5(bytes, reps, cost, dma);
  }
  return 0;
}

}  // namespace

SimTime dma_pingpong(ChannelType type, std::size_t bytes, int reps,
                     const CostModel& cost) {
  return dispatch(type, bytes, reps, cost, /*dma=*/true);
}

SimTime copy_pingpong(ChannelType type, std::size_t bytes, int reps,
                      const CostModel& cost) {
  return dispatch(type, bytes, reps, cost, /*dma=*/false);
}

SimTime dma_direct_type4_pingpong(std::size_t bytes, int reps,
                                  const CostModel& cost) {
  return type4_direct(bytes, reps, cost);
}

}  // namespace baseline
