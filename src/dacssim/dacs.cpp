#include "dacssim/dacs.hpp"

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "cellsim/spu.hpp"

namespace dacs {

namespace {

/// Trampoline state: the real entry of the AE program being started.
thread_local cellsim::spe2::SpeEntry t_real_entry = nullptr;

/// AE-side runtime init: charge the libdacs footprint, then run the user
/// program.
int dacs_ae_entry(std::uint64_t speid, std::uint64_t argp,
                  std::uint64_t envp) {
  cellsim::spu::self().allocator().reserve_segment("text:libdacs",
                                                   kDacsSpuFootprintBytes);
  return t_real_entry(speid, argp, envp);
}

}  // namespace

struct Runtime::Impl {
  std::mutex mu;

  struct AeState {
    std::thread thread;
    std::atomic<int> exit_status{0};
    std::atomic<bool> done{false};
  };
  std::map<std::int32_t, std::unique_ptr<AeState>> aes;

  struct Region {
    void* addr = nullptr;
    std::size_t size = 0;
  };
  std::map<std::uint64_t, Region> regions;
  std::uint64_t next_region = 1;

  std::map<wid_t, simtime::SimTime> wid_completion;
  wid_t next_wid = 1;
};

Runtime::Runtime(cellsim::CellBlade& blade, const simtime::CostModel& cost)
    : blade_(&blade), cost_(&cost), impl_(std::make_unique<Impl>()) {}

Runtime::~Runtime() {
  for (auto& [id, ae] : impl_->aes) {
    if (ae->thread.joinable()) ae->thread.join();
  }
}

dacs_rc dacs_de_start(Runtime& rt, de_id_t ae,
                      const cellsim::spe2::spe_program_handle_t& program,
                      std::uint64_t argp) {
  if (ae.value < 0 ||
      ae.value >= static_cast<std::int32_t>(rt.blade().spe_count())) {
    return DACS_ERR_INVALID_TARGET;
  }
  if (program.entry == nullptr) return DACS_ERR_INVALID_HANDLE;

  auto state = std::make_unique<Runtime::Impl::AeState>();
  auto* raw = state.get();
  cellsim::Spe& spe = rt.blade().spe(static_cast<unsigned>(ae.value));
  const simtime::SimTime stamp = rt.he_clock().now();

  raw->thread = std::thread([&rt, &spe, &program, argp, raw, stamp] {
    spe.clock().join(stamp);
    t_real_entry = program.entry;
    const cellsim::spe2::spe_program_handle_t wrapped{
        program.name, &dacs_ae_entry, program.text_bytes};
    int status = 0;
    try {
      cellsim::spe2::SpeContext ctx(spe);
      status = ctx.run(wrapped, argp, 0);
    } catch (const std::exception&) {
      status = -1;
    }
    (void)rt;
    raw->exit_status.store(status);
    raw->done.store(true);
  });

  std::lock_guard lock(rt.impl().mu);
  rt.impl().aes[ae.value] = std::move(state);
  return DACS_SUCCESS;
}

dacs_rc dacs_de_wait(Runtime& rt, de_id_t ae, std::int32_t* exit_status) {
  Runtime::Impl::AeState* state = nullptr;
  {
    std::lock_guard lock(rt.impl().mu);
    auto it = rt.impl().aes.find(ae.value);
    if (it == rt.impl().aes.end()) return DACS_ERR_INVALID_TARGET;
    state = it->second.get();
  }
  if (state->thread.joinable()) state->thread.join();
  if (exit_status != nullptr) *exit_status = state->exit_status.load();
  // The waiting HE's clock reflects the AE's completion.
  rt.he_clock().join(
      rt.blade().spe(static_cast<unsigned>(ae.value)).clock().now());
  return DACS_SUCCESS;
}

dacs_rc dacs_remote_mem_create(Runtime& rt, void* addr, std::size_t size,
                               remote_mem_t* mem) {
  if (cellsim::spu::bound()) {
    // Only the HE owns shareable memory: the strict hierarchy the paper
    // cites as DaCS's key limitation.
    return DACS_ERR_INVALID_TARGET;
  }
  if (addr == nullptr || size == 0 || mem == nullptr) {
    return DACS_ERR_INVALID_ADDR;
  }
  std::lock_guard lock(rt.impl().mu);
  const std::uint64_t handle = rt.impl().next_region++;
  rt.impl().regions[handle] = Runtime::Impl::Region{addr, size};
  mem->handle = handle;
  return DACS_SUCCESS;
}

dacs_rc dacs_remote_mem_release(Runtime& rt, remote_mem_t* mem) {
  if (mem == nullptr) return DACS_ERR_INVALID_HANDLE;
  std::lock_guard lock(rt.impl().mu);
  if (rt.impl().regions.erase(mem->handle) == 0) {
    return DACS_ERR_INVALID_HANDLE;
  }
  mem->handle = 0;
  return DACS_SUCCESS;
}

dacs_rc dacs_remote_mem_query(Runtime& rt, remote_mem_t mem,
                              std::size_t* size) {
  std::lock_guard lock(rt.impl().mu);
  auto it = rt.impl().regions.find(mem.handle);
  if (it == rt.impl().regions.end()) return DACS_ERR_INVALID_HANDLE;
  if (size != nullptr) *size = it->second.size;
  return DACS_SUCCESS;
}

dacs_rc dacs_wid_reserve(Runtime& rt, wid_t* wid) {
  if (wid == nullptr) return DACS_ERR_INVALID_HANDLE;
  std::lock_guard lock(rt.impl().mu);
  *wid = rt.impl().next_wid++;
  rt.impl().wid_completion[*wid] = simtime::kSimTimeZero;
  return DACS_SUCCESS;
}

dacs_rc dacs_wid_release(Runtime& rt, wid_t* wid) {
  if (wid == nullptr) return DACS_ERR_INVALID_HANDLE;
  std::lock_guard lock(rt.impl().mu);
  if (rt.impl().wid_completion.erase(*wid) == 0) {
    return DACS_ERR_INVALID_HANDLE;
  }
  *wid = 0;
  return DACS_SUCCESS;
}

dacs_rc dacs_mailbox_write(Runtime& rt, de_id_t ae, std::uint32_t value) {
  if (ae.value < 0 ||
      ae.value >= static_cast<std::int32_t>(rt.blade().spe_count())) {
    return DACS_ERR_INVALID_TARGET;
  }
  rt.he_clock().advance(rt.cost().mbox_ppe_write);
  rt.blade()
      .spe(static_cast<unsigned>(ae.value))
      .inbound_mailbox()
      .push_blocking(value, rt.he_clock().now());
  return DACS_SUCCESS;
}

dacs_rc dacs_mailbox_read(Runtime& rt, de_id_t ae, std::uint32_t* value) {
  if (value == nullptr) return DACS_ERR_INVALID_ADDR;
  if (ae.value < 0 ||
      ae.value >= static_cast<std::int32_t>(rt.blade().spe_count())) {
    return DACS_ERR_INVALID_TARGET;
  }
  cellsim::Mailbox& mb =
      rt.blade().spe(static_cast<unsigned>(ae.value)).outbound_mailbox();
  const cellsim::MailboxEntry e = mb.pop_blocking();
  rt.he_clock().join(e.stamp);
  rt.he_clock().advance(rt.cost().mbox_ppe_read);
  *value = e.value;
  return DACS_SUCCESS;
}

namespace {

/// Resolves a region and validates the access window.
dacs_rc resolve(Runtime& rt, remote_mem_t mem, std::size_t offset,
                std::size_t size, std::byte** out) {
  std::lock_guard lock(rt.impl().mu);
  auto it = rt.impl().regions.find(mem.handle);
  if (it == rt.impl().regions.end()) return DACS_ERR_INVALID_HANDLE;
  if (offset + size > it->second.size) return DACS_ERR_INVALID_ADDR;
  *out = static_cast<std::byte*>(it->second.addr) + offset;
  return DACS_SUCCESS;
}

/// Records a transfer completion under `wid`.
dacs_rc record_wid(Runtime& rt, wid_t wid, simtime::SimTime done) {
  std::lock_guard lock(rt.impl().mu);
  auto it = rt.impl().wid_completion.find(wid);
  if (it == rt.impl().wid_completion.end()) return DACS_ERR_INVALID_HANDLE;
  it->second = std::max(it->second, done);
  return DACS_SUCCESS;
}

}  // namespace

dacs_rc dacs_put(Runtime& rt, remote_mem_t dst, std::size_t dst_offset,
                 const void* src_ls_ptr, std::size_t size, wid_t wid) {
  if (!cellsim::spu::bound()) return DACS_ERR_NOT_INITIALIZED;
  std::byte* target = nullptr;
  if (dacs_rc rc = resolve(rt, dst, dst_offset, size, &target);
      rc != DACS_SUCCESS) {
    return rc;
  }
  std::memcpy(target, src_ls_ptr, size);
  cellsim::Spe& spe = cellsim::spu::self();
  const simtime::SimTime done =
      spe.clock().now() + rt.cost().dma_transfer(size);
  return record_wid(rt, wid, done);
}

dacs_rc dacs_get(Runtime& rt, void* dst_ls_ptr, remote_mem_t src,
                 std::size_t src_offset, std::size_t size, wid_t wid) {
  if (!cellsim::spu::bound()) return DACS_ERR_NOT_INITIALIZED;
  std::byte* source = nullptr;
  if (dacs_rc rc = resolve(rt, src, src_offset, size, &source);
      rc != DACS_SUCCESS) {
    return rc;
  }
  std::memcpy(dst_ls_ptr, source, size);
  cellsim::Spe& spe = cellsim::spu::self();
  const simtime::SimTime done =
      spe.clock().now() + rt.cost().dma_transfer(size);
  return record_wid(rt, wid, done);
}

dacs_rc dacs_wait(Runtime& rt, wid_t wid) {
  simtime::SimTime done = 0;
  {
    std::lock_guard lock(rt.impl().mu);
    auto it = rt.impl().wid_completion.find(wid);
    if (it == rt.impl().wid_completion.end()) return DACS_ERR_INVALID_HANDLE;
    done = it->second;
    it->second = simtime::kSimTimeZero;
  }
  if (cellsim::spu::bound()) {
    cellsim::spu::self().clock().join(done);
  } else {
    rt.he_clock().join(done);
  }
  return DACS_SUCCESS;
}

dacs_rc dacs_mailbox_write_to_parent(Runtime& rt, std::uint32_t value) {
  if (!cellsim::spu::bound()) return DACS_ERR_NOT_INITIALIZED;
  (void)rt;
  cellsim::spu::spu_write_out_mbox(value);
  return DACS_SUCCESS;
}

dacs_rc dacs_mailbox_read_from_parent(Runtime& rt, std::uint32_t* value) {
  if (!cellsim::spu::bound()) return DACS_ERR_NOT_INITIALIZED;
  if (value == nullptr) return DACS_ERR_INVALID_ADDR;
  (void)rt;
  *value = cellsim::spu::spu_read_in_mbox();
  return DACS_SUCCESS;
}

}  // namespace dacs
