#include "cellsim/spu.hpp"

#include "cellsim/errors.hpp"
#include "cellsim/inject.hpp"
#include "simtime/metrics.hpp"
#include "simtime/tracebuf.hpp"

namespace cellsim::spu {

namespace {
thread_local SpuEnv t_env;

// Probes the fault-injection seam before a mailbox primitive: a stall
// charges extra virtual time to the SPU; a fault raises MailboxFault as
// real silicon would on a wedged channel.
void probe_mailbox(const SpuEnv& e, inject::Site site, const char* which) {
  const inject::Action act =
      inject::probe(site, e.spe->name().c_str(), e.spe->clock().now());
  if (act.delay > 0) {
    e.spe->clock().advance(act.delay);
  }
  if (act.fault) {
    throw MailboxFault(std::string("injected mailbox fault on ") + which +
                       " of " + e.spe->name());
  }
}
}  // namespace

void bind(const SpuEnv& e) { t_env = e; }

void unbind() { t_env = SpuEnv{}; }

const SpuEnv& env() {
  if (t_env.spe == nullptr) {
    throw ContextFault(
        "SPU intrinsic called on a thread that is not running an SPE program");
  }
  return t_env;
}

bool bound() { return t_env.spe != nullptr; }

Spe& self() { return *env().spe; }

std::uint32_t spu_read_in_mbox() {
  const SpuEnv& e = env();
  probe_mailbox(e, inject::Site::kMboxRead, "in_mbox");
  const simtime::SimTime begin = e.spe->clock().now();
  const MailboxEntry entry = e.spe->inbound_mailbox().pop_blocking();
  e.spe->clock().join(entry.stamp);
  const simtime::SimTime end = e.spe->clock().advance(e.cost->mbox_spu_read);
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kMboxPop, e.spe->name(),
                              begin, end, sizeof(std::uint32_t));
  }
  if (simtime::metrics::armed()) {
    // Mailbox dwell time: how long the word sat in the FIFO before this
    // read consumed it (pop end minus push stamp).  A fully virtual-stamp
    // quantity — an instantaneous occupancy count would depend on host
    // polling — and by Little's law a faithful occupancy proxy.
    simtime::metrics::record(simtime::metrics::Kind::kMboxWait,
                             /*route_type=*/0, /*channel=*/-1, e.spe->name(),
                             end - entry.stamp);
  }
  return entry.value;
}

void spu_write_out_mbox(std::uint32_t value) {
  const SpuEnv& e = env();
  probe_mailbox(e, inject::Site::kMboxWrite, "out_mbox");
  const simtime::SimTime begin = e.spe->clock().now();
  const simtime::SimTime end = e.spe->clock().advance(e.cost->mbox_spu_write);
  e.spe->outbound_mailbox().push_blocking(value, end);
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kMboxPush, e.spe->name(),
                              begin, end, sizeof(std::uint32_t));
  }
}

void spu_write_out_intr_mbox(std::uint32_t value) {
  const SpuEnv& e = env();
  probe_mailbox(e, inject::Site::kMboxWrite, "out_intr_mbox");
  const simtime::SimTime begin = e.spe->clock().now();
  const simtime::SimTime end = e.spe->clock().advance(e.cost->mbox_spu_write);
  e.spe->outbound_interrupt_mailbox().push_blocking(value, end);
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kMboxPush, e.spe->name(),
                              begin, end, sizeof(std::uint32_t));
  }
}

unsigned spu_stat_in_mbox() {
  return static_cast<unsigned>(env().spe->inbound_mailbox().count());
}

std::uint32_t spu_read_signal(unsigned index) {
  const SpuEnv& e = env();
  const SignalRegister::Received r = e.spe->signal(index).read_blocking();
  e.spe->clock().join(r.stamp);
  e.spe->clock().advance(e.cost->mbox_spu_read);
  return r.bits;
}

void mfc_get(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
             unsigned tag) {
  self().mfc().get(ls_addr, ea, size, tag);
}

void mfc_put(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
             unsigned tag) {
  self().mfc().put(ls_addr, ea, size, tag);
}

void mfc_get_any(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
                 unsigned tag) {
  self().mfc().get_any(ls_addr, ea, size, tag);
}

void mfc_put_any(LsAddr ls_addr, EffectiveAddress ea, std::size_t size,
                 unsigned tag) {
  self().mfc().put_any(ls_addr, ea, size, tag);
}

void mfc_write_tag_mask(std::uint32_t mask) {
  self().mfc().write_tag_mask(mask);
}

std::uint32_t mfc_read_tag_status_all() {
  return self().mfc().read_tag_status_all();
}

void* ls_ptr(LsAddr addr, std::size_t len) {
  return self().local_store().at(addr, len);
}

LsAddr ls_alloc(std::size_t len, std::size_t align) {
  return self().allocator().allocate(len, align);
}

void ls_free(LsAddr addr) { self().allocator().deallocate(addr); }

}  // namespace cellsim::spu
