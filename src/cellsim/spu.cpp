#include "cellsim/spu.hpp"

#include <array>
#include <string>

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

// Writes `words` to `box` in one push.  The SPU's stall on a full mailbox
// between words was never charged (a word's stamp is its SPU clock plus
// any probe stall plus mbox_spu_write), so the stamps are computed first
// and the words handed over together; the trace records follow the push,
// as each word's did.  The stamps run on a local cursor, and the SPU
// clock joins it only once the push has returned: the Co-Pilot reads that
// clock from its own thread as a lower bound on every word not yet queued.
void post(const SpuEnv& e, Mailbox& box, const char* which,
          std::span<const std::uint32_t> words) {
  if (words.size() > kMaxPostWords) {
    throw ContextFault(std::string("post of ") + std::to_string(words.size()) +
                       " words to " + which + " of " + e.spe->name() +
                       " exceeds " + std::to_string(kMaxPostWords));
  }
  std::array<MailboxEntry, kMaxPostWords> entries;
  std::array<simtime::SimTime, kMaxPostWords> begins;
  std::size_t n = 0;
  simtime::SimTime cursor = e.spe->clock().now();
  bool fault = false;
  for (const std::uint32_t value : words) {
    const inject::Action act =
        inject::probe(inject::Site::kMboxWrite, e.spe->name().c_str(), cursor);
    cursor += act.delay;
    if (act.fault) {
      fault = true;  // the words before the faulting one are written
      break;
    }
    begins[n] = cursor;
    cursor += e.cost->mbox_spu_write;
    entries[n++] = {value, cursor};
  }
  try {
    box.push_blocking(std::span(entries.data(), n));
  } catch (const MailboxFault&) {
    // A closed mailbox refuses the post whole; the SPU dies where a
    // word-at-a-time write would have: having written word 0.
    e.spe->clock().join(entries[0].stamp);
    throw;
  }
  e.spe->clock().join(cursor);
  if (simtime::tracebuf::armed()) {
    for (std::size_t i = 0; i < n; ++i) {
      simtime::tracebuf::record(simtime::tracebuf::Kind::kMboxPush,
                                e.spe->name(), begins[i], entries[i].stamp,
                                sizeof(std::uint32_t));
    }
  }
  if (fault) {
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

void spu_write_out_mbox(std::span<const std::uint32_t> words) {
  const SpuEnv& e = env();
  post(e, e.spe->outbound_mailbox(), "out_mbox", words);
}

void spu_write_out_intr_mbox(std::uint32_t value) {
  const SpuEnv& e = env();
  post(e, e.spe->outbound_interrupt_mailbox(), "out_intr_mbox",
       std::span(&value, 1));
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
