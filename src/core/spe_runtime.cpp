#include "core/spe_runtime.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "cellsim/errors.hpp"
#include "cellsim/libspe2.hpp"
#include "cellsim/spe.hpp"
#include "cellsim/spu.hpp"
#include "core/faultplan.hpp"
#include "core/metrics.hpp"
#include "core/protocol.hpp"
#include "core/router.hpp"
#include "pilot/context.hpp"
#include "pilot/errors.hpp"

namespace cellpilot {

namespace {

using cellsim::spu::env;

/// The fault plan's crash probe before a request: a crashed SPE dies
/// mid-transfer from its peers' point of view — the request never reaches
/// the Co-Pilot, which discovers the death via the SPE's posthumous fault
/// notice.
void probe_crash_before_request(const PI_CHANNEL& ch) {
  if (faults::FaultPlan::global().armed() &&
      faults::FaultPlan::global().should_crash_spe(
          env().spe->name().c_str())) {
    throw faults::InjectedCrash("injected SPE crash on " + env().spe->name() +
                                " before request on channel " + ch.name);
  }
}

/// Posts one request's words (4 blocking, 5 async) to the Co-Pilot in one
/// mailbox hand-off.  When the fault plan has a spe_crash_mid rule, its
/// probe is asked between words 1 and 2, as it always was, so the request
/// goes in two posts: a crash there leaves the Co-Pilot holding a two-word
/// partial assembly, the harshest death the self-healing path has to
/// absorb.
void post_request(std::span<const std::uint32_t> words,
                  const PI_CHANNEL& ch) {
  static_assert(kAsyncRequestWords <= cellsim::spu::kMaxPostWords);
  faults::FaultPlan& plan = faults::FaultPlan::global();
  if (!plan.armed() || !plan.has_rule(faults::Kind::kSpeCrashMid)) {
    cellsim::spu::spu_write_out_mbox(words);
    return;
  }
  cellsim::spu::spu_write_out_mbox(words.first(2));
  if (plan.should_crash_spe_mid(env().spe->name().c_str())) {
    throw faults::InjectedCrash("injected SPE crash on " + env().spe->name() +
                                " mid-request on channel " + ch.name);
  }
  cellsim::spu::spu_write_out_mbox(words.subspan(2));
}

[[noreturn]] void throw_completion_error(CompletionStatus status,
                                         const PI_CHANNEL& ch) {
  const std::string label = channel_label(ch);
  switch (status) {
    case CompletionStatus::kTypeMismatch:
      throw pilot::PilotError(pilot::ErrorCode::kTypeMismatch,
                              label +
                                  ": writer format does not match reader "
                                  "format (reported by Co-Pilot)");
    case CompletionStatus::kSizeMismatch:
      throw pilot::PilotError(pilot::ErrorCode::kTypeMismatch,
                              label +
                                  ": payload size disagreement "
                                  "(reported by Co-Pilot)");
    case CompletionStatus::kSpeFault:
      throw pilot::PilotError(pilot::ErrorCode::kSpeFault,
                              label +
                                  ": peer SPE died of a hardware fault "
                                  "(reported by Co-Pilot)");
    case CompletionStatus::kSpeTimeout:
      throw pilot::PilotError(pilot::ErrorCode::kSpeTimeout,
                              label +
                                  ": request missed its Co-Pilot deadline "
                                  "(SPE stalled)");
    case CompletionStatus::kCopilotFault:
      throw pilot::PilotError(pilot::ErrorCode::kCopilotFault,
                              label +
                                  ": serving Co-Pilot crashed; request "
                                  "could not be replayed by the standby");
    case CompletionStatus::kSpeRestarted:
      throw pilot::PilotError(pilot::ErrorCode::kSpeRestarted,
                              label +
                                  ": peer SPE was respawned and this "
                                  "operation could not be replayed against "
                                  "the new incarnation");
    default:
      throw pilot::PilotError(pilot::ErrorCode::kInternal,
                              label + ": Co-Pilot protocol error");
  }
}

/// RAII local-store staging buffer.
class Staging {
 public:
  explicit Staging(std::size_t bytes)
      : addr_(cellsim::spu::ls_alloc(std::max<std::size_t>(bytes, 16), 16)),
        bytes_(bytes) {}
  ~Staging() {
    if (owned_) cellsim::spu::ls_free(addr_);
  }
  Staging(const Staging&) = delete;
  Staging& operator=(const Staging&) = delete;

  cellsim::LsAddr addr() const { return addr_; }
  std::byte* ptr() {
    return static_cast<std::byte*>(
        cellsim::spu::ls_ptr(addr_, std::max<std::size_t>(bytes_, 16)));
  }

  /// Hands ownership to the caller (an async operation parks the buffer
  /// until harvest); the destructor then leaves it alone.
  cellsim::LsAddr disown() {
    owned_ = false;
    const cellsim::LsAddr a = addr_;
    addr_ = 0;
    return a;
  }

 private:
  cellsim::LsAddr addr_;
  std::size_t bytes_;
  bool owned_ = true;
};

/// Local-store pointer for a parked async staging buffer.
std::byte* parked_ptr(const PI_OP& op) {
  return static_cast<std::byte*>(cellsim::spu::ls_ptr(
      op.ls_addr, std::max<std::uint32_t>(op.ls_bytes, 16)));
}

/// Routes one arrived completion word to its operation.  `lenient` is the
/// abandoned-handle drain, which must not throw across the SPE epilogue.
void dispatch_completion_word(std::uint32_t word, bool lenient) {
  auto& engine = completion::Engine::local();
  PI_OP* op = engine.find_token(unpack_completion_token(word));
  if (op == nullptr || completion::is_settled(*op)) {
    if (lenient) return;
    throw pilot::PilotError(pilot::ErrorCode::kInternal,
                            "Co-Pilot completion word matches no in-flight "
                            "async operation on this SPE");
  }
  const auto status = unpack_completion_status(word);
  op->status.store(static_cast<std::uint32_t>(status),
                   std::memory_order_relaxed);
  completion::set_state(*op, status == CompletionStatus::kOk
                                  ? completion::State::kComplete
                                  : completion::State::kFaulted);
}

/// Consumes every completion word already sitting in the inbound mailbox
/// without stalling.
void drain_available_completions(bool lenient) {
  while (cellsim::spu::spu_stat_in_mbox() > 0) {
    dispatch_completion_word(cellsim::spu::spu_read_in_mbox(), lenient);
  }
}

/// Frees the parked staging buffer (idempotent).
void free_parked(PI_OP& op) {
  if (op.ls_addr != 0) {
    cellsim::spu::ls_free(op.ls_addr);
    op.ls_addr = 0;
  }
}

bool is_write(completion::Kind kind) {
  return kind == completion::Kind::kWrite;
}

/// Charges the SPU side of one channel call; returns the clock before the
/// charge, the call's begin stamp.
simtime::SimTime charge_spu_call() {
  const auto& e = env();
  const simtime::SimTime begin = e.spe->clock().now();
  e.spe->clock().advance(e.cost->spu_call_overhead);
  return begin;
}

/// Readies `staging` for one request on `ch`, up to its post.  A write
/// copies `data` in (on hardware the user's buffer is already in local
/// store, so the copy is a simulation artifact and is not charged virtual
/// time); a read's staging waits for the Co-Pilot to fill it.  With metrics
/// armed, a write pushes its latency-ledger stamp `begin` here: every check
/// that can refuse the request has passed, so a refused request leaves no
/// stamp, and the request is not posted yet, so the push happens-before
/// the reader's pop.  Then the fault plan's crash probe.
void ready_request(Staging& staging, completion::Kind kind,
                   const PI_CHANNEL& ch, std::span<const std::byte> data,
                   simtime::SimTime begin) {
  if (is_write(kind)) {
    if (!data.empty()) std::memcpy(staging.ptr(), data.data(), data.size());
    if (simtime::metrics::armed()) {
      metrics::LatencyLedger::global().push(ch.id, begin);
    }
  }
  probe_crash_before_request(ch);
}

/// Copies a settled read's staging out, frees local store, and converts a
/// faulted completion into the PilotError the blocking tier would throw.
void harvest_settled(PI_OP& op, const PI_CHANNEL& ch,
                     std::span<std::byte> out) {
  completion::Engine::local().untrack(&op);
  const auto status =
      static_cast<CompletionStatus>(op.status.load(std::memory_order_relaxed));
  if (completion::op_state(op) == completion::State::kFaulted) {
    free_parked(op);
    throw_completion_error(status, ch);
  }
  if (op.kind == completion::Kind::kRead && !out.empty()) {
    std::memcpy(out.data(), parked_ptr(op), out.size());
  }
  free_parked(op);
}

}  // namespace

void spe_channel_op(completion::Kind kind, const PI_CHANNEL& ch,
                    std::uint32_t sig, std::span<std::byte> data) {
  auto& engine = completion::Engine::local();
  if (engine.inflight() > 0) {
    // Async operations are outstanding, so every inbound-mailbox word is a
    // packed completion: the blocking op must travel the async opcode path
    // too, or its bare-status completion would be misread.
    PI_OP* op = engine.create(kind);
    op->spe_side = true;
    op->blocking = true;
    op->channel = ch.id;
    try {
      spe_submit_channel_op(*op, ch, sig, data);
      spe_wait_channel_op(*op, ch, data);  // copies out for a read only
    } catch (...) {
      engine.release(op);
      throw;
    }
    engine.release(op);
    return;
  }

  const simtime::SimTime begin = charge_spu_call();
  Staging staging(data.size());
  ready_request(staging, kind, ch, data, begin);
  const std::array<std::uint32_t, kRequestWords> words{
      pack_op_channel(is_write(kind) ? Opcode::kWrite : Opcode::kRead, ch.id),
      staging.addr(), static_cast<std::uint32_t>(data.size()), sig};
  post_request(words, ch);
  const auto status =
      static_cast<CompletionStatus>(cellsim::spu::spu_read_in_mbox());
  if (status != CompletionStatus::kOk) {
    throw_completion_error(status, ch);
  }
  if (!is_write(kind) && !data.empty()) {
    std::memcpy(data.data(), staging.ptr(), data.size());
  }
}

void spe_submit_channel_op(PI_OP& op, const PI_CHANNEL& ch,
                           std::uint32_t sig,
                           std::span<const std::byte> data) {
  const simtime::SimTime begin = charge_spu_call();
  auto& engine = completion::Engine::local();
  // Harvest any words that already arrived, then enforce the in-flight
  // cap that keeps the Co-Pilot's completion pushes non-blocking.
  drain_available_completions(/*lenient=*/false);
  if (engine.inflight() >=
      static_cast<int>(cellsim::kInboundMailboxDepth)) {
    throw pilot::PilotError(
        pilot::ErrorCode::kUsage,
        channel_label(ch) +
            ": too many outstanding async operations on this SPE (the "
            "inbound mailbox holds " +
            std::to_string(cellsim::kInboundMailboxDepth) +
            " completions; wait on a handle first)");
  }

  Staging staging(data.size());
  ready_request(staging, op.kind, ch, data, begin);
  op.token = engine.next_token();
  op.signature = sig;
  op.bytes = data.size();
  completion::set_state(op, completion::State::kStaged);
  const std::array<std::uint32_t, kAsyncRequestWords> words{
      pack_op_channel(
          is_write(op.kind) ? Opcode::kWriteAsync : Opcode::kReadAsync,
          ch.id),
      staging.addr(), static_cast<std::uint32_t>(data.size()), sig, op.token};
  post_request(words, ch);
  op.ls_bytes = static_cast<std::uint32_t>(data.size());
  op.ls_addr = staging.disown();
  completion::set_state(op, completion::State::kInFlight);
  engine.track(&op);
}

void spe_wait_channel_op(PI_OP& op, const PI_CHANNEL& ch,
                         std::span<std::byte> out) {
  while (!completion::is_settled(op)) {
    dispatch_completion_word(cellsim::spu::spu_read_in_mbox(),
                             /*lenient=*/false);
  }
  harvest_settled(op, ch, out);
}

bool spe_test_channel_op(PI_OP& op, const PI_CHANNEL& ch,
                         std::span<std::byte> out) {
  drain_available_completions(/*lenient=*/false);
  if (!completion::is_settled(op)) return false;
  harvest_settled(op, ch, out);
  return true;
}

int spe_wait_any_channel_op(PI_OP* const* ops, int n) {
  for (;;) {
    for (int i = 0; i < n; ++i) {
      if (ops[i] != nullptr && completion::is_settled(*ops[i])) return i;
    }
    dispatch_completion_word(cellsim::spu::spu_read_in_mbox(),
                             /*lenient=*/false);
  }
}

void spe_drain_outstanding() {
  // Settle and discard every abandoned handle (lenient: a fault parked on
  // one is not this program's problem any more), so the context hands the
  // next occupant an empty mailbox.
  auto& engine = completion::Engine::local();
  for (;;) {
    for (PI_OP* op : engine.snapshot_inflight()) {
      if (completion::is_settled(*op)) {
        free_parked(*op);
        engine.release(op);
      }
    }
    if (engine.inflight() == 0) break;
    dispatch_completion_word(cellsim::spu::spu_read_in_mbox(),
                             /*lenient=*/true);
  }
}

void launch_spe(pilot::PilotApp& app, int node, unsigned flat, int process_id,
                const pilot::PilotApp::LaunchRecipe& recipe,
                simtime::SimTime start, RetireHook on_retire) {
  app.bind_spe_process(node, flat, process_id);
  app.begin_launch(process_id, recipe);
  cellsim::Spe& spe = app.cluster().spe(node, flat);
  mpisim::World& world = app.cluster().world();
  auto launch = std::make_unique<SpeLaunchArgs>(
      SpeLaunchArgs{&app, process_id, recipe.arg, recipe.ptr});
  std::thread t([&app, &spe, &world, program = recipe.program,
                 launch = std::move(launch), node, flat, process_id, start,
                 on_retire, name = app.process(process_id).name] {
    spe.clock().join(start);
    bool faulted = false;
    try {
      cellsim::spe2::SpeContext sctx(spe);
      sctx.run(*program, cellsim::ea_of(launch.get()), 0);
    } catch (const mpisim::WorldAborted&) {
      // Job torn down elsewhere.
    } catch (const cellsim::HardwareFault& f) {
      // A hardware fault is survivable: leave a posthumous notice for the
      // Co-Pilot, which respawns the process or converts the death into
      // PI_SPE_FAULT completions at every peer instead of tearing the job
      // down.  (During an abort the closed mailboxes throw MailboxFault in
      // parked SPEs — that is teardown, not a new death.)
      if (!world.aborted()) {
        faulted = true;
        spe.raise_fault(f.fault_code(), spe.clock().now(),
                        "SPE process " + name + ": " + f.what());
      }
    } catch (const std::exception& e) {
      if (!world.aborted()) {
        world.abort("SPE process " + name + " failed: " + e.what());
      }
    }
    // A faulted SPE is never returned to the pool: its slot must stay
    // bound to the dead process until the Co-Pilot consumes the fault
    // notice, and a later launch must not inherit a haunted context.
    // (Real hardware keeps a crashed SPE context out of service too.)
    if (!faulted) {
      if (on_retire != nullptr) on_retire(spe, process_id);
      app.release_spe(node, flat);
    }
    app.end_launch(process_id);
  });
  app.add_spe_thread(process_id, std::move(t));
}

namespace detail {

int run_spe_body(std::uint64_t argp, SpeBody body) {
  auto* launch = static_cast<SpeLaunchArgs*>(
      cellsim::ptr_of(static_cast<cellsim::EffectiveAddress>(argp)));
  if (launch == nullptr || launch->app == nullptr) {
    throw pilot::PilotError(pilot::ErrorCode::kInternal,
                            "SPE program started without launch arguments "
                            "(use PI_RunSPE)");
  }

  // The CellPilot SPE runtime occupies local store for the life of the
  // program — the footprint the paper measures in §V.
  cellsim::spu::self().allocator().reserve_segment(
      "text:cellpilot-runtime", kCellPilotSpuFootprintBytes);

  pilot::SpeDispatch dispatch;
  dispatch.app = launch->app;
  dispatch.process_id = launch->process_id;
  pilot::bind_spe_dispatch(&dispatch);
  int status = 0;
  try {
    status = body(launch->arg, launch->ptr);
    // Handles the program leaked are settled and discarded here, so a
    // pooled context (PI_SpawnSPE reuse) starts with an empty mailbox and
    // no Co-Pilot is ever left holding a completion nobody will read.
    spe_drain_outstanding();
  } catch (...) {
    pilot::bind_spe_dispatch(nullptr);
    throw;
  }
  pilot::bind_spe_dispatch(nullptr);
  return status;
}

}  // namespace detail

}  // namespace cellpilot
