// api.cpp — implementation of the public PI_* API (rank-side paths and
// dispatch; SPE-side data movement is delegated to the registered
// CellTransport, implemented by the CellPilot layer in src/core).
#include "pilot/pilot.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "cellsim/spu.hpp"
#include "core/checkpoint.hpp"
#include "core/completion.hpp"
#include "core/epoch.hpp"
#include "core/faultplan.hpp"
#include "core/metrics.hpp"
#include "core/obs.hpp"
#include "core/protocol.hpp"
#include "core/router.hpp"
#include "core/telemetry.hpp"
#include "core/trace.hpp"
#include "mpisim/reliable.hpp"
#include "pilot/byteorder.hpp"
#include "pilot/context.hpp"
#include "pilot/deadlock.hpp"
#include "pilot/wire.hpp"
#include "simtime/timeseries.hpp"
#include "simtime/tracebuf.hpp"

namespace pilot {
namespace {

/// va_end on scope exit.
struct VaGuard {
  va_list& ap;
  ~VaGuard() { va_end(ap); }
};

[[noreturn]] void usage_error(const char* file, int line,
                              const std::string& detail) {
  throw PilotError(ErrorCode::kUsage, detail, file, line);
}

PilotContext& ctx_in_phase(Phase phase, const char* what,
                           const char* file = nullptr, int line = 0) {
  PilotContext& ctx = context();
  if (ctx.phase != phase) {
    throw PilotError(ErrorCode::kUsage,
                     std::string(what) + " called in the wrong phase", file,
                     line);
  }
  return ctx;
}

/// Charges the Pilot library cost of one call moving `bytes` of payload.
void charge_rank_call(PilotContext& ctx, std::size_t bytes) {
  const simtime::CostModel& cost = ctx.app().cluster().cost();
  ctx.mpi().clock().advance(cost.pilot_call_overhead +
                            cost.pilot_per_byte *
                                static_cast<simtime::SimTime>(bytes));
}

/// The compiled route of a channel.  Every data-plane entry point reaches a
/// route only after its phase check, so a null pointer is an internal bug,
/// not user error.
cellpilot::Route& route_of(const PI_CHANNEL& ch, const char* file, int line) {
  if (ch.route == nullptr) {
    throw PilotError(ErrorCode::kInternal,
                     "channel " + ch.name +
                         " has no compiled route (PI_StartAll missing?)",
                     file, line);
  }
  return *ch.route;
}

/// Signature of the message about to cross the wire: precomputed for fully
/// static formats, derived from the resolved counts for '*' formats.
std::uint32_t wire_signature(const cellpilot::FormatPlan& plan,
                             std::span<const std::uint32_t> counts) {
  return plan.has_star ? signature(plan.parsed, counts) : plan.wire_signature;
}

/// Overwrites the header slot at the front of `staging` ([header][payload]).
/// `epoch` is the channel's current writer incarnation (0 until supervision
/// ever respawns the writer, which never happens to a rank writer — the
/// stamp keeps the wire self-describing either way).
void frame_in_place(std::vector<std::byte>& staging, std::uint32_t sig,
                    std::uint32_t epoch) {
  WireHeader hdr;
  hdr.magic = kWireMagic;
  hdr.signature = sig;
  hdr.epoch = epoch;
  hdr.payload_bytes = staging.size() - sizeof(WireHeader);
  std::memcpy(staging.data(), &hdr, sizeof hdr);
}

/// Throws the rank-side error for a channel whose SPE peer died: the same
/// one-line shape every fault diagnostic uses — source location (from the
/// PI_ macro), channel name, Table I type, and the Co-Pilot's detail.
[[noreturn]] void throw_peer_failure(std::uint32_t status,
                                     const std::string& detail,
                                     const PI_CHANNEL& ch, const char* file,
                                     int line) {
  ErrorCode code = ErrorCode::kSpeFault;
  if (status == static_cast<std::uint32_t>(
                    cellpilot::CompletionStatus::kSpeTimeout)) {
    code = ErrorCode::kSpeTimeout;
  } else if (status == static_cast<std::uint32_t>(
                           cellpilot::CompletionStatus::kCopilotFault)) {
    code = ErrorCode::kCopilotFault;
  } else if (status == static_cast<std::uint32_t>(
                           cellpilot::CompletionStatus::kSpeRestarted)) {
    code = ErrorCode::kSpeRestarted;
  }
  std::string label = "channel " + ch.name;
  if (ch.route != nullptr) {
    label += " (Table I type " +
             std::to_string(static_cast<int>(ch.route->type)) + ")";
  }
  throw PilotError(code, label + ": " + detail, file, line);
}

/// Receives one channel frame for a rank-side reader, discarding fault
/// frames from a superseded writer incarnation.  A stale-epoch PILF
/// describes a death that Co-Pilot supervision already absorbed with a
/// respawn — surfacing it would fail an operation the fresh incarnation is
/// about to satisfy.  Data frames are never epoch-filtered: bytes a dying
/// incarnation delivered are good bytes (exactly-once is the completion
/// engine's job, not the reader's).  Deaths that exhaust the respawn budget
/// re-poison the channel with a *current*-epoch PILF, so the loop cannot
/// starve a real failure.
std::vector<std::byte> recv_channel_frame(PilotContext& ctx,
                                          const PI_CHANNEL& ch,
                                          const cellpilot::Route& rt) {
  for (;;) {
    std::vector<std::byte> framed =
        ctx.mpi().recv_any_size(rt.read_source, rt.tag);
    if (is_fault_frame(framed) &&
        parse_fault_frame(framed).epoch < cellpilot::epochs::current(ch.id)) {
      continue;
    }
    return framed;
  }
}

/// A fault frame that reports the writing SPE's *own* death also lands in
/// the process-failure registry.  The Co-Pilot publishes the death there
/// too, but only after its wire deposits — a rank that consumed the frame
/// first could otherwise act (e.g. PI_SpawnSPE the dead process's slot)
/// before the registry catches up.  Recording at the observation point
/// makes "this rank saw the death" happen-before everything the rank does
/// next.  First report wins, so double recording is harmless; Co-Pilot
/// faults are *not* recorded — the writer process is still alive then.
void note_peer_death(PilotApp& app, const PI_CHANNEL& ch,
                     const FaultFrame& fault) {
  if (fault.status ==
          static_cast<std::uint32_t>(cellpilot::CompletionStatus::kSpeFault) ||
      fault.status == static_cast<std::uint32_t>(
                          cellpilot::CompletionStatus::kSpeTimeout)) {
    app.report_process_failure(
        ch.from, {fault.status, fault.fault_code, fault.detail});
  }
}

CellTransport& transport_or_die(PilotApp& app, const char* file, int line) {
  if (app.transport() == nullptr) {
    throw PilotError(ErrorCode::kUsage,
                     "channel has an SPE endpoint but the CellPilot "
                     "transport is not active (plain Pilot run?)",
                     file, line);
  }
  return *app.transport();
}

void write_impl(const char* file, int line, PI_CHANNEL* ch, const char* fmt,
                va_list args) {
  if (ch == nullptr) usage_error(file, line, "PI_Write: null channel");

  // --- SPE-side writer ------------------------------------------------
  if (SpeDispatch* sd = spe_dispatch()) {
    if (sd->process_id != ch->from) {
      throw PilotError(ErrorCode::kEndpoint,
                       "process P" + std::to_string(sd->process_id) +
                           " is not the writer of channel " + ch->name,
                       file, line);
    }
    cellpilot::Route& rt = route_of(*ch, file, line);
    cellpilot::WriterState& ws = rt.writer;
    const cellpilot::FormatPlan& plan = ws.formats.lookup(fmt);
    ws.staging.clear();
    marshal_append(plan.parsed, args, ws.staging, ws.counts);
    const std::uint32_t sig = wire_signature(plan, ws.counts);
    if (rt.writer_big_endian) {
      swap_element_bytes(plan.parsed, ws.counts, ws.staging);
    }
    const simtime::SimTime begin = cellsim::spu::self().clock().now();
    // The latency ledger push happens *before* the transport hand-off so
    // it happens-before any read completion of this message (the reader's
    // pop can otherwise race a type-4/5 writer's host-side return).
    if (simtime::metrics::armed()) {
      cellpilot::metrics::LatencyLedger::global().push(ch->id, begin);
    }
    sd->app->transport()->spe_write(*ch, sig, ws.staging);
    cellpilot::trace::ChannelCounters::global().add_message(ch->id,
                                                            ws.staging.size());
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(simtime::tracebuf::Kind::kSpeWrite,
                                cellsim::spu::self().name(), begin,
                                cellsim::spu::self().clock().now(),
                                ws.staging.size(), ch->id,
                                static_cast<std::int8_t>(rt.type));
    }
    if (simtime::timeseries::armed()) {
      simtime::timeseries::record(
          simtime::timeseries::Kind::kSent,
          static_cast<std::int8_t>(rt.type), ch->id,
          cellsim::spu::self().name(), begin,
          static_cast<std::int64_t>(ws.staging.size()));
    }
    return;
  }

  // --- rank-side writer -------------------------------------------------
  PilotContext& ctx = ctx_in_phase(Phase::kExecution, "PI_Write", file, line);
  if (ctx.my_process != ch->from) {
    throw PilotError(ErrorCode::kEndpoint,
                     "process P" + std::to_string(ctx.my_process) +
                         " is not the writer of channel " + ch->name,
                     file, line);
  }
  PilotApp& app = ctx.app();
  cellpilot::Route& rt = route_of(*ch, file, line);
  if (rt.needs_transport) transport_or_die(app, file, line);
  // A reader that already died can never consume this message: fail the
  // write with the peer's recorded failure instead of sending into a void.
  if (auto failure = app.process_failure(ch->to)) {
    throw_peer_failure(failure->status, failure->detail, *ch, file, line);
  }

  // Stage [header][payload] in the channel's reused buffer and send it as
  // one frame; rank-backed writers always MPI-send — to the reader's rank,
  // or to the Co-Pilot standing in for a reading SPE.
  cellpilot::WriterState& ws = rt.writer;
  const cellpilot::FormatPlan& plan = ws.formats.lookup(fmt);
  ws.staging.resize(sizeof(WireHeader));
  marshal_append(plan.parsed, args, ws.staging, ws.counts);
  const std::size_t payload_bytes = ws.staging.size() - sizeof(WireHeader);
  const std::uint32_t sig = wire_signature(plan, ws.counts);
  const simtime::SimTime call_begin = ctx.mpi().clock().now();
  charge_rank_call(ctx, payload_bytes);

  const std::span<std::byte> payload =
      std::span(ws.staging).subspan(sizeof(WireHeader));
  if (rt.writer_big_endian) {
    swap_element_bytes(plan.parsed, ws.counts, payload);
  }
  const std::uint32_t epoch = cellpilot::epochs::current(ch->id);
  frame_in_place(ws.staging, sig, epoch);
  if (simtime::metrics::armed()) {
    cellpilot::metrics::LatencyLedger::global().push(ch->id, call_begin);
  }
  mpisim::reliable::set_send_epoch(epoch);
  ctx.mpi().send(ws.staging.data(), ws.staging.size(), rt.write_dest, rt.tag);
  cellpilot::trace::ChannelCounters::global().add_message(ch->id,
                                                          payload_bytes);
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(
        simtime::tracebuf::Kind::kPilotWrite,
        ctx.app().cluster().world().info(ctx.rank()).name, call_begin,
        ctx.mpi().clock().now(), payload_bytes, ch->id,
        static_cast<std::int8_t>(rt.type));
  }
  if (simtime::timeseries::armed()) {
    simtime::timeseries::record(
        simtime::timeseries::Kind::kSent, static_cast<std::int8_t>(rt.type),
        ch->id, ctx.app().cluster().world().info(ctx.rank()).name,
        call_begin, static_cast<std::int64_t>(payload_bytes));
  }
}

void read_impl(const char* file, int line, PI_CHANNEL* ch, const char* fmt,
               va_list args) {
  if (ch == nullptr) usage_error(file, line, "PI_Read: null channel");

  // --- SPE-side reader --------------------------------------------------
  if (SpeDispatch* sd = spe_dispatch()) {
    if (sd->process_id != ch->to) {
      throw PilotError(ErrorCode::kEndpoint,
                       "process P" + std::to_string(sd->process_id) +
                           " is not the reader of channel " + ch->name,
                       file, line);
    }
    cellpilot::Route& rt = route_of(*ch, file, line);
    cellpilot::ReaderState& rs = rt.reader;
    const cellpilot::FormatPlan& plan = rs.formats.lookup(fmt);
    build_read_plan_into(plan.parsed, args, rs.plan);
    const std::uint32_t sig =
        plan.has_star ? signature(rs.plan.fmt) : plan.wire_signature;
    rs.staging.resize(rs.plan.payload_bytes);
    const simtime::SimTime begin = cellsim::spu::self().clock().now();
    sd->app->transport()->spe_read(*ch, sig, rs.staging);
    const simtime::SimTime end = cellsim::spu::self().clock().now();
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(simtime::tracebuf::Kind::kSpeRead,
                                cellsim::spu::self().name(), begin, end,
                                rs.staging.size(), ch->id,
                                static_cast<std::int8_t>(rt.type));
    }
    if (simtime::metrics::armed()) {
      namespace sm = simtime::metrics;
      const std::string& entity = cellsim::spu::self().name();
      const auto route = static_cast<std::int8_t>(rt.type);
      sm::record(sm::Kind::kReadBlock, route, ch->id, entity, end - begin);
      simtime::SimTime write_begin = 0;
      if (cellpilot::metrics::LatencyLedger::global().pop(ch->id,
                                                          &write_begin)) {
        sm::record(sm::Kind::kMsgLatency, route, ch->id, entity,
                   end - write_begin);
      }
    }
    if (simtime::timeseries::armed()) {
      simtime::timeseries::record(
          simtime::timeseries::Kind::kDelivered,
          static_cast<std::int8_t>(rt.type), ch->id,
          cellsim::spu::self().name(), end,
          static_cast<std::int64_t>(rs.staging.size()));
    }
    if (rt.writer_big_endian) swap_element_bytes(rs.plan.fmt, rs.staging);
    scatter(rs.plan, rs.staging);
    return;
  }

  // --- rank-side reader ---------------------------------------------------
  PilotContext& ctx = ctx_in_phase(Phase::kExecution, "PI_Read", file, line);
  if (ctx.my_process != ch->to) {
    throw PilotError(ErrorCode::kEndpoint,
                     "process P" + std::to_string(ctx.my_process) +
                         " is not the reader of channel " + ch->name,
                     file, line);
  }
  PilotApp& app = ctx.app();
  cellpilot::Route& rt = route_of(*ch, file, line);
  if (rt.needs_transport) transport_or_die(app, file, line);

  // Rank-backed readers always receive one MPI frame — from the writer's
  // rank, or from the Co-Pilot relaying for a writing SPE.
  cellpilot::ReaderState& rs = rt.reader;
  const cellpilot::FormatPlan& plan = rs.formats.lookup(fmt);
  build_read_plan_into(plan.parsed, args, rs.plan);
  const std::uint32_t sig =
      plan.has_star ? signature(rs.plan.fmt) : plan.wire_signature;
  // A writer that died can no longer satisfy this read.  Anything already
  // on the wire (data or the Co-Pilot's fault frame) is consumed first;
  // with the wire empty, fail immediately instead of blocking forever.
  if (auto failure = app.process_failure(ch->from)) {
    if (!ctx.mpi().iprobe(rt.read_source, rt.tag)) {
      throw_peer_failure(failure->status, failure->detail, *ch, file, line);
    }
  }
  const simtime::SimTime call_begin = ctx.mpi().clock().now();
  notify_block(ctx, ch->from, ch->id);
  std::vector<std::byte> framed = recv_channel_frame(ctx, *ch, rt);
  notify_unblock(ctx);
  if (is_fault_frame(framed)) {
    const FaultFrame fault = parse_fault_frame(framed);
    note_peer_death(app, *ch, fault);
    throw_peer_failure(fault.status, fault.detail, *ch, file, line);
  }
  check_frame(framed, sig, rs.plan.payload_bytes, "channel " + ch->name);
  const std::span<std::byte> payload =
      std::span(framed).subspan(sizeof(WireHeader));
  if (rt.writer_big_endian) swap_element_bytes(rs.plan.fmt, payload);
  scatter(rs.plan, payload);
  charge_rank_call(ctx, rs.plan.payload_bytes);
  const simtime::SimTime call_end = ctx.mpi().clock().now();
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kPilotRead,
                              app.cluster().world().info(ctx.rank()).name,
                              call_begin, call_end, rs.plan.payload_bytes,
                              ch->id, static_cast<std::int8_t>(rt.type));
  }
  if (simtime::metrics::armed()) {
    namespace sm = simtime::metrics;
    const std::string& entity = app.cluster().world().info(ctx.rank()).name;
    const auto route = static_cast<std::int8_t>(rt.type);
    sm::record(sm::Kind::kReadBlock, route, ch->id, entity,
               call_end - call_begin);
    simtime::SimTime write_begin = 0;
    if (cellpilot::metrics::LatencyLedger::global().pop(ch->id,
                                                        &write_begin)) {
      sm::record(sm::Kind::kMsgLatency, route, ch->id, entity,
                 call_end - write_begin);
    }
  }
  if (simtime::timeseries::armed()) {
    simtime::timeseries::record(
        simtime::timeseries::Kind::kDelivered,
        static_cast<std::int8_t>(rt.type), ch->id,
        app.cluster().world().info(ctx.rank()).name, call_end,
        static_cast<std::int64_t>(rs.plan.payload_bytes));
  }
}

// --- async tier -----------------------------------------------------------
//
// PI_WriteAsync / PI_ReadAsync are the submit half of the blocking calls:
// they do everything the blocking path does up to (and including) the
// transport hand-off, then return a PI_HANDLE.  The harvest half (PI_Wait /
// PI_Test / PI_WaitAny / PI_SelectAny) does the rest.  Async operations
// record the dedicated op_submit / op_complete trace kinds and the
// handle_wait metric series — never the blocking kinds (pilot_write /
// pilot_read / spe_write / spe_read / read_block), so a blocking-only
// program's observability output is byte-identical with or without the
// async tier in the build.

namespace cp = cellpilot::completion;

std::string rank_entity(PilotContext& ctx) {
  return ctx.app().cluster().world().info(ctx.rank()).name;
}

/// Checked handle -> operation: non-null, owned by the calling thread's
/// engine, and not yet harvested.
PI_OP& checked_op(PI_HANDLE h, const char* what, const char* file, int line) {
  if (h == nullptr) {
    usage_error(file, line, std::string(what) + ": null handle");
  }
  if (!cp::Engine::local().owns(h)) {
    throw PilotError(
        ErrorCode::kUsage,
        std::string(what) + ": handle was not submitted by this thread "
        "(handles must be harvested by their submitting thread)",
        file, line);
  }
  if (cp::op_state(*h) == cp::State::kReleased) {
    throw PilotError(ErrorCode::kUsage,
                     std::string(what) +
                         ": handle already harvested (double wait?)",
                     file, line);
  }
  return *h;
}

/// Records the op_complete event plus the handle metrics of a harvest.
/// The message-latency ledger pops at the *harvest* of an async read (the
/// moment the destinations are filled), mirroring the blocking read's pop.
void record_harvest(const PI_OP& op, const PI_CHANNEL& ch,
                    const std::string& entity, simtime::SimTime wait_begin,
                    simtime::SimTime end) {
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kOpComplete, entity,
                              wait_begin, end, op.bytes, ch.id,
                              op.route_type);
  }
  if (simtime::metrics::armed()) {
    namespace sm = simtime::metrics;
    sm::record(sm::Kind::kHandleWait, op.route_type, ch.id, entity,
               end - wait_begin);
    if (op.kind == cp::Kind::kRead) {
      simtime::SimTime write_begin = 0;
      if (cellpilot::metrics::LatencyLedger::global().pop(ch.id,
                                                          &write_begin)) {
        sm::record(sm::Kind::kMsgLatency, op.route_type, ch.id, entity,
                   end - write_begin);
      }
    }
  }
  if (simtime::timeseries::armed()) {
    namespace ts = simtime::timeseries;
    if (op.kind == cp::Kind::kRead) {
      ts::record(ts::Kind::kDelivered, op.route_type, ch.id, entity, end,
                 static_cast<std::int64_t>(op.bytes));
    }
    // Pending-op gauge at the harvest point: the op being harvested is
    // still live (released just after), so the gauge pairs exactly with
    // the submit-side sample and per-thread ordering keeps it
    // deterministic.
    ts::record(ts::Kind::kPendingOps, 0, -1, entity, end,
               cp::Engine::local().live());
  }
}

/// Records the op_submit event for a freshly submitted operation.
void record_submit(const PI_OP& op, const std::string& entity,
                   simtime::SimTime end) {
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kOpSubmit, entity,
                              op.submit_begin, end, op.bytes, op.channel,
                              op.route_type);
  }
  if (simtime::timeseries::armed()) {
    namespace ts = simtime::timeseries;
    if (op.kind == cp::Kind::kWrite) {
      // Async writes settle at submission (the frame is on the wire), so
      // the sent counter samples here, mirroring the blocking write seam.
      ts::record(ts::Kind::kSent, op.route_type, op.channel, entity, end,
                 static_cast<std::int64_t>(op.bytes));
    }
    ts::record(ts::Kind::kPendingOps, 0, -1, entity, end,
               cp::Engine::local().live());
  }
}

/// Rank-side harvest: retires a write handle, performs the deferred
/// receive of a read handle.  Releases `op` on every path, throwing the
/// recorded fault for faulted operations.
void rank_harvest(PilotContext& ctx, PI_OP& op, const char* file,
                  int line) {
  cp::Engine& engine = cp::Engine::local();
  PilotApp& app = ctx.app();
  PI_CHANNEL& ch = app.channel(op.channel);
  cellpilot::Route& rt = route_of(ch, file, line);
  const simtime::SimTime wait_begin = ctx.mpi().clock().now();
  const std::string entity = rank_entity(ctx);
  if (cp::op_state(op) == cp::State::kFaulted) {
    const std::uint32_t status = op.status.load(std::memory_order_relaxed);
    const std::string detail = op.fault_detail;
    engine.release(&op);
    throw_peer_failure(status, detail, ch, file, line);
  }
  if (op.kind == cp::Kind::kWrite) {
    // Rank-side writes settle at submission (the frame is on the wire);
    // harvesting just retires the handle.
    charge_rank_call(ctx, 0);
    const simtime::SimTime end = ctx.mpi().clock().now();
    record_harvest(op, ch, entity, wait_begin, end);
    engine.release(&op);
    return;
  }
  // Read: the deferred receive.  A writer that died after submission with
  // nothing left on the wire can never satisfy it — fail fast like PI_Read.
  if (auto failure = app.process_failure(ch.from)) {
    if (!ctx.mpi().iprobe(rt.read_source, rt.tag)) {
      engine.release(&op);
      throw_peer_failure(failure->status, failure->detail, ch, file, line);
    }
  }
  notify_block(ctx, ch.from, ch.id);
  std::vector<std::byte> framed = recv_channel_frame(ctx, ch, rt);
  notify_unblock(ctx);
  try {
    if (is_fault_frame(framed)) {
      const FaultFrame fault = parse_fault_frame(framed);
      note_peer_death(app, ch, fault);
      throw_peer_failure(fault.status, fault.detail, ch, file, line);
    }
    check_frame(framed, op.signature, op.plan.payload_bytes,
                "channel " + ch.name);
  } catch (...) {
    engine.release(&op);
    throw;
  }
  const std::span<std::byte> payload =
      std::span(framed).subspan(sizeof(WireHeader));
  if (rt.writer_big_endian) swap_element_bytes(op.plan.fmt, payload);
  scatter(op.plan, payload);
  charge_rank_call(ctx, op.plan.payload_bytes);
  const simtime::SimTime end = ctx.mpi().clock().now();
  record_harvest(op, ch, entity, wait_begin, end);
  engine.release(&op);
}

/// SPE-side harvest through the transport.  `wait` selects blocking wait
/// vs. poll; returns false only for a poll that found `op` still in
/// flight.  Releases `op` whenever it settles (including fault throws).
bool spe_harvest(SpeDispatch& sd, PI_OP& op, bool wait, const char* file,
                 int line) {
  cp::Engine& engine = cp::Engine::local();
  PI_CHANNEL& ch = sd.app->channel(op.channel);
  const simtime::SimTime wait_begin = cellsim::spu::self().clock().now();
  std::span<std::byte> out;
  if (op.kind == cp::Kind::kRead) {
    op.data.resize(op.bytes);
    out = std::span(op.data);
  }
  bool settled = true;
  try {
    if (wait) {
      sd.app->transport()->spe_wait(op, ch, out);
    } else {
      settled = sd.app->transport()->spe_test(op, ch, out);
    }
  } catch (...) {
    engine.release(&op);
    throw;
  }
  if (!settled) return false;
  if (op.kind == cp::Kind::kRead) {
    cellpilot::Route& rt = route_of(ch, file, line);
    if (rt.writer_big_endian) swap_element_bytes(op.plan.fmt, out);
    scatter(op.plan, out);
  }
  record_harvest(op, ch, cellsim::spu::self().name(), wait_begin,
                 cellsim::spu::self().clock().now());
  engine.release(&op);
  return true;
}

PI_HANDLE write_async_impl(const char* file, int line, PI_CHANNEL* ch,
                           const char* fmt, va_list args) {
  if (ch == nullptr) usage_error(file, line, "PI_WriteAsync: null channel");
  cp::Engine& engine = cp::Engine::local();

  // --- SPE-side writer ----------------------------------------------------
  if (SpeDispatch* sd = spe_dispatch()) {
    if (sd->process_id != ch->from) {
      throw PilotError(ErrorCode::kEndpoint,
                       "process P" + std::to_string(sd->process_id) +
                           " is not the writer of channel " + ch->name,
                       file, line);
    }
    cellpilot::Route& rt = route_of(*ch, file, line);
    cellpilot::WriterState& ws = rt.writer;
    const cellpilot::FormatPlan& plan = ws.formats.lookup(fmt);
    ws.staging.clear();
    marshal_append(plan.parsed, args, ws.staging, ws.counts);
    const std::uint32_t sig = wire_signature(plan, ws.counts);
    if (rt.writer_big_endian) {
      swap_element_bytes(plan.parsed, ws.counts, ws.staging);
    }
    PI_OP* op = engine.create(cp::Kind::kWrite);
    op->channel = ch->id;
    op->route_type = static_cast<std::int8_t>(rt.type);
    op->spe_side = true;
    op->file = file;
    op->line = line;
    op->submit_begin = cellsim::spu::self().clock().now();
    // The ledger push happens before the transport hand-off, exactly like
    // the blocking write (it must happen-before any read completion).
    if (simtime::metrics::armed()) {
      cellpilot::metrics::LatencyLedger::global().push(ch->id,
                                                       op->submit_begin);
    }
    try {
      sd->app->transport()->spe_submit_write(*op, *ch, sig, ws.staging);
    } catch (...) {
      engine.release(op);
      throw;
    }
    cellpilot::trace::ChannelCounters::global().add_message(ch->id,
                                                            ws.staging.size());
    cp::OpRegistry::global().add(op, cellsim::spu::self().name());
    record_submit(*op, cellsim::spu::self().name(),
                  cellsim::spu::self().clock().now());
    return op;
  }

  // --- rank-side writer -----------------------------------------------------
  PilotContext& ctx =
      ctx_in_phase(Phase::kExecution, "PI_WriteAsync", file, line);
  if (ctx.my_process != ch->from) {
    throw PilotError(ErrorCode::kEndpoint,
                     "process P" + std::to_string(ctx.my_process) +
                         " is not the writer of channel " + ch->name,
                     file, line);
  }
  PilotApp& app = ctx.app();
  cellpilot::Route& rt = route_of(*ch, file, line);
  if (rt.needs_transport) transport_or_die(app, file, line);
  if (auto failure = app.process_failure(ch->to)) {
    throw_peer_failure(failure->status, failure->detail, *ch, file, line);
  }

  cellpilot::WriterState& ws = rt.writer;
  const cellpilot::FormatPlan& plan = ws.formats.lookup(fmt);
  ws.staging.resize(sizeof(WireHeader));
  marshal_append(plan.parsed, args, ws.staging, ws.counts);
  const std::size_t payload_bytes = ws.staging.size() - sizeof(WireHeader);
  const std::uint32_t sig = wire_signature(plan, ws.counts);
  const simtime::SimTime call_begin = ctx.mpi().clock().now();
  charge_rank_call(ctx, payload_bytes);

  const std::span<std::byte> payload =
      std::span(ws.staging).subspan(sizeof(WireHeader));
  if (rt.writer_big_endian) {
    swap_element_bytes(plan.parsed, ws.counts, payload);
  }
  const std::uint32_t epoch = cellpilot::epochs::current(ch->id);
  frame_in_place(ws.staging, sig, epoch);
  if (simtime::metrics::armed()) {
    cellpilot::metrics::LatencyLedger::global().push(ch->id, call_begin);
  }
  mpisim::reliable::set_send_epoch(epoch);
  ctx.mpi().send(ws.staging.data(), ws.staging.size(), rt.write_dest, rt.tag);
  cellpilot::trace::ChannelCounters::global().add_message(ch->id,
                                                          payload_bytes);
  PI_OP* op = engine.create(cp::Kind::kWrite);
  op->channel = ch->id;
  op->route_type = static_cast<std::int8_t>(rt.type);
  op->bytes = payload_bytes;
  op->file = file;
  op->line = line;
  op->signature = sig;
  op->submit_begin = call_begin;
  // The frame is on the wire: a rank-side write settles at submission, and
  // PI_Wait on it returns immediately.
  op->status.store(
      static_cast<std::uint32_t>(cellpilot::CompletionStatus::kOk),
      std::memory_order_relaxed);
  cp::set_state(*op, cp::State::kComplete);
  cp::OpRegistry::global().add(op, rank_entity(ctx));
  record_submit(*op, rank_entity(ctx), ctx.mpi().clock().now());
  return op;
}

PI_HANDLE read_async_impl(const char* file, int line, PI_CHANNEL* ch,
                          const char* fmt, va_list args) {
  if (ch == nullptr) usage_error(file, line, "PI_ReadAsync: null channel");
  cp::Engine& engine = cp::Engine::local();

  // --- SPE-side reader ----------------------------------------------------
  if (SpeDispatch* sd = spe_dispatch()) {
    if (sd->process_id != ch->to) {
      throw PilotError(ErrorCode::kEndpoint,
                       "process P" + std::to_string(sd->process_id) +
                           " is not the reader of channel " + ch->name,
                       file, line);
    }
    cellpilot::Route& rt = route_of(*ch, file, line);
    const cellpilot::FormatPlan& plan = rt.reader.formats.lookup(fmt);
    PI_OP* op = engine.create(cp::Kind::kRead);
    build_read_plan_into(plan.parsed, args, op->plan);
    const std::uint32_t sig =
        plan.has_star ? signature(op->plan.fmt) : plan.wire_signature;
    op->channel = ch->id;
    op->route_type = static_cast<std::int8_t>(rt.type);
    op->spe_side = true;
    op->file = file;
    op->line = line;
    op->submit_begin = cellsim::spu::self().clock().now();
    try {
      sd->app->transport()->spe_submit_read(*op, *ch, sig,
                                            op->plan.payload_bytes);
    } catch (...) {
      engine.release(op);
      throw;
    }
    cp::OpRegistry::global().add(op, cellsim::spu::self().name());
    record_submit(*op, cellsim::spu::self().name(),
                  cellsim::spu::self().clock().now());
    return op;
  }

  // --- rank-side reader -----------------------------------------------------
  PilotContext& ctx =
      ctx_in_phase(Phase::kExecution, "PI_ReadAsync", file, line);
  if (ctx.my_process != ch->to) {
    throw PilotError(ErrorCode::kEndpoint,
                     "process P" + std::to_string(ctx.my_process) +
                         " is not the reader of channel " + ch->name,
                     file, line);
  }
  PilotApp& app = ctx.app();
  cellpilot::Route& rt = route_of(*ch, file, line);
  if (rt.needs_transport) transport_or_die(app, file, line);
  const cellpilot::FormatPlan& plan = rt.reader.formats.lookup(fmt);
  PI_OP* op = engine.create(cp::Kind::kRead);
  build_read_plan_into(plan.parsed, args, op->plan);
  op->channel = ch->id;
  op->route_type = static_cast<std::int8_t>(rt.type);
  op->bytes = op->plan.payload_bytes;
  op->file = file;
  op->line = line;
  op->signature =
      plan.has_star ? signature(op->plan.fmt) : plan.wire_signature;
  const simtime::SimTime call_begin = ctx.mpi().clock().now();
  op->submit_begin = call_begin;
  charge_rank_call(ctx, 0);
  // A writer that already died with nothing on the wire can never satisfy
  // this read: poison the handle now, so the *harvest* throws the failure
  // (the async contract defers all data-plane errors to the wait side).
  bool doomed = false;
  if (auto failure = app.process_failure(ch->from)) {
    if (!ctx.mpi().iprobe(rt.read_source, rt.tag)) {
      op->status.store(failure->status, std::memory_order_relaxed);
      op->fault_detail = failure->detail;
      cp::set_state(*op, cp::State::kFaulted);
      doomed = true;
    }
  }
  if (!doomed) cp::set_state(*op, cp::State::kInFlight);
  cp::OpRegistry::global().add(op, rank_entity(ctx));
  record_submit(*op, rank_entity(ctx), ctx.mpi().clock().now());
  return op;
}

/// Validates `b` for a collective entered by the calling rank process.
PilotContext& bundle_ctx(const char* file, int line, PI_BUNDLE* b,
                         PI_BUNDLE_USAGE usage, const char* what) {
  if (b == nullptr) usage_error(file, line, std::string(what) + ": null bundle");
  PilotContext& ctx = ctx_in_phase(Phase::kExecution, what, file, line);
  if (b->usage != usage) {
    throw PilotError(ErrorCode::kBundle,
                     std::string(what) + " on a bundle created for a "
                     "different usage", file, line);
  }
  if (ctx.my_process != b->common_process) {
    throw PilotError(ErrorCode::kBundle,
                     std::string(what) + " must be called by the bundle's "
                     "common process P" + std::to_string(b->common_process),
                     file, line);
  }
  return ctx;
}

}  // namespace
}  // namespace pilot

using namespace pilot;  // NOLINT: implementation file for the C-style API

int PI_Configure(int* argc, char*** argv) {
  PilotContext& ctx = context();
  if (ctx.phase != Phase::kPreInit) {
    throw PilotError(ErrorCode::kUsage, "PI_Configure called twice");
  }

  Options opts;
  std::string fault_spec;
  // -pitrace= / -pimetrics= / -pitelemetry= / -piflightrec=: observability
  // output files; each overrides its session's environment baseline.
  std::vector<std::pair<cellpilot::obs::Session*, std::string>> obs_files;
  simtime::SimTime telemetry_window = 0;
  bool have_fault_spec = false;
  bool have_respawn = false;
  bool have_ckpt = false;
  bool have_ckpt_every = false;
  if (argc != nullptr && argv != nullptr) {
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      const char* a = (*argv)[i];
      if (std::strcmp(a, "-pisvc=d") == 0) {
        opts.deadlock_detection = true;
      } else if (std::strncmp(a, "-pifault=", 9) == 0) {
        // Fault-injection plan; overrides the CELLPILOT_FAULTS baseline.
        fault_spec = a + 9;
        have_fault_spec = true;
      } else if (cellpilot::obs::Session* session =
                     cellpilot::obs::session_for_flag(a)) {
        const char* file = a + std::strlen(session->flag());
        if (file[0] == '\0') {
          throw PilotError(ErrorCode::kUsage, std::string(session->flag()) +
                                                  " needs a file name");
        }
        obs_files.emplace_back(session, file);
      } else if (std::strncmp(a, "-pitelemetryevery=", 18) == 0) {
        // Windowed-telemetry bucket width in virtual microseconds.
        char* end = nullptr;
        const double v = std::strtod(a + 18, &end);
        if (end == a + 18 || *end != '\0' || v <= 0) {
          throw PilotError(ErrorCode::kUsage,
                           std::string("bad -pitelemetryevery value: ") + a);
        }
        telemetry_window = simtime::us(v);
      } else if (std::strncmp(a, "-pideadline=", 12) == 0) {
        // SPE request deadline in virtual microseconds.
        char* end = nullptr;
        const double v = std::strtod(a + 12, &end);
        if (end == a + 12 || v <= 0) {
          throw PilotError(ErrorCode::kUsage,
                           std::string("bad -pideadline value: ") + a);
        }
        opts.spe_deadline = simtime::us(v);
      } else if (std::strncmp(a, "-pilease=", 9) == 0) {
        // Co-Pilot heartbeat lease in virtual microseconds.
        char* end = nullptr;
        const double v = std::strtod(a + 9, &end);
        if (end == a + 9 || v <= 0) {
          throw PilotError(ErrorCode::kUsage,
                           std::string("bad -pilease value: ") + a);
        }
        opts.copilot_lease = simtime::us(v);
      } else if (std::strncmp(a, "-pickpt=", 8) == 0) {
        // Coordinated checkpoint file; overrides the CELLPILOT_CKPT
        // baseline.
        if (a[8] == '\0') {
          throw PilotError(ErrorCode::kUsage, "-pickpt= needs a file name");
        }
        opts.checkpoint_path = a + 8;
        have_ckpt = true;
      } else if (std::strncmp(a, "-pickptevery=", 13) == 0) {
        // Checkpoint cadence in serviced SPE requests per cut.
        char* end = nullptr;
        const long v = std::strtol(a + 13, &end, 10);
        if (end == a + 13 || *end != '\0' || v <= 0) {
          throw PilotError(ErrorCode::kUsage,
                           std::string("bad -pickptevery value: ") + a);
        }
        opts.checkpoint_interval = static_cast<int>(v);
        have_ckpt_every = true;
      } else if (std::strncmp(a, "-pirespawn=", 11) == 0) {
        // Supervised SPE respawn budget (restarts per SPE process).
        char* end = nullptr;
        const long v = std::strtol(a + 11, &end, 10);
        if (end == a + 11 || *end != '\0' || v < 0) {
          throw PilotError(ErrorCode::kUsage,
                           std::string("bad -pirespawn value: ") + a);
        }
        opts.respawn_budget = static_cast<int>(v);
        have_respawn = true;
      } else {
        (*argv)[out++] = (*argv)[i];
      }
    }
    *argc = out;
  }
  if (!have_respawn) {
    // CELLPILOT_RESPAWN is the environment baseline the flag overrides,
    // mirroring the CELLPILOT_FAULTS / -pifault= relationship.  Garbage or
    // a negative value keeps the feature disarmed, but loudly: atoi-style
    // silent zeroing turned a typo'd budget into "respawn never armed",
    // which looks exactly like a healthy run until a fault lands (same
    // rationale as chaos_sweep's CELLPILOT_CHAOS_WATCHDOG check).
    if (const char* env = std::getenv("CELLPILOT_RESPAWN")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 0) {
        opts.respawn_budget = static_cast<int>(v);
      } else if (env[0] != '\0') {
        std::fprintf(stderr,
                     "pilot: ignoring CELLPILOT_RESPAWN=\"%s\" (not a "
                     "non-negative integer); respawn stays disarmed\n",
                     env);
      }
    }
  }
  if (!have_ckpt) {
    // Environment baseline for the checkpoint file, like CELLPILOT_TRACE.
    if (const char* env = std::getenv("CELLPILOT_CKPT")) {
      if (env[0] != '\0') opts.checkpoint_path = env;
    }
  }
  if (!have_ckpt_every) {
    // Cadence baseline; garbage keeps the 64-request default rather than
    // silently collapsing to "checkpoint on every request" (strtol of
    // garbage is 0) — but says so on stderr.
    if (const char* env = std::getenv("CELLPILOT_CKPT_EVERY")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v > 0) {
        opts.checkpoint_interval = static_cast<int>(v);
      } else if (env[0] != '\0') {
        std::fprintf(stderr,
                     "pilot: ignoring CELLPILOT_CKPT_EVERY=\"%s\" (not a "
                     "positive integer); using %d\n",
                     env, opts.checkpoint_interval);
      }
    }
  }
  if (have_fault_spec && ctx.rank() == 0) {
    try {
      cellpilot::faults::FaultPlan::global().configure(fault_spec);
    } catch (const std::invalid_argument& e) {
      throw PilotError(ErrorCode::kUsage,
                       std::string("bad -pifault spec: ") + e.what());
    }
  }
  if (ctx.rank() == 0) {
    ctx.app().options() = opts;
    // The reliable sublayer's retransmit ladder reuses the -pideadline
    // machinery: same base deadline, same doubling retry budget.
    mpisim::reliable::set_backoff(opts.spe_deadline,
                                  opts.spe_deadline_retries);
    // -pitelemetryevery applies to env-armed sessions too, so set the
    // window before any traffic can bucket a sample, flag-armed or not.
    if (telemetry_window > 0) {
      cellpilot::telemetry::TelemetrySession::global().configure_window(
          telemetry_window);
    }
    for (const auto& [session, file] : obs_files) session->configure(file);
    // -pickpt: arm the coordinated checkpoint session for this job.  An
    // empty path (the default) leaves it disarmed and the call is a no-op,
    // preserving byte-identical clean-path behaviour.
    cellpilot::ckpt::CheckpointSession::global().configure(
        opts.checkpoint_path,
        static_cast<std::uint32_t>(opts.checkpoint_interval));
  }

  if (opts.deadlock_detection &&
      !ctx.app().cluster().service_rank().has_value()) {
    throw PilotError(ErrorCode::kUsage,
                     "-pisvc=d given but the job was launched without a "
                     "service process (ClusterConfig::deadlock_service)");
  }

  PI_PROCESS main_proto;
  main_proto.location = Location::kRank;
  main_proto.name = "PI_MAIN";
  ctx.app().get_or_create_process(0, std::move(main_proto),
                                  /*assign_rank=*/true);
  ctx.process_seq = 1;
  ctx.my_process = ctx.rank() == 0 ? 0 : -1;
  ctx.phase = Phase::kConfig;
  return ctx.app().available_processes();
}

PI_PROCESS* PI_GetMain(void) {
  PilotContext& ctx = context();
  if (ctx.phase == Phase::kPreInit) {
    throw PilotError(ErrorCode::kUsage, "PI_MAIN used before PI_Configure");
  }
  return &ctx.app().process(0);
}

PI_PROCESS* PI_CreateProcess(pilot::ProcessFunc f, int index, void* arg) {
  PilotContext& ctx = ctx_in_phase(Phase::kConfig, "PI_CreateProcess");
  if (f == nullptr) {
    throw PilotError(ErrorCode::kUsage, "PI_CreateProcess: null function");
  }
  const int seq = ctx.process_seq++;
  PI_PROCESS proto;
  proto.location = Location::kRank;
  proto.func = f;
  proto.index_arg = index;
  proto.ptr_arg = arg;
  proto.name = "P" + std::to_string(seq);
  PI_PROCESS* p = ctx.app().get_or_create_process(seq, std::move(proto),
                                                  /*assign_rank=*/true);
  if (p->rank == ctx.rank()) ctx.my_process = p->id;
  return p;
}

PI_CHANNEL* PI_CreateChannel(PI_PROCESS* from, PI_PROCESS* to) {
  PilotContext& ctx = ctx_in_phase(Phase::kConfig, "PI_CreateChannel");
  if (from == nullptr || to == nullptr) {
    throw PilotError(ErrorCode::kUsage, "PI_CreateChannel: null endpoint");
  }
  if (from->id == to->id) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_CreateChannel: a process cannot be both endpoints");
  }
  const int seq = ctx.channel_seq++;
  PI_CHANNEL proto;
  proto.from = from->id;
  proto.to = to->id;
  proto.name = "ch" + std::to_string(seq) + "(P" + std::to_string(from->id) +
               "->P" + std::to_string(to->id) + ")";
  return ctx.app().get_or_create_channel(seq, std::move(proto));
}

PI_BUNDLE* PI_CreateBundle(PI_BUNDLE_USAGE usage,
                           PI_CHANNEL* const channels[], int count) {
  PilotContext& ctx = ctx_in_phase(Phase::kConfig, "PI_CreateBundle");
  if (channels == nullptr || count <= 0) {
    throw PilotError(ErrorCode::kBundle,
                     "PI_CreateBundle: need at least one channel");
  }
  // The common endpoint is the writer for broadcast, the reader otherwise.
  const bool common_is_writer = usage == PI_BROADCAST;
  PI_BUNDLE proto;
  proto.usage = usage;
  for (int i = 0; i < count; ++i) {
    PI_CHANNEL* ch = channels[i];
    if (ch == nullptr) {
      throw PilotError(ErrorCode::kBundle, "PI_CreateBundle: null channel");
    }
    const int common = common_is_writer ? ch->from : ch->to;
    if (i == 0) {
      proto.common_process = common;
    } else if (common != proto.common_process) {
      throw PilotError(ErrorCode::kBundle,
                       "PI_CreateBundle: channels do not share a common " +
                           std::string(common_is_writer ? "writer" : "reader"));
    }
    // Extension beyond the paper (its §VI future work): the non-common
    // endpoints may be SPE processes — the Co-Pilot relays each leg.  The
    // common endpoint itself must be rank-backed: an SPE cannot drive a
    // collective (it has no probe/fan-out machinery in its slim runtime).
    if (ctx.app().process(common).location == Location::kSpe) {
      throw PilotError(ErrorCode::kBundle,
                       "PI_CreateBundle: an SPE process cannot be the "
                       "common endpoint of a bundle");
    }
    proto.channels.push_back(ch);
  }
  const int seq = ctx.bundle_seq++;
  return ctx.app().get_or_create_bundle(seq, std::move(proto));
}

void PI_StartAll(void) {
  PilotContext& ctx = ctx_in_phase(Phase::kConfig, "PI_StartAll");
  ctx.phase = Phase::kExecution;
  // The tables are final: compile every channel's route (once across all
  // ranks) before anyone crosses the barrier into the execution phase.
  ctx.app().compile_routes();
  ctx.app().user_barrier(ctx.mpi());  // everyone's tables are complete

  if (ctx.rank() == 0) {
    // The checkpoint quorum: only Cell nodes hosting SPE contexts can
    // contribute a shard (a blade without SPEs never services a request,
    // and its ranks' state is reconstructed from peer journals at
    // restore).  The tables are final here, so the contributor set is.
    {
      std::set<int> spe_nodes;
      for (int i = 0; i < ctx.app().process_count(); ++i) {
        const PI_PROCESS& p = ctx.app().process(i);
        if (p.location == Location::kSpe && p.node >= 0) {
          spe_nodes.insert(p.node);
        }
      }
      cellpilot::ckpt::CheckpointSession::global().set_contributors(
          static_cast<int>(spe_nodes.size()));
    }
    // Tell the detection service how many rank-backed processes exist so
    // it can recognize cycle-free global stalls.
    int rank_processes = 0;
    for (int i = 0; i < ctx.app().process_count(); ++i) {
      if (ctx.app().process(i).location == Location::kRank) ++rank_processes;
    }
    notify_init(ctx, rank_processes);
    return;  // PI_MAIN continues in main()
  }

  int status = 0;
  if (ctx.my_process > 0) {
    PI_PROCESS& self = ctx.app().process(ctx.my_process);
    status = self.func(self.index_arg, self.ptr_arg);
    notify_finished(ctx);
  }
  // Wait for any SPE processes this rank launched, then synchronize with
  // the whole application and unwind out of main().
  ctx.app().join_spe_threads(ctx.rank());
  ctx.app().user_barrier(ctx.mpi());
  ctx.phase = Phase::kDone;
  throw ProcessExit{status};
}

int PI_StopMain(int status) {
  PilotContext& ctx = ctx_in_phase(Phase::kExecution, "PI_StopMain");
  if (ctx.my_process != 0) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_StopMain may only be called by PI_MAIN");
  }
  ctx.app().join_spe_threads(ctx.rank());
  ctx.app().user_barrier(ctx.mpi());

  // Note: the trace-session flush happens in cellpilot::run's epilogue,
  // not here — at this point other rank/Co-Pilot threads are still alive
  // (shutdown control traffic, late supervision) and could race the drain.

  // Tear down the hidden service ranks.
  cluster::Cluster& cl = ctx.app().cluster();
  const std::uint8_t poison = 0;
  for (int n = 0; n < cl.node_count(); ++n) {
    if (cl.is_cell_node(n)) {
      ctx.mpi().send_internal(&poison, 1, cl.copilot_rank(n), kTagShutdown);
    }
  }
  if (auto svc = cl.service_rank()) {
    DeadlockEvent ev;
    ev.kind = DeadlockEvent::kShutdown;
    ctx.mpi().send_internal(&ev, sizeof ev, *svc, kTagDeadlockEvent);
  }
  ctx.phase = Phase::kDone;
  ctx.exit_status = status;
  return status;
}

void PI_Write_(const char* file, int line, PI_CHANNEL* ch, const char* fmt,
               ...) {
  va_list ap;
  va_start(ap, fmt);
  VaGuard guard{ap};
  write_impl(file, line, ch, fmt, ap);
}

void PI_Read_(const char* file, int line, PI_CHANNEL* ch, const char* fmt,
              ...) {
  va_list ap;
  va_start(ap, fmt);
  VaGuard guard{ap};
  read_impl(file, line, ch, fmt, ap);
}

void PI_Broadcast_(const char* file, int line, PI_BUNDLE* b, const char* fmt,
                   ...) {
  va_list ap;
  va_start(ap, fmt);
  VaGuard guard{ap};

  PilotContext& ctx = bundle_ctx(file, line, b, PI_BROADCAST, "PI_Broadcast");
  cellpilot::FormatCache& formats = ctx.app().router().bundle_formats(b->id);
  const cellpilot::FormatPlan& plan = formats.lookup(fmt);
  std::vector<std::byte> framed(sizeof(WireHeader));
  std::vector<std::uint32_t> counts;
  marshal_append(plan.parsed, ap, framed, counts);
  const std::uint32_t sig = wire_signature(plan, counts);
  // Every channel shares the common writer, so one byte-order pass and one
  // frame serve every leg (SPE legs go to the reader's Co-Pilot).
  cellpilot::Route& first = route_of(*b->channels.front(), file, line);
  if (first.writer_big_endian) {
    swap_element_bytes(plan.parsed, counts,
                       std::span(framed).subspan(sizeof(WireHeader)));
  }
  charge_rank_call(ctx, framed.size() - sizeof(WireHeader));
  for (PI_CHANNEL* ch : b->channels) {
    cellpilot::Route& rt = route_of(*ch, file, line);
    if (rt.needs_transport) transport_or_die(ctx.app(), file, line);
    // Per-leg header stamp: each channel carries its own epoch (a rank
    // writer's is always 0, but the wire stays self-describing).
    const std::uint32_t epoch = cellpilot::epochs::current(ch->id);
    frame_in_place(framed, sig, epoch);
    const simtime::SimTime leg_begin = ctx.mpi().clock().now();
    if (simtime::metrics::armed()) {
      cellpilot::metrics::LatencyLedger::global().push(ch->id, leg_begin);
    }
    mpisim::reliable::set_send_epoch(epoch);
    ctx.mpi().send(framed.data(), framed.size(), rt.write_dest, rt.tag);
    cellpilot::trace::ChannelCounters::global().add_message(
        ch->id, framed.size() - sizeof(WireHeader));
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(
          simtime::tracebuf::Kind::kPilotWrite,
          ctx.app().cluster().world().info(ctx.rank()).name, leg_begin,
          ctx.mpi().clock().now(), framed.size() - sizeof(WireHeader), ch->id,
          static_cast<std::int8_t>(rt.type));
    }
  }
}

void PI_Gather_(const char* file, int line, PI_BUNDLE* b, const char* fmt,
                ...) {
  va_list ap;
  va_start(ap, fmt);
  VaGuard guard{ap};

  PilotContext& ctx = bundle_ctx(file, line, b, PI_GATHER, "PI_Gather");
  cellpilot::FormatCache& formats = ctx.app().router().bundle_formats(b->id);
  const cellpilot::FormatPlan& fplan = formats.lookup(fmt);
  // The plan's destinations are the bases of per-contribution arrays; slot
  // i of each array receives channel i's payload.
  ReadPlan plan = build_read_plan(fplan.parsed, ap);
  const std::uint32_t sig =
      fplan.has_star ? signature(plan.fmt) : fplan.wire_signature;

  for (std::size_t i = 0; i < b->channels.size(); ++i) {
    PI_CHANNEL* ch = b->channels[i];
    cellpilot::Route& rt = route_of(*ch, file, line);
    if (auto failure = ctx.app().process_failure(ch->from)) {
      if (!ctx.mpi().iprobe(rt.read_source, rt.tag)) {
        throw_peer_failure(failure->status, failure->detail, *ch, file, line);
      }
    }
    const simtime::SimTime leg_begin = ctx.mpi().clock().now();
    notify_block(ctx, ch->from, ch->id);
    std::vector<std::byte> framed = recv_channel_frame(ctx, *ch, rt);
    notify_unblock(ctx);
    const simtime::SimTime leg_end = ctx.mpi().clock().now();
    if (is_fault_frame(framed)) {
      const FaultFrame fault = parse_fault_frame(framed);
      note_peer_death(ctx.app(), *ch, fault);
      throw_peer_failure(fault.status, fault.detail, *ch, file, line);
    }
    check_frame(framed, sig, plan.payload_bytes,
                "gather channel " + ch->name);
    // Recorded only once the frame is known good — point-to-point reads do
    // the same, so a faulted leg never produces a phantom pilot_read and
    // the offline write/read pairing (tools/tracestats) stays aligned with
    // the online latency ledger.  No clock moves between the receive and
    // here, so clean-path stamps are unchanged.
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(
          simtime::tracebuf::Kind::kPilotRead,
          ctx.app().cluster().world().info(ctx.rank()).name, leg_begin,
          leg_end, framed.size() - sizeof(WireHeader), ch->id,
          static_cast<std::int8_t>(rt.type));
    }
    if (simtime::metrics::armed()) {
      namespace sm = simtime::metrics;
      const std::string& entity =
          ctx.app().cluster().world().info(ctx.rank()).name;
      const auto route = static_cast<std::int8_t>(rt.type);
      sm::record(sm::Kind::kReadBlock, route, ch->id, entity,
                 leg_end - leg_begin);
      simtime::SimTime write_begin = 0;
      if (cellpilot::metrics::LatencyLedger::global().pop(ch->id,
                                                          &write_begin)) {
        sm::record(sm::Kind::kMsgLatency, route, ch->id, entity,
                   leg_end - write_begin);
      }
    }
    const std::span<std::byte> payload =
        std::span(framed).subspan(sizeof(WireHeader));
    if (rt.writer_big_endian) swap_element_bytes(plan.fmt, payload);
    ReadPlan shifted = plan;
    for (std::size_t j = 0; j < shifted.destinations.size(); ++j) {
      const FormatItem& item = shifted.fmt.items[j];
      const std::size_t item_bytes = element_size(item.type) * item.count;
      shifted.destinations[j] =
          static_cast<std::byte*>(plan.destinations[j]) + i * item_bytes;
    }
    scatter(shifted, payload);
  }
  charge_rank_call(ctx, plan.payload_bytes * b->channels.size());
}

int PI_Select(PI_BUNDLE* b) {
  PilotContext& ctx = bundle_ctx(nullptr, 0, b, PI_SELECT, "PI_Select");
  std::vector<mpisim::MatchQueue::Pattern> patterns;
  patterns.reserve(b->channels.size());
  for (PI_CHANNEL* ch : b->channels) {
    const cellpilot::Route& rt = route_of(*ch, nullptr, 0);
    patterns.push_back({rt.read_source, rt.tag});
    notify_block(ctx, ch->from, ch->id);
  }
  // Fault fast-path: with nothing ready, a channel whose writer already
  // died (and left nothing on the wire) will never become ready.  Return
  // its index — lowest first, deterministically — so the caller's PI_Read
  // surfaces the failure, instead of this select blocking forever.
  if (!ctx.app().cluster().world().queue(ctx.rank())
           .try_probe_any(patterns)
           .has_value()) {
    for (std::size_t i = 0; i < b->channels.size(); ++i) {
      PI_CHANNEL* ch = b->channels[i];
      if (auto failure = ctx.app().process_failure(ch->from)) {
        const cellpilot::Route& rt = route_of(*ch, nullptr, 0);
        if (!ctx.mpi().iprobe(rt.read_source, rt.tag)) {
          notify_unblock(ctx);
          charge_rank_call(ctx, 0);
          return static_cast<int>(i);
        }
      }
    }
  }
  const auto [index, env] =
      ctx.app().cluster().world().queue(ctx.rank()).probe_any_blocking(
          patterns);
  notify_unblock(ctx);
  charge_rank_call(ctx, 0);
  return static_cast<int>(index);
}

int PI_TrySelect(PI_BUNDLE* b) {
  PilotContext& ctx = bundle_ctx(nullptr, 0, b, PI_SELECT, "PI_TrySelect");
  std::vector<mpisim::MatchQueue::Pattern> patterns;
  patterns.reserve(b->channels.size());
  for (PI_CHANNEL* ch : b->channels) {
    const cellpilot::Route& rt = route_of(*ch, nullptr, 0);
    patterns.push_back({rt.read_source, rt.tag});
  }
  charge_rank_call(ctx, 0);
  const auto hit =
      ctx.app().cluster().world().queue(ctx.rank()).try_probe_any(patterns);
  if (hit) return static_cast<int>(hit->first);
  // Same fault fast-path as PI_Select: a dead writer's channel counts as
  // ready so the caller's PI_Read can surface the failure.
  for (std::size_t i = 0; i < b->channels.size(); ++i) {
    PI_CHANNEL* ch = b->channels[i];
    if (auto failure = ctx.app().process_failure(ch->from)) {
      const cellpilot::Route& rt = route_of(*ch, nullptr, 0);
      if (!ctx.mpi().iprobe(rt.read_source, rt.tag)) {
        return static_cast<int>(i);
      }
    }
  }
  return -1;
}

PI_HANDLE PI_WriteAsync_(const char* file, int line, PI_CHANNEL* ch,
                         const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  VaGuard guard{ap};
  return write_async_impl(file, line, ch, fmt, ap);
}

PI_HANDLE PI_ReadAsync_(const char* file, int line, PI_CHANNEL* ch,
                        const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  VaGuard guard{ap};
  return read_async_impl(file, line, ch, fmt, ap);
}

void PI_Wait_(const char* file, int line, PI_HANDLE h) {
  PI_OP& op = checked_op(h, "PI_Wait", file, line);
  if (SpeDispatch* sd = spe_dispatch()) {
    spe_harvest(*sd, op, /*wait=*/true, file, line);
    return;
  }
  PilotContext& ctx = ctx_in_phase(Phase::kExecution, "PI_Wait", file, line);
  rank_harvest(ctx, op, file, line);
}

int PI_Test_(const char* file, int line, PI_HANDLE h) {
  PI_OP& op = checked_op(h, "PI_Test", file, line);
  if (SpeDispatch* sd = spe_dispatch()) {
    return spe_harvest(*sd, op, /*wait=*/false, file, line) ? 1 : 0;
  }
  PilotContext& ctx = ctx_in_phase(Phase::kExecution, "PI_Test", file, line);
  if (!cellpilot::completion::is_settled(op) &&
      op.kind == cellpilot::completion::Kind::kRead) {
    PI_CHANNEL& ch = ctx.app().channel(op.channel);
    const cellpilot::Route& rt = route_of(ch, file, line);
    charge_rank_call(ctx, 0);
    if (!ctx.mpi().iprobe(rt.read_source, rt.tag)) return 0;
  }
  rank_harvest(ctx, op, file, line);
  return 1;
}

int PI_WaitAny_(const char* file, int line, PI_HANDLE* handles, int count) {
  if (handles == nullptr || count <= 0) {
    usage_error(file, line, "PI_WaitAny: need at least one handle");
  }
  for (int i = 0; i < count; ++i) {
    (void)checked_op(handles[i], "PI_WaitAny", file, line);
  }

  if (SpeDispatch* sd = spe_dispatch()) {
    const int i = sd->app->transport()->spe_wait_any(handles, count);
    spe_harvest(*sd, *handles[i], /*wait=*/true, file, line);
    return i;
  }

  PilotContext& ctx =
      ctx_in_phase(Phase::kExecution, "PI_WaitAny", file, line);
  namespace cpn = cellpilot::completion;
  // Settled handles first (rank-side writes settle at submission, and a
  // fault recorded at submission must surface): harvest the lowest index.
  for (int i = 0; i < count; ++i) {
    if (cpn::is_settled(*handles[i])) {
      rank_harvest(ctx, *handles[i], file, line);
      return i;
    }
  }
  // Everything left is an in-flight read: poll for an arrived frame.
  std::vector<mpisim::MatchQueue::Pattern> patterns;
  patterns.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    PI_CHANNEL& ch = ctx.app().channel(handles[i]->channel);
    const cellpilot::Route& rt = route_of(ch, file, line);
    patterns.push_back({rt.read_source, rt.tag});
  }
  mpisim::MatchQueue& queue = ctx.app().cluster().world().queue(ctx.rank());
  if (const auto hit = queue.try_probe_any(patterns)) {
    const int i = static_cast<int>(hit->first);
    rank_harvest(ctx, *handles[i], file, line);
    return i;
  }
  // Nothing ready: an operation whose writer already died (with nothing
  // on the wire) will never complete — surface its failure now instead of
  // blocking forever.
  for (int i = 0; i < count; ++i) {
    PI_OP& op = *handles[i];
    PI_CHANNEL& ch = ctx.app().channel(op.channel);
    if (auto failure = ctx.app().process_failure(ch.from)) {
      const cellpilot::Route& rt = route_of(ch, file, line);
      if (!ctx.mpi().iprobe(rt.read_source, rt.tag)) {
        op.status.store(failure->status, std::memory_order_relaxed);
        op.fault_detail = failure->detail;
        cpn::set_state(op, cpn::State::kFaulted);
        rank_harvest(ctx, op, file, line);  // throws
        return i;
      }
    }
  }
  for (int i = 0; i < count; ++i) {
    PI_CHANNEL& ch = ctx.app().channel(handles[i]->channel);
    notify_block(ctx, ch.from, ch.id);
  }
  const auto [index, env] = queue.probe_any_blocking(patterns);
  notify_unblock(ctx);
  const int i = static_cast<int>(index);
  rank_harvest(ctx, *handles[i], file, line);
  return i;
}

int PI_SelectAny_(const char* file, int line, PI_BUNDLE* b,
                  PI_HANDLE* handles, int count) {
  if (spe_dispatch() != nullptr) {
    usage_error(file, line,
                "PI_SelectAny is rank-side only (use PI_WaitAny on SPEs)");
  }
  if (count < 0 || (count > 0 && handles == nullptr)) {
    usage_error(file, line, "PI_SelectAny: bad handle array");
  }
  PilotContext& ctx =
      b != nullptr
          ? bundle_ctx(file, line, b, PI_SELECT, "PI_SelectAny")
          : ctx_in_phase(Phase::kExecution, "PI_SelectAny", file, line);
  const int nb = b != nullptr ? static_cast<int>(b->channels.size()) : 0;
  if (nb + count == 0) {
    usage_error(file, line, "PI_SelectAny: nothing to select on");
  }
  for (int i = 0; i < count; ++i) {
    (void)checked_op(handles[i], "PI_SelectAny", file, line);
  }
  namespace cpn = cellpilot::completion;
  // A settled handle is immediately selectable (not harvested — PI_Wait
  // retires it and throws any recorded fault).
  for (int i = 0; i < count; ++i) {
    if (cpn::is_settled(*handles[i])) {
      charge_rank_call(ctx, 0);
      return nb + i;
    }
  }
  // One pattern per bundle channel, then per in-flight read handle; a
  // probe index maps straight back to the caller's index space.
  std::vector<mpisim::MatchQueue::Pattern> patterns;
  patterns.reserve(static_cast<std::size_t>(nb + count));
  for (int i = 0; i < nb; ++i) {
    const cellpilot::Route& rt = route_of(*b->channels[i], file, line);
    patterns.push_back({rt.read_source, rt.tag});
  }
  for (int i = 0; i < count; ++i) {
    PI_CHANNEL& ch = ctx.app().channel(handles[i]->channel);
    const cellpilot::Route& rt = route_of(ch, file, line);
    patterns.push_back({rt.read_source, rt.tag});
  }
  mpisim::MatchQueue& queue = ctx.app().cluster().world().queue(ctx.rank());
  if (const auto hit = queue.try_probe_any(patterns)) {
    charge_rank_call(ctx, 0);
    return static_cast<int>(hit->first);
  }
  // Doomed scan, bundle channels first: a dead writer with nothing on the
  // wire makes its channel/handle permanently ready (the follow-up
  // PI_Read / PI_Wait throws the failure).
  for (int i = 0; i < nb; ++i) {
    PI_CHANNEL* ch = b->channels[i];
    if (auto failure = ctx.app().process_failure(ch->from)) {
      const cellpilot::Route& rt = route_of(*ch, file, line);
      if (!ctx.mpi().iprobe(rt.read_source, rt.tag)) {
        charge_rank_call(ctx, 0);
        return i;
      }
    }
  }
  for (int i = 0; i < count; ++i) {
    PI_OP& op = *handles[i];
    PI_CHANNEL& ch = ctx.app().channel(op.channel);
    if (auto failure = ctx.app().process_failure(ch.from)) {
      const cellpilot::Route& rt = route_of(ch, file, line);
      if (!ctx.mpi().iprobe(rt.read_source, rt.tag)) {
        op.status.store(failure->status, std::memory_order_relaxed);
        op.fault_detail = failure->detail;
        cpn::set_state(op, cpn::State::kFaulted);
        charge_rank_call(ctx, 0);
        return nb + i;
      }
    }
  }
  for (int i = 0; i < nb; ++i) {
    notify_block(ctx, b->channels[i]->from, b->channels[i]->id);
  }
  for (int i = 0; i < count; ++i) {
    PI_CHANNEL& ch = ctx.app().channel(handles[i]->channel);
    notify_block(ctx, ch.from, ch.id);
  }
  const auto [index, env] = queue.probe_any_blocking(patterns);
  notify_unblock(ctx);
  charge_rank_call(ctx, 0);
  return static_cast<int>(index);
}

int PI_GetChannelStats(PI_CHANNEL* ch, PI_CHANNEL_STATS* out) {
  if (ch == nullptr || out == nullptr) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_GetChannelStats: null channel or output");
  }
  if (spe_dispatch() != nullptr) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_GetChannelStats is rank-side only");
  }
  PilotContext& ctx = context();
  if (ctx.phase != Phase::kExecution && ctx.phase != Phase::kDone) {
    // Harvest-contract violation, not a usage crash: before PI_StartAll
    // the route table (and with it the counter epoch) does not exist yet,
    // so report the documented error code instead of stale state.
    return PI_ERR_PHASE;
  }
  const cellpilot::trace::ChannelStats s =
      cellpilot::trace::ChannelCounters::global().snapshot(ch->id);
  out->channel = ch->id;
  out->route_type =
      ch->route == nullptr ? 0 : static_cast<int>(ch->route->type);
  out->messages = s.messages;
  out->payload_bytes = s.payload_bytes;
  out->copilot_hops = s.copilot_hops;
  out->retries = s.retries;
  out->timeouts = s.timeouts;
  out->faults = s.faults;
  out->retransmits = s.retransmits;
  out->duplicates = s.duplicates;
  out->corrupt_detected = s.corrupt_detected;
  out->respawns = s.respawns;
  out->recovered_ops = s.recovered_ops;
  out->checkpoints = s.checkpoints;
  out->restores = s.restores;
  return 0;
}

int PI_GetMetricsSnapshot(PI_METRICS_SNAPSHOT* out) {
  if (out == nullptr) {
    throw PilotError(ErrorCode::kUsage, "PI_GetMetricsSnapshot: null output");
  }
  if (spe_dispatch() != nullptr) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_GetMetricsSnapshot is rank-side only");
  }
  PilotContext& ctx = context();
  if (ctx.phase != Phase::kExecution && ctx.phase != Phase::kDone) {
    return PI_ERR_PHASE;
  }
  std::memset(out, 0, sizeof *out);
  namespace sm = simtime::metrics;
  // The engine snapshot copies under the table lock, so harvesting while
  // late Co-Pilot work still records is safe — it may simply lag, exactly
  // like PI_GetChannelStats (totals are final after PI_StopMain).
  sm::Histogram latency[6];
  sm::Histogram block[6];
  for (const sm::Series& s : sm::snapshot()) {
    const int route = static_cast<int>(s.key.route_type);
    if (route < 1 || route > 5) continue;
    sm::Histogram* slots = nullptr;
    if (s.key.kind == sm::Kind::kMsgLatency) slots = latency;
    if (s.key.kind == sm::Kind::kReadBlock) slots = block;
    if (slots == nullptr) continue;
    slots[0].merge(s.hist);
    slots[route].merge(s.hist);
  }
  const auto fill = [](PI_METRIC_STAT& dst, const sm::Histogram& h) {
    dst.count = h.count();
    dst.sum_ns = h.sum();
    dst.min_ns = h.min();
    dst.p50_ns = h.percentile(50);
    dst.p90_ns = h.percentile(90);
    dst.p99_ns = h.percentile(99);
    dst.max_ns = h.max();
  };
  for (int i = 0; i < 6; ++i) {
    fill(out->msg_latency[i], latency[i]);
    fill(out->read_block[i], block[i]);
  }
  return 0;
}

int PI_GetTelemetrySnapshot(PI_TELEMETRY_SNAPSHOT* out) {
  if (out == nullptr) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_GetTelemetrySnapshot: null output");
  }
  if (spe_dispatch() != nullptr) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_GetTelemetrySnapshot is rank-side only");
  }
  PilotContext& ctx = context();
  if (ctx.phase != Phase::kExecution && ctx.phase != Phase::kDone) {
    return PI_ERR_PHASE;
  }
  std::memset(out, 0, sizeof *out);
  namespace ts = simtime::timeseries;
  out->window_ns = static_cast<long long>(ts::window());
  // Same lag semantics as PI_GetMetricsSnapshot: the engine snapshot
  // copies under the table lock, totals are final after PI_StopMain.
  for (const ts::Series& s : ts::snapshot()) {
    const int k = static_cast<int>(s.key.kind);
    if (k < 0 || k >= PI_TELEMETRY_KIND_COUNT) continue;
    PI_TELEMETRY_STAT& dst = out->kinds[k];
    for (const auto& [win, cell] : s.windows) {
      (void)win;
      if (dst.windows == 0) {
        dst.min = cell.min;
        dst.max = cell.max;
      } else {
        if (cell.min < dst.min) dst.min = cell.min;
        if (cell.max > dst.max) dst.max = cell.max;
      }
      ++dst.windows;
      dst.count += cell.count;
      dst.sum += cell.sum;
    }
  }
  return 0;
}

int PI_ChannelHasData(PI_CHANNEL* ch) {
  if (ch == nullptr) {
    throw PilotError(ErrorCode::kUsage, "PI_ChannelHasData: null channel");
  }
  PilotContext& ctx = ctx_in_phase(Phase::kExecution, "PI_ChannelHasData");
  if (ctx.my_process != ch->to) {
    throw PilotError(ErrorCode::kEndpoint,
                     "PI_ChannelHasData: process P" +
                         std::to_string(ctx.my_process) +
                         " is not the reader of channel " + ch->name);
  }
  charge_rank_call(ctx, 0);
  const cellpilot::Route& rt = route_of(*ch, nullptr, 0);
  return ctx.mpi().iprobe(rt.read_source, rt.tag).has_value() ? 1 : 0;
}

PI_CHANNEL** PI_CopyChannels(PI_CHANNEL* const channels[], int count) {
  PilotContext& ctx = ctx_in_phase(Phase::kConfig, "PI_CopyChannels");
  if (channels == nullptr || count <= 0) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_CopyChannels: need at least one channel");
  }
  // The copies live in a per-app side table so every rank hands back the
  // same canonical array (configuration runs SPMD).
  std::vector<PI_CHANNEL*> copies;
  copies.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    if (channels[i] == nullptr) {
      throw PilotError(ErrorCode::kUsage, "PI_CopyChannels: null channel");
    }
    const int seq = ctx.channel_seq++;
    PI_CHANNEL proto;
    proto.from = channels[i]->from;
    proto.to = channels[i]->to;
    proto.name = channels[i]->name + "'";
    copies.push_back(ctx.app().get_or_create_channel(seq, std::move(proto)));
  }
  return ctx.app().intern_channel_array(std::move(copies));
}

PI_CHANNEL* PI_GetBundleChannel(PI_BUNDLE* b, int index) {
  if (b == nullptr || index < 0 ||
      index >= static_cast<int>(b->channels.size())) {
    throw PilotError(ErrorCode::kBundle,
                     "PI_GetBundleChannel: bad bundle or index");
  }
  return b->channels[static_cast<std::size_t>(index)];
}

int PI_GetBundleSize(PI_BUNDLE* b) {
  if (b == nullptr) {
    throw PilotError(ErrorCode::kBundle, "PI_GetBundleSize: null bundle");
  }
  return static_cast<int>(b->channels.size());
}

void PI_SetName(PI_PROCESS* p, const char* name) {
  if (p != nullptr && name != nullptr) p->name = name;
}

void PI_SetChannelName(PI_CHANNEL* ch, const char* name) {
  if (ch != nullptr && name != nullptr) ch->name = name;
}

int PI_ProcessCount(void) { return context().app().available_processes(); }

int PI_MyProcess(void) {
  if (SpeDispatch* sd = spe_dispatch()) return sd->process_id;
  return context().my_process;
}

void PI_Log_(const char* /*file*/, int line, const char* /*message*/) {
  // A kUser instant in the -pitrace file: entity P<n>, aux = source line.
  const int pid = PI_MyProcess();
  if (!simtime::tracebuf::armed()) return;
  const simtime::SimTime now = spe_dispatch() != nullptr
                                   ? cellsim::spu::self().clock().now()
                                   : context().mpi().clock().now();
  simtime::tracebuf::record(simtime::tracebuf::Kind::kUser,
                            "P" + std::to_string(pid), now, now, 0,
                            /*channel=*/-1, /*route_type=*/0, line);
}

void PI_Abort_(const char* file, int line, int code, const char* message) {
  // Deliberate application abort: its own error code (not "usage"), so the
  // per-rank diagnostic line reads `pilot error (abort) at file:line: ...`
  // and tests can tell an intended abort from library misuse.
  throw PilotError(ErrorCode::kAbort,
                   "PI_Abort(" + std::to_string(code) + "): " +
                       (message ? message : ""),
                   file, line);
}
