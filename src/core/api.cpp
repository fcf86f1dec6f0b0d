// api.cpp — the two functions CellPilot adds to the Pilot API, plus the
// runtime spawning tier (PI_CreateSPESlot / PI_SpawnSPE).  Every launch
// goes through launch_spe (core/spe_runtime.hpp); the front-ends here only
// check the call, pick the context and leave their own records.
#include "core/cellpilot.hpp"

#include <algorithm>

#include "core/protocol.hpp"
#include "core/spe_runtime.hpp"
#include "pilot/context.hpp"
#include "simtime/metrics.hpp"
#include "simtime/timeseries.hpp"
#include "simtime/tracebuf.hpp"

using namespace pilot;  // NOLINT: implementation file for the C-style API

namespace {

/// Declares an SPE process of `parent` (PI_CreateSPE / PI_CreateSPESlot).
/// Both share the checks: configuration phase and a rank-backed parent on
/// a Cell node, whose node the SPE process runs on.
PI_PROCESS* create_spe_process(const PI_SPE_FUNC* program, PI_PROCESS* parent,
                               int index, std::string name,
                               const std::string& fn) {
  PilotContext& ctx = context();
  if (ctx.phase != Phase::kConfig) {
    throw PilotError(ErrorCode::kUsage,
                     fn + " called outside the configuration phase");
  }
  if (parent == nullptr) {
    throw PilotError(ErrorCode::kUsage, fn + ": null parent process");
  }
  if (parent->location != Location::kRank) {
    throw PilotError(ErrorCode::kUsage,
                     fn + ": the parent must be a PPE (rank-backed) "
                          "process, not another SPE process");
  }
  cluster::Cluster& cl = ctx.app().cluster();
  const int node = cl.node_of_rank(parent->rank);
  if (!cl.is_cell_node(node)) {
    throw PilotError(ErrorCode::kUsage,
                     fn + ": parent process " + parent->name +
                         " runs on a non-Cell node and cannot host SPE "
                         "processes");
  }

  const int seq = ctx.process_seq++;
  PI_PROCESS proto;
  proto.location = Location::kSpe;
  proto.program = program;
  proto.parent_process = parent->id;
  proto.index_arg = index;
  proto.node = node;
  proto.name = std::move(name);
  return ctx.app().get_or_create_process(seq, std::move(proto),
                                         /*assign_rank=*/false);
}

/// The checks PI_RunSPE and PI_SpawnSPE share: an SPE process, the
/// execution phase, and a call from its parent process.
PilotContext& launch_context(const PI_PROCESS* proc, const std::string& fn,
                             const char* create_fn) {
  PilotContext& ctx = context();
  if (proc == nullptr) {
    throw PilotError(ErrorCode::kUsage, fn + ": null process");
  }
  if (proc->location != Location::kSpe) {
    throw PilotError(ErrorCode::kUsage,
                     fn + ": " + proc->name + " is not an SPE process (use " +
                         create_fn + ")");
  }
  if (ctx.phase != Phase::kExecution) {
    throw PilotError(ErrorCode::kUsage,
                     fn + " called outside the execution phase");
  }
  if (ctx.my_process != proc->parent_process) {
    throw PilotError(ErrorCode::kUsage,
                     fn + "(" + proc->name +
                         ") must be called by its parent process P" +
                         std::to_string(proc->parent_process) + ", not P" +
                         std::to_string(ctx.my_process));
  }
  return ctx;
}

/// The SPE pool-occupancy sample of one context.  Per-context busy flag:
/// the value depends only on this launch, so the sample is as
/// deterministic as the kSpeSpawn trace record (a shared per-node count
/// could pair racily with the stamp across windows).
void record_pool_busy(const cellsim::Spe& spe, simtime::SimTime at,
                      int busy) {
  if (simtime::timeseries::armed()) {
    simtime::timeseries::record(simtime::timeseries::Kind::kSpePoolBusy, 0,
                                -1, spe.name(), at, busy);
  }
}

/// PI_RunSPE's retirement record: the context leaves the pool gauge.
void run_retired(cellsim::Spe& spe, int /*process_id*/) {
  record_pool_busy(spe, spe.clock().now(), 0);
}

/// PI_SpawnSPE's retirement records: kSpeRetire, then the pool gauge.
void spawn_retired(cellsim::Spe& spe, int process_id) {
  if (simtime::tracebuf::armed()) {
    const simtime::SimTime end = spe.clock().now();
    simtime::tracebuf::record(simtime::tracebuf::Kind::kSpeRetire,
                              spe.name(), end, end, 0, process_id, 0);
  }
  record_pool_busy(spe, spe.clock().now(), 0);
}

}  // namespace

PI_PROCESS* PI_CreateSPE(PI_SPE_FUNC& program, PI_PROCESS* parent,
                         int index) {
  return create_spe_process(
      &program, parent, index,
      std::string("spe:") + (program.name != nullptr ? program.name : "?") +
          "#" + std::to_string(index),
      "PI_CreateSPE");
}

PI_PROCESS* PI_CreateSPESlot(PI_PROCESS* parent, int index) {
  // The program is bound at execution time by PI_SpawnSPE.
  return create_spe_process(nullptr, parent, index,
                            "spe-slot#" + std::to_string(index),
                            "PI_CreateSPESlot");
}

void PI_RunSPE(PI_PROCESS* spe_process, int arg, void* ptr) {
  PilotContext& ctx = launch_context(spe_process, "PI_RunSPE", "PI_CreateSPE");
  PI_PROCESS& proc = *spe_process;
  if (proc.program == nullptr || proc.program->entry == nullptr) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_RunSPE: SPE process has no program");
  }
  PilotApp& app = ctx.app();
  // A second launch would put two threads on the process's one route
  // state; the process may run again once its last occupant has exited.
  if (app.launch_running(proc.id)) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_RunSPE(" + proc.name +
                         "): the process is still running on an SPE");
  }
  const unsigned flat = app.acquire_spe(proc.node);
  // The SPE starts no earlier (in virtual time) than its parent's launch.
  const simtime::SimTime stamp = ctx.mpi().clock().now();
  record_pool_busy(app.cluster().spe(proc.node, flat), stamp, 1);
  cellpilot::launch_spe(app, proc.node, flat, proc.id,
                        {proc.program, arg, ptr, ctx.rank()}, stamp,
                        &run_retired);
}

void PI_SpawnSPE(PI_PROCESS* slot, PI_SPE_FUNC* program, int arg, void* ptr) {
  PilotContext& ctx = launch_context(slot, "PI_SpawnSPE", "PI_CreateSPESlot");
  PI_PROCESS& proc = *slot;
  if (program == nullptr) {
    throw PilotError(ErrorCode::kUsage, "PI_SpawnSPE: null program");
  }
  if (program->entry == nullptr) {
    throw PilotError(ErrorCode::kUsage,
                     "PI_SpawnSPE: program has no entry point");
  }
  PilotApp& app = ctx.app();
  // A slot only reaches the failure registry once the degradation ladder's
  // last rung poisoned it: either -pirespawn is disarmed, or the budget was
  // exhausted.  Its channels are poisoned and its context was never
  // returned to the pool, so a user-level respawn could only inherit
  // confusion — the supervised respawn path (core/copilot) is the one that
  // rebinds a faulted slot, before any failure is ever published.
  if (auto failure = app.process_failure(proc.id)) {
    throw PilotError(
        ErrorCode::kUsage,
        "PI_SpawnSPE(" + proc.name + "): the process previously faulted (" +
            failure->detail + "); a poisoned SPE slot cannot be respawned" +
            (app.options().respawn_budget > 0
                 ? " (its -pirespawn budget is spent)"
                 : " (arm -pirespawn=N for supervised self-healing)"));
  }

  const simtime::SimTime call_begin = ctx.mpi().clock().now();
  // Pooled contexts: wait for the slot's previous occupants to retire, then
  // prefer the context the last spawn vacated (warm local store on real
  // hardware).
  app.join_spawn(ctx.rank(), proc.id);
  const int node = proc.node;
  const std::optional<unsigned> prev = app.last_spawn_flat(proc.id);
  const unsigned flat =
      prev ? app.acquire_spe_preferring(node, *prev) : app.acquire_spe(node);
  app.set_last_spawn_flat(proc.id, flat);
  // The runtime binding that lifts Pilot's static-declaration restriction:
  // the slot carries whatever program this spawn supplies.
  proc.program = program;
  cellsim::Spe& spe = app.cluster().spe(node, flat);

  // The previous occupants have been joined, so the SPE clock is
  // quiescent: the program starts at the later of the parent's launch
  // stamp and the context's own time.
  const simtime::SimTime start =
      std::max(ctx.mpi().clock().now(), spe.clock().now());
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kSpeSpawn, spe.name(),
                              call_begin, start, 0, proc.id, 0);
  }
  if (simtime::metrics::armed()) {
    simtime::metrics::record(simtime::metrics::Kind::kSpawnLatency, 0,
                             proc.id, spe.name(), start - call_begin);
  }
  record_pool_busy(spe, start, 1);
  cellpilot::launch_spe(app, node, flat, proc.id,
                        {program, arg, ptr, ctx.rank()}, start,
                        &spawn_retired);
}
