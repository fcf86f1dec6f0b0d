#include "core/copilot.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "cellsim/cell.hpp"
#include "cellsim/errors.hpp"
#include "cellsim/libspe2.hpp"
#include "core/checkpoint.hpp"
#include "core/epoch.hpp"
#include "core/faultplan.hpp"
#include "core/flightrec.hpp"
#include "core/metrics.hpp"
#include "core/protocol.hpp"
#include "core/scheduler.hpp"
#include "core/spe_runtime.hpp"
#include "core/trace.hpp"
#include "mpisim/reliable.hpp"
#include "pilot/deadlock.hpp"
#include "pilot/wire.hpp"
#include "simtime/hostwait.hpp"
#include "simtime/timeseries.hpp"
#include "simtime/tracebuf.hpp"

namespace cellpilot {

namespace supervision {
namespace {
std::atomic<std::uint64_t> g_recovered{0};
std::atomic<std::uint64_t> g_timeouts{0};
std::atomic<std::uint64_t> g_faults{0};
std::atomic<std::uint64_t> g_failovers{0};
std::atomic<std::uint64_t> g_respawns{0};
std::atomic<std::uint64_t> g_recovered_ops{0};
std::atomic<std::uint64_t> g_restores{0};
std::atomic<simtime::SimTime> g_recovery_begin{0};
std::atomic<simtime::SimTime> g_recovery_end{0};
}  // namespace

std::uint64_t recovered_count() { return g_recovered.load(); }
std::uint64_t timeout_count() { return g_timeouts.load(); }
std::uint64_t fault_count() { return g_faults.load(); }
std::uint64_t failover_count() { return g_failovers.load(); }
std::uint64_t respawn_count() { return g_respawns.load(); }
std::uint64_t recovered_op_count() { return g_recovered_ops.load(); }
std::uint64_t restore_count() { return g_restores.load(); }
simtime::SimTime recovery_begin() { return g_recovery_begin.load(); }
simtime::SimTime recovery_end() { return g_recovery_end.load(); }
void note_recovery_span(simtime::SimTime begin, simtime::SimTime end) {
  simtime::SimTime cur = g_recovery_begin.load();
  while ((cur == 0 || begin < cur) &&
         !g_recovery_begin.compare_exchange_weak(cur, begin)) {
  }
  cur = g_recovery_end.load();
  while (end > cur && !g_recovery_end.compare_exchange_weak(cur, end)) {
  }
}
void reset_counters() {
  g_recovered.store(0);
  g_timeouts.store(0);
  g_faults.store(0);
  g_failovers.store(0);
  g_respawns.store(0);
  g_recovered_ops.store(0);
  g_restores.store(0);
  g_recovery_begin.store(0);
  g_recovery_end.store(0);
}

}  // namespace supervision

namespace {

using pilot::PilotApp;
using simtime::SimTime;
using simtime::tracebuf::Kind;

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

/// One Co-Pilot's live state: the data plane (the route handlers), recovery,
/// and the Sources through which core/scheduler sees the machine.
class CopilotService final : private Sources {
 private:
  /// One delivered operation in a process's replay journal.
  struct JournalOp {
    std::uint32_t signature = 0;
    std::uint32_t length = 0;
    std::vector<std::byte> payload;  ///< reads only: re-served on replay
  };

  /// Replay journal of one SPE process, keyed by channel id: every write
  /// the Co-Pilot delivered on the process's behalf and every read payload
  /// it placed into the process's local store, in channel order.  Recorded
  /// only while -pirespawn is armed (a disarmed run never touches it);
  /// bounded by the job's message count, like the latency ledger.
  struct Journal {
    std::map<int, std::vector<JournalOp>> writes;
    std::map<int, std::vector<JournalOp>> reads;
  };

  /// Supervision state of one (possibly respawned) SPE process.
  struct RespawnState {
    int attempts = 0;   ///< respawn budget consumed so far
    unsigned flat = 0;  ///< slot the current respawned occupant runs in
    bool alive = false; ///< a respawned occupant may still be running
    /// Replay cursors, snapshot at the last respawn: the new incarnation's
    /// first `cursor` operations on a channel repeat deliveries a previous
    /// incarnation completed, and settle without touching the wire.
    std::map<int, std::size_t> write_cursor;
    std::map<int, std::size_t> read_cursor;
    /// Operations the current incarnation has issued since its restart.
    std::map<int, std::size_t> writes_seen;
    std::map<int, std::size_t> reads_seen;
  };

  /// Every piece of the Co-Pilot's dynamic state: what a standby inherits
  /// after a crash and what a blade successor inherits after a kill.  The
  /// channel and route tables are compiled state (app_) and need no
  /// hand-off.
  struct ServiceState {
    EventQueue queue;
    // Insertion order is preserved for equal keys, so each channel's
    // parked requests form a FIFO — several async operations from one SPE
    // may be parked at once.
    std::multimap<int, Pending> writes;
    std::multimap<int, Pending> reads;
    /// SPEs whose fault notice has been consumed.
    std::set<unsigned> dead_spes;
    /// Channels poisoned by an endpoint's death: later requests complete
    /// immediately with the stored error status.
    std::map<int, CompletionStatus> dead_channels;
    /// Processes this Co-Pilot declared failed, with the status their
    /// peers receive.
    std::map<int, CompletionStatus> failed;
    /// Replay journals, keyed by process id (empty unless journaling).
    std::map<int, Journal> journal;
    /// Respawn bookkeeping of supervised processes (budget, cursors).
    std::map<int, RespawnState> respawns;
  };

 public:
  /// What a crashing Co-Pilot throws (the copilot_crash fault kind): the
  /// crash stamp, the request it died holding, and the service state a
  /// standby resumes from.
  struct Crash {
    SimTime stamp = 0;
    ReadyRequest inflight;
    ServiceState state;
  };

  /// What a blade_kill fault throws: the whole blade died — every SPE
  /// context plus the Co-Pilot.  Unlike Crash, the SPE-side parts of the
  /// state (ready queue, assemblies, parked ops) die with the blade and
  /// are thrown reset; what survives is the delivery journal — the
  /// message log that, together with the last committed checkpoint, lets
  /// the successor relaunch the lost contexts with exactly-once delivery
  /// across the cut.
  struct BladeLoss {
    SimTime stamp = 0;
    std::uint64_t serviced = 0;  ///< keeps the checkpoint cadence
    std::vector<std::pair<int, unsigned>> victims;  ///< (pid, dead slot)
    ServiceState state;
  };

  /// `crash` non-null constructs a standby taking over from the journal.
  CopilotService(mpisim::Mpi& mpi, PilotApp& app, int node,
                 Crash* crash = nullptr)
      : mpi_(mpi),
        app_(app),
        node_(node),
        blade_(app.cluster().blade(node)),
        cost_(app.cluster().cost()),
        published_bound_(app.cluster().copilot_bound(node)),
        doorbell_(app.cluster().copilot_doorbell(node)) {
    state_.queue.assembly.resize(blade_.spe_count());
    if (crash != nullptr) recover(*crash);
  }

  /// A crashed Co-Pilot publishes its crash stamp, not "forever": peer
  /// Co-Pilots must stay conservative until the standby takes over and
  /// republishes a real bound.
  ~CopilotService() {
    published_bound_.store(crashed_ ? crash_stamp_ : kForever);
  }

  int run() {
    for (;;) {
      const std::uint32_t seen = doorbell_.announce();
      const Step step = schedule(*this, state_.queue, state_.reads);
      if (step.status == Step::kIdle) {
        // No event exists; only a ring source can make one.
        doorbell_.park(seen);
        continue;
      }
      doorbell_.unannounce();
      if (step.status == Step::kBlocked) {
        // A source might still produce an earlier event; wait (in real
        // time) for it to advance past the stamp, park, or finish.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      if (step.status == Step::kStale) continue;
      const Candidate& candidate = step.event;
      switch (candidate.kind) {
        case Candidate::kShutdown: {
          std::uint8_t poison = 0;
          mpi_.recv_internal(&poison, 1, mpisim::kAnySource,
                             pilot::kTagShutdown);
          return 0;
        }
        case Candidate::kRequest: {
          const ReadyRequest ready = state_.queue.ready[candidate.index];
          state_.queue.ready.erase(
              state_.queue.ready.begin() +
              static_cast<std::ptrdiff_t>(candidate.index));
          process_request(ready);
          break;
        }
        case Candidate::kMpiData: {
          // lower_bound = the *oldest* parked read on the channel (the
          // multimap preserves insertion order for equal keys): frames on
          // one channel arrive in order, so they pair FIFO.
          auto it = state_.reads.lower_bound(candidate.channel);
          if (it != state_.reads.end() && it->first == candidate.channel &&
              complete_mpi_read(it->second)) {
            state_.reads.erase(it);
            record_parked_gauge();
          }
          break;
        }
        case Candidate::kSpeFault: {
          // An SPE program died of a hardware fault.  Consume its
          // posthumous notice in stamp order, then walk the degradation
          // ladder: a supervised respawn while the -pirespawn budget
          // lasts; past the last rung, convert the death into error
          // completions / fault frames at every peer, exactly as an
          // unsupervised death.
          const unsigned s = candidate.spe;
          const cellsim::Spe::FaultNotice* notice =
              blade_.spe(s).fault_notice();
          state_.dead_spes.insert(s);
          state_.queue.assembly[s] = {};  // a partial request dies with it
          clock().join(notice->stamp);
          const int pid = app_.spe_process(node_, s);
          if (!try_respawn(pid, s, *notice)) {
            // Only unrecovered deaths count as faults; a covered death is
            // invisible to peers and shows up in respawn_count() instead.
            supervision::g_faults.fetch_add(1);
            fail_process(pid, CompletionStatus::kSpeFault,
                         static_cast<std::uint32_t>(notice->code),
                         notice->detail);
          }
          break;
        }
      }
    }
  }

  /// Blade-loss recovery, run by copilot_main on the successor service
  /// before its main loop.  With a committed checkpoint on record every
  /// lost context is relaunched and the journal replays across the cut
  /// (exactly-once delivery); without one — or when a relaunch is
  /// impossible — the victim degrades through fail_process: error
  /// completions and PILF frames at every peer, never a hang.
  void restore_blade(BladeLoss& loss) {
    auto& session = ckpt::CheckpointSession::global();
    const bool restore = session.armed() && session.has_committed();
    serviced_ = loss.serviced;
    state_ = std::move(loss.state);
    for (const auto& [pid, slot] : loss.victims) {
      state_.dead_spes.insert(slot);
      if (auto rit = state_.respawns.find(pid); rit != state_.respawns.end()) {
        rit->second.alive = false;
      }
    }
    for (const auto& [pid, slot] : loss.victims) {
      if (restore && restore_one(pid, loss.stamp)) continue;
      const std::string name = app_.process(pid).name;
      supervision::g_faults.fetch_add(1);
      fail_process(
          pid, CompletionStatus::kSpeFault,
          static_cast<std::uint32_t>(cellsim::FaultCode::kInjected),
          "blade " + blade_.name() +
              (restore ? " restore failed for process " + name
                       : " killed with no committed checkpoint: process " +
                             name + " lost"));
    }
    if (!restore) return;
    flightrec::FlightRecorder::global().dump(
        "blade_restore: " + blade_.name() + " from checkpoint cut " +
        std::to_string(session.committed_cut()));
  }

 private:
  simtime::VirtualClock& clock() { return mpi_.clock(); }

  // Sources: the scheduler's view of this blade, MPI and the cluster.

  std::optional<cellsim::MailboxEntry> pop_word(unsigned s) override {
    // A blade_kill closes its victims' mailboxes; polling a closed, empty
    // mailbox throws.  A dead slot has nothing to say anyway.
    if (state_.dead_spes.count(s) != 0) return std::nullopt;
    return blade_.spe(s).outbound_mailbox().try_pop();
  }

  /// Lower bound on the stamp of anything SPE `s` may still put into its
  /// outbound mailbox.  An SPU asleep on an empty inbound mailbox can only
  /// be woken by a completion we have not yet pushed, so it is quiescent;
  /// with a completion queued, its next actions stamp at or after that
  /// completion (or its own clock, whichever is lower — the clock read may
  /// lag the join).
  SimTime spe_bound(unsigned s) override {
    // A dead SPE's clock is frozen at its death stamp and must not hold the
    // gate: its fault notice is itself a candidate at that stamp, so
    // ordering is preserved without the bound.
    if (state_.dead_spes.count(s) != 0) return kForever;
    if (blade_.spe(s).fault_notice() != nullptr) return kForever;
    if (!app_.spe_assigned(node_, s)) return kForever;
    cellsim::Spe& spe = blade_.spe(s);
    const auto queued = spe.inbound_mailbox().earliest_stamp();
    if (queued) return std::min(spe.clock().now(), *queued);
    if (spe.inbound_mailbox().reader_waiting()) return kForever;
    return spe.clock().now();
  }

  /// A consumed notice is no longer an event.
  std::optional<SimTime> fault_stamp(unsigned s) override {
    if (state_.dead_spes.count(s) != 0) return std::nullopt;
    const cellsim::Spe::FaultNotice* notice = blade_.spe(s).fault_notice();
    if (notice == nullptr) return std::nullopt;
    return notice->stamp;
  }

  std::optional<mpisim::Envelope> probe(mpisim::Rank source,
                                        int tag) override {
    return mpi_.iprobe(source, tag);
  }

  SimTime remote_bound() override {
    SimTime bound = kForever;
    // User ranks (channel data, shutdown).
    mpisim::World& world = app_.cluster().world();
    for (int r = 0; r < app_.cluster().user_rank_count(); ++r) {
      bound = std::min(bound, world.send_bound(r));
    }
    // Peer Co-Pilots (type-5 relays), via their published bounds.
    for (int n = 0; n < app_.cluster().node_count(); ++n) {
      if (n == node_ || !app_.cluster().is_cell_node(n)) continue;
      bound = std::min(bound, app_.cluster().copilot_bound(n).load(
                                  std::memory_order_acquire));
    }
    return bound;
  }

  void publish_bound(SimTime bound) override {
    published_bound_.store(bound, std::memory_order_release);
  }

  bool shutdown_deferred() override { return respawn_in_progress(); }

  /// Answers a request: a bare status word for the blocking opcodes, a
  /// packed (status | token) word for the async ones — the requester's
  /// opcode decides the completion encoding, never the Co-Pilot.
  void complete(unsigned spe, CompletionStatus status, const SpeRequest& req) {
    clock().advance(cost_.mbox_ppe_write);
    const std::uint32_t word = request_is_async(req)
                                   ? pack_completion(status, req.token)
                                   : static_cast<std::uint32_t>(status);
    blade_.spe(spe).inbound_mailbox().push_blocking(word, clock().now());
  }

  /// Frames the payload held in an SPE's local store (write requests).
  std::vector<std::byte> frame_from_ls(const Pending& w) {
    cellsim::Spe& spe = blade_.spe(w.spe);
    // Effective-address translation: the LS is memory-mapped; the MPI send
    // reads straight out of it (paper: "the message transfers directly
    // between the PPE's buffer and the SPE's local memory").  The window
    // is uncached, so the access carries a per-transfer cost.
    const std::byte* src = spe.local_store().at(w.req.ls_addr, w.req.length);
    clock().advance(cost_.copilot_ls_access(w.req.length));
    return pilot::frame_message(w.req.signature, std::span(src, w.req.length),
                                epochs::current(w.req.channel));
  }

  /// Whether the replay journal is armed: -pirespawn > 0, or a checkpoint
  /// file is armed (-pickpt) — blade restore replays the journal across
  /// the cut.  A disarmed run records nothing, so the feature is zero-cost
  /// when unused; journaling itself never moves virtual time or emits
  /// trace, so arming it keeps output byte-identical.
  bool journaling() const {
    return app_.options().respawn_budget > 0 ||
           ckpt::CheckpointSession::global().armed();
  }

  /// Journals one delivered write of SPE `spe` (the frame is on the wire /
  /// in the local reader's store): a future incarnation deduplicates it.
  void journal_write(unsigned spe, const SpeRequest& req) {
    if (!journaling()) return;
    const int pid = app_.spe_process(node_, spe);
    if (pid < 0) return;
    state_.journal[pid].writes[req.channel].push_back(
        JournalOp{req.signature, req.length, {}});
    record_journal_gauge(pid, req.channel);
  }

  /// Journals one delivered read payload of SPE `spe`: the bytes were
  /// consumed off the wire into its local store, so a future incarnation
  /// can only get them from here.
  void journal_read(unsigned spe, const SpeRequest& req,
                    std::span<const std::byte> payload) {
    if (!journaling()) return;
    const int pid = app_.spe_process(node_, spe);
    if (pid < 0) return;
    state_.journal[pid].reads[req.channel].push_back(
        JournalOp{req.signature, req.length,
                  std::vector<std::byte>(payload.begin(), payload.end())});
    record_journal_gauge(pid, req.channel);
  }

  /// Telemetry gauge: total replay-journal entries held for one process,
  /// sampled after an append.  Journaling runs on the single service
  /// thread in stamp order, so the length is deterministic.
  void record_journal_gauge(int pid, int channel) {
    if (!simtime::timeseries::armed()) return;
    const Journal& j = state_.journal[pid];
    std::int64_t len = 0;
    for (const auto& [c, ops] : j.writes) len += std::ssize(ops);
    for (const auto& [c, ops] : j.reads) len += std::ssize(ops);
    simtime::timeseries::record(simtime::timeseries::Kind::kJournalLen,
                                route_type_of(channel), channel,
                                copilot_name(), clock().now(), len);
  }

  /// True while a respawned occupant may still be running.  Shutdown is
  /// deferred behind this: PI_StopMain's barrier only waited for the
  /// originally-launched SPE threads.  An occupant that retired (its slot
  /// was released) or faulted again (its notice pends / was consumed)
  /// stops pinning the flag.
  bool respawn_in_progress() {
    bool any = false;
    for (auto& [pid, rs] : state_.respawns) {
      if (!rs.alive) continue;
      if (!app_.spe_assigned(node_, rs.flat) ||
          state_.dead_spes.count(rs.flat) != 0) {
        rs.alive = false;
        continue;
      }
      any = true;
    }
    return any;
  }

  /// The degradation ladder's first rung: relaunch the dead process's
  /// program into a fresh pooled context, charge the backoff, bump the
  /// epochs of every channel it writes (tombstoning its undelivered
  /// in-flight frames), and snapshot the replay cursors so the new
  /// incarnation's repeated operations settle from the journal.  Returns
  /// false — degrade to poison + PILF — when the budget is disarmed or
  /// spent, no launch recipe was registered, or the SPE pool is exhausted.
  /// Never throws: the last rung (fail_process) must always be reachable.
  bool try_respawn(int pid, unsigned dead_slot,
                   const cellsim::Spe::FaultNotice& notice) {
    const int budget = app_.options().respawn_budget;
    if (budget <= 0 || pid < 0) return false;
    RespawnState& rs = state_.respawns[pid];
    if (rs.attempts >= budget) return false;
    const auto recipe = app_.launch_recipe(pid);
    if (!recipe || recipe->program == nullptr) return false;
    unsigned flat = 0;
    try {
      // The faulted context is never pooled again, so this picks a
      // different physical SPE; an exhausted pool degrades.
      flat = app_.acquire_spe(node_);
    } catch (const pilot::PilotError&) {
      return false;
    }
    ++rs.attempts;
    const SimTime death = notice.stamp;
    clock().advance(cost_.copilot_service);
    // Exponential backoff per slot: attempt k waits deadline * 2^(k-1)
    // before the new occupant starts (same ladder as the deadline and
    // retransmit supervision).
    SimTime backoff = app_.options().spe_deadline;
    for (int k = 1; k < rs.attempts; ++k) backoff *= 2;
    clock().advance(backoff);

    // The dead incarnation's queued and parked requests die with it: the
    // new occupant re-issues everything from its program start.  Sync
    // parked ops had reported themselves blocked; retract those reports.
    std::erase_if(state_.queue.ready,
                  [&](const ReadyRequest& r) { return r.spe == dead_slot; });
    sweep_parked([&](int, const Pending& p) { return p.spe == dead_slot; });
    record_parked_gauge();

    // Relaunch no earlier than the Co-Pilot's post-backoff clock.
    const std::string proc_name = app_.process(pid).name;
    const SimTime start = reincarnate(pid, flat, *recipe,
                                      &trace::ChannelCounters::add_respawn);
    cellsim::Spe& spe = blade_.spe(flat);
    supervision::g_respawns.fetch_add(1);
    supervision::note_recovery_span(death, start);
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(Kind::kSpeRespawn, spe.name(), death, start,
                                0, pid, 0, rs.attempts);
    }
    if (simtime::metrics::armed()) {
      simtime::metrics::record(simtime::metrics::Kind::kRespawnLatency, 0,
                               pid, spe.name(), start - death);
    }
    if (simtime::timeseries::armed()) {
      // Same attribution as the kSpeRespawn trace event: the process id
      // rides in the channel slot, the new context is the entity.
      simtime::timeseries::record(simtime::timeseries::Kind::kRespawns, 0,
                                  pid, spe.name(), start, 1);
    }
    flightrec::FlightRecorder::global().dump(
        "spe_respawn: " + proc_name + " attempt " +
        std::to_string(rs.attempts) + "/" + std::to_string(budget) +
        " into " + spe.name());
    return true;
  }

  /// The reincarnation step of supervised respawn and blade restore: a new
  /// writer incarnation on every channel `pid` writes, replay cursors at
  /// the journal's end, and the relaunch into pooled context `flat`.
  /// Readers discard stale-epoch fault frames, and the reliable receive
  /// windows tombstone the dead incarnation's undelivered frames; whatever
  /// the sweep tombstoned was journaled as delivered but never arrived, so
  /// those entries are popped and the new incarnation re-relays exactly
  /// them.  Reader-side channels keep their epoch: in-flight frames pair
  /// FIFO with the re-issued reads past the replay cursor.  `count` is the
  /// caller's per-channel counter, bumped on every channel `pid` touches.
  /// Returns the new occupant's start stamp.
  SimTime reincarnate(int pid, unsigned flat,
                      const pilot::PilotApp::LaunchRecipe& recipe,
                      void (trace::ChannelCounters::*count)(int)) {
    Journal& j = state_.journal[pid];
    for (int c = 0; c < app_.channel_count(); ++c) {
      const PI_CHANNEL& ch = app_.channel(c);
      if (ch.from != pid && ch.to != pid) continue;
      (trace::ChannelCounters::global().*count)(c);
      if (ch.from != pid) continue;
      const std::uint32_t fresh = epochs::bump(c);
      if (!relays_over_mpi(ch.route)) continue;
      const std::size_t swept =
          mpisim::reliable::set_epoch_floor(ch.route->tag, fresh);
      auto& ops = j.writes[c];
      for (std::size_t k = 0; k < swept && !ops.empty(); ++k) {
        ops.pop_back();
      }
      if (swept != 0 && simtime::tracebuf::armed()) {
        simtime::tracebuf::record(Kind::kEpochFlush, copilot_name(),
                                  clock().now(), clock().now(), 0, c,
                                  route_type_of(c),
                                  static_cast<std::int64_t>(swept));
      }
    }

    // Everything journaled up to here was delivered on a previous
    // incarnation's behalf and must be deduped (writes) or re-served
    // (reads) rather than re-executed.
    RespawnState& rs = state_.respawns[pid];
    rs.write_cursor.clear();
    rs.read_cursor.clear();
    rs.writes_seen.clear();
    rs.reads_seen.clear();
    for (const auto& [c, ops] : j.writes) rs.write_cursor[c] = ops.size();
    for (const auto& [c, ops] : j.reads) rs.read_cursor[c] = ops.size();

    // Relaunch no earlier than the Co-Pilot's clock.  The caller leaves
    // the respawn or restore records; the launch itself leaves none.
    const SimTime start =
        std::max(clock().now(), blade_.spe(flat).clock().now());
    launch_spe(app_, node_, flat, pid, recipe, start);
    rs.flat = flat;
    rs.alive = true;
    return start;
  }

  /// Serves a respawned incarnation's operation from the journal when it
  /// repeats a delivery a predecessor completed: writes dedupe to kOk (the
  /// data is already with the reader), reads re-serve the journaled
  /// payload into the new local store.  A request that diverges from the
  /// journaled history (different signature or length) is not replayable
  /// and settles with kSpeRestarted.  Past the cursor the incarnation is
  /// in new territory and operations take the normal path.
  bool try_replay(unsigned spe, const SpeRequest& req, bool is_write) {
    if (state_.respawns.empty()) return false;  // clean runs: one empty() check
    const int pid = app_.spe_process(node_, spe);
    const auto rit = state_.respawns.find(pid);
    if (rit == state_.respawns.end()) return false;
    RespawnState& rs = rit->second;
    auto& cursor = is_write ? rs.write_cursor : rs.read_cursor;
    const auto cit = cursor.find(req.channel);
    if (cit == cursor.end()) return false;
    auto& seen = is_write ? rs.writes_seen : rs.reads_seen;
    std::size_t& n = seen[req.channel];
    if (n >= cit->second) return false;
    const std::size_t idx = n++;
    Journal& j = state_.journal[pid];
    const auto& ops = is_write ? j.writes[req.channel] : j.reads[req.channel];
    const JournalOp& op = ops[idx];
    if (op.signature != req.signature || op.length != req.length) {
      complete(spe, CompletionStatus::kSpeRestarted, req);
      return true;
    }
    if (!is_write) {
      cellsim::Spe& s = blade_.spe(spe);
      std::byte* dst = s.local_store().at(req.ls_addr, req.length);
      std::memcpy(dst, op.payload.data(), op.payload.size());
      clock().advance(cost_.copilot_ls_access(req.length));
    }
    complete(spe, CompletionStatus::kOk, req);
    trace::ChannelCounters::global().add_recovered_op(req.channel);
    supervision::g_recovered_ops.fetch_add(1);
    return true;
  }

  /// Validates frame header vs a read request; returns payload span or
  /// reports a mismatch completion and returns nullopt.
  std::optional<std::span<const std::byte>> validate_frame(
      const Pending& r, std::span<const std::byte> framed) {
    try {
      return pilot::check_frame(framed, r.req.signature, r.req.length,
                                "channel " + app_.channel(r.req.channel).name);
    } catch (const pilot::PilotError&) {
      complete(r.spe, CompletionStatus::kTypeMismatch, r.req);
      return std::nullopt;
    }
  }

  /// Copies payload into the reading SPE's local store and completes it.
  void deliver_to_ls(const Pending& r, std::span<const std::byte> payload) {
    cellsim::Spe& spe = blade_.spe(r.spe);
    std::byte* dst = spe.local_store().at(r.req.ls_addr, r.req.length);
    std::memcpy(dst, payload.data(), payload.size());
    clock().advance(cost_.copilot_ls_access(r.req.length));
    journal_read(r.spe, r.req, payload);
    complete(r.spe, CompletionStatus::kOk, r.req);
  }

  /// Type-4 pairing: writer and reader are both local SPEs.
  void transfer_local(const Pending& w, const Pending& r) {
    if (w.req.signature != r.req.signature || w.req.length != r.req.length) {
      complete(w.spe, CompletionStatus::kTypeMismatch, w.req);
      complete(r.spe, CompletionStatus::kTypeMismatch, r.req);
      return;
    }
    cellsim::Spe& ws = blade_.spe(w.spe);
    cellsim::Spe& rs = blade_.spe(r.spe);
    const std::byte* src = ws.local_store().at(w.req.ls_addr, w.req.length);
    std::byte* dst = rs.local_store().at(r.req.ls_addr, r.req.length);
    const SimTime begin = clock().now();
    std::memcpy(dst, src, w.req.length);
    clock().advance(2 * cost_.copilot_ls_access(w.req.length));
    blade_.chip(0).eib().record(ws.name(), rs.name(), w.req.length);
    trace::ChannelCounters::global().add_copilot_hop(w.req.channel);
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(Kind::kCopilotPair, copilot_name(), begin,
                                clock().now(), w.req.length, w.req.channel,
                                route_type_of(w.req.channel));
    }
    journal_write(w.spe, w.req);
    journal_read(r.spe, r.req, std::span(src, w.req.length));
    complete(w.spe, CompletionStatus::kOk, w.req);
    complete(r.spe, CompletionStatus::kOk, r.req);
  }

  std::string copilot_name() const {
    return app_.cluster().world().info(mpi_.rank()).name;
  }

  /// Telemetry gauge: requests parked waiting for their peer, sampled
  /// after a park or unpark settled.  The single service thread mutates
  /// both multimaps in stamp order, so the size pairs deterministically
  /// with the Co-Pilot clock.
  void record_parked_gauge() {
    if (simtime::timeseries::armed()) {
      simtime::timeseries::record(
          simtime::timeseries::Kind::kParkedOps, 0, -1, copilot_name(),
          clock().now(),
          static_cast<std::int64_t>(state_.writes.size() +
                                    state_.reads.size()));
    }
  }

  /// Table I type of a channel for trace records (0 if unrouted).
  std::int8_t route_type_of(int channel) const {
    if (channel < 0 || channel >= app_.channel_count()) return 0;
    const Route* rt = app_.channel(channel).route;
    return rt == nullptr ? std::int8_t{0}
                         : static_cast<std::int8_t>(rt->type);
  }

  /// Receives the arrived MPI data for a pending read and delivers it.
  bool complete_mpi_read(const Pending& r) {
    if (!mpi_.iprobe(r.expected_source, r.tag)) return false;
    const SimTime begin = clock().now();
    std::vector<std::byte> framed =
        mpi_.recv_any_size(r.expected_source, r.tag);
    // Probe hit + EA translation, charged once the data is at hand (it
    // cannot overlap the flight); draining the NIC for inter-node data
    // costs considerably more than a shared-memory pickup.
    const bool remote =
        !app_.cluster().world().same_node(r.expected_source, mpi_.rank());
    clock().advance(remote ? cost_.copilot_dispatch_remote
                           : cost_.copilot_dispatch);
    if (pilot::is_marker_frame(framed)) {
      // A peer Co-Pilot's PILS checkpoint marker arrived ahead of the data
      // this read is waiting for.  Contribute this node's shard to the
      // marked cut (first marker wins; stragglers are no-ops) and keep the
      // read parked — the data frame is still behind the marker.
      on_marker(pilot::parse_marker_frame(framed));
      return false;
    }
    if (pilot::is_fault_frame(framed)) {
      // The writer died instead of producing data: its Co-Pilot (or the
      // failure sweep) put the error on the wire in the data's place.
      const pilot::FaultFrame fault = pilot::parse_fault_frame(framed);
      if (fault.epoch < epochs::current(r.req.channel)) {
        // A dead predecessor's posthumous fault frame, overtaken by a
        // successful respawn: discard it and keep the read parked for the
        // successor incarnation's data.
        return false;
      }
      const auto status = static_cast<CompletionStatus>(fault.status);
      state_.dead_channels[r.req.channel] = status;
      trace::ChannelCounters::global().add_fault(r.req.channel);
      if (simtime::tracebuf::armed()) {
        simtime::tracebuf::record(Kind::kCopilotFault, copilot_name(), begin,
                                  clock().now(), framed.size(), r.req.channel,
                                  route_type_of(r.req.channel),
                                  static_cast<std::int64_t>(fault.status));
      }
      complete(r.spe, status, r.req);
    } else {
      if (auto payload = validate_frame(r, framed)) {
        deliver_to_ls(r, *payload);
      }
      trace::ChannelCounters::global().add_copilot_hop(r.req.channel);
      if (simtime::tracebuf::armed()) {
        simtime::tracebuf::record(Kind::kCopilotDeliver, copilot_name(),
                                  begin, clock().now(), r.req.length,
                                  r.req.channel, route_type_of(r.req.channel));
      }
    }
    if (!request_is_async(r.req)) {
      pilot::notify_unblock_proxy(mpi_, app_, app_.spe_process(node_, r.spe));
    }
    return true;
  }

  void process_request(const ReadyRequest& ready) {
    // The request's mailbox words are read (slow MMIO) and decoded now, in
    // stamp order.
    clock().join(ready.stamp);
    // Queue wait: how far the Co-Pilot's clock had already run past the
    // request's ready stamp — i.e. time spent behind earlier requests.
    // The join makes now >= stamp, so the value is never negative.
    const SimTime queue_wait = clock().now() - ready.stamp;
    if (faults::FaultPlan::global().armed() &&
        faults::FaultPlan::global().should_crash_copilot(
            copilot_name().c_str(), node_)) {
      // The Co-Pilot process dies at a request boundary.  Throw the
      // journal up to copilot_main's supervisor, which waits out the
      // heartbeat lease and constructs a standby from it.
      crashed_ = true;
      crash_stamp_ = clock().now();
      throw Crash{crash_stamp_, ready, std::move(state_)};
    }
    if (faults::FaultPlan::global().armed() &&
        faults::FaultPlan::global().should_kill_blade(blade_.name().c_str(),
                                                      node_)) {
      // The whole blade dies: every SPE context plus this Co-Pilot.  Close
      // the victims' mailboxes (their threads die quietly on the next
      // mailbox op — the raised notices land in the dead-SPE set and are
      // never consumed), retract their parked block reports, reset the
      // SPE-side state that dies with the blade, and throw the message log
      // up to copilot_main's supervisor.
      BladeLoss loss;
      loss.stamp = clock().now();
      loss.serviced = serviced_;
      for (unsigned s = 0; s < blade_.spe_count(); ++s) {
        if (state_.dead_spes.count(s) != 0) continue;
        if (!app_.spe_assigned(node_, s)) continue;
        if (blade_.spe(s).fault_notice() != nullptr) continue;
        const int pid = app_.spe_process(node_, s);
        if (pid < 0 || state_.failed.count(pid) != 0) continue;
        loss.victims.emplace_back(pid, s);
      }
      for (const auto& [pid, slot] : loss.victims) {
        blade_.spe(slot).shutdown();
      }
      sweep_parked([](int, const Pending&) { return true; });
      state_.queue.assembly.assign(blade_.spe_count(), Assembly{});
      state_.queue.ready.clear();
      crashed_ = true;
      crash_stamp_ = loss.stamp;
      loss.state = std::move(state_);
      throw loss;
    }
    if (supervise_deadline(ready)) return;
    if (simtime::metrics::armed()) {
      simtime::metrics::record(simtime::metrics::Kind::kCopilotQueueWait,
                               route_type_of(ready.req.channel),
                               ready.req.channel, copilot_name(), queue_wait);
    }
    if (simtime::timeseries::armed()) {
      // Mailbox-backlog gauge.  Only requests stamped at or before the one
      // being serviced are counted: the safe-time gate guarantees all of
      // those have been drained, while later-stamped arrivals depend on
      // host scheduling and would make the raw queue size nondeterministic.
      std::int64_t backlog = 0;
      for (const ReadyRequest& r : state_.queue.ready) {
        if (r.stamp <= ready.stamp) ++backlog;
      }
      simtime::timeseries::record(simtime::timeseries::Kind::kMailboxDepth,
                                  0, -1, copilot_name(), ready.stamp,
                                  backlog);
    }
    clock().advance(cost_.mbox_ppe_read *
                    static_cast<SimTime>(words_for(ready.req.opcode)));
    const SimTime service_begin = clock().now();
    handle_request(ready.spe, ready.req);
    if (simtime::metrics::armed()) {
      simtime::metrics::record(simtime::metrics::Kind::kCopilotService,
                               route_type_of(ready.req.channel),
                               ready.req.channel, copilot_name(),
                               clock().now() - service_begin);
    }
    if (simtime::timeseries::armed()) {
      // Service-occupancy counter: busy virtual-ns land in the window of
      // the service's begin stamp, so per-window sums expose saturation.
      simtime::timeseries::record(simtime::timeseries::Kind::kServiceBusy,
                                  route_type_of(ready.req.channel),
                                  ready.req.channel, copilot_name(),
                                  service_begin,
                                  clock().now() - service_begin);
    }
    // Checkpoint cadence: every `-pickptevery` serviced requests this node
    // contributes a shard to the next coordinated cut.  One relaxed load
    // when disarmed.
    ++serviced_;
    auto& session = ckpt::CheckpointSession::global();
    if (session.armed()) {
      const std::uint64_t every = session.every();
      if (every != 0 && serviced_ % every == 0) {
        contribute_cut(session.next_cut(node_));
      }
    }
  }

  /// Deadline adjudication.  A healthy SPE emits its four request words in
  /// a few mailbox writes' worth of virtual time; a gap between the first
  /// and last word beyond the configured budget means the SPE stalled
  /// mid-request.  The Co-Pilot then polls with exponential backoff (each
  /// retry charging one mailbox poll); a request inside a widened window
  /// is declared recovered, an exhausted ladder completes it with
  /// kSpeTimeout and fails the process.  On the clean path this is one
  /// subtraction and a comparison — no virtual time moves.
  bool supervise_deadline(const ReadyRequest& ready) {
    const SimTime budget = app_.options().spe_deadline;
    const SimTime gap = ready.stamp - ready.first_stamp;
    if (gap <= budget) return false;
    SimTime allowed = budget;
    for (int k = 1; k <= app_.options().spe_deadline_retries; ++k) {
      allowed *= 2;
      clock().advance(cost_.mbox_poll);
      trace::ChannelCounters::global().add_retry(ready.req.channel);
      if (simtime::tracebuf::armed()) {
        simtime::tracebuf::record(Kind::kCopilotRetry, copilot_name(),
                                  ready.first_stamp, clock().now(),
                                  ready.req.length, ready.req.channel,
                                  route_type_of(ready.req.channel), k);
      }
      if (gap <= allowed) {
        supervision::g_recovered.fetch_add(1);
        return false;
      }
    }
    supervision::g_timeouts.fetch_add(1);
    trace::ChannelCounters::global().add_timeout(ready.req.channel);
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(Kind::kCopilotTimeout, copilot_name(),
                                ready.first_stamp, clock().now(),
                                ready.req.length, ready.req.channel,
                                route_type_of(ready.req.channel),
                                app_.options().spe_deadline_retries);
    }
    complete(ready.spe, CompletionStatus::kSpeTimeout, ready.req);
    fail_process(app_.spe_process(node_, ready.spe),
                 CompletionStatus::kSpeTimeout,
                 static_cast<std::uint32_t>(cellsim::FaultCode::kTimeout),
                 "SPE " + blade_.spe(ready.spe).name() +
                     " missed its Co-Pilot deadline on " +
                     channel_label(app_.channel(ready.req.channel)));
    return true;
  }

  /// Whether a channel's SPE writer relays its data over MPI (Table I
  /// types 2/3 to the reader rank, type 5 to the reader's Co-Pilot).
  static bool relays_over_mpi(const Route* rt) {
    return rt != nullptr &&
           (rt->copilot_write == CopilotWriteAction::kRelayToRank ||
            rt->copilot_write == CopilotWriteAction::kRelayToPeer);
  }

  /// Where channel `c` relays over MPI, deposits a PILF fault frame in the
  /// data's place so its remote reader wakes with the error instead of
  /// blocking.  The frame carries the channel's current epoch: a reader
  /// only honours a fault frame from the writer incarnation it currently
  /// expects, so a death that was absorbed by a respawn never kills a
  /// later reader.
  void relay_fault(int c, CompletionStatus status, std::uint32_t code,
                   const std::string& detail) {
    const Route* rt = app_.channel(c).route;
    if (!relays_over_mpi(rt)) return;
    const std::uint32_t epoch = epochs::current(c);
    const std::vector<std::byte> frame = pilot::frame_fault(
        {static_cast<std::uint32_t>(status), code, epoch, detail});
    mpisim::reliable::set_send_epoch(epoch);
    mpi_.send(frame.data(), frame.size(), rt->copilot_write_dest, rt->tag);
  }

  /// Unparks every parked request `claim(channel, p)` returns true for,
  /// writes before reads and FIFO within a channel, and retracts a
  /// synchronous op's deadlock block report.  `claim` answers (or drops)
  /// each request it claims.
  template <typename Claim>
  void sweep_parked(Claim claim) {
    for (std::multimap<int, Pending>* parked :
         {&state_.writes, &state_.reads}) {
      for (auto it = parked->begin(); it != parked->end();) {
        if (!claim(it->first, it->second)) {
          ++it;
          continue;
        }
        const Pending p = it->second;
        it = parked->erase(it);
        if (!request_is_async(p.req)) {
          pilot::notify_unblock_proxy(mpi_, app_,
                                      app_.spe_process(node_, p.spe));
        }
      }
    }
  }

  /// Converts the death of process `pid` into error completions at every
  /// parked local peer, fault frames on every relay route it would have
  /// written, and poisoned channels so later requests fail fast instead of
  /// parking forever.  The job keeps running: failure travels through the
  /// same compiled routes the data would have used.
  void fail_process(int pid, CompletionStatus status, std::uint32_t code,
                    const std::string& detail) {
    if (pid < 0 || state_.failed.count(pid) != 0) return;
    const SimTime begin = clock().now();
    state_.failed[pid] = status;
    clock().advance(cost_.copilot_service);

    // Sweep parked requests on channels touching the dead process.  An SPE
    // is serial, so it has at most one parked request; a *living* parked
    // peer gets an error completion, the dead process's own parked request
    // is simply dropped.  Either way its proxy block report is retracted.
    sweep_parked([&](int channel, const Pending& p) {
      const PI_CHANNEL& ch = app_.channel(channel);
      if (ch.from != pid && ch.to != pid) return false;
      if (app_.spe_process(node_, p.spe) != pid) complete(p.spe, status, p.req);
      return true;
    });

    // Poison every channel with the dead process as an endpoint; where its
    // data plane relays over MPI, deposit a fault frame so remote readers
    // (ranks or peer Co-Pilots) wake with the error instead of blocking.
    for (int c = 0; c < app_.channel_count(); ++c) {
      const PI_CHANNEL& ch = app_.channel(c);
      if (ch.from != pid && ch.to != pid) continue;
      state_.dead_channels[c] = status;
      trace::ChannelCounters::global().add_fault(c);
      if (ch.from == pid) relay_fault(c, status, code, detail);
    }
    // The registry write comes after the wire deposits: a rank that sees
    // the failure is guaranteed to find the fault frame already waiting.
    app_.report_process_failure(pid, {static_cast<std::uint32_t>(status),
                                      code, detail});
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(Kind::kCopilotFault, copilot_name(), begin,
                                clock().now(), 0, /*channel=*/-1,
                                /*route_type=*/0,
                                static_cast<std::int64_t>(status));
    }
    // Every process failure is a flight-recorder trigger: SPE deaths
    // (HardwareFault propagation), deadline timeouts and Co-Pilot faults
    // all funnel through here.
    flightrec::FlightRecorder::global().dump(
        (status == CompletionStatus::kSpeTimeout ? "copilot_timeout: "
         : status == CompletionStatus::kCopilotFault
             ? "copilot_fault: "
             : "spe_fault: ") +
        detail);
  }

  /// Contributes this node's shard to cut `cut`, then floods PILS markers
  /// on every outgoing peer-relay route (Table I type 5) so lagging peers
  /// join the same cut at a deterministic point in their own event order.
  /// The shard is a pure copy of service state — building it moves no
  /// virtual time; only the marker sends (real wire traffic) do.
  void contribute_cut(std::uint32_t cut) {
    auto& session = ckpt::CheckpointSession::global();
    ckpt::Shard shard;
    shard.node = node_;
    shard.stamp = clock().now();
    shard.serviced = serviced_;

    // Journal marks: delivery counts (and a CRC over the read payloads) of
    // every (process, channel) pair, in key order.
    std::vector<std::byte> scratch;
    for (const auto& [pid, j] : state_.journal) {
      std::set<int> channels;
      for (const auto& [c, ops] : j.writes) channels.insert(c);
      for (const auto& [c, ops] : j.reads) channels.insert(c);
      for (const int c : channels) {
        ckpt::JournalMark mark;
        mark.pid = pid;
        mark.channel = c;
        if (auto it = j.writes.find(c); it != j.writes.end()) {
          mark.writes = it->second.size();
        }
        if (auto it = j.reads.find(c); it != j.reads.end()) {
          mark.reads = it->second.size();
          scratch.clear();
          for (const JournalOp& op : it->second) {
            scratch.insert(scratch.end(), op.payload.begin(),
                           op.payload.end());
          }
          mark.reads_crc = mpisim::reliable::crc32(scratch);
        }
        shard.journal.push_back(mark);
      }
    }

    // Parked operations, plus the local-store image of every SPE blocked
    // in a synchronous parked op: such an SPE sleeps in a mailbox read, so
    // its store is stable and the image exact at the cut's stamp.
    std::set<unsigned> imaged;
    const auto collect = [&](const std::multimap<int, Pending>& parked,
                             bool is_write) {
      for (const auto& entry : parked) {
        const Pending& p = entry.second;
        ckpt::ParkedOp op;
        op.channel = p.req.channel;
        op.pid = app_.spe_process(node_, p.spe);
        op.opcode = static_cast<std::uint32_t>(p.req.opcode);
        op.signature = p.req.signature;
        op.length = p.req.length;
        op.token = p.req.token;
        op.is_write = is_write ? 1 : 0;
        op.is_async = request_is_async(p.req) ? 1 : 0;
        shard.parked.push_back(op);
        if (!request_is_async(p.req) && imaged.insert(p.spe).second) {
          cellsim::Spe& spe = blade_.spe(p.spe);
          ckpt::SpeImage image;
          image.pid = op.pid;
          image.clock = spe.clock().now();
          image.name = spe.name();
          const std::byte* base = spe.local_store().base();
          image.ls.assign(base, base + spe.local_store().size());
          shard.images.push_back(std::move(image));
        }
      }
    };
    collect(state_.writes, true);
    collect(state_.reads, false);

    // Flood markers before the contribution can commit the cut.  Only
    // type-5 routes carry them: plain ranks cannot parse a PILS frame,
    // and their state is reconstructed from the journal anyway.
    std::set<int> local_pids;
    for (unsigned s = 0; s < blade_.spe_count(); ++s) {
      if (state_.dead_spes.count(s) != 0) continue;
      if (!app_.spe_assigned(node_, s)) continue;
      const int pid = app_.spe_process(node_, s);
      if (pid >= 0) local_pids.insert(pid);
    }
    pilot::MarkerFrame marker;
    marker.cut = cut;
    marker.stamp = shard.stamp;
    marker.node = static_cast<std::uint32_t>(node_);
    for (int c = 0; c < app_.channel_count(); ++c) {
      const PI_CHANNEL& ch = app_.channel(c);
      if (local_pids.count(ch.from) == 0) continue;
      const Route* rt = ch.route;
      if (rt == nullptr ||
          rt->copilot_write != CopilotWriteAction::kRelayToPeer) {
        continue;
      }
      const std::vector<std::byte> framed = pilot::frame_marker(marker);
      // The channel's current epoch rides along so an armed epoch floor
      // (respawn/restore tombstones) never swallows the marker.
      mpisim::reliable::set_send_epoch(epochs::current(c));
      mpi_.send(framed.data(), framed.size(), rt->copilot_write_dest,
                rt->tag);
    }

    std::vector<std::uint32_t> all_epochs;
    all_epochs.reserve(static_cast<std::size_t>(app_.channel_count()));
    for (int c = 0; c < app_.channel_count(); ++c) {
      all_epochs.push_back(epochs::current(c));
    }
    session.contribute(cut, std::move(shard), std::move(all_epochs),
                       mpisim::reliable::snapshot_links());
  }

  /// Marker receipt: join the marked cut unless this node already
  /// contributed to it (stragglers are no-ops).
  void on_marker(const pilot::MarkerFrame& marker) {
    auto& session = ckpt::CheckpointSession::global();
    if (!session.armed()) return;
    if (session.needs_contribution(node_, marker.cut)) {
      contribute_cut(marker.cut);
    }
  }

  /// Relaunches one lost process from the checkpoint's message log:
  /// acquire a fresh context and reincarnate the process into it.  The
  /// new incarnation re-executes from its program start; everything the
  /// journal says was delivered settles from it without touching the wire
  /// — exactly-once across the cut.  Returns false (degrade) when no
  /// launch recipe exists or the SPE pool is exhausted.
  bool restore_one(int pid, SimTime death) {
    const auto recipe = app_.launch_recipe(pid);
    if (!recipe || recipe->program == nullptr) return false;
    unsigned flat = 0;
    try {
      // Skip slots whose mailboxes the kill closed: a victim that finished
      // its whole program between the kill and the shutdown call released
      // its slot back to the pool, and that context can never run again.
      // The skipped acquisitions stay acquired — a killed blade loses
      // contexts, it does not get them back.
      for (;;) {
        flat = app_.acquire_spe(node_);
        if (state_.dead_spes.count(flat) == 0) break;
      }
    } catch (const pilot::PilotError&) {
      return false;
    }
    clock().advance(cost_.copilot_service);

    const SimTime start = reincarnate(pid, flat, *recipe,
                                      &trace::ChannelCounters::add_restore);
    cellsim::Spe& spe = blade_.spe(flat);
    supervision::g_restores.fetch_add(1);
    supervision::note_recovery_span(death, start);
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(
          Kind::kBladeRestore, spe.name(), death, start, 0, pid, 0,
          static_cast<std::int64_t>(
              ckpt::CheckpointSession::global().committed_cut()));
    }
    if (simtime::metrics::armed()) {
      simtime::metrics::record(simtime::metrics::Kind::kRestoreLatency, 0,
                               pid, spe.name(), start - death);
    }
    return true;
  }

  /// Standby takeover: inherits the crashed Co-Pilot's service state.
  /// Parked requests stay parked as they were (their block proxies were
  /// already notified before the crash, so no re-notify); the one request
  /// the old Co-Pilot died holding is not replayable (its local-store
  /// framing may have been half done) and fails cleanly with
  /// kCopilotFault, poisoning its channel so every peer observes the error
  /// instead of hanging.
  void recover(Crash& c) {
    state_ = std::move(c.state);

    const ReadyRequest& in = c.inflight;
    clock().advance(cost_.copilot_service);
    complete(in.spe, CompletionStatus::kCopilotFault, in.req);
    const int chid = in.req.channel;
    if (chid >= 0 && chid < app_.channel_count()) {
      state_.dead_channels[chid] = CompletionStatus::kCopilotFault;
      trace::ChannelCounters::global().add_fault(chid);
      // A peer parked on the poisoned channel can never be served; wake
      // it with the error (and retract its deadlock block report) rather
      // than leaving it to hang.
      sweep_parked([&](int channel, const Pending& p) {
        if (channel != chid) return false;
        complete(p.spe, CompletionStatus::kCopilotFault, p.req);
        return true;
      });
      // A write that would have relayed over MPI leaves a reader (rank or
      // peer Co-Pilot) waiting for data that will never come: put the
      // fault on the wire in the data's place.
      if (in.req.opcode == Opcode::kWrite ||
          in.req.opcode == Opcode::kWriteAsync) {
        relay_fault(chid, CompletionStatus::kCopilotFault,
                    static_cast<std::uint32_t>(cellsim::FaultCode::kInjected),
                    "Co-Pilot " + copilot_name() + " crashed serving " +
                        channel_label(app_.channel(chid)));
      }
    }
  }

  /// Parks `p` until its peer arrives.  A synchronous op reports its SPE
  /// blocked on `peer_pid`; an async parked op does not block its SPE (the
  /// program keeps computing), so it must not feed the deadlock detector.
  void park(std::multimap<int, Pending>& parked, const Pending& p,
            int peer_pid) {
    parked.emplace(p.req.channel, p);
    record_parked_gauge();
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(Kind::kCopilotPark, copilot_name(),
                                clock().now(), clock().now(), p.req.length,
                                p.req.channel, route_type_of(p.req.channel),
                                static_cast<std::int64_t>(p.req.opcode));
    }
    if (!request_is_async(p.req)) {
      pilot::notify_block_proxy(mpi_, app_, app_.spe_process(node_, p.spe),
                                peer_pid, p.req.channel);
    }
  }

  /// Type 4: pairs `p` with the oldest parked local peer on its channel —
  /// unparking the peer and retracting its block report — or parks `p`.
  void pair_or_park(const Pending& p, bool is_write, int peer_pid) {
    std::multimap<int, Pending>& peers =
        is_write ? state_.reads : state_.writes;
    const auto it = peers.lower_bound(p.req.channel);
    if (it == peers.end() || it->first != p.req.channel ||
        it->second.expected_source != mpisim::kAnySource) {
      park(is_write ? state_.writes : state_.reads, p, peer_pid);
      return;
    }
    const Pending peer = it->second;
    peers.erase(it);
    record_parked_gauge();
    if (!request_is_async(peer.req)) {
      pilot::notify_unblock_proxy(mpi_, app_,
                                  app_.spe_process(node_, peer.spe));
    }
    if (is_write) {
      transfer_local(p, peer);
    } else {
      transfer_local(peer, p);
    }
  }

  void handle_request(unsigned spe, const SpeRequest& req) {
    const SimTime begin = clock().now();
    clock().advance(cost_.copilot_service);
    if (faults::FaultPlan::global().armed()) {
      const SimTime extra =
          faults::FaultPlan::global().copilot_delay(copilot_name().c_str());
      if (extra > 0) clock().advance(extra);
    }

    // Bounds and opcode checks stay ahead of any route lookup: a rogue
    // request may carry an arbitrary channel id.
    const bool is_write =
        req.opcode == Opcode::kWrite || req.opcode == Opcode::kWriteAsync;
    const bool is_read =
        req.opcode == Opcode::kRead || req.opcode == Opcode::kReadAsync;
    if (req.channel < 0 || req.channel >= app_.channel_count() ||
        (!is_write && !is_read)) {
      complete(spe, CompletionStatus::kProtocol, req);
      return;
    }
    const PI_CHANNEL& ch = app_.channel(req.channel);
    const Route* rt = ch.route;
    if (rt == nullptr) {
      complete(spe, CompletionStatus::kProtocol, req);
      return;
    }
    // A channel poisoned by a peer's death fails fast with the stored
    // status instead of parking a request that can never be served.
    if (auto dead = state_.dead_channels.find(req.channel);
        dead != state_.dead_channels.end()) {
      complete(spe, dead->second, req);
      return;
    }
    const int peer_pid = is_write ? ch.to : ch.from;
    if (auto failed = state_.failed.find(peer_pid);
        failed != state_.failed.end()) {
      state_.dead_channels[req.channel] = failed->second;
      complete(spe, failed->second, req);
      return;
    }
    // A respawned incarnation re-executes its program from the top, so its
    // first operations repeat deliveries a predecessor already completed;
    // those settle from the journal without touching the wire.
    if (try_replay(spe, req, is_write)) return;
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(
          Kind::kCopilotRequest, copilot_name(), begin, clock().now(),
          req.length, req.channel, static_cast<std::int8_t>(rt->type),
          static_cast<std::int64_t>(req.opcode));
    }
    Pending p{req, spe, mpisim::kAnySource, rt->tag};

    if (is_write) {
      switch (rt->copilot_write) {
        case CopilotWriteAction::kRelayToRank:
        case CopilotWriteAction::kRelayToPeer: {
          // Types 2/3: relay to the reading rank on the SPE's behalf;
          // type 5: relay to the reader's Co-Pilot.
          const auto framed = frame_from_ls(p);
          mpisim::reliable::set_send_epoch(epochs::current(req.channel));
          mpi_.send(framed.data(), framed.size(), rt->copilot_write_dest,
                    rt->tag);
          trace::ChannelCounters::global().add_copilot_hop(req.channel);
          if (simtime::tracebuf::armed()) {
            simtime::tracebuf::record(Kind::kCopilotRelay, copilot_name(),
                                      begin, clock().now(), req.length,
                                      req.channel,
                                      static_cast<std::int8_t>(rt->type));
          }
          complete(spe, CompletionStatus::kOk, req);
          journal_write(spe, req);
          break;
        }
        case CopilotWriteAction::kPairLocal:
          pair_or_park(p, /*is_write=*/true, ch.to);
          break;
        case CopilotWriteAction::kNone:
          // The channel's writer is not an SPE: not a legal request.
          complete(spe, CompletionStatus::kProtocol, req);
          return;
      }
    } else {  // kRead
      switch (rt->copilot_read) {
        case CopilotReadAction::kPairLocal:
          pair_or_park(p, /*is_write=*/false, ch.from);
          break;
        case CopilotReadAction::kAwaitMpi:
          // Types 2/3/5: data arrives over MPI from the writer rank or the
          // writer's Co-Pilot; the main loop delivers it in stamp order.
          p.expected_source = rt->copilot_read_source;
          park(state_.reads, p, ch.from);
          break;
        case CopilotReadAction::kNone:
          complete(spe, CompletionStatus::kProtocol, req);
          return;
      }
    }
  }

  mpisim::Mpi& mpi_;
  PilotApp& app_;
  int node_;
  cellsim::CellBlade& blade_;
  const simtime::CostModel& cost_;
  ServiceState state_;
  std::atomic<SimTime>& published_bound_;
  simtime::Doorbell& doorbell_;
  /// Requests serviced by this incarnation — the checkpoint cadence
  /// counter (every -pickptevery services contributes a shard).  Carried
  /// across a blade kill so the cut ordinals stay on schedule.
  std::uint64_t serviced_ = 0;
  /// Set when an injected crash is in flight: the destructor then
  /// publishes the crash stamp instead of kForever.
  bool crashed_ = false;
  SimTime crash_stamp_ = 0;
};

}  // namespace

int copilot_main(mpisim::Mpi& mpi, pilot::PilotApp& app, int node) {
  // The cluster runner's supervisor: run the Co-Pilot; when an injected
  // crash kills it, detect the death through the heartbeat lease (virtual
  // time the standby must wait past the crash stamp for the missed
  // heartbeat), then spawn a standby seeded from the crash journal.
  std::optional<CopilotService::Crash> crash;
  std::optional<CopilotService::BladeLoss> loss;
  for (;;) {
    try {
      CopilotService service(mpi, app, node, crash ? &*crash : nullptr);
      crash.reset();
      if (loss) {
        service.restore_blade(*loss);
        loss.reset();
      }
      return service.run();
    } catch (CopilotService::BladeLoss& b) {
      // A blade_kill took out every SPE context plus this Co-Pilot.  Wait
      // out the lease (the cluster detects the death through the missed
      // heartbeat), then hand the message log to a successor service:
      // restore from the last committed checkpoint, or degrade.
      mpi.clock().join(b.stamp + app.options().copilot_lease);
      app.cluster().record_blade_kill(node);
      supervision::note_recovery_span(b.stamp, mpi.clock().now());
      flightrec::FlightRecorder::global().dump(
          "blade_kill: node " + std::to_string(node) + " lost " +
          std::to_string(b.victims.size()) + " SPE contexts");
      loss = std::move(b);
    } catch (CopilotService::Crash& c) {
      mpi.clock().join(c.stamp + app.options().copilot_lease);
      app.cluster().record_copilot_failover(node);
      supervision::g_failovers.fetch_add(1);
      supervision::note_recovery_span(c.stamp, mpi.clock().now());
      const std::string name = app.cluster().world().info(mpi.rank()).name;
      if (simtime::tracebuf::armed()) {
        simtime::tracebuf::record(Kind::kCopilotFailover, name, c.stamp,
                                  mpi.clock().now(), 0, /*channel=*/-1,
                                  /*route_type=*/0,
                                  static_cast<std::int64_t>(node));
      }
      flightrec::FlightRecorder::global().dump(
          "copilot_failover: standby taking over " + name + " (node " +
          std::to_string(node) + ")");
      crash = std::move(c);
    }
  }
}

}  // namespace cellpilot
