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
#include "core/spe_runtime.hpp"
#include "core/trace.hpp"
#include "mpisim/reliable.hpp"
#include "pilot/deadlock.hpp"
#include "pilot/wire.hpp"
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

/// One Co-Pilot's live state.
///
/// The Co-Pilot is a *serial* resource (the PPE's second hardware thread):
/// its virtual clock accumulates every request it services, which is
/// exactly the contention the paper measures.  Because the simulation's
/// host threads race, events do not arrive in virtual-time order; the
/// service therefore runs a conservative discrete-event rule: an event with
/// stamp T is processed only once every potential source -- local SPEs,
/// user ranks, peer Co-Pilots -- provably cannot produce an earlier one
/// (their clocks have passed T, or they are parked/blocked/done).  This
/// makes all timing results deterministic regardless of host scheduling.
class CopilotService {
 private:
  struct Assembly {
    std::uint32_t words[kAsyncRequestWords] = {};
    int n = 0;
    SimTime first_stamp = 0;  ///< stamp of the request's first mailbox word
    SimTime last_stamp = 0;
  };

  struct ReadyRequest {
    SpeRequest req;
    unsigned spe = 0;
    SimTime stamp = 0;        ///< stamp of the request's final mailbox word
    SimTime first_stamp = 0;  ///< stamp of its first word (deadline base)
  };

  struct Pending {
    SpeRequest req;
    unsigned spe = 0;
    /// MPI source the data will come from (kRank writer or remote
    /// Co-Pilot); kAnySource for type-4 reads awaiting a local writer.
    mpisim::Rank expected_source = mpisim::kAnySource;
    /// The channel's data tag, copied from its compiled route.
    int tag = 0;
  };

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

 public:
  /// The journal a crashing Co-Pilot throws (the copilot_crash fault
  /// kind): the crash stamp, the request it died holding, and every piece
  /// of dynamic service state a standby needs to resume.  The channel and
  /// route tables are compiled state (app_) and need no replay.
  struct Crash {
    SimTime stamp = 0;
    ReadyRequest inflight;
    std::vector<ReadyRequest> ready;
    std::vector<Assembly> assembly;
    std::multimap<int, Pending> writes;
    std::multimap<int, Pending> reads;
    std::set<unsigned> dead_spes;
    std::map<int, CompletionStatus> dead_channels;
    std::map<int, CompletionStatus> failed;
    std::map<int, Journal> journal;
    std::map<int, RespawnState> respawns;
  };

  /// What a blade_kill fault throws: the whole blade died — every SPE
  /// context plus the Co-Pilot.  Unlike Crash, the SPE-side dynamic state
  /// (ready queue, assemblies, parked ops) dies with the blade; what
  /// survives is the delivery journal — the message log that, together
  /// with the last committed checkpoint, lets the successor relaunch the
  /// lost contexts with exactly-once delivery across the cut.
  struct BladeLoss {
    SimTime stamp = 0;
    std::uint64_t serviced = 0;  ///< keeps the checkpoint cadence
    std::vector<std::pair<int, unsigned>> victims;  ///< (pid, dead slot)
    std::set<unsigned> dead_spes;
    std::map<int, CompletionStatus> dead_channels;
    std::map<int, CompletionStatus> failed;
    std::map<int, Journal> journal;
    std::map<int, RespawnState> respawns;
  };

  /// `crash` non-null constructs a standby taking over from the journal.
  CopilotService(mpisim::Mpi& mpi, PilotApp& app, int node,
                 const Crash* crash = nullptr)
      : mpi_(mpi),
        app_(app),
        node_(node),
        blade_(app.cluster().blade(node)),
        cost_(app.cluster().cost()),
        assembly_(blade_.spe_count()),
        published_bound_(app.cluster().copilot_bound(node)) {
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
      drain_mailboxes();
      publish_bound();

      const auto candidate = pick_candidate();
      if (!candidate) {
        std::this_thread::sleep_for(std::chrono::microseconds(40));
        continue;
      }
      const SimTime safe = safe_time();
      if (!(candidate->stamp < safe || safe == kForever)) {
        // A source at or before the candidate's stamp might still produce
        // an earlier (or equal-stamp) event; wait (in real time) for it to
        // advance past the stamp, park, or finish.  Strictness keeps the
        // processing order independent of host scheduling.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      // Revalidate: a source may have emitted an earlier event and then
      // parked *between* the drain above and the quiescence check (parking
      // is what made the gate pass).  Its event is already in the mailbox,
      // so one more drain surfaces it; if the earliest candidate changed,
      // start over.
      drain_mailboxes();
      const auto recheck = pick_candidate();
      if (!recheck || recheck->before(*candidate) ||
          candidate->before(*recheck)) {
        continue;
      }
      switch (candidate->kind) {
        case Candidate::kShutdown: {
          std::uint8_t poison = 0;
          mpi_.recv_internal(&poison, 1, mpisim::kAnySource,
                             pilot::kTagShutdown);
          return 0;
        }
        case Candidate::kRequest: {
          const ReadyRequest ready = ready_requests_[candidate->index];
          ready_requests_.erase(ready_requests_.begin() +
                                static_cast<std::ptrdiff_t>(candidate->index));
          process_request(ready);
          break;
        }
        case Candidate::kMpiData: {
          // lower_bound = the *oldest* parked read on the channel (the
          // multimap preserves insertion order for equal keys): frames on
          // one channel arrive in order, so they pair FIFO.
          auto it = pending_reads_.lower_bound(candidate->channel);
          if (it != pending_reads_.end() &&
              it->first == candidate->channel &&
              complete_mpi_read(it->second)) {
            pending_reads_.erase(it);
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
          const unsigned s = candidate->spe;
          const cellsim::Spe::FaultNotice* notice =
              blade_.spe(s).fault_notice();
          dead_spes_.insert(s);
          assembly_[s] = Assembly{};  // a partial request dies with it
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
    dead_spes_ = std::move(loss.dead_spes);
    dead_channels_ = std::move(loss.dead_channels);
    failed_ = std::move(loss.failed);
    journal_ = std::move(loss.journal);
    respawns_ = std::move(loss.respawns);
    for (const auto& [pid, slot] : loss.victims) {
      dead_spes_.insert(slot);
      if (auto rit = respawns_.find(pid); rit != respawns_.end()) {
        rit->second.alive = false;
      }
    }
    if (!restore) {
      for (const auto& [pid, slot] : loss.victims) {
        supervision::g_faults.fetch_add(1);
        fail_process(
            pid, CompletionStatus::kSpeFault,
            static_cast<std::uint32_t>(cellsim::FaultCode::kInjected),
            "blade " + blade_.name() +
                " killed with no committed checkpoint: process " +
                app_.process(pid).name + " lost");
      }
      return;
    }
    for (const auto& [pid, slot] : loss.victims) {
      if (!restore_one(pid, loss.stamp)) {
        supervision::g_faults.fetch_add(1);
        fail_process(
            pid, CompletionStatus::kSpeFault,
            static_cast<std::uint32_t>(cellsim::FaultCode::kInjected),
            "blade " + blade_.name() + " restore failed for process " +
                app_.process(pid).name);
      }
    }
    flightrec::FlightRecorder::global().dump(
        "blade_restore: " + blade_.name() + " from checkpoint cut " +
        std::to_string(session.committed_cut()));
  }

 private:
  struct Candidate {
    enum Kind { kRequest, kMpiData, kShutdown, kSpeFault };
    SimTime stamp = 0;
    Kind kind = kRequest;
    std::size_t index = 0;  ///< into ready_requests_ for kRequest
    int channel = -1;       ///< pending-read channel for kMpiData
    unsigned spe = 0;       ///< issuing SPE for kRequest (tie-breaking)

    /// Total order: stamp, then kind, then SPE, then channel — so that
    /// equal-stamp events are processed in the same order regardless of
    /// the real-time order in which they became visible.
    bool before(const Candidate& other) const {
      if (stamp != other.stamp) return stamp < other.stamp;
      if (kind != other.kind) return kind < other.kind;
      if (spe != other.spe) return spe < other.spe;
      return channel < other.channel;
    }
  };

  simtime::VirtualClock& clock() { return mpi_.clock(); }

  /// Moves available mailbox words into per-SPE assemblies and completed
  /// requests into the ready queue.  No virtual time is charged here; the
  /// MMIO read costs are charged when the request is processed, in stamp
  /// order.
  void drain_mailboxes() {
    for (unsigned s = 0; s < blade_.spe_count(); ++s) {
      // A blade_kill closes its victims' mailboxes; polling a closed,
      // empty mailbox throws.  A dead slot has nothing to say anyway.
      if (dead_spes_.count(s) != 0) continue;
      while (auto entry = blade_.spe(s).outbound_mailbox().try_pop()) {
        Assembly& a = assembly_[s];
        if (a.n == 0) a.first_stamp = entry->stamp;
        a.words[a.n++] = entry->value;
        a.last_stamp = entry->stamp;
        // The first word names the opcode, which fixes the request length
        // (4 words for the blocking opcodes, 5 for the token-carrying
        // async ones; unknown opcodes decode as 4 so the protocol check
        // can reject them without desynchronising the word stream).
        if (a.n == words_for(unpack_opcode(a.words[0]))) {
          ReadyRequest ready;
          ready.req = decode(a.words);
          ready.spe = s;
          ready.stamp = a.last_stamp;
          ready.first_stamp = a.first_stamp;
          ready_requests_.push_back(ready);
          a.n = 0;
        }
      }
    }
  }

  /// Lower bound on the stamp of anything SPE `s` may still put into its
  /// outbound mailbox.  An SPU asleep on an empty inbound mailbox can only
  /// be woken by a completion we have not yet pushed, so it is quiescent;
  /// with a completion queued, its next actions stamp at or after that
  /// completion (or its own clock, whichever is lower — the clock read may
  /// lag the join).
  SimTime spe_bound(unsigned s) {
    // A dead SPE's clock is frozen at its death stamp and must not pin the
    // safe time: its fault notice is itself a candidate at that stamp, so
    // ordering is preserved without the bound.
    if (dead_spes_.count(s) != 0) return kForever;
    if (blade_.spe(s).fault_notice() != nullptr) return kForever;
    if (!app_.spe_assigned(node_, s)) return kForever;
    cellsim::Spe& spe = blade_.spe(s);
    const auto queued = spe.inbound_mailbox().earliest_stamp();
    if (queued) return std::min(spe.clock().now(), *queued);
    if (spe.inbound_mailbox().reader_waiting()) return kForever;
    return spe.clock().now();
  }

  /// Publishes the lower bound on stamps of future *inter-node relays*
  /// this Co-Pilot may originate: the minimum over local SPE bounds,
  /// queued requests, and partial assemblies.  Peer Co-Pilots fold this
  /// into their safe time (conservative null message).
  void publish_bound() {
    SimTime bound = kForever;
    for (unsigned s = 0; s < blade_.spe_count(); ++s) {
      if (assembly_[s].n > 0) {
        bound = std::min(bound, assembly_[s].last_stamp);
      }
      bound = std::min(bound, spe_bound(s));
    }
    for (const ReadyRequest& r : ready_requests_) {
      bound = std::min(bound, r.stamp);
    }
    published_bound_.store(bound, std::memory_order_release);
  }

  /// The conservative safe time: no source can produce an event with a
  /// stamp below it.
  SimTime safe_time() {
    SimTime safe = kForever;
    // Local SPEs (requests arrive through their mailboxes).
    for (unsigned s = 0; s < blade_.spe_count(); ++s) {
      safe = std::min(safe, spe_bound(s));
    }
    // User ranks (channel data, shutdown).
    mpisim::World& world = app_.cluster().world();
    for (int r = 0; r < app_.cluster().user_rank_count(); ++r) {
      safe = std::min(safe, world.send_bound(r));
    }
    // Peer Co-Pilots (type-5 relays), via their published bounds.
    for (int n = 0; n < app_.cluster().node_count(); ++n) {
      if (n == node_ || !app_.cluster().is_cell_node(n)) continue;
      safe = std::min(safe, app_.cluster().copilot_bound(n).load(
                                std::memory_order_acquire));
    }
    return safe;
  }

  /// The earliest available event, if any.
  std::optional<Candidate> pick_candidate() {
    std::optional<Candidate> best;
    auto consider = [&best](Candidate c) {
      if (!best || c.before(*best)) best = c;
    };
    for (std::size_t i = 0; i < ready_requests_.size(); ++i) {
      consider({ready_requests_[i].stamp, Candidate::kRequest, i, -1,
                ready_requests_[i].spe});
    }
    int last_channel = -1;
    for (const auto& [channel, p] : pending_reads_) {
      if (channel == last_channel) continue;  // only the FIFO head pairs
      last_channel = channel;
      if (p.expected_source == mpisim::kAnySource) continue;  // type 4
      if (auto env = mpi_.iprobe(p.expected_source, p.tag)) {
        consider({env->arrival, Candidate::kMpiData, 0, channel, p.spe});
      }
    }
    if (auto env = mpi_.iprobe(mpisim::kAnySource, pilot::kTagShutdown)) {
      // Shutdown is deferred while a respawned occupant is still running.
      // PI_StopMain's rank barrier only proves the *originally launched*
      // SPE threads have retired; a supervised respawn registered after
      // the owner's join sweep may still be executing, and exiting now
      // would leave its requests unserved — a teardown hang.  The message
      // stays queued and is consumed once no respawned occupant is alive.
      if (!respawn_in_progress()) {
        consider({env->arrival, Candidate::kShutdown, 0, -1, 0});
      }
    }
    for (unsigned s = 0; s < blade_.spe_count(); ++s) {
      if (dead_spes_.count(s) != 0) continue;
      if (const auto* notice = blade_.spe(s).fault_notice()) {
        consider({notice->stamp, Candidate::kSpeFault, 0, -1, s});
      }
    }
    return best;
  }

  static SpeRequest decode(const std::uint32_t words[kAsyncRequestWords]) {
    SpeRequest r;
    r.opcode = unpack_opcode(words[0]);
    r.channel = unpack_channel(words[0]);
    r.ls_addr = words[1];
    r.length = words[2];
    r.signature = words[3];
    if (words_for(r.opcode) == kAsyncRequestWords) r.token = words[4];
    return r;
  }

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
    journal_[pid].writes[req.channel].push_back(
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
    journal_[pid].reads[req.channel].push_back(
        JournalOp{req.signature, req.length,
                  std::vector<std::byte>(payload.begin(), payload.end())});
    record_journal_gauge(pid, req.channel);
  }

  /// Telemetry gauge: total replay-journal entries held for one process,
  /// sampled after an append.  Journaling runs on the single service
  /// thread in stamp order, so the length is deterministic.
  void record_journal_gauge(int pid, int channel) {
    if (!simtime::timeseries::armed()) return;
    const Journal& j = journal_[pid];
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
    for (auto& [pid, rs] : respawns_) {
      if (!rs.alive) continue;
      if (!app_.spe_assigned(node_, rs.flat) ||
          dead_spes_.count(rs.flat) != 0) {
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
    RespawnState& rs = respawns_[pid];
    if (rs.attempts >= budget) return false;
    const auto seed = app_.respawn_seed(pid);
    if (!seed || seed->program == nullptr) return false;
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
    ready_requests_.erase(
        std::remove_if(
            ready_requests_.begin(), ready_requests_.end(),
            [&](const ReadyRequest& r) { return r.spe == dead_slot; }),
        ready_requests_.end());
    const auto purge = [&](std::multimap<int, Pending>& parked) {
      for (auto it = parked.begin(); it != parked.end();) {
        if (it->second.spe != dead_slot) {
          ++it;
          continue;
        }
        const Pending p = it->second;
        it = parked.erase(it);
        if (!request_is_async(p.req)) {
          pilot::notify_unblock_proxy(mpi_, app_, pid);
        }
      }
    };
    purge(pending_writes_);
    purge(pending_reads_);
    record_parked_gauge();

    // New writer incarnation on every channel the process writes: readers
    // discard stale-epoch fault frames, and the reliable receive windows
    // tombstone the dead incarnation's undelivered frames.  Whatever the
    // sweep tombstoned was journaled as delivered but never arrived — pop
    // those entries so the new incarnation re-relays exactly them.
    // Reader-side channels keep their epoch: in-flight frames pair FIFO
    // with the re-issued reads past the replay cursor.
    Journal& j = journal_[pid];
    for (int c = 0; c < app_.channel_count(); ++c) {
      const PI_CHANNEL& ch = app_.channel(c);
      if (ch.from != pid && ch.to != pid) continue;
      trace::ChannelCounters::global().add_respawn(c);
      if (ch.from != pid) continue;
      const std::uint32_t fresh = epochs::bump(c);
      const Route* rt = ch.route;
      if (rt != nullptr &&
          (rt->copilot_write == CopilotWriteAction::kRelayToRank ||
           rt->copilot_write == CopilotWriteAction::kRelayToPeer)) {
        const std::size_t swept =
            mpisim::reliable::set_epoch_floor(rt->tag, fresh);
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
    }

    // Snapshot the replay cursors: everything journaled up to here was
    // delivered on a previous incarnation's behalf and must be deduped
    // (writes) or re-served (reads) rather than re-executed.
    rs.write_cursor.clear();
    rs.read_cursor.clear();
    rs.writes_seen.clear();
    rs.reads_seen.clear();
    for (const auto& [c, ops] : j.writes) rs.write_cursor[c] = ops.size();
    for (const auto& [c, ops] : j.reads) rs.read_cursor[c] = ops.size();

    // Relaunch: same recipe as PI_RunSPE, into the fresh context, starting
    // no earlier than the Co-Pilot's post-backoff clock.
    const std::string proc_name = app_.process(pid).name;
    const SimTime start = relaunch(pid, flat, *seed);
    cellsim::Spe& spe = blade_.spe(flat);

    rs.flat = flat;
    rs.alive = true;
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

  /// Launches process `pid`'s registered program into pooled context
  /// `flat` — the shared relaunch recipe of supervised respawn and blade
  /// restore.  Returns the new occupant's start stamp (no earlier than the
  /// Co-Pilot's clock).  The thread wrapper mirrors PI_RunSPE's: a clean
  /// exit releases the slot, a hardware fault leaves a notice for the
  /// ladder, anything else aborts the world.
  SimTime relaunch(int pid, unsigned flat,
                   const pilot::PilotApp::RespawnSeed& seed) {
    app_.bind_spe_process(node_, flat, pid);
    cellsim::Spe& spe = blade_.spe(flat);
    mpisim::World* world = &app_.cluster().world();
    auto launch = std::make_unique<SpeLaunchArgs>();
    launch->app = &app_;
    launch->process_id = pid;
    launch->arg = seed.arg;
    launch->ptr = seed.ptr;
    const SimTime start = std::max(clock().now(), spe.clock().now());
    const std::string proc_name = app_.process(pid).name;
    pilot::PilotApp* app = &app_;
    std::thread t([app, &spe, program = seed.program,
                   launch = std::move(launch), node = node_, flat, start,
                   world, proc_name] {
      spe.clock().join(start);
      bool faulted = false;
      try {
        cellsim::spe2::SpeContext sctx(spe);
        sctx.run(*program, cellsim::ea_of(launch.get()), 0);
      } catch (const mpisim::WorldAborted&) {
        // Job torn down elsewhere.
      } catch (const cellsim::HardwareFault& f) {
        // A respawned occupant can die too: leave the notice and let the
        // ladder decide again (respawn while budget lasts, then degrade).
        if (!world->aborted()) {
          faulted = true;
          spe.raise_fault(f.fault_code(), spe.clock().now(),
                          "SPE process " + proc_name + ": " + f.what());
        }
      } catch (const std::exception& e) {
        if (!world->aborted()) {
          world->abort("SPE process " + proc_name + " failed: " + e.what());
        }
      }
      if (!faulted) app->release_spe(node, flat);
    });
    app_.add_spe_thread(seed.owner, std::move(t));
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
    if (respawns_.empty()) return false;  // clean runs: one empty() check
    const int pid = app_.spe_process(node_, spe);
    const auto rit = respawns_.find(pid);
    if (rit == respawns_.end()) return false;
    RespawnState& rs = rit->second;
    auto& cursor = is_write ? rs.write_cursor : rs.read_cursor;
    const auto cit = cursor.find(req.channel);
    if (cit == cursor.end()) return false;
    auto& seen = is_write ? rs.writes_seen : rs.reads_seen;
    std::size_t& n = seen[req.channel];
    if (n >= cit->second) return false;
    const std::size_t idx = n++;
    Journal& j = journal_[pid];
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
          static_cast<std::int64_t>(pending_writes_.size() +
                                    pending_reads_.size()));
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
      dead_channels_[r.req.channel] = status;
      trace::ChannelCounters::global().add_fault(r.req.channel);
      if (simtime::tracebuf::armed()) {
        simtime::tracebuf::record(Kind::kCopilotFault, copilot_name(), begin,
                                  clock().now(), framed.size(), r.req.channel,
                                  route_type_of(r.req.channel),
                                  static_cast<std::int64_t>(fault.status));
      }
      complete(r.spe, status, r.req);
      if (!request_is_async(r.req)) {
        pilot::notify_unblock_proxy(mpi_, app_,
                                    app_.spe_process(node_, r.spe));
      }
      return true;
    }
    if (auto payload = validate_frame(r, framed)) {
      deliver_to_ls(r, *payload);
    }
    trace::ChannelCounters::global().add_copilot_hop(r.req.channel);
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(Kind::kCopilotDeliver, copilot_name(), begin,
                                clock().now(), r.req.length, r.req.channel,
                                route_type_of(r.req.channel));
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
      Crash c;
      c.stamp = crash_stamp_;
      c.inflight = ready;
      c.ready = std::move(ready_requests_);
      c.assembly = std::move(assembly_);
      c.writes = std::move(pending_writes_);
      c.reads = std::move(pending_reads_);
      c.dead_spes = std::move(dead_spes_);
      c.dead_channels = std::move(dead_channels_);
      c.failed = std::move(failed_);
      c.journal = std::move(journal_);
      c.respawns = std::move(respawns_);
      throw c;
    }
    if (faults::FaultPlan::global().armed() &&
        faults::FaultPlan::global().should_kill_blade(blade_.name().c_str(),
                                                      node_)) {
      // The whole blade dies: every SPE context plus this Co-Pilot.  Close
      // the victims' mailboxes (their threads die quietly on the next
      // mailbox op — the raised notices land in dead_spes_ and are never
      // consumed), retract their parked block reports, and throw the
      // message log up to copilot_main's supervisor.
      BladeLoss loss;
      loss.stamp = clock().now();
      loss.serviced = serviced_;
      for (unsigned s = 0; s < blade_.spe_count(); ++s) {
        if (dead_spes_.count(s) != 0) continue;
        if (!app_.spe_assigned(node_, s)) continue;
        if (blade_.spe(s).fault_notice() != nullptr) continue;
        const int pid = app_.spe_process(node_, s);
        if (pid < 0 || failed_.count(pid) != 0) continue;
        loss.victims.emplace_back(pid, s);
      }
      for (const auto& [pid, slot] : loss.victims) {
        blade_.spe(slot).shutdown();
      }
      const auto retract = [&](std::multimap<int, Pending>& parked) {
        for (const auto& entry : parked) {
          const Pending& p = entry.second;
          if (!request_is_async(p.req)) {
            pilot::notify_unblock_proxy(mpi_, app_,
                                        app_.spe_process(node_, p.spe));
          }
        }
      };
      retract(pending_writes_);
      retract(pending_reads_);
      crashed_ = true;
      crash_stamp_ = loss.stamp;
      loss.dead_spes = std::move(dead_spes_);
      loss.dead_channels = std::move(dead_channels_);
      loss.failed = std::move(failed_);
      loss.journal = std::move(journal_);
      loss.respawns = std::move(respawns_);
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
      for (const ReadyRequest& r : ready_requests_) {
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

  /// Names a channel the way every fault diagnostic does: name plus its
  /// Table I type, so one line identifies the route that failed.
  std::string channel_desc(int channel) {
    const PI_CHANNEL& ch = app_.channel(channel);
    std::string label = "channel " + ch.name;
    if (ch.route != nullptr) {
      label += " (Table I type " +
               std::to_string(static_cast<int>(ch.route->type)) + ")";
    }
    return label;
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
                     channel_desc(ready.req.channel));
    return true;
  }

  /// Converts the death of process `pid` into error completions at every
  /// parked local peer, fault frames on every relay route it would have
  /// written, and poisoned channels so later requests fail fast instead of
  /// parking forever.  The job keeps running: failure travels through the
  /// same compiled routes the data would have used.
  void fail_process(int pid, CompletionStatus status, std::uint32_t code,
                    const std::string& detail) {
    if (pid < 0 || failed_.count(pid) != 0) return;
    const SimTime begin = clock().now();
    failed_[pid] = status;
    clock().advance(cost_.copilot_service);

    // Sweep parked requests on channels touching the dead process.  An SPE
    // is serial, so it has at most one parked request; a *living* parked
    // peer gets an error completion, the dead process's own parked request
    // is simply dropped.  Either way its proxy block report is retracted.
    const auto sweep = [&](std::multimap<int, Pending>& parked) {
      for (auto it = parked.begin(); it != parked.end();) {
        const PI_CHANNEL& ch = app_.channel(it->first);
        if (ch.from != pid && ch.to != pid) {
          ++it;
          continue;
        }
        const Pending p = it->second;
        it = parked.erase(it);
        dead_channels_[ch.id] = status;
        const int parked_pid = app_.spe_process(node_, p.spe);
        if (parked_pid != pid) complete(p.spe, status, p.req);
        if (!request_is_async(p.req)) {
          pilot::notify_unblock_proxy(mpi_, app_, parked_pid);
        }
      }
    };
    sweep(pending_writes_);
    sweep(pending_reads_);

    // Poison every channel with the dead process as an endpoint; where its
    // data plane relays over MPI, deposit a fault frame so remote readers
    // (ranks or peer Co-Pilots) wake with the error instead of blocking.
    // The PILF carries the channel's current epoch: a reader only honours
    // a fault frame from the writer incarnation it currently expects, so
    // a death that was absorbed by a respawn never kills a later reader.
    for (int c = 0; c < app_.channel_count(); ++c) {
      const PI_CHANNEL& ch = app_.channel(c);
      if (ch.from != pid && ch.to != pid) continue;
      dead_channels_[c] = status;
      trace::ChannelCounters::global().add_fault(c);
      const Route* rt = ch.route;
      if (rt == nullptr) continue;
      if (ch.from == pid &&
          (rt->copilot_write == CopilotWriteAction::kRelayToRank ||
           rt->copilot_write == CopilotWriteAction::kRelayToPeer)) {
        const std::uint32_t epoch = epochs::current(c);
        const std::vector<std::byte> frame = pilot::frame_fault(
            {static_cast<std::uint32_t>(status), code, epoch, detail});
        mpisim::reliable::set_send_epoch(epoch);
        mpi_.send(frame.data(), frame.size(), rt->copilot_write_dest,
                  rt->tag);
      }
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
    for (const auto& [pid, j] : journal_) {
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
    collect(pending_writes_, true);
    collect(pending_reads_, false);

    // Flood markers before the contribution can commit the cut.  Only
    // type-5 routes carry them: plain ranks cannot parse a PILS frame,
    // and their state is reconstructed from the journal anyway.
    std::set<int> local_pids;
    for (unsigned s = 0; s < blade_.spe_count(); ++s) {
      if (dead_spes_.count(s) != 0) continue;
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
  /// acquire a fresh context, tombstone the dead blade's in-flight frames
  /// (epoch bump + floor, popping the swept suffix off the journal), set
  /// the replay cursors to the full journaled prefix, and launch.  The
  /// new incarnation re-executes from its program start; everything the
  /// journal says was delivered settles from it without touching the wire
  /// — exactly-once across the cut.  Returns false (degrade) when no
  /// launch recipe exists or the SPE pool is exhausted.
  bool restore_one(int pid, SimTime death) {
    const auto seed = app_.respawn_seed(pid);
    if (!seed || seed->program == nullptr) return false;
    unsigned flat = 0;
    try {
      // Skip slots whose mailboxes the kill closed: a victim that finished
      // its whole program between the kill and the shutdown call released
      // its slot back to the pool, and that context can never run again.
      // The skipped acquisitions stay acquired — a killed blade loses
      // contexts, it does not get them back.
      for (;;) {
        flat = app_.acquire_spe(node_);
        if (dead_spes_.count(flat) == 0) break;
      }
    } catch (const pilot::PilotError&) {
      return false;
    }
    clock().advance(cost_.copilot_service);

    // New writer incarnation on every channel the process writes, exactly
    // as try_respawn: the reliable windows tombstone the dead blade's
    // undelivered frames, and popping the swept suffix leaves the journal
    // holding exactly the delivered prefix.
    Journal& j = journal_[pid];
    for (int c = 0; c < app_.channel_count(); ++c) {
      const PI_CHANNEL& ch = app_.channel(c);
      if (ch.from != pid && ch.to != pid) continue;
      trace::ChannelCounters::global().add_restore(c);
      if (ch.from != pid) continue;
      const std::uint32_t fresh = epochs::bump(c);
      const Route* rt = ch.route;
      if (rt != nullptr &&
          (rt->copilot_write == CopilotWriteAction::kRelayToRank ||
           rt->copilot_write == CopilotWriteAction::kRelayToPeer)) {
        const std::size_t swept =
            mpisim::reliable::set_epoch_floor(rt->tag, fresh);
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
    }

    RespawnState& rs = respawns_[pid];
    rs.write_cursor.clear();
    rs.read_cursor.clear();
    rs.writes_seen.clear();
    rs.reads_seen.clear();
    for (const auto& [c, ops] : j.writes) rs.write_cursor[c] = ops.size();
    for (const auto& [c, ops] : j.reads) rs.read_cursor[c] = ops.size();

    const SimTime start = relaunch(pid, flat, *seed);
    cellsim::Spe& spe = blade_.spe(flat);
    rs.flat = flat;
    rs.alive = true;
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

  /// Standby takeover: replays the crashed Co-Pilot's journal.  Parked
  /// requests re-park as they were (their block proxies were already
  /// notified before the crash, so no re-notify); the one request the old
  /// Co-Pilot died holding is not replayable (its local-store framing may
  /// have been half done) and fails cleanly with kCopilotFault, poisoning
  /// its channel so every peer observes the error instead of hanging.
  void recover(const Crash& c) {
    assembly_ = c.assembly;
    ready_requests_ = c.ready;
    pending_writes_ = c.writes;
    pending_reads_ = c.reads;
    dead_spes_ = c.dead_spes;
    dead_channels_ = c.dead_channels;
    failed_ = c.failed;
    journal_ = c.journal;
    respawns_ = c.respawns;

    const ReadyRequest& in = c.inflight;
    clock().advance(cost_.copilot_service);
    complete(in.spe, CompletionStatus::kCopilotFault, in.req);
    const int chid = in.req.channel;
    if (chid >= 0 && chid < app_.channel_count()) {
      dead_channels_[chid] = CompletionStatus::kCopilotFault;
      trace::ChannelCounters::global().add_fault(chid);
      // A peer parked on the poisoned channel can never be served; wake
      // it with the error (and retract its deadlock block report) rather
      // than leaving it to hang.
      const auto sweep = [&](std::multimap<int, Pending>& parked) {
        for (auto it = parked.lower_bound(chid);
             it != parked.end() && it->first == chid;) {
          const Pending p = it->second;
          it = parked.erase(it);
          complete(p.spe, CompletionStatus::kCopilotFault, p.req);
          if (!request_is_async(p.req)) {
            pilot::notify_unblock_proxy(mpi_, app_,
                                        app_.spe_process(node_, p.spe));
          }
        }
      };
      sweep(pending_writes_);
      sweep(pending_reads_);
      // A write that would have relayed over MPI leaves a reader (rank or
      // peer Co-Pilot) waiting for data that will never come: put the
      // fault on the wire in the data's place.
      const Route* rt = app_.channel(chid).route;
      if (rt != nullptr &&
          (in.req.opcode == Opcode::kWrite ||
           in.req.opcode == Opcode::kWriteAsync) &&
          (rt->copilot_write == CopilotWriteAction::kRelayToRank ||
           rt->copilot_write == CopilotWriteAction::kRelayToPeer)) {
        const std::vector<std::byte> frame = pilot::frame_fault(
            {static_cast<std::uint32_t>(CompletionStatus::kCopilotFault),
             static_cast<std::uint32_t>(cellsim::FaultCode::kInjected),
             epochs::current(chid),
             "Co-Pilot " + copilot_name() + " crashed serving " +
                 channel_desc(chid)});
        mpisim::reliable::set_send_epoch(epochs::current(chid));
        mpi_.send(frame.data(), frame.size(), rt->copilot_write_dest,
                  rt->tag);
      }
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
    if (auto dead = dead_channels_.find(req.channel);
        dead != dead_channels_.end()) {
      complete(spe, dead->second, req);
      return;
    }
    const int peer_pid = is_write ? ch.to : ch.from;
    if (auto failed = failed_.find(peer_pid); failed != failed_.end()) {
      dead_channels_[req.channel] = failed->second;
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
        case CopilotWriteAction::kPairLocal: {
          // Type 4: pair with the oldest parked local read, or park.
          auto it = pending_reads_.lower_bound(req.channel);
          if (it != pending_reads_.end() && it->first == req.channel &&
              it->second.expected_source == mpisim::kAnySource) {
            const Pending reader = it->second;
            pending_reads_.erase(it);
            record_parked_gauge();
            if (!request_is_async(reader.req)) {
              pilot::notify_unblock_proxy(
                  mpi_, app_, app_.spe_process(node_, reader.spe));
            }
            transfer_local(p, reader);
          } else {
            pending_writes_.emplace(req.channel, p);
            record_parked_gauge();
            if (simtime::tracebuf::armed()) {
              simtime::tracebuf::record(Kind::kCopilotPark, copilot_name(),
                                        clock().now(), clock().now(),
                                        req.length, req.channel,
                                        static_cast<std::int8_t>(rt->type),
                                        static_cast<std::int64_t>(req.opcode));
            }
            // An async parked op does not block its SPE (the program keeps
            // computing), so it must not feed the deadlock detector.
            if (!request_is_async(req)) {
              pilot::notify_block_proxy(mpi_, app_,
                                        app_.spe_process(node_, spe), ch.to,
                                        req.channel);
            }
          }
          break;
        }
        case CopilotWriteAction::kNone:
          // The channel's writer is not an SPE: not a legal request.
          complete(spe, CompletionStatus::kProtocol, req);
          return;
      }
    } else {  // kRead
      switch (rt->copilot_read) {
        case CopilotReadAction::kPairLocal: {
          // Type 4: pair with the oldest parked local write, or park.
          auto it = pending_writes_.lower_bound(req.channel);
          if (it != pending_writes_.end() && it->first == req.channel) {
            const Pending writer = it->second;
            pending_writes_.erase(it);
            record_parked_gauge();
            if (!request_is_async(writer.req)) {
              pilot::notify_unblock_proxy(
                  mpi_, app_, app_.spe_process(node_, writer.spe));
            }
            transfer_local(writer, p);
          } else {
            pending_reads_.emplace(req.channel, p);
            record_parked_gauge();
            if (simtime::tracebuf::armed()) {
              simtime::tracebuf::record(Kind::kCopilotPark, copilot_name(),
                                        clock().now(), clock().now(),
                                        req.length, req.channel,
                                        static_cast<std::int8_t>(rt->type),
                                        static_cast<std::int64_t>(req.opcode));
            }
            if (!request_is_async(req)) {
              pilot::notify_block_proxy(mpi_, app_,
                                        app_.spe_process(node_, spe), ch.from,
                                        req.channel);
            }
          }
          break;
        }
        case CopilotReadAction::kAwaitMpi: {
          // Types 2/3/5: data arrives over MPI from the writer rank or the
          // writer's Co-Pilot; the main loop delivers it in stamp order.
          p.expected_source = rt->copilot_read_source;
          pending_reads_.emplace(req.channel, p);
          record_parked_gauge();
          if (simtime::tracebuf::armed()) {
            simtime::tracebuf::record(Kind::kCopilotPark, copilot_name(),
                                      clock().now(), clock().now(),
                                      req.length, req.channel,
                                      static_cast<std::int8_t>(rt->type),
                                      static_cast<std::int64_t>(req.opcode));
          }
          if (!request_is_async(req)) {
            pilot::notify_block_proxy(mpi_, app_,
                                      app_.spe_process(node_, spe), ch.from,
                                      req.channel);
          }
          break;
        }
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
  std::vector<Assembly> assembly_;
  std::vector<ReadyRequest> ready_requests_;
  // Insertion order is preserved for equal keys, so each channel's
  // parked requests form a FIFO — several async operations from one SPE
  // may be parked at once.
  std::multimap<int, Pending> pending_writes_;
  std::multimap<int, Pending> pending_reads_;
  /// SPEs whose fault notice has been consumed.
  std::set<unsigned> dead_spes_;
  /// Channels poisoned by an endpoint's death: later requests complete
  /// immediately with the stored error status.
  std::map<int, CompletionStatus> dead_channels_;
  /// Processes this Co-Pilot declared failed, with the status their peers
  /// receive.
  std::map<int, CompletionStatus> failed_;
  /// Replay journals, keyed by process id (empty unless -pirespawn armed).
  std::map<int, Journal> journal_;
  /// Respawn bookkeeping of supervised processes (budget, cursors).
  std::map<int, RespawnState> respawns_;
  std::atomic<SimTime>& published_bound_;
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
