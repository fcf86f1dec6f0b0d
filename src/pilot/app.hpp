// app.hpp — per-application shared state.
//
// One PilotApp exists per simulated job (per cellpilot::run invocation).  It
// owns the canonical process/channel/bundle tables that all rank threads
// share, the options parsed by PI_Configure, the SPE pool, and one launch
// record per SPE process (its recipe and its PPE worker threads).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "mpisim/mpi.hpp"
#include "pilot/errors.hpp"
#include "pilot/tables.hpp"
#include "simtime/sim_time.hpp"

namespace cellpilot {
class Router;  // compiled data plane (core/router.hpp)
}  // namespace cellpilot

namespace pilot {

/// Reserved control tags used by the Pilot runtime.
inline constexpr int kTagShutdown = mpisim::kReservedTagBase + 64;
inline constexpr int kTagDeadlockEvent = mpisim::kReservedTagBase + 65;
inline constexpr int kTagUserBarrierIn = mpisim::kReservedTagBase + 66;
inline constexpr int kTagUserBarrierOut = mpisim::kReservedTagBase + 67;

/// Options parsed by PI_Configure from the command line.
struct Options {
  bool deadlock_detection = false;  ///< -pisvc=d
  /// Co-Pilot supervision deadline: an SPE request whose mailbox words
  /// span more than this much virtual time is declared stalled
  /// (-pideadline=<dur>).  Supervision is a read-only comparison on
  /// already-recorded stamps, so the clean path's timing is unchanged.
  simtime::SimTime spe_deadline = simtime::us(500.0);
  /// Retry/backoff budget: a stalled request is retried with a doubled
  /// deadline up to this many times before the Co-Pilot gives up and
  /// completes it with kSpeTimeout.
  int spe_deadline_retries = 3;
  /// Heartbeat lease on a crashed Co-Pilot (-pilease=<dur>): the standby
  /// waits this much virtual time past the crash stamp (detecting the
  /// missed heartbeat) before taking over from the journal.
  simtime::SimTime copilot_lease = simtime::us(200.0);
  /// Supervised SPE respawn budget (-pirespawn=N / CELLPILOT_RESPAWN):
  /// how many times Co-Pilot supervision may respawn a faulted SPE slot
  /// before degrading to poison + PILF.  0 (the default) disarms
  /// self-healing entirely — deaths take the historical path and no
  /// replay journal is kept, so no-fault runs stay byte-identical.
  int respawn_budget = 0;
  /// Coordinated checkpoint file (-pickpt=FILE / CELLPILOT_CKPT).  Empty
  /// (the default) disarms checkpointing; armed, every Co-Pilot cuts a
  /// consistent snapshot into this file on the checkpoint_interval cadence
  /// and a blade_kill fault restores the lost contexts from the last
  /// committed cut instead of degrading to poison + PILF.
  std::string checkpoint_path;
  /// Checkpoint cadence (-pickptevery=N / CELLPILOT_CKPT_EVERY): each
  /// Co-Pilot contributes to cut k after its k*N-th serviced SPE request
  /// (or earlier, on receiving the cut's marker from a peer).  Only
  /// meaningful when checkpoint_path is set.
  int checkpoint_interval = 64;
};

/// Shared state of one Pilot application run.
class PilotApp {
 public:
  /// Binds the app to a simulated cluster (borrowed; must outlive the app).
  explicit PilotApp(cluster::Cluster& cluster);
  ~PilotApp();

  PilotApp(const PilotApp&) = delete;
  PilotApp& operator=(const PilotApp&) = delete;

  cluster::Cluster& cluster() { return *cluster_; }

  /// Options; written once by PI_Configure (same values on every rank).
  Options& options() { return options_; }

  // --- canonical tables (get-or-create; see tables.hpp) -------------------

  /// Returns the process with creation sequence number `seq`.  The first
  /// rank to reach this creation point instantiates it from `proto`
  /// (assigning the next free MPI rank when `assign_rank`); later ranks get
  /// the canonical object.  Configuration runs the same code on every rank,
  /// so sequence numbers align.
  PI_PROCESS* get_or_create_process(int seq, PI_PROCESS proto,
                                    bool assign_rank);
  PI_CHANNEL* get_or_create_channel(int seq, PI_CHANNEL proto);
  PI_BUNDLE* get_or_create_bundle(int seq, PI_BUNDLE proto);

  /// Stores a channel-pointer array for the app's lifetime and returns the
  /// canonical copy (PI_CopyChannels result; same array on every rank,
  /// keyed by the first channel's id).
  PI_CHANNEL** intern_channel_array(std::vector<PI_CHANNEL*> channels);

  /// Table lookups (throw PilotError(kInternal) when out of range).
  PI_PROCESS& process(int id);
  PI_CHANNEL& channel(int id);
  PI_BUNDLE& bundle(int id);
  int process_count() const;
  int channel_count() const;
  int bundle_count() const;

  /// The compiled data plane (routes + per-endpoint format caches).
  cellpilot::Router& router() { return *router_; }

  /// Compiles every channel's route exactly once per run.  Called by
  /// PI_StartAll on every rank; the first caller does the work, the rest
  /// wait (std::call_once), so post-barrier code always sees routes.
  void compile_routes();

  /// Number of user ranks (= Pilot processes available to the programmer).
  int available_processes() const { return cluster_->user_rank_count(); }

  /// Barrier over the user ranks only (Co-Pilot/service ranks excluded);
  /// used at PI_StartAll and PI_StopMain.
  void user_barrier(mpisim::Mpi& mpi);

  // --- SPE pool ------------------------------------------------------------

  /// Picks a free physical SPE on `node` and marks it busy; returns its
  /// flat index.  Throws PilotError(kCapacity) when all are busy.
  unsigned acquire_spe(int node);

  /// Marks a physical SPE free again.
  void release_spe(int node, unsigned flat_index);

  /// Number of physical SPEs of `node` currently marked busy — the SPE
  /// pool-occupancy gauge the telemetry layer samples at acquire/release
  /// seams.
  int busy_spe_count(int node);

  /// Whether a physical SPE is currently assigned to a launched process
  /// (set before the worker thread starts, so the Co-Pilot's safe-time
  /// computation sees upcoming SPEs).
  bool spe_assigned(int node, unsigned flat_index);

  /// Records which Pilot process runs on a physical SPE (set by every
  /// launch before the worker thread starts; the Co-Pilot uses it to name
  /// the process when the SPE faults).
  void bind_spe_process(int node, unsigned flat_index, int process_id);

  /// The Pilot process id bound to a physical SPE, or -1.
  int spe_process(int node, unsigned flat_index);

  /// Like acquire_spe, but takes `preferred` when it is free.
  unsigned acquire_spe_preferring(int node, unsigned preferred);

  // --- SPE launch records --------------------------------------------------
  //
  // One record per SPE process, kept by every launch (PI_RunSPE,
  // PI_SpawnSPE, supervised respawn, blade restore): the recipe the launch
  // used, the PPE worker threads it started, how many of them are still
  // running, and the context its last PI_SpawnSPE occupied.

  /// How to (re)launch a process's program.  Co-Pilot supervision replays
  /// it into a fresh pooled context when `-pirespawn` or a checkpoint
  /// restore relaunches a lost process.
  struct LaunchRecipe {
    const cellsim::spe2::spe_program_handle_t* program = nullptr;
    int arg = 0;
    void* ptr = nullptr;
    mpisim::Rank owner = -1;  ///< parent rank (joins the worker threads)
  };

  /// Records a launch of `process_id`: its recipe (latest launch wins) and
  /// one more running occupant.  Called before the worker thread starts,
  /// so a fault at the program's first request already finds the recipe.
  void begin_launch(int process_id, LaunchRecipe recipe);

  /// Called by a worker thread as its last step, on every exit path
  /// (retired, faulted or torn down): one running occupant fewer.
  void end_launch(int process_id);

  /// Whether an occupant of the process has started and not yet exited.
  bool launch_running(int process_id);

  /// The recipe of the process's latest launch, if it was ever launched.
  std::optional<LaunchRecipe> launch_recipe(int process_id);

  /// Files a running worker thread under the process it embodies.
  void add_spe_thread(int process_id, std::thread t);

  /// Joins every worker thread of the processes `rank` owns (PI_StopMain /
  /// PI_StartAll epilogue on the owning rank).  Marks the rank passive for
  /// the duration: it cannot send while joining, and the Co-Pilot's
  /// conservative event ordering must not stall behind its frozen clock.
  void join_spe_threads(mpisim::Rank rank);

  /// Joins every remaining worker thread (teardown safety net).
  void join_all_spe_threads();

  /// Joins every earlier occupant of one process before PI_SpawnSPE
  /// relaunches it, a supervised respawn's included.  Same passive/flush
  /// protocol as join_spe_threads; returns at once when none is left.
  void join_spawn(mpisim::Rank rank, int process_id);

  /// Records the context a PI_SpawnSPE of the process occupies.  Only
  /// PI_SpawnSPE sets it: the next spawn prefers that context (sticky
  /// contexts), and SPE names appear in trace entities.
  void set_last_spawn_flat(int process_id, unsigned flat_index);

  /// The context the process's last PI_SpawnSPE occupied, if any.
  std::optional<unsigned> last_spawn_flat(int process_id);

  // --- process failure registry (Co-Pilot fault propagation) --------------

  /// A dead endpoint's epitaph, published by the Co-Pilot that owned it.
  struct ProcessFailure {
    std::uint32_t status = 0;      ///< core CompletionStatus value
    std::uint32_t fault_code = 0;  ///< cellsim::FaultCode value
    std::string detail;            ///< one-line diagnostic
  };

  /// Publishes a process's failure (idempotent: first report wins).
  void report_process_failure(int process_id, ProcessFailure failure);

  /// The failure published for a process, if any.  Rank-side data-plane
  /// calls consult this so repeat reads/writes on a dead SPE's channels
  /// fail fast instead of blocking forever.
  std::optional<ProcessFailure> process_failure(int process_id) const;

 private:
  cluster::Cluster* cluster_;
  Options options_;
  std::unique_ptr<cellpilot::Router> router_;
  std::once_flag routes_once_;

  mutable std::mutex tables_mu_;
  std::vector<std::unique_ptr<PI_PROCESS>> processes_;
  std::vector<std::unique_ptr<PI_CHANNEL>> channels_;
  std::vector<std::unique_ptr<PI_BUNDLE>> bundles_;
  std::map<int, std::vector<PI_CHANNEL*>> channel_arrays_;
  int ranks_assigned_ = 0;  // PI_MAIN's creation at PI_Configure takes rank 0

  /// Moves out the worker threads of process `process_id` (-1: every
  /// process) owned by `owner` (-1: any owner).
  std::vector<std::thread> take_spe_threads(int process_id,
                                            mpisim::Rank owner);
  /// Joins `threads` with `rank` flushed and parked passive.
  void join_passive(mpisim::Rank rank, std::vector<std::thread> threads);
  /// Tells the node's Co-Pilot that slot `flat_index` was just acquired.
  void note_acquired(int node, unsigned flat_index);

  std::mutex spe_mu_;  // guards the pool and the launch records
  std::vector<std::vector<bool>> spe_busy_;  // [node][flat_index]
  std::vector<std::vector<int>> spe_process_;  // [node][flat_index] or -1
  struct SpeLaunch {
    LaunchRecipe recipe;
    std::vector<std::thread> threads;
    std::optional<unsigned> last_spawn_flat;
    int running = 0;  ///< occupants begun and not yet ended
  };
  std::map<int, SpeLaunch> launches_;  // process id -> launch record

  mutable std::mutex failures_mu_;
  std::map<int, ProcessFailure> failures_;  // process id -> epitaph
};

}  // namespace pilot
