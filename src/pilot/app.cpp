#include "pilot/app.hpp"

#include "core/router.hpp"
#include "mpisim/reliable.hpp"

namespace pilot {

PilotApp::PilotApp(cluster::Cluster& cluster)
    : cluster_(&cluster), router_(std::make_unique<cellpilot::Router>()) {
  spe_busy_.resize(static_cast<std::size_t>(cluster.node_count()));
  spe_process_.resize(static_cast<std::size_t>(cluster.node_count()));
  for (int n = 0; n < cluster.node_count(); ++n) {
    spe_busy_[static_cast<std::size_t>(n)].assign(cluster.spe_count(n),
                                                  false);
    spe_process_[static_cast<std::size_t>(n)].assign(cluster.spe_count(n),
                                                     -1);
  }
}

PilotApp::~PilotApp() { join_all_spe_threads(); }

PI_PROCESS* PilotApp::get_or_create_process(int seq, PI_PROCESS proto,
                                            bool assign_rank) {
  std::lock_guard lock(tables_mu_);
  if (seq < static_cast<int>(processes_.size())) {
    return processes_[static_cast<std::size_t>(seq)].get();
  }
  if (seq != static_cast<int>(processes_.size())) {
    throw PilotError(ErrorCode::kInternal,
                     "configuration phase diverged across processes "
                     "(process table)");
  }
  if (assign_rank) {
    if (ranks_assigned_ >= cluster_->user_rank_count()) {
      throw PilotError(ErrorCode::kCapacity,
                       "out of MPI processes: the job provides " +
                           std::to_string(cluster_->user_rank_count()) +
                           " Pilot processes");
    }
    proto.rank = ranks_assigned_++;
  }
  proto.id = seq;
  processes_.push_back(std::make_unique<PI_PROCESS>(std::move(proto)));
  return processes_.back().get();
}

PI_CHANNEL* PilotApp::get_or_create_channel(int seq, PI_CHANNEL proto) {
  std::lock_guard lock(tables_mu_);
  if (seq < static_cast<int>(channels_.size())) {
    return channels_[static_cast<std::size_t>(seq)].get();
  }
  if (seq != static_cast<int>(channels_.size())) {
    throw PilotError(ErrorCode::kInternal,
                     "configuration phase diverged across processes "
                     "(channel table)");
  }
  proto.id = seq;
  channels_.push_back(std::make_unique<PI_CHANNEL>(std::move(proto)));
  return channels_.back().get();
}

PI_BUNDLE* PilotApp::get_or_create_bundle(int seq, PI_BUNDLE proto) {
  std::lock_guard lock(tables_mu_);
  if (seq < static_cast<int>(bundles_.size())) {
    return bundles_[static_cast<std::size_t>(seq)].get();
  }
  if (seq != static_cast<int>(bundles_.size())) {
    throw PilotError(ErrorCode::kInternal,
                     "configuration phase diverged across processes "
                     "(bundle table)");
  }
  proto.id = seq;
  bundles_.push_back(std::make_unique<PI_BUNDLE>(std::move(proto)));
  return bundles_.back().get();
}

PI_PROCESS& PilotApp::process(int id) {
  std::lock_guard lock(tables_mu_);
  if (id < 0 || id >= static_cast<int>(processes_.size())) {
    throw PilotError(ErrorCode::kInternal,
                     "process id " + std::to_string(id) + " out of range");
  }
  return *processes_[static_cast<std::size_t>(id)];
}

PI_CHANNEL& PilotApp::channel(int id) {
  std::lock_guard lock(tables_mu_);
  if (id < 0 || id >= static_cast<int>(channels_.size())) {
    throw PilotError(ErrorCode::kInternal,
                     "channel id " + std::to_string(id) + " out of range");
  }
  return *channels_[static_cast<std::size_t>(id)];
}

PI_BUNDLE& PilotApp::bundle(int id) {
  std::lock_guard lock(tables_mu_);
  if (id < 0 || id >= static_cast<int>(bundles_.size())) {
    throw PilotError(ErrorCode::kInternal,
                     "bundle id " + std::to_string(id) + " out of range");
  }
  return *bundles_[static_cast<std::size_t>(id)];
}

int PilotApp::process_count() const {
  std::lock_guard lock(tables_mu_);
  return static_cast<int>(processes_.size());
}

int PilotApp::channel_count() const {
  std::lock_guard lock(tables_mu_);
  return static_cast<int>(channels_.size());
}

int PilotApp::bundle_count() const {
  std::lock_guard lock(tables_mu_);
  return static_cast<int>(bundles_.size());
}

void PilotApp::compile_routes() {
  std::call_once(routes_once_, [this] { router_->compile(*this); });
}

PI_CHANNEL** PilotApp::intern_channel_array(
    std::vector<PI_CHANNEL*> channels) {
  std::lock_guard lock(tables_mu_);
  const int key = channels.empty() ? -1 : channels.front()->id;
  auto [it, inserted] = channel_arrays_.try_emplace(key, std::move(channels));
  return it->second.data();
}

void PilotApp::user_barrier(mpisim::Mpi& mpi) {
  const int users = cluster_->user_rank_count();
  std::uint8_t token = 0;
  if (mpi.rank() == 0) {
    // Rank order, not ANY_SOURCE: keeps PI_MAIN's clock deterministic.
    for (int r = 1; r < users; ++r) {
      mpi.recv_internal(&token, 1, r, kTagUserBarrierIn);
    }
    for (int r = 1; r < users; ++r) {
      mpi.send_internal(&token, 1, r, kTagUserBarrierOut);
    }
  } else {
    mpi.send_internal(&token, 1, 0, kTagUserBarrierIn);
    mpi.recv_internal(&token, 1, 0, kTagUserBarrierOut);
  }
}

unsigned PilotApp::acquire_spe(int node) {
  unsigned flat = 0;
  {
    std::lock_guard lock(spe_mu_);
    auto& busy = spe_busy_[static_cast<std::size_t>(node)];
    while (flat < busy.size() && busy[flat]) ++flat;
    if (flat == busy.size()) {
      throw PilotError(ErrorCode::kCapacity,
                       "all " + std::to_string(busy.size()) +
                           " SPEs of node " + std::to_string(node) +
                           " are busy");
    }
    busy[flat] = true;
  }
  note_acquired(node, flat);
  return flat;
}

void PilotApp::note_acquired(int node, unsigned flat_index) {
  // A free slot counts as silent (kForever) in the bound the Co-Pilot
  // publishes to its peers, and a parked Co-Pilot does not republish.  So
  // lower the bound to the new occupant's clock (its stamps only grow)
  // before the acquirer can go quiescent behind it, then ring the
  // Co-Pilot to publish the exact value.
  std::atomic<simtime::SimTime>& bound = cluster_->copilot_bound(node);
  const simtime::SimTime floor = cluster_->spe(node, flat_index).clock().now();
  simtime::SimTime cur = bound.load(std::memory_order_acquire);
  while (floor < cur && !bound.compare_exchange_weak(cur, floor)) {
  }
  cluster_->copilot_doorbell(node).ring();
}

void PilotApp::release_spe(int node, unsigned flat_index) {
  {
    std::lock_guard lock(spe_mu_);
    spe_busy_[static_cast<std::size_t>(node)][flat_index] = false;
  }
  // A retiring respawned occupant ends the Co-Pilot's shutdown deferral.
  cluster_->copilot_doorbell(node).ring();
}

int PilotApp::busy_spe_count(int node) {
  std::lock_guard lock(spe_mu_);
  const auto& busy = spe_busy_[static_cast<std::size_t>(node)];
  int n = 0;
  for (const bool b : busy) {
    if (b) ++n;
  }
  return n;
}

bool PilotApp::spe_assigned(int node, unsigned flat_index) {
  std::lock_guard lock(spe_mu_);
  return spe_busy_[static_cast<std::size_t>(node)][flat_index];
}

void PilotApp::bind_spe_process(int node, unsigned flat_index,
                                int process_id) {
  std::lock_guard lock(spe_mu_);
  spe_process_[static_cast<std::size_t>(node)][flat_index] = process_id;
}

int PilotApp::spe_process(int node, unsigned flat_index) {
  std::lock_guard lock(spe_mu_);
  return spe_process_[static_cast<std::size_t>(node)][flat_index];
}

unsigned PilotApp::acquire_spe_preferring(int node, unsigned preferred) {
  bool taken = false;
  {
    std::lock_guard lock(spe_mu_);
    auto& busy = spe_busy_[static_cast<std::size_t>(node)];
    if (preferred < busy.size() && !busy[preferred]) {
      busy[preferred] = true;
      taken = true;
    }
  }
  if (!taken) return acquire_spe(node);
  note_acquired(node, preferred);
  return preferred;
}

void PilotApp::begin_launch(int process_id, LaunchRecipe recipe) {
  std::lock_guard lock(spe_mu_);
  SpeLaunch& launch = launches_[process_id];
  launch.recipe = recipe;
  ++launch.running;
}

void PilotApp::end_launch(int process_id) {
  std::lock_guard lock(spe_mu_);
  --launches_[process_id].running;
}

bool PilotApp::launch_running(int process_id) {
  std::lock_guard lock(spe_mu_);
  const auto it = launches_.find(process_id);
  return it != launches_.end() && it->second.running > 0;
}

std::optional<PilotApp::LaunchRecipe> PilotApp::launch_recipe(
    int process_id) {
  std::lock_guard lock(spe_mu_);
  const auto it = launches_.find(process_id);
  if (it == launches_.end()) return std::nullopt;
  return it->second.recipe;
}

void PilotApp::add_spe_thread(int process_id, std::thread t) {
  std::lock_guard lock(spe_mu_);
  launches_[process_id].threads.push_back(std::move(t));
}

std::vector<std::thread> PilotApp::take_spe_threads(int process_id,
                                                    mpisim::Rank owner) {
  // Joined without the lock held: an SPE body may itself need it.
  std::vector<std::thread> taken;
  std::lock_guard lock(spe_mu_);
  for (auto& [pid, launch] : launches_) {
    if (process_id >= 0 && pid != process_id) continue;
    if (owner >= 0 && launch.recipe.owner != owner) continue;
    for (std::thread& t : launch.threads) taken.push_back(std::move(t));
    launch.threads.clear();
  }
  return taken;
}

void PilotApp::join_passive(mpisim::Rank rank,
                            std::vector<std::thread> threads) {
  // Joining is a host-thread wait, not an MPI receive, so it bypasses the
  // reliable layer's receive-side flush points.  An SPE this rank is about
  // to join may itself be blocked on a frame sitting in this rank's
  // msg_reorder stash — release it before parking.
  if (mpisim::reliable::enabled()) mpisim::reliable::flush_from(rank);
  cluster_->world().set_passive(rank, true);
  for (auto& t : threads) t.join();
  cluster_->world().set_passive(rank, false);
}

void PilotApp::join_spe_threads(mpisim::Rank rank) {
  join_passive(rank, take_spe_threads(-1, rank));
}

void PilotApp::join_all_spe_threads() {
  for (auto& t : take_spe_threads(-1, -1)) t.join();
}

void PilotApp::join_spawn(mpisim::Rank rank, int process_id) {
  std::vector<std::thread> previous = take_spe_threads(process_id, -1);
  if (!previous.empty()) join_passive(rank, std::move(previous));
}

void PilotApp::set_last_spawn_flat(int process_id, unsigned flat_index) {
  std::lock_guard lock(spe_mu_);
  launches_[process_id].last_spawn_flat = flat_index;
}

std::optional<unsigned> PilotApp::last_spawn_flat(int process_id) {
  std::lock_guard lock(spe_mu_);
  const auto it = launches_.find(process_id);
  if (it == launches_.end()) return std::nullopt;
  return it->second.last_spawn_flat;
}

void PilotApp::report_process_failure(int process_id,
                                      ProcessFailure failure) {
  std::lock_guard lock(failures_mu_);
  failures_.emplace(process_id, std::move(failure));  // first report wins
}

std::optional<PilotApp::ProcessFailure> PilotApp::process_failure(
    int process_id) const {
  std::lock_guard lock(failures_mu_);
  const auto it = failures_.find(process_id);
  if (it == failures_.end()) return std::nullopt;
  return it->second;
}

}  // namespace pilot
