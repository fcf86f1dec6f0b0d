// cluster.hpp — the simulated hybrid cluster.
//
// A Cluster assembles the machine the paper ran on: Cell blades (dual
// PowerXCell 8i — 2 chips, 16 SPEs, coherent per-node memory) and commodity
// Xeon nodes, joined by gigabit Ethernet.  It owns the simulated hardware
// and the MiniMPI World, and fixes the rank placement convention the Pilot
// and CellPilot layers rely on:
//
//   ranks [0, user_ranks)            — user (Pilot) processes, in node order
//   ranks [user_ranks, +n_cell)      — one Co-Pilot rank per Cell node
//   optional final rank              — the deadlock-detection service
//
// Keeping user ranks contiguous from 0 means a Pilot application sees
// exactly the process count it asked mpirun for, while the Co-Pilot and
// service ranks ride along invisibly — as in the paper.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cellsim/cell.hpp"
#include "mpisim/world.hpp"
#include "simtime/byte_order.hpp"
#include "simtime/cost_model.hpp"
#include "simtime/hostwait.hpp"

namespace cluster {

/// Kind of physical node.
enum class NodeKind { kCell, kXeon };

/// Static description of one node.
struct NodeSpec {
  NodeKind kind = NodeKind::kXeon;
  /// User MPI ranks placed on this node (Cell: usually 1 per blade, the
  /// PPE Pilot process; Xeon: usually the core count).
  unsigned ranks = 1;
  /// SPEs per chip for Cell nodes (a blade has two chips).
  unsigned spes_per_chip = cellsim::kSpesPerChip;
  /// Architectural byte order (PowerPC nodes are big-endian, x86 little);
  /// set by the cell()/xeon() factories.
  simtime::ByteOrder order = simtime::ByteOrder::kLittle;
  /// Diagnostic name; defaulted to "node<i>" when empty.
  std::string name;

  /// A Cell blade contributing `ranks` user PPE processes.
  static NodeSpec cell(unsigned ranks = 1,
                       unsigned spes_per_chip = cellsim::kSpesPerChip);
  /// A Xeon node contributing `ranks` user processes.
  static NodeSpec xeon(unsigned ranks);
};

/// Whole-cluster configuration.
struct ClusterConfig {
  std::vector<NodeSpec> nodes;
  /// Latency model; defaults to the calibrated model of EXPERIMENTS.md.
  simtime::CostModel cost = simtime::default_cost_model();
  /// Reserve the final rank for Pilot's deadlock-detection service
  /// (the paper's `-pisvc=d`).
  bool deadlock_service = false;

  /// The paper's SHARCNET testbed: 8 dual-PowerXCell blades and 4 Xeon
  /// nodes (two 4-core, two 8-core) on gigabit Ethernet.
  static ClusterConfig paper_testbed();

  /// A small two-Cell-node cluster (the Figures 3/4 example machine).
  static ClusterConfig two_cells();
};

/// The live simulated machine.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// The MiniMPI world spanning user ranks + Co-Pilots (+ service).
  mpisim::World& world() { return *world_; }

  /// The cost model in force.
  const simtime::CostModel& cost() const { return config_.cost; }

  /// Number of nodes.
  int node_count() const { return static_cast<int>(config_.nodes.size()); }

  /// Static spec of a node.
  const NodeSpec& node(int index) const;

  /// Number of user (Pilot-visible) ranks.
  int user_rank_count() const { return user_ranks_; }

  /// Total world size including Co-Pilot and service ranks.
  int world_size() const { return world_->size(); }

  /// Physical node index a rank is placed on.
  int node_of_rank(mpisim::Rank r) const;

  /// Whether a node is a Cell blade.
  bool is_cell_node(int node_index) const;

  /// The blade of a Cell node.  Throws for Xeon nodes.
  cellsim::CellBlade& blade(int node_index);

  /// SPE `flat_index` (0..spe_count-1) of a Cell node.
  cellsim::Spe& spe(int node_index, unsigned flat_index);

  /// Number of SPEs on a node (0 for Xeon nodes).
  unsigned spe_count(int node_index) const;

  /// The Co-Pilot rank serving a Cell node.  Throws for Xeon nodes.
  mpisim::Rank copilot_rank(int node_index) const;

  /// The deadlock-service rank, if configured.
  std::optional<mpisim::Rank> service_rank() const;

  /// First user rank placed on a node.
  mpisim::Rank first_rank_of_node(int node_index) const;

  /// Architectural byte order of a node's cores.
  simtime::ByteOrder byte_order(int node_index) const {
    return node(node_index).order;
  }

  /// Published lower bound on the virtual stamp of any future inter-node
  /// relay the node's Co-Pilot may originate (a conservative "null
  /// message"): the minimum over its unparked local SPE clocks and its
  /// queued-but-unprocessed SPE requests.  Co-Pilots read each other's
  /// bounds when computing the safe time for stamp-ordered event
  /// processing.  "infinity" (SimTime max) when nothing local can trigger
  /// a relay.  Throws for Xeon nodes.
  std::atomic<simtime::SimTime>& copilot_bound(int node_index);

  /// The doorbell the node's Co-Pilot parks on when it has no event.  It
  /// outlives any one Co-Pilot service, so a standby or a blade successor
  /// inherits it.  Rung by every producer of an event that can end an idle
  /// park: a push to or close of an SPE's outbound mailbox, an SPE fault,
  /// a deposit into or abort of the Co-Pilot rank's match queue, and an
  /// SPE slot's release (PilotApp::release_spe).  Also rung where the
  /// bound the Co-Pilot publishes changes while it is parked: an SPE slot's
  /// acquire and an SPU starting to wait on its inbound mailbox.  Throws
  /// for Xeon nodes.
  simtime::Doorbell& copilot_doorbell(int node_index);

  /// Records that the node's Co-Pilot crashed and a standby took over
  /// (fault-injection failover).  Throws for Xeon nodes.
  void record_copilot_failover(int node_index);

  /// Number of standby takeovers the node's Co-Pilot has seen this job.
  int copilot_failover_count(int node_index) const;

  /// Records that the whole blade was killed by a blade_kill fault (every
  /// SPE context plus its Co-Pilot).  Throws for Xeon nodes.
  void record_blade_kill(int node_index);

  /// Number of blade_kill faults the node has absorbed this job.
  int blade_kill_count(int node_index) const;

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<cellsim::CellBlade>> blades_;  // null for Xeon
  std::unique_ptr<mpisim::World> world_;
  std::vector<int> rank_node_;          // rank -> node (service rank: -1)
  std::vector<mpisim::Rank> node_first_rank_;
  std::vector<mpisim::Rank> copilot_ranks_;  // per node; -1 for Xeon
  std::vector<std::unique_ptr<std::atomic<simtime::SimTime>>>
      copilot_bounds_;  // per node
  std::vector<std::unique_ptr<simtime::Doorbell>>
      copilot_doorbells_;  // per node; null for Xeon
  std::vector<std::unique_ptr<std::atomic<int>>>
      copilot_failovers_;  // per node
  std::vector<std::unique_ptr<std::atomic<int>>> blade_kills_;  // per node
  int user_ranks_ = 0;
  std::optional<mpisim::Rank> service_rank_;
};

}  // namespace cluster
