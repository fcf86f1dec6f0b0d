#include "cluster/cluster.hpp"

#include <limits>
#include <stdexcept>

namespace cluster {

NodeSpec NodeSpec::cell(unsigned ranks, unsigned spes_per_chip) {
  NodeSpec s;
  s.kind = NodeKind::kCell;
  s.ranks = ranks;
  s.spes_per_chip = spes_per_chip;
  s.order = simtime::ByteOrder::kBig;  // PowerPC
  return s;
}

NodeSpec NodeSpec::xeon(unsigned ranks) {
  NodeSpec s;
  s.kind = NodeKind::kXeon;
  s.ranks = ranks;
  s.order = simtime::ByteOrder::kLittle;  // x86-64
  return s;
}

ClusterConfig ClusterConfig::paper_testbed() {
  ClusterConfig c;
  for (int i = 0; i < 8; ++i) c.nodes.push_back(NodeSpec::cell(1));
  c.nodes.push_back(NodeSpec::xeon(4));
  c.nodes.push_back(NodeSpec::xeon(4));
  c.nodes.push_back(NodeSpec::xeon(8));
  c.nodes.push_back(NodeSpec::xeon(8));
  return c;
}

ClusterConfig ClusterConfig::two_cells() {
  ClusterConfig c;
  c.nodes.push_back(NodeSpec::cell(1));
  c.nodes.push_back(NodeSpec::cell(1));
  return c;
}

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  if (config_.nodes.empty()) {
    throw std::invalid_argument("Cluster: at least one node required");
  }
  config_.cost.validate();

  // Name nodes and build hardware.
  for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
    NodeSpec& spec = config_.nodes[i];
    if (spec.name.empty()) spec.name = "node" + std::to_string(i);
    if (spec.kind == NodeKind::kCell) {
      blades_.push_back(std::make_unique<cellsim::CellBlade>(
          spec.name, config_.cost, spec.spes_per_chip));
    } else {
      blades_.push_back(nullptr);
    }
  }

  // Rank table: user ranks in node order, then Co-Pilots, then service.
  std::vector<mpisim::RankInfo> ranks;
  node_first_rank_.resize(config_.nodes.size());
  for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
    const NodeSpec& spec = config_.nodes[i];
    node_first_rank_[i] = static_cast<mpisim::Rank>(ranks.size());
    for (unsigned r = 0; r < spec.ranks; ++r) {
      mpisim::RankInfo info;
      info.core = spec.kind == NodeKind::kCell ? simtime::CoreKind::kPpe
                                               : simtime::CoreKind::kXeon;
      info.node = static_cast<int>(i);
      info.name = spec.name + ".rank" + std::to_string(r);
      ranks.push_back(std::move(info));
      rank_node_.push_back(static_cast<int>(i));
    }
  }
  user_ranks_ = static_cast<int>(ranks.size());

  copilot_ranks_.assign(config_.nodes.size(), -1);
  for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
    copilot_bounds_.push_back(std::make_unique<std::atomic<simtime::SimTime>>(
        std::numeric_limits<simtime::SimTime>::max()));
    copilot_failovers_.push_back(std::make_unique<std::atomic<int>>(0));
    blade_kills_.push_back(std::make_unique<std::atomic<int>>(0));
    copilot_doorbells_.push_back(nullptr);
    if (config_.nodes[i].kind != NodeKind::kCell) continue;
    copilot_doorbells_.back() = std::make_unique<simtime::Doorbell>();
    mpisim::RankInfo info;
    info.core = simtime::CoreKind::kPpe;  // runs on the PPE's 2nd HW thread
    info.node = static_cast<int>(i);
    info.name = config_.nodes[i].name + ".copilot";
    copilot_ranks_[i] = static_cast<mpisim::Rank>(ranks.size());
    ranks.push_back(std::move(info));
    rank_node_.push_back(static_cast<int>(i));
  }

  if (config_.deadlock_service) {
    mpisim::RankInfo info;
    info.core = simtime::CoreKind::kXeon;
    info.node = 0;
    info.name = "pisvc";
    service_rank_ = static_cast<mpisim::Rank>(ranks.size());
    ranks.push_back(std::move(info));
    rank_node_.push_back(0);
  }

  world_ = std::make_unique<mpisim::World>(std::move(ranks), config_.cost);

  // Point every ring source of a Co-Pilot at its node's doorbell.
  for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
    simtime::Doorbell* bell = copilot_doorbells_[i].get();
    if (bell == nullptr) continue;
    for (unsigned s = 0; s < blades_[i]->spe_count(); ++s) {
      blades_[i]->spe(s).set_doorbell(bell);
    }
    world_->queue(copilot_ranks_[i]).set_doorbell(bell);
  }

  // On job abort, release SPE threads blocked in mailbox reads.
  world_->on_abort([this] {
    for (auto& blade : blades_) {
      if (blade) blade->shutdown();
    }
  });
}

Cluster::~Cluster() = default;

const NodeSpec& Cluster::node(int index) const {
  if (index < 0 || index >= node_count()) {
    throw std::out_of_range("Cluster: node index out of range");
  }
  return config_.nodes[static_cast<std::size_t>(index)];
}

int Cluster::node_of_rank(mpisim::Rank r) const {
  if (r < 0 || r >= static_cast<int>(rank_node_.size())) {
    throw std::out_of_range("Cluster: rank out of range");
  }
  return rank_node_[static_cast<std::size_t>(r)];
}

bool Cluster::is_cell_node(int node_index) const {
  return node(node_index).kind == NodeKind::kCell;
}

cellsim::CellBlade& Cluster::blade(int node_index) {
  if (!is_cell_node(node_index)) {
    throw std::invalid_argument("Cluster: node " +
                                std::to_string(node_index) +
                                " is not a Cell node");
  }
  return *blades_[static_cast<std::size_t>(node_index)];
}

cellsim::Spe& Cluster::spe(int node_index, unsigned flat_index) {
  return blade(node_index).spe(flat_index);
}

unsigned Cluster::spe_count(int node_index) const {
  if (!is_cell_node(node_index)) return 0;
  return blades_[static_cast<std::size_t>(node_index)]->spe_count();
}

mpisim::Rank Cluster::copilot_rank(int node_index) const {
  const mpisim::Rank r = copilot_ranks_[static_cast<std::size_t>(node_index)];
  if (r < 0) {
    throw std::invalid_argument("Cluster: node " +
                                std::to_string(node_index) +
                                " has no Co-Pilot (not a Cell node)");
  }
  return r;
}

std::optional<mpisim::Rank> Cluster::service_rank() const {
  return service_rank_;
}

std::atomic<simtime::SimTime>& Cluster::copilot_bound(int node_index) {
  if (!is_cell_node(node_index)) {
    throw std::invalid_argument("Cluster: node " +
                                std::to_string(node_index) +
                                " has no Co-Pilot (not a Cell node)");
  }
  return *copilot_bounds_[static_cast<std::size_t>(node_index)];
}

simtime::Doorbell& Cluster::copilot_doorbell(int node_index) {
  if (!is_cell_node(node_index)) {
    throw std::invalid_argument("Cluster: node " +
                                std::to_string(node_index) +
                                " has no Co-Pilot (not a Cell node)");
  }
  return *copilot_doorbells_[static_cast<std::size_t>(node_index)];
}

void Cluster::record_copilot_failover(int node_index) {
  if (!is_cell_node(node_index)) {
    throw std::invalid_argument("Cluster: node " +
                                std::to_string(node_index) +
                                " has no Co-Pilot (not a Cell node)");
  }
  copilot_failovers_[static_cast<std::size_t>(node_index)]->fetch_add(
      1, std::memory_order_relaxed);
}

int Cluster::copilot_failover_count(int node_index) const {
  if (node_index < 0 ||
      static_cast<std::size_t>(node_index) >= copilot_failovers_.size()) {
    throw std::out_of_range("Cluster: node index out of range");
  }
  return copilot_failovers_[static_cast<std::size_t>(node_index)]->load(
      std::memory_order_relaxed);
}

void Cluster::record_blade_kill(int node_index) {
  if (!is_cell_node(node_index)) {
    throw std::invalid_argument("Cluster: node " +
                                std::to_string(node_index) +
                                " has no blade (not a Cell node)");
  }
  blade_kills_[static_cast<std::size_t>(node_index)]->fetch_add(
      1, std::memory_order_relaxed);
}

int Cluster::blade_kill_count(int node_index) const {
  if (node_index < 0 ||
      static_cast<std::size_t>(node_index) >= blade_kills_.size()) {
    throw std::out_of_range("Cluster: node index out of range");
  }
  return blade_kills_[static_cast<std::size_t>(node_index)]->load(
      std::memory_order_relaxed);
}

mpisim::Rank Cluster::first_rank_of_node(int node_index) const {
  if (node_index < 0 || node_index >= node_count()) {
    throw std::out_of_range("Cluster: node index out of range");
  }
  return node_first_rank_[static_cast<std::size_t>(node_index)];
}

}  // namespace cluster
