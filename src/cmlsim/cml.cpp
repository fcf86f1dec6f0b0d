#include "cmlsim/cml.hpp"

#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "cellsim/libspe2.hpp"
#include "cellsim/spu.hpp"
#include "mpisim/launcher.hpp"
#include "mpisim/mpi.hpp"
#include "simtime/hostwait.hpp"

namespace cml {
namespace {

using simtime::SimTime;

constexpr int kTagShutdown = mpisim::kReservedTagBase + 70;

/// Request opcodes (SPE -> daemon, 3 mailbox words).
enum class Op : std::uint32_t { kSend = 1, kRecv = 2 };

constexpr int kRequestWords = 3;

constexpr std::uint32_t pack(Op op, int peer) {
  return (static_cast<std::uint32_t>(op) << 24) |
         (static_cast<std::uint32_t>(peer) & 0x00FFFFFFu);
}

/// MPI tag encoding one (src, dst) rank pair's stream.
constexpr int pair_tag(int src, int dst) { return src * 16384 + dst; }

struct Job {
  explicit Job(const JobConfig& config)
      : cfg(config),
        world(make_ranks(config), cfg.cost),
        bells(static_cast<std::size_t>(config.nodes)) {
    for (int n = 0; n < cfg.nodes; ++n) {
      blades.push_back(std::make_unique<cellsim::CellBlade>(
          "cml" + std::to_string(n), cfg.cost, cfg.spes_per_node));
      // A daemon's ring sources: its SPEs and its rank's queue.
      simtime::Doorbell* bell = &bells[static_cast<std::size_t>(n)];
      for (unsigned s = 0; s < cfg.spes_per_node; ++s) {
        blades.back()->spe(s).set_doorbell(bell);
      }
      world.queue(n).set_doorbell(bell);
    }
    world.on_abort([this] {
      for (auto& b : blades) b->shutdown();
    });
  }

  static std::vector<mpisim::RankInfo> make_ranks(const JobConfig& config) {
    std::vector<mpisim::RankInfo> ranks;
    for (int n = 0; n < config.nodes; ++n) {
      ranks.push_back({simtime::CoreKind::kPpe, n,
                       "cml" + std::to_string(n) + ".daemon"});
    }
    return ranks;
  }

  int size() const {
    return cfg.nodes * static_cast<int>(cfg.spes_per_node);
  }
  int node_of(int rank) const {
    return rank / static_cast<int>(cfg.spes_per_node);
  }
  unsigned spe_index_of(int rank) const {
    return static_cast<unsigned>(rank) % cfg.spes_per_node;
  }
  cellsim::Spe& spe_of(int rank) {
    return blades[static_cast<std::size_t>(node_of(rank))]->spe(
        spe_index_of(rank));
  }
  /// The representative rank of a node (its rank 0).
  int rep(int node) const {
    return node * static_cast<int>(cfg.spes_per_node);
  }

  JobConfig cfg;
  std::vector<std::unique_ptr<cellsim::CellBlade>> blades;
  mpisim::World world;
  std::vector<simtime::Doorbell> bells;  ///< one per node's daemon
};

/// SPE-thread binding.
struct CmlEnv {
  Job* job = nullptr;
  int rank = -1;
};
thread_local CmlEnv t_env;
thread_local const SpeMain* t_main = nullptr;

CmlEnv& env() {
  if (t_env.job == nullptr) {
    throw std::logic_error("CML operation called outside a CML SPE rank");
  }
  return t_env;
}

/// Issues one request and stalls for the completion word.
void request_and_wait(Op op, int peer, cellsim::LsAddr ls,
                      std::uint32_t bytes) {
  cellsim::spu::spu_write_out_mbox(pack(op, peer));
  cellsim::spu::spu_write_out_mbox(ls);
  cellsim::spu::spu_write_out_mbox(bytes);
  const std::uint32_t status = cellsim::spu::spu_read_in_mbox();
  if (status != 0) {
    throw std::runtime_error("CML: transfer failed (status " +
                             std::to_string(status) + ")");
  }
}

// --- the PPE daemon -----------------------------------------------------------

class Daemon {
 public:
  Daemon(mpisim::Mpi& mpi, Job& job, int node)
      : mpi_(mpi), job_(job), node_(node),
        assembly_(job.cfg.spes_per_node) {}

  int run() {
    simtime::Doorbell& bell = job_.bells[static_cast<std::size_t>(node_)];
    for (;;) {
      const std::uint32_t seen = bell.announce();
      bool progress = false;
      if (mpi_.iprobe(mpisim::kAnySource, kTagShutdown)) {
        std::uint8_t poison = 0;
        mpi_.recv_internal(&poison, 1, mpisim::kAnySource, kTagShutdown);
        return 0;
      }
      // Drain local SPE requests.
      for (unsigned s = 0; s < job_.cfg.spes_per_node; ++s) {
        cellsim::Spe& spe =
            job_.blades[static_cast<std::size_t>(node_)]->spe(s);
        while (auto entry = spe.outbound_mailbox().try_pop()) {
          progress = true;
          mpi_.clock().join(entry->stamp);
          mpi_.clock().advance(job_.cfg.cost.mbox_ppe_read);
          Assembly& a = assembly_[s];
          a.words[a.n++] = entry->value;
          if (a.n == kRequestWords) {
            a.n = 0;
            handle(s, a.words);
          }
        }
      }
      // Progress recvs waiting on remote data.
      for (auto it = pending_recvs_.begin(); it != pending_recvs_.end();) {
        if (it->second.remote && try_remote_recv(it->first, it->second)) {
          progress = true;
          it = pending_recvs_.erase(it);
        } else {
          ++it;
        }
      }
      // Idle: a ring since announce() makes the park return at once.
      if (!progress) bell.park(seen);
    }
  }

 private:
  struct Assembly {
    std::uint32_t words[kRequestWords] = {};
    int n = 0;
  };
  struct Pending {
    int self_rank = 0;  ///< requesting rank
    cellsim::LsAddr ls = 0;
    std::uint32_t bytes = 0;
    bool remote = false;  ///< peer lives on another node
  };
  using PairKey = std::pair<int, int>;  // (src, dst)

  void complete(int rank, std::uint32_t status) {
    mpi_.clock().advance(job_.cfg.cost.mbox_ppe_write);
    job_.spe_of(rank).inbound_mailbox().push_blocking(status,
                                                      mpi_.clock().now());
  }

  void local_transfer(const Pending& send, const Pending& recv) {
    if (send.bytes != recv.bytes) {
      complete(send.self_rank, 2);
      complete(recv.self_rank, 2);
      return;
    }
    cellsim::Spe& src = job_.spe_of(send.self_rank);
    cellsim::Spe& dst = job_.spe_of(recv.self_rank);
    std::memcpy(dst.local_store().at(recv.ls, recv.bytes),
                src.local_store().at(send.ls, send.bytes), send.bytes);
    mpi_.clock().advance(2 * job_.cfg.cost.copilot_ls_access(send.bytes));
    complete(send.self_rank, 0);
    complete(recv.self_rank, 0);
  }

  bool try_remote_recv(const PairKey& key, const Pending& recv) {
    const int src_daemon = job_.node_of(key.first);
    const int tag = pair_tag(key.first, key.second);
    if (!mpi_.iprobe(src_daemon, tag)) return false;
    mpisim::Status st;
    std::vector<std::byte> data = mpi_.recv_any_size(src_daemon, tag, &st);
    mpi_.clock().advance(job_.cfg.cost.copilot_dispatch_remote);
    if (data.size() != recv.bytes) {
      complete(recv.self_rank, 2);
      return true;
    }
    cellsim::Spe& dst = job_.spe_of(recv.self_rank);
    std::memcpy(dst.local_store().at(recv.ls, recv.bytes), data.data(),
                data.size());
    mpi_.clock().advance(job_.cfg.cost.copilot_ls_access(recv.bytes));
    complete(recv.self_rank, 0);
    return true;
  }

  void handle(unsigned spe_index, const std::uint32_t words[kRequestWords]) {
    mpi_.clock().advance(job_.cfg.cost.copilot_service / 2);  // lean library
    const Op op = static_cast<Op>(words[0] >> 24);
    const int peer = static_cast<int>(words[0] & 0x00FFFFFFu);
    const int self =
        job_.rep(node_) + static_cast<int>(spe_index);
    Pending p{self, words[1], words[2], job_.node_of(peer) != node_};

    if (op == Op::kSend) {
      const PairKey key{self, peer};
      if (!p.remote) {
        auto it = pending_recvs_.find(key);
        if (it != pending_recvs_.end()) {
          const Pending recv = it->second;
          pending_recvs_.erase(it);
          local_transfer(p, recv);
        } else {
          pending_sends_.emplace(key, p);
        }
      } else {
        // Eager forward to the peer's daemon.
        cellsim::Spe& src = job_.spe_of(self);
        const std::byte* buf = src.local_store().at(p.ls, p.bytes);
        mpi_.clock().advance(job_.cfg.cost.copilot_ls_access(p.bytes));
        mpi_.send_internal(buf, p.bytes, job_.node_of(peer),
                           pair_tag(self, peer));
        complete(self, 0);
      }
    } else if (op == Op::kRecv) {
      const PairKey key{peer, self};
      if (job_.node_of(peer) == node_) {
        auto it = pending_sends_.find(key);
        if (it != pending_sends_.end()) {
          const Pending send = it->second;
          pending_sends_.erase(it);
          local_transfer(send, p);
        } else {
          p.remote = false;
          pending_recvs_.emplace(key, p);
        }
      } else {
        p.remote = true;
        if (!try_remote_recv(key, p)) pending_recvs_.emplace(key, p);
      }
    } else {
      complete(self, 3);
    }
  }

  mpisim::Mpi& mpi_;
  Job& job_;
  int node_;
  std::vector<Assembly> assembly_;
  std::map<PairKey, Pending> pending_sends_;
  std::map<PairKey, Pending> pending_recvs_;
};

/// The SPE-side program wrapper.
int cml_spe_entry(std::uint64_t, std::uint64_t, std::uint64_t) {
  return (*t_main)(t_env.rank, t_env.job->size());
}

}  // namespace

JobResult run(const JobConfig& config, const SpeMain& spe_main) {
  if (config.nodes <= 0 || config.spes_per_node == 0 ||
      config.spes_per_node > 16) {
    JobResult bad;
    bad.failed = true;
    bad.error = "cml: bad job configuration";
    return bad;
  }
  Job job(config);
  JobResult result;
  result.exit_codes.assign(static_cast<std::size_t>(job.size()), 0);
  std::mutex error_mu;

  // SPE rank threads.
  std::vector<std::thread> spe_threads;
  for (int rank = 0; rank < job.size(); ++rank) {
    spe_threads.emplace_back([&, rank] {
      t_env = CmlEnv{&job, rank};
      t_main = &spe_main;
      try {
        cellsim::spe2::SpeContext ctx(job.spe_of(rank));
        const cellsim::spe2::spe_program_handle_t program{
            "cml_rank", &cml_spe_entry, 4096};
        result.exit_codes[static_cast<std::size_t>(rank)] =
            ctx.run(program, 0, 0);
      } catch (const std::exception& e) {
        {
          std::lock_guard lock(error_mu);
          if (!result.failed) {
            result.failed = true;
            result.error = "rank " + std::to_string(rank) + ": " + e.what();
          }
        }
        job.world.abort(result.error);
      }
      t_env = CmlEnv{};
      t_main = nullptr;
    });
  }

  // When every SPE rank has exited, poison the daemons.
  std::thread closer([&] {
    for (auto& t : spe_threads) t.join();
    for (int n = 0; n < config.nodes; ++n) {
      mpisim::InboundMessage poison;
      poison.source = n;
      poison.tag = kTagShutdown;
      poison.payload.resize(1);
      job.world.queue(n).deposit(std::move(poison));
    }
  });

  const mpisim::LaunchResult daemons =
      mpisim::launch(job.world, [&](mpisim::Mpi& mpi) {
        Daemon daemon(mpi, job, mpi.rank());
        return daemon.run();
      });
  closer.join();

  if (daemons.aborted && !result.failed) {
    result.failed = true;
    result.error = daemons.abort_reason;
  }
  return result;
}

// --- SPE-side operations --------------------------------------------------------

namespace {

/// RAII staging buffer in the calling SPE's local store.
class Staging {
 public:
  explicit Staging(std::size_t bytes)
      : addr_(cellsim::spu::ls_alloc(std::max<std::size_t>(bytes, 16), 16)),
        bytes_(std::max<std::size_t>(bytes, 16)) {}
  ~Staging() { cellsim::spu::ls_free(addr_); }
  cellsim::LsAddr addr() const { return addr_; }
  std::byte* ptr() {
    return static_cast<std::byte*>(cellsim::spu::ls_ptr(addr_, bytes_));
  }

 private:
  cellsim::LsAddr addr_;
  std::size_t bytes_;
};

}  // namespace

void cml_send(const void* data, std::size_t bytes, int dest) {
  CmlEnv& e = env();
  if (dest < 0 || dest >= e.job->size() || dest == e.rank) {
    throw std::invalid_argument("cml_send: bad destination rank");
  }
  cellsim::spu::self().clock().advance(e.job->cfg.cost.spu_call_overhead);
  Staging staging(bytes);
  if (bytes > 0) std::memcpy(staging.ptr(), data, bytes);
  request_and_wait(Op::kSend, dest, staging.addr(),
                   static_cast<std::uint32_t>(bytes));
}

void cml_recv(void* data, std::size_t bytes, int src) {
  CmlEnv& e = env();
  if (src < 0 || src >= e.job->size() || src == e.rank) {
    throw std::invalid_argument("cml_recv: bad source rank");
  }
  cellsim::spu::self().clock().advance(e.job->cfg.cost.spu_call_overhead);
  Staging staging(bytes);
  request_and_wait(Op::kRecv, src, staging.addr(),
                   static_cast<std::uint32_t>(bytes));
  if (bytes > 0) std::memcpy(data, staging.ptr(), bytes);
}

int cml_rank() { return env().rank; }

int cml_size() { return env().job->size(); }

simtime::VirtualClock& cml_clock() { return cellsim::spu::self().clock(); }

void cml_bcast(void* data, std::size_t bytes, int root) {
  CmlEnv& e = env();
  Job& job = *e.job;
  const int me = e.rank;
  const int root_node = job.node_of(root);
  const int my_node = job.node_of(me);
  const int spn = static_cast<int>(job.cfg.spes_per_node);

  if (me == root) {
    // Inter-node stage: one message to each other node's representative.
    for (int n = 0; n < job.cfg.nodes; ++n) {
      if (n != root_node) cml_send(data, bytes, job.rep(n));
    }
    // Intra-node stage on the root's own node.
    for (int r = job.rep(root_node); r < job.rep(root_node) + spn; ++r) {
      if (r != root) cml_send(data, bytes, r);
    }
  } else if (my_node == root_node) {
    cml_recv(data, bytes, root);
  } else if (me == job.rep(my_node)) {
    cml_recv(data, bytes, root);
    for (int r = job.rep(my_node); r < job.rep(my_node) + spn; ++r) {
      if (r != me) cml_send(data, bytes, r);
    }
  } else {
    cml_recv(data, bytes, job.rep(my_node));
  }
}

void cml_reduce_sum(const double* contrib, double* result, std::size_t count,
                    int root) {
  CmlEnv& e = env();
  Job& job = *e.job;
  const int me = e.rank;
  const int root_node = job.node_of(root);
  const int my_node = job.node_of(me);
  const int spn = static_cast<int>(job.cfg.spes_per_node);
  const std::size_t bytes = count * sizeof(double);

  std::vector<double> acc(contrib, contrib + count);
  std::vector<double> tmp(count);

  if (me == root) {
    // Own node's ranks send directly; other nodes send one partial each.
    for (int r = job.rep(root_node); r < job.rep(root_node) + spn; ++r) {
      if (r == root) continue;
      cml_recv(tmp.data(), bytes, r);
      for (std::size_t i = 0; i < count; ++i) acc[i] += tmp[i];
    }
    for (int n = 0; n < job.cfg.nodes; ++n) {
      if (n == root_node) continue;
      cml_recv(tmp.data(), bytes, job.rep(n));
      for (std::size_t i = 0; i < count; ++i) acc[i] += tmp[i];
    }
    std::memcpy(result, acc.data(), bytes);
  } else if (my_node == root_node) {
    cml_send(acc.data(), bytes, root);
  } else if (me == job.rep(my_node)) {
    for (int r = job.rep(my_node); r < job.rep(my_node) + spn; ++r) {
      if (r == me) continue;
      cml_recv(tmp.data(), bytes, r);
      for (std::size_t i = 0; i < count; ++i) acc[i] += tmp[i];
    }
    cml_send(acc.data(), bytes, root);
  } else {
    cml_send(acc.data(), bytes, job.rep(my_node));
  }
}

void cml_allreduce_sum(const double* contrib, double* result,
                       std::size_t count) {
  cml_reduce_sum(contrib, result, count, 0);
  cml_bcast(result, count * sizeof(double), 0);
}

}  // namespace cml
