// workload.hpp — what every workload shares: run options, the per-launch
// host clocks, the seeded payload oracle, and the tally a timed phase
// fills in.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/cellpilot.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace hostbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// Everything a timed phase measured.  Host times are ns unless named
/// otherwise; virtual times are ns of simulated time.  A phase is a run of
/// rounds (one pass over the workload's launches); the end-to-end figures
/// are medians over rounds, so a transient host disturbance moves a few
/// rounds rather than the result.
struct Tally {
  // Messages.
  std::uint64_t attempted = 0;  ///< messages the workload tried to send
  std::uint64_t delivered = 0;  ///< messages a receiver verified
  std::uint64_t failed = 0;     ///< wrong payload, PI_* fault, or lost
  std::vector<std::string> problems;  ///< first few failure descriptions

  // Host time summed over launches.
  std::int64_t active_ns = 0;      ///< PI_StartAll return -> PI_StopMain return
  std::int64_t active_cpu_ns = 0;  ///< process CPU over the same intervals
  std::int64_t bench_cpu_ns = 0;  ///< CPU of the benchmark's own threads
  std::vector<double> rtt_us;      ///< per-rep round trips, warm-up excluded

  /// Per-round figures, filled by end_round().
  struct Round {
    double msg_per_s;
    double cpu_us_per_msg;
    double rtt_p50_us;
    double rtt_p99_us;
    double setup_s;  ///< set-up summed over the round's launches
  };
  std::vector<Round> rounds;

  // Per-launch set-up and teardown pieces.
  std::vector<double> build_ms;     ///< Cluster construction
  std::vector<double> startall_ms;  ///< PI_StartAll on PI_MAIN
  std::vector<double> stopmain_ms;  ///< PI_StopMain (includes artifact flush)

  // Library counters (PI_GetChannelStats / snapshots), summed.
  std::uint64_t channel_messages = 0;
  std::uint64_t copilot_hops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t corrupt = 0;
  long long service_busy_vns = 0;   ///< telemetry service_busy sum
  long long mailbox_depth_max = 0;  ///< telemetry mailbox_depth max
  std::vector<double> match_depth_master;
  std::vector<double> match_depth_copilot;

  // Open-loop and model checks.
  std::vector<double> late_over_early;   ///< per launch
  std::set<std::uint64_t> digests;       ///< virtual-time digest per launch
  std::vector<double> vt_one_way_us;     ///< last model check, per cell

  void fail(std::uint64_t count, const std::string& why);
  /// Closes a round: its figures are the deltas since the previous one.
  void end_round(double setup_s);
  /// Median over rounds of one per-round figure.
  double median_of(double Round::*field) const;

 private:
  std::uint64_t mark_delivered_ = 0;
  std::int64_t mark_active_ns_ = 0;
  std::int64_t mark_cpu_ns_ = 0;
  std::size_t mark_rtt_ = 0;
};

/// Host clocks of one cellpilot::run, written by PI_MAIN and read after
/// the run has joined every thread.
struct LaunchClock {
  std::int64_t begin = 0;         ///< before Cluster construction
  std::int64_t built = 0;         ///< Cluster constructed
  std::int64_t startall_ns = 0;   ///< PI_StartAll duration on PI_MAIN
  std::int64_t started = 0;       ///< PI_StartAll returned on PI_MAIN
  std::int64_t stopped = 0;       ///< PI_StopMain returned
  std::int64_t stopmain_ns = 0;   ///< PI_StopMain duration
  std::int64_t cpu_started = 0;   ///< process CPU at `started`
  std::int64_t cpu_stopped = 0;   ///< process CPU at `stopped`
  std::atomic<std::int64_t> bench_cpu_ns{0};  ///< benchmark threads' CPU

  /// PI_StartAll with timing; only PI_MAIN returns from it.
  void start_all();
  /// PI_StopMain(0) with timing.
  void stop_main();
};

/// Adds the calling thread's CPU over its lifetime to a launch's
/// bench_cpu_ns: put one at the top of every benchmark thread body.
class BenchThread {
 public:
  explicit BenchThread(LaunchClock& clock)
      : clock_(clock), start_(thread_cpu_ns()) {}
  ~BenchThread() {
    clock_.bench_cpu_ns.fetch_add(thread_cpu_ns() - start_,
                                   std::memory_order_relaxed);
  }
  BenchThread(const BenchThread&) = delete;
  BenchThread& operator=(const BenchThread&) = delete;

 private:
  LaunchClock& clock_;
  std::int64_t start_;
};

/// Runs one launch on a fresh cluster and folds its host clocks into
/// `tally`.  `main` runs on every user rank, like cellpilot::run's, and
/// also receives the cluster (for virtual-clock reads and queue samples).
/// Returns the run result; an aborted run is recorded as a problem (the
/// caller accounts for its lost messages).
cellpilot::RunResult launch(
    const cluster::ClusterConfig& config,
    const std::function<int(cluster::Cluster&, int, char**)>& main,
    const cellpilot::RunOptions& options, LaunchClock& clock, Tally& tally);

/// Seeded message payloads.  Every message is a fixed seeded byte pattern
/// with its first eight bytes (fewer for short messages) XORed with the
/// message id, so a receiver can check content and identity at memcmp
/// cost.
class Payload {
 public:
  Payload(std::uint64_t seed, std::size_t bytes);

  std::size_t bytes() const { return base_.size(); }
  void fill(std::byte* out, std::uint64_t id) const;
  bool check(const std::byte* in, std::uint64_t id) const;

 private:
  std::vector<std::byte> base_;
};

/// Folds channel statistics (PI_GetChannelStats) into the tally.
void add_channel_stats(PI_CHANNEL* const* channels, int count, Tally& tally);

/// Adds `from`'s library counters (channel statistics, telemetry and
/// queue-depth samples) to `into`.
void merge_counters(Tally& into, const Tally& from);

/// The eight SPE-connected Table II cells (types 2..5 x {1, 1600} B).
struct SpeCell {
  int type;
  int bytes;
  double expect_us;  ///< virtual one-way latency at the parent model
};
extern const SpeCell kSpeCells[8];

/// Runs each SPE cell once with `reps` round trips and checks its steady
/// virtual one-way latency against the model.  Stores the per-cell
/// latencies in tally.vt_one_way_us; a mismatch fails the tally.
void spe_model_check(std::uint64_t seed, int reps, Tally& tally);

// --- workloads ---------------------------------------------------------------

/// Runs a workload for `seconds` of host time.  With spans enabled the
/// same loop records spans around every PI_* call of its own threads.
void run_spe_pingpong(const Options& opt, double seconds, Tally& tally);
void run_rank_pingpong(const Options& opt, double seconds, Tally& tally);
void run_mixed_load(const Options& opt, double seconds, Tally& tally);

/// One layer probe result of the traced run.
struct ProbeResult {
  std::string name;
  double value;
  std::string unit;
};
std::vector<ProbeResult> run_probes(std::uint64_t seed);

}  // namespace hostbench
