// stats.hpp — the benchmark's pure arithmetic: percentiles, the model
// error against the paper, the late-over-early growth ratio, and the
// virtual-time digest.  No simulator dependency, so test/ covers it alone.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace hostbench {

/// Nearest-rank percentile (p in (0, 100]) of `values`, which the call
/// sorts.  0 for an empty input.
double nearest_rank(std::vector<double> values, double p);

/// Median (nearest-rank p50).
inline double median(std::vector<double> values) {
  return nearest_rank(std::move(values), 50);
}

/// Arithmetic mean; 0 for an empty input.
double mean(std::span<const double> values);

/// Mean |simulated - paper| / paper over paired cells, in percent.
double vt_err_pct(std::span<const double> simulated,
                  std::span<const double> paper);

/// The paper's Table II CellPilot one-way latencies (us) of the eight
/// SPE-connected cells, in the order types 2..5 x {1 B, 1600 B}.
inline constexpr double kPaperSpeCells[8] = {59,  76,  140, 219,
                                             112, 123, 189, 263};

/// One delivered message on an open-loop run: the virtual instant it was
/// scheduled for and the host instant it completed.
struct Mark {
  std::int64_t virtual_ns = 0;
  std::int64_t host_ns = 0;
};

/// Host time per message in the last quarter of the virtual horizon
/// [start, start + horizon) divided by the same in the first quarter.  A
/// message's host time is the gap between its completion and the previous
/// one; `marks` must be in completion order.  0 when a quarter is empty.
double late_over_early(std::span<const Mark> marks, std::int64_t start,
                       std::int64_t horizon);

/// 64-bit FNV-1a over raw bytes, chainable through `seed`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/// splitmix64 step: the benchmark's only source of seeded randomness.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace hostbench
