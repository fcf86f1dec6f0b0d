#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace hostbench {

double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double vt_err_pct(std::span<const double> simulated,
                  std::span<const double> paper) {
  const std::size_t n = std::min(simulated.size(), paper.size());
  if (n == 0) return 0;
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += std::fabs(simulated[i] - paper[i]) / paper[i];
  }
  return 100.0 * sum / static_cast<double>(n);
}

double late_over_early(std::span<const Mark> marks, std::int64_t start,
                       std::int64_t horizon) {
  const std::int64_t q = horizon / 4;
  if (q <= 0) return 0;
  // Mean host gap to the previous completion, over the messages
  // scheduled in the first and in the last quarter.
  double gap[2] = {0, 0};
  double count[2] = {0, 0};
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const std::int64_t v = marks[i].virtual_ns - start;
    const int quarter = v < q ? 0 : (v >= 3 * q && v < horizon) ? 1 : -1;
    if (quarter < 0) continue;
    gap[quarter] += static_cast<double>(marks[i].host_ns - marks[i - 1].host_ns);
    count[quarter] += 1;
  }
  if (count[0] == 0 || count[1] == 0 || gap[0] <= 0) return 0;
  return (gap[1] / count[1]) / (gap[0] / count[0]);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace hostbench
