// hostbench_test — checks the benchmark's own arithmetic: the nearest-rank
// percentile, span self time, vt_err_pct against the paper's Table II, and
// late_over_early on synthetic series.  No simulator involved.
//
//   cmake --build <build> --target hostbench_test && <build>/hostbench_test
#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

using hostbench::SpanRecord;

void nearest_rank_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(hostbench::nearest_rank(v, 50) == 50);
  CHECK(hostbench::nearest_rank(v, 99) == 99);
  CHECK(hostbench::nearest_rank(v, 100) == 100);
  CHECK(hostbench::nearest_rank(v, 1) == 1);
  CHECK(hostbench::nearest_rank({7}, 99) == 7);
  CHECK(hostbench::nearest_rank({}, 50) == 0);
  // Rank ceil(p/100 * n): p50 of four values is the 2nd, p99 the 4th.
  CHECK(hostbench::nearest_rank({4, 1, 3, 2}, 50) == 2);
  CHECK(hostbench::nearest_rank({4, 1, 3, 2}, 99) == 4);
  CHECK(hostbench::median({3, 1, 2}) == 2);
}

SpanRecord span(std::int64_t start, std::int64_t end, std::int32_t parent) {
  SpanRecord r;
  r.start_ns = start;
  r.end_ns = end;
  r.parent = parent;
  return r;
}

void span_self_time() {
  // Parent [0, 100); children [10, 30) and [20, 50) overlap (covering
  // [10, 50) once), [90, 120) is clipped to [90, 100); a grandchild does
  // not count against the parent.
  const std::vector<SpanRecord> records = {
      span(0, 100, -1), span(10, 30, 0), span(20, 50, 0),
      span(90, 120, 0), span(12, 18, 1),
  };
  const std::vector<std::int64_t> self = hostbench::spans::self_times(records);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[4] == 6);

  // The RAII recorder links children to the open span on their thread and
  // inherits the parent's message id.
  hostbench::spans::clear();
  hostbench::spans::set_enabled(true);
  {
    hostbench::Span outer("outer", 2, 42);
    { hostbench::Span inner("inner", 2); }
    { hostbench::Span other("other", 2, 7); }
  }
  hostbench::spans::set_enabled(false);
  { hostbench::Span ignored("ignored"); }
  const std::vector<SpanRecord> got = hostbench::spans::collect();
  CHECK(got.size() == 3);
  if (got.size() == 3) {
    CHECK(got[0].parent == -1 && got[1].parent == 0 && got[2].parent == 0);
    CHECK(got[1].msg == 42 && got[2].msg == 7);
    CHECK(got[0].start_ns <= got[1].start_ns && got[1].end_ns <= got[0].end_ns);
    const std::vector<std::int64_t> s = hostbench::spans::self_times(got);
    CHECK(s[0] == got[0].wall() - got[1].wall() - got[2].wall());
  }
  hostbench::spans::clear();
}

void vt_err_against_table_two() {
  // EXPERIMENTS.md T2: the simulated CellPilot one-way latencies of the
  // eight SPE-connected cells, against the paper's.
  const double simulated[8] = {63.1,  74.3,  145.8, 217.6,
                               107.0, 119.8, 185.7, 260.8};
  const double pct =
      hostbench::vt_err_pct(simulated, hostbench::kPaperSpeCells);
  CHECK(near(pct, 2.95, 0.005));
  CHECK(hostbench::vt_err_pct(hostbench::kPaperSpeCells,
                              hostbench::kPaperSpeCells) == 0);
}

void late_over_early_synthetic() {
  using hostbench::Mark;
  const std::int64_t horizon = 400;
  // One message per virtual unit at a constant 10 host ns each.
  std::vector<Mark> steady;
  for (int v = 0; v < horizon; ++v) steady.push_back({v, 10 * (v + 1)});
  CHECK(near(hostbench::late_over_early(steady, 0, horizon), 1.0, 1e-9));

  // Same arrivals, but each message of the last quarter costs twice as
  // much host time.
  std::vector<Mark> growing;
  std::int64_t host = 0;
  for (int v = 0; v < horizon; ++v) {
    host += v >= 300 ? 20 : 10;
    growing.push_back({v, host});
  }
  CHECK(near(hostbench::late_over_early(growing, 0, horizon), 2.0, 1e-9));

  // An offset start and an empty quarter.
  std::vector<Mark> shifted;
  for (const Mark& m : steady) shifted.push_back({m.virtual_ns + 1000, m.host_ns});
  CHECK(near(hostbench::late_over_early(shifted, 1000, horizon), 1.0, 1e-9));
  CHECK(hostbench::late_over_early(steady, 0, 4 * horizon) == 0);
}

}  // namespace

int main() {
  nearest_rank_percentile();
  span_self_time();
  vt_err_against_table_two();
  late_over_early_synthetic();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("hostbench_test: all checks passed\n");
  return 0;
}
