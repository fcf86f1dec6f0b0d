// slogate_test.cpp — the SLO gate, library and binary.
//
// Library-level tests pin the gate semantics (one-sided tolerances, row
// matching, capacity and chaos meta); binary-level tests run the real
// `slogate` executable (path injected as SLOGATE_BIN) and pin the exit
// codes CI depends on: 0 pass, 1 regression, 2 usage/missing/malformed —
// including the --update-baseline round trip.
#include "benchkit/slo.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace {

namespace slo = benchkit::slo;

// --- library ---------------------------------------------------------------

const char kBaseline[] = R"({
  "bench": "loadgen",
  "seed": 1,
  "failovers": 0,
  "capacity_read_rps": 8000,
  "rows": [
    {"load_rps": 8000, "class": "read", "p99_us": 100, "achieved_rps": 1000,
     "degraded_samples": 0, "degraded_p99_us": 0},
    {"load_rps": 8000, "class": "sync_write", "p99_us": 200,
     "achieved_rps": 2000, "degraded_samples": 0, "degraded_p99_us": 0}
  ]
})";

slo::Doc parse_ok(const std::string& text) {
  slo::Doc doc;
  std::string error;
  EXPECT_TRUE(slo::parse(text, &doc, &error)) << error;
  return doc;
}

/// A candidate built from the baseline with one read-row field replaced.
std::string candidate_with(const std::string& key, double value) {
  std::string text = kBaseline;
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos);
  const std::size_t start = at + needle.size();
  std::size_t end = start;
  while (end < text.size() && text[end] != ',' && text[end] != '}' &&
         text[end] != '\n') {
    ++end;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  return text.substr(0, start) + buf + text.substr(end);
}

TEST(SloParse, RoundTripsTheBenchjsonSubset) {
  const slo::Doc doc = parse_ok(kBaseline);
  std::string bench;
  EXPECT_TRUE(slo::get_string(doc.meta, "bench", &bench));
  EXPECT_EQ(bench, "loadgen");
  double cap = 0;
  EXPECT_TRUE(slo::get_number(doc.meta, "capacity_read_rps", &cap));
  EXPECT_EQ(cap, 8000);
  ASSERT_EQ(doc.rows.size(), 2u);
  std::string cls;
  EXPECT_TRUE(slo::get_string(doc.rows[0], "class", &cls));
  EXPECT_EQ(cls, "read");
  EXPECT_FALSE(slo::get_number(doc.rows[0], "absent_key", &cap));
}

TEST(SloParse, MalformedInputGivesPositionedError) {
  slo::Doc doc;
  std::string error;
  EXPECT_FALSE(slo::parse("{\"bench\": }", &doc, &error));
  EXPECT_NE(error.find("byte"), std::string::npos) << error;
  EXPECT_FALSE(slo::parse("", &doc, &error));
  EXPECT_FALSE(slo::parse("[1,2,3]", &doc, &error));
  // Trailing garbage after a valid document is malformed too.
  EXPECT_FALSE(slo::parse(std::string(kBaseline) + "x", &doc, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(SloGate, PassesWithinTolerance) {
  const slo::Doc baseline = parse_ok(kBaseline);
  // p99 100 -> 140 stays under 100*1.25+50; capacity and rate unchanged.
  const slo::Doc candidate = parse_ok(candidate_with("p99_us", 140));
  const slo::GateResult result =
      slo::gate(baseline, candidate, slo::Tolerances{});
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.issues.empty());
}

TEST(SloGate, FailsOnP99Regression) {
  const slo::Doc baseline = parse_ok(kBaseline);
  const slo::Doc candidate = parse_ok(candidate_with("p99_us", 500));
  const slo::GateResult result =
      slo::gate(baseline, candidate, slo::Tolerances{});
  ASSERT_FALSE(result.ok);
  ASSERT_EQ(result.issues.size(), 1u);
  EXPECT_NE(result.issues[0].where.find("class=read"), std::string::npos);
  EXPECT_NE(result.issues[0].message.find("p99_us"), std::string::npos);
}

TEST(SloGate, FasterIsNeverARegression) {
  const slo::Doc baseline = parse_ok(kBaseline);
  const slo::Doc candidate = parse_ok(candidate_with("p99_us", 1));
  EXPECT_TRUE(slo::gate(baseline, candidate, slo::Tolerances{}).ok);
}

TEST(SloGate, FailsOnThroughputDrop) {
  const slo::Doc baseline = parse_ok(kBaseline);
  const slo::Doc candidate = parse_ok(candidate_with("achieved_rps", 800));
  const slo::GateResult result =
      slo::gate(baseline, candidate, slo::Tolerances{});
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.issues[0].message.find("achieved_rps"),
            std::string::npos);
}

TEST(SloGate, FailsOnCapacityDrop) {
  const slo::Doc baseline = parse_ok(kBaseline);
  const slo::Doc candidate =
      parse_ok(candidate_with("capacity_read_rps", 4000));
  const slo::GateResult result =
      slo::gate(baseline, candidate, slo::Tolerances{});
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.issues[0].message.find("capacity_read_rps"),
            std::string::npos);
}

TEST(SloGate, FailsOnMissingRow) {
  const slo::Doc baseline = parse_ok(kBaseline);
  slo::Doc candidate = parse_ok(kBaseline);
  candidate.rows.pop_back();
  const slo::GateResult result =
      slo::gate(baseline, candidate, slo::Tolerances{});
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.issues[0].message.find("missing"), std::string::npos);
}

TEST(SloGate, TolerancesAreOverridable) {
  const slo::Doc baseline = parse_ok(kBaseline);
  const slo::Doc candidate = parse_ok(candidate_with("p99_us", 500));
  slo::Tolerances generous;
  generous.p99_frac = 5.0;
  EXPECT_TRUE(slo::gate(baseline, candidate, generous).ok);
}

TEST(SloGate, ChaosMetaMustKeepFiring) {
  // A baseline that recorded failovers is a chaos baseline; a candidate
  // with zero means the cocktail stopped firing and the point is dead
  // weight — that is a gate failure, not a lucky pass.
  slo::Doc baseline = parse_ok(kBaseline);
  for (auto& [key, value] : baseline.meta) {
    if (key == "failovers") value = 2.0;
  }
  const slo::Doc candidate = parse_ok(kBaseline);  // failovers: 0
  const slo::GateResult result =
      slo::gate(baseline, candidate, slo::Tolerances{});
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.issues[0].message.find("failovers"), std::string::npos);
}

TEST(SloGate, DegradedP99GatedWhenBothRunsCaptureIt) {
  slo::Doc baseline = parse_ok(kBaseline);
  slo::Doc candidate = parse_ok(kBaseline);
  for (auto& row : baseline.rows) {
    for (auto& [key, value] : row) {
      if (key == "degraded_samples") value = 10.0;
      if (key == "degraded_p99_us") value = 1000.0;
    }
  }
  for (auto& row : candidate.rows) {
    for (auto& [key, value] : row) {
      if (key == "degraded_samples") value = 12.0;
      if (key == "degraded_p99_us") value = 9000.0;  // 9x: beyond 100%+50
    }
  }
  const slo::GateResult result =
      slo::gate(baseline, candidate, slo::Tolerances{});
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.issues[0].message.find("degraded_p99_us"),
            std::string::npos);

  // Candidate without degraded samples: a note, not a failure.
  slo::Doc quiet = parse_ok(kBaseline);
  const slo::GateResult noted =
      slo::gate(baseline, quiet, slo::Tolerances{});
  EXPECT_TRUE(noted.ok);
  EXPECT_FALSE(noted.notes.empty());
}

// --- binary ----------------------------------------------------------------

class SlogateBinary : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: a parallel ctest runs each test in its own
    // process, and both write baselines and out.txt here.
    dir_ = ::testing::TempDir() + "slogate_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "/";
    std::system(("mkdir -p " + dir_).c_str());
  }

  std::string path(const std::string& name) const { return dir_ + name; }

  void write(const std::string& name, const std::string& text) const {
    std::ofstream f(path(name), std::ios::trunc);
    f << text;
  }

  /// Runs slogate and returns its exit code; captures combined output.
  int run(const std::string& args, std::string* output = nullptr) const {
    const std::string cmd =
        std::string(SLOGATE_BIN) + " " + args + " > " + path("out.txt") +
        " 2>&1";
    const int status = std::system(cmd.c_str());
    if (output != nullptr) {
      std::ifstream f(path("out.txt"));
      std::ostringstream ss;
      ss << f.rdbuf();
      *output = ss.str();
    }
    return WEXITSTATUS(status);
  }

  std::string dir_;
};

TEST_F(SlogateBinary, PassRegressAndUpdateRoundTrip) {
  write("baseline.json", kBaseline);
  write("good.json", candidate_with("p99_us", 120));
  write("bad.json", candidate_with("p99_us", 500));

  std::string out;
  EXPECT_EQ(run("--baseline " + path("baseline.json") + " " +
                    path("good.json"),
                &out),
            0)
      << out;
  EXPECT_NE(out.find("OK"), std::string::npos);

  EXPECT_EQ(run("--baseline " + path("baseline.json") + " " +
                    path("bad.json"),
                &out),
            1)
      << out;
  EXPECT_NE(out.find("FAIL"), std::string::npos);
  EXPECT_NE(out.find("p99_us"), std::string::npos);

  // --update-baseline: the regressing run becomes the new baseline, and
  // gating it against itself passes — the round trip.
  EXPECT_EQ(run("--baseline " + path("baseline.json") +
                    " --update-baseline " + path("bad.json"),
                &out),
            0)
      << out;
  EXPECT_EQ(run("--baseline " + path("baseline.json") + " " +
                    path("bad.json"),
                &out),
            0)
      << out;
}

TEST_F(SlogateBinary, MissingAndMalformedBaselinesFailClearly) {
  write("good.json", kBaseline);
  write("broken.json", "{\"bench\": \"loadgen\", \"rows\": [");

  std::string out;
  EXPECT_EQ(run("--baseline " + path("nonexistent.json") + " " +
                    path("good.json"),
                &out),
            2)
      << out;
  EXPECT_NE(out.find("cannot open"), std::string::npos) << out;

  EXPECT_EQ(run("--baseline " + path("broken.json") + " " +
                    path("good.json"),
                &out),
            2)
      << out;
  EXPECT_NE(out.find("malformed"), std::string::npos) << out;

  // Usage errors: no baseline, unknown flag.
  EXPECT_EQ(run(path("good.json")), 2);
  EXPECT_EQ(run("--frobnicate"), 2);
}

}  // namespace
