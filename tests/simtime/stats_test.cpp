// Unit tests for the Stats accumulator.
#include <gtest/gtest.h>

#include <cmath>

#include "simtime/stats.hpp"

namespace {

using namespace simtime;

TEST(Stats, EmptyDefaults) {
  Stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, PercentilesByNearestRank) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(Stats, PercentileClampsOutOfRange) {
  Stats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.percentile(-5), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(500), 3.0);
}

TEST(Stats, ResetClears) {
  Stats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0.0);
}

}  // namespace
