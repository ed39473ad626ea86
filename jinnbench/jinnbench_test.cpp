//===- jinnbench/jinnbench_test.cpp - Tests of the benchmark's own math --===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Slugs.h"
#include "Stats.h"
#include "Worlds.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

using namespace jinnbench;

TEST(PercentileRule, NearestRankIsExact) {
  EXPECT_EQ(percentileRank(1000, 99), 990u);
  EXPECT_EQ(percentileRank(100, 50), 50u);
  EXPECT_EQ(percentileRank(101, 50), 51u);
  EXPECT_EQ(percentileRank(10000, 99.9), 9990u);
  EXPECT_EQ(percentileRank(1, 99), 1u);
  EXPECT_EQ(percentileRank(5, 0), 1u);
}

TEST(PercentileRule, HighestWithTenSamplesBeyond) {
  const std::vector<double> Candidates = {50, 90, 99, 99.9};
  EXPECT_EQ(reportablePercentile(1000, Candidates), 99);  // 10 beyond p99
  EXPECT_EQ(reportablePercentile(999, Candidates), 90);   // 9 beyond p99
  EXPECT_EQ(reportablePercentile(10000, Candidates), 99.9);
  EXPECT_EQ(reportablePercentile(100, Candidates), 90);   // 10 beyond p90
  EXPECT_EQ(reportablePercentile(20, Candidates), 50);    // 10 beyond p50
  EXPECT_EQ(reportablePercentile(19, Candidates), 0);     // none qualifies
  EXPECT_EQ(samplesBeyond(1000, 99), 10u);
}

TEST(PercentileRule, ValuesByNearestRank) {
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 50), 500);
  EXPECT_EQ(percentile(V, 99), 990);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(PercentileRule, HistogramTracksExactPercentiles) {
  LatencyHistogram H;
  std::vector<double> V;
  for (int I = 1; I <= 5000; ++I) {
    const double Ns = 1000.0 + (I * 7919 % 5000);
    H.add(Ns);
    V.push_back(Ns);
  }
  EXPECT_EQ(H.count(), 5000u);
  for (double P : {50.0, 90.0, 99.0})
    EXPECT_NEAR(H.percentile(P) / percentile(V, P), 1.0, 0.005) << P;
}

TEST(Geomean, MatchesDefinition) {
  EXPECT_DOUBLE_EQ(geomean({2, 8}), 4);
  EXPECT_NEAR(geomean({1.1, 1.2, 1.3}), std::cbrt(1.1 * 1.2 * 1.3), 1e-12);
  EXPECT_DOUBLE_EQ(geomean({5}), 5);
  EXPECT_TRUE(std::isnan(geomean({1, 0})));
  EXPECT_TRUE(std::isnan(geomean({})));
}

TEST(Differencing, PairsRoundsBeforeTakingTheMedian) {
  // Round 2 is slow on both sides; pairing cancels it.
  const std::vector<double> Full = {150, 152, 400, 151, 149};
  const std::vector<double> Zero = {100, 101, 350, 100, 99};
  EXPECT_DOUBLE_EQ(pairedDelta(Full, Zero), 50);
  EXPECT_DOUBLE_EQ(pairedRatio({200, 210, 220}, {100, 100, 100}), 2.1);
  // Unpaired tails are ignored.
  EXPECT_DOUBLE_EQ(pairedDelta({10, 20, 30}, {5, 5}), 10);
}

TEST(Slugs, EveryMachineOfAFullWorldHasOneUniqueSlug) {
  jinn::scenarios::WorldConfig Config;
  Config.Checker = jinn::scenarios::CheckerKind::Jinn;
  jinn::scenarios::ScenarioWorld World(Config);
  ASSERT_NE(World.Jinn, nullptr);
  std::set<std::string> Slugs;
  for (jinn::spec::MachineBase *M : World.Jinn->activeMachines()) {
    const char *Slug = slugFor(M->spec().Name);
    ASSERT_NE(Slug, nullptr) << M->spec().Name;
    EXPECT_TRUE(Slugs.insert(Slug).second) << Slug;
  }
  EXPECT_EQ(Slugs.size(), std::size(MachineSlugs));
  EXPECT_EQ(slugFor("no such machine"), nullptr);
}

TEST(Slugs, EachSlugNamesAFusedSingleMachineWorld) {
  for (const MachineSlug &M : MachineSlugs) {
    BenchWorld W(Config::JinnSingle, M.Name); // exits unless fused, 1 machine
    EXPECT_EQ(W.W.Jinn->activeMachines().size(), 1u);
  }
  BenchWorld Zero(Config::JinnZero);
  EXPECT_TRUE(Zero.W.Jinn->activeMachines().empty());
}
