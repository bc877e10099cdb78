// The pluggable partitioners: greedy scan vs. RCB vs. the exact
// min–max(load/target) optimum, plus the quality metric itself.
#include "lb/partitioners.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace ulba::lb {
namespace {

std::vector<double> equal_targets(int pe_count) {
  return std::vector<double>(static_cast<std::size_t>(pe_count),
                             1.0 / pe_count);
}

/// Exhaustive optimal bottleneck ratio over all contiguous partitions —
/// ground truth for tiny instances (recursion over cut positions).
double brute_force_best_ratio(std::span<const double> w,
                              std::span<const double> f) {
  const auto columns = static_cast<int>(w.size());
  const auto pe_count = static_cast<int>(f.size());
  double best = 1e300;
  std::vector<std::int64_t> b(static_cast<std::size_t>(pe_count) + 1, 0);
  b.back() = columns;
  const auto recurse = [&](auto&& self, int p, int from) -> void {
    if (p == pe_count - 1) {
      if (columns - from < 1) return;
      best = std::min(best, bottleneck_ratio(w, f, b));
      return;
    }
    for (int cut = from + 1; cut <= columns - (pe_count - p - 1); ++cut) {
      b[static_cast<std::size_t>(p) + 1] = cut;
      self(self, p + 1, cut);
    }
  };
  recurse(recurse, 0, 0);
  return best;
}

TEST(Partitioners, AllProduceValidBoundaries) {
  support::Rng rng(1);
  std::vector<double> w(64);
  for (double& x : w) x = rng.uniform(0.0, 3.0);
  const auto f = equal_targets(8);
  for (const char* name : {"greedy-scan", "rcb", "optimal-ratio"}) {
    const auto part = make_partitioner(name);
    const auto b = part->partition(w, f);
    ASSERT_EQ(b.size(), 9u) << name;
    EXPECT_EQ(b.front(), 0) << name;
    EXPECT_EQ(b.back(), 64) << name;
    for (std::size_t p = 0; p + 1 < b.size(); ++p)
      EXPECT_LT(b[p], b[p + 1]) << name;
  }
}

TEST(Partitioners, FactoryRejectsUnknownNames) {
  EXPECT_THROW((void)make_partitioner("metis"), std::invalid_argument);
  // The error names the accepted set, so CLI users see their options.
  try {
    (void)make_partitioner("metis");
    FAIL() << "expected make_partitioner to throw";
  } catch (const std::invalid_argument& e) {
    for (const std::string& name : partitioner_names())
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << name;
  }
}

TEST(Partitioners, NamesRoundTrip) {
  for (const char* name : {"greedy-scan", "rcb", "optimal-ratio"})
    EXPECT_EQ(make_partitioner(name)->name(), name);
}

TEST(Partitioners, CanonicalNamesAndAliasesResolve) {
  // Every canonical name constructs, and the short aliases map onto the
  // historical long spellings.
  for (const std::string& name : partitioner_names())
    EXPECT_NO_THROW((void)make_partitioner(name)) << name;
  EXPECT_EQ(make_partitioner("greedy")->name(),
            make_partitioner("greedy-scan")->name());
  EXPECT_EQ(make_partitioner("optimal")->name(),
            make_partitioner("optimal-ratio")->name());
  EXPECT_EQ(make_partitioner("stripe")->name(), "stripe");
}

TEST(Partitioners, EvenStripeIgnoresWeightsAndTargets) {
  support::Rng rng(23);
  std::vector<double> w(60);
  for (double& x : w) x = rng.uniform(0.0, 9.0);
  // Heavily skewed targets — the even-stripe baseline must not care.
  const std::vector<double> f{0.7, 0.1, 0.1, 0.1};
  EXPECT_EQ(EvenStripePartitioner{}.partition(w, f), even_partition(60, 4));
}

TEST(Partitioners, UniformCaseAllAgree) {
  const std::vector<double> w(100, 1.0);
  const auto f = equal_targets(4);
  const StripeBoundaries expect{0, 25, 50, 75, 100};
  EXPECT_EQ(GreedyScanPartitioner{}.partition(w, f), expect);
  EXPECT_EQ(RcbPartitioner{}.partition(w, f), expect);
  EXPECT_EQ(OptimalRatioPartitioner{}.partition(w, f), expect);
}

TEST(Partitioners, ZeroWeightsFallBackToEven) {
  const std::vector<double> w(12, 0.0);
  const auto f = equal_targets(4);
  EXPECT_EQ(GreedyScanPartitioner{}.partition(w, f), even_partition(12, 4));
  EXPECT_EQ(RcbPartitioner{}.partition(w, f), even_partition(12, 4));
  EXPECT_EQ(OptimalRatioPartitioner{}.partition(w, f),
            even_partition(12, 4));
}

TEST(BottleneckRatio, PerfectSplitIsOne) {
  const std::vector<double> w(40, 1.0);
  const auto f = equal_targets(4);
  EXPECT_NEAR(bottleneck_ratio(w, f, even_partition(40, 4)), 1.0, 1e-12);
}

TEST(BottleneckRatio, DetectsOverload) {
  const std::vector<double> w{1.0, 1.0, 1.0, 1.0};
  const auto f = equal_targets(2);
  // 3-vs-1 split: worst stripe carries 75 % against a 50 % target.
  EXPECT_NEAR(bottleneck_ratio(w, f, StripeBoundaries{0, 3, 4}), 1.5, 1e-12);
}

TEST(OptimalRatio, MatchesBruteForceOnTinyInstances) {
  support::Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const int columns = 6 + static_cast<int>(rng.index(6));
    const int pe_count = 2 + static_cast<int>(rng.index(2));
    std::vector<double> w(static_cast<std::size_t>(columns));
    for (double& x : w) x = rng.uniform(0.1, 4.0);
    const auto f = equal_targets(pe_count);
    const double brute = brute_force_best_ratio(w, f);
    const auto b = OptimalRatioPartitioner{}.partition(w, f);
    EXPECT_NEAR(bottleneck_ratio(w, f, b), brute, 1e-6 * brute)
        << "trial " << trial;
  }
}

TEST(OptimalRatio, NeverWorseThanGreedyOrRcb) {
  support::Rng rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    const int columns = 50 + static_cast<int>(rng.index(200));
    const int pe_count = 2 + static_cast<int>(rng.index(14));
    std::vector<double> w(static_cast<std::size_t>(columns));
    for (double& x : w) x = rng.uniform(0.0, 5.0);
    std::vector<double> f(static_cast<std::size_t>(pe_count));
    double fsum = 0.0;
    for (double& x : f) {
      x = rng.uniform(0.3, 1.0);
      fsum += x;
    }
    for (double& x : f) x /= fsum;

    const double r_opt =
        bottleneck_ratio(w, f, OptimalRatioPartitioner{}.partition(w, f));
    const double r_greedy =
        bottleneck_ratio(w, f, GreedyScanPartitioner{}.partition(w, f));
    const double r_rcb =
        bottleneck_ratio(w, f, RcbPartitioner{}.partition(w, f));
    EXPECT_LE(r_opt, r_greedy * (1.0 + 1e-9)) << "trial " << trial;
    EXPECT_LE(r_opt, r_rcb * (1.0 + 1e-9)) << "trial " << trial;
    EXPECT_GE(r_opt, 1.0 - 1e-9);
  }
}

TEST(OptimalRatio, HandlesMonsterColumn) {
  // One column holds half the weight: the optimum must isolate it and the
  // ratio is bounded by that column's share over its stripe's target.
  std::vector<double> w(20, 1.0);
  w[7] = 20.0;
  const auto f = equal_targets(4);
  const auto b = OptimalRatioPartitioner{}.partition(w, f);
  const double r = bottleneck_ratio(w, f, b);
  // The stripe holding column 7 carries ≥ 20/40 = 50 % against 25 %.
  EXPECT_GE(r, 2.0 - 1e-9);
  EXPECT_LE(r, 2.2);  // …and not much more than the unavoidable minimum
}

TEST(Rcb, RespectsSkewedTargets) {
  const std::vector<double> w(128, 1.0);
  const std::vector<double> f{0.5, 0.25, 0.125, 0.125};
  const auto b = RcbPartitioner{}.partition(w, f);
  const auto loads = stripe_loads(w, b);
  EXPECT_NEAR(loads[0], 64.0, 2.0);
  EXPECT_NEAR(loads[1], 32.0, 2.0);
  EXPECT_NEAR(loads[2], 16.0, 2.0);
  EXPECT_NEAR(loads[3], 16.0, 2.0);
}

TEST(Rcb, NonPowerOfTwoPeCount) {
  support::Rng rng(19);
  std::vector<double> w(90);
  for (double& x : w) x = rng.uniform(0.5, 1.5);
  for (int pe_count : {3, 5, 7, 11}) {
    const auto f = equal_targets(pe_count);
    const auto b = RcbPartitioner{}.partition(w, f);
    ASSERT_EQ(b.size(), static_cast<std::size_t>(pe_count) + 1);
    for (std::size_t p = 0; p + 1 < b.size(); ++p) EXPECT_LT(b[p], b[p + 1]);
    EXPECT_LE(bottleneck_ratio(w, f, b), 1.5);
  }
}

class PartitionerQualitySweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionerQualitySweep, AllStayWithinTwoColumnsOfTargets) {
  support::Rng rng(GetParam());
  const int columns = 100 + static_cast<int>(rng.index(400));
  const int pe_count = 2 + static_cast<int>(rng.index(30));
  std::vector<double> w(static_cast<std::size_t>(columns));
  double wmax = 0.0;
  for (double& x : w) {
    x = rng.uniform(0.0, 2.0);
    wmax = std::max(wmax, x);
  }
  const auto f = equal_targets(pe_count);
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  for (const char* name : {"greedy-scan", "optimal-ratio"}) {
    const auto b = make_partitioner(name)->partition(w, f);
    const auto loads = stripe_loads(w, b);
    for (double load : loads)
      EXPECT_LE(load, total / pe_count + 2.0 * wmax + 1e-9)
          << name << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionerQualitySweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ulba::lb
