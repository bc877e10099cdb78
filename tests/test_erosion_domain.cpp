// The erosion workload: disc construction, frontier dynamics, workload
// accounting, and determinism.
#include "erosion/domain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "test_helpers.hpp"

namespace ulba::erosion {
namespace {

/// Steps one domain through consecutive iterations of one counter stream.
struct Stepper {
  ErosionDomain& dom;
  std::uint64_t seed;
  std::int64_t iteration = 0;
  std::int64_t operator()() { return dom.step_counter(seed, iteration++); }
};

DomainConfig small_config(double prob = 0.4) {
  DomainConfig c;
  c.columns = 100;
  c.rows = 60;
  c.flop_per_cell = 52.0;
  c.bytes_per_cell = 64.0;
  RockDisc d;
  d.cx = 50;
  d.cy = 30;
  d.radius = 10;
  d.erosion_prob = prob;
  c.discs = {d};
  return c;
}

TEST(DomainConfig, ValidationCatchesBadDiscs) {
  DomainConfig c = small_config();
  c.discs[0].cx = 5;  // radius 10 disc at x = 5 leaves the domain
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.discs[0].erosion_prob = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.discs.push_back(c.discs[0]);  // two identical discs overlap
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.refinement_factor = 0.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Domain, InitialRockCountMatchesDiscArea) {
  const ErosionDomain dom(small_config());
  // |{(x,y): x²+y² ≤ r²}| ≈ πr²; exact for r = 10 is 317.
  EXPECT_EQ(dom.rock_cells_remaining(), 317);
  EXPECT_EQ(dom.eroded_cells(), 0);
}

TEST(Domain, InitialWorkloadIsFluidCellsTimesCost) {
  const DomainConfig c = small_config();
  const ErosionDomain dom(c);
  const double expected =
      52.0 * (static_cast<double>(c.columns * c.rows) - 317.0);
  EXPECT_NEAR(dom.total_workload(), expected, 1e-6);
  // Column weights sum to the same total.
  const auto w = dom.column_weights();
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  EXPECT_NEAR(sum, expected, 1e-6);
}

TEST(Domain, ColumnsOutsideTheDiscAreFullFluid) {
  const ErosionDomain dom(small_config());
  const auto w = dom.column_weights();
  EXPECT_DOUBLE_EQ(w[0], 52.0 * 60.0);
  EXPECT_DOUBLE_EQ(w[99], 52.0 * 60.0);
  // The disc's central column carries 21 rock cells (y ∈ [20, 40]).
  EXPECT_DOUBLE_EQ(w[50], 52.0 * (60.0 - 21.0));
}

TEST(Domain, FrontierStartsOnTheRim) {
  const ErosionDomain dom(small_config());
  const auto frontier = dom.frontier_size();
  // The rim of a radius-10 disc has ≈ 2πr ≈ 63 boundary cells; the discrete
  // count is within a small band.
  EXPECT_GE(frontier, 36);
  EXPECT_LE(frontier, 80);
}

TEST(Domain, ZeroProbabilityNeverErodes) {
  ErosionDomain dom(small_config(0.0));
  Stepper step{dom, 1};
  for (int i = 0; i < 20; ++i) EXPECT_EQ(step(), 0);
  EXPECT_EQ(dom.rock_cells_remaining(), 317);
}

TEST(Domain, ProbabilityOneErodesWholeFrontierEachStep) {
  ErosionDomain dom(small_config(1.0));
  Stepper step{dom, 2};
  const auto frontier_before = dom.frontier_size();
  const auto eroded = step();
  EXPECT_EQ(eroded, frontier_before);
}

TEST(Domain, ProbabilityOneEventuallyErodesEverything) {
  ErosionDomain dom(small_config(1.0));
  Stepper step{dom, 3};
  // A radius-10 disc erodes layer by layer: ≤ r + a few steps.
  for (int i = 0; i < 20 && dom.rock_cells_remaining() > 0; ++i)
    (void)step();
  EXPECT_EQ(dom.rock_cells_remaining(), 0);
  EXPECT_EQ(dom.eroded_cells(), 317);
  EXPECT_EQ(dom.frontier_size(), 0);
  // Further steps are harmless no-ops.
  EXPECT_EQ(step(), 0);
}

TEST(Domain, WorkloadGrowsByRefinementFactorPerErodedCell) {
  const DomainConfig c = small_config(0.4);
  ErosionDomain dom(c);
  const double w0 = dom.total_workload();
  Stepper step{dom, 4};
  const auto eroded = step();
  ASSERT_GT(eroded, 0);
  EXPECT_NEAR(dom.total_workload(),
              w0 + static_cast<double>(eroded) * 4.0 * 52.0, 1e-6);
}

TEST(Domain, RockPlusErodedIsConserved) {
  ErosionDomain dom(small_config(0.3));
  Stepper step{dom, 5};
  for (int i = 0; i < 15; ++i) (void)step();
  EXPECT_EQ(dom.rock_cells_remaining() + dom.eroded_cells(), 317);
}

TEST(Domain, ErosionIsMonotone) {
  ErosionDomain dom(small_config(0.2));
  Stepper step{dom, 6};
  std::int64_t prev_rock = dom.rock_cells_remaining();
  for (int i = 0; i < 25; ++i) {
    (void)step();
    EXPECT_LE(dom.rock_cells_remaining(), prev_rock);
    prev_rock = dom.rock_cells_remaining();
  }
}

TEST(Domain, DeterministicForFixedSeed) {
  const auto run = [](std::uint64_t seed) {
    ErosionDomain dom(small_config(0.4));
    Stepper step{dom, seed};
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 10; ++i) trace.push_back(step());
    return trace;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Domain, StrongDiscErodesFasterThanWeak) {
  DomainConfig c;
  c.columns = 200;
  c.rows = 60;
  RockDisc weak{50, 30, 10, 0.02};
  RockDisc strong{150, 30, 10, 0.4};
  c.discs = {weak, strong};
  ErosionDomain dom(c);
  Stepper step{dom, 7};
  for (int i = 0; i < 10; ++i) (void)step();
  EXPECT_GT(dom.disc_rock_remaining(0), dom.disc_rock_remaining(1));
}

TEST(Domain, ColumnBytesProportionalToWeights) {
  const DomainConfig c = small_config();
  ErosionDomain dom(c);
  Stepper step{dom, 8};
  (void)step();
  const auto w = dom.column_weights();
  const auto b = dom.column_bytes();
  ASSERT_EQ(w.size(), b.size());
  for (std::size_t x = 0; x < w.size(); ++x)
    EXPECT_NEAR(b[x], w[x] * 64.0 / 52.0, 1e-9);
}

TEST(Domain, MultipleDiscsErodeIndependently) {
  DomainConfig c;
  c.columns = 300;
  c.rows = 60;
  c.discs = {RockDisc{50, 30, 10, 1.0}, RockDisc{150, 30, 10, 0.0},
             RockDisc{250, 30, 10, 1.0}};
  ErosionDomain dom(c);
  Stepper step{dom, 9};
  for (int i = 0; i < 15; ++i) (void)step();
  EXPECT_EQ(dom.disc_rock_remaining(0), 0);
  EXPECT_EQ(dom.disc_rock_remaining(1), 317);
  EXPECT_EQ(dom.disc_rock_remaining(2), 0);
}

TEST(Domain, ErodedColumnGainsWeightLocally) {
  ErosionDomain dom(small_config(1.0));
  Stepper step{dom, 10};
  const std::vector<double> before(dom.column_weights().begin(),
                                   dom.column_weights().end());
  (void)step();
  const auto after = dom.column_weights();
  // The leftmost disc column (x = 40) held exactly the rim cell, which has
  // now refined: weight increased there; far-away columns are untouched.
  EXPECT_GT(after[40], before[40]);
  EXPECT_DOUBLE_EQ(after[10], before[10]);
}

/// Reference rasterizer, cell by cell: a cell is rock when its squared
/// distance (in doubles) is within r^2, and rock with an outside
/// 4-neighbour is frontier, listed in raster order.
struct ReferenceRaster {
  std::vector<Cell> cells;
  std::vector<std::int32_t> frontier;
  std::int64_t rock = 0;
};

ReferenceRaster reference_raster(std::int64_t radius) {
  const std::int64_t side = 2 * radius + 1;
  ReferenceRaster ref;
  ref.cells.assign(static_cast<std::size_t>(side * side), Cell::kOutside);
  const auto r2 = static_cast<double>(radius) * static_cast<double>(radius);
  for (std::int64_t ly = 0; ly < side; ++ly)
    for (std::int64_t lx = 0; lx < side; ++lx) {
      const auto dx = static_cast<double>(lx - radius);
      const auto dy = static_cast<double>(ly - radius);
      if (dx * dx + dy * dy <= r2) {
        ref.cells[static_cast<std::size_t>(ly * side + lx)] =
            Cell::kRockInterior;
        ++ref.rock;
      }
    }
  const auto outside = [&](std::int64_t lx, std::int64_t ly) {
    return lx < 0 || ly < 0 || lx >= side || ly >= side ||
           ref.cells[static_cast<std::size_t>(ly * side + lx)] ==
               Cell::kOutside;
  };
  for (std::int64_t ly = 0; ly < side; ++ly)
    for (std::int64_t lx = 0; lx < side; ++lx) {
      const auto idx = static_cast<std::size_t>(ly * side + lx);
      if (ref.cells[idx] != Cell::kRockInterior) continue;
      if (outside(lx - 1, ly) || outside(lx + 1, ly) || outside(lx, ly - 1) ||
          outside(lx, ly + 1)) {
        ref.cells[idx] = Cell::kRockFrontier;
        ref.frontier.push_back(static_cast<std::int32_t>(idx));
      }
    }
  return ref;
}

TEST(DiscRaster, RowSpansMatchTheDistanceTest) {
  for (std::int64_t radius = 1; radius <= 300; ++radius) {
    const DiscState d = build_disc_state({radius + 1, radius + 1, radius, 0.3});
    const ReferenceRaster ref = reference_raster(radius);
    ASSERT_EQ(d.cells.size(), ref.cells.size()) << "radius " << radius;
    for (std::size_t idx = 0; idx < ref.cells.size(); ++idx)
      ASSERT_EQ(d.state(idx), ref.cells[idx])
          << "radius " << radius << ", cell " << idx;
    ASSERT_EQ(d.frontier, ref.frontier) << "radius " << radius;
    ASSERT_EQ(d.rock_remaining, ref.rock) << "radius " << radius;
    ASSERT_EQ(testing::trial_count_mismatches(d), 0) << "radius " << radius;
  }
}

}  // namespace
}  // namespace ulba::erosion
