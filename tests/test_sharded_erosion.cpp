// Partition-invariance property suite for erosion::ShardedDomain.
//
// The load-bearing claim of the sharded stepper: for EVERY (shard count,
// partitioner, thread count) combination, the trajectory is bit-identical to
// the serial unsharded ErosionDomain::step_counter — same per-column FLOP
// accounting (exact floating-point equality) and the same erosion counters,
// across mid-run rebalances. On top of that, every partitioner must produce
// a complete, disjoint disc cover at construction and after every
// rebalance.
//
// Domain configurations come from the shared randomized factory
// (tests/test_helpers.hpp), so widening the tested envelope is a one-place
// change.
#include "erosion/sharded_domain.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "erosion/domain.hpp"
#include "lb/partitioners.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_helpers.hpp"

namespace ulba::erosion {
namespace {

std::shared_ptr<const lb::Partitioner> shared_partitioner(
    const std::string& name) {
  return std::shared_ptr<const lb::Partitioner>(lb::make_partitioner(name));
}

/// Assert shard_discs/shard_of_disc form a complete, disjoint cover of all
/// discs, consistent with the stripe boundaries.
void expect_complete_disjoint_cover(const ShardedDomain& sharded) {
  const std::size_t n = sharded.domain().disc_count();
  std::vector<int> owners(n, 0);
  for (std::int64_t s = 0; s < sharded.shard_count(); ++s) {
    for (const std::size_t disc : sharded.discs_of_shard(s)) {
      ASSERT_LT(disc, n);
      ++owners[disc];
      EXPECT_EQ(sharded.shard_of_disc(disc), s);
      // The owning stripe must hold the disc's center column.
      const std::int64_t cx = sharded.domain().config().discs[disc].cx;
      EXPECT_GE(cx, sharded.boundaries()[static_cast<std::size_t>(s)]);
      EXPECT_LT(cx, sharded.boundaries()[static_cast<std::size_t>(s) + 1]);
    }
  }
  for (std::size_t disc = 0; disc < n; ++disc)
    EXPECT_EQ(owners[disc], 1) << "disc " << disc
                               << " covered by " << owners[disc] << " shards";
}

/// Bitwise comparison of the full observable state of two domains.
void expect_domains_bit_identical(const ErosionDomain& expected,
                                  const ErosionDomain& actual,
                                  const std::string& what) {
  EXPECT_EQ(expected.eroded_cells(), actual.eroded_cells()) << what;
  EXPECT_EQ(expected.rock_cells_remaining(), actual.rock_cells_remaining())
      << what;
  EXPECT_EQ(expected.frontier_size(), actual.frontier_size()) << what;
  // total_ accumulates in commit order — must match EXACTLY, not merely
  // approximately.
  EXPECT_EQ(expected.total_workload(), actual.total_workload()) << what;
  const auto w_exp = expected.column_weights();
  const auto w_act = actual.column_weights();
  ASSERT_EQ(w_exp.size(), w_act.size()) << what;
  for (std::size_t x = 0; x < w_exp.size(); ++x)
    ASSERT_EQ(w_exp[x], w_act[x]) << what << " — column " << x;
}

TEST(ShardedErosion, PartitionerCoverIsCompleteAndDisjoint) {
  support::Rng rng(2024);
  for (int trial = 0; trial < 6; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(rng);
    for (const std::string& name : lb::partitioner_names()) {
      for (std::int64_t shards = 1; shards <= 8; ++shards) {
        ShardedDomain sharded(cfg, shards, shared_partitioner(name));
        ASSERT_EQ(sharded.shard_count(), shards);
        expect_complete_disjoint_cover(sharded);
      }
    }
  }
}

/// One serial unsharded trajectory is THE trajectory — every (shard count,
/// partitioner, thread count) combination reproduces it bit for bit,
/// including across mid-run rebalances, because every draw is
/// position-addressed.
TEST(ShardedErosion, CounterPathBitIdenticalForEveryShardPartitionerPool) {
  constexpr int kSteps = 20;
  support::Rng config_rng(404);
  for (int trial = 0; trial < 3; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(trial);

    // Serial unsharded counter reference.
    ErosionDomain reference(cfg);
    for (int s = 0; s < kSteps; ++s) (void)reference.step_counter(seed, s);

    for (const std::string& name : lb::partitioner_names()) {
      for (const std::int64_t shards : {1, 2, 3, 5, 8}) {
        for (const std::size_t threads : {1u, 4u}) {
          ShardedDomain sharded(cfg, shards, shared_partitioner(name));
          std::optional<support::ThreadPool> pool;
          if (threads > 1) pool.emplace(threads);
          std::int64_t eroded_total = 0;
          for (int s = 0; s < kSteps; ++s) {
            eroded_total +=
                sharded.step_counter(seed, s, pool ? &*pool : nullptr);
            if (s % 7 == 6) {
              (void)sharded.rebalance();
              expect_complete_disjoint_cover(sharded);
            }
          }
          EXPECT_EQ(eroded_total, reference.eroded_cells());
          expect_domains_bit_identical(
              reference, sharded.domain(),
              "counter trial " + std::to_string(trial) + ", partitioner " +
                  name + ", shards " + std::to_string(shards) + ", threads " +
                  std::to_string(threads));
        }
      }
    }
  }
}

TEST(ShardedErosion, RebalanceKeepsTrajectoryAndCover) {
  support::Rng config_rng(5150);
  for (int trial = 0; trial < 4; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 42 + static_cast<std::uint64_t>(trial);

    ErosionDomain reference(cfg);
    for (int s = 0; s < 24; ++s) (void)reference.step_counter(seed, s);

    ShardedDomain sharded(cfg, 3, shared_partitioner("greedy"));
    support::ThreadPool pool(3);
    for (int s = 0; s < 24; ++s) {
      (void)sharded.step_counter(seed, s, &pool);
      if (s % 6 == 5) {
        // Re-sharding mid-run must not disturb the trajectory, and the new
        // assignment must still be a complete disjoint cover.
        const ReshardResult reshard = sharded.rebalance();
        EXPECT_EQ(reshard.boundaries.size(), 4u);
        EXPECT_GE(reshard.discs_moved, 0);
        EXPECT_GE(reshard.migration.total_bytes, 0.0);
        expect_complete_disjoint_cover(sharded);
      }
    }
    expect_domains_bit_identical(reference, sharded.domain(),
                                 "rebalance trial " + std::to_string(trial));
  }
}

TEST(ShardedErosion, ShardLoadsSumToTotalWorkload) {
  support::Rng config_rng(808);
  const DomainConfig cfg = testing::random_domain_config(config_rng);
  ShardedDomain sharded(cfg, 5, shared_partitioner("optimal"));
  for (int s = 0; s < 10; ++s) (void)sharded.step_counter(3, s);
  const auto loads = sharded.shard_loads();
  ASSERT_EQ(loads.size(), 5u);
  double sum = 0.0;
  for (const double l : loads) sum += l;
  EXPECT_NEAR(sum, sharded.domain().total_workload(),
              1e-9 * sharded.domain().total_workload());
}

TEST(ShardedErosion, RejectsDegenerateShardCounts) {
  support::Rng config_rng(99);
  const DomainConfig cfg = testing::random_domain_config(config_rng);
  EXPECT_THROW(ShardedDomain(cfg, 0, shared_partitioner("greedy")),
               std::invalid_argument);
  EXPECT_THROW(ShardedDomain(cfg, cfg.columns + 1,
                             shared_partitioner("greedy")),
               std::invalid_argument);
  EXPECT_THROW(ShardedDomain(cfg, 2, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace ulba::erosion
