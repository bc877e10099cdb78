// Sharded erosion domain — the in-process ownership layer of the erosion
// workload.
//
// The discs of one ErosionDomain are split across K shards by any pluggable
// lb::Partitioner: the partitioner cuts the per-column workload into K
// stripes (even targets), and a disc belongs to the shard whose stripe holds
// its center column.
//
// Stepping delegates to ErosionDomain::step_counter. Its draws are
// addressed by (disc, iteration, cell), so the shard assignment cannot
// influence the trajectory at all: a sharded step is BIT-identical to the
// unsharded one for every (shard count, partitioner, thread count)
// combination — locked by tests/test_sharded_erosion.cpp. What sharding
// adds is the re-shard accounting: `rebalance()` recuts against the CURRENT
// weights and exchanges disc ownership (the boundary workload deltas),
// reporting the migration volume the move would cost on a real machine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "erosion/domain.hpp"
#include "lb/migration.hpp"
#include "lb/partitioners.hpp"
#include "lb/stripe_partitioner.hpp"
#include "support/thread_pool.hpp"

namespace ulba::erosion {

/// Outcome of one re-sharding step (the boundary-delta exchange).
struct ReshardResult {
  lb::StripeBoundaries boundaries;  ///< the new shard → column-range map
  std::int64_t discs_moved = 0;     ///< discs that changed shard ownership
  lb::MigrationVolume migration;    ///< bytes the move costs (per shard/max)
};

class ShardedDomain {
 public:
  /// Shard `config`'s discs into `shard_count` stripes cut by `partitioner`
  /// (shared so several domains can reuse one). `shard_count` must lie in
  /// [1, columns]; the initial cut is taken against the initial weights.
  ShardedDomain(DomainConfig config, std::int64_t shard_count,
                std::shared_ptr<const lb::Partitioner> partitioner);

  /// One erosion iteration — delegates to ErosionDomain::step_counter, so
  /// the result is bit-identical to the unsharded stepper for every (shard
  /// count, partitioner, pool size).
  std::int64_t step_counter(std::uint64_t seed, std::int64_t iteration,
                            support::ThreadPool* pool = nullptr);

  /// Recut the shard stripes against the current column weights (even
  /// targets) and exchange disc ownership accordingly. The stepping
  /// trajectory is unaffected — only the reported migration volume
  /// changes.
  ReshardResult rebalance();

  /// The underlying domain (weights, totals, erosion observers).
  [[nodiscard]] const ErosionDomain& domain() const noexcept {
    return domain_;
  }

  [[nodiscard]] std::int64_t shard_count() const noexcept {
    return static_cast<std::int64_t>(shard_discs_.size());
  }
  [[nodiscard]] const lb::Partitioner& partitioner() const noexcept {
    return *partitioner_;
  }
  /// Current shard → column-range boundaries (size shard_count + 1).
  [[nodiscard]] const lb::StripeBoundaries& boundaries() const noexcept {
    return boundaries_;
  }
  /// Global disc indices owned by `shard`, ascending.
  [[nodiscard]] std::span<const std::size_t> discs_of_shard(
      std::int64_t shard) const;
  /// The shard owning disc `disc`.
  [[nodiscard]] std::int64_t shard_of_disc(std::size_t disc) const;
  /// Summed column weight per shard.
  [[nodiscard]] std::vector<double> shard_loads() const;

 private:
  /// Recompute shard_discs_/disc_shard_ from boundaries_.
  void assign_discs();

  ErosionDomain domain_;
  std::shared_ptr<const lb::Partitioner> partitioner_;
  lb::StripeBoundaries boundaries_;
  std::vector<std::vector<std::size_t>> shard_discs_;
  std::vector<std::int64_t> disc_shard_;
};

}  // namespace ulba::erosion
