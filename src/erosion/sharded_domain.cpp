#include "erosion/sharded_domain.hpp"

#include <algorithm>
#include <utility>

#include "support/require.hpp"

namespace ulba::erosion {

ShardedDomain::ShardedDomain(
    DomainConfig config, std::int64_t shard_count,
    std::shared_ptr<const lb::Partitioner> partitioner)
    : domain_(std::move(config)), partitioner_(std::move(partitioner)) {
  ULBA_REQUIRE(partitioner_ != nullptr, "sharding needs a partitioner");
  ULBA_REQUIRE(shard_count >= 1 && shard_count <= domain_.columns(),
               "shard count must lie in [1, columns]");
  const std::vector<double> targets(
      static_cast<std::size_t>(shard_count),
      1.0 / static_cast<double>(shard_count));
  boundaries_ = partitioner_->partition(domain_.column_weights(), targets);
  shard_discs_.resize(static_cast<std::size_t>(shard_count));
  disc_shard_.assign(domain_.disc_count(), 0);
  assign_discs();
}

void ShardedDomain::assign_discs() {
  for (auto& discs : shard_discs_) discs.clear();
  // A disc belongs to the shard whose stripe holds its center column; discs
  // are strictly interior, so the center always falls into exactly one
  // stripe. Discs are listed per shard in ascending order.
  for (std::size_t i = 0; i < domain_.disc_count(); ++i) {
    const std::int64_t cx = domain_.config().discs[i].cx;
    const auto it =
        std::upper_bound(boundaries_.begin(), boundaries_.end(), cx);
    const auto shard = static_cast<std::size_t>(
        std::distance(boundaries_.begin(), it) - 1);
    ULBA_CHECK(shard < shard_discs_.size(),
               "disc center outside every shard stripe");
    shard_discs_[shard].push_back(i);
    disc_shard_[i] = static_cast<std::int64_t>(shard);
  }
}

std::span<const std::size_t> ShardedDomain::discs_of_shard(
    std::int64_t shard) const {
  ULBA_REQUIRE(shard >= 0 && shard < shard_count(), "shard index out of range");
  return shard_discs_[static_cast<std::size_t>(shard)];
}

std::int64_t ShardedDomain::shard_of_disc(std::size_t disc) const {
  ULBA_REQUIRE(disc < disc_shard_.size(), "disc index out of range");
  return disc_shard_[disc];
}

std::vector<double> ShardedDomain::shard_loads() const {
  return lb::stripe_loads(domain_.column_weights(), boundaries_);
}

std::int64_t ShardedDomain::step_counter(std::uint64_t seed,
                                         std::int64_t iteration,
                                         support::ThreadPool* pool) {
  return domain_.step_counter(seed, iteration, pool);
}

ReshardResult ShardedDomain::rebalance() {
  const std::vector<double> targets(
      static_cast<std::size_t>(shard_count()),
      1.0 / static_cast<double>(shard_count()));
  const lb::StripeBoundaries before = boundaries_;
  const std::vector<std::int64_t> owners = disc_shard_;

  boundaries_ = partitioner_->partition(domain_.column_weights(), targets);
  assign_discs();

  ReshardResult result;
  result.boundaries = boundaries_;
  result.migration =
      lb::migration_volume(before, boundaries_, domain_.column_bytes());
  for (std::size_t i = 0; i < disc_shard_.size(); ++i)
    if (disc_shard_[i] != owners[i]) ++result.discs_moved;
  return result;
}

}  // namespace ulba::erosion
