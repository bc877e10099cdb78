#include "core/gossip.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/require.hpp"

namespace ulba::core {

namespace {

constexpr auto kUnknownStamp =
    static_cast<std::int32_t>(WirDatabase::kUnknown);

/// Checks an observation's PE index and stamp; returns the stamp as stored.
std::int32_t checked_stamp(std::int64_t pe, std::int64_t pe_count,
                           std::int64_t iteration) {
  ULBA_REQUIRE(pe >= 0 && pe < pe_count, "PE index out of range");
  ULBA_REQUIRE(iteration >= 0, "iteration stamp must be non-negative");
  ULBA_REQUIRE(iteration <= std::numeric_limits<std::int32_t>::max(),
               "iteration stamp must fit in 32 bits");
  return static_cast<std::int32_t>(iteration);
}

/// Orders a sorted observation log against a stamp, for std::lower_bound.
constexpr auto by_stamp = [](const auto& observation, std::int32_t stamp) {
  return observation.stamp < stamp;
};

/// Elementwise max of two stamp rows: the epidemic merge. A plain loop —
/// the compiler vectorizes it with baseline SSE2.
void merge_max(std::int32_t* into, const std::int32_t* from, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) into[i] = std::max(into[i], from[i]);
}

}  // namespace

GossipNetwork::GossipNetwork(std::int64_t pe_count, std::int64_t fanout)
    : pe_count_(pe_count), fanout_(fanout) {
  ULBA_REQUIRE(pe_count >= 2, "gossip needs at least two PEs");
  ULBA_REQUIRE(fanout >= 1 && fanout < pe_count,
               "fanout must lie in [1, pe_count)");
  const auto n = static_cast<std::size_t>(pe_count);
  stamps_.assign(n * n, kUnknownStamp);
  logs_.resize(n);
  recent_.assign(n * kRecent, Observation{kUnknownStamp, 0.0});
  saved_at_.assign(n, kNotSaved);
  free_rows_.reserve(n);
  floor_.resize(n);
}

WirDatabase GossipNetwork::database(std::int64_t pe) const {
  ULBA_REQUIRE(pe >= 0 && pe < pe_count_, "PE index out of range");
  const auto n = static_cast<std::size_t>(pe_count_);
  const std::int32_t* stamps = row(static_cast<std::size_t>(pe));
  WirDatabase db(pe_count_);
  double* wirs = db.wirs_.data();
  const Observation* recent = recent_.data();
  for (std::size_t src = 0; src < n; ++src, recent += kRecent) {
    const std::int32_t stamp = stamps[src];
    if (stamp == kUnknownStamp) continue;
    const Observation& cached =
        recent[static_cast<std::size_t>(stamp) % kRecent];
    wirs[src] = cached.stamp == stamp ? cached.wir : logged_wir(src, stamp);
  }
  std::copy_n(stamps, n, db.stamps_.begin());
  return db;
}

void GossipNetwork::observe_local(std::int64_t pe, double wir,
                                  std::int64_t iteration) {
  const std::int32_t stamp = checked_stamp(pe, pe_count_, iteration);
  const auto i = static_cast<std::size_t>(pe);
  std::int32_t& held = row(i)[i];
  if (stamp < held) return;
  record(i, stamp, wir);
  held = stamp;
}

void GossipNetwork::observe_oracle(std::int64_t pe, double wir,
                                   std::int64_t iteration) {
  const std::int32_t stamp = checked_stamp(pe, pe_count_, iteration);
  const auto n = static_cast<std::size_t>(pe_count_);
  const auto i = static_cast<std::size_t>(pe);
  bool taken = false;
  for (std::size_t q = 0; q < n && !taken; ++q) taken = row(q)[i] <= stamp;
  if (!taken) return;
  record(i, stamp, wir);
  // Every row now holds a stamp for pe, so the oldest of them bounds what
  // pe's log must keep.
  auto oldest = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t q = 0; q < n; ++q) {
    std::int32_t& held = row(q)[i];
    held = std::max(held, stamp);
    oldest = std::min(oldest, static_cast<std::uint32_t>(held));
  }
  drop_before(i, oldest);
}

void GossipNetwork::step(support::Rng& rng) {
  const auto n = static_cast<std::size_t>(pe_count_);
  for (std::size_t src = 0; src < n; ++src) {
    // `fanout` distinct targets other than src: sample from n−1 slots and
    // skip over src.
    const auto picks = rng.sample_without_replacement(
        n - 1, static_cast<std::size_t>(fanout_));
    for (const std::size_t slot : picks) {
      const std::size_t dst = slot >= src ? slot + 1 : slot;
      if (dst > src && saved_at_[dst] == kNotSaved) save_row(dst);
      merge_max(row(dst), pushed_row(src), n);
    }
    if (saved_at_[src] != kNotSaved) {
      free_rows_.push_back(saved_at_[src]);
      saved_at_[src] = kNotSaved;
    }
  }
  if (++rounds_ % kReclaimPeriod == 0) reclaim();
}

std::int64_t GossipNetwork::rounds_to_full_knowledge(support::Rng rng) const {
  GossipNetwork copy = *this;
  const auto fully_known = [&copy]() {
    return std::find(copy.stamps_.begin(), copy.stamps_.end(),
                     kUnknownStamp) == copy.stamps_.end();
  };
  std::int64_t rounds = 0;
  // 4·P rounds is far beyond the O(log P) expectation; reaching it means the
  // caller seeded a network where some PE never observed anything locally.
  const std::int64_t limit = 4 * copy.pe_count();
  while (!fully_known()) {
    ULBA_REQUIRE(rounds < limit,
                 "gossip cannot converge: some PE has no local observation");
    copy.step(rng);
    ++rounds;
  }
  return rounds;
}

std::size_t GossipNetwork::retained_observations() const noexcept {
  std::size_t total = 0;
  for (const std::vector<Observation>& log : logs_) total += log.size();
  return total;
}

double GossipNetwork::logged_wir(std::size_t pe,
                                 std::int32_t stamp) const noexcept {
  const std::vector<Observation>& log = logs_[pe];
  return std::lower_bound(log.begin(), log.end(), stamp, by_stamp)->wir;
}

void GossipNetwork::record(std::size_t pe, std::int32_t stamp, double wir) {
  std::vector<Observation>& log = logs_[pe];
  const auto at = std::lower_bound(log.begin(), log.end(), stamp, by_stamp);
  if (at == log.end() || at->stamp != stamp) {
    log.insert(at, Observation{stamp, wir});
    Observation& cached =
        recent_[pe * kRecent + static_cast<std::size_t>(stamp) % kRecent];
    if (cached.stamp <= stamp) cached = Observation{stamp, wir};
    return;
  }
  ULBA_REQUIRE(std::bit_cast<std::uint64_t>(at->wir) ==
                   std::bit_cast<std::uint64_t>(wir),
               "a (PE, iteration) pair has one WIR: conflicting "
               "re-observation");
}

const std::int32_t* GossipNetwork::pushed_row(std::size_t pe) const noexcept {
  const std::size_t at = saved_at_[pe];
  return at == kNotSaved ? row(pe) : spare_.data() + at;
}

void GossipNetwork::save_row(std::size_t pe) {
  const auto n = static_cast<std::size_t>(pe_count_);
  if (free_rows_.empty()) {
    free_rows_.push_back(spare_.size());
    spare_.resize(spare_.size() + n);
  }
  const std::size_t at = free_rows_.back();
  free_rows_.pop_back();
  std::copy_n(row(pe), n, spare_.begin() + static_cast<std::ptrdiff_t>(at));
  saved_at_[pe] = at;
}

void GossipNetwork::drop_before(std::size_t pe, std::uint32_t oldest) {
  std::vector<Observation>& log = logs_[pe];
  const auto keep =
      std::find_if(log.begin(), log.end(), [oldest](const Observation& o) {
        return static_cast<std::uint32_t>(o.stamp) >= oldest;
      });
  log.erase(log.begin(), keep);
}

void GossipNetwork::reclaim() {
  // Read as unsigned, the unknown stamp (−1) is the largest value, so a
  // database that has not heard of a PE never lowers that PE's floor;
  // real stamps are non-negative, so their order is unchanged.
  const auto n = static_cast<std::size_t>(pe_count_);
  std::fill(floor_.begin(), floor_.end(),
            std::numeric_limits<std::uint32_t>::max());
  for (std::size_t q = 0; q < n; ++q) {
    const std::int32_t* stamps = row(q);
    for (std::size_t src = 0; src < n; ++src)
      floor_[src] =
          std::min(floor_[src], static_cast<std::uint32_t>(stamps[src]));
  }
  for (std::size_t src = 0; src < n; ++src) drop_before(src, floor_[src]);
}

}  // namespace ulba::core
