#include "core/wir_database.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/require.hpp"

namespace ulba::core {

WirDatabase::WirDatabase(std::int64_t pe_count)
    : wirs_(static_cast<std::size_t>(std::max<std::int64_t>(pe_count, 0)),
            0.0),
      stamps_(wirs_.size(), static_cast<std::int32_t>(kUnknown)) {
  ULBA_REQUIRE(pe_count >= 1, "database needs at least one PE");
}

void WirDatabase::update(std::int64_t pe, double wir, std::int64_t iteration) {
  ULBA_REQUIRE(pe >= 0 && pe < pe_count(), "PE index out of range");
  ULBA_REQUIRE(iteration >= 0, "iteration stamp must be non-negative");
  ULBA_REQUIRE(iteration <= std::numeric_limits<std::int32_t>::max(),
               "iteration stamp must fit in 32 bits");
  const auto i = static_cast<std::size_t>(pe);
  if (iteration >= stamps_[i]) {
    wirs_[i] = wir;
    stamps_[i] = static_cast<std::int32_t>(iteration);
  }
}

WirDatabase::Entry WirDatabase::entry(std::int64_t pe) const {
  ULBA_REQUIRE(pe >= 0 && pe < pe_count(), "PE index out of range");
  const auto i = static_cast<std::size_t>(pe);
  return {wirs_[i], stamps_[i]};
}

std::size_t WirDatabase::merge_from(const WirDatabase& other) {
  ULBA_REQUIRE(other.pe_count() == pe_count(),
               "databases must describe the same PE set");
  // Branch-free select on the bit patterns: which entries are fresher is
  // data-dependent (about half of them mid-run), so a branch mispredicts
  // constantly, and the mask form lets the compiler vectorize the loop.
  std::size_t adopted = 0;
  const std::size_t n = stamps_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t theirs = other.stamps_[i];
    const std::int32_t ours = stamps_[i];
    const std::uint64_t take = -static_cast<std::uint64_t>(theirs > ours);
    const std::uint64_t bits =
        (std::bit_cast<std::uint64_t>(other.wirs_[i]) & take) |
        (std::bit_cast<std::uint64_t>(wirs_[i]) & ~take);
    wirs_[i] = std::bit_cast<double>(bits);
    stamps_[i] = std::max(theirs, ours);
    adopted += take & 1U;
  }
  return adopted;
}

std::int64_t WirDatabase::unknown_count() const noexcept {
  return static_cast<std::int64_t>(
      std::count(stamps_.begin(), stamps_.end(), kUnknown));
}

std::int64_t WirDatabase::max_staleness(std::int64_t now) const noexcept {
  std::int64_t worst = 0;
  for (const std::int32_t stamp : stamps_) {
    const std::int64_t age = stamp != kUnknown ? now - stamp : now + 1;
    worst = std::max(worst, age);
  }
  return worst;
}

}  // namespace ulba::core
