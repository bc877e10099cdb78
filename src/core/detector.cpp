#include "core/detector.hpp"

#include <algorithm>

#include "support/require.hpp"
#include "support/stats.hpp"

namespace ulba::core {

OverloadDetector::OverloadDetector(double threshold) : threshold_(threshold) {
  ULBA_REQUIRE(threshold > 0.0, "z-score threshold must be positive");
}

bool OverloadDetector::is_overloading(double own_wir,
                                      std::span<const double> all) const {
  ULBA_REQUIRE(!all.empty(), "detector needs a non-empty WIR population");
  return support::z_score(own_wir, all) > threshold_;
}

std::vector<bool> OverloadDetector::flags(std::span<const double> all) const {
  // The population statistics once for all members, in the same arithmetic
  // as support::z_score, so every flag equals is_overloading bit for bit.
  std::vector<bool> out(all.size(), false);
  if (all.empty()) return out;
  const double sd = support::stddev_population(all);
  if (sd == 0.0) return out;
  const double mu = support::mean(all);
  for (std::size_t i = 0; i < all.size(); ++i)
    out[i] = (all[i] - mu) / sd > threshold_;
  return out;
}

std::int64_t OverloadDetector::count_overloading(
    std::span<const double> all) const {
  const std::vector<bool> f = flags(all);
  return static_cast<std::int64_t>(std::count(f.begin(), f.end(), true));
}

}  // namespace ulba::core
