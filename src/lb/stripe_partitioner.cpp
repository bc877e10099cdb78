#include "lb/stripe_partitioner.hpp"

#include <algorithm>
#include <numeric>

#include "support/require.hpp"

namespace ulba::lb {

StripeBoundaries even_partition(std::int64_t columns, std::int64_t pe_count) {
  ULBA_REQUIRE(pe_count >= 1, "need at least one PE");
  ULBA_REQUIRE(columns >= pe_count, "need at least one column per PE");
  StripeBoundaries b(static_cast<std::size_t>(pe_count) + 1);
  for (std::int64_t p = 0; p <= pe_count; ++p)
    b[static_cast<std::size_t>(p)] = p * columns / pe_count;
  return b;
}

std::vector<double> stripe_loads(std::span<const double> column_weights,
                                 const StripeBoundaries& b) {
  ULBA_REQUIRE(b.size() >= 2, "boundaries must describe at least one stripe");
  ULBA_REQUIRE(b.front() == 0 && b.back() == static_cast<std::int64_t>(
                                                 column_weights.size()),
               "boundaries must span the whole column range");
  std::vector<double> loads(b.size() - 1, 0.0);
  for (std::size_t p = 0; p + 1 < b.size(); ++p) {
    ULBA_REQUIRE(b[p] < b[p + 1], "stripes must be non-empty and ordered");
    for (std::int64_t x = b[p]; x < b[p + 1]; ++x)
      loads[p] += column_weights[static_cast<std::size_t>(x)];
  }
  return loads;
}

double load_imbalance(std::span<const double> column_weights,
                      const StripeBoundaries& b) {
  const auto loads = stripe_loads(column_weights, b);
  const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
  if (total <= 0.0) return 1.0;
  const double avg = total / static_cast<double>(loads.size());
  const double max = *std::max_element(loads.begin(), loads.end());
  return max / avg;
}

}  // namespace ulba::lb
