#include "lb/partitioners.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "support/require.hpp"

namespace ulba::lb {

namespace {

void check_inputs(std::span<const double> column_weights,
                  std::span<const double> target_fractions) {
  const auto columns = static_cast<std::int64_t>(column_weights.size());
  const auto pe_count = static_cast<std::int64_t>(target_fractions.size());
  ULBA_REQUIRE(pe_count >= 1, "need at least one PE");
  ULBA_REQUIRE(columns >= pe_count, "need at least one column per PE");
  double fsum = 0.0;
  for (double f : target_fractions) {
    ULBA_REQUIRE(f > 0.0, "target fractions must be positive");
    fsum += f;
  }
  ULBA_REQUIRE(std::abs(fsum - 1.0) < 1e-6, "target fractions must sum to 1");
  for (double w : column_weights)
    ULBA_REQUIRE(w >= 0.0, "column weights must be non-negative");
}

/// Prefix sums of the column weights: prefix[x] = Σ_{c<x} w_c.
std::vector<double> prefix_sums(std::span<const double> w) {
  std::vector<double> prefix(w.size() + 1, 0.0);
  for (std::size_t x = 0; x < w.size(); ++x) prefix[x + 1] = prefix[x] + w[x];
  return prefix;
}

/// Cut position in [lo_cut, hi_cut] whose prefix mass best matches `target`
/// (prefix is globally non-decreasing ⇒ binary search + local compare).
std::int64_t best_cut(const std::vector<double>& prefix, double target,
                      std::int64_t lo_cut, std::int64_t hi_cut) {
  const auto begin = prefix.begin() + lo_cut;
  const auto end = prefix.begin() + hi_cut + 1;
  auto it = std::lower_bound(begin, end, target);
  if (it == end) return hi_cut;
  std::int64_t cut = it - prefix.begin();
  if (cut > lo_cut &&
      target - prefix[static_cast<std::size_t>(cut - 1)] <
          prefix[static_cast<std::size_t>(cut)] - target)
    --cut;
  return std::clamp(cut, lo_cut, hi_cut);
}

/// RCB recursion over PE range [p_lo, p_hi) and column range [c_lo, c_hi).
void rcb_recurse(const std::vector<double>& prefix,
                 std::span<const double> fractions, std::int64_t p_lo,
                 std::int64_t p_hi, std::int64_t c_lo, std::int64_t c_hi,
                 StripeBoundaries& out) {
  const std::int64_t pes = p_hi - p_lo;
  if (pes == 1) {
    out[static_cast<std::size_t>(p_lo)] = c_lo;
    out[static_cast<std::size_t>(p_hi)] = c_hi;
    return;
  }
  const std::int64_t p_mid = p_lo + pes / 2;
  double left_frac = 0.0, all_frac = 0.0;
  for (std::int64_t p = p_lo; p < p_hi; ++p) {
    all_frac += fractions[static_cast<std::size_t>(p)];
    if (p < p_mid) left_frac += fractions[static_cast<std::size_t>(p)];
  }
  const double mass = prefix[static_cast<std::size_t>(c_hi)] -
                      prefix[static_cast<std::size_t>(c_lo)];
  const double target = prefix[static_cast<std::size_t>(c_lo)] +
                        mass * (all_frac > 0.0 ? left_frac / all_frac : 0.5);
  // Leave at least one column per PE on each side.
  const std::int64_t lo_cut = c_lo + (p_mid - p_lo);
  const std::int64_t hi_cut = c_hi - (p_hi - p_mid);
  const std::int64_t cut = best_cut(prefix, target, lo_cut, hi_cut);
  rcb_recurse(prefix, fractions, p_lo, p_mid, c_lo, cut, out);
  rcb_recurse(prefix, fractions, p_mid, p_hi, cut, c_hi, out);
}

/// Greedy feasibility test for the parametric search: can the columns be
/// split into contiguous stripes with load_p ≤ ratio · target_p · total and
/// one column minimum per stripe? Fills `out` when feasible.
bool feasible(std::span<const double> w, const std::vector<double>& prefix,
              std::span<const double> fractions, double ratio,
              StripeBoundaries& out) {
  const auto columns = static_cast<std::int64_t>(w.size());
  const auto pe_count = static_cast<std::int64_t>(fractions.size());
  const double total = prefix.back();
  out.assign(static_cast<std::size_t>(pe_count) + 1, 0);
  out.back() = columns;

  std::int64_t cut = 0;
  for (std::int64_t p = 0; p + 1 < pe_count; ++p) {
    const double cap =
        ratio * fractions[static_cast<std::size_t>(p)] * total;
    const double limit = prefix[static_cast<std::size_t>(cut)] + cap;
    // Furthest cut with prefix ≤ limit (greedy: take as much as allowed).
    const std::int64_t max_cut = columns - (pe_count - p - 1);
    auto it = std::upper_bound(prefix.begin() + cut + 1,
                               prefix.begin() + max_cut + 1,
                               limit + 1e-12 * std::max(1.0, limit));
    std::int64_t next = (it - prefix.begin()) - 1;
    if (next <= cut) {
      // Must take at least one column even if it busts the cap — but then
      // this ratio is infeasible unless that single column fits.
      next = cut + 1;
      if (prefix[static_cast<std::size_t>(next)] -
              prefix[static_cast<std::size_t>(cut)] >
          cap + 1e-12 * std::max(1.0, cap))
        return false;
    }
    cut = next;
    out[static_cast<std::size_t>(p) + 1] = cut;
  }
  // Last stripe takes the rest; check its cap.
  const double last_cap =
      ratio * fractions[static_cast<std::size_t>(pe_count - 1)] * total;
  const double last_load = total - prefix[static_cast<std::size_t>(cut)];
  return last_load <= last_cap + 1e-12 * std::max(1.0, last_cap);
}

}  // namespace

StripeBoundaries GreedyScanPartitioner::partition(
    std::span<const double> column_weights,
    std::span<const double> target_fractions) const {
  check_inputs(column_weights, target_fractions);
  const auto columns = static_cast<std::int64_t>(column_weights.size());
  const auto pe_count = static_cast<std::int64_t>(target_fractions.size());
  const double total =
      std::accumulate(column_weights.begin(), column_weights.end(), 0.0);
  if (total <= 0.0) return even_partition(columns, pe_count);

  StripeBoundaries b(static_cast<std::size_t>(pe_count) + 1, 0);
  b.back() = columns;

  double cum_target = 0.0;   // cumulative target weight up to cut p
  double cum_weight = 0.0;   // weight of columns [0, cut)
  std::int64_t cut = 0;
  for (std::int64_t p = 0; p + 1 < pe_count; ++p) {
    cum_target += target_fractions[static_cast<std::size_t>(p)] * total;
    // Advance while adding the next column keeps us at or closer to target.
    // Leave enough columns for the pe_count − (p+1) remaining stripes.
    const std::int64_t max_cut = columns - (pe_count - p - 1);
    while (cut < max_cut) {
      const double w = column_weights[static_cast<std::size_t>(cut)];
      const double err_stop = std::abs(cum_weight - cum_target);
      const double err_take = std::abs(cum_weight + w - cum_target);
      if (err_take > err_stop && cut > b[static_cast<std::size_t>(p)])
        break;  // taking this column overshoots and stripe p is non-empty
      cum_weight += w;
      ++cut;
    }
    // Guarantee non-empty stripe even when the target was already exceeded.
    if (cut <= b[static_cast<std::size_t>(p)]) {
      cut = b[static_cast<std::size_t>(p)] + 1;
      cum_weight += column_weights[static_cast<std::size_t>(cut - 1)];
    }
    b[static_cast<std::size_t>(p) + 1] = cut;
  }
  return b;
}

StripeBoundaries RcbPartitioner::partition(
    std::span<const double> column_weights,
    std::span<const double> target_fractions) const {
  check_inputs(column_weights, target_fractions);
  const auto columns = static_cast<std::int64_t>(column_weights.size());
  const auto pe_count = static_cast<std::int64_t>(target_fractions.size());
  const auto prefix = prefix_sums(column_weights);
  if (prefix.back() <= 0.0) return even_partition(columns, pe_count);
  StripeBoundaries out(static_cast<std::size_t>(pe_count) + 1, 0);
  rcb_recurse(prefix, target_fractions, 0, pe_count, 0, columns, out);
  return out;
}

OptimalRatioPartitioner::OptimalRatioPartitioner(double ratio_tolerance)
    : ratio_tolerance_(ratio_tolerance) {
  ULBA_REQUIRE(ratio_tolerance > 0.0, "tolerance must be positive");
}

StripeBoundaries OptimalRatioPartitioner::partition(
    std::span<const double> column_weights,
    std::span<const double> target_fractions) const {
  check_inputs(column_weights, target_fractions);
  const auto columns = static_cast<std::int64_t>(column_weights.size());
  const auto pe_count = static_cast<std::int64_t>(target_fractions.size());
  const auto prefix = prefix_sums(column_weights);
  if (prefix.back() <= 0.0) return even_partition(columns, pe_count);

  // The bottleneck ratio is at least 1 (loads sum to the targets' total) and
  // at most what one stripe holding everything would pay.
  double min_frac = 1.0;
  for (double f : target_fractions) min_frac = std::min(min_frac, f);
  double lo = 1.0;
  double hi = 1.0 / min_frac + 1.0;

  StripeBoundaries best;
  StripeBoundaries probe;
  if (!feasible(column_weights, prefix, target_fractions, hi, probe)) {
    // A single monster column can exceed any stripe's cap; fall back to the
    // smallest ratio that admits it by doubling.
    while (!feasible(column_weights, prefix, target_fractions, hi, probe)) {
      hi *= 2.0;
      ULBA_CHECK(hi < 1e15, "parametric search diverged");
    }
  }
  best = probe;
  for (int iter = 0; iter < 100 && (hi - lo) > ratio_tolerance_ * lo;
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (feasible(column_weights, prefix, target_fractions, mid, probe)) {
      hi = mid;
      best = probe;
    } else {
      lo = mid;
    }
  }
  return best;
}

double bottleneck_ratio(std::span<const double> column_weights,
                        std::span<const double> target_fractions,
                        const StripeBoundaries& b) {
  ULBA_REQUIRE(b.size() == target_fractions.size() + 1,
               "boundaries must match the target count");
  const auto loads = stripe_loads(column_weights, b);
  const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
  if (total <= 0.0) return 1.0;
  double worst = 0.0;
  for (std::size_t p = 0; p < loads.size(); ++p)
    worst = std::max(worst, loads[p] / (target_fractions[p] * total));
  return worst;
}

StripeBoundaries EvenStripePartitioner::partition(
    std::span<const double> column_weights,
    std::span<const double> target_fractions) const {
  check_inputs(column_weights, target_fractions);
  return even_partition(static_cast<std::int64_t>(column_weights.size()),
                        static_cast<std::int64_t>(target_fractions.size()));
}

std::unique_ptr<Partitioner> make_partitioner(const std::string& name) {
  if (name == "greedy" || name == "greedy-scan")
    return std::make_unique<GreedyScanPartitioner>();
  if (name == "rcb") return std::make_unique<RcbPartitioner>();
  if (name == "optimal" || name == "optimal-ratio")
    return std::make_unique<OptimalRatioPartitioner>();
  if (name == "stripe") return std::make_unique<EvenStripePartitioner>();
  std::string accepted;
  for (const std::string& n : partitioner_names())
    accepted += (accepted.empty() ? "" : ", ") + n;
  throw std::invalid_argument("unknown partitioner '" + name +
                              "' (accepted: " + accepted + ")");
}

const std::vector<std::string>& partitioner_names() {
  static const std::vector<std::string> kNames{"greedy", "rcb", "optimal",
                                               "stripe"};
  return kNames;
}

}  // namespace ulba::lb
