// Stripe decompositions along the x-axis (paper §IV-B): stripe p owns a run
// of consecutive columns. This header holds the weight-agnostic pieces — the
// initial even split and the load/imbalance metrics of a given cut. The
// weighted cuts that realize per-PE targets (the paper's greedy prefix scan
// and its alternatives) live behind lb::Partitioner in lb/partitioners.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ulba::lb {

/// Stripe boundaries: stripe p owns columns [boundaries[p], boundaries[p+1]).
/// boundaries.front() == 0, boundaries.back() == column count, and every
/// stripe is non-empty.
using StripeBoundaries = std::vector<std::int64_t>;

/// Equal-width split of `columns` into `pe_count` stripes (the initial
/// decomposition, before any weight information exists).
[[nodiscard]] StripeBoundaries even_partition(std::int64_t columns,
                                              std::int64_t pe_count);

/// Summed weight of each stripe under the given boundaries.
[[nodiscard]] std::vector<double> stripe_loads(
    std::span<const double> column_weights, const StripeBoundaries& b);

/// Largest stripe load divided by the average — 1.0 means perfectly even.
[[nodiscard]] double load_imbalance(std::span<const double> column_weights,
                                    const StripeBoundaries& b);

}  // namespace ulba::lb
