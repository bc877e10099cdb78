// Pluggable 1-D partitioners — toward the paper's §V future-work item of
// integrating ULBA into a general LB suite (Zoltan-style): the ULBA weight
// policy (Algorithm 2) produces per-PE *target fractions*; any contiguous
// partitioner can realize them. Three realizations are provided:
//
//   * GreedyScanPartitioner    — the paper's §IV-B technique: one prefix
//                                scan, cut where the cumulative weight best
//                                matches the cumulative target. O(X).
//   * RcbPartitioner           — recursive coordinate bisection restricted
//                                to one dimension (the classic technique the
//                                paper's §I cites): split the PE range in
//                                half, cut the columns at the point best
//                                matching the left half's target mass,
//                                recurse. O(X + P log P) with prefix sums.
//   * OptimalRatioPartitioner  — exact minimizer of
//                                max_p load_p / target_p over all contiguous
//                                partitions (parametric binary search on the
//                                bottleneck with a greedy feasibility test).
//                                This is the best any stripe LB could do for
//                                given Algorithm-2 targets.
//   * EvenStripePartitioner    — weight-agnostic even column widths (the
//                                static decomposition every run starts from).
//                                The §II strawman baseline: cutting that
//                                ignores both the weights and the targets.
//
// All return boundaries with non-empty stripes covering every column.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lb/stripe_partitioner.hpp"

namespace ulba::lb {

/// Interface: realize per-PE target fractions over weighted columns.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Cut `column_weights` into stripes approximating `target_fractions`
  /// (positive, summing to ≈1). Must return non-empty ordered stripes.
  [[nodiscard]] virtual StripeBoundaries partition(
      std::span<const double> column_weights,
      std::span<const double> target_fractions) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// The paper's greedy prefix-scan stripe technique (§IV-B): each cut lands
/// on the column edge that best approximates the cumulative target, while
/// always leaving at least one column per remaining stripe.
class GreedyScanPartitioner final : public Partitioner {
 public:
  [[nodiscard]] StripeBoundaries partition(
      std::span<const double> column_weights,
      std::span<const double> target_fractions) const override;
  [[nodiscard]] std::string name() const override { return "greedy-scan"; }
};

/// 1-D recursive (coordinate) bisection.
class RcbPartitioner final : public Partitioner {
 public:
  [[nodiscard]] StripeBoundaries partition(
      std::span<const double> column_weights,
      std::span<const double> target_fractions) const override;
  [[nodiscard]] std::string name() const override { return "rcb"; }
};

/// Exact min–max(load/target) contiguous partitioner.
class OptimalRatioPartitioner final : public Partitioner {
 public:
  /// `ratio_tolerance` bounds the relative error of the parametric search.
  explicit OptimalRatioPartitioner(double ratio_tolerance = 1e-9);

  [[nodiscard]] StripeBoundaries partition(
      std::span<const double> column_weights,
      std::span<const double> target_fractions) const override;
  [[nodiscard]] std::string name() const override { return "optimal-ratio"; }

 private:
  double ratio_tolerance_;
};

/// Weight- and target-agnostic even column widths (`even_partition`) behind
/// the Partitioner interface, so "no load balancing at all" plugs into every
/// sweep/rank site that takes a pluggable partitioner.
class EvenStripePartitioner final : public Partitioner {
 public:
  [[nodiscard]] StripeBoundaries partition(
      std::span<const double> column_weights,
      std::span<const double> target_fractions) const override;
  [[nodiscard]] std::string name() const override { return "stripe"; }
};

/// Quality metric every partitioner is judged by: the bottleneck ratio
/// max_p load_p / (target_p · total). 1.0 means the targets are met exactly;
/// the slowest PE finishes bottleneck_ratio× later than intended.
[[nodiscard]] double bottleneck_ratio(std::span<const double> column_weights,
                                      std::span<const double> target_fractions,
                                      const StripeBoundaries& b);

/// Factory by canonical name ("greedy", "rcb", "optimal", "stripe") or the
/// historical long spellings ("greedy-scan", "optimal-ratio"). Throws
/// std::invalid_argument on anything else, naming the accepted set.
[[nodiscard]] std::unique_ptr<Partitioner> make_partitioner(
    const std::string& name);

/// The canonical partitioner names `make_partitioner` accepts, in display
/// order — for CLI help texts, validation messages, and sweep drivers.
[[nodiscard]] const std::vector<std::string>& partitioner_names();

}  // namespace ulba::lb
