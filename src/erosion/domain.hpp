// The erosion workload — paper §IV-B.
//
// A 2-D mesh of columns × rows cells holds fluid everywhere except inside P
// rock discs placed along the x-axis. Every iteration, each rock cell on a
// rock/fluid interface is eroded by its fluid neighbours with probability
// 1 − (1 − p)^k (p = the disc's erosion probability, k = fluid neighbours,
// 4-neighbourhood). An eroded rock cell converts into `refinement_factor`
// finer fluid cells (the paper's mesh-refinement mechanism), so erosion both
// *adds* workload and *concentrates* it around strongly erodible discs —
// the m ≫ a regime the ULBA model targets.
//
// Implementation notes: fluid is uniform background, so the domain only
// materializes each disc's bounding box (state per cell) and maintains
// per-column workloads incrementally. Memory and step cost are O(Σ disc
// area) and O(frontier), letting paper-scale domains (P·1000 × 1000 cells,
// radius 250) run in seconds on one node.
//
// Every step goes through the counter kernel (erosion/counter_kernel.hpp):
// each Bernoulli draw is addressed by (disc, iteration, cell), so the one
// trajectory of a seed is the same for every pool size, and the distributed
// stepper reproduces it bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "erosion/counter_kernel.hpp"
#include "erosion/disc.hpp"
#include "support/thread_pool.hpp"

namespace ulba::erosion {

struct RockDisc {
  std::int64_t cx = 0;      ///< disc center, x (column)
  std::int64_t cy = 0;      ///< disc center, y (row)
  std::int64_t radius = 0;  ///< cells within this Euclidean radius are rock
  double erosion_prob = 0.0;  ///< per fluid-neighbour erosion probability
};

struct DomainConfig {
  std::int64_t columns = 0;  ///< X — domain width
  std::int64_t rows = 0;     ///< Y — domain height
  std::vector<RockDisc> discs;
  double flop_per_cell = 52.0;   ///< fluid-cell cost [FLOP]; 52–1165 per [14]
  double bytes_per_cell = 64.0;  ///< fluid-cell state size for migration
  double refinement_factor = 4.0;  ///< fine cells per eroded rock cell

  void validate() const;
};

class ErosionDomain {
 public:
  explicit ErosionDomain(DomainConfig config);

  [[nodiscard]] const DomainConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::int64_t columns() const noexcept {
    return config_.columns;
  }
  [[nodiscard]] std::int64_t rows() const noexcept { return config_.rows; }

  /// One erosion iteration (synchronous cellular-automaton update: all
  /// erosion decisions are taken against the pre-step state). Returns the
  /// number of rock cells eroded. Every Bernoulli draw is addressed by
  /// (disc, iteration, cell) through support::CounterRng keyed with `seed`
  /// (see erosion/counter_kernel.hpp), so decide AND apply run fully
  /// parallel and the result is bit-identical for EVERY pool size — nullptr
  /// and a pool of 1 are the serial reference. `iteration` must advance by
  /// one per call to address fresh draws.
  std::int64_t step_counter(std::uint64_t seed, std::int64_t iteration,
                            support::ThreadPool* pool = nullptr);

  /// Per-column workload [FLOP] — what the stripe partitioner cuts.
  [[nodiscard]] std::span<const double> column_weights() const noexcept {
    return weights_;
  }

  /// Per-column data volume [bytes] — what a migration must move.
  [[nodiscard]] std::vector<double> column_bytes() const;

  /// Current total workload Wtot [FLOP].
  [[nodiscard]] double total_workload() const noexcept { return total_; }

  [[nodiscard]] std::int64_t rock_cells_remaining() const noexcept {
    return rock_remaining_;
  }
  [[nodiscard]] std::int64_t eroded_cells() const noexcept { return eroded_; }
  [[nodiscard]] std::int64_t frontier_size() const noexcept;
  [[nodiscard]] std::int64_t disc_rock_remaining(std::size_t disc) const;

  [[nodiscard]] std::size_t disc_count() const noexcept {
    return discs_.size();
  }

 private:
  /// Rasterize one disc (erosion/disc.hpp) and fold its rock footprint into
  /// the per-column workload baseline.
  void build_disc(const RockDisc& disc);
  /// Commit a disc's erosion to the per-column workload accounting. Every
  /// eroded cell adds the same constant, so the result does not depend on
  /// the order discs commit in.
  std::int64_t commit_disc(const DiscState& d,
                           const std::vector<std::int32_t>& to_erode);

  DomainConfig config_;
  std::vector<DiscState> discs_;
  std::vector<double> weights_;
  double total_ = 0.0;
  std::int64_t rock_remaining_ = 0;
  std::int64_t eroded_ = 0;
  // step_counter's reusable buffers: [0, disc_count) ids + flat SoA arrays.
  std::vector<std::size_t> counter_ids_;
  CounterWorkspace counter_ws_;
};

}  // namespace ulba::erosion
