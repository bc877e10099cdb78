// Distributed erosion domain — the erosion workload over the SPMD
// message-passing runtime, one instance per runtime::Comm rank.
//
// Where ErosionDomain steps every disc against ONE shared per-column weight
// array, DistributedDomain owns no shared state at all: each rank holds
// exactly the column weights of its contiguous stripe plus the materialized
// DiscStates of the discs whose centers fall in that stripe. Everything that crosses a stripe boundary is
// a real runtime::Mailbox message:
//
//   * per step, each rank sends every peer the (column, eroded-cell-count)
//     deltas that land in the peer's stripe — the halo exchange a disc
//     straddling a boundary requires — together with the updated frontier
//     sizes of its own discs (the replicated metadata behind
//     frontier_size() and the `per-step exchange` report) and its
//     eroded-cell total;
//   * per rebalance, the stripes are recut by any lb::Partitioner and both
//     column weights and whole DiscStates change owner as serialized
//     messages, with the analytic lb::migration_volume prediction validated
//     against the columns that were actually exchanged.
//
// Determinism contract (locked by tests/test_distributed_erosion): each
// rank steps its own discs through the counter kernel
// (erosion/counter_kernel.hpp), whose draws are addressed by (global disc
// id, iteration, cell). No RNG state exists to position or communicate, so
// for EVERY (rank count, partitioner, exchange mode, per-rank thread count)
// the trajectory and the final domain report are BIT-identical to
// ErosionDomain::step_counter on an undistributed copy.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "erosion/counter_kernel.hpp"
#include "erosion/disc.hpp"
#include "erosion/domain.hpp"
#include "lb/grid.hpp"
#include "lb/migration.hpp"
#include "lb/partitioners.hpp"
#include "lb/stripe_partitioner.hpp"
#include "runtime/comm.hpp"
#include "support/thread_pool.hpp"

namespace ulba::erosion {

/// How the per-step exchange routes its traffic.
enum class ExchangeMode {
  /// One message per peer per step (R·(R−1) messages): every rank sends
  /// every other rank its eroded total, halo deltas, and frontier metadata.
  /// The historical PR-4 scheme, kept as the ablation reference.
  kAllToAll,
  /// Neighbor-aware (the default): halo deltas travel only to the ranks
  /// whose stripes a local disc's bounding box overlaps — the neighbor set
  /// recomputed from the partition cut at construction and after every
  /// rebalance — while the global eroded count and the frontier metadata
  /// propagate through one reduction at rank 0 plus one broadcast. Per-step
  /// message count drops from R·(R−1) to 2·(R−1) + Σ|neighbors|; the
  /// trajectory stays bit-identical (halo credits are per-cell and
  /// order-independent, the eroded reduction folds exact integers in rank
  /// order, frontier updates are plain assignments).
  kNeighbor,
};

/// Parse "alltoall" | "neighbor" (the `--exchange` vocabulary); throws
/// std::invalid_argument on anything else.
[[nodiscard]] ExchangeMode exchange_mode_from_name(const std::string& name);
[[nodiscard]] std::string exchange_mode_name(ExchangeMode mode);

/// The 2D (rows x columns) decomposition request of a DistributedDomain —
/// the alternative to the default 1D column stripes. Every rank owns one
/// rectangular tile of the cell grid (row-major rank -> tile map) plus the
/// discs whose centers fall inside it; halo deltas flow to the 2D (edge AND
/// corner) neighbor tiles through the same exchange machinery as stripes.
///
/// Determinism: the LB-facing column weights of a grid run come from a
/// rank-0 monitor fed by integer eroded-cell deltas, folded one constant
/// increment per cell — bit-identical to the serial incremental weights for
/// ANY tile shape, which is what keeps the whole RunResult trajectory
/// serial-identical in 2D. A 1-row grid with the tuner off is not merely
/// equivalent to stripes: it runs the stripe code path, so "1xC == 1D
/// stripes" holds by code identity.
struct GridOptions {
  std::int64_t grid_rows = 0;  ///< 0 = derive (near-square factorization)
  std::int64_t grid_cols = 0;  ///< 0 = derive from grid_rows
  /// Rebalance boundaries with the damped per-dimension tuner instead of a
  /// fresh partitioner recut: each rebalance rescales row/column boundaries
  /// by inverse band imbalance, capped at tuner_config.cap of the adjacent
  /// tile extent per rebalance (hoomd-blue LoadBalancer style).
  bool tuner = false;
  lb::GridTunerConfig tuner_config;
};

/// Outcome of one distributed rebalance (identical on every rank).
struct DistributedReshardResult {
  /// The new rank → column-range map (grid mode: the new COLUMN-band bounds,
  /// size grid_cols()+1 — the row bounds travel in `tuned_rows` or through
  /// DistributedDomain::grid_row_bounds()).
  lb::StripeBoundaries boundaries;
  std::int64_t discs_moved = 0;     ///< discs that changed rank ownership
  /// The analytic Eq.-C accounting: what migrating from the old to the new
  /// stripes costs given the per-column data sizes (the same model the
  /// virtual-time LB step charges).
  lb::MigrationVolume predicted;
  /// Modeled bytes of the columns ACTUALLY exchanged as messages, summed
  /// per rank (sent + received, mirroring MigrationVolume::per_pe_bytes) —
  /// computed from the weights carried by the migration messages, so a test
  /// can validate the analytic prediction against observed traffic.
  std::vector<double> observed_per_rank_bytes;
  /// Σ modeled bytes over exchanged columns, each counted once (the
  /// observed counterpart of MigrationVolume::total_bytes).
  double observed_column_bytes = 0.0;
  /// Real payload bytes this rank put on / took off the wire during the
  /// rebalance (column weights + serialized discs), summed over all ranks.
  double observed_payload_bytes = 0.0;
  /// This rank's own share of that payload (sent + received, NOT reduced) —
  /// what a measured-time driver charges its local migration burn against.
  double my_payload_bytes = 0.0;
  /// Grid mode with the tuner enabled: the per-dimension tuner outcomes of
  /// this rebalance (iterations used, band imbalance before/after per
  /// dimension). Default-constructed otherwise.
  bool tuner_ran = false;
  lb::TuneOutcome tuned_cols;
  lb::TuneOutcome tuned_rows;
};

/// The rank-local final report every rank replicates (bit-identical to the
/// serial domain's observers under the determinism contract).
struct DistributedReport {
  std::int64_t eroded_cells = 0;
  std::int64_t rock_cells_remaining = 0;
  std::int64_t frontier_size = 0;
  double total_workload = 0.0;
};

class DistributedDomain {
 public:
  /// Collective: every rank of `comm` constructs with the same `config`, an
  /// equivalent `partitioner`, and the same `exchange` mode. The initial
  /// stripes are cut against the initial column weights (even targets).
  DistributedDomain(DomainConfig config, runtime::Comm& comm,
                    std::shared_ptr<const lb::Partitioner> partitioner,
                    ExchangeMode exchange = ExchangeMode::kNeighbor);

  /// Collective: the 2D grid decomposition — every rank owns one
  /// rectangular tile (see GridOptions). The initial bounds cut each
  /// dimension's marginal of the initial weights with `partitioner` (even
  /// targets). A grid_rows == 1 request without the tuner delegates to the
  /// stripe construction above, byte for byte.
  DistributedDomain(DomainConfig config, runtime::Comm& comm,
                    std::shared_ptr<const lb::Partitioner> partitioner,
                    ExchangeMode exchange, const GridOptions& grid);

  /// Collective: one erosion iteration, local discs stepped through the
  /// counter kernel (on `pool` when given, a rank-local pool). Returns the
  /// GLOBAL eroded-cell count. Per-step cost of a rank is O(its own
  /// frontier), not O(the global frontier). Bit-identical to
  /// ErosionDomain::step_counter on an undistributed copy for every (rank
  /// count, partitioner, exchange mode, pool size) by construction.
  std::int64_t step_counter(std::uint64_t seed, std::int64_t iteration,
                            support::ThreadPool* pool = nullptr);

  /// Collective: recut the rank stripes against the current column weights
  /// (even targets) and migrate column weights + disc ownership as real
  /// messages. The stepping trajectory is unaffected.
  DistributedReshardResult rebalance();

  /// Collective variant taking the full-width weights already reassembled
  /// by `allgather_column_weights()` — callers that just gathered them
  /// (e.g. the LB driver) avoid a second gather/broadcast round. Every
  /// rank must pass identical contents.
  DistributedReshardResult rebalance(std::span<const double> full_weights);

  // ---- observers (rank-local, no communication) --------------------------

  [[nodiscard]] const DomainConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::int64_t columns() const noexcept {
    return config_.columns;
  }
  [[nodiscard]] int rank() const noexcept { return comm_->rank(); }
  [[nodiscard]] int ranks() const noexcept { return comm_->size(); }

  /// Current rank → column-range boundaries (size ranks + 1, replicated).
  /// Stripe mode only — empty under a 2D grid decomposition, whose tiles
  /// are published through grid_row_bounds()/grid_col_bounds().
  [[nodiscard]] const lb::StripeBoundaries& rank_boundaries() const noexcept {
    return boundaries_;
  }
  /// True when this domain runs the 2D tile decomposition (a GridOptions
  /// construction with more than one tile row, or with the tuner on).
  [[nodiscard]] bool grid_mode() const noexcept { return grid_; }
  [[nodiscard]] std::int64_t grid_rows() const noexcept { return tile_rows_; }
  [[nodiscard]] std::int64_t grid_cols() const noexcept { return tile_cols_; }
  /// Grid mode: the row/column boundaries of the tile grid (sizes
  /// grid_rows()+1 / grid_cols()+1, replicated). Rank ri*grid_cols()+ci owns
  /// rows [row_bounds[ri], row_bounds[ri+1]) x columns [col_bounds[ci],
  /// col_bounds[ci+1]). Empty in stripe mode.
  [[nodiscard]] const std::vector<std::int64_t>& grid_row_bounds()
      const noexcept {
    return row_bounds_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& grid_col_bounds()
      const noexcept {
    return col_bounds_;
  }
  [[nodiscard]] ExchangeMode exchange_mode() const noexcept {
    return exchange_;
  }
  /// Neighbor mode only: ranks my halo deltas may target (ascending) — the
  /// owners of any column a local disc's bounding box covers — and the
  /// ranks whose discs overlap MY stripe (who therefore message me each
  /// step). Both recomputed from the partition cut after every rebalance;
  /// empty in all-to-all mode.
  [[nodiscard]] std::span<const int> halo_send_neighbors() const noexcept {
    return send_neighbors_;
  }
  [[nodiscard]] std::span<const int> halo_recv_neighbors() const noexcept {
    return recv_neighbors_;
  }
  /// Messages/payload THIS rank put on the wire inside step() so far (halo
  /// deltas + reduction/broadcast legs; rebalance traffic excluded). Sum
  /// over ranks for the per-step totals the exchange modes are compared on.
  [[nodiscard]] std::uint64_t step_messages_sent() const noexcept {
    return step_messages_;
  }
  [[nodiscard]] std::uint64_t step_payload_bytes_sent() const noexcept {
    return step_payload_bytes_;
  }
  /// Global indices of the discs this rank owns, ascending.
  [[nodiscard]] std::span<const std::size_t> local_discs() const noexcept {
    return local_disc_ids_;
  }
  /// The states of the discs this rank owns, parallel to local_discs().
  [[nodiscard]] std::span<const DiscState> local_disc_states()
      const noexcept {
    return local_discs_;
  }
  /// The rank owning disc `disc` (replicated knowledge).
  [[nodiscard]] int owner_of_disc(std::size_t disc) const;
  /// The rank owning column `x` (stripe mode only — a grid tile owns column
  /// SEGMENTS, so whole-column ownership is undefined there).
  [[nodiscard]] int owner_of_column(std::int64_t x) const;
  /// The rank owning cell (x, y) under the current decomposition (both
  /// modes; stripe mode ignores y beyond a range check).
  [[nodiscard]] int owner_of_cell(std::int64_t x, std::int64_t y) const;

  /// This rank's column weights, spanning [first_column, first_column + n).
  /// In grid mode these are PARTIAL column weights — each entry sums only
  /// the tile's own rows — deterministic across exchange modes and pools,
  /// but not the serial full-column values (those live in the rank-0
  /// monitor that gather_column_weights() serves).
  [[nodiscard]] std::span<const double> local_column_weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] std::int64_t first_column() const noexcept {
    return my_col0_;
  }

  /// Collective: the HemoCell-style fractional load imbalance of the
  /// current decomposition, (max rank load − avg)/avg over the per-rank
  /// sums of local_column_weights(). Identical on every rank; 0 when
  /// perfectly balanced. The number the damped grid tuner drives down.
  [[nodiscard]] double fractional_load_imbalance() const;
  /// Collective: the same (max − avg)/avg fold over a caller-provided
  /// per-rank value instead of the model weights — pass this rank's
  /// measured iteration burn time to get the TIMING-based imbalance the
  /// reactive `--trigger-criterion fli` consumes (SNIPPETS.md Snippets 2–3:
  /// gather per-rank timings, decide centrally). Identical on every rank.
  [[nodiscard]] double fractional_load_imbalance(double local_value) const;

  /// Replicated global counters — all bit-identical to the serial domain.
  [[nodiscard]] double total_workload() const noexcept { return total_; }
  [[nodiscard]] std::int64_t eroded_cells() const noexcept { return eroded_; }
  [[nodiscard]] std::int64_t rock_cells_remaining() const noexcept {
    return rock_remaining_;
  }
  [[nodiscard]] std::int64_t frontier_size() const noexcept;

  [[nodiscard]] DistributedReport report() const noexcept {
    return {eroded_, rock_remaining_, frontier_size(), total_};
  }

  // ---- collectives -------------------------------------------------------

  /// Collective: reassemble the full-width column weights at `root` (every
  /// rank must call; non-roots return {}). This is the real-message
  /// counterpart of ErosionDomain::column_weights() for the monitoring and
  /// LB layers. Stripe mode concatenates the per-rank stripes; grid mode
  /// drains the pending integer deltas into the rank-0 monitor and serves
  /// that — bit-identical to the serial incremental weights either way.
  [[nodiscard]] std::vector<double> gather_column_weights(int root) const;

  /// Collective: reassemble the full-width column weights on EVERY rank
  /// (gather at rank 0 + broadcast).
  [[nodiscard]] std::vector<double> allgather_column_weights() const;

 private:
  /// Shared ctor body: replay the serial builder's weight accounting over a
  /// transient full-width view (one DiscState alive at a time), filling the
  /// frontier metadata, the rock census, and Wtot, and producing the initial
  /// column weights plus their row marginal. Every rank derives identical
  /// values without ever holding the whole domain.
  void replay_initial_weights(std::vector<double>& full_cols,
                              std::vector<double>& full_rows);
  /// The stripe construction body (also the 1-row-grid-no-tuner path).
  void init_stripes();
  /// The 2D tile construction body (tile_rows_/tile_cols_ already set).
  void init_grid();
  /// Recompute disc_owner_/local ids from the current decomposition (disc →
  /// rank whose stripe/tile holds its center cell). `keep` holds the
  /// still-local DiscStates by global id, already including received
  /// hand-offs.
  void assign_local_discs();
  /// Recompute send/recv halo-neighbor sets from the decomposition +
  /// disc_owner_ + the disc bounding boxes (all replicated) — must follow
  /// every boundary or ownership change. In grid mode a disc's box covers a
  /// RECTANGLE of tiles, so the sets include corner neighbors.
  void recompute_neighbors();
  /// Apply `count` eroded cells to column `x` of my stripe/tile, one cell
  /// at a time (the serial commit's per-cell accounting, so FP results
  /// agree).
  void credit_column(std::int64_t x, std::int64_t count);
  /// Grid mode: the tile index along each dimension owning a coordinate.
  [[nodiscard]] int col_band_of(std::int64_t x) const;
  [[nodiscard]] int row_band_of(std::int64_t y) const;
  /// Grid mode: rebuild this rank's partial column weights analytically
  /// from integer cell counts — background minus the static disc footprints
  /// intersecting the tile, plus one refinement gain per refined cell
  /// (`refined_per_column`, tile-local, empty = all zero). One FP
  /// expression of exact integers, so every rank derives identical values.
  void rebuild_tile_weights(std::span<const std::int64_t> refined_per_column);
  /// Grid mode, collective: flush every rank's pending integer eroded-cell
  /// deltas into the rank-0 column/row monitors (constant increments — fold
  /// order cannot matter, rank order keeps it canonical).
  void drain_pending_deltas() const;
  /// Grid-mode rebalance body (dispatched from rebalance(full)).
  DistributedReshardResult rebalance_grid(std::span<const double> full);
  /// The stepper tail after the kernel — commit my columns, bucket and
  /// exchange halo deltas + frontier metadata + the eroded reduction, fold
  /// the replicated global accounting. `erode[k]` holds the cells the k-th
  /// LOCAL disc eroded this step. Returns the global eroded count.
  std::int64_t finish_step(std::span<const std::vector<std::int32_t>> erode);
  /// Record one step()-phase send of `bytes` payload bytes.
  void count_step_send(std::size_t bytes) noexcept {
    ++step_messages_;
    step_payload_bytes_ += bytes;
  }

  DomainConfig config_;
  runtime::Comm* comm_;
  std::shared_ptr<const lb::Partitioner> partitioner_;
  ExchangeMode exchange_;
  lb::StripeBoundaries boundaries_;
  std::vector<int> send_neighbors_;  ///< ascending, neighbor mode only
  std::vector<int> recv_neighbors_;  ///< ascending, neighbor mode only
  std::uint64_t step_messages_ = 0;
  std::uint64_t step_payload_bytes_ = 0;

  std::vector<std::size_t> local_disc_ids_;  ///< ascending global ids
  std::vector<DiscState> local_discs_;       ///< parallel to local_disc_ids_
  std::vector<int> disc_owner_;              ///< replicated, per global disc
  std::vector<std::int64_t> frontier_sizes_; ///< replicated, per global disc

  std::vector<double> weights_;  ///< my stripe (or tile-partial) columns
  std::int64_t my_col0_ = 0;     ///< first column of my stripe/tile
  double total_ = 0.0;           ///< replicated global Wtot

  // ---- grid decomposition state (grid_ == true only) ---------------------
  bool grid_ = false;
  std::int64_t tile_rows_ = 1;  ///< grid shape: tile rows (R_t)
  std::int64_t tile_cols_ = 1;  ///< grid shape: tile columns (C_t)
  bool tuner_on_ = false;
  lb::GridTunerConfig tuner_cfg_;
  std::vector<std::int64_t> row_bounds_;  ///< size tile_rows_ + 1, replicated
  std::vector<std::int64_t> col_bounds_;  ///< size tile_cols_ + 1, replicated
  /// Rank-0 full-width monitors, bit-identical to the serial domain's
  /// incremental column weights (and their row marginal): seeded from the
  /// constructor replay and advanced one constant increment per eroded cell
  /// when the pending deltas drain at gather time. Mutable because the
  /// gather collective is logically const (it only OBSERVES the dynamics).
  mutable std::vector<double> monitor_cols_;
  mutable std::vector<double> monitor_rows_;
  /// Integer eroded-cell counts per column/row recorded by the DISC OWNER
  /// since the last drain (each eroded cell counted exactly once globally).
  mutable std::vector<std::int64_t> pending_cols_;
  mutable std::vector<std::int64_t> pending_rows_;

  std::int64_t rock_remaining_ = 0;
  std::int64_t eroded_ = 0;
  CounterWorkspace counter_ws_;  ///< step_counter's reusable flat buffers
};

}  // namespace ulba::erosion
