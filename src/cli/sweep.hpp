// Shared sweep/report machinery behind the `ulba_cli` scenario subcommands
// AND the bench/ experiment harness binaries.
//
// PR 1 left the gossip-ablation and Table-II sweeps living only in bench/
// (bench_ablation_gossip, bench_table2_instances); promoting the scenario
// logic here lets `ulba_cli gossip` / `ulba_cli instances` and the bench
// binaries drive ONE implementation instead of duplicating scenario code —
// bench_common.hpp now merely forwards to this layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "erosion/app.hpp"
#include "serve/service.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace ulba::cli {

/// Run `fn(i)` for i in [0, n) across `pool`; returns the results in index
/// order (R must be default-constructible). Each unit of work must be
/// independent and seeded. Index claiming keeps imbalanced sweep cases
/// (e.g. different fanouts) packed tightly; exceptions thrown by `fn`
/// propagate to the caller (first one wins, the rest of the range is
/// abandoned).
template <typename Fn>
auto parallel_map(support::ThreadPool& pool, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  // vector<bool> packs bits: adjacent out[i] writes from different threads
  // would race on one word. Return std::uint8_t (or a struct) instead.
  static_assert(!std::is_same_v<R, bool>,
                "parallel_map cannot return bool (vector<bool> bit-packing "
                "races across threads)");
  std::vector<R> out(n);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Convenience overload on a transient pool: one thread per hardware core
/// (capped at n). The sweeps use this to fan out seeds / configurations.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  support::ThreadPool pool(
      std::min(std::max<std::size_t>(n, 1),
               support::ThreadPool::hardware_threads()));
  return parallel_map(pool, n, std::forward<Fn>(fn));
}

/// The scaled-down erosion configuration every Figure-4/5 sweep shares.
/// DESIGN.md §3 records the substitution: the geometry ratios (radius/rows =
/// 1/4, one rock per stripe) match the paper; the absolute scale is reduced
/// so a full sweep runs in seconds, and the α-β constants place the LB cost
/// in Table II's C/iteration regime (~0.1–3).
[[nodiscard]] erosion::AppConfig scaled_app_config(std::int64_t pe_count,
                                                   std::int64_t strong_rocks,
                                                   erosion::Method method,
                                                   std::uint64_t seed);

// ---------------------------------------------------------------------------
// Gossip-ablation sweep (ulba_cli gossip, bench_ablation_gossip)
// ---------------------------------------------------------------------------

/// Dissemination-latency table: median rounds (over `trials` trials, with
/// per-trial streams forked from `seed`) until every PE knows every WIR,
/// for each PE count × fanout, with a ~log2(P) reference column.
[[nodiscard]] support::Table gossip_latency_table(
    std::span<const std::int64_t> pe_counts,
    std::span<const std::int64_t> fanouts, std::uint64_t trials,
    std::uint64_t seed);

/// Seed-median aggregate of one erosion configuration — the unit every
/// gossip/fanout/smoothing sweep reports.
struct ErosionAggregate {
  double median_seconds = 0.0;      ///< virtual total time
  double median_lb_calls = 0.0;
  double median_utilization = 0.0;  ///< machine-wide busy fraction
  double median_first_lb = 0.0;  ///< first LB iteration (detection lag; the
                                 ///< iteration count when no LB ever fired)
};

/// Run `cfg` once per seed (in parallel) and reduce to medians. Everything
/// except `cfg.seed` is taken from `cfg` as given.
[[nodiscard]] ErosionAggregate erosion_median_over_seeds(
    erosion::AppConfig cfg, std::span<const std::uint64_t> seeds);

// ---------------------------------------------------------------------------
// Table-II instance-family sweep (ulba_cli instances, bench_table2_instances)
// ---------------------------------------------------------------------------

/// ULBA-vs-standard statistics over one Table-II family (a pinned PE count).
struct FamilyStats {
  std::int64_t pin_p = 0;
  std::int64_t samples = 0;
  std::int64_t wins = 0;    ///< ULBA strictly faster at the instance's drawn α
  std::int64_t losses = 0;  ///< strictly slower at the drawn α
  std::int64_t ties = 0;
  double median_gain = 0.0;       ///< at the drawn α, vs. standard [fraction]
  double mean_gain = 0.0;
  double min_gain = 0.0;
  double max_gain = 0.0;
  double median_best_gain = 0.0;  ///< at the best α of the grid (never < 0)
  double mean_best_alpha = 0.0;   ///< average arg-max α over the grid
};

/// Sample `samples` instances from the Table-II generator with P pinned to
/// `pin_p`, evaluate standard-vs-ULBA analytically (Menon τ schedule vs. the
/// σ⁺ schedule), both at the instance's drawn α and at the best α over an
/// `alpha_grid`-point grid. The family's stream is forked from `base_seed`
/// and `pin_p`, so one base seed spans all families identically wherever the
/// sweep is driven from. Deterministic for a given base seed.
[[nodiscard]] FamilyStats instance_family_stats(std::int64_t pin_p,
                                                std::int64_t samples,
                                                std::uint64_t base_seed,
                                                std::int64_t alpha_grid);

/// The Table-II sweep as the schedule service's first heavy client.
struct ServedSweepResult {
  std::vector<FamilyStats> families;  ///< parallel to the pin_ps argument
  serve::ServeMetrics metrics;        ///< the server rank's counters
};

/// Fan the instance sweep out over `ranks` SPMD ranks: rank 0 runs
/// serve::serve_loop, every other rank builds the same per-sample
/// ScheduleRequests the serial sweep evaluates and pipelines them to the
/// server (client r owns the interleaved sample indices r−1, r−1+(ranks−1),
/// … of every family — non-stripe work distribution). Draws are reassembled
/// into sample order before the reduction, so every FamilyStats field is
/// bit-identical to instance_family_stats for the same inputs. `ranks` ≥ 2.
[[nodiscard]] ServedSweepResult instance_sweep_served(
    std::span<const std::int64_t> pin_ps, std::int64_t samples,
    std::uint64_t base_seed, std::int64_t alpha_grid, int ranks,
    const serve::ServeOptions& options);

// ---------------------------------------------------------------------------
// Partitioner ablation (bench_ablation_partitioner; `erosion --partitioner`
// drives the same ErosionApp implementation)
// ---------------------------------------------------------------------------

/// Bottleneck ratios of each partitioner on one snapshot of the evolving
/// erosion column-weight profile (even targets; 1.0 = ideal cut).
struct PartitionerQualityRow {
  std::int64_t iteration = 0;
  std::vector<double> ratios;  ///< parallel to the `names` argument
};

/// Evolve the scaled erosion domain (pe_count discs, 1 strong, placement
/// from `seed`) and sample the cutting quality of every named partitioner
/// every `iterations_between` iterations, `snapshots` + 1 times.
[[nodiscard]] std::vector<PartitionerQualityRow> partitioner_quality_sweep(
    std::span<const std::string> names, std::int64_t pe_count,
    std::int64_t snapshots, std::int64_t iterations_between,
    std::uint64_t seed);

/// Median end-to-end erosion times per partitioner (standard vs. ULBA) over
/// `seeds`; each seed's configs step their shared dynamics once.
struct PartitionerEndToEnd {
  std::string name;
  double median_standard = 0.0;
  double median_ulba = 0.0;
};
[[nodiscard]] std::vector<PartitionerEndToEnd> partitioner_end_to_end(
    std::span<const std::string> names, std::int64_t pe_count,
    std::int64_t strong_rocks, std::span<const std::uint64_t> seeds);

// ---------------------------------------------------------------------------
// Dynamic-α ablation (ulba_cli dynamic-alpha, bench_ablation_dynamic_alpha)
// ---------------------------------------------------------------------------

/// Model-level upper bound on what dynamic α can ever buy: the exact DP over
/// (schedule × per-step α) vs. the exact DP at the best single fixed α,
/// over random Table-II instances (opt::optimal_alpha_schedule).
struct DynamicAlphaModelBound {
  double mean_pct = 0.0;
  double median_pct = 0.0;
  double max_pct = 0.0;
};
[[nodiscard]] DynamicAlphaModelBound dynamic_alpha_model_bound(
    std::size_t instances, std::uint64_t seed);

/// One α-selection variant of the erosion-level dynamic-α sweep.
struct AlphaVariant {
  std::string label;
  double alpha = 0.4;  ///< the base/fixed α
  erosion::AlphaPolicy policy = erosion::AlphaPolicy::kFixed;
  bool oracle_wir = false;  ///< centralized zero-cost WIR reference
};

/// The standard comparison set: fixed α ∈ {0.2, 0.4, base}, then the
/// gossip-fed fraction heuristic and model policy at the base α, then the
/// model policy on the centralized oracle (the staleness-free reference).
[[nodiscard]] std::vector<AlphaVariant> dynamic_alpha_variants(
    double base_alpha);

/// medians[v][r] = median over `seeds` of the total virtual seconds of
/// variant v at rock_counts[r] strongly erodible rocks (ULBA method
/// throughout; `iterations` ≤ 0 keeps the scaled config's default horizon).
[[nodiscard]] std::vector<std::vector<double>> dynamic_alpha_grid(
    std::span<const AlphaVariant> variants,
    std::span<const std::int64_t> rock_counts, std::int64_t pe_count,
    std::span<const std::uint64_t> seeds, std::int64_t iterations);

// ---------------------------------------------------------------------------
// Fig-2 interval-quality sweep (ulba_cli interval-quality,
// bench_fig2_interval_quality)
// ---------------------------------------------------------------------------

/// One Table-II instance's verdict on the σ⁺ intervals: gain over the
/// simulated-annealing search, and both methods' distance from the exact DP
/// optimum (all fractions; positive gain ⇒ σ⁺ beat the heuristic).
struct IntervalQualitySample {
  double gain_vs_sa = 0.0;    ///< (T_sa − T_σ⁺)/T_sa
  double gap_vs_dp = 0.0;     ///< T_σ⁺/T_dp − 1, ≥ 0 by optimality
  double sa_gap_vs_dp = 0.0;  ///< T_sa/T_dp − 1
};

/// Evaluate σ⁺ vs. an `sa_steps`-step annealing search vs. the exact DP on
/// `instances` random Table-II instances (streams forked from `seed`).
/// Deterministic; the unit behind the paper's Figure 2.
[[nodiscard]] std::vector<IntervalQualitySample> interval_quality_sweep(
    std::size_t instances, std::int64_t sa_steps, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Distributed-erosion scaling sweep (bench_distributed_erosion;
// `erosion --ranks` drives the same ErosionApp implementation)
// ---------------------------------------------------------------------------

/// One (rank count, partitioner, exchange mode) cell of the distributed
/// scaling sweep.
struct DistributedScalingRow {
  std::int64_t ranks = 0;
  std::string partitioner;
  std::string exchange;          ///< "alltoall" | "neighbor"
  double wall_seconds = 0.0;     ///< measured host wall clock of the run
  double virtual_seconds = 0.0;  ///< RunResult::total_seconds (rank-invariant)
  std::int64_t lb_count = 0;
  std::int64_t discs_moved = 0;  ///< rank-ownership migrations, all LB steps
  double observed_mb = 0.0;      ///< real migration payload on the wire [MB]
  /// Per-step exchange messages over the whole run, summed across ranks —
  /// the number the neighbor-vs-all-to-all comparison is about.
  std::int64_t step_messages = 0;
  /// 1 when every trajectory-facing RunResult field (times, LB schedule,
  /// per-step α's, per-iteration records) is bit-identical to the ranks = 1
  /// reference — the determinism contract.
  std::uint8_t matches_serial = 0;
};

/// Run the scaled erosion app distributed over every rank count ×
/// partitioner × exchange-mode combination and compare each RunResult
/// bit-for-bit against the in-process reference. Runs sequentially (each
/// cell already spawns `ranks` SPMD threads).
[[nodiscard]] std::vector<DistributedScalingRow> distributed_erosion_scaling(
    std::span<const std::int64_t> rank_counts,
    std::span<const std::string> partitioners,
    std::span<const std::string> exchanges, std::int64_t pe_count,
    std::int64_t strong_rocks, std::uint64_t seed, std::int64_t iterations);

// ---------------------------------------------------------------------------
// Grid-decomposition sweep (bench_distributed_erosion; `erosion --decomp
// grid` drives the same ErosionApp implementation)
// ---------------------------------------------------------------------------

/// One (decomposition, rebalance policy) cell of the grid-decomposition
/// sweep: 1D stripes vs. the 2D tile grid, each static and periodically
/// rebalanced, plus the grid with the damped boundary tuner.
struct GridDecompRow {
  std::string decomp;   ///< "stripes" | "grid"
  std::string policy;   ///< "static" | "recut" | "tuner"
  std::string shape;    ///< resolved "RxC" tile grid ("-" for stripes)
  std::int64_t ranks = 0;
  /// Final (max − avg)/avg per-rank weight imbalance after the run — the
  /// number the damped tuner is supposed to push down vs. the static grid.
  double imbalance = 0.0;
  std::int64_t tuner_iterations = 0;  ///< tuner passes summed over LB steps
  std::int64_t lb_count = 0;
  std::int64_t discs_moved = 0;  ///< rank-ownership migrations, all LB steps
  /// 1 when every trajectory-facing RunResult field is bit-identical to a
  /// ranks = 1 run with the same trigger schedule — the per-decomposition
  /// determinism contract (counter RNG).
  std::uint8_t matches_serial = 0;
};

/// Run the scaled erosion app at `ranks` SPMD ranks under {stripes, grid} ×
/// {static, periodic recut} plus grid + damped tuner, counter RNG, and
/// compare each trajectory bit-for-bit against the matching ranks = 1
/// reference. `ranks` must be 2D-factorable (e.g. 4 → 2×2). Runs
/// sequentially (each cell already spawns `ranks` SPMD threads).
[[nodiscard]] std::vector<GridDecompRow> grid_decomposition_sweep(
    std::int64_t ranks, std::int64_t pe_count, std::int64_t strong_rocks,
    std::uint64_t seed, std::int64_t iterations);

// ---------------------------------------------------------------------------
// Anticipation-vs-reactive falsification sweep (ulba_cli anticipation,
// bench_anticipation; `erosion --trigger-source` drives the same ErosionApp)
// ---------------------------------------------------------------------------

/// One (variant, noise level) cell of the paper's core-claim falsification
/// harness: ULBA-scheduled anticipatory LB (model trigger) vs. reactive
/// measured-trigger LB (degradation and fli criteria), all in measured-time
/// mode under injected multi-tenant burn noise.
struct AnticipationReactiveRow {
  std::string variant;  ///< "anticipation" | "reactive-deg" | "reactive-fli"
  double noise = 0.0;   ///< mt_noise amplitude of this cell
  double wall_seconds = 0.0;     ///< measured whole-run steady_clock
  double compute_seconds = 0.0;  ///< measured Σ iteration maxima
  double lb_seconds = 0.0;       ///< measured Σ LB-step costs
  double utilization = 0.0;      ///< measured mean utilization
  std::int64_t lb_count = 0;
  double mean_fli = 0.0;  ///< mean measured fractional imbalance over the run
  std::int64_t eroded_cells = 0;  ///< dynamics check: identical per seed
};

/// Run the scaled (shrunk) erosion app at `ranks` SPMD ranks in measured
/// mode: for each noise level, anticipation (ULBA, model trigger) against
/// the two reactive measured-trigger variants (standard method; degradation
/// and fli criteria). `iterations` ≤ 0 picks a sweep default. Wall numbers
/// are real and noisy; the dynamics (eroded cells) are identical across all
/// cells of one seed. Runs sequentially (each cell already spawns `ranks`
/// SPMD threads).
[[nodiscard]] std::vector<AnticipationReactiveRow>
anticipation_vs_reactive_sweep(std::int64_t ranks, std::int64_t pe_count,
                               std::int64_t strong_rocks, std::uint64_t seed,
                               std::int64_t iterations,
                               std::span<const double> noise_levels,
                               double ns_scale, double fli_threshold);

}  // namespace ulba::cli
