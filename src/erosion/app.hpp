// The full erosion application — paper §IV-B — tying every subsystem
// together on the virtual-time BSP machine:
//
//   erosion dynamics (this module)  → per-column workloads
//   stripe partitioner + Algorithm 2 (ulba::lb, ulba::core) → decomposition
//   WIR monitoring + gossip + z-score detector (ulba::core) → who overloads
//   Zhai-style degradation trigger (ulba::core)             → when to balance
//   α-β comm model (ulba::bsp)                              → LB cost
//
// Both methods of the paper's Figure 4 run through this one driver:
//   * Method::kStandard — the standard LB method with the adaptive trigger of
//     Zhai et al. (all-zero α: even targets);
//   * Method::kUlba     — ULBA with a user-defined α (overloading PEs are
//     underloaded per Algorithm 2).
//
// The erosion dynamics never depend on LB decisions: the dynamics stream is
// keyed by the seed, never by an LB outcome, so every LB variant of one
// problem sees bit-identical erosion and time differences are attributable
// to load balancing alone. `run_all` exploits this lockstep contract: it
// steps the dynamics of a group of configs ONCE and drives one LbController
// per config against the shared column weights. Configs share a group when
// their make_domain() inputs, seed, iterations and threads are equal and
// all of them step in-process (ranks == 1). Every distributed config runs
// alone. Each result equals a solo run of its config bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bsp/comm_model.hpp"
#include "erosion/domain.hpp"

namespace ulba::erosion {

enum class Method {
  kStandard,  ///< even redistribution (Zhai-adaptive trigger), α ≡ 0
  kUlba,      ///< anticipatory underloading with the configured α
};

/// How ULBA picks the α applied at each LB step (E-X4, the paper's §V
/// future-work item of adjusting α during execution). All runtime policies
/// feed on the gossip-estimated WIR databases — the same possibly-stale
/// knowledge a real decentralized deployment would have.
enum class AlphaPolicy {
  /// α = AppConfig::alpha at every step (the paper's experiments).
  kFixed,
  /// Shrink α as the detected overloading fraction grows — the Eq. (11)
  /// overhead is ∝ αN/(P−N):  α_eff = α·max(0, 1 − 2·N̂/P), per each PE's
  /// own database view; vanishes at the 50 % fallback boundary.
  kGossipFraction,
  /// Per-interval grid search over the analytic model: the main PE estimates
  /// (N̂, â, m̂) from its WIR database, plugs them into ModelParams together
  /// with the live (Wtot, C, remaining γ), and picks the α ∈ {0, 0.1, …, 1}
  /// whose σ⁺ schedule minimizes the predicted remaining time. The grid
  /// mirrors opt::default_alpha_grid() — the runtime half of the exact
  /// dynamic-α DP (opt::optimal_alpha_schedule).
  kGossipModel,
};

/// Parse "fixed" | "fraction" | "model" (the `--alpha-policy` vocabulary);
/// throws std::invalid_argument on anything else.
[[nodiscard]] AlphaPolicy alpha_policy_from_name(const std::string& name);
[[nodiscard]] std::string alpha_policy_name(AlphaPolicy policy);

/// The random-number discipline of the erosion dynamics. One kind remains:
/// the `--rng` vocabulary and AppConfig::rng_kind keep naming it so scripts
/// that pin `--rng counter` keep working.
enum class RngKind {
  /// Counter-based Philox draws addressed by (disc, iteration, cell)
  /// through support::CounterRng: decide AND commit run fully parallel, and
  /// ONE trajectory serves every (threads × ranks) combination.
  kCounter,
};

/// Parse "counter" (the `--rng` vocabulary); throws std::invalid_argument
/// on anything else, with a dedicated message for the removed "fork" kind.
[[nodiscard]] RngKind rng_kind_from_name(const std::string& name);

/// When to invoke the load balancer (the ablation knob of E-X2; the paper
/// always uses the adaptive trigger).
enum class TriggerMode {
  kAdaptive,  ///< Zhai-style degradation accounting (Algorithm 1)
  kPeriodic,  ///< every `lb_period` iterations (the §II strawman)
  kNever,     ///< static decomposition: no LB at all
};

/// Which clock feeds the LB trigger (the measured-signal control loop).
enum class TriggerSource {
  /// Verdicts from the virtual-time LbController — the historical contract:
  /// bit-identical RunResult across threads/ranks/mt.
  kModel,
  /// Verdicts from real steady_clock signals gathered on the SPMD runtime
  /// (requires ranks > 1 with measure_time): the per-iteration burn maxima
  /// feed a measured AdaptiveTrigger and the observed LB-step costs feed a
  /// measured LbCostEstimator, HemoCell-style (gather timings, decide
  /// centrally, broadcast the verdict). The LB schedule becomes
  /// wall-clock-dependent — structural invariants hold, bytes do not.
  kMeasured,
};

/// Parse "model" | "measured" (the `--trigger-source` vocabulary); throws
/// std::invalid_argument on anything else.
[[nodiscard]] TriggerSource trigger_source_from_name(const std::string& name);
[[nodiscard]] std::string trigger_source_name(TriggerSource source);

/// Which measured signal a measured-source trigger fires on.
enum class TriggerCriterion {
  /// Zhai-style degradation accounting on the measured iteration maxima,
  /// thresholded at the measured average LB-step cost (Algorithm 1 run on
  /// the real clock).
  kDegradation,
  /// The timing-based fractional load imbalance (max − avg)/avg over the
  /// gathered per-rank burn times, thresholded at `fli_threshold` — the
  /// classic reactive imbalance test (cf. Mohammed et al.'s two-level DLB).
  kFli,
};

/// Parse "degradation" | "fli" (the `--trigger-criterion` vocabulary);
/// throws std::invalid_argument on anything else.
[[nodiscard]] TriggerCriterion trigger_criterion_from_name(
    const std::string& name);
[[nodiscard]] std::string trigger_criterion_name(TriggerCriterion criterion);

struct AppConfig {
  std::int64_t pe_count = 32;
  std::int64_t columns_per_pe = 1000;  ///< paper: 1000 (1 M cells/PE)
  std::int64_t rows = 1000;            ///< paper: 1000
  std::int64_t rock_radius = 250;      ///< paper: 250
  std::int64_t strong_rock_count = 1;  ///< paper sweeps 1–3
  double weak_probability = 0.02;      ///< paper: 0.02
  double strong_probability = 0.4;     ///< paper: 0.4
  double flop_per_cell = 52.0;         ///< [14]: 52–1165 FLOP per cell
  double bytes_per_cell = 64.0;
  std::int64_t iterations = 400;
  double flops = 1e9;  ///< PE speed ω
  Method method = Method::kStandard;
  double alpha = 0.4;  ///< paper's Figure-4 value
  double zscore_threshold = 3.0;
  std::int64_t gossip_fanout = 2;
  double wir_smoothing = 0.5;  ///< EMA factor on raw per-iteration WIR
  /// Replace epidemic WIR dissemination with a zero-cost instant broadcast:
  /// every database is perfectly fresh each iteration and no gossip traffic
  /// is charged. The staleness-free reference of the gossip ablation.
  bool oracle_wir = false;
  bsp::CommModel comm{};
  std::uint64_t seed = 1;
  /// Host threads stepping the erosion dynamics (the counter kernel's
  /// pool). The trajectory is bit-identical for every value; 1 steps
  /// inline on the calling thread.
  std::int64_t threads = 1;
  /// Add Eq. (11)'s anticipated underloading overhead to the trigger
  /// threshold (ULBA only) — §III-C: "the load balancer is called every time
  /// the degradation … overcomes the average LB cost plus the overhead of
  /// ULBA".
  bool anticipate_overhead_in_trigger = true;

  TriggerMode trigger_mode = TriggerMode::kAdaptive;
  std::int64_t lb_period = 50;  ///< used by TriggerMode::kPeriodic

  /// Cutting algorithm, by lb::make_partitioner name: "greedy" (the paper's
  /// §IV-B stripe technique), "rcb", "optimal" (E-X5), or "stripe" (even
  /// widths). Drives the centralized LB technique's cuts and — when
  /// `ranks` > 1 — the rank-stripe recuts of the distributed stepper.
  std::string partitioner = "greedy-scan";

  /// SPMD ranks stepping the erosion dynamics through the message-passing
  /// runtime (erosion::DistributedDomain): each rank owns a contiguous
  /// column stripe plus the discs centered in it — no shared state — and
  /// halo deltas, frontier metadata, and LB-step migrations travel as real
  /// runtime::Mailbox messages. 1 = the in-process ErosionDomain. The
  /// trajectory and the final report are bit-identical to the serial run
  /// for every (ranks, partitioner, threads) combination; `threads` > 1
  /// gives each rank its own stepping pool.
  std::int64_t ranks = 1;

  /// Per-step exchange protocol of the distributed stepper, by
  /// erosion::exchange_mode_from_name name: "neighbor" (default — halo
  /// deltas travel only to the ranks the partition cut makes halo
  /// neighbors, global counters via one reduction + broadcast) or
  /// "alltoall" (the O(ranks²) reference). The trajectory is bit-identical
  /// either way; only the message count differs.
  std::string exchange = "neighbor";

  /// Decomposition of the distributed stepper (ranks > 1): "stripes" — the
  /// default 1D contiguous column stripes — or "grid", the 2D rows x
  /// columns tile decomposition (erosion::GridOptions): each rank owns one
  /// rectangular tile plus the discs centered in it, and halo deltas flow
  /// to edge AND corner neighbor tiles. The gathered monitoring weights of
  /// a grid run come from a rank-0 monitor fed by integer deltas, so the
  /// whole RunResult trajectory stays bit-identical to the serial run for
  /// every grid shape.
  std::string decomp = "stripes";
  /// Grid shape request (decomp == "grid"): 0 = derive that dimension
  /// (both 0 = near-square factorization of `ranks`). A non-factorable
  /// request (grid_rows * grid_cols != ranks) is rejected, never adjusted.
  std::int64_t grid_rows = 0;
  std::int64_t grid_cols = 0;
  /// Grid mode: rebalance by nudging the existing row/column boundaries
  /// with the damped per-dimension tuner (hoomd-blue LoadBalancer style —
  /// inverse-imbalance rescale, movement capped at `tuner_cap` of the
  /// adjacent tile extent per rebalance, at most `tuner_maxiter` refinement
  /// passes, no-op within `tuner_tol`) instead of a fresh partitioner recut.
  bool tuner = false;
  double tuner_cap = 0.05;
  std::int64_t tuner_maxiter = 8;
  double tuner_tol = 1.02;
  /// Phase of the periodic trigger: balance when (iter + 1) % lb_period ==
  /// lb_phase. 0 keeps the historical cadence.
  std::int64_t lb_phase = 0;

  /// Measured-time distributed mode (requires ranks > 1): every rank
  /// additionally burns real CPU proportional to its stripe's workload each
  /// iteration (support::burn at `ns_scale`) and to its migration payload
  /// at each LB step (× `migration_scale`), and the run reports
  /// steady_clock measurements in RunResult::measured — while, under the
  /// default TriggerSource::kModel, the LB verdicts keep coming from the
  /// virtual-time controller, so the dynamics (eroded cells, LB schedule,
  /// the whole virtual RunResult) stay bit-identical to the model-time run
  /// of the same seed.
  bool measure_time = false;
  /// Busy-loop multiply-adds per unit of cell workload (measured mode).
  double ns_scale = 4.0;
  /// Real CPU cost factor per migrated payload byte (measured mode).
  double migration_scale = 8.0;
  /// Multiplicative burn noise of the measured mode, in [0, 1): each rank's
  /// per-iteration burn workload is scaled by 1 + noise·u with u uniform on
  /// [−1, 1), drawn position-addressed from a dedicated CounterRng stream at
  /// (rank, iteration) — deterministic per seed, independent of the
  /// dynamics streams. Models multi-tenant interference; the knob the
  /// anticipation-vs-reactive falsification sweep turns. 0 = no noise.
  double mt_noise = 0.0;
  /// Which clock feeds the LB trigger (see TriggerSource). kMeasured
  /// requires measured mode and the adaptive trigger.
  TriggerSource trigger_source = TriggerSource::kModel;
  /// Which measured signal a kMeasured trigger fires on (see
  /// TriggerCriterion). Ignored under kModel.
  TriggerCriterion trigger_criterion = TriggerCriterion::kDegradation;
  /// Firing threshold of TriggerCriterion::kFli: balance when the measured
  /// fractional load imbalance (max − avg)/avg reaches this value.
  double fli_threshold = 0.25;

  /// E-X4 extension (the paper's future-work item): how ULBA adapts α at
  /// each LB step from the gossip-estimated overloading state. The policy
  /// also feeds the adaptive trigger's Eq. (11) overhead term, so trigger
  /// and LB step agree on the α about to be applied.
  AlphaPolicy alpha_policy = AlphaPolicy::kFixed;

  /// RNG discipline of the erosion dynamics (see RngKind): the counter
  /// kernel, whose single trajectory is invariant across `threads` and
  /// `ranks` and independent of LB decisions.
  RngKind rng_kind = RngKind::kCounter;

  void validate() const;

  /// Derived: domain width = pe_count · columns_per_pe.
  [[nodiscard]] std::int64_t columns() const noexcept {
    return pe_count * columns_per_pe;
  }
};

/// Per-iteration trace entry (Figure 4b's raw material).
struct IterationRecord {
  double seconds = 0.0;
  double utilization = 0.0;   ///< mean(load)/max(load) of this iteration
  bool lb_performed = false;  ///< an LB step followed this iteration
  double degradation = 0.0;   ///< trigger accumulator after this iteration
  /// The threshold the adaptive trigger compared `degradation` against this
  /// iteration: average LB cost, plus — for ULBA with
  /// `anticipate_overhead_in_trigger` — the Eq. (11) overhead at the α the
  /// configured AlphaPolicy would apply right now.
  double threshold = 0.0;
};

/// Wall-clock measurements of the measured-time distributed mode
/// (AppConfig::measure_time): everything here comes from steady_clock on
/// the SPMD runtime — iteration maxima, the measured degradation the
/// adaptive trigger would see, and the cost of each real LB step (gather +
/// Algorithm-2 + column/disc migration messages + migration burn). All-zero
/// when measured mode is off. The virtual-time fields of the enclosing
/// RunResult are bit-identical with and without measured mode.
struct MeasuredTimes {
  double wall_seconds = 0.0;       ///< main rank, whole-run steady_clock
  double compute_seconds = 0.0;    ///< Σ iteration_seconds
  double lb_seconds = 0.0;         ///< Σ lb_step_seconds
  double migration_seconds = 0.0;  ///< Σ allreduced-max migration portions
  /// Mean over CONTRIBUTING iterations of Σ/(R·max) — iterations whose max
  /// burn rounded to zero are excluded from numerator AND denominator.
  double utilization = 0.0;
  std::vector<double> iteration_seconds;  ///< allreduced max, per iteration
  std::vector<double> degradation;  ///< measured-trigger trace, per iteration
  /// Timing-based fractional load imbalance (max − avg)/avg over the
  /// gathered per-rank burn times, per iteration (length == iterations) —
  /// the signal `--trigger-criterion fli` fires on.
  std::vector<double> fli;
  std::vector<double> lb_step_seconds;  ///< parallel to lb_iterations
};

struct RunResult {
  double total_seconds = 0.0;    ///< virtual wall clock incl. LB steps
  double compute_seconds = 0.0;  ///< Σ iteration times
  double lb_seconds = 0.0;       ///< Σ LB step costs
  std::int64_t lb_count = 0;
  std::int64_t fallback_count = 0;  ///< ULBA steps demoted by the ≥50 % rule
  double average_utilization = 0.0;  ///< machine-wide busy/(P·elapsed)
  std::int64_t eroded_cells = 0;
  double final_imbalance = 0.0;  ///< max/avg stripe load at the end
  std::vector<IterationRecord> iterations;
  std::vector<std::int64_t> lb_iterations;
  /// α applied at each LB step, from the main PE's database view (parallel
  /// to lb_iterations). config.alpha under AlphaPolicy::kFixed; what the
  /// policy chose otherwise. Always 0 under Method::kStandard.
  std::vector<double> lb_alphas;
  /// Distributed stepping only (ranks > 1): discs that changed rank across
  /// all rank-stripe recuts, the summed analytic migration volume of those
  /// recuts, and the real message payload bytes the migrations put on the
  /// wire (column weights + serialized disc states).
  std::int64_t rank_discs_moved = 0;
  double rank_migration_bytes = 0.0;
  double rank_observed_bytes = 0.0;
  /// Distributed stepping only: per-step exchange traffic summed over all
  /// ranks and iterations (halo + reduction/broadcast legs) — the numbers
  /// the "neighbor" and "alltoall" exchange modes are compared on.
  std::int64_t rank_step_messages = 0;
  double rank_step_bytes = 0.0;
  /// Distributed stepping only: the HemoCell-style fractional load
  /// imbalance (max rank load − avg)/avg of the FINAL decomposition, over
  /// per-rank sums of the local (stripe or tile-partial) weights — the
  /// number the damped grid tuner drives down. 0 when perfectly balanced.
  double rank_fractional_imbalance = 0.0;
  /// Grid decomposition with the tuner only: Σ tuner refinement passes over
  /// all rebalances (both dimensions).
  std::int64_t grid_tuner_iterations = 0;
  /// Measured-time distributed mode only (AppConfig::measure_time).
  MeasuredTimes measured;
};

class ErosionApp {
 public:
  explicit ErosionApp(AppConfig config);

  [[nodiscard]] const AppConfig& config() const noexcept { return config_; }

  /// Build the domain this config describes: pe_count discs of the given
  /// radius, centered in each initial stripe, `strong_rock_count` of them
  /// strongly erodible (chosen by the placement stream of `seed`).
  [[nodiscard]] DomainConfig make_domain() const;

  /// Execute the full run. Deterministic for a given config.
  [[nodiscard]] RunResult run() const;

 private:
  AppConfig config_;
};

/// Run every config (each validated first); results come back in input
/// order, each equal to `ErosionApp(config).run()`. Configs whose dynamics
/// are identical (see the header comment) step in lockstep on one domain;
/// distributed configs run alone.
[[nodiscard]] std::vector<RunResult> run_all(
    std::span<const AppConfig> configs);

}  // namespace ulba::erosion
