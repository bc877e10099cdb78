#include "cli/scenarios.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "cli/serve_driver.hpp"
#include "cli/sweep.hpp"
#include "core/instance.hpp"
#include "core/intervals.hpp"
#include "core/schedule.hpp"
#include "core/schedule_query.hpp"
#include "erosion/app.hpp"
#include "lb/grid.hpp"
#include "lb/partitioners.hpp"
#include "opt/dp_optimal.hpp"
#include "opt/evaluate.hpp"
#include "support/histogram.hpp"
#include "support/require.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/text_plot.hpp"

namespace ulba::cli {

namespace {

/// Union of the shared ModelParams flags and `extra`.
std::set<std::string> with_model_flags(std::set<std::string> extra) {
  const auto& shared = model_param_flags();
  extra.insert(shared.begin(), shared.end());
  return extra;
}

/// One-line timeline of a schedule: '|' = LB step, '.' = plain iteration.
std::string timeline(const core::Schedule& s) {
  std::string line(static_cast<std::size_t>(s.gamma()), '.');
  for (auto step : s.steps()) line[static_cast<std::size_t>(step)] = '|';
  return line;
}

/// The standard method and ULBA on `cfg`, in that order. They share the
/// dynamics: run_all steps them once for both (in-process runs) or runs
/// each method alone (distributed runs).
std::vector<erosion::RunResult> run_both_methods(
    const erosion::AppConfig& cfg) {
  std::array<erosion::AppConfig, 2> pair{cfg, cfg};
  pair[0].method = erosion::Method::kStandard;
  pair[1].method = erosion::Method::kUlba;
  return erosion::run_all(pair);
}

}  // namespace

core::ModelParams quickstart_defaults() {
  core::ModelParams p;
  p.P = 512;
  p.N = 32;
  p.gamma = 100;
  p.omega = 1e9;
  p.w0 = 3e9 * static_cast<double>(p.P);
  p.a = 6e4;
  p.m = 3e7;
  p.alpha = 0.5;
  p.lb_cost = 1.5;
  return p;
}

core::ModelParams intervals_defaults() {
  core::ModelParams p;
  p.P = 1024;
  p.N = 48;
  p.gamma = 100;
  p.omega = 1e9;
  p.w0 = 4e9 * static_cast<double>(p.P);
  p.a = 1e5;
  p.m = 2e7;
  p.lb_cost = 2.0;
  p.alpha = 0.0;
  return p;
}

int run_quickstart(const FlagMap& flags, std::ostream& out) {
  flags.require_known(
      with_model_flags({"threads", "ranks", "partitioner", "seed"}));
  const core::ModelParams p =
      parse_model_params(flags, quickstart_defaults());
  const std::uint64_t seed = flags.get_seed("seed", 11);
  const std::int64_t threads = flags.get_int("threads", 1);
  const std::int64_t ranks = flags.get_int("ranks", 1);
  const std::string partitioner = flags.get_string("partitioner", "greedy");
  ULBA_REQUIRE(threads >= 1 && threads <= 256,
               "--threads must be in [1, 256]");
  ULBA_REQUIRE(ranks >= 1 && ranks <= 16, "--ranks must be in [1, 16]");
  // Reject bad names before any of the analytic report is streamed.
  (void)lb::make_partitioner(partitioner);

  out << "Application: P=" << p.P << " PEs, N=" << p.N
      << " overloading, gamma=" << p.gamma << "\n"
      << "  dW = " << p.delta_w() << " FLOP/iter, m_hat = " << p.m_hat()
      << ", a_hat = " << p.a_hat() << "\n\n";

  out << "Menon tau (standard method)   : every " << core::menon_tau(p)
      << " iterations\n";
  const core::IntervalBounds b =
      core::interval_bounds(p, 0, p.alpha, p.alpha);
  out << "ULBA sigma- (no degradation)  : " << b.lower << " iterations\n"
      << "ULBA sigma+ (recommended)     : " << b.upper << " iterations\n\n";

  const core::ScheduleCost t_std =
      core::evaluate_standard(p, core::menon_schedule(p));
  const core::ScheduleCost t_ulba =
      core::evaluate_ulba(p, core::sigma_plus_schedule(p));
  out << "standard method  : " << t_std.total_seconds << " s  ("
      << t_std.lb_count << " LB calls)\n"
      << "ULBA, alpha=" << p.alpha << ": " << t_ulba.total_seconds << " s  ("
      << t_ulba.lb_count << " LB calls)\n"
      << "anticipation gain: "
      << (t_std.total_seconds - t_ulba.total_seconds) / t_std.total_seconds *
             100.0
      << " %\n";

  // The model in practice: a miniature §IV-B erosion run (--seed, default
  // 11 like the other erosion subcommands; the shared Table-II comm
  // calibration of scaled_app_config, geometry scaled down further),
  // stepped on `--threads` host threads; the virtual-time result is the
  // same for every thread count (see AppConfig::threads).
  erosion::AppConfig mini =
      scaled_app_config(16, 1, erosion::Method::kStandard, seed);
  mini.columns_per_pe = 64;
  mini.rows = 96;
  mini.rock_radius = 24;
  mini.iterations = 120;
  mini.alpha = p.alpha;
  mini.threads = threads;
  mini.ranks = ranks;
  mini.partitioner = partitioner;
  mini.validate();
  const std::vector<erosion::RunResult> mini_runs = run_both_methods(mini);
  const erosion::RunResult& mini_std = mini_runs[0];
  const erosion::RunResult& mini_ulba = mini_runs[1];
  out << "\nin practice (mini erosion run: 16 PEs, seed " << mini.seed
      << ", " << threads << " thread(s)";
  if (ranks > 1) out << ", " << ranks << " SPMD ranks via " << partitioner;
  out << "):\n"
      << "  standard : " << mini_std.total_seconds << " s  ("
      << mini_std.lb_count << " LB calls)\n"
      << "  ULBA     : " << mini_ulba.total_seconds << " s  ("
      << mini_ulba.lb_count << " LB calls)\n"
      << "  simulated gain: "
      << (mini_std.total_seconds - mini_ulba.total_seconds) /
             mini_std.total_seconds * 100.0
      << " %\n";
  return 0;
}

int run_erosion(const FlagMap& flags, std::ostream& out) {
  flags.require_known({"mt", "pes", "strong", "seed", "iterations", "alpha",
                       "columns-per-pe", "rows", "rock-radius", "threads",
                       "ranks", "partitioner", "exchange",
                       "ns-scale", "migration-scale", "rng", "decomp", "grid",
                       "tuner", "tuner-cap", "tuner-maxiter", "tuner-tol",
                       "trigger-source", "trigger-criterion", "fli-threshold",
                       "noise"});
  const bool mt = flags.has("mt");
  const std::int64_t pe_count = flags.get_int("pes", mt ? 8 : 32);
  const std::int64_t strong = flags.get_int("strong", 1);
  const std::uint64_t seed = flags.get_seed("seed", 11);
  const double alpha = flags.get_double("alpha", 0.4);
  const std::int64_t threads = flags.get_int("threads", 1);
  const std::int64_t ranks = flags.get_int("ranks", 1);
  const std::string partitioner = flags.get_string("partitioner", "greedy");
  const std::string exchange = flags.get_string("exchange", "neighbor");
  const erosion::RngKind rng_kind =
      erosion::rng_kind_from_name(flags.get_string("rng", "counter"));
  const double ns_scale = flags.get_double("ns-scale", 4.0);
  const double migration_scale = flags.get_double("migration-scale", 8.0);
  const std::string decomp = flags.get_string("decomp", "stripes");
  const bool tuner = flags.has("tuner");
  const erosion::TriggerSource trigger_source =
      erosion::trigger_source_from_name(
          flags.get_string("trigger-source", "model"));
  const erosion::TriggerCriterion trigger_criterion =
      erosion::trigger_criterion_from_name(
          flags.get_string("trigger-criterion", "degradation"));
  const double fli_threshold = flags.get_double("fli-threshold", 0.25);
  const double noise = flags.get_double("noise", 0.0);
  ULBA_REQUIRE(pe_count >= 2, "--pes must be at least 2");
  ULBA_REQUIRE(strong >= 1 && strong <= pe_count,
               "--strong must be in [1, pes]");
  ULBA_REQUIRE(alpha > 0.0 && alpha <= 1.0, "--alpha must be in (0, 1]");
  ULBA_REQUIRE(threads >= 1 && threads <= 256,
               "--threads must be in [1, 256]");
  ULBA_REQUIRE(ranks >= 1 && ranks <= 64, "--ranks must be in [1, 64]");
  ULBA_REQUIRE(ns_scale > 0.0 && migration_scale >= 0.0,
               "--ns-scale must be positive, --migration-scale "
               "nonnegative");
  ULBA_REQUIRE(!mt || ranks > 1,
               "--mt measures the SPMD runtime; pass --ranks R (R > 1)");
  ULBA_REQUIRE(mt || (!flags.has("ns-scale") && !flags.has("migration-scale")),
               "--ns-scale/--migration-scale calibrate measured-time "
               "runs; pass --mt");
  ULBA_REQUIRE(!flags.has("exchange") || ranks > 1,
               "--exchange routes the distributed step exchange; pass "
               "--ranks");
  // The measured trigger source closes the LB loop on real steady_clock
  // timings, which only the measured-time mode produces.
  ULBA_REQUIRE(trigger_source == erosion::TriggerSource::kModel || mt,
               "--trigger-source measured feeds the LB trigger from real "
               "timings; pass --ranks with --mt");
  ULBA_REQUIRE(!flags.has("trigger-criterion") ||
                   trigger_source == erosion::TriggerSource::kMeasured,
               "--trigger-criterion selects the measured trigger's "
               "signal; pass --trigger-source measured");
  ULBA_REQUIRE(!flags.has("fli-threshold") ||
                   trigger_criterion == erosion::TriggerCriterion::kFli,
               "--fli-threshold calibrates the fli criterion; pass "
               "--trigger-criterion fli");
  ULBA_REQUIRE(!flags.has("noise") || mt,
               "--noise perturbs the measured-time burns; pass --ranks "
               "with --mt");
  ULBA_REQUIRE(decomp == "stripes" || decomp == "grid",
               "--decomp must be 'stripes' or 'grid'");
  ULBA_REQUIRE(decomp == "stripes" || ranks > 1,
               "--decomp grid runs over the SPMD runtime; pass --ranks");
  ULBA_REQUIRE(decomp == "grid" || !flags.has("grid"),
               "--grid shapes the 2D tile decomposition; pass --decomp "
               "grid");
  ULBA_REQUIRE(decomp == "grid" ||
                   (!tuner && !flags.has("tuner-cap") &&
                    !flags.has("tuner-maxiter") && !flags.has("tuner-tol")),
               "--tuner and its knobs drive the grid decomposition's "
               "damped rebalancing; pass --decomp grid");
  ULBA_REQUIRE(tuner || (!flags.has("tuner-cap") &&
                         !flags.has("tuner-maxiter") &&
                         !flags.has("tuner-tol")),
               "--tuner-cap/--tuner-maxiter/--tuner-tol calibrate the "
               "boundary tuner; pass --tuner");
  std::int64_t grid_rows = 0, grid_cols = 0;
  if (flags.has("grid")) {
    // Non-factorable shapes (rows * cols != ranks) are rejected by
    // AppConfig::validate via lb::resolve_grid_shape below.
    const lb::GridShape shape =
        lb::parse_grid_shape(flags.get_string("grid", ""));
    grid_rows = shape.rows;
    grid_cols = shape.cols;
  }

  erosion::AppConfig cfg;
  cfg.pe_count = pe_count;
  cfg.strong_rock_count = strong;
  cfg.seed = seed;
  cfg.alpha = alpha;
  cfg.columns_per_pe = flags.get_int("columns-per-pe", 256);
  cfg.rows = flags.get_int("rows", 384);
  cfg.rock_radius = flags.get_int("rock-radius", 96);
  cfg.iterations = flags.get_int("iterations", 180);
  cfg.bytes_per_cell = 256.0;
  cfg.comm.latency_s = 1e-4;
  cfg.comm.bandwidth_Bps = 2e9;
  cfg.threads = threads;
  cfg.ranks = ranks;
  cfg.partitioner = partitioner;
  cfg.exchange = exchange;
  cfg.measure_time = mt;
  cfg.ns_scale = ns_scale;
  cfg.migration_scale = migration_scale;
  cfg.mt_noise = noise;
  cfg.trigger_source = trigger_source;
  cfg.trigger_criterion = trigger_criterion;
  cfg.fli_threshold = fli_threshold;
  cfg.rng_kind = rng_kind;
  cfg.decomp = decomp;
  cfg.grid_rows = grid_rows;
  cfg.grid_cols = grid_cols;
  cfg.tuner = tuner;
  cfg.tuner_cap = flags.get_double("tuner-cap", 0.05);
  cfg.tuner_maxiter = flags.get_int("tuner-maxiter", 8);
  cfg.tuner_tol = flags.get_double("tuner-tol", 1.02);
  cfg.validate();

  out << "Erosion demo: " << cfg.pe_count << " PEs, "
      << cfg.strong_rock_count << " strongly erodible rock(s), seed "
      << cfg.seed << "\n"
      << "(domain " << cfg.columns() << "x" << cfg.rows
      << " cells, rock radius " << cfg.rock_radius << ", alpha = "
      << cfg.alpha << ", " << cfg.threads << " stepping thread(s))\n";
  out << "(counter-based RNG: Philox draws addressed by (disc, iteration, "
         "cell); one trajectory for every threads/shards/ranks "
         "combination)\n";
  if (cfg.ranks > 1 && cfg.decomp == "grid") {
    const lb::GridShape shape =
        lb::resolve_grid_shape(cfg.ranks, cfg.grid_rows, cfg.grid_cols);
    out << "(distributed stepping: " << cfg.ranks << " SPMD ranks, "
        << shape.rows << "x" << shape.cols << " tile grid cut by "
        << cfg.partitioner << ", " << cfg.exchange
        << " step exchange, 2D edge+corner halos; trajectory bit-identical "
           "to the serial run)\n";
    if (cfg.tuner)
      out << "(damped boundary tuner: cap " << cfg.tuner_cap << ", max "
          << cfg.tuner_maxiter << " passes per rebalance, tolerance "
          << cfg.tuner_tol << ")\n";
  } else if (cfg.ranks > 1) {
    out << "(distributed stepping: " << cfg.ranks
        << " SPMD ranks, stripes cut by " << cfg.partitioner << ", "
        << cfg.exchange
        << " step exchange, real halo/migration messages; trajectory "
           "bit-identical to the serial run)\n";
  }
  if (cfg.measure_time) {
    out << "(measured time: each rank burns real CPU, ns_scale "
        << cfg.ns_scale << ", migration_scale " << cfg.migration_scale;
    if (cfg.mt_noise > 0.0)
      out << ", burn noise +/-" << cfg.mt_noise * 100.0 << " %";
    if (cfg.trigger_source == erosion::TriggerSource::kMeasured)
      out << ";\n trigger source MEASURED ["
          << erosion::trigger_criterion_name(cfg.trigger_criterion)
          << (cfg.trigger_criterion == erosion::TriggerCriterion::kFli
                  ? " >= " + support::Table::num(cfg.fli_threshold, 2)
                  : "")
          << "]: the LB schedule follows the real clock)\n";
    else
      out << "; the LB schedule still comes from the virtual-time "
             "trigger)\n";
  }
  out << "\n";

  const std::vector<erosion::RunResult> runs = run_both_methods(cfg);
  const erosion::RunResult& std_run = runs[0];
  const erosion::RunResult& ulba_run = runs[1];

  const auto report = [&out](const char* name, const erosion::RunResult& r) {
    out << name << "\n"
        << "  total time      : " << r.total_seconds
        << " virtual s (compute " << r.compute_seconds << " + LB "
        << r.lb_seconds << ")\n"
        << "  LB calls        : " << r.lb_count << "\n"
        << "  avg utilization : " << r.average_utilization * 100.0 << " %\n";
    std::vector<double> util;
    util.reserve(r.iterations.size());
    for (const auto& rec : r.iterations) util.push_back(rec.utilization);
    out << "  utilization     : " << support::sparkline(util) << "\n\n";
  };
  report("standard LB method (adaptive trigger of Zhai et al.):", std_run);
  report("ULBA (anticipatory underloading):", ulba_run);

  if (cfg.ranks > 1) {
    out << "rank migration (real messages, one stripe recut per LB step):\n"
        << "  standard : " << std_run.rank_discs_moved << " disc move(s), "
        << std_run.rank_migration_bytes / 1e6 << " MB modeled, "
        << std_run.rank_observed_bytes / 1e6 << " MB on the wire\n"
        << "  ULBA     : " << ulba_run.rank_discs_moved << " disc move(s), "
        << ulba_run.rank_migration_bytes / 1e6 << " MB modeled, "
        << ulba_run.rank_observed_bytes / 1e6 << " MB on the wire\n\n";
    out << "per-step exchange (" << cfg.exchange << " mode, whole run):\n"
        << "  standard : " << std_run.rank_step_messages << " messages, "
        << std_run.rank_step_bytes / 1e6 << " MB\n"
        << "  ULBA     : " << ulba_run.rank_step_messages << " messages, "
        << ulba_run.rank_step_bytes / 1e6 << " MB\n\n";
    if (cfg.decomp == "grid") {
      out << "grid decomposition (final (max-avg)/avg rank imbalance; tuner "
             "passes):\n"
          << "  standard : " << std_run.rank_fractional_imbalance << ", "
          << std_run.grid_tuner_iterations << " tuner pass(es)\n"
          << "  ULBA     : " << ulba_run.rank_fractional_imbalance << ", "
          << ulba_run.grid_tuner_iterations << " tuner pass(es)\n\n";
    }
  }

  if (cfg.measure_time) {
    const auto mean_of = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : support::mean(v);
    };
    const auto mreport = [&out, &mean_of](const char* name,
                                          const erosion::RunResult& r) {
      out << name << "\n"
          << "  wall clock       : " << r.measured.wall_seconds
          << " s measured (compute " << r.measured.compute_seconds
          << " + LB " << r.measured.lb_seconds << ")\n"
          << "  LB steps         : " << r.measured.lb_step_seconds.size()
          << " measured, mean cost " << mean_of(r.measured.lb_step_seconds)
          << " s (migration " << r.measured.migration_seconds << " s)\n"
          << "  mean utilization : " << r.measured.utilization * 100.0
          << " %\n"
          << "  iteration times  : "
          << support::sparkline(r.measured.iteration_seconds) << "\n"
          << "  fractional imbal : " << support::sparkline(r.measured.fli)
          << " (mean " << mean_of(r.measured.fli) << ")\n\n";
    };
    out << "measured wall clock (steady_clock on the SPMD ranks):\n\n";
    mreport("standard:", std_run);
    mreport("ULBA:", ulba_run);

    // A run can finish with zero (or non-finite) model seconds in a bucket
    // — e.g. no LB step ever fired. Report 0 instead of inf/NaN.
    const auto ratio = [](double measured, double model) {
      const double r = model > 0.0 ? measured / model : 0.0;
      return std::isfinite(r) ? r : 0.0;
    };
    out << "measured vs model (same runs — the virtual-time numbers above "
           "are their model track):\n"
        << "  compute seconds, measured/model : standard "
        << ratio(std_run.measured.compute_seconds, std_run.compute_seconds)
        << ", ULBA "
        << ratio(ulba_run.measured.compute_seconds, ulba_run.compute_seconds)
        << "\n"
        << "  LB seconds, measured/model      : standard "
        << ratio(std_run.measured.lb_seconds, std_run.lb_seconds)
        << ", ULBA "
        << ratio(ulba_run.measured.lb_seconds, ulba_run.lb_seconds) << "\n"
        << "  (a constant compute ratio means the alpha-beta model prices "
           "iterations faithfully;\n   the LB ratio folds in what the model "
           "cannot see — packing, queueing, host noise)\n";
    if (cfg.trigger_source == erosion::TriggerSource::kModel)
      out << "  dynamics: eroded cells and the LB schedule are bit-identical "
             "to the model-time run\n   (the trigger consumes virtual times "
             "only; measurements ride alongside)\n\n";
    else
      out << "  dynamics: eroded cells are bit-identical to the model-time "
             "run (LB-independent);\n   the LB schedule follows the measured "
             "trigger and is wall-clock-dependent\n\n";
  }

  out << "==> ULBA gain: "
      << (std_run.total_seconds - ulba_run.total_seconds) /
             std_run.total_seconds * 100.0
      << " % wall clock, "
      << (ulba_run.average_utilization - std_run.average_utilization) * 100.0
      << " pp utilization, " << std_run.lb_count - ulba_run.lb_count
      << " fewer LB calls\n";
  return 0;
}

int run_intervals(const FlagMap& flags, std::ostream& out) {
  flags.require_known(with_model_flags({"alpha-steps", "dp"}));
  const core::ModelParams p =
      parse_model_params(flags, intervals_defaults());
  const std::int64_t steps = flags.get_int("alpha-steps", 10);
  ULBA_REQUIRE(steps >= 1 && steps <= 1000,
               "--alpha-steps must be in [1, 1000]");
  const std::string dp = flags.get_string("dp", "on");
  ULBA_REQUIRE(dp == "on" || dp == "off", "--dp expects 'on' or 'off'");

  out << "Model: P=" << p.P << ", N=" << p.N << ", gamma=" << p.gamma
      << ", C=" << p.lb_cost << "s, tau_Menon=" << core::menon_tau(p)
      << "\n\n";

  support::Table table({"alpha", "sigma-", "sigma+", "LB calls",
                        "T total [s]", "vs standard"});
  const double t_std =
      core::evaluate_standard(p, core::menon_schedule(p)).total_seconds;

  double best_alpha = 0.0, best_time = t_std;
  for (std::int64_t i = 0; i <= steps; ++i) {
    core::ModelParams q = p;
    q.alpha = static_cast<double>(i) / static_cast<double>(steps);
    const auto bounds = core::interval_bounds(q, 0, q.alpha, q.alpha);
    const auto schedule = core::sigma_plus_schedule(q);
    const double t = core::evaluate_ulba(q, schedule).total_seconds;
    if (t < best_time) {
      best_time = t;
      best_alpha = q.alpha;
    }
    table.add_row({support::Table::num(q.alpha, 2),
                   std::to_string(bounds.lower),
                   support::Table::num(bounds.upper, 1),
                   std::to_string(schedule.lb_count()),
                   support::Table::num(t, 2),
                   support::Table::pct((t_std - t) / t_std, 2)});
  }
  out << table.render(2) << "\n";

  core::ModelParams q = p;
  q.alpha = best_alpha;
  const auto sigma_sched = core::sigma_plus_schedule(q);
  out << "best alpha = " << best_alpha << "\n"
      << "  sigma+ schedule  " << timeline(sigma_sched) << "   ("
      << core::evaluate_ulba(q, sigma_sched).total_seconds << " s)\n";
  if (dp == "on") {
    const auto dp = opt::optimal_schedule(q, opt::CostModel::kUlba);
    out << "  DP optimum       " << timeline(dp.schedule) << "   ("
        << dp.total_seconds << " s)\n";
  }
  out << "  standard (tau)   " << timeline(core::menon_schedule(p)) << "   ("
      << t_std << " s)\n"
      << "\n('|' marks an LB step along the " << p.gamma << " iterations)\n";
  return 0;
}

int run_alpha_tuning(const FlagMap& flags, std::ostream& out) {
  flags.require_known(
      with_model_flags({"alpha-min", "alpha-max", "alpha-step"}));
  const core::ModelParams base =
      parse_model_params(flags, quickstart_defaults());
  const double lo = flags.get_double("alpha-min", 0.05);
  const double hi = flags.get_double("alpha-max", 1.0);
  const double step = flags.get_double("alpha-step", 0.05);
  ULBA_REQUIRE(lo > 0.0 && lo <= 1.0, "--alpha-min must be in (0, 1]");
  ULBA_REQUIRE(hi >= lo && hi <= 1.0, "--alpha-max must be in [alpha-min, 1]");
  ULBA_REQUIRE(step > 0.0, "--alpha-step must be positive");

  out << "Alpha tuning: P=" << base.P << ", N=" << base.N
      << ", gamma=" << base.gamma << ", C=" << base.lb_cost << "s\n"
      << "(sweeping alpha in [" << lo << ", " << hi << "] by " << step
      << "; sigma+ schedule per alpha, Eq. (4)/(5) evaluation)\n\n";

  // One ScheduleRequest carries the whole sweep; the response's grid rows
  // are the per-alpha sigma+ evaluations the loop below used to compute.
  core::ScheduleRequest request;
  request.mode = core::EvalMode::kSigmaGrid;
  request.params = base;
  for (double a = lo; a <= hi + 1e-12; a += step)
    request.alpha_grid.push_back(std::min(a, 1.0));
  const core::ScheduleResponse response =
      opt::evaluate_schedule_request(request);
  const double t_std = response.standard_seconds;

  support::Table table({"alpha", "LB calls", "T total [s]", "gain"});
  std::vector<double> gains;
  std::vector<double> alphas;
  // Local best scan over the swept alphas only: the response's best_alpha
  // seeds from the alpha=0 standard fallback, which this sweep excludes.
  double best_alpha = lo, best_time = std::numeric_limits<double>::infinity();
  for (const core::GridPointEval& point : response.grid) {
    const double t = point.total_seconds;
    const double gain = (t_std - t) / t_std;
    if (t < best_time) {
      best_time = t;
      best_alpha = point.alpha;
    }
    alphas.push_back(point.alpha);
    gains.push_back(gain * 100.0);
    table.add_row({support::Table::num(point.alpha, 2),
                   std::to_string(point.lb_count),
                   support::Table::num(t, 2), support::Table::pct(gain, 2)});
  }
  out << table.render(2) << "\n";
  out << "gain vs alpha [%]: " << support::sparkline(gains) << "\n";
  out << "best alpha = " << best_alpha << "  ("
      << (t_std - best_time) / t_std * 100.0 << " % over standard, "
      << t_std << " s -> " << best_time << " s)\n";
  return 0;
}

int run_gossip(const FlagMap& flags, std::ostream& out) {
  flags.require_known(
      {"pes", "strong", "seed", "seeds", "iterations", "alpha", "trials"});
  const std::int64_t pes = flags.get_int("pes", 32);
  const std::int64_t strong = flags.get_int("strong", 1);
  const std::uint64_t seed = flags.get_seed("seed", 11);
  const std::int64_t seed_count = flags.get_int("seeds", 3);
  const std::int64_t iterations = flags.get_int("iterations", 120);
  const double alpha = flags.get_double("alpha", 0.4);
  const std::int64_t trials = flags.get_int("trials", 10);
  // The latency table sweeps up to 4·pes PEs over O(P²)-memory gossip
  // networks — cap the knob so misuse fails fast instead of OOMing.
  ULBA_REQUIRE(pes >= 4 && pes <= 256, "--pes must be in [4, 256]");
  ULBA_REQUIRE(strong >= 1 && strong <= pes, "--strong must be in [1, pes]");
  ULBA_REQUIRE(seed_count >= 1 && seed_count <= 64,
               "--seeds must be in [1, 64]");
  ULBA_REQUIRE(iterations >= 8, "--iterations must be at least 8");
  ULBA_REQUIRE(alpha > 0.0 && alpha <= 1.0, "--alpha must be in (0, 1]");
  ULBA_REQUIRE(trials >= 1 && trials <= 1000, "--trials must be in [1, 1000]");

  out << "WIR-gossip ablation (paper Section III-C: one dissemination round "
         "per\niteration; the principle of persistence tolerates "
         "staleness)\n\n";

  // Part 1 — dissemination latency: rounds until every PE knows every WIR.
  std::vector<std::int64_t> fanouts;
  for (const std::int64_t f : {1, 2, 4, 8})
    if (f < pes) fanouts.push_back(f);
  const std::vector<std::int64_t> pe_counts{pes, 2 * pes, 4 * pes};
  out << "Rounds to full knowledge (median of " << trials << " trials):\n\n"
      << gossip_latency_table(pe_counts, fanouts,
                              static_cast<std::uint64_t>(trials), seed)
             .render(2)
      << "\n";

  // Part 2 — end-to-end erosion impact per fanout, against the centralized
  // zero-cost oracle (perfectly fresh WIR databases, no gossip traffic).
  erosion::AppConfig base =
      scaled_app_config(pes, strong, erosion::Method::kUlba, seed);
  base.columns_per_pe = 128;
  base.rows = 192;
  base.rock_radius = 48;
  base.iterations = iterations;
  base.alpha = alpha;
  std::vector<std::uint64_t> seeds;
  for (std::int64_t s = 0; s < seed_count; ++s)
    seeds.push_back(seed + 11 * static_cast<std::uint64_t>(s));

  erosion::AppConfig oracle_cfg = base;
  oracle_cfg.oracle_wir = true;
  const ErosionAggregate oracle = erosion_median_over_seeds(oracle_cfg, seeds);

  support::Table impact({"WIR source", "total time [s]", "LB calls",
                         "mean util", "first LB", "vs oracle"});
  impact.add_row({"oracle (centralized)",
                  support::Table::num(oracle.median_seconds, 3),
                  support::Table::num(oracle.median_lb_calls, 0),
                  support::Table::pct(oracle.median_utilization, 1),
                  support::Table::num(oracle.median_first_lb, 0), "-"});
  std::vector<double> fanout_seconds, fanout_lags;
  for (const std::int64_t f : fanouts) {
    erosion::AppConfig cfg = base;
    cfg.gossip_fanout = f;
    const ErosionAggregate agg = erosion_median_over_seeds(cfg, seeds);
    fanout_seconds.push_back(agg.median_seconds);
    fanout_lags.push_back(agg.median_first_lb);
    impact.add_row(
        {"gossip fanout " + std::to_string(f),
         support::Table::num(agg.median_seconds, 3),
         support::Table::num(agg.median_lb_calls, 0),
         support::Table::pct(agg.median_utilization, 1),
         support::Table::num(agg.median_first_lb, 0),
         support::Table::pct(
             agg.median_seconds / oracle.median_seconds - 1.0, 2)});
  }
  out << "Erosion app (" << pes << " PEs, " << strong
      << " strong rock(s), ULBA alpha=" << alpha << "), median of "
      << seeds.size() << " seed(s):\n\n"
      << impact.render(2) << "\n";

  // Part 3 — WIR smoothing: detection lag (first LB call) vs. stability.
  const std::vector<double> smoothings{0.25, 0.5, 0.75, 1.0};
  support::Table smooth_table(
      {"smoothing", "total time [s]", "LB calls", "first LB"});
  for (const double s : smoothings) {
    erosion::AppConfig cfg = base;
    cfg.wir_smoothing = s;
    const ErosionAggregate agg = erosion_median_over_seeds(cfg, seeds);
    smooth_table.add_row({support::Table::num(s, 2),
                          support::Table::num(agg.median_seconds, 3),
                          support::Table::num(agg.median_lb_calls, 0),
                          support::Table::num(agg.median_first_lb, 0)});
  }
  out << "WIR smoothing sweep (gossip fanout " << base.gossip_fanout
      << "; raw EMA factor, 1.0 = unsmoothed):\n\n"
      << smooth_table.render(2) << "\n";

  const double degradation_f1 =
      fanout_seconds.front() / oracle.median_seconds - 1.0;
  out << "findings:\n"
      << "  slowest dissemination (fanout 1) costs "
      << support::Table::pct(degradation_f1, 2)
      << " vs the centralized oracle\n"
      << "  detection lag, fanout 1 vs oracle: "
      << fanout_lags.front() - oracle.median_first_lb << " iteration(s)\n"
      << "  (stale WIRs are still good WIRs; extra gossip traffic buys "
         "little — the paper's\n   one-round-per-iteration choice)\n";
  return 0;
}

int run_instances(const FlagMap& flags, std::ostream& out) {
  flags.require_known({"samples", "seed", "alpha-grid", "ranks", "serve-batch",
                       "cache-capacity", "cache-shards"});
  const std::int64_t samples = flags.get_int("samples", 200);
  const std::uint64_t seed = flags.get_seed("seed", 20190916);
  const std::int64_t grid = flags.get_int("alpha-grid", 20);
  const std::int64_t ranks = flags.get_int("ranks", 1);
  const std::int64_t serve_batch = flags.get_int("serve-batch", 32);
  const std::int64_t cache_capacity = flags.get_int("cache-capacity", 4096);
  const std::int64_t cache_shards = flags.get_int("cache-shards", 8);
  ULBA_REQUIRE(samples >= 1 && samples <= 100000,
               "--samples must be in [1, 100000]");
  ULBA_REQUIRE(grid >= 1 && grid <= 1000, "--alpha-grid must be in [1, 1000]");
  ULBA_REQUIRE(ranks >= 1 && ranks <= 64, "--ranks must be in [1, 64]");
  ULBA_REQUIRE(!flags.has("serve-batch") || ranks > 1,
               "--serve-batch tunes the schedule service; pass --ranks");
  ULBA_REQUIRE(!flags.has("cache-capacity") || ranks > 1,
               "--cache-capacity sizes the service's memo cache; pass "
               "--ranks");
  ULBA_REQUIRE(!flags.has("cache-shards") || ranks > 1,
               "--cache-shards shards the service's memo cache; pass "
               "--ranks");
  ULBA_REQUIRE(serve_batch >= 1 && serve_batch <= 4096,
               "--serve-batch must be in [1, 4096]");
  ULBA_REQUIRE(cache_capacity >= 1, "--cache-capacity must be at least 1");
  ULBA_REQUIRE(cache_shards >= 1 && cache_shards <= 64,
               "--cache-shards must be in [1, 64]");

  out << "Table-II instance sweep: ULBA vs standard over the paper's random\n"
         "application families (" << samples << " instances per PE family, "
      << "alpha grid " << grid + 1 << " points)\n\n";

  support::Table table({"P", "wins", "losses", "ties", "median gain",
                        "mean gain", "min", "max", "best-alpha gain",
                        "avg best-alpha"});
  std::int64_t total_wins = 0, total_losses = 0;
  double peak_best_gain = 0.0;
  std::vector<FamilyStats> families;
  serve::ServeMetrics served_metrics;
  if (ranks == 1) {
    for (const std::int64_t p : core::kTableIIPeCounts)
      families.push_back(instance_family_stats(p, samples, seed, grid));
  } else {
    serve::ServeOptions serve_options;
    serve_options.batch_limit = serve_batch;
    serve_options.cache_capacity = cache_capacity;
    serve_options.cache_shards = cache_shards;
    const ServedSweepResult served = instance_sweep_served(
        core::kTableIIPeCounts, samples, seed, grid,
        static_cast<int>(ranks), serve_options);
    families = served.families;
    served_metrics = served.metrics;
  }
  for (const FamilyStats& s : families) {
    total_wins += s.wins;
    total_losses += s.losses;
    peak_best_gain = std::max(peak_best_gain, s.median_best_gain);
    table.add_row({std::to_string(s.pin_p), std::to_string(s.wins),
                   std::to_string(s.losses), std::to_string(s.ties),
                   support::Table::pct(s.median_gain, 2),
                   support::Table::pct(s.mean_gain, 2),
                   support::Table::pct(s.min_gain, 2),
                   support::Table::pct(s.max_gain, 2),
                   support::Table::pct(s.median_best_gain, 2),
                   support::Table::num(s.mean_best_alpha, 2)});
  }
  out << table.render(2) << "\n";
  out << "('gain' compares ULBA at the instance's drawn alpha against the "
         "standard\n method; 'best-alpha gain' tunes alpha per instance and "
         "can never lose)\n\n";
  out << "overall: " << total_wins << " wins / " << total_losses
      << " losses at the drawn alpha; median best-alpha gain up to "
      << support::Table::pct(peak_best_gain, 2)
      << " (paper Fig. 3: up to ~21 %)\n";
  if (ranks > 1) {
    out << "\nserved over " << ranks << " ranks (1 server + " << ranks - 1
        << " clients, batch limit " << serve_batch << "):\n"
        << "  requests " << served_metrics.requests << ", cache hits "
        << served_metrics.cache_hits << ", misses "
        << served_metrics.cache_misses << " (hit rate "
        << support::Table::pct(served_metrics.hit_rate(), 1) << ")\n"
        << "  batches " << served_metrics.batches << ", max batch "
        << served_metrics.max_batch << ", traffic "
        << served_metrics.request_bytes << " B in / "
        << served_metrics.response_bytes << " B out\n";
  }
  return 0;
}

int run_dynamic_alpha(const FlagMap& flags, std::ostream& out) {
  flags.require_known(
      {"pes", "seed", "seeds", "iterations", "alpha", "rocks", "instances"});
  const std::int64_t pes = flags.get_int("pes", 32);
  const std::uint64_t seed = flags.get_seed("seed", 11);
  const std::int64_t seed_count = flags.get_int("seeds", 3);
  const std::int64_t iterations = flags.get_int("iterations", 0);
  const double alpha = flags.get_double("alpha", 0.6);
  const std::int64_t max_rocks = flags.get_int("rocks", 6);
  const std::int64_t instances = flags.get_int("instances", 60);
  ULBA_REQUIRE(pes >= 4 && pes <= 256, "--pes must be in [4, 256]");
  ULBA_REQUIRE(seed_count >= 1 && seed_count <= 64,
               "--seeds must be in [1, 64]");
  ULBA_REQUIRE(iterations == 0 || iterations >= 8,
               "--iterations must be at least 8 (0 = scaled default)");
  ULBA_REQUIRE(alpha > 0.0 && alpha <= 1.0, "--alpha must be in (0, 1]");
  ULBA_REQUIRE(max_rocks >= 1 && 2 * max_rocks < pes,
               "--rocks must be in [1, pes/2) — beyond half the PEs the "
               "ULBA step demotes itself anyway");
  ULBA_REQUIRE(instances >= 1 && instances <= 10000,
               "--instances must be in [1, 10000]");

  out << "Dynamic alpha (E-X4; paper Section V: \"dynamically adjust alpha "
         "during\napplication execution\"): per-interval alpha from the "
         "gossip-estimated\noverloading fraction, vs. fixed alpha and vs. "
         "the centralized oracle.\n\n";

  // Part 1 — model-level bound via the exact DP (GossipNetwork plays no role
  // here: this is the most per-step α can EVER buy on Table-II instances).
  const DynamicAlphaModelBound bound =
      dynamic_alpha_model_bound(static_cast<std::size_t>(instances), seed);
  out << "Model-level bound (exact DP over schedule x per-step alpha, "
      << instances << " Table-II\ninstances, opt::optimal_alpha_schedule):\n"
      << "  per-step alpha beats the best single fixed alpha by mean "
      << support::Table::num(bound.mean_pct, 3) << " %, median "
      << support::Table::num(bound.median_pct, 3) << " %,\n  max "
      << support::Table::num(bound.max_pct, 2) << " %\n"
      << "  (most of dynamic alpha's value is matching alpha to the CURRENT "
         "overloading\n   set, not varying it step to step)\n\n";

  // Part 2 — erosion-level sweep: the runtime policies against fixed α.
  std::vector<std::int64_t> rock_counts;
  for (const std::int64_t r : {1, 2, 4, 6, 8, 12, 16})
    if (r <= max_rocks && 2 * r < pes) rock_counts.push_back(r);
  const std::vector<AlphaVariant> variants = dynamic_alpha_variants(alpha);
  std::vector<std::uint64_t> seeds;
  for (std::int64_t s = 0; s < seed_count; ++s)
    seeds.push_back(seed + 11 * static_cast<std::uint64_t>(s));
  const auto medians =
      dynamic_alpha_grid(variants, rock_counts, pes, seeds, iterations);

  std::vector<std::string> headers{"variant"};
  for (const std::int64_t r : rock_counts)
    headers.push_back(std::to_string(r) + " strong");
  support::Table table(headers);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::vector<std::string> row{variants[v].label};
    for (std::size_t ri = 0; ri < rock_counts.size(); ++ri)
      row.push_back(support::Table::num(medians[v][ri], 3));
    table.add_row(row);
  }
  out << "Erosion app (" << pes << " PEs, ULBA, base alpha " << alpha
      << "), total virtual seconds, median of " << seeds.size()
      << " seed(s):\n\n"
      << table.render(2) << "\n";

  // Part 3 — per-interval α trace of one gossip-fed model-policy run.
  erosion::AppConfig trace_cfg = scaled_app_config(
      pes, rock_counts.back(), erosion::Method::kUlba, seed);
  if (iterations > 0) trace_cfg.iterations = iterations;
  trace_cfg.alpha = alpha;
  trace_cfg.alpha_policy = erosion::AlphaPolicy::kGossipModel;
  const erosion::RunResult trace = erosion::ErosionApp(trace_cfg).run();
  out << "Per-interval alpha trace (model policy, gossip-fed, "
      << rock_counts.back() << " strong rock(s), seed " << seed << "):\n";
  if (trace.lb_iterations.empty()) {
    out << "  no LB step fired\n";
  } else {
    for (std::size_t i = 0; i < trace.lb_iterations.size(); ++i)
      out << "  LB @ iteration " << trace.lb_iterations[i] << ": alpha "
          << support::Table::num(trace.lb_alphas[i], 2) << "\n";
  }
  out << "\n";

  // Findings: the gossip-fed model policy against the best fixed α of each
  // column (the oracle a static tuning could at best reach), and against its
  // own centralized-oracle variant (what staleness costs).
  // dynamic_alpha_variants layout: [0..2] fixed, [3] fraction, [4] model
  // (gossip), [5] model (oracle).
  double worst_vs_fixed = -1e300, worst_vs_oracle = -1e300;
  for (std::size_t ri = 0; ri < rock_counts.size(); ++ri) {
    double best_fixed = 1e300;
    for (std::size_t v = 0; v < 3; ++v)
      best_fixed = std::min(best_fixed, medians[v][ri]);
    worst_vs_fixed =
        std::max(worst_vs_fixed, medians[4][ri] / best_fixed - 1.0);
    worst_vs_oracle =
        std::max(worst_vs_oracle, medians[4][ri] / medians[5][ri] - 1.0);
  }
  out << "findings:\n"
      << "  model policy (gossip) vs best fixed alpha per rock count: "
      << support::Table::pct(worst_vs_fixed, 2) << " worst case\n"
      << "  gossip staleness vs the centralized oracle:            "
      << support::Table::pct(worst_vs_oracle, 2) << " worst case\n"
      << "  (the policy tracks the oracle fixed alpha without knowing the "
         "rock count\n   in advance — the E-X4 loop closed end to end)\n";
  return 0;
}

int run_interval_quality(const FlagMap& flags, std::ostream& out) {
  flags.require_known({"instances", "sa-steps", "seed"});
  const std::int64_t instances = flags.get_int("instances", 200);
  const std::int64_t sa_steps = flags.get_int("sa-steps", 5000);
  const std::uint64_t seed = flags.get_seed("seed", 1215);
  ULBA_REQUIRE(instances >= 1 && instances <= 100000,
               "--instances must be in [1, 100000]");
  ULBA_REQUIRE(sa_steps >= 1 && sa_steps <= 1000000,
               "--sa-steps must be in [1, 1000000]");

  out << "Interval quality (Figure 2): gain of the sigma+ LB intervals over "
         "the\nheuristic search (simulated annealing, " << sa_steps
      << " steps) on " << instances
      << " random\nTable-II instances, bounded by the exact DP optimum.\n"
         "(paper, 1000 instances: best +1.57%, worst -5.58%, average "
         "-0.83%)\n\n";

  const std::vector<IntervalQualitySample> samples = interval_quality_sweep(
      static_cast<std::size_t>(instances), sa_steps, seed);
  std::vector<double> gains, dp_gaps, sa_gaps;
  for (const IntervalQualitySample& s : samples) {
    gains.push_back(s.gain_vs_sa * 100.0);
    dp_gaps.push_back(s.gap_vs_dp * 100.0);
    sa_gaps.push_back(s.sa_gap_vs_dp * 100.0);
  }

  out << "Gain histogram (sigma+ vs. heuristic search) [%]:\n\n"
      << support::Histogram::from_data(gains, 16).render(40) << "\n";

  const auto g = support::summarize(gains);
  out << "  best gain   : " << support::Table::num(g.max, 2) << " %\n"
      << "  worst gain  : " << support::Table::num(g.min, 2) << " %\n"
      << "  average gain: " << support::Table::num(g.mean, 2) << " %\n\n";

  out << "Distance from the exact DP optimum (the bound the paper lacked):\n"
      << "  sigma+ gap to optimal : mean "
      << support::Table::num(support::mean(dp_gaps), 2) << " %, max "
      << support::Table::num(support::max_of(dp_gaps), 2) << " %\n"
      << "  SA gap to optimal     : mean "
      << support::Table::num(support::mean(sa_gaps), 2) << " %, max "
      << support::Table::num(support::max_of(sa_gaps), 2) << " %\n\n";

  const bool shape_ok = g.mean > -5.0 && g.mean < 2.0 && g.min > -25.0;
  out << "findings:\n"
      << (shape_ok
              ? "  shape reproduced: sigma+ tracks the heuristic search "
                "(a good analytic\n   stand-in for a numeric optimizer)\n"
              : "  SHAPE MISMATCH vs. the paper's Figure 2\n");
  return shape_ok ? 0 : 1;
}

int run_serve(const FlagMap& flags, std::ostream& out) {
  flags.require_known({"clients", "requests", "distinct", "serve-batch",
                       "cache-capacity", "cache-shards", "mode", "alpha-grid",
                       "seed"});
  const std::int64_t clients = flags.get_int("clients", 4);
  const std::int64_t requests = flags.get_int("requests", 64);
  const std::int64_t distinct = flags.get_int("distinct", 16);
  const std::int64_t serve_batch = flags.get_int("serve-batch", 32);
  const std::int64_t cache_capacity = flags.get_int("cache-capacity", 4096);
  const std::int64_t cache_shards = flags.get_int("cache-shards", 8);
  const std::string mode = flags.get_string("mode", "grid");
  const std::int64_t alpha_grid = flags.get_int("alpha-grid", 10);
  const std::uint64_t seed = flags.get_seed("seed", 11);
  ULBA_REQUIRE(clients >= 1 && clients <= 64, "--clients must be in [1, 64]");
  ULBA_REQUIRE(requests >= 1 && requests <= 100000,
               "--requests must be in [1, 100000]");
  ULBA_REQUIRE(distinct >= 1 && distinct <= 10000,
               "--distinct must be in [1, 10000]");
  ULBA_REQUIRE(serve_batch >= 1 && serve_batch <= 4096,
               "--serve-batch must be in [1, 4096]");
  ULBA_REQUIRE(cache_capacity >= 1, "--cache-capacity must be at least 1");
  ULBA_REQUIRE(cache_shards >= 1 && cache_shards <= 64,
               "--cache-shards must be in [1, 64]");
  ULBA_REQUIRE(mode == "grid" || mode == "dp",
               "--mode must be 'grid' (sigma+ sweep) or 'dp' (exact DP)");
  ULBA_REQUIRE(alpha_grid >= 1 && alpha_grid <= 1000,
               "--alpha-grid must be in [1, 1000]");

  ServeTrafficOptions options;
  options.clients = static_cast<int>(clients);
  options.requests_per_client = requests;
  options.distinct = distinct;
  options.batch_limit = serve_batch;
  options.cache_capacity = cache_capacity;
  options.cache_shards = cache_shards;
  options.mode =
      mode == "dp" ? core::EvalMode::kExactDp : core::EvalMode::kSigmaGrid;
  options.alpha_grid = alpha_grid;
  options.seed = seed;

  out << "Schedule service under deterministic multi-client traffic\n"
      << "(1 server rank + " << clients << " client rank(s); " << requests
      << " requests/client drawn from a pool of " << distinct
      << " Table-II\n instances; mode " << mode << ", alpha grid "
      << alpha_grid + 1 << " points; every response is checked\n "
      << "bit-for-bit against a cold evaluation of the same request)\n\n";

  const ServeTrafficResult result = serve_traffic(options);

  out << "server (rank 0, batch limit " << serve_batch << ", cache "
      << cache_capacity << " x " << cache_shards << " shards):\n"
      << "  requests      : " << result.metrics.requests << "\n"
      << "  cache hits    : " << result.metrics.cache_hits << "\n"
      << "  cache misses  : " << result.metrics.cache_misses << "\n"
      << "  hit rate      : "
      << support::Table::pct(result.metrics.hit_rate(), 1) << "\n"
      << "  evictions     : " << result.metrics.cache_evictions << "\n"
      << "  batches       : " << result.metrics.batches
      << " (max batch " << result.metrics.max_batch << ")\n"
      << "  traffic       : " << result.metrics.request_bytes << " B in / "
      << result.metrics.response_bytes << " B out\n\n";

  out << "clients:\n"
      << "  total requests    : " << result.total_requests << "\n"
      << "  distinct queried  : " << result.distinct_queried << "\n"
      << "  hit responses     : " << result.hit_responses << "\n"
      << "  throughput        : "
      << support::Table::num(result.requests_per_second, 0)
      << " req/s (wall " << support::Table::num(result.wall_seconds, 3)
      << " s)\n\n";

  // The determinism contract, stated as verdicts (wall numbers above are
  // real; these are the structurally-checked invariants).
  const bool counts_ok =
      result.metrics.requests == result.total_requests &&
      result.metrics.cache_hits + result.metrics.cache_misses ==
          result.metrics.requests;
  const bool misses_ok = cache_capacity >= distinct
                             ? result.metrics.cache_misses ==
                                   result.distinct_queried
                             : result.metrics.cache_misses >=
                                   result.distinct_queried;
  out << "verdicts:\n"
      << "  bit-identical responses : "
      << (result.ok() ? "PASS" : "FAIL") << " (" << result.mismatched_responses
      << " mismatched)\n"
      << "  request accounting      : " << (counts_ok ? "PASS" : "FAIL")
      << "\n"
      << "  miss = distinct         : " << (misses_ok ? "PASS" : "FAIL")
      << "\n";
  const bool ok = result.ok() && counts_ok && misses_ok;
  out << "\n" << (ok ? "service contract holds" : "SERVICE CONTRACT VIOLATED")
      << "\n";
  return ok ? 0 : 1;
}

int run_anticipation(const FlagMap& flags, std::ostream& out) {
  flags.require_known({"ranks", "pes", "strong", "seed", "iterations",
                       "noise", "ns-scale", "fli-threshold"});
  const std::int64_t ranks = flags.get_int("ranks", 4);
  const std::int64_t pes = flags.get_int("pes", 8);
  const std::int64_t strong = flags.get_int("strong", 1);
  const std::uint64_t seed = flags.get_seed("seed", 11);
  const std::int64_t iterations = flags.get_int("iterations", 60);
  const double noise = flags.get_double("noise", 0.4);
  const double ns_scale = flags.get_double("ns-scale", 2.0);
  const double fli_threshold = flags.get_double("fli-threshold", 0.25);
  ULBA_REQUIRE(ranks >= 2 && ranks <= 64, "--ranks must be in [2, 64]");
  ULBA_REQUIRE(pes >= 2, "--pes must be at least 2");
  ULBA_REQUIRE(strong >= 1 && strong <= pes, "--strong must be in [1, pes]");
  ULBA_REQUIRE(iterations >= 8, "--iterations must be at least 8");
  ULBA_REQUIRE(noise > 0.0 && noise < 1.0, "--noise must be in (0, 1)");
  ULBA_REQUIRE(ns_scale > 0.0, "--ns-scale must be positive");
  ULBA_REQUIRE(fli_threshold > 0.0, "--fli-threshold must be positive");

  out << "Anticipation vs. reaction (the paper's core claim on real "
         "hardware):\nULBA-scheduled anticipatory LB (model trigger) against "
         "reactive LB driven\nby the MEASURED trigger — degradation "
         "(Algorithm 1 on steady_clock maxima)\nand fli ((max-avg)/avg of "
         "the gathered per-rank burn times >= "
      << fli_threshold << ") —\nunder injected multi-tenant burn noise.\n\n"
      << "(" << ranks << " SPMD ranks, " << pes << " PEs, " << iterations
      << " iterations, seed " << seed << ", ns_scale " << ns_scale
      << ";\n wall numbers are real and noisy — re-run for another "
         "sample)\n\n";

  const std::vector<double> noise_levels{0.0, noise / 2.0, noise};
  const std::vector<AnticipationReactiveRow> rows =
      anticipation_vs_reactive_sweep(ranks, pes, strong, seed, iterations,
                                     noise_levels, ns_scale, fli_threshold);

  support::Table table({"variant", "noise", "wall [s]", "compute [s]",
                        "LB [s]", "LB calls", "mean util", "mean fli"});
  for (const AnticipationReactiveRow& r : rows)
    table.add_row({r.variant, support::Table::num(r.noise, 2),
                   support::Table::num(r.wall_seconds, 3),
                   support::Table::num(r.compute_seconds, 3),
                   support::Table::num(r.lb_seconds, 3),
                   std::to_string(r.lb_count),
                   support::Table::pct(r.utilization, 1),
                   support::Table::num(r.mean_fli, 3)});
  out << table.render(2) << "\n";

  // Win/loss per noise level: anticipation's measured wall clock against
  // the better of the two reactive variants.
  const std::size_t variants_per_level = rows.size() / noise_levels.size();
  std::int64_t wins = 0;
  out << "win/loss (anticipation wall clock vs. best reactive):\n";
  for (std::size_t n = 0; n < noise_levels.size(); ++n) {
    const AnticipationReactiveRow& ant = rows[n * variants_per_level];
    double best_reactive = std::numeric_limits<double>::infinity();
    std::string best_name;
    for (std::size_t v = 1; v < variants_per_level; ++v) {
      const AnticipationReactiveRow& r = rows[n * variants_per_level + v];
      if (r.wall_seconds < best_reactive) {
        best_reactive = r.wall_seconds;
        best_name = r.variant;
      }
    }
    const bool win = ant.wall_seconds < best_reactive;
    wins += win ? 1 : 0;
    out << "  noise " << support::Table::num(ant.noise, 2) << ": "
        << (win ? "WIN " : "LOSS") << "  (" << ant.wall_seconds << " s vs "
        << best_reactive << " s " << best_name << ")\n";
  }
  out << "\nanticipation wins " << wins << "/" << noise_levels.size()
      << " noise level(s)  (same dynamics everywhere: "
      << rows.front().eroded_cells << " cells eroded per run)\n";
  return 0;
}

}  // namespace ulba::cli
