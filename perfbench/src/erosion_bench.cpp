// Erosion workloads: set-up timing and the traced replica of ErosionApp::run.
//
// The replica calls the same public functions as src/erosion/app.cpp (its
// internal LbController and run_distributed), in the same order and with the
// same inputs, and wraps each call in a span. It does not decide when to
// balance: it replays the LB iterations and α of an untraced run of the same
// config, so the trigger is timed but never steers. Its RunResult must equal
// the untraced one field for field.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "bsp/machine.hpp"
#include "cli/args.hpp"
#include "common.hpp"
#include "core/detector.hpp"
#include "core/gossip.hpp"
#include "core/trigger.hpp"
#include "erosion/app.hpp"
#include "erosion/distributed_domain.hpp"
#include "erosion/domain.hpp"
#include "lb/driver.hpp"
#include "lb/partitioners.hpp"
#include "lb/stripe_partitioner.hpp"
#include "runtime/spmd.hpp"
#include "spans.hpp"
#include "subcommands.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {
namespace {

namespace erosion = ulba::erosion;
namespace lb = ulba::lb;
namespace bsp = ulba::bsp;
namespace core = ulba::core;
using ulba::support::Rng;
using ulba::support::ThreadPool;

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Pool width of erosion.pool_speedup: the 4 CPUs the workloads are sized for.
constexpr std::int64_t kPoolThreads = 4;

std::uint64_t dynamics_seed(const erosion::AppConfig& config) {
  return Rng(config.seed).fork(1).seed();
}

/// The AppConfig `ulba_cli erosion` builds from the same flags (the subset
/// the benchmark workloads use; any other flag is rejected).
erosion::AppConfig erosion_config(const ulba::cli::FlagMap& flags) {
  flags.require_known({"pes", "strong", "seed", "iterations", "alpha",
                       "columns-per-pe", "rows", "rock-radius", "threads",
                       "ranks", "partitioner", "exchange", "rng", "decomp"});
  // Mirrors run_erosion in src/cli/scenarios.cpp for the virtual-time path:
  // the CLI's defaults, and the fixed bytes-per-cell and α-β model it sets.
  erosion::AppConfig cfg;
  cfg.pe_count = flags.get_int("pes", 32);
  cfg.strong_rock_count = flags.get_int("strong", 1);
  cfg.seed = flags.get_seed("seed", 11);
  cfg.alpha = flags.get_double("alpha", 0.4);
  cfg.columns_per_pe = flags.get_int("columns-per-pe", 256);
  cfg.rows = flags.get_int("rows", 384);
  cfg.rock_radius = flags.get_int("rock-radius", 96);
  cfg.iterations = flags.get_int("iterations", 180);
  cfg.bytes_per_cell = 256.0;
  cfg.comm.latency_s = 1e-4;
  cfg.comm.bandwidth_Bps = 2e9;
  cfg.threads = flags.get_int("threads", 1);
  cfg.ranks = flags.get_int("ranks", 1);
  cfg.partitioner = flags.get_string("partitioner", "greedy");
  cfg.exchange = flags.get_string("exchange", "neighbor");
  cfg.rng_kind = erosion::rng_kind_from_name(flags.get_string("rng", "fork"));
  cfg.decomp = flags.get_string("decomp", "stripes");
  // The traced replica mirrors the counter-RNG stripe path only.
  ULBA_REQUIRE(cfg.rng_kind == erosion::RngKind::kCounter,
               "the benchmark pins --rng counter");
  ULBA_REQUIRE(cfg.decomp == "stripes", "the benchmark pins --decomp stripes");
  cfg.validate();
  return cfg;
}

/// Exact (bitwise) equality of every field of two runs, the per-iteration
/// records included. Returns the first differing field, or "" when equal.
std::string first_difference(const erosion::RunResult& a,
                             const erosion::RunResult& b) {
#define PERFBENCH_FIELD(f) \
  if (!(a.f == b.f)) return #f
  PERFBENCH_FIELD(total_seconds);
  PERFBENCH_FIELD(compute_seconds);
  PERFBENCH_FIELD(lb_seconds);
  PERFBENCH_FIELD(lb_count);
  PERFBENCH_FIELD(fallback_count);
  PERFBENCH_FIELD(average_utilization);
  PERFBENCH_FIELD(eroded_cells);
  PERFBENCH_FIELD(final_imbalance);
  PERFBENCH_FIELD(lb_iterations);
  PERFBENCH_FIELD(lb_alphas);
  PERFBENCH_FIELD(rank_discs_moved);
  PERFBENCH_FIELD(rank_migration_bytes);
  PERFBENCH_FIELD(rank_observed_bytes);
  PERFBENCH_FIELD(rank_step_messages);
  PERFBENCH_FIELD(rank_step_bytes);
  PERFBENCH_FIELD(rank_fractional_imbalance);
  PERFBENCH_FIELD(iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    PERFBENCH_FIELD(iterations[i].seconds);
    PERFBENCH_FIELD(iterations[i].utilization);
    PERFBENCH_FIELD(iterations[i].lb_performed);
    PERFBENCH_FIELD(iterations[i].degradation);
    PERFBENCH_FIELD(iterations[i].threshold);
  }
#undef PERFBENCH_FIELD
  return "";
}

/// Work counts of one traced operation (both methods of the pair summed).
struct Counters {
  std::int64_t step_calls = 0;
  std::int64_t frontier_cells = 0;
  std::int64_t gossip_rounds = 0;
  std::int64_t gossip_pushes = 0;
  std::int64_t lb_steps = 0;
  double lb_migration_bytes = 0.0;
  std::int64_t decision_mismatches = 0;
  std::uint64_t runtime_messages = 0;
  std::uint64_t runtime_bytes = 0;
  // Slowest-rank sums (equal to the single track's sums when serial).
  double step_s = 0.0;
  double build_s = 0.0;
  double rebalance_s = 0.0;
  double wait_s = 0.0;
  double traced_s = 0.0;  ///< wall of the traced pair
  double final_workload = 0.0;  ///< last traced run's Wtot
  std::int64_t final_eroded = 0;
};

/// The virtual-time LB machinery of app.cpp's LbController, span-wrapped,
/// with the balance verdict replayed from `replay`.
class TracedController {
 public:
  TracedController(const erosion::AppConfig& config,
                   std::shared_ptr<const lb::Partitioner> partitioner,
                   std::int64_t columns, const erosion::RunResult& replay,
                   Counters& counters)
      : config_(config),
        replay_(replay),
        counters_(counters),
        machine_(config.pe_count, config.flops, config.comm),
        balancer_(config.comm, config.flops),
        gossip_(config.pe_count, config.gossip_fanout),
        detector_(config.zscore_threshold),
        gossip_rng_(Rng(config.seed).fork(2)),
        lb_cost_(prior_lb_cost(config, columns)),
        boundaries_(lb::even_partition(columns, config.pe_count)),
        gossip_seconds_(static_cast<double>(config.gossip_fanout) *
                        config.comm.p2p(16 * config.pe_count)),
        wir_(static_cast<std::size_t>(config.pe_count), 0.0) {
    ULBA_REQUIRE(config.alpha_policy == erosion::AlphaPolicy::kFixed &&
                     config.trigger_mode == erosion::TriggerMode::kAdaptive &&
                     !config.oracle_wir &&
                     config.anticipate_overhead_in_trigger,
                 "the traced replica mirrors the CLI's erosion defaults only");
    balancer_.set_partitioner(std::move(partitioner));
    result_.iterations.reserve(static_cast<std::size_t>(config.iterations));
  }

  [[nodiscard]] erosion::RunResult& result() noexcept { return result_; }

  void observe(Track& t, std::int64_t iter, std::span<const double> weights) {
    const auto P = config_.pe_count;
    std::vector<double> loads;
    {
      const auto s = t.open("lb.loads");
      loads = lb::stripe_loads(weights, boundaries_);
    }
    bsp::StepReport report;
    {
      const auto s = t.open("bsp.superstep");
      report = machine_.run_superstep(loads, gossip_seconds_);
    }
    {
      const auto s = t.open("core.gossip");
      if (wir_valid_) {
        for (std::int64_t p = 0; p < P; ++p) {
          const auto i = static_cast<std::size_t>(p);
          const double raw = std::max(0.0, loads[i] - prev_loads_[i]);
          wir_[i] = config_.wir_smoothing * raw +
                    (1.0 - config_.wir_smoothing) * wir_[i];
          gossip_.observe_local(p, wir_[i], iter);
        }
      }
      prev_loads_ = loads;
      wir_valid_ = true;
      gossip_.step(gossip_rng_);
    }
    ++counters_.gossip_rounds;
    counters_.gossip_pushes += P * config_.gossip_fanout;
    pending_ = erosion::IterationRecord{};
    pending_.seconds = report.seconds;
    pending_.utilization = report.utilization;
  }

  /// Times the trigger, then returns the replayed verdict.
  [[nodiscard]] bool should_balance(Track& t, std::int64_t iter,
                                    double total_workload) {
    bool verdict = false;
    {
      const auto s = t.open("core.trigger");
      trigger_.record_iteration(pending_.seconds);
      const double threshold = trigger_threshold(t, total_workload);
      pending_.degradation = trigger_.degradation();
      pending_.threshold = threshold;
      verdict = trigger_.should_balance(threshold);
    }
    const bool model = iter + 1 < config_.iterations && verdict;
    const auto& lbi = replay_.lb_iterations;
    const bool replayed = next_replay_ < lbi.size() && lbi[next_replay_] == iter;
    if (model != replayed) ++counters_.decision_mismatches;
    return replayed;
  }

  void balance(Track& t, std::int64_t iter, std::span<const double> weights,
               std::span<const double> bytes) {
    const auto P = config_.pe_count;
    const double step_alpha = replay_.lb_alphas.at(next_replay_++);
    std::vector<double> alphas(static_cast<std::size_t>(P), 0.0);
    if (config_.method == erosion::Method::kUlba) {
      const auto s = t.open("core.detect");
      for (std::int64_t p = 0; p < P; ++p) {
        const auto i = static_cast<std::size_t>(p);
        if (detector_.is_overloading(wir_[i], gossip_.database(p).wirs()))
          alphas[i] = step_alpha;
      }
    }
    lb::LbStepResult lb_step;
    {
      const auto s = t.open("lb.step");
      lb_step = balancer_.step(alphas, weights, bytes, boundaries_);
    }
    {
      const auto s = t.open("bsp.charge");
      machine_.charge_global(lb_step.cost.total());
    }
    {
      const auto s = t.open("core.trigger");
      lb_cost_.observe(lb_step.cost.total());
      trigger_.reset();
    }
    boundaries_ = lb_step.boundaries;
    wir_valid_ = false;
    if (lb_step.assignment.fell_back_to_standard) ++result_.fallback_count;
    ++result_.lb_count;
    result_.lb_seconds += lb_step.cost.total();
    result_.lb_iterations.push_back(iter);
    result_.lb_alphas.push_back(step_alpha);
    pending_.lb_performed = true;
    ++counters_.lb_steps;
    counters_.lb_migration_bytes += lb_step.migration.total_bytes;
  }

  void end_iteration() {
    result_.compute_seconds += pending_.seconds;
    result_.iterations.push_back(pending_);
  }

  [[nodiscard]] erosion::RunResult take_result(std::span<const double> weights,
                                               std::int64_t eroded_cells) {
    result_.total_seconds = machine_.elapsed_seconds();
    result_.average_utilization = machine_.average_utilization();
    result_.eroded_cells = eroded_cells;
    result_.final_imbalance = lb::load_imbalance(weights, boundaries_);
    return std::move(result_);
  }

 private:
  // app.cpp's prior_lb_cost: the communication phases of one LB step.
  static double prior_lb_cost(const erosion::AppConfig& config,
                              std::int64_t columns) {
    const auto P = config.pe_count;
    return config.comm.gather(static_cast<std::int64_t>(sizeof(double)), P) +
           static_cast<double>(columns) * 8.0 / config.flops +
           config.comm.broadcast(
               static_cast<std::int64_t>((P + 1) * sizeof(std::int64_t)), P);
  }

  // app.cpp's trigger_threshold under AlphaPolicy::kFixed.
  double trigger_threshold(Track& t, double total_workload) {
    double threshold = lb_cost_.average();
    if (config_.method != erosion::Method::kUlba) return threshold;
    const auto P = config_.pe_count;
    std::int64_t n_hat = 0;
    {
      const auto s = t.open("core.detect");
      n_hat = detector_.count_overloading(gossip_.database(0).wirs());
    }
    if (n_hat > 0 && 2 * n_hat < P)
      threshold += config_.alpha * static_cast<double>(n_hat) /
                   static_cast<double>(P - n_hat) * total_workload /
                   (config_.flops * static_cast<double>(P));
    return threshold;
  }

  const erosion::AppConfig& config_;
  const erosion::RunResult& replay_;
  Counters& counters_;
  std::size_t next_replay_ = 0;
  bsp::Machine machine_;
  lb::CentralizedLb balancer_;
  core::GossipNetwork gossip_;
  core::OverloadDetector detector_;
  core::AdaptiveTrigger trigger_;
  Rng gossip_rng_;
  core::LbCostEstimator lb_cost_;
  lb::StripeBoundaries boundaries_;
  double gossip_seconds_;
  std::vector<double> wir_;
  std::vector<double> prev_loads_;
  bool wir_valid_ = false;
  erosion::IterationRecord pending_;
  erosion::RunResult result_;
};

std::vector<double> column_bytes_of(std::span<const double> weights,
                                    const erosion::AppConfig& config) {
  const double byte_scale = config.bytes_per_cell / config.flop_per_cell;
  std::vector<double> bytes(weights.size());
  for (std::size_t x = 0; x < weights.size(); ++x)
    bytes[x] = weights[x] * byte_scale;
  return bytes;
}

/// ErosionApp::run's in-process path (ranks == 1), traced on one track.
erosion::RunResult traced_serial(const erosion::AppConfig& config,
                                 const erosion::RunResult& replay, Track& t,
                                 Counters& counters) {
  const std::size_t first = t.size();
  const auto op = t.open("cli.erosion");
  const erosion::ErosionApp app(config);
  const std::shared_ptr<const lb::Partitioner> partitioner(
      lb::make_partitioner(config.partitioner));
  const std::uint64_t seed = dynamics_seed(config);
  std::optional<erosion::ErosionDomain> domain;
  std::optional<ThreadPool> pool;
  {
    const auto s = t.open("erosion.build");
    domain.emplace(app.make_domain());
    if (config.threads > 1) pool.emplace(static_cast<std::size_t>(config.threads));
  }
  counters.build_s += t.back().seconds();
  TracedController ctl(config, partitioner, domain->columns(), replay,
                       counters);
  for (std::int64_t iter = 0; iter < config.iterations; ++iter) {
    ctl.observe(t, iter, domain->column_weights());
    counters.frontier_cells += domain->frontier_size();
    {
      const auto s = t.open("erosion.step");
      (void)domain->step_counter(seed, iter, pool ? &*pool : nullptr);
    }
    ++counters.step_calls;
    if (ctl.should_balance(t, iter, domain->total_workload())) {
      std::vector<double> bytes;
      {
        const auto s = t.open("erosion.column_bytes");
        bytes = domain->column_bytes();
      }
      ctl.balance(t, iter, domain->column_weights(), bytes);
    }
    ctl.end_iteration();
  }
  counters.step_s += t.total("erosion.step", first);
  counters.final_workload = domain->total_workload();
  counters.final_eroded = domain->eroded_cells();
  return ctl.take_result(domain->column_weights(), domain->eroded_cells());
}

/// app.cpp's run_distributed (model trigger source, no measured time),
/// traced on one track per rank.
erosion::RunResult traced_distributed(const erosion::AppConfig& config,
                                      const erosion::RunResult& replay,
                                      std::vector<Track>& tracks,
                                      Counters& counters) {
  const int R = static_cast<int>(config.ranks);
  const erosion::DomainConfig domain_config =
      erosion::ErosionApp(config).make_domain();
  erosion::RunResult result;
  std::vector<double> step_s(static_cast<std::size_t>(R), 0.0);
  std::vector<double> build_s(step_s), rebalance_s(step_s), wait_s(step_s);
  Counters main_counters;
  ulba::runtime::spmd_run(R, [&](ulba::runtime::Comm& comm) {
    Track& t = tracks[static_cast<std::size_t>(comm.rank())];
    const std::size_t first = t.size();
    const auto op = t.open("cli.erosion");
    const std::shared_ptr<const lb::Partitioner> partitioner(
        lb::make_partitioner(config.partitioner));
    const erosion::ExchangeMode exchange =
        erosion::exchange_mode_from_name(config.exchange);
    std::optional<erosion::DistributedDomain> domain;
    std::optional<ThreadPool> pool;
    {
      const auto s = t.open("erosion.build");
      domain.emplace(domain_config, comm, partitioner, exchange);
      if (config.threads > 1)
        pool.emplace(static_cast<std::size_t>(config.threads));
    }
    const std::uint64_t seed = dynamics_seed(config);
    const bool main = comm.rank() == 0;
    std::optional<TracedController> ctl;
    if (main)
      ctl.emplace(config, partitioner, domain->columns(), replay,
                  main_counters);
    for (std::int64_t iter = 0; iter < config.iterations; ++iter) {
      std::vector<double> weights;
      {
        const auto s = t.open("runtime.gather");
        weights = domain->gather_column_weights(0);
      }
      if (main) {
        ctl->observe(t, iter, weights);
        main_counters.frontier_cells += domain->frontier_size();
        ++main_counters.step_calls;
      }
      {
        const auto s = t.open("erosion.step");
        (void)domain->step_counter(seed, iter, pool ? &*pool : nullptr);
      }
      std::uint8_t balance_now = 0;
      if (main)
        balance_now =
            ctl->should_balance(t, iter, domain->total_workload()) ? 1 : 0;
      {
        const auto s = t.open("runtime.broadcast");
        comm.broadcast(balance_now, 0);
      }
      if (balance_now != 0) {
        std::vector<double> post;
        {
          const auto s = t.open("runtime.allgather");
          post = domain->allgather_column_weights();
        }
        if (main) ctl->balance(t, iter, post, column_bytes_of(post, config));
        erosion::DistributedReshardResult reshard;
        {
          const auto s = t.open("erosion.rebalance");
          reshard = domain->rebalance(post);
        }
        if (main) {
          ctl->result().rank_discs_moved += reshard.discs_moved;
          ctl->result().rank_migration_bytes += reshard.predicted.total_bytes;
          ctl->result().rank_observed_bytes += reshard.observed_payload_bytes;
        }
      }
      if (main) ctl->end_iteration();
    }
    std::vector<double> final_weights;
    {
      const auto s = t.open("runtime.gather");
      final_weights = domain->gather_column_weights(0);
    }
    double fractional = 0.0;
    std::int64_t step_messages = 0;
    double step_bytes = 0.0;
    {
      const auto s = t.open("runtime.allreduce");
      fractional = domain->fractional_load_imbalance();
      step_messages = comm.allreduce(
          static_cast<std::int64_t>(domain->step_messages_sent()));
      step_bytes =
          comm.allreduce(static_cast<double>(domain->step_payload_bytes_sent()));
    }
    const auto r = static_cast<std::size_t>(comm.rank());
    step_s[r] = t.total("erosion.step", first);
    build_s[r] = t.total("erosion.build", first);
    rebalance_s[r] = t.total("erosion.rebalance", first);
    wait_s[r] = t.total("runtime.gather", first) +
                t.total("runtime.allgather", first);
    comm.barrier();
    if (main) {
      result = ctl->take_result(final_weights, domain->eroded_cells());
      result.rank_step_messages = step_messages;
      result.rank_step_bytes = step_bytes;
      result.rank_fractional_imbalance = fractional;
      const ulba::runtime::TrafficCounters traffic = comm.traffic();
      main_counters.runtime_messages = traffic.messages;
      main_counters.runtime_bytes = traffic.payload_bytes;
      main_counters.final_workload = domain->total_workload();
      main_counters.final_eroded = domain->eroded_cells();
    }
  });
  const auto slowest = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  counters.step_calls += main_counters.step_calls;
  counters.frontier_cells += main_counters.frontier_cells;
  counters.gossip_rounds += main_counters.gossip_rounds;
  counters.gossip_pushes += main_counters.gossip_pushes;
  counters.lb_steps += main_counters.lb_steps;
  counters.lb_migration_bytes += main_counters.lb_migration_bytes;
  counters.decision_mismatches += main_counters.decision_mismatches;
  counters.runtime_messages += main_counters.runtime_messages;
  counters.runtime_bytes += main_counters.runtime_bytes;
  counters.step_s += slowest(step_s);
  counters.build_s += slowest(build_s);
  counters.rebalance_s += slowest(rebalance_s);
  counters.wait_s += slowest(wait_s);
  counters.final_workload = main_counters.final_workload;
  counters.final_eroded = main_counters.final_eroded;
  return result;
}

struct StepOnly {
  double step_s = 0.0;
  std::int64_t eroded = 0;
  double workload = 0.0;
};

/// The dynamics alone on an ErosionDomain at `threads` (the trajectory is
/// the same for every thread count under the counter RNG).
StepOnly step_only(const erosion::AppConfig& config, std::int64_t threads,
                   Track& t) {
  erosion::ErosionDomain domain(erosion::ErosionApp(config).make_domain());
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(static_cast<std::size_t>(threads));
  const std::uint64_t seed = dynamics_seed(config);
  StepOnly out;
  const auto op = t.open("cli.step_only");
  for (std::int64_t iter = 0; iter < config.iterations; ++iter) {
    const auto s = t.open("erosion.step");
    (void)domain.step_counter(seed, iter, pool ? &*pool : nullptr);
  }
  out.step_s = t.total("erosion.step");
  out.eroded = domain.eroded_cells();
  out.workload = domain.total_workload();
  return out;
}

using Pair = std::array<erosion::RunResult, 2>;

Pair untraced_pair(erosion::AppConfig config) {
  config.method = erosion::Method::kStandard;
  erosion::RunResult std_run = erosion::ErosionApp(config).run();
  config.method = erosion::Method::kUlba;
  return {std::move(std_run), erosion::ErosionApp(config).run()};
}

}  // namespace

int erosion_setup(const ulba::cli::FlagMap& flags, std::ostream& out) {
  const erosion::AppConfig config = erosion_config(flags);
  const std::int64_t t0 = now_ns();
  std::int64_t ready = 0;
  if (config.ranks > 1) {
    // World start plus every rank's DistributedDomain and pool, up to the
    // point all ranks could take their first step.
    const erosion::DomainConfig domain_config =
        erosion::ErosionApp(config).make_domain();
    ulba::runtime::spmd_run(
        static_cast<int>(config.ranks), [&](ulba::runtime::Comm& comm) {
          const std::shared_ptr<const lb::Partitioner> partitioner(
              lb::make_partitioner(config.partitioner));
          erosion::DistributedDomain domain(
              domain_config, comm, partitioner,
              erosion::exchange_mode_from_name(config.exchange));
          std::optional<ThreadPool> pool;
          if (config.threads > 1)
            pool.emplace(static_cast<std::size_t>(config.threads));
          comm.barrier();
          if (comm.rank() == 0) ready = now_ns();
        });
  } else {
    erosion::ErosionDomain domain(erosion::ErosionApp(config).make_domain());
    std::optional<ThreadPool> pool;
    if (config.threads > 1)
      pool.emplace(static_cast<std::size_t>(config.threads));
    ready = now_ns();
    ULBA_CHECK(domain.frontier_size() > 0, "a fresh domain has a frontier");
  }
  Result result;
  result.metric("setup_s", seconds_between(t0, ready), "s");
  result.print(out);
  return 0;
}

int erosion_trace(const ulba::cli::FlagMap& flags,
                  const std::string& spans_path, std::ostream& out) {
  const erosion::AppConfig base = erosion_config(flags);
  const int R = static_cast<int>(base.ranks);

  // Untraced and traced pairs alternate twice; the first untraced pair is
  // the LB schedule to replay and the result every other pair must match.
  std::vector<Track> tracks;
  for (int r = 0; r < R; ++r) tracks.emplace_back(r);
  Counters counters;
  std::vector<Pair> untraced, traced;
  // The faster round of each side: host noise only ever adds time.
  double untraced_s = 1e300, traced_s = 1e300;
  for (int round = 0; round < 2; ++round) {
    std::int64_t t0 = now_ns();
    untraced.push_back(untraced_pair(base));
    untraced_s = std::min(untraced_s, seconds_between(t0, now_ns()));
    // Counters and spans describe the first traced pair only.
    Counters discarded;
    Counters& into = round == 0 ? counters : discarded;
    std::vector<Track> discarded_tracks(static_cast<std::size_t>(R));
    std::vector<Track>& on = round == 0 ? tracks : discarded_tracks;
    Pair pair;
    t0 = now_ns();
    for (std::size_t m = 0; m < 2; ++m) {
      erosion::AppConfig config = base;
      config.method = m == 0 ? erosion::Method::kStandard
                             : erosion::Method::kUlba;
      pair[m] = R > 1 ? traced_distributed(config, untraced[0][m], on, into)
                      : traced_serial(config, untraced[0][m], on[0], into);
    }
    const double pair_s = seconds_between(t0, now_ns());
    if (round == 0) counters.traced_s = pair_s;
    traced_s = std::min(traced_s, pair_s);
    traced.push_back(std::move(pair));
  }

  // Step-only passes at 1 and 4 threads on the workload's trajectory: the
  // single-threaded baseline and the pool speed-up; their final domain is
  // the reference for the traced run's eroded cells and total workload.
  Track step_track(R);
  const StepOnly serial_steps = step_only(base, 1, step_track);
  Track pooled_track(R + 1);
  const StepOnly pooled = step_only(base, kPoolThreads, pooled_track);
  const double pool_speedup = serial_steps.step_s / pooled.step_s;
  const bool pooled_mismatch = pooled.eroded != serial_steps.eroded ||
                               pooled.workload != serial_steps.workload;

  Result result;
  std::int64_t mismatches = 0;
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t m = 0; m < 2; ++m) {
      const std::string tag = std::to_string(round) + "_" + std::to_string(m);
      const std::string diff = first_difference(traced[round][m], untraced[0][m]);
      const std::string again =
          first_difference(untraced[round][m], untraced[0][m]);
      if (!diff.empty()) result.info("traced_vs_untraced_" + tag, diff);
      if (!again.empty()) result.info("untraced_repeat_" + tag, again);
      mismatches += !diff.empty() + !again.empty();
    }
  }
  const std::int64_t lb_count =
      untraced[0][0].lb_count + untraced[0][1].lb_count;
  result.check("result_mismatches", mismatches);
  result.check("decision_mismatches", counters.decision_mismatches);
  result.check("lb_decision_mismatch", counters.lb_steps != lb_count);
  result.check("eroded_mismatch",
               counters.final_eroded != serial_steps.eroded ||
                   untraced[0][1].eroded_cells != serial_steps.eroded);
  result.check("workload_mismatch",
               counters.final_workload != serial_steps.workload);
  result.check("pooled_mismatch", pooled_mismatch);

  const Track& main_track = tracks[0];
  const auto cells = static_cast<double>(counters.frontier_cells);
  result.metric("erosion.step_s", counters.step_s, "s");
  result.metric("erosion.step_calls", static_cast<double>(counters.step_calls),
                "count");
  result.metric("erosion.frontier_cells", cells, "count");
  result.metric("erosion.ns_per_cell",
                cells > 0 ? counters.step_s / cells * 1e9 : 0.0, "ns");
  result.metric("erosion.pool_speedup", pool_speedup, "ratio");
  result.metric("erosion.build_s", counters.build_s, "s");
  result.metric("erosion.rebalance_s", counters.rebalance_s, "s");
  double discs_moved = 0.0, migrated = 0.0, step_messages = 0.0,
         step_bytes = 0.0;
  for (const auto& r : traced[0]) {
    discs_moved += static_cast<double>(r.rank_discs_moved);
    migrated += r.rank_observed_bytes;
    step_messages += static_cast<double>(r.rank_step_messages);
    step_bytes += r.rank_step_bytes;
  }
  result.metric("erosion.discs_moved", discs_moved, "count");
  result.metric("erosion.migrated_bytes", migrated, "B");
  result.metric("erosion.step_messages", step_messages, "count");
  result.metric("erosion.step_bytes", step_bytes, "B");
  result.metric("bsp.superstep_s",
                main_track.self_total("bsp.superstep") +
                    main_track.self_total("bsp.charge"),
                "s");
  result.metric("lb.loads_s", main_track.self_total("lb.loads"), "s");
  result.metric("lb.step_s", main_track.self_total("lb.step"), "s");
  result.metric("lb.steps", static_cast<double>(counters.lb_steps), "count");
  result.metric("lb.migration_bytes", counters.lb_migration_bytes, "B");
  result.metric("core.gossip_s", main_track.self_total("core.gossip"), "s");
  result.metric("core.gossip_rounds",
                static_cast<double>(counters.gossip_rounds), "count");
  result.metric("core.gossip_pushes",
                static_cast<double>(counters.gossip_pushes), "count");
  result.metric("core.detect_s", main_track.self_total("core.detect"), "s");
  result.metric("core.trigger_s", main_track.self_total("core.trigger"), "s");
  result.metric("core.lb_decisions", static_cast<double>(counters.lb_steps),
                "count");
  result.metric("runtime.wait_s", counters.wait_s, "s");
  result.metric("runtime.messages",
                static_cast<double>(counters.runtime_messages), "count");
  result.metric("runtime.bytes", static_cast<double>(counters.runtime_bytes),
                "B");
  result.metric("trace.overhead", traced_s / untraced_s, "ratio");
  result.metric("trace.unattributed",
                main_track.unattributed() / counters.traced_s, "ratio");
  result.info("untraced_s", std::to_string(untraced_s));
  result.info("traced_s", std::to_string(traced_s));
  result.info("serial_step_s", std::to_string(serial_steps.step_s));

  std::vector<const Track*> all;
  for (const Track& t : tracks) all.push_back(&t);
  all.push_back(&step_track);
  if (!spans_path.empty()) write_chrome_trace(spans_path, all);
  result.print(out);
  return 0;
}

}  // namespace perfbench
