#include "erosion/app.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "bsp/machine.hpp"
#include "core/detector.hpp"
#include "core/gossip.hpp"
#include "core/intervals.hpp"
#include "core/schedule.hpp"
#include "core/trigger.hpp"
#include "core/schedule_query.hpp"
#include "erosion/distributed_domain.hpp"
#include "lb/driver.hpp"
#include "opt/evaluate.hpp"
#include "lb/stripe_partitioner.hpp"
#include "runtime/spmd.hpp"
#include "support/burn.hpp"
#include "support/counter_rng.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"

namespace ulba::erosion {

AlphaPolicy alpha_policy_from_name(const std::string& name) {
  if (name == "fixed") return AlphaPolicy::kFixed;
  if (name == "fraction") return AlphaPolicy::kGossipFraction;
  if (name == "model") return AlphaPolicy::kGossipModel;
  throw std::invalid_argument("unknown alpha policy '" + name +
                              "' (accepted: fixed, fraction, model)");
}

std::string alpha_policy_name(AlphaPolicy policy) {
  switch (policy) {
    case AlphaPolicy::kFixed:
      return "fixed";
    case AlphaPolicy::kGossipFraction:
      return "fraction";
    case AlphaPolicy::kGossipModel:
      return "model";
  }
  return "fixed";
}

RngKind rng_kind_from_name(const std::string& name) {
  if (name == "counter") return RngKind::kCounter;
  if (name == "fork")
    throw std::invalid_argument(
        "the fork rng kind was removed; the dynamics run on the counter "
        "kernel only (accepted: counter)");
  throw std::invalid_argument("unknown rng kind '" + name +
                              "' (accepted: counter)");
}

TriggerSource trigger_source_from_name(const std::string& name) {
  if (name == "model") return TriggerSource::kModel;
  if (name == "measured") return TriggerSource::kMeasured;
  throw std::invalid_argument("unknown trigger source '" + name +
                              "' (accepted: model, measured)");
}

std::string trigger_source_name(TriggerSource source) {
  switch (source) {
    case TriggerSource::kModel:
      return "model";
    case TriggerSource::kMeasured:
      return "measured";
  }
  return "model";
}

TriggerCriterion trigger_criterion_from_name(const std::string& name) {
  if (name == "degradation") return TriggerCriterion::kDegradation;
  if (name == "fli") return TriggerCriterion::kFli;
  throw std::invalid_argument("unknown trigger criterion '" + name +
                              "' (accepted: degradation, fli)");
}

std::string trigger_criterion_name(TriggerCriterion criterion) {
  switch (criterion) {
    case TriggerCriterion::kDegradation:
      return "degradation";
    case TriggerCriterion::kFli:
      return "fli";
  }
  return "degradation";
}

namespace {

/// AlphaPolicy::kGossipFraction — shrink the base α as the detected
/// overloading fraction grows (Eq. (11)'s overhead is ∝ αN/(P−N)); vanish
/// at the 50 % fallback boundary. One definition serves both the per-PE
/// application and the main-PE trace so they can never drift apart.
double fraction_alpha(double base_alpha, std::int64_t n_hat,
                      std::int64_t pe_count) {
  return base_alpha * std::max(0.0, 1.0 - 2.0 * static_cast<double>(n_hat) /
                                        static_cast<double>(pe_count));
}

/// AlphaPolicy::kGossipModel — pick the α the analytic model recommends for
/// the REMAINING run, from one PE's (possibly stale) database view: estimate
/// (N̂, â, m̂) by splitting the WIR population at the detector's flags, bind
/// them to the live observables (Wtot, average LB cost, remaining γ), and
/// grid-search α over {0, 0.1, …, 1} with the σ⁺ schedule as the predicted
/// execution — the same sigma-grid ScheduleRequest the serve cache answers,
/// evaluated through the shared opt::evaluate_schedule_request entry point.
double model_grid_alpha(const core::OverloadDetector& detector,
                        std::span<const double> view, std::int64_t pe_count,
                        std::int64_t remaining_iterations, double wtot,
                        double flops, double lb_cost_avg) {
  const auto flags = detector.flags(view);
  double over_sum = 0.0, base_sum = 0.0;
  std::int64_t n_hat = 0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (flags[i]) {
      ++n_hat;
      over_sum += view[i];
    } else {
      base_sum += view[i];
    }
  }
  // Degenerate estimates fall back to α = 0 (standard behavior): nobody
  // overloads, the ≥50 % rule would demote the step anyway, or the horizon
  // is too short for an interval model to mean anything.
  if (n_hat == 0 || 2 * n_hat >= pe_count || remaining_iterations < 2)
    return 0.0;
  const double a_est =
      base_sum / static_cast<double>(pe_count - n_hat);
  const double m_est =
      std::max(0.0, over_sum / static_cast<double>(n_hat) - a_est);

  core::ScheduleRequest request;
  request.mode = core::EvalMode::kSigmaGrid;
  core::ModelParams& est = request.params;
  est.P = pe_count;
  est.N = n_hat;
  est.gamma = remaining_iterations;
  est.w0 = wtot;
  est.a = a_est;
  est.m = m_est;
  est.omega = flops;
  est.lb_cost = lb_cost_avg;
  est.alpha = 0.0;
  request.alpha_grid.reserve(11);
  for (int g = 0; g <= 10; ++g)
    request.alpha_grid.push_back(static_cast<double>(g) / 10.0);
  return opt::evaluate_schedule_request(request).best_alpha;
}

/// Prior LB-cost estimate: only the communication phases are predictable
/// before the first step (migration volume and rebuild depend on the data).
/// A deliberately low prior makes the first LB fire early — a cheap probing
/// step whose measured cost then calibrates the running average, the same
/// bootstrap Meta-Balancer-style systems use.
double prior_lb_cost(const AppConfig& config, std::int64_t columns) {
  const auto P = config.pe_count;
  return config.comm.gather(static_cast<std::int64_t>(sizeof(double)), P) +
         static_cast<double>(columns) * 8.0 / config.flops +
         config.comm.broadcast(
             static_cast<std::int64_t>((P + 1) * sizeof(std::int64_t)), P);
}

/// The virtual-time LB machinery of one run — monitoring (BSP supersteps +
/// WIR + gossip), the adaptive trigger, and the centralized Algorithm-2 LB
/// step — factored out of the stepping substrate so the in-process run and
/// the SPMD-distributed run drive BIT-identical machinery: the distributed
/// driver executes this controller on its main rank against gathered
/// weights, which is why its RunResult equals the serial one exactly.
///
/// Call protocol per iteration:
///   observe(iter, weights)                        — before the dynamics step
///   should_balance(iter, total_workload)          — after the dynamics step
///   balance(iter, weights, bytes, total_workload) — only when it said yes
///   end_iteration()                               — always, last
/// then take_result(weights, eroded) after the loop.
class LbController {
 public:
  LbController(const AppConfig& config,
               std::shared_ptr<const lb::Partitioner> partitioner,
               std::int64_t columns)
      : config_(config),
        machine_(config.pe_count, config.flops, config.comm),
        balancer_(config.comm, config.flops),
        gossip_(config.pe_count, config.gossip_fanout),
        detector_(config.zscore_threshold),
        gossip_rng_(support::Rng(config.seed).fork(2)),
        lb_cost_(prior_lb_cost(config, columns)),
        boundaries_(lb::even_partition(columns, config.pe_count)),
        // Gossip traffic per iteration: each PE pushes its P-entry database
        // (modeled at 16 bytes per entry on the wire, whatever the
        // in-memory layout) to `fanout` peers; pushes proceed
        // concurrently, so one PE's cost is its own `fanout` sends. The
        // oracle reference pays nothing — it models perfect knowledge, not
        // a protocol.
        gossip_seconds_(config.oracle_wir
                            ? 0.0
                            : static_cast<double>(config.gossip_fanout) *
                                  config.comm.p2p(16 * config.pe_count)),
        wir_(static_cast<std::size_t>(config.pe_count), 0.0) {
    balancer_.set_partitioner(std::move(partitioner));
    result_.iterations.reserve(static_cast<std::size_t>(config.iterations));
  }

  [[nodiscard]] const lb::StripeBoundaries& boundaries() const noexcept {
    return boundaries_;
  }
  [[nodiscard]] RunResult& result() noexcept { return result_; }

  /// Superstep + WIR monitoring + gossip round on the pre-step weights.
  void observe(std::int64_t iter, std::span<const double> column_weights) {
    const auto P = config_.pe_count;
    const auto loads = lb::stripe_loads(column_weights, boundaries_);
    const auto report = machine_.run_superstep(loads, gossip_seconds_);

    // WIR monitoring (skipped on the iteration right after an LB step:
    // stripe composition changed, the delta would measure migration, not
    // application growth).
    if (wir_valid_) {
      for (std::int64_t p = 0; p < P; ++p) {
        const auto i = static_cast<std::size_t>(p);
        const double raw = std::max(0.0, loads[i] - prev_loads_[i]);
        wir_[i] = config_.wir_smoothing * raw +
                  (1.0 - config_.wir_smoothing) * wir_[i];
        if (config_.oracle_wir)
          gossip_.observe_oracle(p, wir_[i], iter);
        else
          gossip_.observe_local(p, wir_[i], iter);
      }
    }
    prev_loads_ = loads;
    wir_valid_ = true;
    if (!config_.oracle_wir) gossip_.step(gossip_rng_);

    pending_ = IterationRecord{};
    pending_.seconds = report.seconds;
    pending_.utilization = report.utilization;
  }

  /// Adaptive-trigger half (call after the dynamics stepped): true when this
  /// iteration must end in an LB step.
  [[nodiscard]] bool should_balance(std::int64_t iter, double total_workload) {
    trigger_.record_iteration(pending_.seconds);
    const double threshold = trigger_threshold(iter, total_workload);
    pending_.degradation = trigger_.degradation();
    pending_.threshold = threshold;

    bool balance_now = false;
    switch (config_.trigger_mode) {
      case TriggerMode::kAdaptive:
        balance_now = trigger_.should_balance(threshold);
        break;
      case TriggerMode::kPeriodic:
        balance_now = (iter + 1) % config_.lb_period == config_.lb_phase;
        break;
      case TriggerMode::kNever:
        balance_now = false;
        break;
    }
    const bool last_iteration = iter + 1 >= config_.iterations;
    return !last_iteration && balance_now;
  }

  /// The centralized LB step (Algorithm 1, lines 17–23): each PE classifies
  /// itself from its own (gossip-fed, possibly stale) database view; the α
  /// it applies comes from the configured AlphaPolicy (E-X4).
  void balance(std::int64_t iter, std::span<const double> column_weights,
               std::span<const double> column_bytes, double total_workload) {
    const auto P = config_.pe_count;
    std::vector<double> alphas(static_cast<std::size_t>(P), 0.0);
    double step_alpha = 0.0;
    if (config_.method == Method::kUlba) {
      // kGossipModel's α is chosen once at the main PE (whose database the
      // centralized LB step gathers at anyway) and broadcast; the other
      // policies are evaluated per PE against its own view.
      double model_alpha = 0.0;
      if (config_.alpha_policy == AlphaPolicy::kGossipModel)
        model_alpha = model_alpha_for(iter, total_workload);
      for (std::int64_t p = 0; p < P; ++p) {
        const auto i = static_cast<std::size_t>(p);
        const auto view = gossip_.database(p).wirs();
        if (!detector_.is_overloading(wir_[i], view)) continue;
        double a = config_.alpha;
        switch (config_.alpha_policy) {
          case AlphaPolicy::kFixed:
            break;
          case AlphaPolicy::kGossipFraction:
            a = fraction_alpha(config_.alpha,
                               detector_.count_overloading(view), P);
            break;
          case AlphaPolicy::kGossipModel:
            a = model_alpha;
            break;
        }
        alphas[i] = a;
      }
      // Report the α the main PE's view implies, whether or not PE 0
      // itself overloads — the per-interval trace of `lb_alphas`.
      switch (config_.alpha_policy) {
        case AlphaPolicy::kFixed:
          step_alpha = config_.alpha;
          break;
        case AlphaPolicy::kGossipFraction:
          step_alpha = fraction_alpha(
              config_.alpha,
              detector_.count_overloading(gossip_.database(0).wirs()), P);
          break;
        case AlphaPolicy::kGossipModel:
          step_alpha = model_alpha;
          break;
      }
    }
    const auto lb_step = balancer_.step(alphas, column_weights, column_bytes,
                                        boundaries_);
    machine_.charge_global(lb_step.cost.total());
    lb_cost_.observe(lb_step.cost.total());
    trigger_.reset();
    boundaries_ = lb_step.boundaries;
    wir_valid_ = false;  // next delta would measure the migration
    if (lb_step.assignment.fell_back_to_standard) ++result_.fallback_count;
    ++result_.lb_count;
    result_.lb_seconds += lb_step.cost.total();
    result_.lb_iterations.push_back(iter);
    result_.lb_alphas.push_back(step_alpha);
    pending_.lb_performed = true;
  }

  /// Close the books on the current iteration.
  void end_iteration() {
    result_.compute_seconds += pending_.seconds;
    result_.iterations.push_back(pending_);
  }

  [[nodiscard]] RunResult take_result(std::span<const double> column_weights,
                                      std::int64_t eroded_cells) {
    result_.total_seconds = machine_.elapsed_seconds();
    result_.average_utilization = machine_.average_utilization();
    result_.eroded_cells = eroded_cells;
    result_.final_imbalance =
        lb::load_imbalance(column_weights, boundaries_);
    return std::move(result_);
  }

 private:
  /// The model policy's grid-searched α for iteration `iter`, memoized: the
  /// trigger-threshold evaluation and the LB step of one iteration see the
  /// same gossip/cost state, so the (expensive) grid search runs once.
  [[nodiscard]] double model_alpha_for(std::int64_t iter,
                                       double total_workload) const {
    if (model_alpha_iter_ != iter) {
      model_alpha_memo_ = model_grid_alpha(
          detector_, gossip_.database(0).wirs(), config_.pe_count,
          config_.iterations - (iter + 1), total_workload, config_.flops,
          lb_cost_.average());
      model_alpha_iter_ = iter;
    }
    return model_alpha_memo_;
  }

  /// The α the configured policy would apply at this instant — fed into the
  /// Eq. (11) trigger overhead so trigger and LB step agree (the ROADMAP
  /// follow-up: previously the trigger always used the fixed base α even
  /// when the LB step was about to apply a policy-chosen one).
  [[nodiscard]] double policy_alpha(std::int64_t iter, double total_workload,
                                    std::int64_t n_hat) const {
    switch (config_.alpha_policy) {
      case AlphaPolicy::kFixed:
        return config_.alpha;
      case AlphaPolicy::kGossipFraction:
        return fraction_alpha(config_.alpha, n_hat, config_.pe_count);
      case AlphaPolicy::kGossipModel:
        return model_alpha_for(iter, total_workload);
    }
    return config_.alpha;
  }

  /// Eq. (11): average LB cost plus, for ULBA, the overhead the next
  /// underloading step would impose on a non-overloading PE, estimated from
  /// the main PE's WIR database at the policy's current α.
  [[nodiscard]] double trigger_threshold(std::int64_t iter,
                                         double total_workload) const {
    double threshold = lb_cost_.average();
    if (config_.method == Method::kUlba &&
        config_.anticipate_overhead_in_trigger) {
      const auto P = config_.pe_count;
      const auto known = gossip_.database(0).wirs();
      const std::int64_t n_hat = detector_.count_overloading(known);
      if (n_hat > 0 && 2 * n_hat < P) {
        const double a = policy_alpha(iter, total_workload, n_hat);
        threshold += a * static_cast<double>(n_hat) /
                     static_cast<double>(P - n_hat) * total_workload /
                     (config_.flops * static_cast<double>(P));
      }
    }
    return threshold;
  }

  const AppConfig& config_;
  bsp::Machine machine_;
  lb::CentralizedLb balancer_;
  core::GossipNetwork gossip_;
  core::OverloadDetector detector_;
  core::AdaptiveTrigger trigger_;
  support::Rng gossip_rng_;
  core::LbCostEstimator lb_cost_;
  lb::StripeBoundaries boundaries_;
  double gossip_seconds_;
  std::vector<double> wir_;
  std::vector<double> prev_loads_;
  bool wir_valid_ = false;
  IterationRecord pending_;
  RunResult result_;
  mutable std::int64_t model_alpha_iter_ = -1;
  mutable double model_alpha_memo_ = 0.0;
};

/// The SPMD-distributed run (AppConfig::ranks > 1): every rank steps its
/// stripe of the DistributedDomain; the main rank additionally executes the
/// LbController against weights reassembled through real messages, so the
/// RunResult is bit-identical to the in-process run — plus the distributed
/// migration accounting.
///
/// With AppConfig::measure_time, every rank also burns real CPU ∝ its
/// stripe's workload per iteration (and ∝ its migration payload per LB
/// step, optionally perturbed by the `mt_noise` interference model), and a
/// steady_clock track — iteration maxima, measured degradation, timing-based
/// fractional imbalance, per-LB-step cost — is recorded into
/// RunResult::measured. Under TriggerSource::kModel the LB verdicts still
/// come from the virtual-time controller, so the trajectory is bit-identical
/// to the model-time run: the measurements ride alongside the model, they
/// never steer it. Under TriggerSource::kMeasured the loop closes: the main
/// rank runs Algorithm 1 (or the fli test) on the gathered real timings and
/// broadcasts THAT verdict, so the LB schedule follows the hardware — the
/// virtual track is still recorded, now as the report-only side.
RunResult run_distributed(const AppConfig& config,
                          const DomainConfig& domain_config) {
  using Clock = std::chrono::steady_clock;
  using support::seconds_since;
  const auto max_op = [](double a, double b) { return std::max(a, b); };
  RunResult result;
  const int R = static_cast<int>(config.ranks);
  runtime::spmd_run(
      R, [&](runtime::Comm& comm) {
        const std::shared_ptr<const lb::Partitioner> partitioner(
            lb::make_partitioner(config.partitioner));
        const ExchangeMode exchange =
            exchange_mode_from_name(config.exchange);
        GridOptions grid;
        grid.grid_rows = config.grid_rows;
        grid.grid_cols = config.grid_cols;
        grid.tuner = config.tuner;
        grid.tuner_config = {config.tuner_cap, config.tuner_maxiter,
                             config.tuner_tol};
        DistributedDomain domain =
            config.decomp == "grid"
                ? DistributedDomain(domain_config, comm, partitioner,
                                    exchange, grid)
                : DistributedDomain(domain_config, comm, partitioner,
                                    exchange);
        // The dynamics key off their own forked sub-seed, so they cannot
        // collide with the placement/gossip streams.
        const std::uint64_t dynamics_seed =
            support::Rng(config.seed).fork(1).seed();
        std::optional<support::ThreadPool> pool;
        if (config.threads > 1)
          pool.emplace(static_cast<std::size_t>(config.threads));
        const bool main = comm.rank() == 0;
        std::optional<LbController> ctl;
        if (main) ctl.emplace(config, partitioner, domain.columns());
        const double byte_scale =
            config.bytes_per_cell / config.flop_per_cell;
        const bool mt = config.measure_time;
        const bool measured_src =
            config.trigger_source == TriggerSource::kMeasured;
        MeasuredTimes measured;
        // Main rank: Algorithm 1 on the real clock. Report-only under the
        // model source; the deciding trigger under the measured source.
        core::AdaptiveTrigger measured_trigger;
        // Running average of the observed (allreduced-max) LB-step costs —
        // the measured threshold. The prior is never consulted: before the
        // first observation the measured trigger bootstraps its threshold
        // from the reference iteration time instead (an LB step is assumed
        // to cost about one quiet iteration, the cheap-probe bootstrap).
        core::LbCostEstimator measured_lb_cost(0.0);
        // Interference model: position-addressed noise, so the burn
        // perturbation of (rank, iter) is deterministic per seed and
        // independent of the placement/dynamics/gossip streams.
        const support::CounterRng noise_rng(config.seed, 0x6E6F697365ull);
        double measured_util_sum = 0.0;
        std::int64_t measured_util_iters = 0;
        const auto run0 = Clock::now();

        for (std::int64_t iter = 0; iter < config.iterations; ++iter) {
          // Monitoring gather (collective): the main rank reassembles the
          // full pre-step weights and runs superstep/WIR/gossip on them.
          const std::vector<double> weights = domain.gather_column_weights(0);
          if (main) ctl->observe(iter, weights);

          // Measured mode: compute my stripe for real (burn ∝ owned
          // workload) and agree on the iteration time — the max over ranks,
          // exactly what a barriered superstep would observe.
          if (mt) {
            double owned = 0.0;
            for (const double w : domain.local_column_weights()) owned += w;
            if (config.mt_noise > 0.0) {
              // 1 + noise·u, u uniform on [−1, 1): multi-tenant
              // interference scaling this rank's burn this iteration.
              const double u =
                  2.0 * noise_rng.uniform01(
                            static_cast<std::uint64_t>(comm.rank()),
                            static_cast<std::uint64_t>(iter)) -
                  1.0;
              owned *= 1.0 + config.mt_noise * u;
            }
            const auto it0 = Clock::now();
            support::burn(owned, config.ns_scale);
            const double my_seconds = seconds_since(it0);
            const double step_max = comm.allreduce(my_seconds, max_op);
            const double step_sum = comm.allreduce(my_seconds);
            // Timing-based imbalance of THIS iteration (collective, same
            // value on every rank): the reactive fli criterion's signal.
            const double fli = domain.fractional_load_imbalance(my_seconds);
            if (main) {
              measured.iteration_seconds.push_back(step_max);
              measured.compute_seconds += step_max;
              if (step_max > 0.0) {
                measured_util_sum +=
                    step_sum / (static_cast<double>(R) * step_max);
                ++measured_util_iters;
              }
              measured_trigger.record_iteration(step_max);
              measured.degradation.push_back(measured_trigger.degradation());
              measured.fli.push_back(fli);
            }
          }

          // Application dynamics (collective; independent of LB decisions).
          (void)domain.step_counter(dynamics_seed, iter,
                                    pool ? &*pool : nullptr);

          // The trigger decides at the main rank; the verdict is broadcast
          // so every rank enters (or skips) the LB collectives in lockstep.
          std::uint8_t balance_now = 0;
          if (main) {
            // Always run the virtual-time controller's trigger half — it
            // records the model-clock degradation/threshold trace either
            // way. Under the model source its verdict decides; under the
            // measured source it is recorded and discarded.
            const bool model_verdict =
                ctl->should_balance(iter, domain.total_workload());
            if (!measured_src) {
              balance_now = model_verdict ? 1 : 0;
            } else {
              bool fire = false;
              switch (config.trigger_criterion) {
                case TriggerCriterion::kDegradation: {
                  const double threshold =
                      measured_lb_cost.observations() > 0
                          ? measured_lb_cost.average()
                          : measured_trigger.reference_time();
                  fire = measured_trigger.should_balance(threshold);
                  break;
                }
                case TriggerCriterion::kFli:
                  fire = measured.fli.back() >= config.fli_threshold;
                  break;
              }
              const bool last_iteration = iter + 1 >= config.iterations;
              balance_now = (!last_iteration && fire) ? 1 : 0;
            }
          }
          comm.broadcast(balance_now, 0);
          if (balance_now != 0) {
            const auto lb0 = Clock::now();
            // One reassembly serves both the centralized LB step (main
            // rank) and the stripe recut (every rank).
            const std::vector<double> post =
                domain.allgather_column_weights();
            if (main) {
              std::vector<double> bytes(post.size());
              for (std::size_t x = 0; x < post.size(); ++x)
                bytes[x] = post[x] * byte_scale;
              ctl->balance(iter, post, bytes, domain.total_workload());
            }
            // Recut the rank stripes against the freshly balanced weights —
            // column weights and disc ownership move as real messages.
            const auto mig0 = Clock::now();
            const DistributedReshardResult reshard = domain.rebalance(post);
            if (mt) {
              // Pack/unpack cost ∝ the payload THIS rank really moved.
              support::burn(reshard.my_payload_bytes,
                            config.ns_scale * config.migration_scale);
              const double mig_max =
                  comm.allreduce(seconds_since(mig0), max_op);
              const double lb_max =
                  comm.allreduce(seconds_since(lb0), max_op);
              if (main) {
                measured.migration_seconds += mig_max;
                measured.lb_step_seconds.push_back(lb_max);
                measured.lb_seconds += lb_max;
                // The observed real cost of this LB step calibrates the
                // measured trigger's threshold (principle of persistence).
                measured_lb_cost.observe(lb_max);
                measured_trigger.reset();
              }
            }
            if (main) {
              ctl->result().rank_discs_moved += reshard.discs_moved;
              ctl->result().rank_migration_bytes +=
                  reshard.predicted.total_bytes;
              ctl->result().rank_observed_bytes +=
                  reshard.observed_payload_bytes;
              if (reshard.tuner_ran)
                ctl->result().grid_tuner_iterations +=
                    reshard.tuned_cols.iterations +
                    reshard.tuned_rows.iterations;
            }
          }
          if (main) ctl->end_iteration();
        }
        const std::vector<double> final_weights =
            domain.gather_column_weights(0);
        // Collective: the decomposition-level (per-RANK) imbalance of the
        // final cut — distinct from RunResult::final_imbalance, which rates
        // the controller's PE stripes.
        const double fractional = domain.fractional_load_imbalance();
        const auto step_messages = comm.allreduce(
            static_cast<std::int64_t>(domain.step_messages_sent()));
        const auto step_bytes = comm.allreduce(
            static_cast<double>(domain.step_payload_bytes_sent()));
        if (main) {
          result = ctl->take_result(final_weights, domain.eroded_cells());
          result.rank_step_messages = step_messages;
          result.rank_step_bytes = step_bytes;
          result.rank_fractional_imbalance = fractional;
          if (mt) {
            measured.wall_seconds = seconds_since(run0);
            // Average over the iterations that actually contributed a
            // ratio — iterations whose max burn rounded to zero carry no
            // utilization information and must not dilute the mean.
            measured.utilization =
                measured_util_iters > 0
                    ? measured_util_sum /
                          static_cast<double>(measured_util_iters)
                    : 0.0;
            result.measured = std::move(measured);
          }
        }
      });
  return result;
}

/// The domain a config describes: pe_count discs of the given radius,
/// centered in each initial stripe, `strong_rock_count` of them strongly
/// erodible (chosen by the placement stream of `seed`).
DomainConfig domain_of(const AppConfig& config) {
  // Placement stream: which discs are strongly erodible. "It is not known in
  // advance where the rocks with a high eroding probability are located."
  support::Rng placement = support::Rng(config.seed).fork(0);
  const auto strong = placement.sample_without_replacement(
      static_cast<std::size_t>(config.pe_count),
      static_cast<std::size_t>(config.strong_rock_count));
  std::vector<bool> is_strong(static_cast<std::size_t>(config.pe_count),
                              false);
  for (std::size_t s : strong) is_strong[s] = true;

  DomainConfig d;
  d.columns = config.columns();
  d.rows = config.rows;
  d.flop_per_cell = config.flop_per_cell;
  d.bytes_per_cell = config.bytes_per_cell;
  d.discs.reserve(static_cast<std::size_t>(config.pe_count));
  for (std::int64_t i = 0; i < config.pe_count; ++i) {
    RockDisc disc;
    disc.cx = i * config.columns_per_pe + config.columns_per_pe / 2;
    disc.cy = config.rows / 2;
    disc.radius = config.rock_radius;
    disc.erosion_prob = is_strong[static_cast<std::size_t>(i)]
                            ? config.strong_probability
                            : config.weak_probability;
    d.discs.push_back(disc);
  }
  d.validate();
  return d;
}

/// The lockstep grouping rule of run_all: both configs step in-process,
/// and every input of their dynamics — the domain, the seed, the horizon
/// and the stepping threads — is equal.
bool shares_dynamics(const AppConfig& a, const AppConfig& b) {
  return a.ranks == 1 && b.ranks == 1 && a.pe_count == b.pe_count &&
         a.columns_per_pe == b.columns_per_pe && a.rows == b.rows &&
         a.rock_radius == b.rock_radius &&
         a.strong_rock_count == b.strong_rock_count &&
         a.weak_probability == b.weak_probability &&
         a.strong_probability == b.strong_probability &&
         a.flop_per_cell == b.flop_per_cell &&
         a.bytes_per_cell == b.bytes_per_cell && a.seed == b.seed &&
         a.iterations == b.iterations && a.threads == b.threads;
}

/// The in-process run (ranks == 1) of one lockstep group: a single domain
/// steps the shared dynamics once per iteration, and every config's
/// LbController observes and balances against it. Results come back in
/// group order.
std::vector<RunResult> run_in_process(std::span<const AppConfig* const> group) {
  const AppConfig& lead = *group.front();
  // Independent streams: the dynamics must not depend on LB decisions, so
  // every variant sees identical erosion for one seed. The counter kernel
  // consumes only the forked sub-seed (its draws are position-addressed).
  const std::uint64_t dynamics_seed = support::Rng(lead.seed).fork(1).seed();
  ErosionDomain domain(domain_of(lead));

  std::deque<LbController> ctls;
  for (const AppConfig* config : group)
    ctls.emplace_back(*config, lb::make_partitioner(config->partitioner),
                      domain.config().columns);

  // The counter kernel's pool; without one it steps inline.
  std::optional<support::ThreadPool> pool;
  if (lead.threads > 1) pool.emplace(static_cast<std::size_t>(lead.threads));
  support::ThreadPool* const pool_ptr = pool ? &*pool : nullptr;

  for (std::int64_t iter = 0; iter < lead.iterations; ++iter) {
    for (LbController& ctl : ctls) ctl.observe(iter, domain.column_weights());

    // --- application dynamics (independent of every LB decision)
    domain.step_counter(dynamics_seed, iter, pool_ptr);

    const double total_workload = domain.total_workload();
    std::optional<std::vector<double>> bytes;  // shared by this iteration's LBs
    for (LbController& ctl : ctls) {
      if (ctl.should_balance(iter, total_workload)) {
        if (!bytes) bytes = domain.column_bytes();
        ctl.balance(iter, domain.column_weights(), *bytes, total_workload);
      }
      ctl.end_iteration();
    }
  }

  std::vector<RunResult> results;
  results.reserve(ctls.size());
  for (LbController& ctl : ctls)
    results.push_back(
        ctl.take_result(domain.column_weights(), domain.eroded_cells()));
  return results;
}

}  // namespace

void AppConfig::validate() const {
  ULBA_REQUIRE(pe_count >= 2, "need at least two PEs");
  ULBA_REQUIRE(columns_per_pe >= 4, "need at least four columns per PE");
  ULBA_REQUIRE(rows >= 4, "need at least four rows");
  ULBA_REQUIRE(rock_radius >= 1, "rock radius must be at least one cell");
  ULBA_REQUIRE(2 * rock_radius + 2 < rows,
               "rocks must fit inside the domain height");
  ULBA_REQUIRE(2 * rock_radius + 2 < columns_per_pe,
               "rocks must fit one per initial stripe without touching");
  ULBA_REQUIRE(strong_rock_count >= 0 && strong_rock_count <= pe_count,
               "strong rocks must number in [0, P]");
  ULBA_REQUIRE(weak_probability >= 0.0 && weak_probability <= 1.0 &&
                   strong_probability >= 0.0 && strong_probability <= 1.0,
               "erosion probabilities must lie in [0, 1]");
  ULBA_REQUIRE(iterations >= 1, "need at least one iteration");
  ULBA_REQUIRE(iterations <= std::numeric_limits<std::int32_t>::max(),
               "iterations must fit the 32-bit WIR stamps");
  ULBA_REQUIRE(flops > 0.0, "PE speed must be positive");
  ULBA_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must lie in [0, 1]");
  ULBA_REQUIRE(gossip_fanout >= 1 && gossip_fanout < pe_count,
               "gossip fanout must lie in [1, P)");
  ULBA_REQUIRE(wir_smoothing > 0.0 && wir_smoothing <= 1.0,
               "WIR smoothing factor must lie in (0, 1]");
  ULBA_REQUIRE(lb_period >= 1, "LB period must be at least one iteration");
  ULBA_REQUIRE(lb_phase >= 0 && lb_phase < lb_period,
               "LB phase must lie in [0, lb_period)");
  ULBA_REQUIRE(threads >= 1, "need at least one stepping thread");
  ULBA_REQUIRE(ranks >= 1 && ranks <= pe_count,
               "rank count must lie in [1, pe_count]");
  ULBA_REQUIRE(!measure_time || ranks > 1,
               "measured-time mode runs on the SPMD runtime (ranks > 1)");
  ULBA_REQUIRE(ns_scale > 0.0 && migration_scale >= 0.0,
               "ns_scale must be positive and migration_scale nonnegative");
  ULBA_REQUIRE(trigger_source == TriggerSource::kModel || measure_time,
               "the measured trigger source needs measured-time mode "
               "(ranks > 1 with measure_time)");
  ULBA_REQUIRE(trigger_source == TriggerSource::kModel ||
                   trigger_mode == TriggerMode::kAdaptive,
               "the measured trigger source drives the adaptive trigger "
               "only (periodic/never schedules are clock-independent)");
  ULBA_REQUIRE(trigger_criterion == TriggerCriterion::kDegradation ||
                   trigger_source == TriggerSource::kMeasured,
               "a trigger criterion other than degradation requires the "
               "measured trigger source");
  ULBA_REQUIRE(fli_threshold > 0.0,
               "the fli trigger threshold must be positive");
  ULBA_REQUIRE(mt_noise >= 0.0 && mt_noise < 1.0,
               "measured-time burn noise must lie in [0, 1)");
  ULBA_REQUIRE(mt_noise == 0.0 || measure_time,
               "burn noise only exists in measured-time mode");
  ULBA_REQUIRE(decomp == "stripes" || decomp == "grid",
               "unknown decomposition (accepted: stripes, grid)");
  ULBA_REQUIRE(decomp == "stripes" || ranks > 1,
               "the grid decomposition runs on the SPMD runtime (ranks > 1)");
  ULBA_REQUIRE(decomp == "grid" || (grid_rows == 0 && grid_cols == 0),
               "a grid shape is only meaningful with the grid decomposition");
  ULBA_REQUIRE(!tuner || decomp == "grid",
               "the boundary tuner requires the grid decomposition");
  ULBA_REQUIRE(tuner_cap > 0.0 && tuner_cap <= 0.5,
               "tuner cap must lie in (0, 0.5]");
  ULBA_REQUIRE(tuner_maxiter >= 1, "tuner needs at least one iteration");
  ULBA_REQUIRE(tuner_tol >= 1.0, "tuner tolerance must be >= 1");
  if (decomp == "grid")  // throws on non-factorable shape requests
    (void)lb::resolve_grid_shape(ranks, grid_rows, grid_cols);
  (void)lb::make_partitioner(partitioner);  // throws on unknown names
  (void)exchange_mode_from_name(exchange);  // throws on unknown names
  comm.validate();
}

ErosionApp::ErosionApp(AppConfig config) : config_(config) {
  config_.validate();
}

DomainConfig ErosionApp::make_domain() const {
  return domain_of(config_);
}

RunResult ErosionApp::run() const {
  return run_all(std::span<const AppConfig>(&config_, 1)).front();
}

std::vector<RunResult> run_all(std::span<const AppConfig> configs) {
  for (const AppConfig& c : configs) c.validate();
  std::vector<RunResult> results(configs.size());
  std::vector<std::uint8_t> grouped(configs.size(), 0);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (grouped[i] != 0) continue;
    // ranks > 1: the same machinery over the SPMD runtime (real messages),
    // bit-identical by construction — see run_distributed/LbController.
    if (configs[i].ranks > 1) {
      results[i] = run_distributed(configs[i], domain_of(configs[i]));
      continue;
    }
    std::vector<std::size_t> members{i};
    for (std::size_t j = i + 1; j < configs.size(); ++j) {
      if (grouped[j] == 0 && shares_dynamics(configs[i], configs[j])) {
        members.push_back(j);
        grouped[j] = 1;
      }
    }
    std::vector<const AppConfig*> group;
    group.reserve(members.size());
    for (const std::size_t m : members) group.push_back(&configs[m]);
    std::vector<RunResult> group_results = run_in_process(group);
    for (std::size_t k = 0; k < members.size(); ++k)
      results[members[k]] = std::move(group_results[k]);
  }
  return results;
}

}  // namespace ulba::erosion
