// Real-threaded ULBA: the full §III-C machinery on the message-passing
// runtime, with genuinely measured (wall-clock) iteration times.
//
// Eight ranks iterate over a global sequence of work units, split
// contiguously like the paper's stripes. The units belong to "groups" (think
// columns): group 2 keeps spawning new units — whoever owns that region of
// the sequence is the overloading PE. Every iteration each rank:
//
//   1. burns real CPU time proportional to its owned units,
//   2. measures its workload-increase rate and gossips its WIR database to a
//      rotating peer (real messages, epidemic merge),
//   3. agrees on the iteration time (allreduce max) and feeds the Zhai-style
//      degradation trigger,
//   4. on a trigger, submits its α (z-score self-detection) to rank 0, which
//      computes the Algorithm-2 weight targets, re-cuts the unit sequence,
//      and broadcasts the new boundaries.
//
// Run once with the standard method (α ≡ 0) and once with ULBA, same
// workload, and compare.
//
//   ./adaptive_scheduler
//
// The flag-driven erosion counterpart of this machinery: `ulba_cli erosion`.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/detector.hpp"
#include "core/policy.hpp"
#include "core/trigger.hpp"
#include "core/wir_database.hpp"
#include "lb/partitioners.hpp"
#include "runtime/spmd.hpp"

namespace {

constexpr int kRanks = 8;
constexpr int kGroups = 64;         // "columns" of the unit sequence
constexpr int kIterations = 48;
constexpr int kHotGroup = 21;       // this group keeps spawning units
constexpr int kUnitsPerGroup = 48;
constexpr double kAlpha = 0.5;
constexpr int kFlopPerUnit = 12000;

/// Burn real CPU time for `units` work units.
double burn(double units) {
  volatile double x = 1.0;
  const auto steps = static_cast<long>(units * kFlopPerUnit);
  for (long i = 0; i < steps; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

/// Serialize/deserialize a WIR database as [wir…, stamp…] for gossip.
std::vector<double> pack(const ulba::core::WirDatabase& db) {
  std::vector<double> out;
  out.reserve(2 * static_cast<std::size_t>(db.pe_count()));
  for (std::int64_t pe = 0; pe < db.pe_count(); ++pe) {
    out.push_back(db.entry(pe).wir);
    out.push_back(static_cast<double>(db.entry(pe).iteration));
  }
  return out;
}

void unpack_merge(ulba::core::WirDatabase& db, const std::vector<double>& w) {
  for (std::int64_t pe = 0; pe < db.pe_count(); ++pe) {
    const auto stamp =
        static_cast<std::int64_t>(w[2 * static_cast<std::size_t>(pe) + 1]);
    if (stamp >= 0)
      db.update(pe, w[2 * static_cast<std::size_t>(pe)], stamp);
  }
}

struct RunStats {
  double total_seconds = 0.0;
  int lb_calls = 0;
  double mean_utilization = 0.0;
};

RunStats run_method(bool use_ulba) {
  RunStats stats;
  std::vector<double> per_rank_util_sum(kRanks, 0.0);

  ulba::runtime::spmd_run(kRanks, [&](ulba::runtime::Comm& comm) {
    using Clock = std::chrono::steady_clock;
    const int rank = comm.rank();

    // Replicated deterministic workload: units per group. Only ownership and
    // computation are distributed; the spawn schedule is known to all (the
    // erosion analogue: the domain geometry is globally defined, the cells
    // are computed by their owner).
    std::vector<double> group_units(kGroups, kUnitsPerGroup);
    ulba::lb::StripeBoundaries bounds =
        ulba::lb::even_partition(kGroups, kRanks);

    ulba::core::WirDatabase db(kRanks);
    const ulba::core::OverloadDetector detector(3.0);
    ulba::core::AdaptiveTrigger trigger;
    ulba::core::LbCostEstimator lb_cost(0.0005);
    double prev_owned = 0.0;
    bool wir_valid = false;
    double smoothed_wir = 0.0;
    const auto t0 = Clock::now();

    for (int iter = 0; iter < kIterations; ++iter) {
      // --- compute my stripe of the unit sequence (real CPU burn)
      double owned = 0.0;
      for (std::int64_t g = bounds[static_cast<std::size_t>(rank)];
           g < bounds[static_cast<std::size_t>(rank) + 1]; ++g)
        owned += group_units[static_cast<std::size_t>(g)];
      const auto it0 = Clock::now();
      (void)burn(owned);
      const double my_seconds =
          std::chrono::duration<double>(Clock::now() - it0).count();

      // --- WIR monitoring + one gossip round (real messages)
      if (wir_valid) {
        const double raw = std::max(0.0, owned - prev_owned);
        smoothed_wir = 0.5 * raw + 0.5 * smoothed_wir;
        db.update(rank, smoothed_wir, iter);
      }
      prev_owned = owned;
      wir_valid = true;
      const int shift = 1 + iter % (kRanks - 1);
      comm.send_span<double>((rank + shift) % kRanks, /*tag=*/1, pack(db));
      const auto incoming = comm.recv_vector<double>(
          (rank - shift + kRanks) % kRanks, /*tag=*/1);
      ulba::core::WirDatabase other(kRanks);
      unpack_merge(other, incoming);
      (void)db.merge_from(other);

      // --- everyone agrees on the iteration's parallel time
      const double step_seconds = comm.allreduce(
          my_seconds, [](double a, double b) { return std::max(a, b); });
      const double all_seconds = comm.allreduce(my_seconds);
      if (rank == 0)
        per_rank_util_sum[0] +=
            all_seconds / (kRanks * step_seconds);  // utilization
      trigger.record_iteration(step_seconds);

      // --- adaptive LB (Algorithm 1 + Algorithm 2, centralized at rank 0)
      if (iter + 1 < kIterations &&
          trigger.should_balance(lb_cost.average())) {
        const auto lb0 = Clock::now();
        double my_alpha = 0.0;
        if (use_ulba &&
            detector.is_overloading(db.entry(rank).wir, db.wirs()))
          my_alpha = kAlpha;
        const auto alphas = comm.gather(my_alpha, 0);
        if (rank == 0) {
          const double total = std::accumulate(group_units.begin(),
                                               group_units.end(), 0.0);
          const auto assignment =
              ulba::core::compute_lb_weights(alphas, total);
          bounds = ulba::lb::GreedyScanPartitioner{}.partition(
              group_units, assignment.fractions);
          ++stats.lb_calls;
        }
        std::vector<std::int64_t> new_bounds =
            rank == 0 ? bounds : std::vector<std::int64_t>{};
        comm.broadcast_vector(new_bounds, 0);
        // "Migrate": pay real CPU time proportional to the units entering or
        // leaving this rank — without it an LB step is nearly free and the
        // degradation trigger fires on timer noise alone.
        double new_owned = 0.0;
        for (std::int64_t g = new_bounds[static_cast<std::size_t>(rank)];
             g < new_bounds[static_cast<std::size_t>(rank) + 1]; ++g)
          new_owned += group_units[static_cast<std::size_t>(g)];
        (void)burn(2.0 * std::abs(new_owned - prev_owned));
        bounds = new_bounds;
        prev_owned = new_owned;
        wir_valid = false;  // the next delta would measure the migration
        trigger.reset();
        comm.barrier();
        // The trigger threshold must be identical on every rank or they will
        // disagree about future LB steps (and deadlock in the collectives) —
        // agree on the step's cost with a max-reduction.
        const double lb_seconds =
            std::chrono::duration<double>(Clock::now() - lb0).count();
        lb_cost.observe(comm.allreduce(
            lb_seconds, [](double a, double b) { return std::max(a, b); }));
      }

      // --- application dynamics: the hot group keeps spawning work
      group_units[kHotGroup] += 10.0;
      for (int g = 0; g < kGroups; ++g)
        group_units[static_cast<std::size_t>(g)] += 0.125;
    }

    if (rank == 0) {
      stats.total_seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      stats.mean_utilization = per_rank_util_sum[0] / kIterations;
    }
  });
  return stats;
}

}  // namespace

int main() {
  std::printf("Adaptive scheduler on the thread-backed message-passing "
              "runtime\n");
  std::printf("(%d ranks, %d unit groups, group %d overloads; real CPU burn, "
              "real messages)\n\n",
              kRanks, kGroups, kHotGroup);

  std::printf("warm-up (calibrates the CPU) ...\n");
  (void)burn(200.0);

  const RunStats std_run = run_method(/*use_ulba=*/false);
  const RunStats ulba_run = run_method(/*use_ulba=*/true);

  std::printf("\nstandard method : %.3f s wall, %d LB calls, mean "
              "utilization %.1f%%\n",
              std_run.total_seconds, std_run.lb_calls,
              std_run.mean_utilization * 100.0);
  std::printf("ULBA alpha=%.1f  : %.3f s wall, %d LB calls, mean "
              "utilization %.1f%%\n",
              kAlpha, ulba_run.total_seconds, ulba_run.lb_calls,
              ulba_run.mean_utilization * 100.0);
  std::printf("gain            : %+.1f%%\n",
              (std_run.total_seconds - ulba_run.total_seconds) /
                  std_run.total_seconds * 100.0);
  std::printf("\n(wall-clock numbers vary with machine load; the decision "
              "sequence is the demonstration)\n");
  return 0;
}
