// E-X5 (extension) — partitioner ablation: the paper's greedy stripe scan
// vs. 1-D recursive bisection vs. the exact min–max(load/target) optimum
// vs. weight-agnostic even stripes.
//
// Two questions: (a) how far from optimal is the paper's cutting technique
// on the erosion workload's column-weight profiles, and (b) does a better
// cut change the end-to-end standard-vs-ULBA comparison? (Spoiler: the
// greedy scan is already near-optimal on smooth profiles — the ULBA effect
// does not hinge on cutting quality.)
//
// Both sweeps live in the shared cli::sweep layer, so this harness drives
// the same implementation as `ulba_cli erosion --partitioner`.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main() {
  using namespace ulba;
  bench::print_header(
      "Ablation E-X5 — stripe cutting quality: greedy scan vs. RCB vs. "
      "exact optimum",
      "extends Boulmier et al. §IV-B (the paper's centralized stripe "
      "technique)");

  const std::vector<std::string> names{"greedy", "rcb", "optimal"};

  // Part 1: cutting quality on evolved erosion column-weight profiles.
  std::printf("\nBottleneck ratio max_p(load_p / target_p / Wtot) on erosion "
              "profiles\n(32 PEs, 1 strong rock, profile sampled every 30 "
              "iterations; 1.0 = ideal):\n\n");
  const auto quality_rows =
      bench::partitioner_quality_sweep(names, 32, 5, 30, 99);
  std::vector<std::string> headers{"iteration"};
  for (const std::string& n : names) headers.push_back(n);
  support::Table quality(headers);
  std::vector<double> greedy_gaps;
  for (const auto& row : quality_rows) {
    std::vector<std::string> cells{std::to_string(row.iteration)};
    for (const double r : row.ratios)
      cells.push_back(support::Table::num(r, 5));
    quality.add_row(cells);
    greedy_gaps.push_back(row.ratios[0] / row.ratios[2] - 1.0);
  }
  std::printf("%s\n", quality.render(2).c_str());

  // Part 2: end-to-end effect on the Figure-4a comparison (64 PEs, 1 rock),
  // LB steps cut by the partitioner under test.
  const std::vector<std::uint64_t> seeds{11, 22, 33};
  const auto e2e_rows = bench::partitioner_end_to_end(names, 64, 1, seeds);
  support::Table e2e({"partitioner", "standard [s]", "ULBA [s]", "ULBA gain"});
  for (const auto& row : e2e_rows) {
    e2e.add_row({row.name, support::Table::num(row.median_standard, 3),
                 support::Table::num(row.median_ulba, 3),
                 support::Table::pct((row.median_standard - row.median_ulba) /
                                         row.median_standard,
                                     1)});
  }
  std::printf("End-to-end erosion run (64 PEs, 1 strong rock, "
              "median of %zu seeds):\n\n%s\n",
              seeds.size(), e2e.render(2).c_str());

  const double greedy_gap = support::max_of(greedy_gaps);
  std::printf("  greedy scan within %.2f%% of the optimal cut (max over "
              "snapshots)\n",
              greedy_gap * 100.0);
  const bool ok = greedy_gap < 0.05;
  std::printf("\n  verdict: %s (the paper's technique is near-optimal on "
              "this workload)\n",
              ok ? "CONFIRMED" : "MISMATCH");
  return ok ? 0 : 1;
}
