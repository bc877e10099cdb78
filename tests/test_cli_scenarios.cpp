// Golden-output tests for all six `ulba_cli` subcommands.
//
// Every scenario is driven through cli::run with a pinned seed and a small,
// fast configuration; the full report text is compared byte-for-byte against
// tests/golden/<name>.txt. The virtual-time machine makes every subcommand
// deterministic (only `erosion --ranks R --mt` measures wall clock, and is
// therefore exercised structurally, not golden-matched).
//
// Regenerate the golden files after an intentional output change with
//   ULBA_UPDATE_GOLDEN=1 ctest -R test_cli_scenarios
// and review the diff like any other code change.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "test_helpers.hpp"

#ifndef ULBA_GOLDEN_DIR
#error "ULBA_GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif

namespace ulba::cli {
namespace {

std::string run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  const int exit_code = run(args, out);
  EXPECT_EQ(exit_code, 0) << "args[0] = " << (args.empty() ? "" : args[0]);
  return out.str();
}

void expect_matches_golden(const std::string& name,
                           const std::vector<std::string>& args) {
  const std::string text = run_cli(args);
  const std::string path = std::string(ULBA_GOLDEN_DIR) + "/" + name + ".txt";
  if (std::getenv("ULBA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << text;
    return;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with ULBA_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << f.rdbuf();
  EXPECT_EQ(text, expected.str())
      << "output of `ulba_cli " << name
      << "` drifted from " << path
      << " — regenerate with ULBA_UPDATE_GOLDEN=1 if intentional";
}

// ---------------------------------------------------------------------------
// Golden outputs, one per subcommand (fixed seeds, small configurations)
// ---------------------------------------------------------------------------
TEST(CliGolden, Quickstart) {
  expect_matches_golden("quickstart", {"quickstart"});
}

TEST(CliGolden, Erosion) {
  expect_matches_golden(
      "erosion", {"erosion", "--pes", "16", "--iterations", "60",
                  "--columns-per-pe", "48", "--rows", "64", "--rock-radius",
                  "16", "--seed", "3"});
}

TEST(CliGolden, ErosionThreaded) {
  // The pooled counter kernel is bit-identical to the serial one, so the
  // --threads report is a stable golden too (and identical for every N).
  expect_matches_golden(
      "erosion_threads", {"erosion", "--pes", "16", "--iterations", "60",
                          "--columns-per-pe", "48", "--rows", "64",
                          "--rock-radius", "16", "--seed", "3", "--threads",
                          "4"});
  const auto base = [](const char* threads) {
    return std::vector<std::string>{
        "erosion", "--pes", "16", "--iterations", "60", "--columns-per-pe",
        "48", "--rows", "64", "--rock-radius", "16", "--seed", "3",
        "--threads", threads};
  };
  EXPECT_EQ(run_cli(base("2")), run_cli(base("2")));
  // Thread count is not echoed per se — but the virtual-time numbers must
  // be identical across pool sizes; normalize the one line that names it.
  auto normalize = [](std::string s) {
    const auto pos = s.find(" stepping thread(s)");
    if (pos != std::string::npos) {
      const auto comma = s.rfind(", ", pos);
      s.erase(comma, pos - comma);
    }
    return s;
  };
  EXPECT_EQ(normalize(run_cli(base("2"))), normalize(run_cli(base("8"))));
}

TEST(CliGolden, ErosionDistributed) {
  // The SPMD-distributed stepper: 4 ranks, each with a 2-thread pool. The
  // virtual-time numbers are bit-identical to the serial run (see
  // DistributedReportMatchesSerialReport below); the golden additionally
  // pins the distributed header and the rank-migration accounting.
  expect_matches_golden(
      "erosion_distributed",
      {"erosion", "--pes", "16", "--iterations", "60", "--columns-per-pe",
       "48", "--rows", "64", "--rock-radius", "16", "--seed", "3", "--ranks",
       "4", "--threads", "2"});
}

TEST(CliGolden, ErosionCounter) {
  // Pinning the only RNG kind (--rng counter) changes nothing: the report
  // is the default one, THE trajectory every threads/ranks combination
  // must reproduce (see CounterReportInvariantAcrossSteppers).
  expect_matches_golden(
      "erosion", {"erosion", "--pes", "16", "--iterations", "60",
                  "--columns-per-pe", "48", "--rows", "64", "--rock-radius",
                  "16", "--seed", "3", "--rng", "counter"});
}

TEST(CliGolden, IntervalQuality) {
  expect_matches_golden("interval_quality",
                        {"interval-quality", "--instances", "40",
                         "--sa-steps", "600"});
}

TEST(CliGolden, DynamicAlpha) {
  // 120 iterations keep the run fast while giving the model policy a long
  // enough horizon to pick a nonzero α mid-run (the trace in the golden).
  expect_matches_golden(
      "dynamic_alpha",
      {"dynamic-alpha", "--pes", "16", "--seeds", "1", "--iterations", "120",
       "--rocks", "2", "--instances", "10"});
}

TEST(CliGolden, Intervals) {
  expect_matches_golden("intervals", {"intervals", "--gamma", "40",
                                      "--alpha-steps", "4"});
}

TEST(CliGolden, AlphaTuning) {
  expect_matches_golden("alpha_tuning",
                        {"alpha-tuning", "--alpha-min", "0.2", "--alpha-max",
                         "0.8", "--alpha-step", "0.2"});
}

TEST(CliGolden, Gossip) {
  expect_matches_golden("gossip",
                        {"gossip", "--pes", "8", "--seeds", "1",
                         "--iterations", "40", "--trials", "3"});
}

TEST(CliGolden, Instances) {
  expect_matches_golden("instances", {"instances", "--samples", "40",
                                      "--alpha-grid", "10"});
}

// ---------------------------------------------------------------------------
// Invariance at the report level
// ---------------------------------------------------------------------------
// The distributed run's report equals the serial run's, modulo the
// distributed-specific lines — the app-level face of the determinism
// contract (`test_distributed_erosion` locks the RunResult itself).
TEST(CliScenarios, DistributedReportMatchesSerialReport) {
  const std::vector<std::string> base{
      "erosion", "--pes",        "16", "--iterations", "60",
      "--columns-per-pe", "48",  "--rows", "64", "--rock-radius", "16",
      "--seed", "3"};
  const std::string serial = run_cli(base);
  for (const char* ranks : {"2", "4", "8"}) {
    std::vector<std::string> args = base;
    args.insert(args.end(), {"--ranks", ranks});
    const std::string distributed = run_cli(args);
    const auto strip = [](const std::string& text) {
      std::istringstream in(text);
      std::string line, out;
      while (std::getline(in, line)) {
        if (line.find("distributed stepping") != std::string::npos ||
            line.find("rank migration") != std::string::npos ||
            line.find("disc move(s)") != std::string::npos ||
            line.find("per-step exchange") != std::string::npos ||
            line.find(" messages, ") != std::string::npos || line.empty())
          continue;
        out += line + "\n";
      }
      return out;
    };
    EXPECT_EQ(strip(serial), strip(distributed)) << "--ranks " << ranks;
  }
}

// The counter kind's report is invariant across EVERY stepping substrate —
// threads, ranks — modulo the substrate-specific header/accounting lines.
TEST(CliScenarios, CounterReportInvariantAcrossSteppers) {
  const std::vector<std::string> base{
      "erosion", "--pes",        "16", "--iterations", "60",
      "--columns-per-pe", "48",  "--rows", "64", "--rock-radius", "16",
      "--seed", "3", "--rng", "counter"};
  const auto strip = [](const std::string& text) {
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line)) {
      if (line.find("stepping thread(s)") != std::string::npos ||
          line.find("distributed stepping") != std::string::npos ||
          line.find("rank migration") != std::string::npos ||
          line.find("disc move(s)") != std::string::npos ||
          line.find("per-step exchange") != std::string::npos ||
          line.find(" messages, ") != std::string::npos || line.empty())
        continue;
      out += line + "\n";
    }
    return out;
  };
  const std::string serial = strip(run_cli(base));
  const auto with = [&](std::initializer_list<const char*> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return strip(run_cli(args));
  };
  EXPECT_EQ(serial, with({"--threads", "4"})) << "--threads 4";
  EXPECT_EQ(serial, with({"--ranks", "4", "--threads", "2"})) << "--ranks";
  EXPECT_EQ(serial, with({"--ranks", "8", "--exchange", "alltoall"}))
      << "--ranks 8 alltoall";
}

// ---------------------------------------------------------------------------
// Determinism: same invocation, byte-identical report
// ---------------------------------------------------------------------------
TEST(CliScenarios, GossipIsDeterministicPerSeedAndSensitiveToIt) {
  const std::vector<std::string> args{"gossip",  "--pes",    "8",
                                      "--seeds", "1",        "--iterations",
                                      "40",      "--trials", "3"};
  EXPECT_EQ(run_cli(args), run_cli(args));
  std::vector<std::string> other = args;
  other.push_back("--seed");
  other.push_back("77");
  EXPECT_NE(run_cli(args), run_cli(other));
}

TEST(CliScenarios, InstancesIsDeterministicPerSeedAndSensitiveToIt) {
  const std::vector<std::string> args{"instances", "--samples", "40",
                                      "--alpha-grid", "10"};
  EXPECT_EQ(run_cli(args), run_cli(args));
  std::vector<std::string> other = args;
  other.push_back("--seed");
  other.push_back("7");
  EXPECT_NE(run_cli(args), run_cli(other));
}

// ---------------------------------------------------------------------------
// Flag rejection for the two new subcommands
// ---------------------------------------------------------------------------
TEST(CliScenarios, GossipRejectsBadFlags) {
  std::ostringstream out;
  EXPECT_THROW(run({"gossip", "--frobnicate", "1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"gossip", "--pes", "2"}, out), std::invalid_argument);
  EXPECT_THROW(run({"gossip", "--seeds", "0"}, out), std::invalid_argument);
  EXPECT_THROW(run({"gossip", "--trials", "0"}, out), std::invalid_argument);
  EXPECT_THROW(run({"gossip", "--alpha", "1.5"}, out), std::invalid_argument);
  EXPECT_THROW(run({"gossip", "--iterations", "2"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"gossip", "positional"}, out), std::invalid_argument);
}

TEST(CliScenarios, InstancesRejectsBadFlags) {
  std::ostringstream out;
  EXPECT_THROW(run({"instances", "--frobnicate", "1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"instances", "--samples", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"instances", "--alpha-grid", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"instances", "--seed", "-1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"instances", "--samples"}, out), std::invalid_argument);
}

TEST(CliScenarios, ThreadsFlagIsValidated) {
  std::ostringstream out;
  EXPECT_THROW(run({"erosion", "--threads", "0"}, out),
               std::invalid_argument);
  // Per-rank pools need --ranks under --mt.
  EXPECT_THROW(run({"erosion", "--mt", "--threads", "2"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"quickstart", "--threads", "-3"}, out),
               std::invalid_argument);
}

TEST(CliScenarios, PartitionerFlagIsValidated) {
  std::ostringstream out;
  // Invalid partitioner names are rejected up front, on every subcommand
  // that takes the flag.
  EXPECT_THROW(run({"erosion", "--partitioner", "metis"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"quickstart", "--partitioner", "frobnicate"}, out),
               std::invalid_argument);
  // The removed in-process sharding flag is an unknown flag.
  EXPECT_THROW(run({"erosion", "--shards", "2"}, out), std::invalid_argument);
  EXPECT_THROW(run({"quickstart", "--shards", "2"}, out),
               std::invalid_argument);
  // --mt without --ranks is rejected before any stepper knob is read.
  EXPECT_THROW(run({"erosion", "--mt", "--partitioner", "rcb"}, out),
               std::invalid_argument);
}

TEST(CliScenarios, RanksFlagIsValidated) {
  std::ostringstream out;
  EXPECT_THROW(run({"erosion", "--ranks", "0"}, out), std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--ranks", "65"}, out),
               std::invalid_argument);
  // AppConfig::validate: ranks must not exceed the PE count.
  EXPECT_THROW(run({"erosion", "--pes", "8", "--ranks", "16"}, out),
               std::invalid_argument);
  // --mt measures the SPMD runtime: it needs more than one rank.
  EXPECT_THROW(run({"erosion", "--mt"}, out), std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--mt", "--ranks", "1"}, out),
               std::invalid_argument);
  // The measured-time knobs require --mt; the exchange knob requires the
  // distributed stepper; bad exchange names are rejected up front.
  EXPECT_THROW(run({"erosion", "--ns-scale", "2"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--migration-scale", "2"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--mt", "--ns-scale", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--exchange", "neighbor"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--ranks", "2", "--exchange", "hypercube"},
                   out),
               std::invalid_argument);
  EXPECT_THROW(run({"quickstart", "--ranks", "-1"}, out),
               std::invalid_argument);
}

TEST(CliScenarios, RngFlagIsValidatedAndComposesWithMeasuredMode) {
  std::ostringstream out;
  // Unknown kinds are rejected up front (rng_kind_from_name throws).
  EXPECT_THROW(run({"erosion", "--rng", "philox"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--rng", ""}, out), std::invalid_argument);
  // The fork kind was removed: it is a usage error, not a silent fallback.
  EXPECT_THROW(run({"erosion", "--rng", "fork"}, out), std::invalid_argument);
  // --mt without --ranks is rejected, whatever the --rng...
  EXPECT_THROW(run({"erosion", "--mt", "--rng", "counter"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--mt", "--rng", "fork"}, out),
               std::invalid_argument);
  // ...but the measured-time distributed mode keeps the full knob set.
  EXPECT_EQ(run({"erosion", "--mt", "--ranks", "2", "--rng", "counter",
                 "--pes", "8", "--iterations", "4", "--columns-per-pe", "24",
                 "--rows", "32", "--rock-radius", "8"},
                out),
            0);
}

TEST(CliScenarios, TriggerSourceFlagsAreValidated) {
  std::ostringstream out;
  // Unknown names are rejected up front (the *_from_name helpers throw).
  EXPECT_THROW(run({"erosion", "--trigger-source", "oracle"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--trigger-criterion", "entropy"}, out),
               std::invalid_argument);
  // The measured source needs the measured-time distributed mode: plain
  // virtual-time runs have no steady_clock track to trigger on, and --mt
  // without --ranks is rejected outright.
  EXPECT_THROW(run({"erosion", "--trigger-source", "measured"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--mt", "--trigger-source", "measured"}, out),
               std::invalid_argument);
  // Criterion/threshold/noise knobs only mean something downstream of the
  // flags that enable them.
  EXPECT_THROW(run({"erosion", "--trigger-criterion", "fli"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--fli-threshold", "0.3"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--noise", "0.2"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--mt", "--ranks", "2", "--trigger-source",
                    "measured", "--noise", "1.5"},
                   out),
               std::invalid_argument);
  // The full measured-trigger knob set runs end to end.
  EXPECT_EQ(run({"erosion", "--mt", "--ranks", "2", "--trigger-source",
                 "measured", "--trigger-criterion", "fli", "--fli-threshold",
                 "0.3", "--noise", "0.2", "--pes", "8", "--iterations", "4",
                 "--columns-per-pe", "24", "--rows", "32", "--rock-radius",
                 "8"},
                out),
            0);
}

TEST(CliScenarios, AnticipationRejectsBadFlags) {
  std::ostringstream out;
  EXPECT_THROW(run({"anticipation", "--frobnicate", "1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"anticipation", "--ranks", "1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"anticipation", "--noise", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"anticipation", "--iterations", "4"}, out),
               std::invalid_argument);
}

TEST(CliScenarios, IntervalQualityRejectsBadFlags) {
  std::ostringstream out;
  EXPECT_THROW(run({"interval-quality", "--frobnicate", "1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"interval-quality", "--instances", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"interval-quality", "--sa-steps", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"interval-quality", "--seed", "-1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"interval-quality", "positional"}, out),
               std::invalid_argument);
}

TEST(CliScenarios, DynamicAlphaRejectsBadFlags) {
  std::ostringstream out;
  EXPECT_THROW(run({"dynamic-alpha", "--frobnicate", "1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"dynamic-alpha", "--pes", "2"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"dynamic-alpha", "--seeds", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"dynamic-alpha", "--iterations", "4"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"dynamic-alpha", "--alpha", "1.5"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"dynamic-alpha", "--rocks", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"dynamic-alpha", "--pes", "16", "--rocks", "8"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"dynamic-alpha", "--instances", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"dynamic-alpha", "positional"}, out),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Randomized-parameter smoke: quickstart accepts anything the shared
// generator emits (ties the CLI vocabulary to the test-wide param factory)
// ---------------------------------------------------------------------------
TEST(CliScenarios, QuickstartAcceptsRandomValidModelParams) {
  support::Rng rng(31);
  for (int i = 0; i < 5; ++i) {
    const core::ModelParams p = ulba::testing::random_model_params(rng);
    const auto num = [](double v) {
      std::ostringstream os;
      os.precision(17);
      os << v;
      return os.str();
    };
    const std::string text = run_cli(
        {"quickstart", "--P", std::to_string(p.P), "--N",
         std::to_string(p.N), "--gamma", std::to_string(p.gamma), "--w0",
         num(p.w0), "--a", num(p.a), "--m", num(p.m), "--alpha",
         num(p.alpha), "--omega", num(p.omega), "--lb-cost",
         num(p.lb_cost)});
    EXPECT_NE(text.find("anticipation gain"), std::string::npos);
  }
}

}  // namespace
}  // namespace ulba::cli
