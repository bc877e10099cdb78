#include "cli/cli.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

#include "cli/args.hpp"
#include "cli/scenarios.hpp"
#include "support/require.hpp"

namespace ulba::cli {

namespace {

struct Subcommand {
  const char* name;
  const char* summary;
  /// Switch flags (no value) the subcommand accepts, besides --help.
  std::set<std::string> switches;
  std::function<int(const FlagMap&, std::ostream&)> scenario;
  std::function<std::string()> help_body;
};

std::string quickstart_help() {
  return "Evaluate the analytic model once: Menon tau, ULBA [sigma-, "
         "sigma+],\nand total time standard-vs-ULBA (mini Figure 3), plus a "
         "mini erosion run.\n\n"
         "options:\n"
         "  --threads <int>      host threads stepping the mini erosion run "
         "[1]\n"
         "  --ranks <int>        SPMD ranks stepping the mini erosion run "
         "over the\n"
         "                       message-passing runtime [1]\n"
         "  --partitioner <name> stripe cutter: greedy|rcb|optimal|"
         "stripe [greedy]\n"
         "  --seed <int>         placement seed of the mini erosion run "
         "[11]\n\n" +
         model_param_help(quickstart_defaults());
}

std::string erosion_help() {
  return "Run the paper's erosion application (Section IV-B) under the "
         "standard\nLB method and under ULBA, same seed, and compare.\n\n"
         "options:\n"
         "  --mt                   measure real wall clock instead of only "
         "the\n"
         "                         virtual-time BSP model: the measured-time "
         "distributed\n"
         "                         mode (per-rank CPU burn + steady_clock "
         "iteration/LB/\n"
         "                         migration times, dynamics bit-identical "
         "to the\n"
         "                         model-time run; needs --ranks R, R > 1)\n"
         "  --pes <int>            processing elements   [32; 8 with --mt]\n"
         "  --strong <int>         strongly erodible rocks [1]\n"
         "  --seed <int>           placement seed          [11]\n"
         "  --iterations <int>     iterations              [180]\n"
         "  --alpha <0..1>         ULBA fraction           [0.4]\n"
         "  --columns-per-pe <int> stripe width            [256]\n"
         "  --rows <int>           domain height           [384]\n"
         "  --rock-radius <int>    disc radius             [96]\n"
         "  --threads <int>        host threads stepping the dynamics "
         "(same\n"
         "                         trajectory for every count; per rank "
         "with --ranks)  [1]\n"
         "  --rng <kind>           dynamics RNG: counter (Philox draws "
         "addressed by\n"
         "                         disc, iteration and cell; the only "
         "kind)  [counter]\n"
         "  --ranks <int>          SPMD ranks stepping the dynamics over the "
         "message-\n"
         "                         passing runtime: per-rank column stripes, "
         "real halo/\n"
         "                         migration messages, bit-identical to the "
         "serial run\n"
         "                         (composes with --mt)  [1]\n"
         "  --partitioner <name>   disc-to-rank + LB cutting "
         "algorithm:\n"
         "                         greedy|rcb|optimal|stripe      [greedy]\n"
         "  --exchange <mode>      per-step exchange of the distributed "
         "stepper:\n"
         "                         neighbor (halo neighbors + one reduce/"
         "broadcast)\n"
         "                         or alltoall (O(ranks^2) reference)  "
         "[neighbor]\n"
         "  --decomp <name>        decomposition of the distributed stepper "
         "(--ranks):\n"
         "                         stripes (1D column stripes) or grid (2D "
         "tile grid\n"
         "                         with edge+corner halos)  [stripes]\n"
         "  --grid <RxC>           tile grid shape, e.g. 2x2; R*C must equal "
         "--ranks\n"
         "                         (--decomp grid)  [near-square "
         "factorization]\n"
         "  --tuner                rebalance grid boundaries with the damped "
         "per-\n"
         "                         dimension tuner instead of a fresh recut "
         "(--decomp\n"
         "                         grid)\n"
         "  --tuner-cap <r>        max boundary movement per rebalance, as a "
         "fraction\n"
         "                         of the adjacent tile extent (--tuner)  "
         "[0.05]\n"
         "  --tuner-maxiter <int>  tuner refinement passes per rebalance "
         "(--tuner) [8]\n"
         "  --tuner-tol <r>        max/avg band imbalance the tuner accepts "
         "as\n"
         "                         balanced (--tuner)  [1.02]\n"
         "  --ns-scale <r>         burn steps per unit workload (--mt)   "
         "[4.0]\n"
         "  --migration-scale <r>  burn factor per migrated byte (--mt)  "
         "[8.0]\n"
         "  --noise <0..1>         multiplicative burn noise amplitude, "
         "position-\n"
         "                         addressed per (rank, iteration) (--mt "
         "with\n"
         "                         --ranks)  [0]\n"
         "  --trigger-source <s>   clock feeding the LB trigger: model "
         "(virtual\n"
         "                         time, bit-identical schedule) or measured "
         "(real\n"
         "                         steady_clock signals decide; --ranks "
         "--mt)\n"
         "                         [model]\n"
         "  --trigger-criterion <c> measured signal the trigger fires on:\n"
         "                         degradation (Algorithm 1 on iteration "
         "maxima)\n"
         "                         or fli ((max-avg)/avg of per-rank burn "
         "times)\n"
         "                         (--trigger-source measured)  "
         "[degradation]\n"
         "  --fli-threshold <r>    fli level that fires the trigger\n"
         "                         (--trigger-criterion fli)  [0.25]\n";
}

std::string anticipation_help() {
  return "Falsify the paper's core claim on real hardware: ULBA-scheduled\n"
         "anticipatory LB (model trigger) vs. reactive measured-trigger LB\n"
         "(degradation and fli criteria), in measured-time mode under "
         "injected\nburn noise at levels {0, noise/2, noise}, with a "
         "wall/utilization/\nLB-count win/loss table. Wall numbers are real "
         "and noisy.\n\n"
         "options:\n"
         "  --ranks <int>          SPMD ranks (measured-time mode)   [4]\n"
         "  --pes <int>            processing elements               [8]\n"
         "  --strong <int>         strongly erodible rocks           [1]\n"
         "  --seed <int>           placement seed                    [11]\n"
         "  --iterations <int>     erosion iterations                [60]\n"
         "  --noise <0..1>         peak burn-noise amplitude         [0.4]\n"
         "  --ns-scale <r>         burn steps per unit workload      [2.0]\n"
         "  --fli-threshold <r>    reactive fli firing level         "
         "[0.25]\n";
}

std::string intervals_help() {
  return "Sweep alpha and report sigma-/sigma+/schedule/total time, with "
         "the\nexact DP optimum as the reference line.\n\n"
         "options:\n"
         "  --alpha-steps <int>  sweep resolution (alpha = i/steps) [10]\n"
         "  --dp off             skip the O(gamma^2) DP reference\n\n" +
         model_param_help(intervals_defaults());
}

std::string alpha_tuning_help() {
  return "Fine alpha sweep: best alpha for the model and the gain landscape\n"
         "vs. the standard method (analytic Figure-5 counterpart).\n\n"
         "options:\n"
         "  --alpha-min <0..1>   sweep start [0.05]\n"
         "  --alpha-max <0..1>   sweep end   [1.0]\n"
         "  --alpha-step <r>     sweep step  [0.05]\n\n" +
         model_param_help(quickstart_defaults());
}

std::string gossip_help() {
  return "WIR-gossip ablation (Section III-C): dissemination latency per "
         "fanout,\nend-to-end erosion degradation and detection lag vs. the "
         "centralized\nzero-cost oracle, and the WIR-smoothing sweep.\n\n"
         "options:\n"
         "  --pes <int>         processing elements            [32]\n"
         "  --strong <int>      strongly erodible rocks        [1]\n"
         "  --seed <int>        base seed                      [11]\n"
         "  --seeds <int>       seeds per configuration        [3]\n"
         "  --iterations <int>  erosion iterations             [120]\n"
         "  --alpha <0..1>      ULBA fraction                  [0.4]\n"
         "  --trials <int>      latency-table trials           [10]\n";
}

std::string dynamic_alpha_help() {
  return "Dynamic alpha (E-X4, the paper's Section-V future-work item): "
         "per-interval\nalpha driven by the gossip-estimated overloading "
         "fraction — the fraction\nheuristic and the model-grid policy — "
         "vs. fixed alpha and vs. the\ncentralized oracle, plus the exact "
         "DP bound and a per-interval alpha trace.\n\n"
         "options:\n"
         "  --pes <int>         processing elements               [32]\n"
         "  --seed <int>        base seed                         [11]\n"
         "  --seeds <int>       seeds per configuration           [3]\n"
         "  --iterations <int>  erosion iterations (0 = default)  [0]\n"
         "  --alpha <0..1>      base/fixed ULBA fraction          [0.6]\n"
         "  --rocks <int>       largest strong-rock count swept   [6]\n"
         "  --instances <int>   DP-bound Table-II instances       [60]\n";
}

std::string interval_quality_help() {
  return "Figure 2: quality of the sigma+ LB intervals vs. the heuristic "
         "search\n(simulated annealing) on random Table-II instances, with "
         "the exact DP\noptimum bounding both methods.\n\n"
         "options:\n"
         "  --instances <int>   Table-II instances sampled      [200]\n"
         "  --sa-steps <int>    annealing steps per instance    [5000]\n"
         "  --seed <int>        sampling seed                   [1215]\n";
}

std::string instances_help() {
  return "Table-II-style sweep over the random-instance families (one per\n"
         "pinned PE count): win/loss/gain statistics of ULBA vs. the "
         "standard\nmethod, at the drawn alpha and at the per-instance best "
         "alpha.\n\n"
         "options:\n"
         "  --samples <int>         instances per PE family        [200]\n"
         "  --seed <int>            sampling seed                  "
         "[20190916]\n"
         "  --alpha-grid <int>      best-alpha grid resolution     [20]\n"
         "  --ranks <int>           fan the sweep over the schedule service: "
         "rank 0\n"
         "                          serves, ranks 1..N-1 submit their "
         "interleaved\n"
         "                          sample shares as ScheduleRequests "
         "(statistics\n"
         "                          bit-identical to the serial sweep)  [1]\n"
         "  --serve-batch <int>     server mailbox batch limit (--ranks)  "
         "[32]\n"
         "  --cache-capacity <int>  service memo-cache capacity (--ranks)  "
         "[4096]\n"
         "  --cache-shards <int>    service memo-cache shards (--ranks)  "
         "[8]\n";
}

std::string serve_help() {
  return "Run the schedule service under deterministic multi-client "
         "traffic:\nrank 0 serves ScheduleRequests from a batched mailbox "
         "loop through the\nsharded memo cache; client ranks replay a seeded "
         "query mix over a pool\nof `--distinct` Table-II instances and "
         "check every ScheduleResponse\nbit-for-bit against a cold "
         "evaluation of the same request (provenance\nmasked). Reports "
         "hit-rate/throughput headline metrics and PASS/FAIL\nverdicts; "
         "wall numbers are real. Exit 0 iff the verdicts pass.\n\n"
         "options:\n"
         "  --clients <int>         client ranks (world = clients + 1)  "
         "[4]\n"
         "  --requests <int>        requests per client            [64]\n"
         "  --distinct <int>        request-pool size (repeats become "
         "cache\n"
         "                          hits)                          [16]\n"
         "  --serve-batch <int>     server mailbox batch limit     [32]\n"
         "  --cache-capacity <int>  memo-cache capacity            [4096]\n"
         "  --cache-shards <int>    memo-cache shards              [8]\n"
         "  --mode <name>           evaluation mode: grid (sigma+ sweep) or "
         "dp\n"
         "                          (exact DP + free-form alpha)   [grid]\n"
         "  --alpha-grid <int>      alpha grid resolution          [10]\n"
         "  --seed <int>            traffic seed                   [11]\n";
}

const std::vector<Subcommand>& registry() {
  static const std::vector<Subcommand> kSubcommands{
      {"quickstart",
       "analytic model in a nutshell: tau vs. [sigma-, sigma+] and the gain",
       {},
       run_quickstart,
       quickstart_help},
      {"erosion",
       "the erosion application, standard vs. ULBA (--ranks R --mt: real "
       "clocks)",
       {"mt", "tuner"},
       run_erosion,
       erosion_help},
      {"intervals",
       "alpha sweep of sigma-/sigma+/schedules with the DP optimum",
       {},
       run_intervals,
       intervals_help},
      {"alpha-tuning",
       "fine alpha sweep: best alpha and the gain landscape",
       {},
       run_alpha_tuning,
       alpha_tuning_help},
      {"gossip",
       "WIR-gossip ablation: latency, fanout impact vs. the oracle, "
       "smoothing",
       {},
       run_gossip,
       gossip_help},
      {"instances",
       "Table-II instance families: ULBA win/loss/gain vs. the standard "
       "method",
       {},
       run_instances,
       instances_help},
      {"dynamic-alpha",
       "E-X4: per-interval alpha from the gossip-estimated overloading "
       "fraction",
       {},
       run_dynamic_alpha,
       dynamic_alpha_help},
      {"interval-quality",
       "Figure 2: sigma+ intervals vs. the heuristic search, DP-bounded",
       {},
       run_interval_quality,
       interval_quality_help},
      {"serve",
       "the schedule service under multi-client traffic: hit rate, "
       "throughput, verdicts",
       {},
       run_serve,
       serve_help},
      {"anticipation",
       "anticipatory ULBA vs. reactive measured-trigger LB under burn noise",
       {},
       run_anticipation,
       anticipation_help},
  };
  return kSubcommands;
}

const Subcommand& find_subcommand(const std::string& name) {
  for (const auto& sub : registry())
    if (name == sub.name) return sub;
  support::throw_requirement("known subcommand", __FILE__, __LINE__,
                             "unknown subcommand '" + name +
                                 "' (run `ulba_cli help` for the list)");
}

}  // namespace

std::string usage() {
  std::ostringstream os;
  os << "ulba_cli — unified scenario driver for the ULBA reproduction\n"
     << "(Boulmier et al., \"On the Benefits of Anticipating Load "
        "Imbalance\", CLUSTER 2019)\n\n"
     << "usage: ulba_cli <subcommand> [--flag value | --flag=value]...\n\n"
     << "subcommands:\n";
  std::size_t width = std::string("help").size();
  for (const auto& sub : registry())
    width = std::max(width, std::string(sub.name).size());
  for (const auto& sub : registry())
    os << "  " << sub.name
       << std::string(width + 2 - std::string(sub.name).size(), ' ')
       << sub.summary << "\n";
  os << "  help" << std::string(width - 2, ' ') << "this text\n\n"
     << "`ulba_cli <subcommand> --help` documents the subcommand's flags.\n";
  return os.str();
}

std::string subcommand_help(const std::string& command) {
  const Subcommand& sub = find_subcommand(command);
  std::ostringstream os;
  os << "usage: ulba_cli " << sub.name << " [options]\n\n" << sub.help_body();
  return os.str();
}

std::vector<std::string> subcommand_names() {
  std::vector<std::string> names;
  for (const auto& sub : registry()) names.emplace_back(sub.name);
  return names;
}

int run(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty() || args[0] == "help" || args[0] == "--help" ||
      args[0] == "-h") {
    out << usage();
    return args.empty() ? 2 : 0;
  }
  const Subcommand& sub = find_subcommand(args[0]);
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  for (const auto& token : rest) {
    if (token == "--help" || token == "-h") {
      out << subcommand_help(sub.name);
      return 0;
    }
  }
  const FlagMap flags(rest, sub.switches);
  return sub.scenario(flags, out);
}

}  // namespace ulba::cli
