// Partition-invariance property suite for erosion::DistributedDomain.
//
// The load-bearing claim: for EVERY (rank count, partitioner, exchange mode,
// per-rank thread count), stepping the domain distributed over the SPMD
// runtime is BIT-identical to the serial ErosionDomain::step_counter — the
// same global counters and the same per-column FLOP accounting (exact FP
// equality) on every rank — and this survives mid-run rebalances that
// migrate disc ownership and column weights as real runtime::Mailbox
// messages. On top of that, the analytic lb::migration_volume prediction
// must match the bytes the rebalance actually exchanged.
#include "erosion/distributed_domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "erosion/app.hpp"
#include "erosion/domain.hpp"
#include "lb/partitioners.hpp"
#include "runtime/spmd.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_helpers.hpp"

namespace ulba::erosion {
namespace {

std::shared_ptr<const lb::Partitioner> shared_partitioner(
    const std::string& name) {
  return std::shared_ptr<const lb::Partitioner>(lb::make_partitioner(name));
}

/// Serial reference: the domain after `steps` counter iterations.
struct SerialReference {
  std::vector<double> weights;
  double total = 0.0;
  std::int64_t eroded = 0;
  std::int64_t rock_remaining = 0;
  std::int64_t frontier = 0;
};

SerialReference serial_reference(const DomainConfig& cfg, std::uint64_t seed,
                                 int steps) {
  ErosionDomain domain(cfg);
  for (int s = 0; s < steps; ++s) (void)domain.step_counter(seed, s);
  SerialReference ref;
  ref.weights.assign(domain.column_weights().begin(),
                     domain.column_weights().end());
  ref.total = domain.total_workload();
  ref.eroded = domain.eroded_cells();
  ref.rock_remaining = domain.rock_cells_remaining();
  ref.frontier = domain.frontier_size();
  return ref;
}

/// Every rank checks its replicated report against the serial reference;
/// rank 0 additionally gathers and compares the full per-column weights
/// bit-for-bit.
void expect_matches_reference(const SerialReference& ref,
                              const DistributedDomain& domain,
                              const std::string& what) {
  EXPECT_EQ(ref.eroded, domain.eroded_cells()) << what;
  EXPECT_EQ(ref.rock_remaining, domain.rock_cells_remaining()) << what;
  EXPECT_EQ(ref.frontier, domain.frontier_size()) << what;
  EXPECT_EQ(ref.total, domain.total_workload()) << what;
  const std::vector<double> full = domain.gather_column_weights(0);
  if (domain.rank() == 0) {
    ASSERT_EQ(ref.weights.size(), full.size()) << what;
    for (std::size_t x = 0; x < full.size(); ++x)
      ASSERT_EQ(ref.weights[x], full[x]) << what << " — column " << x;
  }
}

/// Rank 0 collects every rank's local disc ids and asserts they form a
/// complete disjoint cover consistent with the stripe boundaries.
void expect_complete_disjoint_cover(runtime::Comm& comm,
                                    const DistributedDomain& domain) {
  const auto local = domain.local_discs();
  // Consistency of the replicated ownership view with my local set.
  for (const std::size_t disc : local)
    EXPECT_EQ(domain.owner_of_disc(disc), domain.rank());
  // Boundaries must partition the column range.
  const auto& b = domain.rank_boundaries();
  ASSERT_EQ(static_cast<int>(b.size()), domain.ranks() + 1);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), domain.columns());
  for (std::size_t i = 0; i + 1 < b.size(); ++i) EXPECT_LT(b[i], b[i + 1]);
  // Gather the local id sets at rank 0 (simple tagged exchange).
  constexpr int kTag = 7;
  std::vector<std::int64_t> ids(local.begin(), local.end());
  if (domain.rank() != 0) {
    comm.send_span<std::int64_t>(0, kTag, ids);
    return;
  }
  std::vector<int> owners(domain.config().discs.size(), 0);
  const auto count_ids = [&](const std::vector<std::int64_t>& rank_ids,
                             int rank) {
    for (const std::int64_t id : rank_ids) {
      ASSERT_LT(static_cast<std::size_t>(id), owners.size());
      ++owners[static_cast<std::size_t>(id)];
      // The owning stripe must hold the disc's center column.
      const std::int64_t cx =
          domain.config().discs[static_cast<std::size_t>(id)].cx;
      EXPECT_GE(cx, b[static_cast<std::size_t>(rank)]);
      EXPECT_LT(cx, b[static_cast<std::size_t>(rank) + 1]);
    }
  };
  count_ids(ids, 0);
  for (int s = 1; s < domain.ranks(); ++s)
    count_ids(comm.recv_vector<std::int64_t>(s, kTag), s);
  for (std::size_t disc = 0; disc < owners.size(); ++disc)
    EXPECT_EQ(owners[disc], 1)
        << "disc " << disc << " covered by " << owners[disc] << " ranks";
}

/// A domain whose discs straddle rank-stripe boundaries by construction:
/// radius-10 discs over 64 columns, so the 8-rank even cut (width 8) slices
/// straight through both bounding boxes — every step then exchanges halo
/// deltas for columns owned by up to three other ranks.
DomainConfig adversarial_boundary_config() {
  DomainConfig cfg;
  cfg.columns = 64;
  cfg.rows = 72;
  cfg.discs = {{16, 16, 10, 0.35}, {40, 48, 10, 0.3}};
  cfg.validate();
  return cfg;
}

TEST(DistributedErosion, CoverIsCompleteAndDisjointAcrossRanks) {
  support::Rng config_rng(2024);
  for (int trial = 0; trial < 4; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    for (const std::string& name : lb::partitioner_names()) {
      for (const int ranks : {1, 2, 3, 5, 8}) {
        if (ranks > cfg.columns) continue;
        runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
          DistributedDomain domain(cfg, comm, shared_partitioner(name));
          expect_complete_disjoint_cover(comm, domain);
        });
      }
    }
  }
}

/// One serial trajectory must be reproduced bit for bit by every
/// (rank count, partitioner, exchange mode, per-rank pool) combination,
/// across mid-run rebalances that migrate disc ownership as real messages.
TEST(DistributedErosion, CounterPathBitIdenticalForEveryRankExchangePool) {
  constexpr int kSteps = 14;
  support::Rng config_rng(4242);
  for (int trial = 0; trial < 2; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 8000 + static_cast<std::uint64_t>(trial);

    const SerialReference ref = serial_reference(cfg, seed, kSteps);

    for (const std::string& name : lb::partitioner_names()) {
      for (const int ranks : {1, 2, 4, 8}) {
        for (const ExchangeMode mode :
             {ExchangeMode::kAllToAll, ExchangeMode::kNeighbor}) {
          for (const std::size_t threads : {1u, 2u}) {
            runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
              DistributedDomain domain(cfg, comm, shared_partitioner(name),
                                       mode);
              std::optional<support::ThreadPool> pool;
              if (threads > 1) pool.emplace(threads);
              std::int64_t eroded_total = 0;
              for (int s = 0; s < kSteps; ++s) {
                eroded_total += domain.step_counter(
                    seed, s, pool ? &*pool : nullptr);
                if (s == kSteps / 2) (void)domain.rebalance();
              }
              EXPECT_EQ(eroded_total, ref.eroded);
              expect_matches_reference(
                  ref, domain,
                  "counter trial " + std::to_string(trial) +
                      ", partitioner " + name + ", ranks " +
                      std::to_string(ranks) + ", exchange " +
                      exchange_mode_name(mode) + ", threads " +
                      std::to_string(threads));
            });
          }
        }
      }
    }
  }
}

TEST(DistributedErosion, MidRunMigrationKeepsTrajectoryAndCover) {
  constexpr int kSteps = 24;
  support::Rng config_rng(5150);
  for (int trial = 0; trial < 3; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 42 + static_cast<std::uint64_t>(trial);
    const SerialReference ref = serial_reference(cfg, seed, kSteps);

    for (const std::string name : {"greedy", "rcb", "optimal", "stripe"}) {
      const int ranks = 4;
      if (ranks > cfg.columns) continue;
      runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
        DistributedDomain domain(cfg, comm, shared_partitioner(name));
        support::ThreadPool pool(2);
        for (int s = 0; s < kSteps; ++s) {
          (void)domain.step_counter(seed, s, &pool);
          if (s % 6 == 5) {
            const DistributedReshardResult res = domain.rebalance();
            EXPECT_EQ(res.boundaries.size(),
                      static_cast<std::size_t>(ranks) + 1);
            EXPECT_GE(res.discs_moved, 0);
            expect_complete_disjoint_cover(comm, domain);
          }
        }
        expect_matches_reference(ref, domain,
                                 std::string("rebalance, partitioner ") +
                                     name + ", trial " +
                                     std::to_string(trial));
      });
    }
  }
}

/// Two ranks, rebalancing every few steps so discs change owner: after every
/// step each owned disc's stored trial counts equal their recount, whether
/// the disc was built locally or rebuilt from a hand-off payload.
TEST(DistributedErosion, StoredTrialsSurviveDiscHandOff) {
  support::Rng config_rng(8080);
  std::int64_t moved = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 17 + static_cast<std::uint64_t>(trial);
    runtime::spmd_run(2, [&](runtime::Comm& comm) {
      DistributedDomain domain(cfg, comm, shared_partitioner("greedy"));
      for (int s = 0; s < 30; ++s) {
        (void)domain.step_counter(seed, s);
        if (s % 5 == 4) {
          const DistributedReshardResult res = domain.rebalance();
          if (comm.rank() == 0) moved += res.discs_moved;
        }
        // EXPECT, not ASSERT: a rank leaving early would strand its peer in
        // the next step's exchange.
        const auto states = domain.local_disc_states();
        for (std::size_t k = 0; k < states.size(); ++k)
          EXPECT_EQ(testing::trial_count_mismatches(states[k]), 0)
              << "trial " << trial << ", rank " << comm.rank() << ", step "
              << s << ", disc " << domain.local_discs()[k];
      }
    });
  }
  EXPECT_GT(moved, 0) << "no disc changed owner: the hand-off went untested";
}

/// Both wire protocols must produce the SAME domain — bit-equal weights and
/// counters — including across a mid-run rebalance that reshapes the
/// neighbor sets.
TEST(DistributedErosion, StepExchangeModesAreBitIdenticalAcrossModes) {
  constexpr int kSteps = 18;
  support::Rng config_rng(808);
  for (int trial = 0; trial < 2; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 700 + static_cast<std::uint64_t>(trial);
    const SerialReference ref = serial_reference(cfg, seed, kSteps);
    for (const std::string& name : lb::partitioner_names()) {
      for (const int ranks : {2, 4, 8}) {
        if (ranks > cfg.columns) continue;
        for (const ExchangeMode mode :
             {ExchangeMode::kAllToAll, ExchangeMode::kNeighbor}) {
          runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
            DistributedDomain domain(cfg, comm, shared_partitioner(name),
                                     mode);
            for (int s = 0; s < kSteps; ++s) {
              (void)domain.step_counter(seed, s);
              if (s == kSteps / 2) (void)domain.rebalance();
            }
            expect_matches_reference(
                ref, domain,
                "exchange " + exchange_mode_name(mode) + ", partitioner " +
                    name + ", ranks " + std::to_string(ranks));
          });
        }
      }
    }
  }
}

/// The headline property of the neighbor-aware exchange: on the app-shaped
/// domain (localized discs, one per initial stripe) it sends strictly fewer
/// per-step messages — and fewer payload bytes — than the all-to-all
/// reference for every R ≥ 4, while the runtime-layer traffic counters
/// confirm the domain's own accounting message for message.
TEST(DistributedErosion, NeighborExchangeSendsStrictlyFewerStepMessages) {
  // The golden-config geometry: 16 discs of radius 16 on 48-column stripes.
  DomainConfig cfg;
  cfg.columns = 16 * 48;
  cfg.rows = 64;
  for (std::int64_t i = 0; i < 16; ++i)
    cfg.discs.push_back({i * 48 + 24, 32, 16, i == 7 ? 0.4 : 0.02});
  cfg.validate();
  constexpr int kSteps = 10;

  for (const std::string& name : lb::partitioner_names()) {
    for (const int ranks : {4, 8}) {
      std::uint64_t msgs[2] = {0, 0};
      std::uint64_t bytes[2] = {0, 0};
      for (const ExchangeMode mode :
           {ExchangeMode::kAllToAll, ExchangeMode::kNeighbor}) {
        const auto m = static_cast<std::size_t>(mode == ExchangeMode::kNeighbor);
        runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
          DistributedDomain domain(cfg, comm, shared_partitioner(name), mode);
          // The traffic counters are world-global, so each snapshot sits in
          // a barrier-bracketed quiescent window (a lone barrier is not
          // enough: released ranks race ahead into their next sends).
          comm.barrier();
          const runtime::TrafficCounters before = comm.traffic();
          comm.barrier();
          for (int s = 0; s < kSteps; ++s) (void)domain.step_counter(4, s);
          comm.barrier();
          const runtime::TrafficCounters after = comm.traffic();
          comm.barrier();
          const auto my_msgs =
              static_cast<std::int64_t>(domain.step_messages_sent());
          const auto my_bytes =
              static_cast<std::int64_t>(domain.step_payload_bytes_sent());
          const std::int64_t total_msgs = comm.allreduce(my_msgs);
          const std::int64_t total_bytes = comm.allreduce(my_bytes);
          if (comm.rank() == 0) {
            msgs[m] = static_cast<std::uint64_t>(total_msgs);
            bytes[m] = static_cast<std::uint64_t>(total_bytes);
            // The pure step loop sends nothing but the exchange itself, so
            // the runtime counters must agree exactly with the domain's
            // accounting (minus the allreduce/barrier bracket, which runs
            // after `after` was snapshotted).
            EXPECT_EQ(after.messages - before.messages,
                      static_cast<std::uint64_t>(total_msgs))
                << name << ", ranks " << ranks << ", "
                << exchange_mode_name(mode);
            EXPECT_EQ(after.payload_bytes - before.payload_bytes,
                      static_cast<std::uint64_t>(total_bytes))
                << name << ", ranks " << ranks << ", "
                << exchange_mode_name(mode);
          }
        });
      }
      EXPECT_LT(msgs[1], msgs[0])
          << name << ", ranks " << ranks
          << " — neighbor mode must send strictly fewer step messages";
      EXPECT_LT(bytes[1], bytes[0]) << name << ", ranks " << ranks;
      // All-to-all is exactly R·(R−1) messages per step, by construction.
      EXPECT_EQ(msgs[0], static_cast<std::uint64_t>(ranks) *
                             static_cast<std::uint64_t>(ranks - 1) * kSteps);
    }
  }
}

/// Neighbor sets are derived from replicated state, so the send set of rank
/// q must mirror the recv set of every rank it targets.
TEST(DistributedErosion, HaloNeighborSetsAreMutuallyConsistent) {
  const DomainConfig cfg = adversarial_boundary_config();
  runtime::spmd_run(8, [&](runtime::Comm& comm) {
    DistributedDomain domain(cfg, comm, shared_partitioner("stripe"));
    // Exchange the send sets (one small message per peer) and verify each
    // against the local recv set.
    std::vector<std::int64_t> mine(domain.halo_send_neighbors().begin(),
                                   domain.halo_send_neighbors().end());
    for (int q = 0; q < domain.ranks(); ++q)
      if (q != domain.rank()) comm.send_span<std::int64_t>(q, 9, mine);
    for (int q = 0; q < domain.ranks(); ++q) {
      if (q == domain.rank()) continue;
      const auto theirs = comm.recv_vector<std::int64_t>(q, 9);
      const bool q_sends_to_me =
          std::find(theirs.begin(), theirs.end(),
                    static_cast<std::int64_t>(domain.rank())) != theirs.end();
      const auto& rn = domain.halo_recv_neighbors();
      const bool i_expect_q = std::find(rn.begin(), rn.end(), q) != rn.end();
      EXPECT_EQ(q_sends_to_me, i_expect_q)
          << "rank " << domain.rank() << " vs rank " << q;
    }
    // The adversarial discs straddle stripes, so SOMEONE has neighbors.
    const auto any = comm.allreduce(
        static_cast<std::int64_t>(domain.halo_send_neighbors().size()));
    EXPECT_GT(any, 0);
  });
}

TEST(DistributedErosion, HaloExchangeOnAdversarialBoundaryDiscs) {
  // Both discs straddle multiple 8-column stripes, so every step routes
  // eroded-cell deltas to several owning ranks; the weights must still be
  // bit-equal to the serial run, column by column.
  const DomainConfig cfg = adversarial_boundary_config();
  constexpr int kSteps = 18;
  const std::uint64_t seed = 99;
  const SerialReference ref = serial_reference(cfg, seed, kSteps);

  for (const std::string name : {"stripe", "greedy"}) {
    runtime::spmd_run(8, [&](runtime::Comm& comm) {
      DistributedDomain domain(cfg, comm, shared_partitioner(name));
      // Sanity: under the even-stripe cut the first disc's bounding box
      // [6, 26] really does span several stripes.
      if (name == "stripe") {
        EXPECT_NE(domain.owner_of_column(6), domain.owner_of_column(25));
      }
      for (int s = 0; s < kSteps; ++s) (void)domain.step_counter(seed, s);
      expect_matches_reference(ref, domain,
                               "adversarial boundary discs, " + name);
    });
  }
}

TEST(DistributedErosion, RebalanceMigratesStateAsMessagesAndMatchesModel) {
  // Erode with a strongly erodible disc so the weight profile skews and a
  // weighted recut MUST move boundaries (and with them columns and at least
  // one disc) away from the initial even cut.
  DomainConfig cfg;
  cfg.columns = 96;
  cfg.rows = 64;
  cfg.discs = {{14, 32, 11, 0.5},
               {44, 32, 11, 0.02},
               {76, 32, 11, 0.02}};
  cfg.validate();

  runtime::spmd_run(4, [&](runtime::Comm& comm) {
    // The greedy partitioner cuts against the CURRENT weights, so after the
    // strong disc erodes (and gains refined workload) the recut must move
    // the boundaries it chose for the initial profile.
    DistributedDomain domain(cfg, comm, shared_partitioner("greedy"));
    for (int s = 0; s < 16; ++s) (void)domain.step_counter(7, s);

    const lb::StripeBoundaries before = domain.rank_boundaries();
    const DistributedReshardResult res = domain.rebalance();
    EXPECT_NE(before, res.boundaries)
        << "the skewed profile should move the even cut";
    EXPECT_GE(res.discs_moved, 1)
        << "the recut should hand at least one disc to a new owner";

    // The analytic prediction must match the columns actually exchanged —
    // totals and the per-rank sent+received vector.
    ASSERT_EQ(res.observed_per_rank_bytes.size(),
              res.predicted.per_pe_bytes.size());
    const double tol = 1e-9 * (1.0 + res.predicted.total_bytes);
    EXPECT_NEAR(res.predicted.total_bytes, res.observed_column_bytes, tol);
    for (std::size_t p = 0; p < res.observed_per_rank_bytes.size(); ++p)
      EXPECT_NEAR(res.predicted.per_pe_bytes[p],
                  res.observed_per_rank_bytes[p], tol)
          << "rank " << p;
    // Real payload crossed the wire: at least one weight column's 8 bytes
    // per moved column, plus full serialized discs when ownership moved.
    EXPECT_GT(res.observed_payload_bytes, 0.0);

    // Trajectory unaffected: continue stepping and compare against serial.
    for (int s = 16; s < 24; ++s) (void)domain.step_counter(7, s);
    const SerialReference ref = serial_reference(cfg, 7, 24);
    expect_matches_reference(ref, domain, "post-migration stepping");
  });
}

TEST(DistributedErosion, DiscHandOffRoundTripsBitExactly) {
  support::Rng config_rng(123);
  const DomainConfig cfg = testing::random_domain_config(config_rng);
  std::vector<DiscState> discs{build_disc_state(cfg.discs[0])};
  const std::vector<std::size_t> ids{0};
  CounterWorkspace ws;
  for (int s = 0; s < 5; ++s)
    (void)counter_decide_apply(discs, ids, 3, s, nullptr, ws);
  const DiscState& d = discs.front();
  const auto payload = serialize_disc(4, d);
  const DiscState back = deserialize_disc(payload, 4);
  EXPECT_EQ(d.x0, back.x0);
  EXPECT_EQ(d.y0, back.y0);
  EXPECT_EQ(d.side, back.side);
  EXPECT_EQ(d.erosion_prob, back.erosion_prob);
  EXPECT_EQ(d.rock_remaining, back.rock_remaining);
  EXPECT_EQ(d.thresh, back.thresh);
  // The receiver recounts the trial bits the wire leaves out.
  EXPECT_EQ(d.cells, back.cells);
  EXPECT_EQ(d.frontier, back.frontier);
  EXPECT_THROW((void)deserialize_disc(payload, 5), std::invalid_argument);
  EXPECT_THROW((void)deserialize_disc(
                   std::span<const std::byte>(payload).first(10), 4),
               std::invalid_argument);
}

TEST(DistributedErosion, DiscHandOffRejectsMalformedPayloads) {
  std::vector<DiscState> discs{build_disc_state({20, 20, 12, 0.2})};
  const std::vector<std::size_t> ids{0};
  CounterWorkspace ws;
  for (int s = 0; s < 5; ++s)
    (void)counter_decide_apply(discs, ids, 3, s, nullptr, ws);
  const DiscState& d = discs.front();
  ASSERT_GE(d.frontier.size(), 2u);
  const std::vector<std::byte> payload = serialize_disc(4, d);
  // Header int64 slots: version, id, x0, y0, side, rock_remaining,
  // frontier_count; then erosion_prob, the cell bytes, the frontier.
  constexpr std::size_t kSide = 4 * 8;
  constexpr std::size_t kRock = 5 * 8;
  constexpr std::size_t kCount = 6 * 8;
  constexpr std::size_t kProb = 7 * 8;
  constexpr std::size_t kCells = 8 * 8;
  const std::size_t frontier_at = kCells + d.cells.size();
  const auto corrupted = [&](std::size_t at, const auto& value) {
    std::vector<std::byte> bad = payload;
    std::memcpy(bad.data() + at, &value, sizeof(value));
    return bad;
  };
  const auto rejects = [](const std::vector<std::byte>& bad) {
    EXPECT_THROW((void)deserialize_disc(bad, 4), std::invalid_argument);
  };
  ASSERT_NO_THROW((void)deserialize_disc(payload, 4));

  // A cell byte that is not a state: with trial bits it would index past
  // the threshold table. On a fluid cell no other check sees it.
  rejects(corrupted(kCells + static_cast<std::size_t>(d.frontier[0]),
                    std::uint8_t{0xF2}));
  rejects(corrupted(kCells, std::uint8_t{0xF0}));
  // Frontier entries outside the grid, naming a non-frontier cell (the box
  // corner is never rock), or listing one cell twice.
  rejects(corrupted(frontier_at, static_cast<std::int32_t>(d.cells.size())));
  rejects(corrupted(frontier_at, std::int32_t{-1}));
  rejects(corrupted(frontier_at, std::int32_t{0}));
  rejects(corrupted(frontier_at + sizeof(std::int32_t), d.frontier[0]));
  // A rock count that disagrees with the cells.
  rejects(corrupted(kRock, d.rock_remaining + 1));
  // A frontier cell left off the list.
  std::vector<std::byte> unlisted = corrupted(
      kCount, static_cast<std::int64_t>(d.frontier.size()) - 1);
  unlisted.resize(unlisted.size() - sizeof(std::int32_t));
  rejects(unlisted);
  // A frontier count whose byte size wraps around to the true one.
  rejects(corrupted(kCount, (std::int64_t{1} << 62) +
                                static_cast<std::int64_t>(d.frontier.size())));
  // A side whose square overflows — to the true cell count, modulo 2^64,
  // so only the overflow check stands between it and the cell loops.
  rejects(corrupted(kSide, std::numeric_limits<std::int64_t>::max() -
                               d.side + 1));
  // A frontier flag that disagrees with the faces: a frontier cell swaps
  // state with an interior one, counts and listing kept consistent.
  const auto interior = static_cast<std::size_t>(
      std::find(d.cells.begin(), d.cells.end(),
                cell_byte(Cell::kRockInterior, 0)) -
      d.cells.begin());
  ASSERT_LT(interior, d.cells.size());
  std::vector<std::byte> swapped = payload;
  swapped[kCells + static_cast<std::size_t>(d.frontier[0])] = std::byte{1};
  swapped[kCells + interior] = std::byte{2};
  const auto relisted = static_cast<std::int32_t>(interior);
  std::memcpy(swapped.data() + frontier_at, &relisted, sizeof(relisted));
  rejects(swapped);
  // An erosion probability the threshold table cannot take.
  rejects(corrupted(kProb, 1.5));
  rejects(corrupted(kProb, std::nan("")));
}

/// App-level wiring: AppConfig::ranks > 1 runs the SAME virtual-time LB
/// machinery (LbController) over the distributed domain, so the whole
/// RunResult — times, LB schedule, per-step α's, recorded thresholds — must
/// be BIT-identical to the in-process run, for every rank count and under
/// every α policy; only the rank-migration accounting is additional.
TEST(DistributedErosion, AppRunResultBitIdenticalToSerial) {
  erosion::AppConfig cfg;
  cfg.pe_count = 16;
  cfg.columns_per_pe = 48;
  cfg.rows = 64;
  cfg.rock_radius = 16;
  cfg.iterations = 60;
  cfg.seed = 3;
  cfg.method = Method::kUlba;
  cfg.bytes_per_cell = 256.0;
  cfg.comm.latency_s = 1e-4;
  cfg.comm.bandwidth_Bps = 2e9;

  for (const AlphaPolicy policy :
       {AlphaPolicy::kFixed, AlphaPolicy::kGossipModel}) {
    AppConfig serial_cfg = cfg;
    serial_cfg.alpha_policy = policy;
    const RunResult serial = ErosionApp(serial_cfg).run();
    ASSERT_GE(serial.lb_count, 1)
        << "the reference run must exercise at least one mid-run LB step";

    for (const std::int64_t ranks : {2, 4, 8}) {
      AppConfig dist_cfg = serial_cfg;
      dist_cfg.ranks = ranks;
      dist_cfg.threads = ranks == 4 ? 2 : 1;  // one variant on rank pools
      const RunResult dist = ErosionApp(dist_cfg).run();
      const std::string what = "ranks " + std::to_string(ranks) +
                               ", policy " + alpha_policy_name(policy);

      EXPECT_EQ(serial.total_seconds, dist.total_seconds) << what;
      EXPECT_EQ(serial.compute_seconds, dist.compute_seconds) << what;
      EXPECT_EQ(serial.lb_seconds, dist.lb_seconds) << what;
      EXPECT_EQ(serial.lb_count, dist.lb_count) << what;
      EXPECT_EQ(serial.fallback_count, dist.fallback_count) << what;
      EXPECT_EQ(serial.average_utilization, dist.average_utilization) << what;
      EXPECT_EQ(serial.eroded_cells, dist.eroded_cells) << what;
      EXPECT_EQ(serial.final_imbalance, dist.final_imbalance) << what;
      EXPECT_EQ(serial.lb_iterations, dist.lb_iterations) << what;
      EXPECT_EQ(serial.lb_alphas, dist.lb_alphas) << what;
      ASSERT_EQ(serial.iterations.size(), dist.iterations.size()) << what;
      for (std::size_t i = 0; i < serial.iterations.size(); ++i) {
        EXPECT_EQ(serial.iterations[i].seconds, dist.iterations[i].seconds)
            << what << " — iteration " << i;
        EXPECT_EQ(serial.iterations[i].utilization,
                  dist.iterations[i].utilization)
            << what << " — iteration " << i;
        EXPECT_EQ(serial.iterations[i].degradation,
                  dist.iterations[i].degradation)
            << what << " — iteration " << i;
        EXPECT_EQ(serial.iterations[i].threshold,
                  dist.iterations[i].threshold)
            << what << " — iteration " << i;
        EXPECT_EQ(serial.iterations[i].lb_performed,
                  dist.iterations[i].lb_performed)
            << what << " — iteration " << i;
      }
      // The distributed accounting is additional: the serial run reports
      // none, the distributed run recut its stripes at every LB step.
      EXPECT_EQ(serial.rank_discs_moved, 0) << what;
      EXPECT_GE(dist.rank_migration_bytes, 0.0) << what;
      EXPECT_GT(dist.rank_observed_bytes, 0.0)
          << what << " — an LB step fired, so migrations crossed the wire";
    }
  }
}

/// App level: the serial in-process run, the pooled run, and the
/// distributed run must produce ONE RunResult bit for bit.
TEST(DistributedErosion, AppCounterKindOneResultAcrossThreadsRanks) {
  erosion::AppConfig cfg;
  cfg.pe_count = 16;
  cfg.columns_per_pe = 48;
  cfg.rows = 64;
  cfg.rock_radius = 16;
  cfg.iterations = 50;
  cfg.seed = 3;
  cfg.method = Method::kUlba;
  cfg.bytes_per_cell = 256.0;
  cfg.comm.latency_s = 1e-4;
  cfg.comm.bandwidth_Bps = 2e9;

  const RunResult serial = ErosionApp(cfg).run();
  ASSERT_GE(serial.lb_count, 1)
      << "the reference run must exercise at least one mid-run LB step";

  const auto expect_same = [&](const AppConfig& variant,
                               const std::string& what) {
    const RunResult got = ErosionApp(variant).run();
    EXPECT_EQ(serial.total_seconds, got.total_seconds) << what;
    EXPECT_EQ(serial.compute_seconds, got.compute_seconds) << what;
    EXPECT_EQ(serial.lb_seconds, got.lb_seconds) << what;
    EXPECT_EQ(serial.lb_count, got.lb_count) << what;
    EXPECT_EQ(serial.eroded_cells, got.eroded_cells) << what;
    EXPECT_EQ(serial.average_utilization, got.average_utilization) << what;
    EXPECT_EQ(serial.final_imbalance, got.final_imbalance) << what;
    EXPECT_EQ(serial.lb_iterations, got.lb_iterations) << what;
    EXPECT_EQ(serial.lb_alphas, got.lb_alphas) << what;
  };
  AppConfig threaded = cfg;
  threaded.threads = 4;
  expect_same(threaded, "threads 4");
  for (const std::int64_t ranks : {2, 4}) {
    AppConfig dist_cfg = cfg;
    dist_cfg.ranks = ranks;
    dist_cfg.threads = ranks == 4 ? 2 : 1;
    expect_same(dist_cfg, "ranks " + std::to_string(ranks));
  }
}

/// App level: the two exchange modes must yield the same RunResult bit for
/// bit (only the step-traffic accounting may differ), and the neighbor mode
/// must be the cheaper one.
TEST(DistributedErosion, AppExchangeModesBitIdenticalNeighborCheaper) {
  erosion::AppConfig cfg;
  cfg.pe_count = 16;
  cfg.columns_per_pe = 48;
  cfg.rows = 64;
  cfg.rock_radius = 16;
  cfg.iterations = 40;
  cfg.seed = 3;
  cfg.method = Method::kUlba;
  cfg.bytes_per_cell = 256.0;
  cfg.comm.latency_s = 1e-4;
  cfg.comm.bandwidth_Bps = 2e9;

  for (const std::int64_t ranks : {4, 8}) {
    AppConfig a2a_cfg = cfg;
    a2a_cfg.ranks = ranks;
    a2a_cfg.exchange = "alltoall";
    AppConfig nbr_cfg = a2a_cfg;
    nbr_cfg.exchange = "neighbor";
    const RunResult a2a = ErosionApp(a2a_cfg).run();
    const RunResult nbr = ErosionApp(nbr_cfg).run();
    const std::string what = "ranks " + std::to_string(ranks);

    EXPECT_EQ(a2a.total_seconds, nbr.total_seconds) << what;
    EXPECT_EQ(a2a.compute_seconds, nbr.compute_seconds) << what;
    EXPECT_EQ(a2a.lb_seconds, nbr.lb_seconds) << what;
    EXPECT_EQ(a2a.lb_count, nbr.lb_count) << what;
    EXPECT_EQ(a2a.eroded_cells, nbr.eroded_cells) << what;
    EXPECT_EQ(a2a.final_imbalance, nbr.final_imbalance) << what;
    EXPECT_EQ(a2a.lb_iterations, nbr.lb_iterations) << what;
    EXPECT_EQ(a2a.lb_alphas, nbr.lb_alphas) << what;
    EXPECT_EQ(a2a.rank_discs_moved, nbr.rank_discs_moved) << what;
    EXPECT_EQ(a2a.rank_migration_bytes, nbr.rank_migration_bytes) << what;
    EXPECT_EQ(a2a.rank_observed_bytes, nbr.rank_observed_bytes) << what;
    ASSERT_EQ(a2a.iterations.size(), nbr.iterations.size()) << what;
    for (std::size_t i = 0; i < a2a.iterations.size(); ++i) {
      EXPECT_EQ(a2a.iterations[i].seconds, nbr.iterations[i].seconds)
          << what << " — iteration " << i;
      EXPECT_EQ(a2a.iterations[i].degradation, nbr.iterations[i].degradation)
          << what << " — iteration " << i;
    }
    EXPECT_GT(a2a.rank_step_messages, 0) << what;
    EXPECT_LT(nbr.rank_step_messages, a2a.rank_step_messages) << what;
    EXPECT_LT(nbr.rank_step_bytes, a2a.rank_step_bytes) << what;
  }
}

TEST(DistributedErosion, AppConfigRejectsOutOfRangeRanks) {
  erosion::AppConfig cfg;
  cfg.ranks = cfg.pe_count + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.ranks = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(DistributedErosion, AppConfigValidatesExchangeAndMeasuredKnobs) {
  erosion::AppConfig cfg;
  cfg.ranks = 2;
  cfg.exchange = "broadcast-tree";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.exchange = "alltoall";
  cfg.validate();
  cfg.exchange = "neighbor";
  cfg.validate();
  // Measured mode needs the SPMD substrate and positive cost scales.
  cfg.measure_time = true;
  cfg.validate();
  cfg.ranks = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.ranks = 2;
  cfg.ns_scale = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.ns_scale = 4.0;
  cfg.migration_scale = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW((void)exchange_mode_from_name("hypercube"),
               std::invalid_argument);
  EXPECT_EQ(exchange_mode_name(exchange_mode_from_name("neighbor")),
            "neighbor");
  EXPECT_EQ(exchange_mode_name(exchange_mode_from_name("alltoall")),
            "alltoall");
}

TEST(DistributedErosion, RejectsDegenerateConfigurations) {
  support::Rng config_rng(99);
  const DomainConfig cfg = testing::random_domain_config(config_rng);
  runtime::spmd_run(2, [&](runtime::Comm& comm) {
    EXPECT_THROW(DistributedDomain(cfg, comm, nullptr),
                 std::invalid_argument);
  });
  DomainConfig tiny;
  tiny.columns = 8;
  tiny.rows = 16;
  tiny.discs = {{4, 8, 1, 0.1}};
  tiny.validate();
  runtime::spmd_run(9, [&](runtime::Comm& comm) {
    EXPECT_THROW(DistributedDomain(tiny, comm, shared_partitioner("stripe")),
                 std::invalid_argument);
  });
}

}  // namespace
}  // namespace ulba::erosion
