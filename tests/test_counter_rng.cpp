// support::CounterRng and the counter-kernel fast path.
//
// Three layers of guarantees, weakest to strongest:
//   1. The Philox4x32-10 block function matches the published Random123
//      known-answer vectors — the implementation is THE Philox, not a
//      lookalike (any future "optimization" that changes a round shows up
//      here first).
//   2. Draws are position-addressed: the value at (disc, iteration, cell)
//      is independent of evaluation order, repetition, thread, and of which
//      other draws are taken at all.
//   3. erosion::counter_decide_apply produces bit-identical domains for
//      every pool size and for every partition of the disc set — the
//      property the app-level threads/ranks invariance rests on —
//      and its AVX-512 decide erodes exactly the cells the scalar one does.
#include "support/counter_rng.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "erosion/counter_kernel.hpp"
#include "erosion/domain.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_helpers.hpp"

namespace ulba::support {
namespace {

// Random123 kat_vectors, philox4x32x10 rows: counter/key -> output.
TEST(CounterRng, PhiloxKnownAnswers) {
  using Block = std::array<std::uint32_t, 4>;
  using Key = std::array<std::uint32_t, 2>;
  EXPECT_EQ(CounterRng::philox4x32({0u, 0u, 0u, 0u}, Key{0u, 0u}),
            (Block{0x6627e8d5u, 0xe169c58du, 0xbc57ac4cu, 0x9b00dbd8u}));
  EXPECT_EQ(CounterRng::philox4x32({0xffffffffu, 0xffffffffu, 0xffffffffu,
                                    0xffffffffu},
                                   Key{0xffffffffu, 0xffffffffu}),
            (Block{0x408f276du, 0x41c83b0eu, 0xa20bc7c6u, 0x6d5451fdu}));
  EXPECT_EQ(CounterRng::philox4x32({0x243f6a88u, 0x85a308d3u, 0x13198a2eu,
                                    0x03707344u},
                                   Key{0xa4093822u, 0x299f31d0u}),
            (Block{0xd16cfe09u, 0x94fdccebu, 0x5001e420u, 0x24126ea1u}));
}

TEST(CounterRng, KeyDerivationMatchesRngFork) {
  // Both stream-splitting facilities must keep using the same SplitMix64
  // recipe, so per-disc streams are decorrelated identically in both kinds.
  for (const std::uint64_t seed : {0ull, 11ull, 0xdeadbeefcafeull}) {
    for (const std::uint64_t stream : {0ull, 1ull, 57ull}) {
      const std::uint64_t forked = Rng(seed).fork(stream).seed();
      const auto key = CounterRng(seed, stream).key();
      EXPECT_EQ(key[0], static_cast<std::uint32_t>(forked));
      EXPECT_EQ(key[1], static_cast<std::uint32_t>(forked >> 32));
    }
  }
}

TEST(CounterRng, DrawsArePositionAddressedNotOrderDependent) {
  const CounterRng rng(42, 7);
  // Reference: row-major evaluation of a grid of positions.
  std::vector<std::uint64_t> reference;
  for (std::uint64_t hi = 0; hi < 8; ++hi)
    for (std::uint64_t lo = 0; lo < 64; ++lo)
      reference.push_back(rng.draw(hi, lo));

  // Same positions, shuffled evaluation order, some evaluated repeatedly,
  // on a fresh instance with the same (seed, stream).
  const CounterRng again(42, 7);
  std::vector<std::size_t> order(reference.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng shuffler(3);
  std::shuffle(order.begin(), order.end(), shuffler);
  for (const std::size_t i : order) {
    const std::uint64_t hi = i / 64, lo = i % 64;
    (void)again.draw(hi ^ 5, lo + 1000);  // unrelated interleaved draws
    EXPECT_EQ(reference[i], again.draw(hi, lo)) << "position " << i;
    EXPECT_EQ(reference[i], again.draw(hi, lo)) << "repeated " << i;
  }

  // Distinct positions and distinct streams actually differ.
  EXPECT_NE(rng.draw(0, 0), rng.draw(0, 1));
  EXPECT_NE(rng.draw(0, 0), rng.draw(1, 0));
  EXPECT_NE(rng.draw(0, 0), CounterRng(42, 8).draw(0, 0));
  EXPECT_NE(rng.draw(0, 0), CounterRng(43, 7).draw(0, 0));
}

TEST(CounterRng, Uniform01BoundsAndMean) {
  const CounterRng rng(9, 0);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform01(0, static_cast<std::uint64_t>(i));
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
  // Bernoulli edge cases at any position: p = 0 never, p = 1 always.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0, 1, static_cast<std::uint64_t>(i)));
    EXPECT_TRUE(rng.bernoulli(1.0, 1, static_cast<std::uint64_t>(i)));
  }
}

}  // namespace
}  // namespace ulba::support

namespace ulba::erosion {
namespace {

/// Full-domain counter trajectory snapshot after `steps` iterations.
struct CounterSnapshot {
  std::vector<double> weights;
  double total = 0.0;
  std::int64_t eroded = 0;
  std::int64_t rock_remaining = 0;
  std::int64_t frontier = 0;
};

CounterSnapshot counter_snapshot(const DomainConfig& cfg, std::uint64_t seed,
                                 int steps, support::ThreadPool* pool) {
  ErosionDomain domain(cfg);
  for (int s = 0; s < steps; ++s)
    (void)domain.step_counter(seed, s, pool);
  CounterSnapshot snap;
  snap.weights.assign(domain.column_weights().begin(),
                      domain.column_weights().end());
  snap.total = domain.total_workload();
  snap.eroded = domain.eroded_cells();
  snap.rock_remaining = domain.rock_cells_remaining();
  snap.frontier = domain.frontier_size();
  return snap;
}

void expect_snapshots_equal(const CounterSnapshot& a, const CounterSnapshot& b,
                            const std::string& what) {
  EXPECT_EQ(a.eroded, b.eroded) << what;
  EXPECT_EQ(a.rock_remaining, b.rock_remaining) << what;
  EXPECT_EQ(a.frontier, b.frontier) << what;
  EXPECT_EQ(a.total, b.total) << what;
  ASSERT_EQ(a.weights.size(), b.weights.size()) << what;
  for (std::size_t x = 0; x < a.weights.size(); ++x)
    ASSERT_EQ(a.weights[x], b.weights[x]) << what << " — column " << x;
}

TEST(CounterKernel, BitIdenticalForEveryPoolSize) {
  constexpr int kSteps = 16;
  support::Rng config_rng(314);
  for (int trial = 0; trial < 3; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 60 + static_cast<std::uint64_t>(trial);
    const CounterSnapshot ref = counter_snapshot(cfg, seed, kSteps, nullptr);
    for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
      support::ThreadPool pool(threads);
      const CounterSnapshot got = counter_snapshot(cfg, seed, kSteps, &pool);
      expect_snapshots_equal(ref, got,
                             "trial " + std::to_string(trial) + ", " +
                                 std::to_string(threads) + " threads");
    }
  }
}

TEST(CounterKernel, SubsetPartitioningCannotChangeTheDraws) {
  // Stepping disc subsets through separate kernel calls (a rank's view of
  // the domain) must reproduce the full-set pass exactly: the draw at
  // (disc, iteration, cell) does not know which call evaluated it, as long
  // as the GLOBAL disc ids are passed through. This is the micro-version of
  // the ranks invariance.
  support::Rng config_rng(1618);
  const DomainConfig cfg = testing::random_domain_config(config_rng);
  const std::uint64_t seed = 123;
  constexpr int kSteps = 10;

  std::vector<DiscState> whole;
  for (const RockDisc& d : cfg.discs) whole.push_back(build_disc_state(d));
  std::vector<DiscState> split = whole;
  const std::size_t n = whole.size();
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  const std::size_t cut = n / 3;

  CounterWorkspace ws_whole, ws_front, ws_back;
  std::int64_t eroded_whole = 0, eroded_split = 0;
  for (int s = 0; s < kSteps; ++s) {
    eroded_whole += counter_decide_apply(whole, ids, seed, s, nullptr,
                                         ws_whole);
    // Two kernel calls over an uneven split of the disc set, back subset
    // first — neither the grouping nor the call order may matter.
    eroded_split += counter_decide_apply(
        std::span<DiscState>(split).subspan(cut),
        std::span<const std::size_t>(ids).subspan(cut), seed, s, nullptr,
        ws_back);
    eroded_split += counter_decide_apply(
        std::span<DiscState>(split).first(cut),
        std::span<const std::size_t>(ids).first(cut), seed, s, nullptr,
        ws_front);
  }

  EXPECT_GT(eroded_whole, 0) << "the trial domain never eroded anything";
  EXPECT_EQ(eroded_whole, eroded_split);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(whole[k].rock_remaining, split[k].rock_remaining) << "disc " << k;
    EXPECT_EQ(whole[k].frontier, split[k].frontier) << "disc " << k;
    ASSERT_EQ(whole[k].cells, split[k].cells) << "disc " << k;
  }
}

TEST(CounterKernel, RepeatingAnIterationRepeatsItsDraws) {
  // The iteration number is part of the address: two domains stepped with
  // the same (seed, iteration) sequence agree, and reusing an iteration
  // number replays its decisions (the resume/checkpoint property).
  support::Rng config_rng(99);
  const DomainConfig cfg = testing::random_domain_config(config_rng);
  ErosionDomain a(cfg);
  ErosionDomain b(cfg);
  const std::int64_t ea = a.step_counter(8, 0);
  const std::int64_t eb = b.step_counter(8, 0);
  EXPECT_EQ(ea, eb);
  EXPECT_EQ(a.frontier_size(), b.frontier_size());
  // Different iteration numbers address different draws (overwhelmingly).
  ErosionDomain c(cfg);
  ErosionDomain d(cfg);
  std::int64_t diverged = 0;
  for (std::int64_t s = 0; s < 6; ++s) {
    const std::int64_t ec = c.step_counter(8, s);
    const std::int64_t ed = d.step_counter(8, s + 100);
    if (ec != ed) ++diverged;
  }
  EXPECT_GT(diverged, 0) << "iteration is not reaching the draw addresses";
}

/// The gate table of a disc with erosion probability p, as built with it.
std::array<std::uint64_t, kMaxTrials + 1> gate_table(double p) {
  return build_disc_state(RockDisc{4, 4, 3, p}).thresh;
}

TEST(CounterKernel, SimdDecideMatchesScalar) {
  if (!avx512_decide_supported())
    GTEST_SKIP() << "this CPU lacks avx512f: only the scalar decide runs";

  // Cell bytes of a synthetic disc: cell c is a frontier cell with
  // c % 9 trials, so every trial count 0..8 shows up in any 9 cells.
  std::vector<std::uint8_t> bytes(4096);
  for (std::size_t c = 0; c < bytes.size(); ++c)
    bytes[c] = cell_byte(Cell::kRockFrontier, static_cast<int>(c % 9));
  std::vector<std::int32_t> pool(bytes.size());
  std::iota(pool.begin(), pool.end(), 0);
  support::Rng shuffler(17);
  std::shuffle(pool.begin(), pool.end(), shuffler);

  // Iteration 2^32 + 5 and above put a non-zero counter word 3 in play.
  const std::array<std::uint64_t, 4> iterations = {0, 7, (1ull << 32) + 5,
                                                   (1ull << 45) + 3};
  std::vector<std::int32_t> scalar, simd, dispatched;
  auto expect_same = [&](std::span<const std::uint64_t, kMaxTrials + 1> thresh,
                         std::span<const std::uint8_t> cell_bytes,
                         const support::CounterRng& rng, std::uint64_t iter,
                         std::span<const std::int32_t> cells,
                         const std::string& what) {
    scalar.clear();
    simd.clear();
    dispatched.clear();
    decide_cells_scalar(thresh, cell_bytes, rng, iter, cells, scalar);
    decide_cells_avx512(thresh, cell_bytes, rng, iter, cells, simd);
    decide_cells(thresh, cell_bytes, rng, iter, cells, dispatched);
    EXPECT_EQ(scalar, simd) << what;
    EXPECT_EQ(scalar, dispatched) << what;
  };

  // Every p, iteration, key and frontier length 1..40 (every tail mask),
  // each at several offsets into the shuffled cells.
  std::int64_t eroded = 0, decided = 0;
  for (const double p : {0.0, 1e-6, 0.3, 1.0}) {
    const auto thresh = gate_table(p);
    for (const std::uint64_t iter : iterations) {
      for (const std::uint64_t disc : {0ull, 5ull}) {
        const support::CounterRng rng(31, disc);
        for (std::size_t len = 1; len <= 40; ++len) {
          for (std::size_t start = 0; start + len <= 400; start += 97) {
            const auto cells =
                std::span<const std::int32_t>(pool).subspan(start, len);
            expect_same(thresh, bytes, rng, iter, cells,
                        "p " + std::to_string(p) + ", iteration " +
                            std::to_string(iter) + ", length " +
                            std::to_string(len));
            eroded += static_cast<std::int64_t>(scalar.size());
            decided += static_cast<std::int64_t>(len);
          }
        }
      }
    }
  }
  EXPECT_GT(eroded, 0);
  EXPECT_LT(eroded, decided);

  // Gates on a draw's own value: the hi 21 bits tie and the lo 32 bits
  // decide, so a gate of draw + 1 erodes and a gate of draw does not.
  const support::CounterRng rng(8, 3);
  std::vector<std::int32_t> cells;  // one cell of each trial count
  for (const std::int32_t c : pool)
    if (c % 9 == static_cast<std::int32_t>(cells.size())) cells.push_back(c);
  for (const std::uint64_t iter : iterations) {
    std::array<std::uint64_t, kMaxTrials + 1> thresh{};
    std::vector<std::int32_t> expected;
    for (const std::int32_t c : cells) {
      const auto t = static_cast<std::size_t>(c % 9);
      const std::uint64_t v =
          rng.draw(iter, static_cast<std::uint64_t>(c)) >> 11;
      thresh[t] = t % 2 == 1 ? v + 1 : v;
      if (t % 2 == 1) expected.push_back(c);
    }
    expect_same(thresh, bytes, rng, iter, cells,
                "tied gates, iteration " + std::to_string(iter));
    EXPECT_EQ(simd, expected) << "tied gates, iteration " << iter;
  }

  // Cell indices up to INT32_MAX. Their bytes sit at the top of a 2 GiB
  // anonymous mapping that is never touched elsewhere, so it costs a page.
  constexpr std::size_t kSpan = std::size_t{1} << 31;
  void* map = mmap(nullptr, kSpan, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(map, MAP_FAILED) << "could not reserve 2 GiB of address space";
  auto* high_bytes = static_cast<std::uint8_t*>(map);
  std::vector<std::int32_t> high(40);
  for (std::size_t b = 0; b < high.size(); ++b) {
    high[b] = std::numeric_limits<std::int32_t>::max() -
              static_cast<std::int32_t>(b);
    high_bytes[high[b]] =
        cell_byte(Cell::kRockFrontier, static_cast<int>(b % 9));
  }
  const std::span<const std::uint8_t> high_span(high_bytes, kSpan);
  for (const std::uint64_t iter : iterations)
    for (std::size_t len = 1; len <= high.size(); ++len)
      expect_same(gate_table(0.3), high_span, rng, iter,
                  std::span<const std::int32_t>(high).first(len),
                  "cells near INT32_MAX, length " + std::to_string(len));
  munmap(map, kSpan);
}

/// Steps `discs` for `steps` iterations and asserts, after every step, that
/// each rock cell's stored trial count equals its recount. Returns the
/// stepped discs.
std::vector<DiscState> expect_trials_kept_up_to_date(
    std::vector<DiscState> discs, std::uint64_t seed, int steps,
    support::ThreadPool* pool, const std::string& what) {
  std::vector<std::size_t> ids(discs.size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  CounterWorkspace ws;
  std::int64_t eroded = 0;
  for (int s = 0; s < steps; ++s) {
    eroded += counter_decide_apply(discs, ids, seed, s, pool, ws);
    for (std::size_t k = 0; k < discs.size(); ++k)
      EXPECT_EQ(testing::trial_count_mismatches(discs[k]), 0)
          << what << ", step " << s << ", disc " << k;
  }
  EXPECT_GT(eroded, 0) << what << ": nothing eroded";
  return discs;
}

TEST(CounterKernel, StoredTrialsMatchRecountAfterEveryStep) {
  // Serial path on small random domains, from the rasterized start on.
  support::Rng config_rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    std::vector<DiscState> discs;
    for (const RockDisc& d : cfg.discs) {
      discs.push_back(build_disc_state(d));
      ASSERT_EQ(testing::trial_count_mismatches(discs.back()), 0);
    }
    (void)expect_trials_kept_up_to_date(
        discs, 70 + static_cast<std::uint64_t>(trial), 40, nullptr,
        "serial, trial " + std::to_string(trial));
  }

  // Pooled path: frontiers large enough that the kernel takes the chunked
  // decide instead of its serial fallback (the random domains above never
  // exceed a few hundred frontier cells). It must also match the serial
  // path bit for bit.
  DomainConfig big;
  big.rows = 300;
  std::int64_t cursor = 2;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t r = config_rng.uniform_int(100, 140);
    big.discs.push_back({cursor + r, 150, r, config_rng.uniform(0.05, 0.9)});
    cursor += 2 * r + 3;
  }
  big.columns = cursor + 2;
  big.validate();
  std::vector<DiscState> discs;
  std::size_t frontier = 0;
  for (const RockDisc& d : big.discs) {
    discs.push_back(build_disc_state(d));
    frontier += discs.back().frontier.size();
  }
  ASSERT_GE(frontier, 2048u) << "too small to leave the serial fallback";
  support::ThreadPool pool(4);
  const std::vector<DiscState> pooled =
      expect_trials_kept_up_to_date(discs, 9, 12, &pool, "pool of 4");
  const std::vector<DiscState> serial =
      expect_trials_kept_up_to_date(discs, 9, 12, nullptr, "serial, large");
  for (std::size_t k = 0; k < discs.size(); ++k) {
    EXPECT_EQ(pooled[k].cells, serial[k].cells) << "disc " << k;
    EXPECT_EQ(pooled[k].frontier, serial[k].frontier) << "disc " << k;
  }
}

}  // namespace
}  // namespace ulba::erosion
