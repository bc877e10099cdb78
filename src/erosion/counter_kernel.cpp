#include "erosion/counter_kernel.hpp"

#include <algorithm>
#include <array>

#include "support/counter_rng.hpp"
#include "support/require.hpp"

namespace ulba::erosion {

namespace {

/// Cells decided together: enough independent Philox draws to fill the
/// pipeline, few enough that the block's thresholds and draws stay in
/// registers / L1.
constexpr std::size_t kBlock = 16;

/// Decide the frontier cells `cells` of disc `d` at `iteration` and call
/// `erode(pos)` for each eroding position, in order. Per block: look the
/// thresholds up by the trial count in each cell's byte, take the draws
/// addressed by (iteration, cell index), then compare.
template <typename Erode>
void decide_cells(const DiscState& d, const support::CounterRng& rng,
                  std::uint64_t iteration, std::span<const std::int32_t> cells,
                  Erode&& erode) {
  std::array<std::uint64_t, kBlock> gate{};
  std::array<std::uint64_t, kBlock> draw{};
  for (std::size_t i = 0; i < cells.size(); i += kBlock) {
    const std::size_t m = std::min(kBlock, cells.size() - i);
    for (std::size_t b = 0; b < m; ++b)
      gate[b] = d.thresh[static_cast<std::size_t>(
          d.trials(static_cast<std::size_t>(cells[i + b])))];
    for (std::size_t b = 0; b < m; ++b)
      draw[b] =
          rng.draw(iteration, static_cast<std::uint64_t>(cells[i + b])) >> 11;
    for (std::size_t b = 0; b < m; ++b)
      if (draw[b] < gate[b]) erode(i + b);
  }
}

/// Decide flags for the flat positions [begin, end): walk the discs whose
/// slices overlap the range (the offsets locate the first) and decide each
/// overlap. Writes only flags[begin..end), so concurrent chunks never touch
/// the same byte.
void decide_range(std::span<const DiscState> discs,
                  std::span<const std::size_t> disc_ids, std::uint64_t seed,
                  std::uint64_t iteration, CounterWorkspace& ws,
                  std::size_t begin, std::size_t end) {
  // Last disc whose slice starts at or before `begin`; empty slices come
  // out as empty overlaps below.
  auto k = static_cast<std::size_t>(
      std::upper_bound(ws.offsets.begin(), ws.offsets.end(), begin) -
      ws.offsets.begin() - 1);
  for (std::size_t j = begin; j < end; ++k) {
    const std::size_t stop = std::min(end, ws.offsets[k + 1]);
    const support::CounterRng rng(seed,
                                  static_cast<std::uint64_t>(disc_ids[k]));
    decide_cells(discs[k], rng, iteration,
                 std::span<const std::int32_t>(ws.cells).subspan(j, stop - j),
                 [&](std::size_t pos) { ws.flags[j + pos] = 1; });
    j = stop;
  }
}

}  // namespace

std::int64_t counter_decide_apply(std::span<DiscState> discs,
                                  std::span<const std::size_t> disc_ids,
                                  std::uint64_t seed, std::int64_t iteration,
                                  support::ThreadPool* pool,
                                  CounterWorkspace& ws) {
  const std::size_t n = discs.size();
  ULBA_REQUIRE(disc_ids.size() == n,
               "counter kernel needs one global id per disc");
  ULBA_REQUIRE(iteration >= 0, "iteration must be non-negative");
  const auto iter = static_cast<std::uint64_t>(iteration);
  ws.erode.resize(n);

  std::size_t total = 0;
  for (const DiscState& d : discs) total += d.frontier.size();
  const std::size_t threads = pool ? pool->thread_count() : 1;

  // Serial path — no flatten/compact round-trip: decide straight off each
  // disc's frontier. The draws are position-addressed, so this produces
  // exactly the bits the chunked path below produces.
  if (threads <= 1 || total < 2048) {
    std::int64_t eroded = 0;
    for (std::size_t k = 0; k < n; ++k) {
      DiscState& d = discs[k];
      std::vector<std::int32_t>& out = ws.erode[k];
      out.clear();
      const support::CounterRng rng(seed,
                                    static_cast<std::uint64_t>(disc_ids[k]));
      decide_cells(d, rng, iter, d.frontier,
                   [&](std::size_t pos) { out.push_back(d.frontier[pos]); });
      apply_disc(d, out);
      eroded += static_cast<std::int64_t>(out.size());
    }
    return eroded;
  }

  // Phase A — flatten the pre-step frontiers into the SoA arrays. Serial,
  // O(frontier).
  ws.offsets.assign(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k)
    ws.offsets[k + 1] = ws.offsets[k] + discs[k].frontier.size();
  ws.cells.resize(total);
  ws.flags.assign(total, 0);
  for (std::size_t k = 0; k < n; ++k)
    std::copy(discs[k].frontier.begin(), discs[k].frontier.end(),
              ws.cells.begin() + static_cast<std::ptrdiff_t>(ws.offsets[k]));

  // Phase B — batched Bernoulli decisions over the flat array, in a few
  // contiguous chunks per thread (coarse items — parallel_for claims one
  // index per lock). Flags are position-addressed, so any chunking produces
  // identical bits.
  const std::size_t chunks = std::min(total, threads * 4);
  pool->parallel_for(chunks, [&](std::size_t c) {
    decide_range(discs, disc_ids, seed, iter, ws, c * total / chunks,
                 (c + 1) * total / chunks);
  });

  // Phase C — compact each disc's flagged cells (frontier order) and
  // apply. Discs are pairwise disjoint, so one task per disc is race-free.
  pool->parallel_for(n, [&](std::size_t k) {
    std::vector<std::int32_t>& out = ws.erode[k];
    out.clear();
    for (std::size_t j = ws.offsets[k]; j < ws.offsets[k + 1]; ++j)
      if (ws.flags[j] != 0) out.push_back(ws.cells[j]);
    apply_disc(discs[k], out);
  });

  std::int64_t eroded = 0;
  for (const auto& e : ws.erode) eroded += static_cast<std::int64_t>(e.size());
  return eroded;
}

}  // namespace ulba::erosion
