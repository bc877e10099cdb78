// The erosion step kernel — ONE decide+apply implementation shared by all
// steppers (serial, pooled, sharded, distributed).
//
// Every Bernoulli draw is addressed by (disc, iteration, cell index) through
// support::CounterRng, so NOTHING in the step depends on evaluation order.
// A frontier cell's decision reads two things: its pre-step trial count,
// kept in bits 4–7 of its own cell byte (erosion/disc.hpp: apply_disc adds 2
// to each rock neighbour of an eroded cell, the refined-face rule), and the
// disc's trials -> threshold table ceil((1-(1-p)^trials) * 2^53), built
// once with the disc. The decision is then `draw >> 11 < threshold`: no
// neighbour loads, no index division, no pow(), and bit-equal to
// `uniform01(draw) < p_eff` (scaling by 2^53 is exact).
//
// Serial path: each disc's frontier is decided in blocks of 16 cells —
// look up the thresholds, then take the draws, then compare — so the
// independent Philox draws of a block overlap in the pipeline, and the
// eroded cells land straight in ws.erode.
//
// Pooled path:
//   A. flatten — the per-disc pre-step frontiers are copied into one
//      contiguous SoA array (cell indices + per-disc offsets);
//   B. decide — one batched pass over the flat array, chunked across the
//      ThreadPool (contiguous ranges, NOT per-cell tasks: parallel_for
//      claims indices under a mutex and is sized for coarse items). Each
//      cell's draw is CounterRng(seed, disc_id).draw(iteration, cell), so
//      any chunking yields identical flags;
//   C. apply — per-disc compaction of the flagged cells (in frontier
//      order) + apply_disc, one task per disc across the pool. Disc state
//      is disc-local, so discs are independent.
//
// Both paths take the same position-addressed draws against the same
// thresholds, so they produce the same bits.
//
// The caller commits the per-column workload accounting afterwards from
// CounterWorkspace::erode. The commit is itself order-independent (every
// eroded cell credits the same constant to a column accumulator — the same
// property the distributed halo exchange relies on), so the whole step is
// bit-identical for every thread count, shard count, and rank count by
// construction. Locked by test_counter_rng and the counter sweeps of
// test_sharded_erosion / test_distributed_erosion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "erosion/disc.hpp"
#include "support/thread_pool.hpp"

namespace ulba::erosion {

/// Reusable flat buffers of counter_decide_apply — kept across steps so the
/// hot loop never allocates once the frontiers reach steady state.
struct CounterWorkspace {
  std::vector<std::size_t> offsets;   ///< per-disc [start, end) into cells
  std::vector<std::int32_t> cells;    ///< flattened pre-step frontiers
  std::vector<std::uint8_t> flags;    ///< 1 = cell erodes; parallel to cells
  /// Per-disc eroded cells (frontier order), the caller's commit input.
  /// Entry k belongs to discs[k].
  std::vector<std::vector<std::int32_t>> erode;
};

/// One counter-addressed decide+apply pass over `discs` at `iteration`.
/// `disc_ids[k]` is the GLOBAL id of discs[k] — the RNG stream key — so a
/// rank/shard stepping a subset produces exactly the draws the full-domain
/// stepper would. Pass pool == nullptr (or a pool of 1) for the inline
/// serial path; results are bit-identical either way. Returns the number of
/// cells eroded across `discs`; per-disc detail stays in ws.erode.
std::int64_t counter_decide_apply(std::span<DiscState> discs,
                                  std::span<const std::size_t> disc_ids,
                                  std::uint64_t seed, std::int64_t iteration,
                                  support::ThreadPool* pool,
                                  CounterWorkspace& ws);

}  // namespace ulba::erosion
