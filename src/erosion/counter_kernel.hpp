// The erosion step kernel — ONE decide+apply implementation shared by all
// steppers (serial, pooled, distributed).
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
// Decide: each disc's frontier is decided in blocks of 16 cells — look up
// the thresholds, then take the draws, then compare. Two implementations
// take the same draws and produce the same bits:
//   - decide_cells_avx512 runs the 16 draws of a block as one Philox pass,
//     one cell per 32-bit lane of a 512-bit register. Lane counters are
//     (cell, 0, iteration lo, iteration hi); each round's 32x32->64
//     multiplies are two _mm512_mul_epu32 (even lanes, then the odd lanes
//     copied down) blended back into place, and each XOR triple is one
//     ternary-logic op. The 16 trial bytes come in with one gather. The gate compares draw >> 11 < thresh[trials] as
//     a word pair — hi 21 bits, then lo 32 bits on a tie — against two
//     16-entry permute tables built from DiscState::thresh (trials <= 8
//     index them; p = 1 gives a gate of 2^53, whose hi word 2^21 is above
//     every draw's). A block's eroding cells are compressed to the front of
//     a register, stored to a small stack buffer, and appended to the
//     erode list when the buffer fills (no buffer grows with the
//     frontier).
//   - decide_cells_scalar takes one CounterRng::draw per cell: the
//     fallback, and the reference the SIMD decide is tested against.
// decide_cells dispatches on the CPU alone: AVX-512 when
// __builtin_cpu_supports("avx512f") holds (checked once per process),
// scalar otherwise. There is no flag to pick one.
//
// Serial path: decide_cells straight off each disc's frontier into
// ws.erode, then apply.
//
// Pooled path:
//   A. offsets — the flat order is the per-disc pre-step frontiers back to
//      back; only the per-disc offsets are built, from frontier sizes;
//   B. decide — one batched pass over the flat order, chunked across the
//      ThreadPool (contiguous ranges, NOT per-cell tasks: parallel_for
//      claims indices under a mutex and is sized for coarse items). A
//      chunk reads each overlapped disc's frontier in place and flags its
//      eroding positions, through the same dispatch. Each cell's draw is
//      CounterRng(seed, disc_id).draw(iteration, cell), so any chunking
//      yields identical flags;
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
// bit-identical for every thread count and rank count by construction.
// Locked by test_counter_rng and the counter sweeps of
// test_distributed_erosion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "erosion/disc.hpp"
#include "support/counter_rng.hpp"
#include "support/thread_pool.hpp"

namespace ulba::erosion {

/// Reusable flat buffers of counter_decide_apply — kept across steps so the
/// hot loop never allocates once the frontiers reach steady state.
struct CounterWorkspace {
  /// Per-disc [start, end) of the flat order: the frontiers back to back.
  std::vector<std::size_t> offsets;
  std::vector<std::uint8_t> flags;  ///< 1 = cell erodes; by flat position
  /// Per-disc eroded cells (frontier order), the caller's commit input.
  /// Entry k belongs to discs[k].
  std::vector<std::vector<std::int32_t>> erode;
};

/// The decide step on its own — the kernel's entry points, exposed for the
/// SIMD-vs-scalar test and the micro benchmark. Each appends to `out`, in
/// `cells` order, the cells that erode at `iteration`: those whose
/// rng.draw(iteration, cell) >> 11 is below thresh[trials], where trials
/// is bits 4–7 of bytes[cell]. Pass a disc's DiscState::thresh and
/// DiscState::cells. All three produce the same bits.
void decide_cells_scalar(std::span<const std::uint64_t, kMaxTrials + 1> thresh,
                         std::span<const std::uint8_t> bytes,
                         const support::CounterRng& rng,
                         std::uint64_t iteration,
                         std::span<const std::int32_t> cells,
                         std::vector<std::int32_t>& out);
/// 16 cells per AVX-512F pass. Requires avx512_decide_supported().
void decide_cells_avx512(std::span<const std::uint64_t, kMaxTrials + 1> thresh,
                         std::span<const std::uint8_t> bytes,
                         const support::CounterRng& rng,
                         std::uint64_t iteration,
                         std::span<const std::int32_t> cells,
                         std::vector<std::int32_t>& out);
/// The dispatch: decide_cells_avx512 when supported, else the scalar one.
void decide_cells(std::span<const std::uint64_t, kMaxTrials + 1> thresh,
                  std::span<const std::uint8_t> bytes,
                  const support::CounterRng& rng, std::uint64_t iteration,
                  std::span<const std::int32_t> cells,
                  std::vector<std::int32_t>& out);

/// True when this build targets x86-64 and the CPU reports avx512f: the
/// dispatch's one check.
[[nodiscard]] bool avx512_decide_supported();

/// One counter-addressed decide+apply pass over `discs` at `iteration`.
/// `disc_ids[k]` is the GLOBAL id of discs[k] — the RNG stream key — so a
/// rank stepping a subset produces exactly the draws the full-domain
/// stepper would. Pass pool == nullptr (or a pool of 1) for the inline
/// serial path; results are bit-identical either way. Returns the number of
/// cells eroded across `discs`; per-disc detail stays in ws.erode.
std::int64_t counter_decide_apply(std::span<DiscState> discs,
                                  std::span<const std::size_t> disc_ids,
                                  std::uint64_t seed, std::int64_t iteration,
                                  support::ThreadPool* pool,
                                  CounterWorkspace& ws);

}  // namespace ulba::erosion
