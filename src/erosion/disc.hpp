// Disc-local erosion mechanics, factored out of ErosionDomain so every
// stepper — the serial domain and the SPMD-distributed stepper — drives ONE
// implementation of the cellular automaton:
//
//   * build_disc_state  — rasterize a RockDisc into its bounding-box cell
//                         grid and initial frontier, one row span at a
//                         time;
//   * apply_disc        — the disc-local half of a step: flip the cells the
//                         counter kernel (erosion/counter_kernel.hpp)
//                         decided to erode, credit their rock neighbours,
//                         expose interior rock, compact the frontier;
//   * serialize_disc /  — byte-exact migration format, so a disc can change
//     deserialize_disc    owner as one real message between address spaces.
//
// One byte per cell packs the cell's state (bits 0–1) with, for a rock
// cell, its trial count t in [0, 8] (bits 4–7): the erosion trials it takes
// from its fluid faces, where an outside neighbour counts one and a refined
// neighbour two (it consists of four finer cells, two of which border the
// rock cell). The count is kept up to date at apply time — each eroded cell
// adds 2 to every rock neighbour — so the kernel reads a frontier cell's
// trials from its own byte instead of recounting four neighbours. Fluid
// bytes carry no count: an outside byte is exactly 0, a refined byte 3.
//
// A disc's state is fully self-contained (discs are pairwise disjoint by
// DomainConfig::validate), which is what makes ownership migration a plain
// state transfer: no neighbour stitching is ever needed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ulba::erosion {

struct RockDisc;

/// Cell states of one disc's bounding-box grid — bits 0–1 of a cell byte.
enum class Cell : std::uint8_t {
  kOutside = 0,       ///< inside the bounding box but not rock (fluid)
  kRockInterior = 1,  ///< rock with no fluid contact yet
  kRockFrontier = 2,  ///< rock touching fluid — erodible this step
  kRefined = 3,       ///< eroded: refinement_factor finer fluid cells
};

/// Most trials a rock cell can take: four refined neighbours.
inline constexpr int kMaxTrials = 8;

/// The materialized state of one rock disc: its bounding-box cell grid plus
/// the compacted frontier list.
struct DiscState {
  static constexpr std::uint8_t kStateMask = 0x3;
  static constexpr int kTrialsShift = 4;

  std::int64_t x0 = 0, y0 = 0;  ///< bounding-box origin in the domain
  std::int64_t side = 0;        ///< box is side × side
  double erosion_prob = 0.0;
  /// trials -> ceil((1-(1-p)^trials) * 2^53), the kernel's integer
  /// Bernoulli gate; a function of erosion_prob alone, built once with the
  /// state (build_disc_state / deserialize_disc).
  std::array<std::uint64_t, kMaxTrials + 1> thresh{};
  std::vector<std::uint8_t> cells;     ///< packed box cell bytes
  std::vector<std::int32_t> frontier;  ///< indices of kRockFrontier cells
  std::int64_t rock_remaining = 0;

  [[nodiscard]] Cell state(std::size_t idx) const {
    return static_cast<Cell>(cells[idx] & kStateMask);
  }
  [[nodiscard]] int trials(std::size_t idx) const {
    return cells[idx] >> kTrialsShift;
  }
  /// State at box coordinates; outside the box is fluid.
  [[nodiscard]] Cell at(std::int64_t lx, std::int64_t ly) const {
    if (lx < 0 || ly < 0 || lx >= side || ly >= side) return Cell::kOutside;
    return state(static_cast<std::size_t>(ly * side + lx));
  }
};

/// The byte of a cell in `state` with `trials` trials.
[[nodiscard]] constexpr std::uint8_t cell_byte(Cell state, int trials) {
  return static_cast<std::uint8_t>(static_cast<int>(state) |
                                   (trials << DiscState::kTrialsShift));
}

/// The trials a cell at (lx, ly) takes from its four neighbours' states —
/// the count the byte of a rock cell carries. Used where the state arrives
/// without counts (a deserialized disc) and by the invariant tests.
[[nodiscard]] int fluid_faces(const DiscState& d, std::int64_t lx,
                              std::int64_t ly);

/// Rasterize `disc` (cells within the Euclidean radius are rock; boundary
/// rock with any non-rock 4-neighbour starts on the frontier, in raster
/// order, its byte carrying one trial per outside neighbour).
[[nodiscard]] DiscState build_disc_state(const RockDisc& disc);

/// Half-open column interval [first, last) of the disc's bounding box — the
/// only columns its erosion can ever credit. Derivable from the RockDisc
/// alone (no materialized state), matching build_disc_state's box exactly;
/// this is what lets every rank compute halo-neighbor sets from replicated
/// metadata without holding remote DiscStates.
[[nodiscard]] std::pair<std::int64_t, std::int64_t> disc_column_span(
    const RockDisc& disc);

/// Half-open row interval [first, last) of the disc's bounding box — the
/// row-dimension twin of disc_column_span, which a 2D grid decomposition
/// needs to derive the full (edge + corner) halo-neighbor tile rectangle
/// from replicated metadata.
[[nodiscard]] std::pair<std::int64_t, std::int64_t> disc_row_span(
    const RockDisc& disc);

/// Disc-local apply — flip the cells in `to_erode` to refined, add 2 trials
/// to each rock neighbour of each flipped cell, expose interior rock,
/// compact the frontier. Touches nothing outside `d`.
void apply_disc(DiscState& d, const std::vector<std::int32_t>& to_erode);

/// Byte-exact wire format for migrating disc ownership between ranks.
/// `disc_id` travels with the state so the receiver can verify it got the
/// hand-off it expected. Cell bytes travel as states only; trial counts are
/// derived state and the receiver recounts them.
[[nodiscard]] std::vector<std::byte> serialize_disc(std::size_t disc_id,
                                                    const DiscState& d);

/// Inverse of serialize_disc; throws std::invalid_argument on a malformed
/// payload — a cell byte above 3, a frontier entry that is not a frontier
/// cell or repeats, a rock count or frontier flag that disagrees with the
/// cells, an overflowing side, an erosion probability outside [0, 1] — or
/// when the embedded disc id differs from `expected_disc_id`.
[[nodiscard]] DiscState deserialize_disc(std::span<const std::byte> payload,
                                         std::size_t expected_disc_id);

}  // namespace ulba::erosion
