#include "erosion/disc.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "erosion/domain.hpp"
#include "support/require.hpp"

namespace ulba::erosion {

std::pair<std::int64_t, std::int64_t> disc_column_span(const RockDisc& disc) {
  return {disc.cx - disc.radius, disc.cx + disc.radius + 1};
}

std::pair<std::int64_t, std::int64_t> disc_row_span(const RockDisc& disc) {
  return {disc.cy - disc.radius, disc.cy + disc.radius + 1};
}

namespace {

/// trials -> ceil((1-(1-p)^trials) * 2^53). `draw >> 11 < thresh[trials]`
/// decides exactly like `CounterRng::uniform01 < p_eff`: draw >> 11 is an
/// integer below 2^53, p_eff * 2^53 is an exact power-of-two rescale, and
/// x < ceil(y) == x < y for integer x. p_eff == 1 maps to 2^53 itself,
/// above every possible draw — certain erosion stays certain.
std::array<std::uint64_t, kMaxTrials + 1> threshold_table(
    double erosion_prob) {
  std::array<std::uint64_t, kMaxTrials + 1> thresh{};
  const double keep = 1.0 - erosion_prob;
  double pow_keep = 1.0;
  for (std::uint64_t& t : thresh) {
    t = static_cast<std::uint64_t>(std::ceil((1.0 - pow_keep) * 0x1p53));
    pow_keep *= keep;
  }
  return thresh;
}

/// Largest h >= 0 with h * h <= v: the exact integer square root (v >= 0).
std::int64_t isqrt(std::int64_t v) {
  auto h = static_cast<std::int64_t>(std::sqrt(static_cast<double>(v)));
  while (h * h > v) --h;
  while ((h + 1) * (h + 1) <= v) ++h;
  return h;
}

}  // namespace

int fluid_faces(const DiscState& d, std::int64_t lx, std::int64_t ly) {
  const auto face = [&](std::int64_t x, std::int64_t y) {
    switch (d.at(x, y)) {
      case Cell::kOutside:
        return 1;
      case Cell::kRefined:
        return 2;
      default:
        return 0;
    }
  };
  return face(lx - 1, ly) + face(lx + 1, ly) + face(lx, ly - 1) +
         face(lx, ly + 1);
}

DiscState build_disc_state(const RockDisc& disc) {
  const std::int64_t r = disc.radius;
  DiscState d;
  d.side = 2 * r + 1;
  d.x0 = disc.cx - r;
  d.y0 = disc.cy - r;
  d.erosion_prob = disc.erosion_prob;
  d.thresh = threshold_table(disc.erosion_prob);
  d.cells.assign(static_cast<std::size_t>(d.side * d.side),
                 cell_byte(Cell::kOutside, 0));

  // Row ly holds rock exactly at |lx - r| <= half[ly + 1] — the cells with
  // (lx - r)^2 + (ly - r)^2 <= r^2 — and half is -1 for the rows just
  // outside the box, which hold none.
  std::vector<std::int64_t> half(static_cast<std::size_t>(d.side) + 2, -1);
  for (std::int64_t ly = 0; ly < d.side; ++ly)
    half[static_cast<std::size_t>(ly) + 1] =
        isqrt(r * r - (ly - r) * (ly - r));

  for (std::int64_t ly = 0; ly < d.side; ++ly) {
    const std::int64_t h = half[static_cast<std::size_t>(ly) + 1];
    const std::int64_t up = half[static_cast<std::size_t>(ly)];
    const std::int64_t down = half[static_cast<std::size_t>(ly) + 2];
    const std::int64_t a = r - h;  // the row's rock span is [a, b]
    const std::int64_t b = r + h;
    std::uint8_t* row = d.cells.data() + ly * d.side;
    d.rock_remaining += b - a + 1;

    // A span cell's trials are its outside faces: the span's ends on the
    // left and right, and above / below wherever the neighbouring row's
    // span is narrower. Every one of them with a trial is frontier.
    const auto frontier_cell = [&](std::int64_t lx) {
      const std::int64_t off = lx < r ? r - lx : lx - r;
      const int trials = static_cast<int>(lx == a) + static_cast<int>(lx == b) +
                         static_cast<int>(off > up) +
                         static_cast<int>(off > down);
      row[lx] = cell_byte(Cell::kRockFrontier, trials);
      d.frontier.push_back(static_cast<std::int32_t>(ly * d.side + lx));
    };
    // Frontier runs [a, left_end] and [right_start, b]; the cells between
    // have rock on all four sides. Overlapping runs cover the whole span.
    const std::int64_t m = std::min(up, down);
    const std::int64_t left_end = std::max(a, std::min(b, r - m - 1));
    const std::int64_t right_start =
        std::max(left_end + 1, std::min(b, r + m + 1));
    for (std::int64_t lx = a; lx <= left_end; ++lx) frontier_cell(lx);
    std::fill(row + left_end + 1, row + right_start,
              cell_byte(Cell::kRockInterior, 0));
    for (std::int64_t lx = right_start; lx <= b; ++lx) frontier_cell(lx);
  }
  return d;
}

void apply_disc(DiscState& d, const std::vector<std::int32_t>& to_erode) {
  if (to_erode.empty()) return;

  // Rock → refined fluid.
  for (const std::int32_t idx : to_erode) {
    d.cells[static_cast<std::size_t>(idx)] = cell_byte(Cell::kRefined, 0);
    --d.rock_remaining;
  }

  // Each eroded cell is a refined face — two more trials — of every rock
  // neighbour, and newly exposed interior rock joins the frontier.
  const auto credit = [&](std::int64_t lx, std::int64_t ly) {
    if (lx < 0 || ly < 0 || lx >= d.side || ly >= d.side) return;
    const auto idx = static_cast<std::size_t>(ly * d.side + lx);
    const Cell s = d.state(idx);
    if (s != Cell::kRockInterior && s != Cell::kRockFrontier) return;
    if (s == Cell::kRockInterior)
      d.frontier.push_back(static_cast<std::int32_t>(idx));
    d.cells[idx] = cell_byte(Cell::kRockFrontier, d.trials(idx) + 2);
  };
  for (const std::int32_t idx : to_erode) {
    const std::int64_t lx = idx % d.side;
    const std::int64_t ly = idx / d.side;
    credit(lx - 1, ly);
    credit(lx + 1, ly);
    credit(lx, ly - 1);
    credit(lx, ly + 1);
  }

  // Compact the frontier list: drop everything that is no longer frontier.
  std::erase_if(d.frontier, [&](std::int32_t idx) {
    return d.state(static_cast<std::size_t>(idx)) != Cell::kRockFrontier;
  });
}

namespace {

// Wire layout: 1 × int64 format version + 6 × int64 header {disc_id, x0,
// y0, side, rock_remaining, frontier_count} + 1 × double erosion_prob +
// side² cell states (one byte each, trial counts masked off) +
// frontier_count × int32. Everything little-endian host
// order — the runtime's ranks share one machine (BitwisePortable
// discipline). The version leads so a stale peer fails loudly on the very
// first read instead of misparsing the header.
constexpr std::int64_t kDiscFormatVersion = 1;
constexpr std::size_t kHeaderInts = 7;

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t size) {
  if (size == 0) return;  // memcpy's source is declared nonnull
  const std::size_t at = out.size();
  out.resize(at + size);
  std::memcpy(out.data() + at, data, size);
}

template <typename T>
void append_raw(std::vector<std::byte>& out, const T& value) {
  append_bytes(out, &value, sizeof(T));
}

template <typename T>
T read_raw(std::span<const std::byte>& in) {
  ULBA_REQUIRE(in.size() >= sizeof(T), "disc payload truncated");
  T value;
  std::memcpy(&value, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return value;
}

}  // namespace

std::vector<std::byte> serialize_disc(std::size_t disc_id,
                                      const DiscState& d) {
  std::vector<std::byte> out;
  out.reserve(kHeaderInts * sizeof(std::int64_t) + sizeof(double) +
              d.cells.size() + d.frontier.size() * sizeof(std::int32_t));
  append_raw(out, kDiscFormatVersion);
  append_raw(out, static_cast<std::int64_t>(disc_id));
  append_raw(out, d.x0);
  append_raw(out, d.y0);
  append_raw(out, d.side);
  append_raw(out, d.rock_remaining);
  append_raw(out, static_cast<std::int64_t>(d.frontier.size()));
  append_raw(out, d.erosion_prob);
  // States only: the trial counts are derived, and the receiver recounts.
  for (const std::uint8_t c : d.cells)
    out.push_back(static_cast<std::byte>(c & DiscState::kStateMask));
  append_bytes(out, d.frontier.data(),
               d.frontier.size() * sizeof(std::int32_t));
  return out;
}

DiscState deserialize_disc(std::span<const std::byte> payload,
                           std::size_t expected_disc_id) {
  const auto version = read_raw<std::int64_t>(payload);
  ULBA_REQUIRE(version == kDiscFormatVersion,
               "unsupported disc payload format version");
  const auto disc_id = read_raw<std::int64_t>(payload);
  ULBA_REQUIRE(disc_id == static_cast<std::int64_t>(expected_disc_id),
               "disc hand-off id does not match the expected disc");
  DiscState d;
  d.x0 = read_raw<std::int64_t>(payload);
  d.y0 = read_raw<std::int64_t>(payload);
  d.side = read_raw<std::int64_t>(payload);
  d.rock_remaining = read_raw<std::int64_t>(payload);
  const auto frontier_count = read_raw<std::int64_t>(payload);
  d.erosion_prob = read_raw<double>(payload);
  ULBA_REQUIRE(d.side >= 1 && frontier_count >= 0, "malformed disc header");
  // Frontier entries are int32 cell indices, so side^2 must fit one.
  ULBA_REQUIRE(d.side <= std::numeric_limits<std::int32_t>::max() / d.side,
               "disc side squared overflows the cell index");
  ULBA_REQUIRE(d.erosion_prob >= 0.0 && d.erosion_prob <= 1.0,
               "disc erosion probability outside [0, 1]");
  const auto cell_count = static_cast<std::size_t>(d.side * d.side);
  ULBA_REQUIRE(static_cast<std::size_t>(frontier_count) <= cell_count,
               "disc frontier longer than its cell grid");
  ULBA_REQUIRE(payload.size() ==
                   cell_count + static_cast<std::size_t>(frontier_count) *
                                    sizeof(std::int32_t),
               "disc payload size does not match its header");
  d.thresh = threshold_table(d.erosion_prob);
  d.cells.resize(cell_count);
  std::memcpy(d.cells.data(), payload.data(), cell_count);
  payload = payload.subspan(cell_count);
  d.frontier.resize(static_cast<std::size_t>(frontier_count));
  // A fully eroded disc migrates with an empty frontier: both memcpy
  // pointers would be null there, and both are declared nonnull.
  if (!d.frontier.empty())
    std::memcpy(d.frontier.data(), payload.data(),
                d.frontier.size() * sizeof(std::int32_t));

  std::int64_t rock = 0;
  std::int64_t on_frontier = 0;
  for (const std::uint8_t c : d.cells) {
    ULBA_REQUIRE(c <= DiscState::kStateMask, "disc cell byte is not a state");
    const auto s = static_cast<Cell>(c);
    rock += static_cast<std::int64_t>(s == Cell::kRockInterior ||
                                      s == Cell::kRockFrontier);
    on_frontier += static_cast<std::int64_t>(s == Cell::kRockFrontier);
  }
  ULBA_REQUIRE(rock == d.rock_remaining,
               "disc rock count does not match its cells");
  ULBA_REQUIRE(on_frontier == frontier_count,
               "disc frontier length does not match its cells");

  // Recount every rock cell's trials; a rock cell is frontier exactly when
  // it has a fluid face.
  for (std::int64_t ly = 0; ly < d.side; ++ly)
    for (std::int64_t lx = 0; lx < d.side; ++lx) {
      const auto idx = static_cast<std::size_t>(ly * d.side + lx);
      const Cell s = d.state(idx);
      if (s != Cell::kRockInterior && s != Cell::kRockFrontier) continue;
      const int trials = fluid_faces(d, lx, ly);
      ULBA_REQUIRE((s == Cell::kRockFrontier) == (trials > 0),
                   "disc rock cell's frontier flag disagrees with its faces");
      d.cells[idx] = cell_byte(s, trials);
    }

  // Each frontier cell is listed exactly once: the entries name distinct
  // frontier cells, and there are as many as the grid holds.
  std::vector<bool> listed(cell_count, false);
  for (const std::int32_t idx : d.frontier) {
    ULBA_REQUIRE(idx >= 0 && static_cast<std::size_t>(idx) < cell_count &&
                     d.state(static_cast<std::size_t>(idx)) ==
                         Cell::kRockFrontier &&
                     !listed[static_cast<std::size_t>(idx)],
                 "disc frontier entry is not a distinct frontier cell");
    listed[static_cast<std::size_t>(idx)] = true;
  }
  return d;
}

}  // namespace ulba::erosion
