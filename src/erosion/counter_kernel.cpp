#include "erosion/counter_kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "support/counter_rng.hpp"
#include "support/require.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define ULBA_AVX512_DECIDE 1
#define ULBA_TARGET_AVX512 __attribute__((target("avx512f")))
#endif

namespace ulba::erosion {

namespace {

/// Cells decided together: enough independent Philox draws to fill the
/// pipeline (or exactly one 512-bit register of 32-bit lanes), few enough
/// that the block's thresholds and draws stay in registers / L1.
constexpr std::size_t kBlock = 16;

/// Scalar decide of `cells` and call `erode(pos)` for each eroding
/// position, in order. Per block: look the thresholds up by the trial count
/// in each cell's byte, take the draws addressed by (iteration, cell
/// index), then compare.
template <typename Erode>
void decide_scalar(std::span<const std::uint64_t, kMaxTrials + 1> thresh,
                   std::span<const std::uint8_t> bytes,
                   const support::CounterRng& rng, std::uint64_t iteration,
                   std::span<const std::int32_t> cells, Erode&& erode) {
  std::array<std::uint64_t, kBlock> gate{};
  std::array<std::uint64_t, kBlock> draw{};
  for (std::size_t i = 0; i < cells.size(); i += kBlock) {
    const std::size_t m = std::min(kBlock, cells.size() - i);
    for (std::size_t b = 0; b < m; ++b)
      gate[b] = thresh[static_cast<std::size_t>(
          bytes[cells[i + b]] >> DiscState::kTrialsShift)];
    for (std::size_t b = 0; b < m; ++b)
      draw[b] =
          rng.draw(iteration, static_cast<std::uint64_t>(cells[i + b])) >> 11;
    for (std::size_t b = 0; b < m; ++b)
      if (draw[b] < gate[b]) erode(i + b);
  }
}

#ifdef ULBA_AVX512_DECIDE

// The AVX-512F decide. The plain forms of several intrinsics used here
// (_mm512_mul_epu32, the shifts, _mm512_permutexvar_epi32) pass an
// "undefined" source register that GCC reports as maybe-uninitialized at
// -O3; the all-ones _mm512_maskz_* forms compute the same lanes and do not.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;
constexpr __mmask16 kEven = 0x5555;
constexpr __mmask16 kOdd = 0xAAAA;

/// Both 32-bit halves of the 32x32->64 product m * c in every lane.
/// _mm512_mul_epu32 multiplies the even lanes only, so the odd lanes are
/// copied down for a second multiply; masked shuffles (blends) put each
/// product's halves back in its own lane.
ULBA_TARGET_AVX512 inline void mul_hi_lo(__m512i c, __m512i m, __m512i& hi,
                                         __m512i& lo) {
  const __m512i even = _mm512_maskz_mul_epu32(kAll8, c, m);
  const __m512i odd = _mm512_maskz_mul_epu32(
      kAll8, _mm512_maskz_shuffle_epi32(kAll16, c, _MM_PERM_DDBB), m);
  hi = _mm512_mask_shuffle_epi32(odd, kEven, even, _MM_PERM_DDBB);
  lo = _mm512_mask_shuffle_epi32(even, kOdd, odd, _MM_PERM_CCAA);
}

/// Decide `cells` 16 per pass, one cell per 32-bit lane, and hand each
/// block's verdict to `sink(i, erode_mask, cell_lanes)`. Lane counters are
/// (cell, 0, iteration lo, iteration hi), exactly the scalar draw's; the
/// gate compares draw >> 11 against thresh[trials] as a (hi 21, lo 32)
/// word pair.
template <typename Sink>
ULBA_TARGET_AVX512 void decide_avx512_impl(
    std::span<const std::uint64_t, kMaxTrials + 1> thresh,
    std::span<const std::uint8_t> bytes, const support::CounterRng& rng,
    std::uint64_t iteration, std::span<const std::int32_t> cells,
    Sink&& sink) {
  using support::CounterRng;
  // trials -> gate as two 16-entry permute tables: trials <= 8 index them.
  // p = 1 gives a gate of 2^53, whose hi word 2^21 is above every draw's.
  alignas(64) std::array<std::uint32_t, kBlock> gate_hi{};
  alignas(64) std::array<std::uint32_t, kBlock> gate_lo{};
  for (std::size_t t = 0; t < thresh.size(); ++t) {
    gate_hi[t] = static_cast<std::uint32_t>(thresh[t] >> 32);
    gate_lo[t] = static_cast<std::uint32_t>(thresh[t]);
  }
  const __m512i gate_hi_tbl = _mm512_load_si512(gate_hi.data());
  const __m512i gate_lo_tbl = _mm512_load_si512(gate_lo.data());
  // Round keys, broadcast into the rounds below.
  std::array<int, CounterRng::kRounds> key0{};
  std::array<int, CounterRng::kRounds> key1{};
  std::array<std::uint32_t, 2> key = rng.key();
  for (int r = 0; r < CounterRng::kRounds; ++r) {
    key0[r] = static_cast<int>(key[0]);
    key1[r] = static_cast<int>(key[1]);
    key[0] += CounterRng::kW0;
    key[1] += CounterRng::kW1;
  }
  const __m512i m0 = _mm512_set1_epi32(static_cast<int>(CounterRng::kM0));
  const __m512i m1 = _mm512_set1_epi32(static_cast<int>(CounterRng::kM1));
  const __m512i iter_lo = _mm512_set1_epi32(static_cast<int>(iteration));
  const __m512i iter_hi = _mm512_set1_epi32(static_cast<int>(iteration >> 32));

  // A lane's trials are bits 4–7 of bytes[cell], read as the low byte of
  // a 4-byte gather; lanes whose 4 bytes would run past the end (the last
  // three cells) are read one by one.
  const auto gather_end = static_cast<std::uint32_t>(
      std::min<std::size_t>(bytes.size() < 3 ? 0 : bytes.size() - 3,
                            std::numeric_limits<std::uint32_t>::max()));
  const __m512i gather_end_v = _mm512_set1_epi32(static_cast<int>(gather_end));

  for (std::size_t i = 0; i < cells.size(); i += kBlock) {
    const std::size_t m = std::min(kBlock, cells.size() - i);
    const auto live = static_cast<__mmask16>(kAll16 >> (kBlock - m));
    const __m512i cell = _mm512_maskz_loadu_epi32(live, cells.data() + i);
    const __mmask16 gathered =
        _mm512_mask_cmplt_epu32_mask(live, cell, gather_end_v);
    __m512i t = _mm512_maskz_srli_epi32(
        kAll16,
        _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), gathered, cell,
                                    bytes.data(), 1),
        DiscState::kTrialsShift);  // the permutes read index bits 0–3 only
    for (__mmask16 rest = live & ~gathered; rest != 0; rest &= rest - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(rest));
      const auto cell_b = static_cast<std::size_t>(cells[i + b]);
      t = _mm512_mask_set1_epi32(t, static_cast<__mmask16>(1u << b),
                                 bytes[cell_b] >> DiscState::kTrialsShift);
    }

    __m512i c0 = cell;
    __m512i c1 = _mm512_setzero_si512();
    __m512i c2 = iter_lo;
    __m512i c3 = iter_hi;
    for (int r = 0; r < CounterRng::kRounds; ++r) {
      __m512i hi0, lo0, hi1, lo1;
      mul_hi_lo(c0, m0, hi0, lo0);
      mul_hi_lo(c2, m1, hi1, lo1);
      c0 = _mm512_ternarylogic_epi32(hi1, c1, _mm512_set1_epi32(key0[r]),
                                     0x96);  // a ^ b ^ c
      c1 = lo1;
      c2 = _mm512_ternarylogic_epi32(hi0, c3, _mm512_set1_epi32(key1[r]),
                                     0x96);
      c3 = lo0;
    }

    // draw = c1:c0, so draw >> 11 = (c1 >> 11 : c1 << 21 | c0 >> 11).
    const __m512i draw_hi = _mm512_maskz_srli_epi32(kAll16, c1, 11);
    const __m512i draw_lo =
        _mm512_or_si512(_mm512_maskz_slli_epi32(kAll16, c1, 21),
                        _mm512_maskz_srli_epi32(kAll16, c0, 11));
    const __m512i g_hi = _mm512_maskz_permutexvar_epi32(kAll16, t, gate_hi_tbl);
    const __m512i g_lo = _mm512_maskz_permutexvar_epi32(kAll16, t, gate_lo_tbl);
    const __mmask16 hi_eq = _mm512_mask_cmpeq_epu32_mask(live, draw_hi, g_hi);
    const __mmask16 erode =
        _mm512_mask_cmplt_epu32_mask(live, draw_hi, g_hi) |
        _mm512_mask_cmplt_epu32_mask(hi_eq, draw_lo, g_lo);
    sink(i, erode, cell);
  }
  sink.finish();
}

/// Serial-path sink: compress each block's eroding cells to the front of
/// a register and store all 16 lanes at the fill mark of a stack buffer;
/// the buffer is appended to the disc's erode list when it could overflow
/// and at the end. No buffer grows with the frontier.
struct AppendEroded {
  static constexpr std::size_t kCapacity = 256;
  std::vector<std::int32_t>& out;
  std::size_t fill = 0;
  alignas(64) std::array<std::int32_t, kCapacity + kBlock> buffer{};

  ULBA_TARGET_AVX512 void operator()(std::size_t /*i*/, __mmask16 erode,
                                     __m512i cell) {
    _mm512_storeu_si512(buffer.data() + fill,
                        _mm512_maskz_compress_epi32(erode, cell));
    fill += static_cast<std::size_t>(std::popcount(erode));
    if (fill > kCapacity) finish();
  }
  /// Appends cell by cell: push_back keeps the list's doubling growth,
  /// where a range insert grew it to size + max(size, n) and measurably
  /// raised the peak RSS of a paper-scale run.
  void finish() {
    for (std::size_t j = 0; j < fill; ++j) out.push_back(buffer[j]);
    fill = 0;
  }
};

/// Pooled-path sink: a 1 at each eroding position. The masked byte store
/// writes only the eroding lanes, so chunks sharing a 16-byte span never
/// write each other's bytes.
struct FlagEroded {
  std::uint8_t* flags;
  ULBA_TARGET_AVX512 void operator()(std::size_t i, __mmask16 erode,
                                     __m512i /*cell*/) const {
    _mm512_mask_cvtepi32_storeu_epi8(flags + i, erode, _mm512_set1_epi32(1));
  }
  void finish() {}
};

#endif  // ULBA_AVX512_DECIDE

/// Pooled-path decide: flags[pos] = 1 for each eroding position of `cells`,
/// through the same dispatch as decide_cells.
void flag_cells(const DiscState& d, const support::CounterRng& rng,
                std::uint64_t iteration, std::span<const std::int32_t> cells,
                std::uint8_t* flags) {
#ifdef ULBA_AVX512_DECIDE
  if (avx512_decide_supported()) {
    FlagEroded sink{flags};
    decide_avx512_impl(d.thresh, d.cells, rng, iteration, cells, sink);
    return;
  }
#endif
  decide_scalar(d.thresh, d.cells, rng, iteration, cells,
                [&](std::size_t pos) { flags[pos] = 1; });
}

/// Decide flags for the flat positions [begin, end) of the discs' frontiers
/// laid back to back: walk the discs whose frontiers overlap the range (the
/// offsets locate the first) and decide each overlap straight off
/// discs[k].frontier. Writes only flags[begin..end), so concurrent chunks
/// never touch the same byte.
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
    flag_cells(discs[k], rng, iteration,
               std::span<const std::int32_t>(discs[k].frontier)
                   .subspan(j - ws.offsets[k], stop - j),
               ws.flags.data() + j);
    j = stop;
  }
}

}  // namespace

bool avx512_decide_supported() {
#ifdef ULBA_AVX512_DECIDE
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

void decide_cells_scalar(std::span<const std::uint64_t, kMaxTrials + 1> thresh,
                         std::span<const std::uint8_t> bytes,
                         const support::CounterRng& rng,
                         std::uint64_t iteration,
                         std::span<const std::int32_t> cells,
                         std::vector<std::int32_t>& out) {
  decide_scalar(thresh, bytes, rng, iteration, cells,
                [&](std::size_t pos) { out.push_back(cells[pos]); });
}

void decide_cells_avx512(
    [[maybe_unused]] std::span<const std::uint64_t, kMaxTrials + 1> thresh,
    [[maybe_unused]] std::span<const std::uint8_t> bytes,
    [[maybe_unused]] const support::CounterRng& rng,
    [[maybe_unused]] std::uint64_t iteration,
    [[maybe_unused]] std::span<const std::int32_t> cells,
    [[maybe_unused]] std::vector<std::int32_t>& out) {
  ULBA_REQUIRE(avx512_decide_supported(),
               "the AVX-512 decide needs a CPU with avx512f");
#ifdef ULBA_AVX512_DECIDE
  AppendEroded sink{out};
  decide_avx512_impl(thresh, bytes, rng, iteration, cells, sink);
#endif
}

void decide_cells(std::span<const std::uint64_t, kMaxTrials + 1> thresh,
                  std::span<const std::uint8_t> bytes,
                  const support::CounterRng& rng, std::uint64_t iteration,
                  std::span<const std::int32_t> cells,
                  std::vector<std::int32_t>& out) {
  if (avx512_decide_supported())
    decide_cells_avx512(thresh, bytes, rng, iteration, cells, out);
  else
    decide_cells_scalar(thresh, bytes, rng, iteration, cells, out);
}

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

  // Serial path — decide straight off each disc's frontier into its erode
  // list. The draws are position-addressed, so this produces exactly the
  // bits the chunked path below produces.
  if (threads <= 1 || total < 2048) {
    std::int64_t eroded = 0;
    for (std::size_t k = 0; k < n; ++k) {
      DiscState& d = discs[k];
      std::vector<std::int32_t>& out = ws.erode[k];
      out.clear();
      const support::CounterRng rng(seed,
                                    static_cast<std::uint64_t>(disc_ids[k]));
      decide_cells(d.thresh, d.cells, rng, iter, d.frontier, out);
      apply_disc(d, out);
      eroded += static_cast<std::int64_t>(out.size());
    }
    return eroded;
  }

  // Phase A — the flat order is the pre-step frontiers back to back; only
  // its per-disc offsets are built, from the frontier sizes.
  ws.offsets.assign(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k)
    ws.offsets[k + 1] = ws.offsets[k] + discs[k].frontier.size();
  ws.flags.assign(total, 0);

  // Phase B — batched Bernoulli decisions over the flat order, in a few
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
    const std::vector<std::int32_t>& frontier = discs[k].frontier;
    const std::uint8_t* flags = ws.flags.data() + ws.offsets[k];
    for (std::size_t j = 0; j < frontier.size(); ++j)
      if (flags[j] != 0) out.push_back(frontier[j]);
    apply_disc(discs[k], out);
  });

  std::int64_t eroded = 0;
  for (const auto& e : ws.erode) eroded += static_cast<std::int64_t>(e.size());
  return eroded;
}

}  // namespace ulba::erosion
