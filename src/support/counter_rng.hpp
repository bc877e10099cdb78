// Counter-based random numbers — draws addressable by position.
//
// `Rng` (rng.hpp) is a sequential engine: the value of draw #k depends on
// having advanced through draws #0..k-1, so a parallel stepper drawing from
// it would have to reproduce the serial draw ORDER to stay bit-identical
// across thread/rank counts.
//
// `CounterRng` removes the order dependence entirely: it is a keyed pure
// function from a 128-bit counter to random bits (Philox4x32-10, Salmon et
// al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11). The erosion
// steppers key one instance per (seed, disc) and address each Bernoulli
// draw by (iteration, cell index) — any thread may evaluate any draw at any
// time and always gets the same value, so bit-identity across 1..N threads
// and ranks holds by construction instead of by serialization.
//
// Everything here is branch-free integer arithmetic (two 32x32->64
// multiplies per round, ten rounds), inline in the header: a draw sits on
// the per-frontier-cell hot path of erosion::counter_decide_apply.
//
// Because a draw names its own position, nothing ties one draw to the next,
// and erosion/counter_kernel.cpp takes 16 of them at once: on CPUs with
// AVX-512F each 32-bit lane of a 512-bit register carries one cell's
// counter word, the rounds run on all lanes together (the kM0/kM1
// multiplies as even/odd-lane 32x32->64 products), and every lane's result
// equals draw() at that lane's position — the scalar draw here stays the
// reference the SIMD decide is tested against.
#pragma once

#include <array>
#include <cstdint>

namespace ulba::support {

/// Keyed Philox4x32-10 counter generator. Immutable after construction and
/// trivially copyable — all state is the 64-bit key, every draw names its
/// own 128-bit position (ctr_hi, ctr_lo). Two instances built from the same
/// (seed, stream) are interchangeable.
class CounterRng {
 public:
  /// The Philox4x32-10 constants: round multipliers and the golden-ratio
  /// key schedule (round r uses key + r * (kW0, kW1)). Public so the lane-
  /// parallel decide of erosion/counter_kernel.cpp runs the same rounds.
  static constexpr int kRounds = 10;
  static constexpr std::uint32_t kM0 = 0xD2511F53u;
  static constexpr std::uint32_t kM1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kW0 = 0x9E3779B9u;
  static constexpr std::uint32_t kW1 = 0xBB67AE85u;

  /// Derive the key from (seed, stream) with the SplitMix64 finalizer — the
  /// same recipe Rng::fork uses to split mt19937 seeds, so per-disc streams
  /// are decorrelated the same way in both RNG kinds.
  constexpr CounterRng(std::uint64_t seed, std::uint64_t stream) noexcept {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z = z ^ (z >> 31);
    key_ = {static_cast<std::uint32_t>(z), static_cast<std::uint32_t>(z >> 32)};
  }

  /// The raw Philox4x32-10 block function (Random123-compatible: the
  /// known-answer vectors of its kat_vectors file hold — locked by
  /// test_counter_rng). Exposed for tests and for callers that want all 128
  /// bits of a position.
  [[nodiscard]] static constexpr std::array<std::uint32_t, 4> philox4x32(
      std::array<std::uint32_t, 4> ctr,
      std::array<std::uint32_t, 2> key) noexcept {
    for (int round = 0; round < kRounds; ++round) {
      if (round > 0) {
        key[0] += kW0;
        key[1] += kW1;
      }
      const std::uint64_t p0 = static_cast<std::uint64_t>(kM0) * ctr[0];
      const std::uint64_t p1 = static_cast<std::uint64_t>(kM1) * ctr[2];
      ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
             static_cast<std::uint32_t>(p1),
             static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
             static_cast<std::uint32_t>(p0)};
    }
    return ctr;
  }

  /// 64 random bits at position (ctr_hi, ctr_lo). A pure function of
  /// (key, position): evaluation order, repetition, and the evaluating
  /// thread are all irrelevant.
  [[nodiscard]] constexpr std::uint64_t draw(std::uint64_t ctr_hi,
                                             std::uint64_t ctr_lo)
      const noexcept {
    const std::array<std::uint32_t, 4> block =
        philox4x32({static_cast<std::uint32_t>(ctr_lo),
                    static_cast<std::uint32_t>(ctr_lo >> 32),
                    static_cast<std::uint32_t>(ctr_hi),
                    static_cast<std::uint32_t>(ctr_hi >> 32)},
                   key_);
    return (static_cast<std::uint64_t>(block[1]) << 32) | block[0];
  }

  /// Uniform double on [0, 1) at a position: the top 53 bits of the draw.
  [[nodiscard]] constexpr double uniform01(std::uint64_t ctr_hi,
                                           std::uint64_t ctr_lo)
      const noexcept {
    return static_cast<double>(draw(ctr_hi, ctr_lo) >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p at a position.
  [[nodiscard]] constexpr bool bernoulli(double p, std::uint64_t ctr_hi,
                                         std::uint64_t ctr_lo) const noexcept {
    return uniform01(ctr_hi, ctr_lo) < p;
  }

  /// The derived Philox key (low word, high word) — lets tests assert the
  /// key-derivation recipe stays aligned with Rng::fork.
  [[nodiscard]] constexpr std::array<std::uint32_t, 2> key() const noexcept {
    return key_;
  }

 private:
  std::array<std::uint32_t, 2> key_{};
};

}  // namespace ulba::support
