#include "support/rng.hpp"

#include <numeric>
#include <utility>

namespace ulba::support {

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  ULBA_REQUIRE(k <= n, "cannot sample more elements than the population");
  // Partial Fisher–Yates over a virtual identity array of n slots. Slots
  // [0, k) are the front of `out`; a slot at or beyond k is stored behind
  // them, as a (slot, value) pair, only once a swap displaces its identity
  // value. The draws and picks match the dense shuffle exactly, in one
  // O(k) allocation. The pair search is linear: callers draw a handful.
  std::vector<std::size_t> out(3 * k);
  std::iota(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k),
            std::size_t{0});
  std::size_t* const pairs = out.data() + k;
  std::size_t displaced = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::size_t* slot_j = nullptr;  // where slot j's value lives
    if (j < k) {
      slot_j = &out[j];
    } else {
      std::size_t d = 0;
      while (d < displaced && pairs[2 * d] != j) ++d;
      if (d == displaced) {
        pairs[2 * d] = j;
        pairs[2 * d + 1] = j;
        ++displaced;
      }
      slot_j = &pairs[2 * d + 1];
    }
    std::swap(out[i], *slot_j);
  }
  out.resize(k);
  return out;
}

}  // namespace ulba::support
