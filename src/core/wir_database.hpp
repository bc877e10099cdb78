// The per-PE workload-increase-rate (WIR) database — paper §III-C.
//
// "each PE keeps a database that stores the WIR of every PE. Each PE
//  evaluates its WIR and propagates it (as well as the most recent WIRs in
//  its database) to the other PEs using a dissemination algorithm."
//
// A database holds, for every PE, the most recent WIR observation it has
// heard of, stamped with the iteration at which that observation was made.
// Merging two databases keeps the fresher entry per PE — exactly the rumor-
// mongering merge of epidemic/gossip protocols (Demers et al.). The principle
// of persistence makes slightly stale entries acceptable.
//
// Storage is structure-of-arrays: a `double` WIR plus an `int32` stamp per
// PE, 12 bytes per entry. Stamps above INT32_MAX are rejected rather than
// wrapped. This is the standalone database, the value a
// `GossipNetwork::database` read returns, and the reference the network's
// tests compare against; the network does not hold P of these. Since one
// (PE, stamp) pair has one WIR, the network stores only the int32 stamp per
// entry (4 bytes) plus each PE's WIRs once, and rejects a conflicting
// re-observation (see gossip.hpp). `update` here stays permissive: a
// same-stamp update overwrites.
#pragma once

#include <cstdint>
#include <vector>

namespace ulba::core {

class WirDatabase {
 public:
  /// One observation: a PE's WIR measured at some iteration.
  struct Entry {
    double wir = 0.0;
    std::int64_t iteration = kUnknown;  ///< when it was measured

    [[nodiscard]] bool known() const noexcept { return iteration != kUnknown; }
  };

  static constexpr std::int64_t kUnknown = -1;

  explicit WirDatabase(std::int64_t pe_count);

  [[nodiscard]] std::int64_t pe_count() const noexcept {
    return static_cast<std::int64_t>(stamps_.size());
  }

  /// Record a locally measured WIR for `pe` at `iteration` (in
  /// [0, INT32_MAX]). Overwrites only if at least as fresh as the stored
  /// entry.
  void update(std::int64_t pe, double wir, std::int64_t iteration);

  [[nodiscard]] Entry entry(std::int64_t pe) const;

  /// Epidemic merge: adopt every entry of `other` that is strictly fresher
  /// than ours. Returns the number of entries adopted.
  std::size_t merge_from(const WirDatabase& other);

  /// All WIR values, with 0.0 for still-unknown PEs — the distribution the
  /// z-score overload detector runs on.
  [[nodiscard]] std::vector<double> wirs() const { return wirs_; }

  /// Number of PEs whose WIR is still unknown.
  [[nodiscard]] std::int64_t unknown_count() const noexcept;

  /// Age (in iterations) of the stalest known entry relative to `now`;
  /// returns `now + 1` when some entry is still unknown.
  [[nodiscard]] std::int64_t max_staleness(std::int64_t now) const noexcept;

 private:
  friend class GossipNetwork;  // gathers snapshots straight into the arrays

  std::vector<double> wirs_;          ///< 0.0 while the entry is unknown
  std::vector<std::int32_t> stamps_;  ///< kUnknown until first observed
};

}  // namespace ulba::core
