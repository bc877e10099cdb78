// Push-gossip dissemination of the WIR databases — paper §III-C.
//
// "one dissemination step is done at each iteration to mitigate the overhead
//  due to the WIR communication"
//
// Every round, each PE pushes its whole database to `fanout` uniformly chosen
// peers, which epidemically merge it. With fanout f, a fresh rumor reaches
// all P PEs in O(log_{f+1} P) rounds w.h.p. — the classic epidemic result
// (Demers et al. 1987), which the property tests verify empirically.
#pragma once

#include <cstdint>
#include <vector>

#include "core/wir_database.hpp"
#include "support/rng.hpp"

namespace ulba::core {

class GossipNetwork {
 public:
  /// A network of `pe_count` databases, all initially empty.
  GossipNetwork(std::int64_t pe_count, std::int64_t fanout);

  [[nodiscard]] std::int64_t pe_count() const noexcept {
    return static_cast<std::int64_t>(dbs_.size());
  }
  [[nodiscard]] std::int64_t fanout() const noexcept { return fanout_; }

  [[nodiscard]] WirDatabase& database(std::int64_t pe);
  [[nodiscard]] const WirDatabase& database(std::int64_t pe) const;

  /// Record PE `pe`'s own WIR measurement at `iteration` into its local
  /// database (what Algorithm 1 does before disseminating).
  void observe_local(std::int64_t pe, double wir, std::int64_t iteration);

  /// Centralized-oracle dissemination: record PE `pe`'s measurement into
  /// EVERY database at once, as if a zero-cost broadcast completed instantly.
  /// The gossip-ablation scenarios use this as the staleness-free reference
  /// that `step`-based epidemic dissemination is measured against.
  void observe_oracle(std::int64_t pe, double wir, std::int64_t iteration);

  /// One dissemination round: every PE pushes its database to `fanout`
  /// distinct random peers (≠ itself). Target selection draws from `rng`;
  /// every push carries the state its source had when the round began, so
  /// the round is order-independent (a bulk-synchronous exchange, as on a
  /// real machine where all sends happen before any receive of the same
  /// superstep). The pre-round state is kept copy-on-write: a database is
  /// saved only when it is written before its own push turn, and the copy
  /// is dropped once it has pushed — a round copies a fraction of the P
  /// databases, not all of them.
  void step(support::Rng& rng);

  /// Rounds taken until every database knows every PE (useful for the gossip
  /// ablation); runs on a copy, leaves the network untouched.
  [[nodiscard]] std::int64_t rounds_to_full_knowledge(support::Rng rng) const;

 private:
  std::vector<WirDatabase> dbs_;
  std::int64_t fanout_;
};

}  // namespace ulba::core
