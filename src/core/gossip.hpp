// Push-gossip dissemination of the WIR databases — paper §III-C.
//
// "one dissemination step is done at each iteration to mitigate the overhead
//  due to the WIR communication"
//
// Every round, each PE pushes its whole database to `fanout` uniformly chosen
// peers, which epidemically merge it. With fanout f, a fresh rumor reaches
// all P PEs in O(log_{f+1} P) rounds w.h.p. — the classic epidemic result
// (Demers et al. 1987), which the property tests verify empirically.
//
// Layout. A (PE, stamp) pair has exactly one WIR, so a database only needs
// to know WHICH observation of each PE it holds, not the value: the network
// stores the P databases as one contiguous P×P matrix of int32 stamps (row
// r is PE r's database, 4 bytes per entry), and each PE's WIR values once,
// in a per-PE observation log sorted by stamp. A merge is then the
// elementwise `max` of two stamp rows, which the compiler vectorizes with
// baseline SSE2. Reading a database gathers its row through the logs. The
// stamps a row holds are almost always among their PEs' newest, so a
// direct-mapped cache of each PE's observations by `stamp mod 32` answers
// nearly every lookup with one load; the sorted log answers the rest.
//
// The one-WIR-per-(PE, stamp) contract is enforced: an observation that
// some database takes in must agree with the WIR already logged for that
// (PE, stamp), or it is rejected with std::invalid_argument.
//
// Reclamation. Stamps only grow, so a log entry older than the oldest stamp
// any database holds for that PE can never be read again. Every 16 rounds
// one scan of the matrix finds those floors and drops the dead entries (an
// oracle observation, which visits every database anyway, trims its PE's
// log at once), so memory stays O(P² + P · staleness) however many
// iterations run.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/wir_database.hpp"
#include "support/rng.hpp"

namespace ulba::core {

class GossipNetwork {
 public:
  /// A network of `pe_count` databases, all initially empty.
  GossipNetwork(std::int64_t pe_count, std::int64_t fanout);

  [[nodiscard]] std::int64_t pe_count() const noexcept { return pe_count_; }
  [[nodiscard]] std::int64_t fanout() const noexcept { return fanout_; }

  /// Snapshot of PE `pe`'s database, gathered from its stamp row and the
  /// observation logs.
  [[nodiscard]] WirDatabase database(std::int64_t pe) const;

  /// Record PE `pe`'s own WIR measurement at `iteration` (in
  /// [0, INT32_MAX]) into its local database (what Algorithm 1 does before
  /// disseminating). A stamp older than the one the database holds is
  /// ignored; repeating the held stamp must repeat its WIR.
  void observe_local(std::int64_t pe, double wir, std::int64_t iteration);

  /// Centralized-oracle dissemination: record PE `pe`'s measurement into
  /// EVERY database at once, as if a zero-cost broadcast completed instantly.
  /// The gossip-ablation scenarios use this as the staleness-free reference
  /// that `step`-based epidemic dissemination is measured against. Each
  /// database takes the observation in unless it holds a fresher one; if any
  /// does take it in, a WIR already logged for (pe, iteration) must match.
  void observe_oracle(std::int64_t pe, double wir, std::int64_t iteration);

  /// One dissemination round: every PE pushes its database to `fanout`
  /// distinct random peers (≠ itself). Target selection draws from `rng`;
  /// every push carries the state its source had when the round began, so
  /// the round is order-independent (a bulk-synchronous exchange, as on a
  /// real machine where all sends happen before any receive of the same
  /// superstep). The pre-round state is kept copy-on-write: a row is saved
  /// into a reused spare row only when it is written before its own push
  /// turn, and the spare is released once it has pushed.
  void step(support::Rng& rng);

  /// Rounds taken until every database knows every PE (useful for the gossip
  /// ablation); runs on a copy, leaves the network untouched.
  [[nodiscard]] std::int64_t rounds_to_full_knowledge(support::Rng rng) const;

  /// Observations the logs currently retain, summed over all PEs.
  [[nodiscard]] std::size_t retained_observations() const noexcept;

 private:
  struct Observation {
    std::int32_t stamp;
    double wir;
  };
  static constexpr auto kNotSaved = std::numeric_limits<std::size_t>::max();
  static constexpr std::int64_t kReclaimPeriod = 16;
  static constexpr std::size_t kRecent = 32;  ///< cache slots per PE

  [[nodiscard]] std::int32_t* row(std::size_t pe) noexcept {
    return stamps_.data() + pe * static_cast<std::size_t>(pe_count_);
  }
  [[nodiscard]] const std::int32_t* row(std::size_t pe) const noexcept {
    return stamps_.data() + pe * static_cast<std::size_t>(pe_count_);
  }
  /// The WIR PE `pe` measured at `stamp`, which some database holds.
  [[nodiscard]] double logged_wir(std::size_t pe,
                                  std::int32_t stamp) const noexcept;
  /// Log (pe, stamp, wir), or check it against the WIR already logged.
  void record(std::size_t pe, std::int32_t stamp, double wir);
  /// The saved pre-round row of PE `pe` if it has one, else its live row.
  [[nodiscard]] const std::int32_t* pushed_row(std::size_t pe) const noexcept;
  void save_row(std::size_t pe);
  /// Drop PE `pe`'s log entries older than `oldest` (unsigned stamp order).
  void drop_before(std::size_t pe, std::uint32_t oldest);
  /// Drop every log entry that no database holds any more.
  void reclaim();

  std::int64_t pe_count_;
  std::int64_t fanout_;
  std::vector<std::int32_t> stamps_;  ///< P×P; WirDatabase::kUnknown = none
  std::vector<std::vector<Observation>> logs_;  ///< per PE, stamps ascending
  /// P×kRecent cache of logged observations, slot `stamp mod kRecent`; a
  /// slot keeps the newest stamp written to it.
  std::vector<Observation> recent_;
  std::int64_t rounds_ = 0;

  // Reused across rounds, so a round allocates nothing once warm.
  std::vector<std::int32_t> spare_;     ///< saved pre-round rows
  std::vector<std::size_t> saved_at_;   ///< per PE: offset in spare_ or
                                        ///< kNotSaved
  std::vector<std::size_t> free_rows_;  ///< offsets of unused spare rows
  std::vector<std::uint32_t> floor_;    ///< reclaim: oldest held stamps
};

}  // namespace ulba::core
