// WIR database freshness semantics and epidemic dissemination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "core/gossip.hpp"
#include "core/wir_database.hpp"

namespace ulba::core {
namespace {

TEST(WirDatabase, StartsUnknown) {
  const WirDatabase db(4);
  EXPECT_EQ(db.pe_count(), 4);
  EXPECT_EQ(db.unknown_count(), 4);
  EXPECT_FALSE(db.entry(0).known());
  EXPECT_EQ(db.wirs(), (std::vector<double>{0.0, 0.0, 0.0, 0.0}));
}

TEST(WirDatabase, UpdateAndRead) {
  WirDatabase db(3);
  db.update(1, 42.0, 7);
  EXPECT_TRUE(db.entry(1).known());
  EXPECT_DOUBLE_EQ(db.entry(1).wir, 42.0);
  EXPECT_EQ(db.entry(1).iteration, 7);
  EXPECT_EQ(db.unknown_count(), 2);
}

TEST(WirDatabase, StaleUpdateIsIgnored) {
  WirDatabase db(2);
  db.update(0, 10.0, 5);
  db.update(0, 99.0, 3);  // older measurement
  EXPECT_DOUBLE_EQ(db.entry(0).wir, 10.0);
  db.update(0, 20.0, 5);  // same-age refresh wins
  EXPECT_DOUBLE_EQ(db.entry(0).wir, 20.0);
}

TEST(WirDatabase, MergeKeepsFreshest) {
  WirDatabase a(3), b(3);
  a.update(0, 1.0, 10);
  a.update(1, 2.0, 3);
  b.update(1, 5.0, 8);
  b.update(2, 6.0, 1);
  const std::size_t adopted = a.merge_from(b);
  EXPECT_EQ(adopted, 2u);  // entries 1 and 2
  EXPECT_DOUBLE_EQ(a.entry(0).wir, 1.0);
  EXPECT_DOUBLE_EQ(a.entry(1).wir, 5.0);
  EXPECT_DOUBLE_EQ(a.entry(2).wir, 6.0);
}

TEST(WirDatabase, MergeIsIdempotent) {
  WirDatabase a(2), b(2);
  b.update(0, 4.0, 2);
  (void)a.merge_from(b);
  EXPECT_EQ(a.merge_from(b), 0u);
}

TEST(WirDatabase, MergeRejectsSizeMismatch) {
  WirDatabase a(2);
  const WirDatabase b(3);
  EXPECT_THROW((void)a.merge_from(b), std::invalid_argument);
}

TEST(WirDatabase, StalenessTracking) {
  WirDatabase db(2);
  db.update(0, 1.0, 4);
  EXPECT_EQ(db.max_staleness(10), 11);  // PE 1 unknown ⇒ now + 1
  db.update(1, 1.0, 9);
  EXPECT_EQ(db.max_staleness(10), 6);  // PE 0 is 6 iterations old
}

TEST(WirDatabase, RejectsStampsBeyondInt32) {
  // Stamps are stored as int32: the largest one is accepted, the next is
  // refused instead of wrapping to a negative (i.e. "unknown") stamp.
  WirDatabase db(2);
  const std::int64_t largest = std::numeric_limits<std::int32_t>::max();
  db.update(0, 1.0, largest);
  EXPECT_EQ(db.entry(0).iteration, largest);
  EXPECT_THROW(db.update(1, 1.0, largest + 1), std::invalid_argument);
  EXPECT_FALSE(db.entry(1).known());
}

TEST(WirDatabase, BoundsChecked) {
  WirDatabase db(2);
  EXPECT_THROW(db.update(2, 1.0, 0), std::invalid_argument);
  EXPECT_THROW((void)db.entry(-1), std::invalid_argument);
  EXPECT_THROW(db.update(0, 1.0, -3), std::invalid_argument);
  EXPECT_THROW(WirDatabase(0), std::invalid_argument);
}

TEST(Gossip, ConstructionChecks) {
  EXPECT_THROW(GossipNetwork(-1, 1), std::invalid_argument);
  EXPECT_THROW(GossipNetwork(1, 1), std::invalid_argument);
  EXPECT_THROW(GossipNetwork(4, 0), std::invalid_argument);
  EXPECT_THROW(GossipNetwork(4, 4), std::invalid_argument);
  EXPECT_NO_THROW(GossipNetwork(4, 3));
}

TEST(Gossip, ObserveLocalLandsInOwnDatabase) {
  GossipNetwork net(4, 1);
  net.observe_local(2, 7.5, 0);
  EXPECT_DOUBLE_EQ(net.database(2).entry(2).wir, 7.5);
  EXPECT_EQ(net.database(0).unknown_count(), 4);
}

TEST(Gossip, OneStepSpreadsToFanoutPeers) {
  GossipNetwork net(8, 2);
  net.observe_local(0, 1.0, 0);
  support::Rng rng(1);
  net.step(rng);
  int informed = 0;
  for (std::int64_t pe = 0; pe < 8; ++pe)
    if (net.database(pe).entry(0).known()) ++informed;
  // The origin plus at most fanout new peers (snapshot semantics: one round
  // cannot relay).
  EXPECT_GE(informed, 2);
  EXPECT_LE(informed, 3);
}

TEST(Gossip, EventuallyEveryoneKnowsEverything) {
  GossipNetwork net(16, 2);
  for (std::int64_t pe = 0; pe < 16; ++pe)
    net.observe_local(pe, static_cast<double>(pe), 0);
  support::Rng rng(2);
  for (int round = 0; round < 64 && [&] {
         for (std::int64_t pe = 0; pe < 16; ++pe)
           if (net.database(pe).unknown_count() > 0) return true;
         return false;
       }();
       ++round) {
    net.step(rng);
  }
  for (std::int64_t pe = 0; pe < 16; ++pe) {
    EXPECT_EQ(net.database(pe).unknown_count(), 0) << "PE " << pe;
    for (std::int64_t src = 0; src < 16; ++src)
      EXPECT_DOUBLE_EQ(net.database(pe).entry(src).wir,
                       static_cast<double>(src));
  }
}

TEST(Gossip, RoundsToFullKnowledgeIsLogarithmicish) {
  // Epidemic dissemination reaches everyone in O(log P) rounds w.h.p.
  // Allow a generous constant: ≤ 4·log2(P) + 8 for fanout 2.
  for (std::int64_t pe_count : {8, 32, 128}) {
    GossipNetwork net(pe_count, 2);
    for (std::int64_t pe = 0; pe < pe_count; ++pe)
      net.observe_local(pe, 1.0, 0);
    const auto rounds = net.rounds_to_full_knowledge(support::Rng(3));
    const double limit = 4.0 * std::log2(static_cast<double>(pe_count)) + 8.0;
    EXPECT_LE(static_cast<double>(rounds), limit) << "P = " << pe_count;
    EXPECT_GE(rounds, 1);
  }
}

TEST(Gossip, RoundsToFullKnowledgeThrowsWithoutObservations) {
  const GossipNetwork net(4, 1);  // nobody ever observed anything
  EXPECT_THROW((void)net.rounds_to_full_knowledge(support::Rng(4)),
               std::invalid_argument);
}

TEST(Gossip, DeterministicForFixedSeed) {
  // After one round, which entries each PE knows depends only on the seed:
  // same seed ⇒ same knowledge pattern; different seed ⇒ (almost surely)
  // different pattern. Values converge to the same fixed point either way,
  // so the comparison must look at the knowledge mask, not the values.
  const auto run = [](std::uint64_t seed) {
    GossipNetwork net(12, 2);
    for (std::int64_t pe = 0; pe < 12; ++pe)
      net.observe_local(pe, static_cast<double>(pe * pe), 0);
    support::Rng rng(seed);
    net.step(rng);
    std::vector<bool> known;
    for (std::int64_t pe = 0; pe < 12; ++pe)
      for (std::int64_t src = 0; src < 12; ++src)
        known.push_back(net.database(pe).entry(src).known());
    return known;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Gossip, RandomizedConvergenceWithinSmoothingImpliedBound) {
  // Every PE's WIR evolves by the app's EMA, w(t) = s·target + (1−s)·w(t−1)
  // from w(−1) = 0, so w(t) = target·(1 − (1−s)^(t+1)). Gossip delivers a
  // snapshot that is `lag` iterations stale; the EMA contraction implies
  //   |w(now) − w(now−lag)| = target·(1−s)^(now−lag+1)·(1 − (1−s)^lag)
  //                         ≤ target·(1−s)^(now−lag+1).
  // After enough rounds every estimate must sit inside that bound of the
  // centralized (fresh) value — the quantitative version of the paper's
  // "principle of persistence". Randomized over PE counts, fanouts,
  // smoothing factors, and seeds.
  support::Rng meta(99);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t pe_count = meta.uniform_int(4, 64);
    const std::int64_t fanout =
        meta.uniform_int(1, std::min<std::int64_t>(4, pe_count - 1));
    const double s = meta.uniform(0.2, 1.0);
    GossipNetwork net(pe_count, fanout);
    std::vector<double> w(static_cast<std::size_t>(pe_count), 0.0);
    std::vector<double> target(static_cast<std::size_t>(pe_count));
    for (auto& t : target) t = meta.uniform(0.5, 10.0);
    support::Rng rng(meta());

    const std::int64_t rounds =
        4 * static_cast<std::int64_t>(
                std::log2(static_cast<double>(pe_count))) +
        20;
    for (std::int64_t t = 0; t < rounds; ++t) {
      for (std::int64_t pe = 0; pe < pe_count; ++pe) {
        const auto i = static_cast<std::size_t>(pe);
        w[i] = s * target[i] + (1.0 - s) * w[i];
        net.observe_local(pe, w[i], t);
      }
      net.step(rng);
    }

    const std::int64_t now = rounds - 1;
    for (std::int64_t pe = 0; pe < pe_count; ++pe) {
      for (std::int64_t src = 0; src < pe_count; ++src) {
        const WirDatabase::Entry& e = net.database(pe).entry(src);
        ASSERT_TRUE(e.known())
            << "P=" << pe_count << " f=" << fanout << " pe=" << pe
            << " src=" << src;
        const std::int64_t lag = now - e.iteration;
        ASSERT_GE(lag, 0);
        const double bound =
            target[static_cast<std::size_t>(src)] *
                std::pow(1.0 - s, static_cast<double>(now - lag + 1)) +
            1e-12;
        EXPECT_LE(std::abs(w[static_cast<std::size_t>(src)] - e.wir), bound)
            << "P=" << pe_count << " f=" << fanout << " s=" << s
            << " lag=" << lag;
      }
    }
  }
}

TEST(Gossip, RandomizedStalenessStaysLogarithmicish) {
  // After the warm-up, no entry should be older than a generous multiple of
  // the epidemic dissemination time O(log_{f+1} P).
  support::Rng meta(123);
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t pe_count = meta.uniform_int(8, 96);
    const std::int64_t fanout =
        meta.uniform_int(1, std::min<std::int64_t>(3, pe_count - 1));
    GossipNetwork net(pe_count, fanout);
    support::Rng rng(meta());
    const std::int64_t rounds =
        6 * static_cast<std::int64_t>(
                std::log2(static_cast<double>(pe_count))) +
        24;
    for (std::int64_t t = 0; t < rounds; ++t) {
      for (std::int64_t pe = 0; pe < pe_count; ++pe)
        net.observe_local(pe, 1.0, t);
      net.step(rng);
    }
    const double limit =
        8.0 * std::log2(static_cast<double>(pe_count)) /
            std::log2(static_cast<double>(fanout + 1)) +
        16.0;
    for (std::int64_t pe = 0; pe < pe_count; ++pe) {
      EXPECT_LE(static_cast<double>(net.database(pe).max_staleness(rounds - 1)),
                limit)
          << "P=" << pe_count << " f=" << fanout << " pe=" << pe;
    }
  }
}

TEST(Gossip, OracleObservationReachesEveryDatabaseInstantly) {
  GossipNetwork net(8, 1);
  net.observe_oracle(3, 4.5, 2);
  for (std::int64_t pe = 0; pe < 8; ++pe) {
    EXPECT_TRUE(net.database(pe).entry(3).known()) << "PE " << pe;
    EXPECT_DOUBLE_EQ(net.database(pe).entry(3).wir, 4.5);
    EXPECT_EQ(net.database(pe).entry(3).iteration, 2);
  }
  EXPECT_THROW(net.observe_oracle(8, 1.0, 0), std::invalid_argument);
}

TEST(Gossip, ConflictingReobservationIsRejected) {
  // One (PE, stamp) pair has one WIR: repeating it is fine, changing it is
  // refused (and leaves the network as it was), a stale stamp is ignored.
  GossipNetwork net(4, 1);
  net.observe_local(1, 2.0, 5);
  EXPECT_NO_THROW(net.observe_local(1, 2.0, 5));
  EXPECT_THROW(net.observe_local(1, 3.0, 5), std::invalid_argument);
  EXPECT_NO_THROW(net.observe_local(1, 9.0, 4));
  EXPECT_DOUBLE_EQ(net.database(1).entry(1).wir, 2.0);
  EXPECT_EQ(net.database(1).entry(1).iteration, 5);
  // The oracle takes (1, 5) into the databases that lack it, so it must
  // agree with PE 1's local observation.
  EXPECT_THROW(net.observe_oracle(1, 3.0, 5), std::invalid_argument);
  EXPECT_FALSE(net.database(0).entry(1).known());

  net.observe_oracle(2, 1.5, 3);
  EXPECT_NO_THROW(net.observe_oracle(2, 1.5, 3));
  EXPECT_THROW(net.observe_oracle(2, 4.0, 3), std::invalid_argument);
  EXPECT_THROW(net.observe_local(2, 4.0, 3), std::invalid_argument);
  net.observe_oracle(2, 1.0, 6);
  EXPECT_NO_THROW(net.observe_oracle(2, 7.0, 3));
  EXPECT_NO_THROW(net.observe_local(2, 7.0, 3));
  for (std::int64_t pe = 0; pe < 4; ++pe) {
    EXPECT_DOUBLE_EQ(net.database(pe).entry(2).wir, 1.0) << "PE " << pe;
    EXPECT_EQ(net.database(pe).entry(2).iteration, 6) << "PE " << pe;
  }
}

TEST(Gossip, RetainedLogStaysBoundedOver10000Rounds) {
  // Each round observes every PE at a fresh stamp, as the app does; without
  // reclamation the logs would hold P · rounds = 160000 observations.
  constexpr std::int64_t kPes = 16;
  GossipNetwork net(kPes, 1);
  support::Rng rng(11);
  std::size_t most = 0;
  for (std::int64_t t = 0; t < 10000; ++t) {
    for (std::int64_t pe = 0; pe < kPes; ++pe)
      net.observe_local(pe, static_cast<double>((t + pe) % 7), t);
    net.step(rng);
    most = std::max(most, net.retained_observations());
  }
  EXPECT_LE(most, static_cast<std::size_t>(kPes * 128));
  EXPECT_GE(net.retained_observations(), static_cast<std::size_t>(kPes));
  for (std::int64_t pe = 0; pe < kPes; ++pe) {
    const WirDatabase db = net.database(pe);
    for (std::int64_t src = 0; src < kPes; ++src)
      EXPECT_DOUBLE_EQ(db.entry(src).wir,
                       static_cast<double>((db.entry(src).iteration + src) % 7))
          << "pe=" << pe << " src=" << src;
  }
}

TEST(Gossip, StaleEntriesKeepTheirOwnWir) {
  // Databases that still hold PE 0's stamp-0 observation must read its WIR
  // after PE 0 logged 100 newer ones: past the per-PE cache of recent
  // stamps (whose slot for stamp 0 now holds stamp 96) and across the
  // reclamation that runs in round 16.
  GossipNetwork net(4, 1);
  net.observe_oracle(0, 0.5, 0);
  support::Rng rng(13);
  for (int round = 0; round < 15; ++round) net.step(rng);
  for (std::int64_t t = 1; t <= 100; ++t)
    net.observe_local(0, 0.5 + static_cast<double>(t), t);
  net.step(rng);  // PE 0 reaches one peer; two still hold stamp 0
  int stale = 0;
  for (std::int64_t pe = 0; pe < 4; ++pe) {
    const WirDatabase::Entry e = net.database(pe).entry(0);
    EXPECT_TRUE(e.iteration == 0 || e.iteration == 100) << "PE " << pe;
    EXPECT_DOUBLE_EQ(e.wir, 0.5 + static_cast<double>(e.iteration))
        << "PE " << pe;
    if (e.iteration == 0) ++stale;
  }
  EXPECT_EQ(stale, 2);
}

TEST(Gossip, FresherObservationsOverwriteDuringDissemination) {
  GossipNetwork net(4, 3);  // full fanout: one round reaches everyone
  net.observe_local(0, 1.0, 0);
  support::Rng rng(5);
  net.step(rng);
  net.observe_local(0, 2.0, 1);  // PE 0 measures again, fresher
  net.step(rng);
  for (std::int64_t pe = 0; pe < 4; ++pe)
    EXPECT_DOUBLE_EQ(net.database(pe).entry(0).wir, 2.0) << "PE " << pe;
}

/// The full-snapshot round the copy-on-write `GossipNetwork::step` replaced:
/// copy every database, then merge each push from the copy.
void snapshot_step(std::vector<WirDatabase>& dbs, std::int64_t fanout,
                   support::Rng& rng) {
  const std::vector<WirDatabase> snapshot = dbs;
  const std::size_t n = dbs.size();
  for (std::size_t src = 0; src < n; ++src) {
    const auto picks = rng.sample_without_replacement(
        n - 1, static_cast<std::size_t>(fanout));
    for (std::size_t slot : picks)
      dbs[slot >= src ? slot + 1 : slot].merge_from(snapshot[src]);
  }
}

TEST(Gossip, CopyOnWriteRoundMatchesFullSnapshotRound) {
  // Random local and oracle traffic, with stale stamps and same-stamp
  // re-observations. Each (PE, iteration)'s WIR is drawn once and every
  // re-observation repeats it: the network rejects a conflicting one.
  std::vector<std::pair<std::int64_t, std::int64_t>> shapes;
  for (const std::int64_t pe_count : {2, 3, 17, 64}) {
    shapes.emplace_back(pe_count, 1);
    shapes.emplace_back(pe_count, pe_count - 1);
  }
  shapes.emplace_back(512, 2);
  for (const auto& [pe_count, fanout] : shapes) {
    GossipNetwork net(pe_count, fanout);
    std::vector<WirDatabase> reference(static_cast<std::size_t>(pe_count),
                                       WirDatabase(pe_count));
    std::map<std::pair<std::int64_t, std::int64_t>, double> measured;
    support::Rng traffic(static_cast<std::uint64_t>(pe_count * 31 + fanout));
    support::Rng net_rng(7), reference_rng(7);
    for (std::int64_t round = 0; round < 200; ++round) {
      const std::int64_t events = traffic.uniform_int(0, 2 * pe_count);
      for (std::int64_t e = 0; e < events; ++e) {
        const std::int64_t pe = traffic.uniform_int(0, pe_count - 1);
        const double fresh = traffic.uniform(0.0, 10.0);
        const std::int64_t iteration =
            std::max<std::int64_t>(0, round - traffic.uniform_int(0, 3));
        const double wir =
            measured.try_emplace({pe, iteration}, fresh).first->second;
        if (traffic.uniform_int(0, 9) == 0) {
          net.observe_oracle(pe, wir, iteration);
          for (WirDatabase& db : reference) db.update(pe, wir, iteration);
        } else {
          net.observe_local(pe, wir, iteration);
          reference[static_cast<std::size_t>(pe)].update(pe, wir, iteration);
        }
      }
      net.step(net_rng);
      snapshot_step(reference, fanout, reference_rng);
    }
    for (std::int64_t pe = 0; pe < pe_count; ++pe) {
      const WirDatabase got_db = net.database(pe);
      for (std::int64_t src = 0; src < pe_count; ++src) {
        const auto got = got_db.entry(src);
        const auto want = reference[static_cast<std::size_t>(pe)].entry(src);
        ASSERT_EQ(got.iteration, want.iteration)
            << "P=" << pe_count << " f=" << fanout << " pe=" << pe
            << " src=" << src;
        ASSERT_EQ(got.wir, want.wir)
            << "P=" << pe_count << " f=" << fanout << " pe=" << pe
            << " src=" << src;
      }
    }
  }
}

}  // namespace
}  // namespace ulba::core
