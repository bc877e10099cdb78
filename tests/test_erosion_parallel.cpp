// Parallel erosion stepping: the per-column accounting of a pooled
// ErosionDomain::step_counter stays consistent with its running total, and
// the support::ThreadPool underneath runs every job exactly once. Pool-size
// bit-identity of the trajectory is locked by test_counter_rng.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "erosion/domain.hpp"
#include "support/thread_pool.hpp"
#include "test_helpers.hpp"

namespace ulba::erosion {
namespace {

TEST(ErosionParallel, ColumnWeightsStayConsistentWithTotal) {
  constexpr int kStepsPerConfig = 15;
  support::Rng meta(11);
  support::ThreadPool pool(4);
  for (int trial = 0; trial < 10; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(meta);
    ErosionDomain dom(cfg);
    const std::uint64_t seed = meta();
    std::int64_t initial_rock = dom.rock_cells_remaining();
    for (int s = 0; s < kStepsPerConfig; ++s) {
      (void)dom.step_counter(seed, s, &pool);
      const auto w = dom.column_weights();
      const double sum = std::accumulate(w.begin(), w.end(), 0.0);
      ASSERT_NEAR(sum, dom.total_workload(), 1e-9 * dom.total_workload())
          << "trial " << trial << ", step " << s;
      ASSERT_EQ(dom.rock_cells_remaining() + dom.eroded_cells(), initial_rock);
    }
  }
}

// ---------------------------------------------------------------------------
// The pool itself
// ---------------------------------------------------------------------------
TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  support::ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, SerialPoolRunsInlineOnTheCallingThread) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, PropagatesTheFirstException) {
  support::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool stays usable after a failed job.
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, SurvivesManyConsecutiveJobs) {
  support::ThreadPool pool(3);
  for (int job = 0; job < 200; ++job) {
    std::atomic<int> ran{0};
    pool.parallel_for(7, [&](std::size_t) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 7) << "job " << job;
  }
}

}  // namespace
}  // namespace ulba::erosion
