// The shared state of one SPMD run: the mailboxes of all ranks, a reusable
// counting barrier, and the world-wide traffic counters every send (user
// point-to-point AND collective-internal) reports into. abort() poisons the
// world so no rank stays blocked waiting on one that has failed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/mailbox.hpp"

namespace ulba::runtime {

/// World-wide traffic totals since construction (every rank's sends).
struct TrafficCounters {
  std::uint64_t messages = 0;       ///< mailbox pushes, any tag
  std::uint64_t payload_bytes = 0;  ///< Σ payload sizes of those pushes
};

class World {
 public:
  explicit World(int size);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] Mailbox& mailbox(int rank);

  /// Reusable (generation-counted) barrier across all `size` ranks. Throws
  /// WorldAborted once abort() has been called.
  void barrier_wait();

  /// Wake every rank blocked in a receive or the barrier, and make those
  /// and all later blocking calls throw WorldAborted. Idempotent.
  void abort();

  /// Account one sent message (called by Comm on every send path, internal
  /// collectives included). Relaxed atomics: the counters order nothing.
  void record_send(std::uint64_t payload_bytes) noexcept {
    messages_.fetch_add(1, std::memory_order_relaxed);
    payload_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
  }

  /// Snapshot of the world-wide traffic so far. Only quiescent snapshots
  /// (e.g. bracketing a barrier) are meaningful comparisons.
  [[nodiscard]] TrafficCounters traffic() const noexcept {
    return {messages_.load(std::memory_order_relaxed),
            payload_bytes_.load(std::memory_order_relaxed)};
  }

 private:
  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;
  bool barrier_aborted_ = false;

  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> payload_bytes_{0};
};

}  // namespace ulba::runtime
