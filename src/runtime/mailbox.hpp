// Per-rank mailbox of the message-passing runtime.
//
// Semantics mirror MPI's matching rules: a receive names a (source, tag)
// pair — either may be a wildcard — and messages between one (source,
// destination, tag) triple are never overtaken (FIFO per channel). Blocking
// receives park on a condition variable (CP.42: wait with a predicate) and
// leave it by throwing WorldAborted once the mailbox is aborted.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace ulba::runtime {

/// Wildcards for receives, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = std::numeric_limits<int>::min();

/// Thrown by a blocking receive or barrier of an aborted world: another rank
/// failed first, so the message or the arrival waited for may never come.
class WorldAborted : public std::runtime_error {
 public:
  WorldAborted() : std::runtime_error("SPMD world aborted by a failed rank") {}
};

struct Message {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

class Mailbox {
 public:
  /// Enqueue a message (called from the sender's thread).
  void push(Message msg);

  /// Block until a message matching (source, tag) is available and return the
  /// first such message in arrival order. Throws WorldAborted once abort()
  /// has been called, whether or not a match is queued.
  [[nodiscard]] Message pop(int source, int tag);

  /// Non-blocking variant: returns true and fills `out` if a match exists.
  [[nodiscard]] bool try_pop(int source, int tag, Message& out);

  /// Number of queued messages (for tests / diagnostics).
  [[nodiscard]] std::size_t pending() const;

  /// Wake every blocked pop() and make it, and every later one, throw
  /// WorldAborted.
  void abort();

 private:
  [[nodiscard]] static bool matches(const Message& m, int source, int tag);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool aborted_ = false;
};

}  // namespace ulba::runtime
