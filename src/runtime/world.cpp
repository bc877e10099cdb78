#include "runtime/world.hpp"

#include "support/require.hpp"

namespace ulba::runtime {

World::World(int size) : size_(size) {
  ULBA_REQUIRE(size >= 1, "world needs at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>());
}

Mailbox& World::mailbox(int rank) {
  ULBA_REQUIRE(rank >= 0 && rank < size_, "rank out of range");
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

void World::barrier_wait() {
  std::unique_lock lock(barrier_mutex_);
  if (barrier_aborted_) throw WorldAborted();
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_arrived_ == size_) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  barrier_cv_.wait(lock, [&] {
    return barrier_aborted_ || barrier_generation_ != my_generation;
  });
  if (barrier_generation_ == my_generation) throw WorldAborted();
}

void World::abort() {
  for (const auto& mailbox : mailboxes_) mailbox->abort();
  {
    const std::scoped_lock lock(barrier_mutex_);
    barrier_aborted_ = true;
  }
  barrier_cv_.notify_all();
}

}  // namespace ulba::runtime
