#include "runtime/mailbox.hpp"

#include <algorithm>

namespace ulba::runtime {

bool Mailbox::matches(const Message& m, int source, int tag) {
  return (source == kAnySource || m.source == source) &&
         (tag == kAnyTag || m.tag == tag);
}

void Mailbox::push(Message msg) {
  {
    const std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message Mailbox::pop(int source, int tag) {
  std::unique_lock lock(mutex_);
  decltype(queue_)::iterator it;
  cv_.wait(lock, [&] {
    if (aborted_) return true;
    it = std::find_if(queue_.begin(), queue_.end(),
                      [&](const Message& m) { return matches(m, source, tag); });
    return it != queue_.end();
  });
  if (aborted_) throw WorldAborted();
  Message out = std::move(*it);
  queue_.erase(it);
  return out;
}

bool Mailbox::try_pop(int source, int tag, Message& out) {
  const std::scoped_lock lock(mutex_);
  const auto it =
      std::find_if(queue_.begin(), queue_.end(),
                   [&](const Message& m) { return matches(m, source, tag); });
  if (it == queue_.end()) return false;
  out = std::move(*it);
  queue_.erase(it);
  return true;
}

std::size_t Mailbox::pending() const {
  const std::scoped_lock lock(mutex_);
  return queue_.size();
}

void Mailbox::abort() {
  {
    const std::scoped_lock lock(mutex_);
    aborted_ = true;
  }
  cv_.notify_all();
}

}  // namespace ulba::runtime
