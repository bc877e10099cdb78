#include "runtime/spmd.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/require.hpp"

namespace ulba::runtime {

void spmd_run(int size, const std::function<void(Comm&)>& body) {
  ULBA_REQUIRE(size >= 1, "SPMD run needs at least one rank");
  ULBA_REQUIRE(body != nullptr, "SPMD body must be callable");

  World world(size);
  // The failure that aborted the world. A rank records its error before it
  // aborts, and WorldAborted is only thrown after an abort, so the first
  // recorded error is always an original one, never a secondary abort.
  std::mutex first_error_mutex;
  std::exception_ptr first_error;

  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) {
      threads.emplace_back([&, r] {
        try {
          Comm comm(world, r);
          body(comm);
        } catch (...) {
          {
            const std::scoped_lock lock(first_error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          world.abort();
        }
      });
    }
  }  // jthreads join here

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ulba::runtime
