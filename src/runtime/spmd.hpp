// SPMD launcher: run one function body on P ranks backed by P threads.
//
// The first rank to throw aborts the World: every rank blocked in a receive,
// a collective or the barrier wakes with WorldAborted, so a failure ends the
// run instead of hanging it. That first error (not the secondary
// WorldAborted ones) is rethrown to the caller after every thread has
// joined — a rank failure never leaks detached threads (CP.23/CP.26: threads
// are scoped, never detached).
#pragma once

#include <functional>

#include "runtime/comm.hpp"

namespace ulba::runtime {

/// Launch `body(comm)` on `size` ranks and wait for all of them.
void spmd_run(int size, const std::function<void(Comm&)>& body);

}  // namespace ulba::runtime
