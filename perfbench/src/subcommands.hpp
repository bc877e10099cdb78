// The subcommands of ulba_bench. Each prints one perfbench::Result JSON line.
#pragma once

#include <ostream>
#include <string>

#include "cli/args.hpp"

namespace perfbench {

/// Time one erosion set-up: what a fresh `ulba_cli erosion` invocation pays
/// before its first step (domain build, stepping pool, SPMD world).
int erosion_setup(const ulba::cli::FlagMap& flags, std::ostream& out);

/// The traced erosion run: an untraced in-process pair, the traced replica
/// of the same pair replaying its LB schedule, and step-only passes; per-layer
/// metrics plus the equality checks between the traced and untraced runs.
int erosion_trace(const ulba::cli::FlagMap& flags, const std::string& spans_path,
                  std::ostream& out);

/// One closed-loop serve-mix traffic session (see serve_bench.cpp); with
/// `trace` the server loop is the traced replica and per-layer metrics are
/// reported.
int serve_session(const ulba::cli::FlagMap& flags, bool trace,
                  const std::string& spans_path, std::ostream& out);

/// Digests of the cold, provenance-masked answers to the serve-mix pool.
int serve_reference(const ulba::cli::FlagMap& flags, std::ostream& out);

}  // namespace perfbench
