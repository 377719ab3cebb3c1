// Entry points of the perfbench binary's subcommands (see main.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

/// One untraced end-to-end run; prints one JSON line. Returns the exit code.
int engine_run(const Workload& workload, std::uint64_t seed,
               const std::string& socket_path);

/// The traced single-threaded push->reply replay, run once with spans off
/// and once with spans on; prints one JSON line and writes the spans as
/// Chrome-trace JSON to `trace_path`. Returns the exit code.
int replay_run(const Workload& workload, std::uint64_t seed,
               const std::string& socket_path, const std::string& trace_path);

}  // namespace perfbench
