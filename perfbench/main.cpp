// perfbench: the repository benchmark's measuring binary, driven by run.py.
//
//   perfbench host
//   perfbench run    --workload W --seed N --socket PATH
//   perfbench replay --workload W --seed N --socket PATH --trace-out FILE
//
// Each subcommand prints one JSON line on stdout.
#include <cstdio>
#include <exception>
#include <string>

#include "host.h"
#include "perfbench.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench host | run|replay --workload W --seed N "
               "--socket PATH [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "host") {
    std::printf("%s\n", perfbench::host_fingerprint_json().c_str());
    return 0;
  }
  std::string workload;
  std::string socket_path;
  std::string trace_out;
  std::uint64_t seed = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::stoull(value);
    else if (key == "--socket") socket_path = value;
    else if (key == "--trace-out") trace_out = value;
    else return usage();
  }
  if (workload.empty() || socket_path.empty()) return usage();
  try {
    const perfbench::Workload w = perfbench::find_workload(workload);
    if (command == "run") return perfbench::engine_run(w, seed, socket_path);
    if (command == "replay" && !trace_out.empty())
      return perfbench::replay_run(w, seed, socket_path, trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
