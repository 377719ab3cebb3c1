// One untraced end-to-end run: set up, train to the sample budget through
// core::TrainingSession, check the outputs, and print every metric the run
// yields as one JSON line. Meant to run in a fresh process, so peak RSS,
// allocator state and the getrusage totals belong to this run alone.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/session.h"
#include "host.h"
#include "json.h"
#include "perfbench.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int engine_run(const Workload& workload, std::uint64_t seed,
               const std::string& socket_path) {
  // Noise record first, outside every timed region.
  const double calibration = calibration_ms();
  const double load_before = loadavg_1m();
  const CpuTimes cpu_before = cpu_times();

  const Clock::time_point setup_start = Clock::now();
  Inputs in = make_inputs(workload, seed, socket_path);
  dgs::core::TrainingSession session(in.spec, in.data.train, in.data.test,
                                     in.config, workload.engine);
  const double setup_s = seconds_since(setup_start);

  const Usage self_before = usage_self();
  const Usage children_before = usage_children();
  const Clock::time_point run_start = Clock::now();
  const dgs::core::RunResult r = session.run();
  const double wall_s = seconds_since(run_start);
  const Usage self = usage_delta(self_before, usage_self());
  const Usage children = usage_delta(children_before, usage_children());
  const double steal = steal_share(cpu_before, cpu_times());

  // ---- output checks --------------------------------------------------------
  const std::uint64_t budget =
      static_cast<std::uint64_t>(in.config.epochs) * in.data.train->size();
  const std::uint64_t pushes = r.server_steps;
  std::vector<std::string> failures;
  // The process engine's server stops at the budget exactly. The simulated
  // engine finishes the computations already in flight when the budget is
  // reached, at most one per other worker (the band tests/test_chaos.cpp
  // pins); for a given seed that overshoot is fixed.
  const std::uint64_t in_flight =
      workload.uds() ? 0 : (workload.workers - 1) * in.config.batch_size;
  if (r.samples_processed < budget || r.samples_processed > budget + in_flight)
    failures.push_back("sample budget not met");
  if (pushes * in.config.batch_size != r.samples_processed)
    failures.push_back("server steps disagree with samples processed");
  if (r.bytes.downward_messages != pushes)
    failures.push_back("not one reply per push");
  // Fault-free wire: every applied push arrived once. When the budget shuts
  // the server down, each worker may have one more push decoded but never
  // applied: the others' in-flight pushes, and the finishing worker's next
  // one if it read its reply before the shutdown frame.
  if (r.bytes.upward_messages < pushes ||
      r.bytes.upward_messages > pushes + workload.workers)
    failures.push_back("upward messages inconsistent with server steps");
  if (!(r.final_test_accuracy >= kAccuracyFloor))
    failures.push_back("accuracy below the floor");

  const double samples = static_cast<double>(r.samples_processed);
  const double safe_samples = samples > 0 ? samples : 1.0;
  const double safe_pushes = pushes > 0 ? static_cast<double>(pushes) : 1.0;
  const double worker_cpu_s = children.cpu_s();

  JsonObject metrics;
  metrics.num("setup_s", setup_s)
      .num("samples_per_s", samples / wall_s)
      .num("cpu_us_per_sample", 1e6 * (self.cpu_s() + worker_cpu_s) / safe_samples)
      .num("final_test_accuracy", r.final_test_accuracy)
      .num("up_bytes_per_sample", static_cast<double>(r.bytes.upward_bytes) / safe_samples)
      .num("down_bytes_per_sample",
           static_cast<double>(r.bytes.downward_bytes) / safe_samples)
      .num("peak_rss_mib", peak_rss_mib_self())
      .num("proc.sys_us_per_sample", 1e6 * (self.sys_s + children.sys_s) / safe_samples)
      .num("proc.minor_faults_per_push",
           static_cast<double>(self.minor_faults + children.minor_faults) / safe_pushes)
      .num("proc.vol_ctx_switches_per_push",
           static_cast<double>(self.vol_ctx_switches + children.vol_ctx_switches) /
               safe_pushes)
      .num("server.cpu_us_per_push", 1e6 * self.cpu_s() / safe_pushes)
      .num("worker.cpu_us_per_push", 1e6 * worker_cpu_s / safe_pushes)
      .num("worker.idle_share",
           1.0 - worker_cpu_s / (static_cast<double>(workload.workers) * wall_s))
      .num("worker.peak_rss_mib", static_cast<double>(children.max_rss_kib) / 1024.0)
      .num("engine.staleness_mean", r.staleness.mean())
      .num("sparse.down_density", r.mean_downward_density);

  JsonObject host;
  host.num("calibration_ms", calibration)
      .num("loadavg_before", load_before)
      .num("loadavg_after", loadavg_1m())
      .num("steal_share", steal)
      .num("wall_s", wall_s);

  JsonObject out;
  out.str("kind", "engine_run")
      .num("pushes", static_cast<double>(r.bytes.upward_messages))
      .raw("failed_checks", json_array(failures))
      .raw("metrics", metrics.text())
      .raw("noise", host.text());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench
