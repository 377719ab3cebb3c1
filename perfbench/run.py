#!/usr/bin/env python3
"""Repository benchmark: builds the library and the perfbench binary from
source, runs one workload, checks its outputs and prints the result.

    python3 perfbench/run.py --workload dgs-uds --seed 1 --seconds 30 --trace 0

--trace 0 repeats untraced end-to-end runs, each in a fresh process, until
--seconds have passed and reports the median of every end-to-end metric. When
it made at least 8 runs, samples_per_s is instead their upper quartile and
cpu_us_per_sample their lower quartile.
--trace 1 makes a few untraced runs for the kernel-side counters and then the
traced replay, and reports every per-layer metric. Metric names and units come
from BENCHMARK.json at the root of the checkout. The last line of stdout is
the result object; build logs and diagnostics go to stderr.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each untraced run costs a full training job, so a run of --seconds always
# makes at least this many, then starts another only if it should end before
# the deadline.
MIN_ENGINE_RUNS = 3
# Untraced runs made by --trace 1 for the proc.*/worker.*/server.* counters.
TRACE_ENGINE_RUNS = 3
# Ceiling on any one child process, well inside the 180 s run limit.
CHILD_TIMEOUT_S = 150


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_child(argv, env, timeout=CHILD_TIMEOUT_S, capture=True):
    """Runs argv in its own process group and always reaps the whole group."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        # Forked workers share the group; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def build(build_dir, env):
    """Configures and builds the perfbench target; returns the binary."""
    code, _ = run_child(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        env, timeout=300, capture=False)
    if code != 0:
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run_child(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        env, timeout=840, capture=False)
    binary = os.path.join(build_dir, "perfbench")
    return binary if code == 0 and os.path.exists(binary) else None


def last_json_line(text):
    lines = [line for line in (text or "").splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def measure(binary, command, workload, seed, work_dir, env, records):
    socket = os.path.relpath(os.path.join(work_dir, "pb.sock"), ROOT)
    argv = [binary, command, "--workload", workload, "--seed", str(seed),
            "--socket", socket]
    if command == "replay":
        argv += ["--trace-out",
                 os.path.join(work_dir, f"trace-{workload}-{seed}.json")]
    code, out = run_child(argv, env)
    result = last_json_line(out) if code == 0 else None
    if result is None:
        raise RuntimeError(f"perfbench {command} exited with code {code}")
    with open(records, "a", encoding="utf-8") as f:
        f.write(json.dumps(result) + "\n")
    if result["failed_checks"]:
        log(f"{command} failed checks: {result['failed_checks']}")
    return result


# Host interference (hypervisor steal, co-tenants) only ever slows a run, and
# it comes and goes within an invocation. So throughput is the upper quartile
# of the runs and CPU time the lower quartile: they hold while at least a
# quarter of the runs were undisturbed, and vary less than the best run.
# Every other metric is the median. README.md "Steadiness" has the spreads
# behind this choice.
def upper_quartile(values):
    return statistics.quantiles(values, n=4)[2]


def lower_quartile(values):
    return statistics.quantiles(values, n=4)[0]


QUARTILE_METRICS = {"samples_per_s": upper_quartile,
                    "cpu_us_per_sample": lower_quartile}
# Of fewer runs, a quartile sits next to the extreme run and varies more than
# the median. The simulated workload fits only 4 or 5 runs into 30 s.
MIN_RUNS_FOR_QUARTILES = 8


def summarize(runs):
    names = runs[0]["metrics"].keys()
    quartiles = QUARTILE_METRICS if len(runs) >= MIN_RUNS_FOR_QUARTILES else {}
    return {n: quartiles.get(n, statistics.median)([r["metrics"][n] for r in runs])
            for n in names}


def noise_summary(runs):
    noise = [r["noise"] for r in runs]
    return {
        "runs": len(runs),
        "calibration_ms_median": statistics.median(n["calibration_ms"] for n in noise),
        "calibration_ms_max": max(n["calibration_ms"] for n in noise),
        "loadavg_max": max(max(n["loadavg_before"], n["loadavg_after"]) for n in noise),
        "steal_share_max": max(n["steal_share"] for n in noise),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    work_dir = os.path.join(build_dir, "work")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    # Compilers and the library keep their scratch inside the checkout.
    env = dict(os.environ, TMPDIR=tmp_dir)

    binary = build(build_dir, env)
    if binary is None:
        log("build failed")
        return 1
    _, host = run_child([binary, "host"], env)
    records = os.path.join(work_dir, "runs.jsonl")

    engine_runs = []
    replay = None
    start = time.monotonic()
    target_runs = TRACE_ENGINE_RUNS if args.trace else MIN_ENGINE_RUNS
    while True:
        elapsed = time.monotonic() - start
        if len(engine_runs) >= target_runs and (
                args.trace or elapsed + elapsed / len(engine_runs) > args.seconds):
            break
        engine_runs.append(
            measure(binary, "run", args.workload, args.seed, work_dir, env, records))
    if args.trace:
        replay = measure(binary, "replay", args.workload, args.seed, work_dir,
                         env, records)

    measured = summarize(engine_runs)
    if replay is not None:
        measured.update(replay["metrics"])
    runs = engine_runs + ([replay] if replay else [])
    attempted = sum(int(r["pushes"]) for r in runs)
    failed = sum(int(r["pushes"]) for r in runs if r["failed_checks"])

    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None or not math.isfinite(value):
            log(f"metric {m['name']} was not measured")
            failed = attempted
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(json.dumps({"host": json.loads(host.strip().splitlines()[-1]),
                      "noise": noise_summary(engine_runs),
                      "elapsed_s": time.monotonic() - start}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
