#!/usr/bin/env python3
"""End-to-end benchmark of the GEPC/IEP planner and its served form.

One run of one workload:

    python3 perfbench/run.py --workload serve-50k --seed 1 --seconds 20 --trace 0

builds gepc_serve and the benchmark driver from the checkout (first run
only), runs the workload and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.

Repeat mode runs every workload many times with consecutive seeds,
alternating the workload order, and reports each metric's median, quartiles
and spread against the bounds in BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 [--workloads serve-50k,plan-cities]

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); instances, journals, logs and results go to
perfbench/out. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["serve-50k", "serve-vancouver", "plan-cities"]
DRIVER_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures once, then builds the driver and gepc_serve (a no-op when
    nothing changed). Returns (driver, gepc_serve) paths."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_driver", "gepc_serve"])
    with open(log_path, "w") as build_log:
        for step in steps:
            if subprocess.call(step, stdout=build_log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                log("build failed (log: " + log_path + ")")
                sys.exit(1)
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "gepc", "tools", "gepc_serve"))


def run_once(binaries, workload, seed, seconds, trace):
    """Runs the driver once; returns (exit code, parsed result or None)."""
    driver, serve = binaries
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [driver, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--out", out_dir, "--serve", serve]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out")
        return 1, None
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        return done.returncode or 1, None
    return 0, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(binaries, workloads, runs, seconds, first_seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            started = time.time()
            code, result = run_once(binaries, workload, first_seed + i, seconds, False)
            if result is None:
                log(f"{workload} seed {first_seed + i}: failed (exit {code})")
                sys.exit(1)
            results[workload].append(result)
            log(f"{workload} seed {first_seed + i}: {time.time() - started:.1f} s, "
                f"correct={result['correct']}")
    traced = {}
    for workload in workloads:
        code, result = run_once(binaries, workload, first_seed, seconds, True)
        if result is not None:
            traced[workload] = result
    summary = {}
    for workload in workloads:
        rows = results[workload]
        summary[workload] = {"runs": len(rows),
                             "all_correct": all(r["correct"] for r in rows),
                             "failed_share": sorted({r["failed"] / r["attempted"]
                                                     for r in rows}),
                             "metrics": {}}
        print(f"\n{workload}: {len(rows)} runs, all correct: "
              f"{summary[workload]['all_correct']}, failed share "
              f"{summary[workload]['failed_share']}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            summary[workload]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "unit": rows[0]["metrics"][name]["unit"], "values": values}
            print(f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '-':>6}{flag}")
        if workload in traced and workload.startswith("serve-"):
            layers = traced[workload]["metrics"]
            summary[workload]["traced"] = layers
            untraced = summary[workload]["metrics"]["requests_per_s"]["median"]
            with_trace = layers["trace.requests_per_s"]["value"]
            overhead = untraced / with_trace - 1.0
            summary[workload]["trace_overhead"] = overhead
            print(f"  traced run: requests_per_s {with_trace:.6g} against the untraced "
                  f"median {untraced:.6g} (overhead {100 * overhead:+.1f}%), "
                  f"write latency accounted for: "
                  f"{layers['trace.write_accounted_pct']['value']:.1f}%")
        elif workload in traced:
            # plan-cities measures in process; its traced run adds a served
            # replay of the same trace for the service layers, which the
            # untraced run never has, so there is no like-for-like total.
            summary[workload]["traced"] = traced[workload]["metrics"]
            print("  traced run: write latency accounted for: "
                  f"{traced[workload]['metrics']['trace.write_accounted_pct']['value']:.1f}%")
    path = os.path.join(ROOT, "perfbench", "out",
                        f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    log(f"summary written to {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="repeat mode: runs per workload")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="repeat mode: comma-separated workloads")
    args = parser.parse_args()
    if args.repeat <= 0 and args.workload is None:
        parser.error("--workload is required (or --repeat N)")
    binaries = build()
    if args.repeat > 0:
        repeat(binaries, args.workloads.split(","), args.repeat, args.seconds, args.seed)
        return 0
    code, result = run_once(binaries, args.workload, args.seed, args.seconds,
                            args.trace == 1)
    if result is None:
        log("run failed")
        return code or 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
