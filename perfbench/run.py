#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench program and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is paper_eval, fleet_diurnal, config_search, or `all` to run the
three in turn.  The first run configures and builds perfbench/ (the
ecosched libraries from src/ plus the benchmark program) into $CARGO_TARGET_DIR,
default .bench_build/; later runs reuse that build.

With --trace 0 the run reports the end-to-end metrics; with --trace 1
it alternates untraced and traced rounds, checks that both produce
byte-identical simulated outputs, reports the per-layer metrics and
writes a Chrome trace plus a per-layer self-time summary under
<build dir>/traces/.  Metric names, units and the workloads each
applies to are defined in perfbench/metrics.json.

Human-readable lines go first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
status is 0 only when every output check passed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_eval", "fleet_diurnal", "config_search")



def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_metrics():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def build():
    """Configure and build the benchmark program; returns its path."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "perfbench_runner"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_runner"), root


def task_medians(raw):
    """Each task's median latency [ms] over the untraced rounds.  Every
    round runs the same task sequence, so a task's median filters out
    host noise that hit it in one round."""
    tasks, rounds = raw["task_ms"], len(raw["round_wall_s"])
    per_round = len(tasks) // rounds
    if per_round * rounds != len(tasks):
        raise RuntimeError("rounds ran different task counts")
    return [statistics.median(tasks[i::per_round]) for i in range(per_round)]


def tail(latencies):
    """The highest percentile that leaves 10 tasks beyond it (nearest
    rank), its value, and the count beyond it."""
    ordered = sorted(latencies)
    if len(ordered) < 11:
        raise RuntimeError(f"only {len(ordered)} tasks: no tail percentile")
    pct = 100.0 * (1.0 - 10.0 / len(ordered))
    rank = math.ceil(pct / 100.0 * len(ordered) - 1e-9)
    return ordered[rank - 1], pct, len(ordered) - rank


def run_workload(program, trace_root, args, workload):
    trace_dir = os.path.join(trace_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [program, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=args.seconds * 3 + 90)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"perfbench_runner exited with {done.returncode}")
    return json.loads(done.stdout)


def reduce(raw, spec, trace):
    """Named metrics of one workload, plus its human-readable lines."""
    w = raw["workload"]
    lines = [f"{w}: seed {raw['seed']}, {len(raw['round_wall_s'])} untraced"
             f" + {len(raw['traced_wall_s'])} traced rounds,"
             f" {raw['attempted']} tasks"]
    values = {}
    if not trace:
        latencies = task_medians(raw)
        tail_value, tail_pct, beyond = tail(latencies)
        values = {
            # One measured phase: the tasks' medians, summed.
            "wall_s": sum(latencies) / 1000.0,
            "setup_s": statistics.median(raw["setup_s"]),
            "task_ms_p50": statistics.median(latencies),
            "task_ms_tail": tail_value,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        lines.append(f"  task_ms_tail is p{tail_pct:.4g} of {len(latencies)}"
                     f" tasks ({beyond} beyond it)")
        for name, value in raw["scoped"].items():
            unit = spec["scoped"][name]["unit"]
            lines.append(f"  {name} = {value:.6g} {unit}"
                         " (workload-scoped, not gated)")
    else:
        layers = raw["layers"]
        idle = [name for name, meta in spec["per_layer"].items()
                if w not in meta["workloads"]]
        lines.append(f"  not exercised by {w}, reported as 0: "
                     + ", ".join(idle))
        for name in spec["per_layer"]:
            if name != "trace.overhead_pct":
                values[name] = layers.get(name, 0.0)
        untraced = statistics.median(raw["round_wall_s"])
        traced = statistics.median(raw["traced_wall_s"])
        values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        lines.append(f"  tracing overhead: wall_s {untraced:.4f} s untraced,"
                     f" {traced:.4f} s traced")
    for name, note in raw["notes"].items():
        lines.append(f"  {name}: {note}")
    for check in raw["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        lines.append(f"  check {status}: {check['name']} ({check['detail']})")
    return values, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_metrics()
    section = "per_layer" if args.trace else "end_to_end"
    try:
        program, root = build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for w in workloads:
            raw = run_workload(program, root, args, w)
            values, lines = reduce(raw, spec, args.trace)
            correct = correct and all(c["ok"] for c in raw["checks"])
            attempted += raw["attempted"]
            failed += raw["failed"]
            prefix = f"{w}." if args.workload == "all" else ""
            for name, value in values.items():
                meta = spec[section][name]
                if w in meta["workloads"]:
                    lines.append(f"  {name} = {value:.6g} {meta['unit']}")
                metrics[prefix + name] = {"value": value,
                                          "unit": meta["unit"]}
            print("\n".join(lines), flush=True)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log(f"perfbench: {err}")
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
