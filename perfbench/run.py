#!/usr/bin/env python3
"""Repository benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py compare --base A.json [...] --head B.json [...]

A run builds the benchmark binary from source (CMake, into the directory
named by CARGO_TARGET_DIR, default .bench_build; a no-op once built), runs
one workload, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  A traced run also prints each layer's busy
and self time from the Chrome trace it exports.  Each run's record, with
the host fingerprint, is saved under <build dir>/results/ for `compare`,
which refuses to compare records whose fingerprints differ.

Exit status: 0 when every output check passed, non-zero otherwise.
Extra flags (--smoke, --adam-lr) pass through to the binary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BINARY = "zipflm_perfbench"
RUN_TIMEOUT_S = 170

# The repository's modules, in the order the layer table prints them.
LAYERS = ["data", "tensor", "nn", "core", "comm", "net", "serve", "obs"]
# Spans the program itself emits, by module.  The benchmark's own spans
# carry their module as a "<module>." name prefix.
PROGRAM_SPANS = {
    "epoch": "core", "train_step": "core", "evaluate": "core",
    "exchange": "core", "optimizer": "core",
    "bucket_allreduce": "core", "eager_id_allgather": "core",
    "forward": "nn", "backward": "nn",
    "parallel_region": "tensor", "pool_chunk": "tensor",
    "barrier": "comm", "allgather": "comm", "allgatherv": "comm",
    "alltoallv": "comm", "broadcast": "comm", "allreduce_f32": "comm",
    "allreduce_f16": "comm", "allreduce_max": "comm",
    "batch_step": "serve", "admit": "serve",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then build the benchmark binary; returns its path."""
    out = build_dir()
    # The compiler's scratch files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", BINARY], check=True, stdout=sys.stderr,
                   env=env)
    return out / BINARY


def layer_of(name):
    prefix = name.split(".", 1)[0]
    if "." in name and prefix in LAYERS:
        return prefix
    return PROGRAM_SPANS.get(name, "other")


def layer_table(trace_path):
    """Busy and self milliseconds per layer from a Chrome trace, and the
    number of spans the lanes' rings dropped (each keeps its newest).

    Spans nest per lane (one thread).  A span's self time is its duration
    minus its direct children's; a layer's busy time counts each span not
    nested inside another span of the same layer.
    """
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    lanes = defaultdict(list)
    dropped = 0
    for ev in events:
        if ev.get("ph") == "X":
            lanes[(ev["pid"], ev["tid"])].append(ev)
        elif ev.get("name") == "thread_name" and "(dropped " in \
                ev.get("args", {}).get("name", ""):
            dropped += int(ev["args"]["name"].rsplit("(dropped ", 1)[1]
                           .rstrip(")"))
    busy = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    for spans in lanes.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, layer, child_us, ev]

        def close(entry):
            self_time[entry[1]] += entry[3]["dur"] - entry[2]

        for ev in spans:
            while stack and stack[-1][0] <= ev["ts"]:
                close(stack.pop())
            layer = layer_of(ev["name"])
            if stack:
                stack[-1][2] += ev["dur"]
            if all(entry[1] != layer for entry in stack):
                busy[layer] += ev["dur"]
            count[layer] += 1
            stack.append([ev["ts"] + ev["dur"], layer, 0.0, ev])
        while stack:
            close(stack.pop())
    rows = []
    for layer in LAYERS + ["other"]:
        if count[layer]:
            rows.append((layer, count[layer], busy[layer] / 1e3,
                         self_time[layer] / 1e3))
    return rows, dropped


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args(argv)

    spec = load_benchmark()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    trace_path = build_dir() / "traces" / f"{args.workload}-s{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_path)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    fingerprint, record = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("FINGERPRINT "):
            fingerprint = json.loads(line[len("FINGERPRINT "):])
        if line.startswith("PERFBENCH "):
            record = json.loads(line[len("PERFBENCH "):])
        else:
            print(line)
    if record is None or fingerprint is None:
        log(f"{BINARY} exited {proc.returncode} without a result")
        return proc.returncode or 1

    if args.trace and trace_path.exists():
        rows, dropped = layer_table(trace_path)
        print(f"layer table, traced pass of {args.workload} ({trace_path.name}"
              f"; {dropped} older spans dropped by full lanes):")
        print(f"  {'layer':<7} {'spans':>9} {'busy ms':>11} {'self ms':>11}")
        for layer, n, busy_ms, self_ms in rows:
            print(f"  {layer:<7} {n:>9} {busy_ms:>11.1f} {self_ms:>11.1f}")

    correct = bool(record["correct"]) and proc.returncode == 0
    metrics = {}
    for m in wanted:
        value = record["metrics"].get(m["name"])
        if value is None:
            log(f"metric {m['name']} missing or not finite")
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": correct, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    saved = dict(result, workload=args.workload, seed=args.seed,
                 trace=args.trace, fingerprint=fingerprint)
    with open(results / f"{args.workload}-s{args.seed}-t{args.trace}.json",
              "w") as f:
        json.dump(saved, f, indent=1)

    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def compare(argv):
    parser = argparse.ArgumentParser(
        description="Compare two sets of saved run records.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    records = {}
    for side in ("base", "head"):
        records[side] = []
        for path in getattr(args, side):
            with open(path) as f:
                records[side].append(json.load(f))
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for side in records.values() for r in side}
    if len(prints) != 1:
        log("refusing to compare: the records come from different hosts or "
            "builds:\n  " + "\n  ".join(sorted(prints)))
        return 2
    bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    worse = 0
    for workload in sorted({r["workload"] for r in records["base"]}):
        for name, m in bounds.items():
            sides = [[r["metrics"][name]["value"] for r in records[s]
                      if r["workload"] == workload and name in r["metrics"]]
                     for s in ("base", "head")]
            if not all(sides):
                continue
            base, head = (statistics.median(v) for v in sides)
            change = (head - base) / base
            regress = change > m["bound"] if m["better"] == "lower" \
                else -change > m["bound"]
            worse += regress
            print(f"{workload:<18} {name:<12} base {base:12.4f} "
                  f"head {head:12.4f} {100 * change:+7.2f}% "
                  f"(bound {100 * m['bound']:.0f}%){'  WORSE' if regress else ''}")
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    try:
        return run(sys.argv[1:])
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 1
    except subprocess.TimeoutExpired:
        log(f"{BINARY} exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
