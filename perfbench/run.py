#!/usr/bin/env python3
"""Repository benchmark: BetrFS v0.6 on the host and simulated clocks.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds perfbench/ (a Go module that
imports the repository's packages) into .bench_build/, then runs rounds of
the workload, each in a fresh process, until --seconds have passed and at
least MIN_ROUNDS rounds are done. Every round does the same fixed work on
the same seed-derived inputs; the reported figures are medians over rounds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced rounds and reports the per-layer metrics:
span totals from the traced rounds, Go runtime figures from the untraced
ones, and trace.overhead, the ratio of their median timed-phase wall
times. The first traced round's spans go to
.bench_build/traces/<workload>-seed<seed>.json (Chrome trace-event JSON).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Output checks that fail make
correct false and the exit status 1. BENCHMARK.json lists the workloads
that pass them at this commit; bulk does not (see perfbench/README.md,
"Known limits").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")

WORKLOADS = ("bulk", "small", "wire", "shard")
MIN_ROUNDS = 3  # per kind of round
ROUND_TIMEOUT_S = 120

# The metric names and units are BENCHMARK.json's.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _spec = json.load(f)
END_TO_END = [(m["name"], m["unit"]) for m in _spec["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _spec["per_layer"]]

# Simulated cells are deterministic on these workloads: every round must
# reproduce them exactly.
DETERMINISTIC = ("bulk", "small", "shard")
# These run the Table 1 sequences call for call; their cells must equal
# what the program's own Table 1 code (bench.RunMicroCollect) computes.
REFERENCE = ("bulk", "small")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    t0 = time.monotonic()
    proc = subprocess.run(
        ["go", "build", "-trimpath", "-o", BIN, "."],
        cwd=SRC, env=go_env(), stdout=sys.stderr, stderr=sys.stderr,
    )
    if proc.returncode != 0:
        raise RuntimeError("go build failed with status %d" % proc.returncode)
    log("perfbench: built in %.1fs" % (time.monotonic() - t0))


def run_round(workload, seed, traced, trace_out=None):
    """Runs one round in a fresh process; returns its result line and
    the process's peak resident set in MB."""
    args = [BIN, "-workload", workload, "-seed", str(seed)]
    if traced:
        args.append("-traced")
        if trace_out:
            args += ["-trace-out", trace_out]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=go_env())
    timer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("round of %s exited with status %d" % (workload, proc.returncode))
    res = json.loads(out.decode().strip().splitlines()[-1])
    return res, usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def reference_cells(workload):
    """Runs the program's own Table 1 code once, outside the timed rounds,
    and returns the cells of the workload as it computes them."""
    proc = subprocess.run([BIN, "-workload", workload, "-reference"], stdout=subprocess.PIPE,
                          env=go_env(), timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("reference cells of %s: exited with status %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run(workload, seed, seconds, trace):
    reference = reference_cells(workload) if workload in REFERENCE else {}
    rounds, traced = [], []
    t0 = time.monotonic()
    trace_dir = os.path.join(BUILD, "traces")
    trace_file = None
    while True:
        done = time.monotonic() - t0 >= seconds
        if done and len(rounds) >= MIN_ROUNDS and (not trace or len(traced) >= MIN_ROUNDS):
            break
        rounds.append(run_round(workload, seed, False))
        if trace:
            out = None
            if not traced:
                os.makedirs(trace_dir, exist_ok=True)
                trace_file = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
                out = trace_file
            traced.append(run_round(workload, seed, True, out)[0])

    results = [r for r, _ in rounds] + traced
    problems = [e for r in results for e in r.get("errors", [])]
    # Every round after the first also checks that it did the same work.
    first = results[0]
    attempted = sum(r["attempted"] for r in results) + len(results) - 1
    failed = sum(r["failed"] for r in results)
    for r in results[1:]:
        if r["ops"] != first["ops"] or (workload in DETERMINISTIC and r["sim"] != first["sim"]):
            failed += 1
            problems.append("a round's work differs from the first: %d ops vs %d, sim %s vs %s" % (
                r["ops"], first["ops"], r["sim"], first["sim"]))
    for cell, want in sorted(reference.items()):
        attempted += 1
        if first["sim"][cell] != want:
            failed += 1
            problems.append("sim cell %s is %r; the program's Table 1 code gives %r" % (
                cell, first["sim"][cell], want))
    correct = failed == 0

    untraced = [r for r, _ in rounds]
    e2e = {
        "setup_s": statistics.median([r["setup_s"] for r in untraced]),
        "wall_s": statistics.median([r["wall_s"] for r in untraced]),
        "cpu_s": statistics.median([r["cpu_s"] for r in untraced]),
        "alloc_mb": statistics.median([r["alloc_mb"] for r in untraced]),
        "max_rss_mb": statistics.median([rss for _, rss in rounds]),
        "ops_per_s": statistics.median([r["ops"] / r["wall_s"] for r in untraced]),
        "p50_us": statistics.median([r["p50_us"] for r in untraced]),
        "p99_us": statistics.median([r["p99_us"] for r in untraced]),
    }

    # Human-readable report (everything before the result line).
    sizes = first["sizes"]
    print("workload %s  seed %d  scale %d  rounds %d untraced, %d traced" % (
        workload, seed, first["scale"], len(rounds), len(traced)))
    print("  sizes: " + ", ".join("%s=%d" % kv for kv in sorted(sizes.items())))
    print("  sim cells: " + ", ".join("%s=%.6g" % kv for kv in sorted(first["sim"].items()) if kv[1]))
    for name, unit in END_TO_END:
        extra = "  (samples per round %d)" % first["ops"] if name in ("p50_us", "p99_us") else ""
        print("  %-12s %14.6g %s%s" % (name, e2e[name], unit, extra))
    print("  %-12s %14.6g %s%s" % ("sim_gap", first["sim_gap"], "log2",
                                    "" if first["sim_gap"] else "  (no paper cell on this workload)"))
    print("  %-12s %14.6g %s" % ("error_rate", failed / attempted, "ratio"))
    if workload in ("wire", "shard"):
        print("  %-12s %14d %s" % ("retries", max(r["handle_retries"] for r in results),
                                   "calls per round at most, re-sent after an evicted handle"))
    if reference:
        print("  Table 1 cells checked against bench.RunMicroCollect: " + ", ".join(sorted(reference)))
    for p in sorted(set(problems)):
        print("  FAILED (%d of %d rounds): %s" % (problems.count(p), len(results), p))

    if trace:
        layers = {}
        for name, _ in PER_LAYER:
            group, key = name.split(".", 1)
            if group == "goruntime":
                layers[name] = statistics.median([r["gc"][key] for r in untraced])
            elif group == "sim":
                layers[name] = first["sim_gap"] if key == "gap" else statistics.median([r["sim"][key] for r in traced])
            elif name == "trace.overhead":
                layers[name] = statistics.median([r["wall_s"] for r in traced]) / e2e["wall_s"]
            else:
                layers[name] = statistics.median([r["layers"][name] for r in traced])
        for name, unit in PER_LAYER:
            print("  %-30s %16.6g %s" % (name, layers[name], unit))
        print("  trace file: %s" % os.path.relpath(trace_file, ROOT))
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}

    return correct, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another (metrics named <workload>.<metric>)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        build()
        for w in names:
            correct, attempted, failed, metrics = run(w, args.seed, args.seconds, args.trace == 1)
            result["correct"] = result["correct"] and correct
            result["attempted"] += attempted
            result["failed"] += failed
            prefix = w + "." if len(names) > 1 else ""
            result["metrics"].update({prefix + n: m for n, m in metrics.items()})
    except Exception as e:  # no result line: the run did not complete
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
