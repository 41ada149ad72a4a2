"""nlqclab benchmark: time a seeded workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run from the root of a checkout.  Workloads, metrics, units and bounds are in
BENCHMARK.json; the layer-to-end-to-end mapping is in perfbench/layers.json.

Each run starts SETUP_SAMPLES fresh worker processes: all but the last only
set up, the last sets up and then measures.  ``setup_s`` is the median time
from starting a worker to its ``ready`` line.  BLAS threads are fixed in the
workers' environment, before numpy loads.  Every item's result is checked;
the last line of stdout is the JSON result, and a run that cannot measure
(no ``src/nlqclab`` in the checkout, a worker crash) exits non-zero without
printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 5
# one BLAS thread: on a shared 2-core machine, runs with two threads spread
# about twice as much from run to run (port-teleport wall_s: 0.10 against 0.04)
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # every worker is killed once the run has taken this long


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    # read by OpenBLAS when numpy loads in the worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, setup_only: bool, deadline: float):
    """(seconds until ready, measurement dict or None); raises RuntimeError on failure."""
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"worker exited with code {proc.returncode} before finishing")
    if setup_only:
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def list_metrics(spec, layers) -> int:
    """Print every metric with its unit, direction, bound and what it should move."""
    for metric in spec["end_to_end"]:
        print(f"{metric['name']:<58} {metric['unit']:<7} {metric['better']:<7} bound {metric['bound']}")
    for metric in spec["per_layer"]:
        link = layers["moves"].get(metric["name"], {})
        moves = ", ".join(link.get("moves", [])) or "-"
        print(
            f"{metric['name']:<58} {metric['unit']:<7} {metric['better']:<7} "
            f"moves {moves} on {', '.join(link.get('on', []))}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    args = parser.parse_args(argv)

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    if args.list:
        return list_metrics(spec, layers)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "nlqclab")):
        print(f"no src/nlqclab under {ROOT}: nothing to measure", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = [run_worker(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready, result = run_worker(args, False, deadline)
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)

    if args.trace:
        wanted, produced = spec["per_layer"], result["layers"]
    else:
        wanted, produced = spec["end_to_end"], dict(result["end_to_end"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(
        f"passes {result['passes']}  attempted {result['attempted']}  failed {result['failed']}  "
        f"failed_ratio {result['failed'] / result['attempted']:.6g}  warm-up failures {result['warmup_failed']}"
    )
    if not args.trace:
        print(f"setup samples {[round(s, 4) for s in setups]}")
        print(f"item_tail_s is percentile {result['tail_percentile']:.2f} of {result['items']} items")
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")

    correct = result["failed"] == 0 and result["warmup_failed"] == 0 and result["consistent"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
