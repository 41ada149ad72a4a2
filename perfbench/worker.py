"""One benchmark process: set up, then time passes over a workload's items.

Started by run.py, which times set-up from outside.  Prints ``ready`` on
stdout once set-up is done; then, unless ``--setup-only``, runs the passes
that fit in ``--seconds`` (at least one) and prints one JSON line with the
measurements.  Failures and diagnostics go to stderr.

Set-up is importing ``nlqclab.cli`` from the checkout's ``src``, drawing the
seeded inputs and running one small warm-up item of each kind.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def run_pass(items):
    """Run every item once; returns (wall seconds, per-item seconds, failures)."""
    times, failed = [], 0
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            problem = item.run()
        except Exception:  # any raise is a failed item, reported, not fatal
            problem = traceback.format_exc()
        times.append(time.perf_counter() - t0)
        if problem:
            failed += 1
            print(f"FAILED {item.kind}: {problem}", file=sys.stderr)
    return time.perf_counter() - start, times, failed


def tail_percentile(times):
    """Highest percentile with at least 10 items beyond it: (value, percentile).

    With fewer than 21 items no percentile at or above the median has 10
    items beyond it; the maximum is reported then, as percentile 100.
    """
    ordered = sorted(times)
    m = len(ordered)
    if m < 21:
        return ordered[-1], 100.0
    return ordered[m - 11], 100.0 * (m - 10) / m


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas():
    """(OpenBLAS config string, effective thread count) read from the loaded library."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                return config().decode(), int(threads())
    return None, None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over src/nlqclab, so a result names the code it measured without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nlqclab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(seed):
    import numpy

    blas_config, blas_threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(items, seconds, trace):
    """Passes that end within ``seconds``, at least one; traced runs alternate."""
    import tracing

    deadline = time.perf_counter() + seconds
    walls, item_times, traced_walls, layer_runs, cycles = [], [], [], [], []
    attempted = failed = 0
    while True:
        start = time.perf_counter()
        wall, times, nfail = run_pass(items)
        walls.append(wall)
        item_times += times
        attempted += len(times)
        failed += nfail
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wall, times, nfail = run_pass(items)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_runs.append(tracer.metrics())
            attempted += len(times)
            failed += nfail
        cycles.append(time.perf_counter() - start)
        # a pass is started only if it should end before the deadline, so the
        # pass count does not flip between runs of a workload
        if time.perf_counter() + statistics.median(cycles) > deadline:
            break

    tail, tail_pct = tail_percentile(item_times)
    out = {
        "attempted": attempted,
        "failed": failed,
        "passes": len(walls),
        "items": len(item_times),
        "tail_percentile": tail_pct,
        "end_to_end": {
            "wall_s": statistics.median(walls),
            "item_p50_s": statistics.median(item_times),
            "item_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "consistent": True,
    }
    if trace:
        layers = {}
        for name in layer_runs[0]:
            values = [run[name] for run in layer_runs]
            if tracing.is_count(name):
                if len(set(values)) != 1:
                    out["consistent"] = False
                    print(f"count {name} differs between traced passes: {values}", file=sys.stderr)
                layers[name] = values[0]
            else:
                layers[name] = statistics.median(values)
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import nlqclab.cli  # set-up covers the command line's import graph

    if not os.path.abspath(nlqclab.cli.__file__).startswith(os.path.join(SRC, "nlqclab") + os.sep):
        print(f"nlqclab was imported from {nlqclab.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    _, _, warmup_failed = run_pass(workload.warmup)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = measure(workload.items, args.seconds, args.trace)
    result["warmup_failed"] = warmup_failed
    result["env"] = environment(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
