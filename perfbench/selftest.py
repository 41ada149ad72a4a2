"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Checks that
  * reference.json holds the closed-form PGM fidelities (Studzinski,
    Strelchuk, Mozrzymas and Horodecki, Sci. Rep. 7, 10871 (2017)), so the
    port-teleportation checks compare against mathematical values;
  * two traced runs of one seed agree on every metric counted in unit
    ``count`` (calls, outcomes tried, branches pruned, peak tensor entries),
    and both report correct results;
  * every per-layer metric that layers.json predicts to be zero on a workload
    reads zero.
Prints each failure and exits 1 if there is any.  Takes about four minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from math import factorial, prod, sqrt

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _partitions(n, max_rows, max_part=None):
    if n == 0:
        yield ()
        return
    if max_rows == 0:
        return
    for k in range(min(n, max_part or n), 0, -1):
        for rest in _partitions(n - k, max_rows - 1, k):
            yield (k,) + rest


def _hooks(shape):
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    return [shape[i] - j + cols[j] - i - 1 for i in range(len(shape)) for j in range(shape[i])]


def pgm_fidelity(d: int, n: int) -> float:
    """F = d^-(N+2) sum over alpha |- N-1 of (sum over mu = alpha + box of sqrt(d_mu m_mu))^2.

    d_mu is the S_N irrep dimension (hook length formula), m_mu the U(d)
    irrep dimension (hook content formula); diagrams have at most d rows.
    """
    total = 0.0
    for alpha in _partitions(n - 1, d):
        inner = 0.0
        for i in range(min(len(alpha) + 1, d)):
            mu = list(alpha) + [0]
            mu[i] += 1
            if i > 0 and mu[i] > mu[i - 1]:
                continue
            mu = tuple(r for r in mu if r)
            hooks = prod(_hooks(mu))
            d_mu = factorial(n) // hooks
            m_mu = prod(d + j - i for i in range(len(mu)) for j in range(mu[i])) / hooks
            inner += sqrt(d_mu * m_mu)
        total += inner * inner
    return total / d ** (n + 2)


def check_reference() -> list:
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)["pgm_fidelity"]
    problems = []
    for d, row in ref.items():
        for n, value in row.items():
            want = pgm_fidelity(int(d), int(n))
            if abs(value - want) > 1e-12:
                problems.append(f"reference F({d}, {n}) = {value!r}, closed form {want!r}")
    return problems


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_workload(workload: str, seed: int, zero_prefixes) -> list:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    problems = [f"{workload}: run {i} not correct" for i, r in enumerate((first, second)) if not r["correct"]]
    a, b = first["metrics"], second["metrics"]
    for name in a:
        if a[name]["unit"] == "count" and a[name]["value"] != b[name]["value"]:
            problems.append(f"{workload}: {name} differs: {a[name]['value']} vs {b[name]['value']}")
        if name.startswith(tuple(zero_prefixes)) and a[name]["value"] != 0:
            problems.append(f"{workload}: {name} predicted zero, reads {a[name]['value']}")
    return problems


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    with open(os.path.join(HERE, "layers.json")) as fh:
        zeros = json.load(fh)["predicted_zero"]
    parser = argparse.ArgumentParser(description="Self-tests of the nlqclab benchmark.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    problems = check_reference()
    for workload in args.workload or names:
        problems += check_workload(workload, args.seed, zeros.get(workload, ()))
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
