"""Command-line entry point aggregating the simulation lab.

Subcommands: clifford-nlqc, bk, pbt, gh, code-route, surgery, geometry,
bound-check, suite.  All numeric output carries units in its key names;
JSON keys are sorted and CSV follows RFC 4180, so identical invocations
produce identical bytes.  Exit codes: 0 pass, 1 assertion failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import coderouting, engine, gardenhose, geometry, pauli, qudit, surgery, teleport
from .errors import CheckFailed, NlqcError, UsageError


def _emit(args, payload, fieldnames=None):
    if getattr(args, "out", None) == "csv" and fieldnames:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        rows = payload if isinstance(payload, list) else [payload]
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fieldnames})
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, default=_jsonable) + "\n"
    path = getattr(args, "path", None)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (geometry.BoundaryPoint,)):
        return {"t": obj.t, "theta": obj.theta}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _parse_point(text) -> geometry.BoundaryPoint:
    try:
        t, theta = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected 't,theta', got {text!r}") from exc
    return geometry.BoundaryPoint(t, theta)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_clifford_nlqc(args) -> int:
    circuit = pauli.random_clifford(args.n, args.d, seed=args.seed)
    split = (args.split, args.n - args.split)
    protocol = engine.clifford_protocol(circuit, split)
    maxd, ptot, branches = engine.branch_exactness(protocol, protocol.target)
    account = protocol.resource.account()
    report = {
        "d": args.d,
        "n": args.n,
        "seed": args.seed,
        "pairs": protocol.meta["pairs"],
        "path": _sweep_path(protocol.program),
        "branches": branches,
        "max_branch_choi_distance": maxd,
        "probability_total": ptot,
        "mutual_information_nats": account.mutual_information_nats,
        "mutual_information_ebits": account.mutual_information_ebits,
        "exact": bool(maxd < args.tol),
    }
    _emit(args, report)
    return 0 if report["exact"] else 1


def cmd_bk(args) -> int:
    u = {"identity": np.eye(4, dtype=complex), "cnot": qudit.cnot(2)}[args.unitary]
    jt = qudit.choi_of_unitary(u)
    rows = []
    for n_ports in args.N:
        j = engine.bk_choi(u, (1, 1), n_ports)
        rows.append(
            {
                "N": n_ports,
                "choi_trace_distance": qudit.trace_distance_matrices(j, jt),
            }
        )
    dists = [r["choi_trace_distance"] for r in rows]
    ok = all(b < a for a, b in zip(dists, dists[1:])) if len(dists) > 1 else True
    _emit(args, {"unitary": args.unitary, "rows": rows, "monotone_decreasing": ok})
    return 0 if ok else 1


def cmd_pbt(args) -> int:
    rows = []
    ok = True
    for n_ports in args.N:
        rep = teleport.pbt_channel(teleport.PBTParams(args.dA, n_ports))
        rows.append(
            {
                "N": n_ports,
                "d_A": args.dA,
                "choi_fidelity": rep.choi_fidelity,
                "choi_trace_distance": rep.choi_trace_distance,
                "paper_bound": rep.paper_bound_diamond,
            }
        )
        ok = ok and rep.bound_respected()
    _emit(args, rows, fieldnames=["N", "d_A", "choi_fidelity", "choi_trace_distance", "paper_bound"])
    return 0 if ok else 1


def _named_strategy(name):
    if name == "and":
        return gardenhose.and_strategy()
    if name == "or":
        return gardenhose.or_strategy()
    with open(name, "r", encoding="utf-8") as fh:
        return gardenhose.load_strategy_json(json.load(fh))


def cmd_gh(args) -> int:
    strategy = _named_strategy(args.strategy)
    rows = []
    inputs = (
        [(x, y) for x in range(2**strategy.n_x) for y in range(2**strategy.n_y)]
        if args.exhaustive
        else [(args.x, args.y)]
    )
    rng = np.random.default_rng(args.seed)
    for x, y in inputs:
        route = gardenhose.gh_evaluate(strategy, x, y)
        row = {"x": x, "y": y, "side": route.side, "terminal": route.terminal}
        if args.quantum:
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = qudit.DenseState(2, 1, amp / np.linalg.norm(amp))
            run = gardenhose.gh_quantum_execute(strategy, x, y, psi, rng=rng)
            row["fidelity"] = abs(
                np.vdot(run.terminal_state.amplitudes, psi.amplitudes)
            ) ** 2
        rows.append(row)
    fieldnames = ["x", "y", "side", "terminal"] + (["fidelity"] if args.quantum else [])
    _emit(args, rows, fieldnames=fieldnames)
    return 0


def cmd_code_route(args) -> int:
    plan = {"and": coderouting.and_plan, "or": coderouting.or_plan}[args.f](args.d)
    func = (lambda x, y: x & y) if args.f == "and" else (lambda x, y: x | y)
    rng = np.random.default_rng(args.seed)
    rows = []
    ok = True
    for x in (0, 1):
        for y in (0, 1):
            amp = rng.normal(size=args.d) + 1j * rng.normal(size=args.d)
            psi = qudit.DenseState(args.d, 1, amp / np.linalg.norm(amp))
            rep = coderouting.code_route(plan, x, y, psi, rng=rng)
            rows.append(
                {
                    "x": x,
                    "y": y,
                    "side": rep.side,
                    "fidelity": rep.fidelity,
                    "hiding_distance": rep.hiding_distance,
                }
            )
            ok = ok and rep.side == func(x, y) and rep.fidelity > 1 - 1e-9
    _emit(args, rows, fieldnames=["x", "y", "side", "fidelity", "hiding_distance"])
    return 0 if ok else 1


def _sweep_path(program) -> str:
    """Which exact sweep ``engine.program_exactness`` runs on the program."""
    return "tableau" if engine.is_clifford_program(program) else "dense"


def cmd_surgery(args) -> int:
    if args.mode == "clifford":
        if args.protocol:
            with open(args.protocol, "r", encoding="utf-8") as fh:
                protocol = engine.load_protocol_json(json.load(fh))
        else:
            circuit = pauli.random_clifford(args.n, args.d, seed=args.seed)
            protocol = engine.clifford_protocol(circuit, (args.split, args.n - args.split))
        cnf = surgery.normal_form(protocol)
        lp = surgery.clifford_surgery(cnf)
        maxd, ptot, _ = lp.branch_exactness(cnf.target)
        rep = surgery.complexity_report(lp)
        out = {
            "mode": "clifford",
            "exact": bool(maxd < 1e-9),
            "max_branch_choi_distance": maxd,
            "n_prime": rep.interaction_qudits,
            "gate_count": rep.interaction_gate_count,
            "pairs": rep.resource_pairs,
            "path": _sweep_path(lp.program),
        }
        _emit(args, out)
        return 0 if out["exact"] else 1
    task = surgery.OneSidedTask(2, 1, {0: np.eye(2), 1: qudit.weyl_z(2)})
    proto = surgery.OneSidedProtocol(task, 1)
    lps = surgery.pbt_surgery(task, proto, args.N)
    dists = {}
    for x, lp in lps.items():
        j = surgery.pbt_surgery_choi(lp)
        dists[str(x)] = qudit.trace_distance_matrices(j, proto.choi(x))
    out = {
        "mode": "pbt",
        "N": args.N,
        "choi_distance_by_label": dists,
        "n_prime": next(iter(lps.values())).interaction_qudits,
        "pairs": next(iter(lps.values())).resource_pairs,
    }
    _emit(args, out)
    return 0


def cmd_geometry(args) -> int:
    if args.resolution < 1:
        raise UsageError(f"--resolution must be at least 1, got {args.resolution}")
    if args.preset:
        cfg = geometry.preset_config(args.preset, args.delay)
    else:
        if not all((args.c0, args.c1, args.r0, args.r1)):
            raise UsageError("give --preset or all of --c0 --c1 --r0 --r1")
        cfg = geometry.ScatteringConfig(
            _parse_point(args.c0), _parse_point(args.c1),
            _parse_point(args.r0), _parse_point(args.r1),
        )
    rep = geometry.verify_connected_wedge(cfg, resolution=args.resolution)
    row = {
        "region_nonempty": rep.region_nonempty,
        "region_margin": rep.region_margin,
        "ridge_length": rep.ridge_length,
        "mutual_information_length_units": rep.mutual_information,
        "saturation_residual": rep.saturation_residual,
        "inequality_margin": rep.inequality_margin,
    }
    _emit(args, [row], fieldnames=list(row))
    return 0 if rep.inequality_margin >= -1e-3 else 1


def cmd_bound_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    all_full = True
    all_half = True
    for i in range(args.samples):
        d = int(rng.choice([2, 3]))
        circuit = pauli.random_clifford(2, d, seed=int(rng.integers(2**31)))
        protocol = engine.clifford_protocol(circuit, (1, 1))
        rep = engine.product_replacement_check(protocol)
        rows.append(
            {
                "sample": i,
                "d": d,
                "mutual_information_nats": rep.mutual_information_nats,
                "p_suc_product": rep.p_suc_product,
                "neg_log_p": rep.rhs,
                "half_I_holds": rep.passed,
                "full_I_holds": rep.passed_full,
            }
        )
        all_full = all_full and rep.passed_full
        all_half = all_half and rep.passed
    _emit(args, {"samples": rows, "all_full_I_hold": all_full, "all_half_I_hold": all_half})
    return 0 if all_full else 1


def cmd_suite(args) -> int:
    """Quick end-to-end battery over every module."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            checks.append((name, False, str(exc)))

    def require(ok, what):
        # not an assert, which python -O strips
        if not ok:
            raise CheckFailed(what)

    def _teleport_identity():
        for d in (2, 3):
            j = teleport.teleportation_channel_choi(d)
            t = qudit.max_entangled_tensor(d).reshape(-1)
            require(qudit.trace_distance_matrices(j, np.outer(t, t.conj())) < 1e-9, f"d={d}")

    def _clifford():
        c = pauli.random_clifford(2, 2, seed=args.seed)
        p = engine.clifford_protocol(c, (1, 1))
        maxd, ptot, _ = engine.branch_exactness(p, c.unitary())
        require(maxd < 1e-9 and abs(ptot - 1) < 1e-9, f"distance {maxd}, probability {ptot}")

    def _surgery():
        c = pauli.random_clifford(2, 2, seed=args.seed + 1)
        lp = surgery.clifford_surgery(surgery.clifford_normal_form(c, (1, 1)))
        maxd, _, _ = lp.branch_exactness(c.unitary())
        require(maxd < 1e-9, f"distance {maxd}")

    def _normal_form():
        # qutrits, so a sign slip shows; the right core is the smaller one, so
        # the right side teleports (t = 1)
        c = pauli.CliffordCircuit.from_gate_list(
            3, 3, [("H", (0,), 1), ("CNOT", (0, 2), 1), ("CNOT", (1, 2), 1), ("S", (2,), 1)]
        )
        p = engine.clifford_protocol(c, (2, 1))
        require(p.meta["tele_side"] == 1, "the left side teleports")
        j = surgery.clifford_normal_form(c, (2, 1)).choi()
        require(np.abs(j - engine.program_choi(p.program)).max() < 1e-12, "the Choi matrices differ")

    def _bk_protocol():
        # the closed form against the assembled program with its dense PGM
        u = qudit.cnot(2)
        j = engine.program_choi(engine.bk_protocol(u, (1, 1), 1).program)
        require(np.abs(engine.bk_choi(u, (1, 1), 1) - j).max() < 1e-9, "the Choi matrices differ")

    def _pbt():
        rep = teleport.pbt_channel(teleport.PBTParams(2, 1))
        require(abs(rep.choi_trace_distance - 0.75) < 1e-9, f"distance {rep.choi_trace_distance}")

    def _gh():
        table = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
        require(gardenhose.exhaustive_table(gardenhose.and_strategy()) == table, "wrong AND table")

    def _transform():
        prog = gardenhose.and_program()
        tracked = gardenhose.interaction_to_preprocessed(prog)
        for x in (0, 1):
            for y in (0, 1):
                require(prog.evaluate(x, y) == tracked.evaluate(x, y), f"x={x}, y={y}")

    def _code_route():
        plan = coderouting.and_plan(3)
        psi = qudit.DenseState(3, 1, np.ones(3) / np.sqrt(3))
        rep = coderouting.code_route(plan, 1, 1, psi, rng=np.random.default_rng(args.seed))
        require(rep.side == 1 and rep.fidelity > 1 - 1e-9, f"side {rep.side}, F {rep.fidelity}")

    def _geometry():
        rep = geometry.verify_connected_wedge(geometry.preset_config("marginal"), 512)
        require(rep.mutual_information < 1e-9 and rep.ridge_length < 1e-6, "not marginal")

    def _geometry_delayed():
        rep = geometry.verify_connected_wedge(geometry.preset_config("delayed", 0.2), 64)
        require(abs(rep.ridge_length - 2 * np.arctanh(np.sin(0.2))) < 1e-12, "ridge length")
        require(rep.saturation_residual < 1e-9, f"residual {rep.saturation_residual}")

    check("teleport-identity", _teleport_identity)
    check("clifford-protocol", _clifford)
    check("clifford-surgery", _surgery)
    check("clifford-normal-form", _normal_form)
    check("bk-protocol", _bk_protocol)
    check("pbt-single-port", _pbt)
    check("garden-hose-and", _gh)
    check("tracking-transform", _transform)
    check("code-routing-and", _code_route)
    check("geometry-marginal", _geometry)
    check("geometry-delayed", _geometry_delayed)
    if not args.quick:
        def _pbt_sweep():
            fids = [
                teleport.pbt_channel(teleport.PBTParams(2, n)).choi_fidelity
                for n in range(1, 5)
            ]
            require(all(b > a for a, b in zip(fids, fids[1:])), f"fidelities {fids}")

        def _bound():
            c = pauli.random_clifford(2, 2, seed=args.seed + 2)
            rep = engine.product_replacement_check(engine.clifford_protocol(c, (1, 1)))
            require(rep.passed_full, f"-ln p_suc {rep.rhs}")

        check("pbt-monotonicity", _pbt_sweep)
        check("product-replacement-full-I", _bound)

    payload = {
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in checks],
        "all_passed": all(p for _, p, _ in checks),
    }
    _emit(args, payload)
    return 0 if payload["all_passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlqc", description="non-local quantum computation simulation lab"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", choices=["json", "csv"], default="json")
        p.add_argument("--path", default=None, help="write output to a file")

    p = sub.add_parser("clifford-nlqc", help="teleportation protocol for a random Clifford")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--split", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_clifford_nlqc)

    p = sub.add_parser("bk", help="port-teleportation protocol for a fixed unitary")
    p.add_argument("--unitary", choices=["identity", "cnot"], default="cnot")
    p.add_argument("--N", type=int, nargs="+", default=[2, 4])
    common(p)
    p.set_defaults(func=cmd_bk)

    p = sub.add_parser("pbt", help="port teleportation channel sweep")
    p.add_argument("--dA", type=int, default=2)
    p.add_argument("--N", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    common(p)
    p.set_defaults(func=cmd_pbt)

    p = sub.add_parser("gh", help="garden-hose routing")
    p.add_argument("--strategy", default="and", help="and | or | strategy JSON path")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--quantum", action="store_true")
    common(p)
    p.set_defaults(func=cmd_gh)

    p = sub.add_parser("code-route", help="code-routing truth table")
    p.add_argument("--f", choices=["and", "or"], default="and")
    p.add_argument("--d", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_code_route)

    p = sub.add_parser("surgery", help="protocol surgery reports")
    p.add_argument("--mode", choices=["clifford", "pbt"], default="clifford")
    p.add_argument("--protocol", default=None, help="protocol JSON path")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--split", type=int, default=1)
    p.add_argument("--N", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("geometry", help="scattering region and mutual information")
    p.add_argument("--preset", choices=["marginal", "delayed"], default=None)
    p.add_argument("--delay", type=float, default=0.2)
    p.add_argument("--c0", default=None)
    p.add_argument("--c1", default=None)
    p.add_argument("--r0", default=None)
    p.add_argument("--r1", default=None)
    p.add_argument("--resolution", type=int, default=4096,
                   help="accepted and checked (>= 1); the report is exact and samples no ridge points")
    common(p)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("bound-check", help="product-replacement success bound")
    p.add_argument("--samples", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_bound_check)

    p = sub.add_parser("suite", help="quick cross-module check battery")
    p.add_argument("--quick", action="store_true")
    common(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NlqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
