"""Seeded item sets for the four benchmark workloads, each with its check.

An item is one call chain into nlqclab plus the check of its result.  Its
``run`` returns None when the result is correct and a one-line reason when it
is not.  Items look modules up by attribute at call time, so the tracer can
wrap functions after the items are built.

Every input is drawn from the workload seed here; the program only receives
the drawn circuits, unitaries, configurations and states.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable

import numpy as np

from nlqclab import coderouting, engine, gardenhose, geometry, pauli, qudit, surgery, teleport

TOL = 1e-9
GEOMETRY_TOL = 1e-3

@cache
def _reference() -> dict:
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as fh:
        return json.load(fh)["pgm_fidelity"]


def pgm_fidelity_ref(d_a: int, n_ports: int) -> float:
    """Stored entanglement fidelity of the PGM port-teleportation channel."""
    return _reference()[str(d_a)][str(n_ports)]


@dataclass(frozen=True)
class Item:
    kind: str
    run: Callable[[], "str | None"]


@dataclass(frozen=True)
class Workload:
    items: tuple     # one pass, in order
    warmup: tuple    # one small item of each kind, run during set-up


# ---------------------------------------------------------------------------
# clifford-verify
# ---------------------------------------------------------------------------

# (d, n, n0) cells of the acceptance battery's 50-protocol mix
CLIFFORD_MIX = (
    [(2, 2, 1)] * 6 + [(2, 3, 1)] * 4 + [(2, 3, 2)] * 2
    + [(2, 4, 2)] * 4 + [(2, 4, 1)] * 2
    + [(3, 2, 1)] * 6 + [(3, 3, 1)] * 4 + [(3, 3, 2)] * 4 + [(3, 4, 1)] * 4
    + [(5, 2, 1)] * 12 + [(5, 3, 1)] * 2
)


def clifford_length(n: int) -> int:
    # the middle of random_clifford's own length range [3n+4, 6n+12): a fixed
    # length keeps the work per cell from varying between seeds
    return (9 * n + 16) // 2


def _clifford_item(d, n, n0, circuit_seed) -> Item:
    def run():
        circuit = pauli.random_clifford(n, d, seed=circuit_seed, length=clifford_length(n))
        target = circuit.unitary()
        split = (n0, n - n0)
        protocol = engine.clifford_protocol(circuit, split)
        cnf = surgery.clifford_normal_form(circuit, split)
        local = surgery.clifford_surgery(cnf)
        for name, (dist, ptot, _) in (
            ("protocol", engine.branch_exactness(protocol, target)),
            ("normal form", cnf.branch_exactness(target)),
            ("surgery", local.branch_exactness(target)),
        ):
            if not (dist < TOL and abs(ptot - 1.0) < TOL):
                return f"{name} d={d} n={n} n0={n0}: distance {dist:.3e}, probability {ptot!r}"
        return None

    return Item("clifford", run)


def clifford_verify(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    items = [_clifford_item(d, n, n0, int(rng.integers(2**31))) for d, n, n0 in CLIFFORD_MIX]
    # shuffled, so that items of one cell are timed at different moments of
    # the pass and a slow spell of the host does not shift a whole cell
    order = rng.permutation(len(items))
    return Workload(tuple(items[i] for i in order), (_clifford_item(2, 2, 1, int(rng.integers(2**31))),))


# ---------------------------------------------------------------------------
# port-teleport
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _choi_fidelity(j: np.ndarray, u: np.ndarray) -> float:
    return float(np.real(np.trace(qudit.choi_of_unitary(u) @ j)))


def _fidelity_problem(fid: float, trace: float, d_a: int, n_ports: int) -> str | None:
    want = pgm_fidelity_ref(d_a, n_ports)
    if abs(fid - want) >= TOL:
        return f"(d_a, N) = ({d_a}, {n_ports}): fidelity {fid!r}, reference {want!r}"
    if not fid > pgm_fidelity_ref(d_a, n_ports - 1):
        return f"(d_a, N) = ({d_a}, {n_ports}): fidelity does not rise from N - 1"
    if abs(trace - 1.0) >= TOL:
        return f"(d_a, N) = ({d_a}, {n_ports}): Choi trace {trace!r}"
    return None


def _pbt_item(d_a, n_ports) -> Item:
    def run():
        rep = teleport.pbt_channel(teleport.PBTParams(d_a, n_ports))
        return _fidelity_problem(rep.choi_fidelity, float(np.trace(rep.choi).real), d_a, n_ports)

    return Item("pbt_channel", run)


def _bk_item(u, n_ports) -> Item:
    def run():
        j = engine.bk_choi(u, (1, 1), n_ports)
        dist = qudit.trace_distance_matrices(j, qudit.choi_of_unitary(u))
        # the BK channel is depolarizing after U, so its distance is 1 - F
        dist_n2 = 1.0 - pgm_fidelity_ref(4, 2)
        if not dist < dist_n2:
            return f"bk_choi N={n_ports}: distance {dist!r} not below N=2 value {dist_n2!r}"
        return _fidelity_problem(_choi_fidelity(j, u), float(np.trace(j).real), 4, n_ports)

    return Item("bk_choi", run)


def _pbt_surgery_item(task, label, n_ports) -> Item:
    def run():
        protocol = surgery.OneSidedProtocol(task, task.n_a)
        lp = surgery.pbt_surgery(task, protocol, n_ports)[label]
        j = surgery.pbt_surgery_choi(lp)
        fid = _choi_fidelity(j, task.unitaries[label])
        return _fidelity_problem(fid, float(np.trace(j).real), task.d**task.n_a, n_ports)

    return Item("pbt_surgery_choi", run)


def port_teleport(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    u = haar_unitary(4, rng)
    task = surgery.OneSidedTask(2, 1, {0: haar_unitary(2, rng), 1: haar_unitary(2, rng)})
    items = (
        _pbt_item(2, 8),
        _pbt_item(3, 5),
        _bk_item(u, 4),
        _pbt_surgery_item(task, 0, 8),
        _pbt_surgery_item(task, 1, 8),
    )
    warmup = (_pbt_item(2, 2), _bk_item(u, 3), _pbt_surgery_item(task, 0, 2))
    return Workload(items, warmup)


# ---------------------------------------------------------------------------
# geometry-scan
# ---------------------------------------------------------------------------

CONFIGS_PER_FAMILY = 4


def _draw_config(family: str, rng: np.random.Generator) -> geometry.ScatteringConfig:
    """One configuration from the families of the geometry test grid."""
    bp = geometry.BoundaryPoint
    if family == "delayed":
        return geometry.preset_config("delayed", rng.uniform(0.05, 0.4))
    if family == "offset":
        tau, da = rng.uniform(0.1, 0.3), rng.uniform(-0.08, 0.06)
        return geometry.ScatteringConfig(
            bp(0, 0), bp(0.02, np.pi + 0.1),
            bp(np.pi + tau, np.pi / 2 + da), bp(np.pi + tau + 0.05, -np.pi / 2),
        )
    tau, dc = rng.uniform(0.15, 0.35), rng.uniform(0.05, 0.25)
    return geometry.ScatteringConfig(
        bp(0, dc), bp(0, np.pi - dc), bp(np.pi + tau, np.pi / 2), bp(np.pi + tau, -np.pi / 2 + dc),
    )


def _wedge_item(cfg) -> Item:
    def run():
        rep = geometry.verify_connected_wedge(cfg)
        if not rep.region_nonempty:
            return f"{cfg}: empty scattering region"
        if not (rep.saturation_residual < GEOMETRY_TOL and rep.inequality_margin >= -GEOMETRY_TOL):
            return f"{cfg}: |I - 2 ridge| {rep.saturation_residual!r}, margin {rep.inequality_margin!r}"
        return None

    return Item("connected_wedge", run)


def geometry_scan(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    items = tuple(
        _wedge_item(_draw_config(family, rng))
        for _ in range(CONFIGS_PER_FAMILY)
        for family in ("delayed", "offset", "shifted")
    )
    return Workload(items, (_wedge_item(_draw_config("delayed", rng)),))


# ---------------------------------------------------------------------------
# small-protocols
# ---------------------------------------------------------------------------

BOUND_CHECKS_PER_D = 2
GH_SWEEPS = 2         # random routed states per (strategy, x, y)
ROUTE_STATES = 2      # random routed states per (plan, d, x, y)

GH_TABLES = {
    "and": (gardenhose.and_strategy, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
    "or": (gardenhose.or_strategy, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
}
ROUTE_PLANS = {"and": (coderouting.and_plan, lambda x, y: x & y), "or": (coderouting.or_plan, lambda x, y: x | y)}


def _random_state(d: int, rng: np.random.Generator) -> qudit.DenseState:
    amp = rng.normal(size=d) + 1j * rng.normal(size=d)
    return qudit.DenseState(d, 1, amp / np.linalg.norm(amp))


def _bound_item(d, circuit_seed) -> Item:
    def run():
        circuit = pauli.random_clifford(2, d, seed=circuit_seed, length=clifford_length(2))
        rep = engine.product_replacement_check(engine.clifford_protocol(circuit, (1, 1)))
        # the half-I bound fails for exact protocols by design; the full-I
        # bound and the exact success probability are what must hold
        if not (abs(rep.p_suc_original - 1.0) < TOL and rep.passed_full):
            return f"bound check d={d}: p_suc {rep.p_suc_original!r}, full-I {rep.passed_full}"
        return None

    return Item("bound_check", run)


def _gh_item(name, x, y, psi, forced) -> Item:
    make, table = GH_TABLES[name]

    def run():
        route = gardenhose.gh_quantum_execute(make(), x, y, psi, forced=forced)
        fid = abs(np.vdot(route.terminal_state.amplitudes, psi.amplitudes)) ** 2
        if route.outcome.side != table[(x, y)] or not fid > 1.0 - TOL:
            return f"garden-hose {name} x={x} y={y}: side {route.outcome.side}, fidelity {fid!r}"
        return None

    return Item("gh_execute", run)


def _route_item(name, d, x, y, psi, rng_seed) -> Item:
    make, func = ROUTE_PLANS[name]

    def run():
        rep = coderouting.code_route(make(d), x, y, psi, rng=np.random.default_rng(rng_seed))
        if rep.side != func(x, y) or not (rep.fidelity > 1.0 - TOL and rep.hiding_distance < TOL):
            return (
                f"code route {name} d={d} x={x} y={y}: side {rep.side}, "
                f"fidelity {rep.fidelity!r}, hiding {rep.hiding_distance!r}"
            )
        return None

    return Item("code_route", run)


def _gh_sweep(rng: np.random.Generator) -> list:
    """Every forced outcome of the AND and OR strategies on every input."""
    items = []
    outcomes = [(a, b) for a in range(2) for b in range(2)]
    for name, (make, table) in GH_TABLES.items():
        strategy = make()
        for x, y in table:
            psi = _random_state(2, rng)
            pairs = strategy.matched_pairs(x, y)
            for outs in product(outcomes, repeat=len(pairs)):
                forced = {tuple(p): o for p, o in zip(pairs, outs)}
                items.append(_gh_item(name, x, y, psi, forced))
    return items


def small_protocols(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    items = [_bound_item(d, int(rng.integers(2**31))) for d in (2, 3) for _ in range(BOUND_CHECKS_PER_D)]
    for _ in range(GH_SWEEPS):
        items += _gh_sweep(rng)
    for name, d, (x, y), _ in product(ROUTE_PLANS, (3, 5), product((0, 1), repeat=2), range(ROUTE_STATES)):
        items.append(_route_item(name, d, x, y, _random_state(d, rng), int(rng.integers(2**31))))
    warmup = (
        _bound_item(2, int(rng.integers(2**31))),
        _gh_item("and", 1, 1, _random_state(2, rng), {(gardenhose.Q, "L1"): (0, 0)}),
        _route_item("and", 3, 1, 1, _random_state(3, rng), int(rng.integers(2**31))),
    )
    return Workload(tuple(items), warmup)


WORKLOADS = {
    "clifford-verify": clifford_verify,
    "port-teleport": port_teleport,
    "geometry-scan": geometry_scan,
    "small-protocols": small_protocols,
}
