"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Criteria 4 and 8 are implemented exactly as stated and fail for reasons
their messages explain in full: the port count N = 8 for two-qubit ports
needs a pretty-good measurement on dimension 4**9, far beyond any dense
desk-scale representation, and the half-mutual-information success bound
is violated (and the full-I variant saturated) by exact teleportation
protocols.
"""

import time
from itertools import product

import numpy as np
import pytest

from nlqclab import (
    coderouting,
    engine,
    gardenhose,
    geometry,
    pauli,
    qudit,
    surgery,
    teleport,
)
from nlqclab.errors import CapExceeded


def verdict(num, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {state} {detail}")


PROTOCOL_MIX = (
    [(2, 2, 1)] * 6 + [(2, 3, 1)] * 4 + [(2, 3, 2)] * 2
    + [(2, 4, 2)] * 4 + [(2, 4, 1)] * 2
    + [(3, 2, 1)] * 6 + [(3, 3, 1)] * 4 + [(3, 3, 2)] * 4 + [(3, 4, 1)] * 4
    + [(5, 2, 1)] * 12 + [(5, 3, 1)] * 2
)
assert len(PROTOCOL_MIX) == 50


def seeded_protocols():
    for i, (d, n, n0) in enumerate(PROTOCOL_MIX):
        circuit = pauli.random_clifford(n, d, seed=10_000 + i)
        yield d, n, n0, circuit


def test_criterion_1_clifford_protocol_exactness():
    t0 = time.time()
    worst = 0.0
    for d, n, n0, circuit in seeded_protocols():
        protocol = engine.clifford_protocol(circuit, (n0, n - n0))
        maxd, ptot, _ = engine.branch_exactness(protocol, circuit.unitary())
        dec = protocol.meta["decomposition"]
        assert protocol.meta["pairs"] == min(dec.n0_core, dec.n1_core)
        assert maxd < 1e-9, (d, n, n0, maxd)
        assert abs(ptot - 1) < 1e-9
        worst = max(worst, maxd)
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 120
    verdict(1, ok, f"50 protocols, worst branch distance {worst:.2e}, {elapsed:.0f}s")
    assert ok


def test_criterion_2_clifford_surgery_exactness():
    t0 = time.time()
    worst_sum = 0.0
    for d, n, n0, circuit in seeded_protocols():
        target = circuit.unitary()
        cnf = surgery.clifford_normal_form(circuit, (n0, n - n0))
        local = surgery.clifford_surgery(cnf)
        s_max, s_p, _ = local.branch_exactness(target)
        p_max, _, _ = cnf.branch_exactness(target)
        # both channels are branch mixtures, so their trace distance is at
        # most the sum of the per-branch distances to the shared target
        assert s_max + p_max < 1e-9, (d, n, n0, s_max, p_max)
        assert abs(s_p - 1) < 1e-9
        rep = surgery.complexity_report(local)
        assert rep.interaction_qudits == 2 * rep.resource_pairs
        assert rep.interaction_gate_count <= 4 * rep.resource_pairs
        worst_sum = max(worst_sum, s_max + p_max)
    elapsed = time.time() - t0
    ok = worst_sum < 1e-9 and elapsed < 120
    verdict(2, ok, f"channel gap bound {worst_sum:.2e}, footprint law holds, {elapsed:.0f}s")
    assert ok


def test_criterion_3_port_teleportation():
    t0 = time.time()
    single = teleport.pbt_channel(teleport.PBTParams(2, 1))
    choi_exact = np.abs(single.choi - np.eye(4) / 4).max() < 1e-12
    fids, ok_bound, ok_povm = [], True, True
    for n in range(1, 7):
        inst = teleport.build_pgm(teleport.PBTParams(2, n))
        total = sum(inst.povm)
        ok_povm &= np.abs(total - np.eye(inst.params.dim)).max() < 1e-9
        ok_povm &= all(np.linalg.eigvalsh(p)[0] > -1e-9 for p in inst.povm)
        rep = teleport.pbt_channel(teleport.PBTParams(2, n), inst)
        fids.append(rep.choi_fidelity)
        ok_bound &= rep.choi_trace_distance <= min(1.0, rep.paper_bound_diamond / 2) + 1e-9
    monotone = all(b > a for a, b in zip(fids, fids[1:]))
    elapsed = time.time() - t0
    ok = choi_exact and monotone and ok_bound and ok_povm and elapsed < 300
    verdict(3, ok, f"fidelities {['%.3f' % f for f in fids]}, {elapsed:.0f}s")
    assert ok


def test_criterion_4_bk_protocol_as_stated():
    """N = 8 against N = 2 for two-qubit ports, as written.

    The trend and the relabeling invariance are verified at reachable
    port counts first; the N = 8 point needs the PGM on dimension 4**9
    (terabyte-scale dense operators on this machine), so the criterion
    fails honestly at its stated parameters.
    """
    t0 = time.time()
    trend_ok = True
    for u in (np.eye(4, dtype=complex), qudit.cnot(2)):
        jt = qudit.choi_of_unitary(u)
        d2 = qudit.trace_distance_matrices(engine.bk_choi(u, (1, 1), 2), jt)
        d4 = qudit.trace_distance_matrices(engine.bk_choi(u, (1, 1), 4), jt)
        trend_ok &= d4 < d2
    # port relabeling invariance: every port's reduced channel is identical
    inst = teleport.build_pgm(teleport.PBTParams(4, 3))
    chois = teleport.reduced_port_choi(inst)
    relabel_ok = all(np.abs(c - chois[0]).max() < 1e-12 for c in chois[1:])
    assert trend_ok and relabel_ok
    try:
        for u in (np.eye(4, dtype=complex), qudit.cnot(2)):
            jt = qudit.choi_of_unitary(u)
            d8 = qudit.trace_distance_matrices(engine.bk_choi(u, (1, 1), 8), jt)
            d2 = qudit.trace_distance_matrices(engine.bk_choi(u, (1, 1), 2), jt)
            assert d8 < d2
        verdict(4, True, f"{time.time() - t0:.0f}s")
    except CapExceeded as exc:
        verdict(
            4, False,
            f"N=8 needs a 4^9-dimensional dense PGM: {exc}; "
            f"trend verified at N=2->4 and relabeling exact ({time.time() - t0:.0f}s)",
        )
        pytest.fail(
            "criterion 4 is unattainable as stated at desk scale: the port "
            "measurement for two-qubit ports at N=8 lives on dimension "
            "4**9 = 262144, whose dense operators need ~1 TB on this "
            "machine. The N=2 -> N=4 trend and exact port-relabeling "
            "invariance pass."
        )


def test_criterion_5_garden_hose_truth_tables():
    t0 = time.time()
    tables = {
        "and": (gardenhose.and_strategy(), {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}, 2),
        "or": (gardenhose.or_strategy(), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, 3),
    }
    rng = np.random.default_rng(5)
    for name, (strategy, table, pipes) in tables.items():
        assert gardenhose.gh_complexity(strategy)["pipes"] == pipes
        assert gardenhose.exhaustive_table(strategy) == table
        for (x, y), side in table.items():
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = qudit.DenseState(2, 1, amp / np.linalg.norm(amp))
            pairs = strategy.matched_pairs(x, y)
            for outs in product(*[[(a, b) for a in range(2) for b in range(2)]] * len(pairs)):
                forced = {tuple(p): o for p, o in zip(pairs, outs)}
                run = gardenhose.gh_quantum_execute(strategy, x, y, psi, forced=forced)
                assert run.outcome.side == side
                fid = abs(np.vdot(run.terminal_state.amplitudes, psi.amplitudes)) ** 2
                assert fid > 1 - 1e-10
    elapsed = time.time() - t0
    ok = elapsed < 60
    verdict(5, ok, f"AND/OR combinatorial + quantum, all forced outcomes, {elapsed:.0f}s")
    assert ok


def test_criterion_6_tracking_transform():
    t0 = time.time()
    for program in (gardenhose.and_program(), gardenhose.or_program()):
        tracked = gardenhose.interaction_to_preprocessed(program)
        for x, y in product((0, 1), repeat=2):
            assert program.evaluate(x, y) == tracked.evaluate(x, y)
        bound = int(np.ceil(np.log2(program.pipes + 2))) + 2
        assert tracked.added_bits <= bound
    elapsed = time.time() - t0
    ok = elapsed < 60
    verdict(6, ok, f"AND/OR transforms semantics-exact, register within bound, {elapsed:.0f}s")
    assert ok


def test_criterion_7_code_routing():
    t0 = time.time()
    rng = np.random.default_rng(9)
    for name, plan, func in (
        ("and", coderouting.and_plan(3), lambda x, y: x & y),
        ("or", coderouting.or_plan(3), lambda x, y: x | y),
    ):
        for x, y in product((0, 1), repeat=2):
            amp = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi = qudit.DenseState(3, 1, amp / np.linalg.norm(amp))
            for _ in range(3):
                rep = coderouting.code_route(plan, x, y, psi, rng=rng)
                assert rep.side == func(x, y)
                assert rep.fidelity > 1 - 1e-9
                assert rep.hiding_distance < 1e-9
    elapsed = time.time() - t0
    ok = elapsed < 60
    verdict(7, ok, f"AND/OR plans over d=3 route, recover and hide, {elapsed:.0f}s")
    assert ok


def test_criterion_8_product_replacement_bound_as_stated():
    """Half-I success bound over 100 seeded protocol/task pairs, as written.

    The exact sweep shows -ln p_suc(product) equals the full mutual
    information for exact teleportation protocols, so the half-I
    inequality fails on most pairs while the full-I (relative entropy)
    version holds on all of them.
    """
    t0 = time.time()
    rng = np.random.default_rng(123)
    half, full, reports = 0, 0, []
    for _ in range(100):
        d = int(rng.choice([2, 3]))
        circuit = pauli.random_clifford(2, d, seed=int(rng.integers(2**31)))
        protocol = engine.clifford_protocol(circuit, (1, 1))
        rep = engine.product_replacement_check(protocol)
        assert abs(rep.p_suc_original - 1) < 1e-9
        half += rep.passed
        full += rep.passed_full
        reports.append(rep)
    elapsed = time.time() - t0
    assert full == 100, "full-I bound must hold on every pair"
    ok = half == 100 and elapsed < 300
    verdict(
        8, ok,
        f"half-I holds on {half}/100, full-I on {full}/100, {elapsed:.0f}s",
    )
    if not ok:
        pytest.fail(
            "criterion 8 as stated asserts I/2 >= -ln p_suc(product); exact "
            "enumeration gives -ln p_suc = I (saturating the relative-entropy "
            "bound) for entanglement-consuming protocols, so the half-I "
            "constant is violated on "
            f"{100 - half}/100 pairs; the full-I variant holds 100/100."
        )


def test_criterion_9_geometry_saturation_and_grid():
    t0 = time.time()
    marginal = geometry.verify_connected_wedge(geometry.preset_config("marginal"))
    ok = marginal.mutual_information < 1e-9 and marginal.ridge_length < 1e-6
    delayed = geometry.verify_connected_wedge(geometry.preset_config("delayed", 0.2))
    ok &= delayed.saturation_residual < 1e-3
    cfg = geometry.preset_config("delayed", 0.2)
    mis = [geometry.mutual_information(cfg, cutoff=c) for c in (1e-3, 1e-4, 1e-5)]
    ok &= max(mis) - min(mis) < 1e-9
    from test_geometry import grid_configs

    grid = grid_configs()
    assert len(grid) >= 20
    worst = 0.0
    for c in grid[:20]:
        rep = geometry.verify_connected_wedge(c)
        worst = min(worst, rep.inequality_margin)
        ok &= rep.inequality_margin >= -1e-3
    elapsed = time.time() - t0
    ok &= elapsed < 180
    verdict(
        9, ok,
        f"residual {delayed.saturation_residual:.1e}, grid margin {worst:.1e}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_10_tableau_dense_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    count = 0
    for d in (2, 3):
        for n in (1, 2, 3):
            # every generator gate on every placement
            gates = [("H", (q,), 1) for q in range(n)]
            gates += [("S", (q,), 1) for q in range(n)]
            gates += [("X", (q,), 1) for q in range(n)]
            gates += [("Z", (q,), 1) for q in range(n)]
            gates += [("CNOT", (c, t), 1) for c in range(n) for t in range(n) if c != t]
            circuits = [pauli.CliffordCircuit.from_gate_list(d, n, [g]) for g in gates]
            per_size = 100 // 6 + 3
            circuits += [
                pauli.random_clifford(n, d, seed=5_000 + 17 * d + 3 * n + k)
                for k in range(per_size)
            ]
            for circuit in circuits:
                count += 1
                u = circuit.unitary()
                tab = pauli.tableau_simulate(circuit)
                v = tab.to_unitary()
                k = np.argmax(np.abs(u))
                err = np.abs(u - (u.flat[k] / v.flat[k]) * v).max()
                worst = max(worst, err)
                assert err < 1e-9
    elapsed = time.time() - t0
    ok = worst < 1e-9
    verdict(10, ok, f"{count} circuits, worst dense gap {worst:.2e}, {elapsed:.0f}s")
    assert ok
