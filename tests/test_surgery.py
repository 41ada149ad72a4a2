"""Clifford surgery exactness and PBT surgery trends."""

import dataclasses
import time

import numpy as np
import pytest

from nlqclab import engine, pauli, qudit, surgery, teleport
from nlqclab.errors import CapExceeded, DimensionMismatch, NotOneSided


SWAP = pauli.CliffordCircuit.from_gate_list(
    2, 2, [("CNOT", (0, 1), 1), ("CNOT", (1, 0), 1), ("CNOT", (0, 1), 1)]
)


def test_normal_form_matches_measured_protocol_channel():
    # (d, n, n0, seed): the last cells teleport the right core (t = 1)
    cells = [(2, 2, 1, s) for s in range(3)] + [
        (3, 2, 1, 0), (3, 3, 1, 1), (2, 3, 2, 0), (2, 3, 2, 1), (2, 3, 2, 2), (3, 3, 2, 0),
    ]
    tele_sides = set()
    for d, n, n0, seed in cells:
        c = pauli.random_clifford(n, d, seed=seed)
        cnf = surgery.clifford_normal_form(c, (n0, n - n0))
        p2 = engine.clifford_protocol(c, (n0, n - n0))
        assert cnf.pairs == p2.meta["pairs"]
        tele_sides.add(p2.meta["tele_side"])
        j_nf = cnf.choi()
        j_p2 = engine.program_choi(p2.program)
        assert np.abs(j_nf - j_p2).max() < 1e-9
    assert tele_sides == {0, 1}


def test_normal_form_is_derived_from_one_protocol(monkeypatch):
    calls = {"protocol": 0, "unitary": 0}
    build, unitary = engine.clifford_protocol, pauli.CliffordCircuit.unitary

    def counted_protocol(*args, **kwargs):
        calls["protocol"] += 1
        return build(*args, **kwargs)

    def counted_unitary(self):
        calls["unitary"] += 1
        return unitary(self)

    monkeypatch.setattr(engine, "clifford_protocol", counted_protocol)
    monkeypatch.setattr(pauli.CliffordCircuit, "unitary", counted_unitary)
    c = pauli.random_clifford(3, 2, seed=4)
    cnf = surgery.clifford_normal_form(c, (2, 1))
    assert calls == {"protocol": 1, "unitary": 1}
    assert np.array_equal(cnf.target, unitary(c))


def test_swap_surgery_footprint_and_exactness():
    cnf = surgery.clifford_normal_form(SWAP, (1, 1))
    lp = surgery.clifford_surgery(cnf)
    maxd, ptot, branches = lp.branch_exactness(SWAP.unitary())
    assert branches == 4
    assert maxd < 1e-9 and abs(ptot - 1) < 1e-9
    rep = surgery.complexity_report(lp)
    assert rep.interaction_qudits == 2
    assert rep.interaction_gate_count == 4
    assert rep.resource_pairs == 1
    assert rep.footprint_law and rep.gate_bound


def test_extra_sewing_gate_breaks_the_gate_bound():
    lp = surgery.clifford_surgery(surgery.clifford_normal_form(SWAP, (1, 1)))
    ops = lp.program.ops
    i = next(i for i, op in enumerate(ops) if isinstance(op, engine.BellMeasureOp))
    extra = engine.GateOp(qudit.hadamard(2), ("s0_0",))
    program = dataclasses.replace(lp.program, ops=ops[:i] + (extra,) + ops[i:])
    rep = surgery.complexity_report(dataclasses.replace(lp, program=program))
    assert rep.interaction_gate_count == 5 and not rep.gate_bound
    assert rep.interaction_qudits == 2 and rep.footprint_law


def test_zero_pair_surgery_is_identity_transform():
    c = pauli.CliffordCircuit.from_gate_list(2, 2, [("H", (0,), 1), ("S", (1,), 1)])
    cnf = surgery.clifford_normal_form(c, (1, 1))
    assert cnf.pairs == 0
    lp = surgery.clifford_surgery(cnf)
    maxd, _, branches = lp.branch_exactness(c.unitary())
    assert branches == 1 and maxd < 1e-9
    assert surgery.complexity_report(lp).interaction_qudits == 0


def test_two_pair_random_protocol_surgery():
    for c, split in (
        (pauli.random_clifford(4, 2, seed=12), (2, 2)),
        (pauli.random_clifford(2, 2, seed=5), (1, 1)),
    ):
        cnf = surgery.clifford_normal_form(c, split)
        lp = surgery.clifford_surgery(cnf)
        maxd, ptot, _ = lp.branch_exactness(c.unitary())
        assert maxd < 1e-9 and abs(ptot - 1) < 1e-9
        rep = surgery.complexity_report(lp)
        if rep.resource_pairs == 2:
            assert rep.interaction_qudits == 4
            assert rep.interaction_gate_count <= 8


@pytest.mark.parametrize("d,n,n0,seed", [
    (2, 3, 1, 0), (2, 3, 2, 1), (3, 2, 1, 2), (3, 3, 2, 3), (5, 2, 1, 4),
])
def test_surgery_exact_across_dimensions(d, n, n0, seed):
    c = pauli.random_clifford(n, d, seed=700 + seed)
    cnf = surgery.clifford_normal_form(c, (n0, n - n0))
    lp = surgery.clifford_surgery(cnf)
    maxd, ptot, _ = lp.branch_exactness(c.unitary())
    assert maxd < 1e-9
    assert abs(ptot - 1) < 1e-9
    rep = surgery.complexity_report(lp)
    assert rep.footprint_law and rep.gate_bound


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sewing_outcome_is_the_twist(d):
    # Bell outcome (a, b) on (s0, s1) of Phi(v0, s0) (x) Phi(s1, v1) leaves
    # (v0, v1) in (I (x) X^a Z^b)|Phi+>, which clifford_surgery's rule reads
    bell = qudit.bell_pair(d).amplitudes.reshape(d, d)
    phi = qudit.max_entangled_tensor(d).reshape(-1)
    for a in range(d):
        for b in range(d):
            proj = qudit.bell_basis_vector(d, a, b).conj().reshape(d, d)
            vec = np.einsum("vs,st,tw->vw", bell, proj, bell).reshape(-1)
            want = np.kron(np.eye(d), qudit.weyl(d, a, b)) @ phi
            assert abs(np.linalg.norm(vec) ** 2 - 1 / d**2) < 1e-12
            overlap = abs(np.vdot(want, vec)) / (np.linalg.norm(want) * np.linalg.norm(vec))
            assert abs(overlap - 1) < 1e-12


# ---------------------------------------------------------------------------
# one-sided tasks and PBT surgery
# ---------------------------------------------------------------------------

def phase_task():
    return surgery.OneSidedTask(2, 1, {0: np.eye(2), 1: qudit.weyl_z(2)})


def test_one_sided_protocol_exact_per_label():
    task = phase_task()
    proto = surgery.OneSidedProtocol(task, 1)
    for x in (0, 1):
        j = proto.choi(x)
        jt = qudit.choi_of_unitary(task.unitaries[x])
        assert qudit.trace_distance_matrices(j, jt) < 1e-10


def test_one_sided_pair_count_is_input_size():
    with pytest.raises(NotOneSided):
        surgery.OneSidedProtocol(phase_task(), 2)


def test_pbt_surgery_distance_non_increasing():
    task = phase_task()
    proto = surgery.OneSidedProtocol(task, 1)
    dists = {0: [], 1: []}
    for n_ports in (1, 2, 4):
        lps = surgery.pbt_surgery(task, proto, n_ports)
        for x in (0, 1):
            j = surgery.pbt_surgery_choi(lps[x])
            assert np.abs(lps[x].choi() - j).max() < 1e-12
            dists[x].append(
                qudit.trace_distance_matrices(j, proto.choi(x))
            )
            assert lps[x].interaction_qudits == 1 + n_ports
    for x in (0, 1):
        seq = dists[x]
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))
        assert abs(seq[0] - 0.75) < 1e-9  # one port discards everything


def test_pbt_surgery_hadamard_family():
    task = surgery.OneSidedTask(2, 1, {0: np.eye(2), 1: qudit.hadamard(2)})
    proto = surgery.OneSidedProtocol(task, 1)
    for x in (0, 1):
        assert qudit.trace_distance_matrices(
            proto.choi(x), qudit.choi_of_unitary(task.unitaries[x])
        ) < 1e-10
    lps = surgery.pbt_surgery(task, proto, 4)
    for x in (0, 1):
        j = surgery.pbt_surgery_choi(lps[x])
        assert qudit.trace_distance_matrices(j, proto.choi(x)) < 0.35


def haar_task(d, n_a, seed):
    """Two-label task of seeded Haar unitaries on n_a qudits."""
    rng = np.random.default_rng(seed)
    dim = d**n_a
    family = {}
    for x in (0, 1):
        q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        family[x] = q * (np.diag(r) / np.abs(np.diag(r)))
    return surgery.OneSidedTask(d, n_a, family)


# (d, n_a, N) cells the dense program reaches in under a second each
PBT_SURGERY_CELLS = (
    [(2, 1, n) for n in range(1, 5)]
    + [(3, 1, n) for n in range(1, 4)]
    + [(2, 2, n) for n in range(1, 4)]
)


@pytest.mark.parametrize("d,n_a,n_ports", PBT_SURGERY_CELLS)
def test_pbt_surgery_choi_matches_the_program(d, n_a, n_ports):
    task = haar_task(d, n_a, seed=10 * d + n_a)
    lps = surgery.pbt_surgery(task, surgery.OneSidedProtocol(task, n_a), n_ports)
    for x in (0, 1):
        assert np.abs(surgery.pbt_surgery_choi(lps[x]) - lps[x].choi()).max() < 1e-12


def test_closed_form_pbt_channels_build_no_pgm(monkeypatch):
    def no_pgm(*args, **kwargs):
        raise AssertionError("the closed form built a dense PGM")

    monkeypatch.setattr(teleport, "build_pgm", no_pgm)
    rep = teleport.pbt_channel(teleport.PBTParams(2, 20))
    assert abs(rep.choi_trace_distance - (1 - teleport.pgm_fidelity(2, 20))) < 1e-12
    task = phase_task()
    lps = surgery.pbt_surgery(task, surgery.OneSidedProtocol(task, 1), 20)
    for x in (0, 1):
        want = qudit.choi_of_unitary(task.unitaries[x])
        dist = qudit.trace_distance_matrices(surgery.pbt_surgery_choi(lps[x]), want)
        assert abs(dist - rep.choi_trace_distance) < 1e-12


def test_pbt_surgery_program_past_the_state_cap_raises_before_allocating():
    task = phase_task()
    lp = surgery.pbt_surgery(task, surgery.OneSidedProtocol(task, 1), 20)[0]
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded):
        lp.choi()
    assert time.perf_counter() - t0 < 1.0


def test_pbt_surgery_choi_needs_one_port_measurement():
    task = phase_task()
    lp = surgery.pbt_surgery(task, surgery.OneSidedProtocol(task, 1), 2)[0]
    ops = lp.program.ops
    port = next(op for op in ops if isinstance(op, engine.PortMeasureOp))
    for changed in (tuple(op for op in ops if op is not port), ops + (port,)):
        program = dataclasses.replace(lp.program, ops=changed)
        with pytest.raises(DimensionMismatch, match="port measurement"):
            surgery.pbt_surgery_choi(dataclasses.replace(lp, program=program))


def test_pbt_surgery_choi_needs_a_target_on_the_ported_dimension():
    task = phase_task()
    lp = surgery.pbt_surgery(task, surgery.OneSidedProtocol(task, 1), 2)[0]
    with pytest.raises(DimensionMismatch, match="no target"):
        surgery.pbt_surgery_choi(dataclasses.replace(lp, target=None))
    with pytest.raises(DimensionMismatch, match="d_a = 2"):
        surgery.pbt_surgery_choi(dataclasses.replace(lp, target=np.eye(4)))


def test_balanced_four_qudit_qutrit_normal_form():
    # two-pair core over qutrits: the unitary-stage rewrite stays exact
    c = pauli.random_clifford(4, 3, seed=77)
    cnf = surgery.clifford_normal_form(c, (2, 2))
    maxd, ptot, _ = cnf.branch_exactness(c.unitary())
    assert maxd < 1e-9 and abs(ptot - 1) < 1e-9
