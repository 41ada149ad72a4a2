"""Bell teleportation and the PGM port-teleportation channel."""

import tracemalloc

import numpy as np
import pytest

from nlqclab import engine, qudit, teleport
from nlqclab.errors import CapExceeded, DimensionMismatch, UsageError


def rand_qudit(d, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=d) + 1j * rng.normal(size=d)
    return qudit.DenseState(d, 1, amp / np.linalg.norm(amp))


# ---------------------------------------------------------------------------
# Bell teleportation
# ---------------------------------------------------------------------------

def uncorrected_teleport(st, outcome):
    """The far half after the Bell measurement of qudits (0, 1), with no undo."""
    program = engine.Program(st.d, (0, 1, 2), (engine.BellMeasureOp((0, 1), 0),), (2,))
    branch = engine.sample_branch(program, st.amplitudes, {0: outcome})
    return engine.branch_map(branch, (2,))[:, 0] / np.sqrt(branch.wire.squared_norm())


def test_zero_state_outcome_zero_needs_no_correction():
    st = qudit.DenseState(2, 3, np.kron(np.eye(2)[0], qudit.bell_pair(2).amplitudes))
    assert np.abs(uncorrected_teleport(st, (0, 0)) - [1, 0]).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_all_outcomes_corrected_reproduce_input(d):
    psi = rand_qudit(d, d)
    st = qudit.DenseState(d, 3, np.kron(psi.amplitudes, qudit.bell_pair(d).amplitudes))
    total = 0.0
    for a in range(d):
        for b in range(d):
            res = teleport.bell_teleport(st, (0,), ((1, 2),), forced=(((a, b)),))
            assert np.abs(res.state.amplitudes - psi.amplitudes).max() < 1e-9
            total += res.probability
    assert abs(total - 1) < 1e-9


def test_uncorrected_outcome_carries_weyl_error():
    psi = rand_qudit(3, 1)
    st = qudit.DenseState(3, 3, np.kron(psi.amplitudes, qudit.bell_pair(3).amplitudes))
    for a in range(3):
        for b in range(3):
            want = qudit.weyl(3, a, b) @ psi.amplitudes
            assert np.abs(uncorrected_teleport(st, (a, b)) - want).max() < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_teleportation_is_the_identity_channel(d):
    j = teleport.teleportation_channel_choi(d)
    t = qudit.max_entangled_tensor(d).reshape(-1)
    assert qudit.trace_distance_matrices(j, np.outer(t, t.conj())) < 1e-9


def test_two_qudit_teleport_through_two_pairs():
    rng = np.random.default_rng(8)
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = qudit.DenseState(2, 2, amp / np.linalg.norm(amp))
    pairs = np.kron(qudit.bell_pair(2).amplitudes, qudit.bell_pair(2).amplitudes)
    st = qudit.DenseState(2, 6, np.kron(psi.amplitudes, pairs))
    res = teleport.bell_teleport(
        st, (0, 1), ((2, 3), (4, 5)), forced=((1, 0), (0, 1))
    )
    assert np.abs(res.state.amplitudes - psi.amplitudes).max() < 1e-9


def test_unforced_teleport_needs_an_rng():
    st = qudit.DenseState(2, 3, np.kron(rand_qudit(2, 3).amplitudes, qudit.bell_pair(2).amplitudes))
    with pytest.raises(UsageError):
        teleport.bell_teleport(st, (0,), ((1, 2),))


def test_zero_probability_outcome_is_rejected():
    # qudits 0 and 1 form |Phi+>, so their Bell outcome is (0, 0) with certainty
    st = qudit.DenseState(2, 3, np.kron(qudit.bell_pair(2).amplitudes, np.eye(2)[0]))
    with pytest.raises(DimensionMismatch):
        teleport.bell_teleport(st, (0,), ((1, 2),), forced=((1, 0),))


# ---------------------------------------------------------------------------
# PGM construction
# ---------------------------------------------------------------------------

def test_single_port_povm_is_identity():
    inst = teleport.build_pgm(teleport.PBTParams(2, 1))
    assert np.abs(inst.povm[0] - np.eye(4)).max() < 1e-10


@pytest.mark.parametrize("d_a,n", [(2, 2), (2, 3), (3, 2)])
def test_povm_completeness_and_positivity(d_a, n):
    inst = teleport.build_pgm(teleport.PBTParams(d_a, n))
    total = sum(inst.povm)
    assert np.abs(total - np.eye(inst.params.dim)).max() < 1e-9
    for p in inst.povm:
        assert np.linalg.eigvalsh(p)[0] > -1e-10


def port_permutation(params, i, j):
    """Unitary swapping ports i and j on the measured register."""
    d, n, dim = params.d_a, params.n_ports, params.dim
    perm = list(range(n + 1))
    perm[i + 1], perm[j + 1] = perm[j + 1], perm[i + 1]
    m = np.eye(dim).reshape((d,) * (n + 1) + (dim,))
    return np.transpose(m, tuple(perm) + (n + 1,)).reshape(dim, dim)


def test_povm_permutation_covariance():
    params = teleport.PBTParams(2, 3)
    inst = teleport.build_pgm(params)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            perm = port_permutation(params, i, j)
            assert np.abs(perm @ inst.povm[i] @ perm.conj().T - inst.povm[j]).max() < 1e-10


def dense_sigmas(params):
    """The signals sigma_i = |Phi+><Phi+|_{A L_i} (x) (I/d_a)^(N-1), as dense matrices."""
    d, n = params.d_a, params.n_ports
    bell = qudit.choi_of_unitary(np.eye(d))
    return [qudit.embed_operator(bell, d, n + 1, (0, i + 1)) / d ** (n - 1) for i in range(n)]


def per_port_pgm(params):
    """The PGM port by port: rho^{-1/2} sigma_i rho^{-1/2} + Delta/N for every i."""
    n, dim = params.n_ports, params.dim
    sigmas = dense_sigmas(params)
    vals, vecs = np.linalg.eigh(sum(sigmas))
    keep = vals > vals.max() * 1e-12
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
    r_is = (vecs * inv_sqrt) @ vecs.conj().T
    povm = [r_is @ s @ r_is for s in sigmas]
    delta = np.eye(dim) - sum(povm)
    return [p + delta / n for p in povm]


COVARIANT_CASES = [(2, 3), (3, 2), (2, 5), (4, 2)]


@pytest.mark.parametrize("d_a,n", COVARIANT_CASES)
def test_pgm_matches_the_per_port_construction(d_a, n):
    params = teleport.PBTParams(d_a, n)
    inst = teleport.build_pgm(params)
    for got, want in zip(inst.povm, per_port_pgm(params), strict=True):
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("d_a,n", COVARIANT_CASES)
def test_povm_elements_are_port_permutations_of_the_first(d_a, n):
    params = teleport.PBTParams(d_a, n)
    inst = teleport.build_pgm(params)
    assert all(np.isrealobj(p) for p in inst.povm)
    for i in range(1, n):
        perm = port_permutation(params, 0, i)  # a 0/1 matrix: the products are exact
        assert np.array_equal(perm @ inst.povm[0] @ perm.T, inst.povm[i])
        assert np.array_equal(teleport.port_swap(inst.povm[0], d_a, n, i), inst.povm[i])


def dense_roots(inst):
    """Each port's thin root left_i right_i^T + Delta/sqrt(N), made dense."""
    delta = inst.null_part(np.eye(inst.params.dim))
    return [left @ right.T + delta / np.sqrt(inst.params.n_ports) for left, right in inst.sqrt_povm()]


@pytest.mark.parametrize("d_a,n", COVARIANT_CASES)
def test_sqrt_povm_squares_to_the_povm(d_a, n):
    inst = teleport.build_pgm(teleport.PBTParams(d_a, n))
    for root, p in zip(dense_roots(inst), inst.povm, strict=True):
        assert np.abs(root @ root - p).max() < 1e-12


@pytest.mark.parametrize("d_a,n", COVARIANT_CASES)
def test_thin_roots_match_the_eigh_square_root(d_a, n):
    inst = teleport.build_pgm(teleport.PBTParams(d_a, n))
    # psd_sqrt's stated accuracy near a null space; every element has norm <= 1
    tol = np.sqrt(inst.params.dim * np.finfo(float).eps)
    for root, p in zip(dense_roots(inst), inst.povm, strict=True):
        assert np.abs(root - qudit.psd_sqrt(p)).max() < tol


@pytest.mark.parametrize("d_a,n", COVARIANT_CASES)
def test_rho_is_zero_between_charge_blocks(d_a, n):
    params = teleport.PBTParams(d_a, n)
    rho = sum(dense_sigmas(params))
    labels = teleport.charge_labels(d_a, n)
    assert np.all(rho[labels[:, None] != labels[None, :]] == 0)
    blocks = teleport.rho_blocks(params)
    assert sorted(s for states, _ in blocks for s in states) == list(range(params.dim))
    for states, block in blocks:
        assert np.abs(block - rho[np.ix_(states, states)]).max() < 1e-15


@pytest.mark.parametrize("d_a,n", COVARIANT_CASES)
def test_blocked_spectrum_is_the_spectrum_of_rho(d_a, n):
    params = teleport.PBTParams(d_a, n)
    blocked = np.sort(np.concatenate([np.linalg.eigvalsh(b) for _, b in teleport.rho_blocks(params)]))
    assert np.abs(blocked - np.linalg.eigvalsh(sum(dense_sigmas(params)))).max() < 1e-12


@pytest.mark.parametrize("d_a,n", [(2, 8), (3, 5)])
def test_charge_blocks_at_the_benchmark_sizes(d_a, n):
    sizes = [len(states) for states, _ in teleport.rho_blocks(teleport.PBTParams(d_a, n))]
    assert (len(sizes), max(sizes)) == {(2, 8): (10, 126), (3, 5): (33, 80)}[(d_a, n)]


def test_instance_rejects_factors_whose_ports_do_not_sum_to_identity():
    inst = teleport.build_pgm(teleport.PBTParams(2, 3))
    with pytest.raises(DimensionMismatch, match="identity"):
        teleport.PBTInstance(inst.params, 1.01 * inst.b, inst.basis, inst.kernel)
    with pytest.raises(DimensionMismatch, match="identity"):
        teleport.PBTInstance(inst.params, inst.b, inst.basis[:, 1:], inst.kernel)
    with pytest.raises(DimensionMismatch, match="charge"):
        mixed = inst.basis.copy()
        mixed[:, 0] = inst.basis[:, 0] + inst.basis[:, 1]
        teleport.PBTInstance(inst.params, inst.b, mixed, inst.kernel)


def test_cap_is_enforced():
    with pytest.raises(CapExceeded):
        teleport.build_pgm(teleport.PBTParams(2, 20))


def test_cap_raises_at_the_next_size_before_allocating():
    # d_a = 2 is the largest factor b (D x D/4) at a given D
    n = int(np.log2(teleport.POVM_DIM_CAP))  # d_a^(n+1) = 2 POVM_DIM_CAP
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            teleport.build_pgm(teleport.PBTParams(2, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_single_port_channel_discards():
    rep = teleport.pbt_channel(teleport.PBTParams(2, 1))
    assert np.abs(rep.choi - np.eye(4) / 4).max() < 1e-10
    assert abs(rep.choi_trace_distance - 0.75) < 1e-10


def test_choi_fidelity_strictly_increases_with_ports():
    fids = [
        teleport.pbt_channel(teleport.PBTParams(2, n)).choi_fidelity
        for n in range(1, 7)
    ]
    assert all(b > a for a, b in zip(fids, fids[1:]))


def test_trace_distance_respects_min_guarded_bound():
    for n in range(1, 7):
        rep = teleport.pbt_channel(teleport.PBTParams(2, n))
        assert rep.choi_trace_distance <= min(1.0, rep.paper_bound_diamond / 2) + 1e-9
        assert rep.bound_respected()


def _port_program(m, n_ports):
    """Dense port teleportation of m qubits (d_a = 2^m).

    The input is port-measured against the L halves of n_ports groups of m
    pairs; the R group the outcome names is kept, all else is discarded.
    """
    a = engine.input_names(m)
    ports_l = [tuple(f"L_{k * m + i}" for i in range(m)) for k in range(n_ports)]
    ports_r = [tuple(f"R_{k * m + i}" for i in range(m)) for k in range(n_ports)]
    out = tuple(f"B_{i}" for i in range(m))
    ops = (
        engine.AppendOp(
            sum(ports_l, ()) + sum(ports_r, ()), engine.Resource.pairs(2, m * n_ports)
        ),
        engine.PortMeasureOp("port", a, tuple(ports_l), teleport.PBTParams(2**m, n_ports)),
        engine.SelectPortOp("port", tuple(ports_r), out),
        engine.DiscardOp(a + sum(ports_l, ())),
    )
    return engine.Program(2, a, ops, out)


def test_port_measurement_on_registers_of_another_dimension_is_rejected():
    # two one-qubit ports and a one-qubit input, labelled as two-qubit ports
    a = engine.input_names(1)
    ops = (
        engine.AppendOp(("L_0", "L_1", "R_0", "R_1"), engine.Resource.pairs(2, 2)),
        engine.PortMeasureOp("port", a, (("L_0",), ("L_1",)), teleport.PBTParams(4, 2)),
        engine.SelectPortOp("port", (("R_0",), ("R_1",)), ("B_0",)),
        engine.DiscardOp(a + ("L_0", "L_1")),
    )
    with pytest.raises(DimensionMismatch, match="port measurement 'port'"):
        engine.program_choi(engine.Program(2, a, ops, ("B_0",)))


def test_channel_rejects_an_instance_built_for_other_params():
    inst = teleport.build_pgm(teleport.PBTParams(2, 3))
    with pytest.raises(DimensionMismatch):
        teleport.pbt_channel(teleport.PBTParams(2, 5), inst)


@pytest.mark.parametrize("d_a,n", COVARIANT_CASES)
def test_reduced_port_choi_is_the_partial_trace_of_each_element(d_a, n):
    inst = teleport.build_pgm(teleport.PBTParams(d_a, n))
    for i, (p, got) in enumerate(zip(inst.povm, teleport.reduced_port_choi(inst), strict=True)):
        theta = qudit.partial_trace_matrix(p, d_a, n + 1, (0, i + 1))
        assert np.abs(got - theta / d_a ** (n + 1)).max() < 1e-14


@pytest.mark.parametrize("d_a,n", [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2)])
def test_reduced_port_channel_matches_direct(d_a, n):
    # d_a = 4 runs as two qubits per port, as bk_protocol does
    direct = engine.program_choi(_port_program({2: 1, 4: 2}[d_a], n))
    inst = teleport.build_pgm(teleport.PBTParams(d_a, n))
    reduced = sum(teleport.reduced_port_choi(inst))
    assert np.abs(direct - reduced).max() < 1e-10
    assert np.abs(teleport.pbt_channel(inst.params, inst).choi - reduced).max() < 1e-14


# the PGM channel meets the closed form up to dimension 2^10
ORACLE_CASES = [
    (d_a, n) for d_a in (2, 3, 4) for n in range(1, 14) if d_a ** (n + 1) <= 2**10
]


@pytest.mark.parametrize("d_a,n", ORACLE_CASES)
def test_closed_form_fidelity_matches_dense_channel(d_a, n):
    params = teleport.PBTParams(d_a, n)
    rep = teleport.pbt_channel(params, teleport.build_pgm(params))
    fid = teleport.pgm_fidelity(d_a, n)
    assert abs(fid - rep.choi_fidelity) < 1e-12
    # the channel is depolarizing, so F fixes its whole Choi matrix
    phi = qudit.choi_of_unitary(np.eye(d_a))
    assert np.abs(rep.choi - teleport.depolarizing_choi(phi, fid)).max() < 1e-12
    # the channel path without an instance is that closed form
    closed = teleport.pbt_channel(params)
    assert np.abs(closed.choi - rep.choi).max() < 1e-12
    assert abs(closed.choi_trace_distance - rep.choi_trace_distance) < 1e-12


def test_closed_form_fidelity_at_large_port_counts():
    fid = teleport.pgm_fidelity(2, 1100)
    assert np.isfinite(fid)
    assert teleport.pgm_fidelity(2, 1099) < fid < 1
    # diagrams of N-1 boxes with at most two rows number floor((N-1)/2) + 1
    with pytest.raises(CapExceeded):
        teleport.pgm_fidelity(2, 2 * teleport.PGM_DIAGRAM_CAP + 1)
    with pytest.raises(CapExceeded):
        teleport.pgm_fidelity(4, 520)


def test_channel_trace_is_one():
    rep = teleport.pbt_channel(teleport.PBTParams(3, 2))
    assert abs(np.trace(rep.choi).real - 1) < 1e-9


# ---------------------------------------------------------------------------
# trace/conjugation commutation
# ---------------------------------------------------------------------------

def test_commutation_holds_for_unitaries():
    assert teleport.trace_commutation_check(np.eye(2), 2)
    assert teleport.trace_commutation_check(qudit.hadamard(2), 2)
    assert teleport.trace_commutation_check(qudit.hadamard(3), 2)


def test_commutation_fails_for_non_unitary():
    m = np.array([[1.0, 0.3], [0.0, 1.0]])
    assert not teleport.trace_commutation_check(m, 2)


def test_channel_unitary_covariance():
    # conjugating the channel by U matches twirling its Choi by U x U*
    rng = np.random.default_rng(13)
    for n in (2, 3):
        params = teleport.PBTParams(2, n)
        j = teleport.pbt_channel(params, teleport.build_pgm(params)).choi
        for _ in range(3):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(g)
            w = np.kron(u, u.conj())
            assert np.abs(w @ j @ w.conj().T - j).max() < 1e-9
