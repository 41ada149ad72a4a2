"""Pauli words, conjugation, and tableau simulation against dense oracles."""

import tracemalloc

import numpy as np
import pytest

from nlqclab import engine, pauli
from nlqclab.errors import CapExceeded, DimensionMismatch, IOFailure


def _word(pair):
    """A (row, phase) word as plain ints, for exact comparison."""
    row, phase = pair
    return np.asarray(row).tolist(), phase


def test_hadamard_exchanges_x_and_z():
    c = pauli.CliffordCircuit.from_gate_list(2, 1, [("H", (0,), 1)])
    assert _word(pauli.conjugate_pauli(c, [1, 0])) == ([0, 1], 0)
    assert _word(pauli.conjugate_pauli(c, [0, 1])) == ([1, 0], 0)  # X^-1 = X at d = 2


def test_cnot_propagates_x():
    c = pauli.CliffordCircuit.from_gate_list(2, 2, [("CNOT", (0, 1), 1)])
    assert _word(pauli.conjugate_pauli(c, [1, 0, 0, 0])) == ([1, 1, 0, 0], 0)
    assert _word(pauli.conjugate_pauli(c, [0, 0, 0, 1])) == ([0, 0, 1, 1], 0)


def test_conjugation_rejects_a_word_of_the_wrong_length():
    c = pauli.CliffordCircuit.from_gate_list(2, 2, [("CNOT", (0, 1), 1)])
    with pytest.raises(DimensionMismatch):
        pauli.conjugate_pauli(c, [1, 0])


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_conjugation_matches_dense_including_phase(d, n):
    rng = np.random.default_rng(10 * d + n)
    for trial in range(8):
        c = pauli.random_clifford(n, d, seed=1000 * d + 10 * n + trial)
        u = c.unitary()
        row, phase = rng.integers(0, d, 2 * n), int(rng.integers(0, 4 if d == 2 else d))
        img = pauli.conjugate_pauli(c, row, phase)
        want = u @ pauli.word_matrix(d, row, phase) @ u.conj().T
        assert np.abs(want - pauli.word_matrix(d, *img)).max() < 1e-9


def test_unitary_is_built_once_and_read_only():
    c = pauli.random_clifford(2, 3, seed=4)
    u = c.unitary()
    assert c.unitary() is u
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


def test_unitary_is_capped_at_the_state_entry_cap():
    # d^(2n) = 2^22 entries at n = 11 is the cap itself; n = 12 is past it,
    # for the circuit's unitary and the tableau's reconstruction alike, and
    # both raise before allocating
    assert pauli.CliffordCircuit(2, 11, ()).unitary().shape == (2048, 2048)
    big = pauli.CliffordCircuit(2, 12, ())
    tab = big.tableau
    tracemalloc.start()
    try:
        for build in (big.unitary, tab.to_unitary):
            with pytest.raises(CapExceeded):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_word_multiplication_matches_matrices():
    # the packed row product a b**m that StabilizerWire's elimination relies
    # on, for every power m an elimination over Z_d can take
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        for _ in range(10):
            gens = rng.integers(0, d, (2, 4))
            forms = rng.integers(0, 4 if d == 2 else d, (2, 1))  # the phases, with no outcome variables
            a, b = (pauli.word_matrix(d, row, phase) for row, (phase,) in zip(gens, forms))
            for m in range(d):
                rows, product = pauli._times_row(gens, forms, 1, np.array([m, 0]), d)
                want = a @ np.linalg.matrix_power(b, m)
                assert np.abs(pauli.word_matrix(d, rows[0], product[0, 0]) - want).max() < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_correction_applies_the_exact_inverse_word(d):
    # the dense wire's Pauli undo on the identity columns is the matrix
    # inverse of the word frame . o, its phase included
    rng = np.random.default_rng(d)
    names = ("a", "b")
    for _ in range(10):
        frame = rng.integers(0, d, (4, 4))
        outcomes = {"x": tuple(rng.integers(0, d, 2)), "y": tuple(rng.integers(0, d, 2))}
        op = engine.PauliCorrectionOp(("x", "y"), names, frame)
        wire = engine.Wire.from_matrix(d, np.eye(d**2), names).correct(op, outcomes)
        word = frame @ (outcomes["x"] + outcomes["y"])
        assert np.abs(wire.as_matrix(names) - np.linalg.inv(pauli.word_matrix(d, word))).max() < 1e-12


def test_group_closure_under_generators():
    for d in (2, 3):
        for name, targets in [("H", (0,)), ("S", (1,)), ("CNOT", (0, 1)), ("X", (0,)), ("Z", (1,))]:
            c = pauli.CliffordCircuit.from_gate_list(d, 2, [(name, targets, 1)])
            row, phase = pauli.conjugate_pauli(c, [1, 0, 1, 1], 1)
            assert row.shape == (4,) and all(0 <= v < d for v in row.tolist())
            assert 0 <= phase < (4 if d == 2 else d)


def test_involution_is_exact():
    for d in (2, 3, 5):
        c = pauli.random_clifford(3, d, seed=d)
        rng = np.random.default_rng(d)
        row = rng.integers(0, d, 6)
        back = tuple(pauli.CliffordGate(g.name, g.targets, -g.power) for g in reversed(c.gates))
        there_and_back = pauli.CliffordCircuit(d, 3, c.gates + back)
        assert _word(pauli.conjugate_pauli(there_and_back, row, 1)) == (row.tolist(), 1)


def test_empty_circuit_gives_identity_tableau():
    t = pauli.tableau_simulate(pauli.CliffordCircuit(3, 2, ()))
    assert _word((t.rows[0], t.phases[0])) == ([1, 0, 0, 0], 0)  # X_0
    assert _word((t.rows[3], t.phases[3])) == ([0, 0, 0, 1], 0)  # Z_1


def test_cnot_tableau_rows():
    c = pauli.CliffordCircuit.from_gate_list(2, 2, [("CNOT", (0, 1), 1)])
    t = pauli.tableau_simulate(c)
    assert _word((t.rows[0], t.phases[0])) == ([1, 1, 0, 0], 0)  # X_0
    assert _word((t.rows[3], t.phases[3])) == ([0, 0, 1, 1], 0)  # Z_1


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_tableau_unitary_reconstruction(d, n):
    for trial in range(6):
        c = pauli.random_clifford(n, d, seed=33 * d + 7 * n + trial)
        t = pauli.tableau_simulate(c)
        u = c.unitary()
        v = t.to_unitary()
        k = np.argmax(np.abs(u))
        phase = u.flat[k] / v.flat[k]
        assert np.abs(u - phase * v).max() < 1e-9


def test_tableau_validation_rejects_broken_rows():
    t = pauli.tableau_simulate(pauli.CliffordCircuit(2, 2, ()))
    with pytest.raises(DimensionMismatch):
        pauli.StabilizerTableau(2, 2, t.rows[[0, 1, 3, 2]], t.phases[[0, 1, 3, 2]])


def test_random_clifford_deterministic():
    a = pauli.random_clifford(2, 3, seed=42)
    b = pauli.random_clifford(2, 3, seed=42)
    assert a == b
    assert a != pauli.random_clifford(2, 3, seed=43)


def test_random_clifford_covers_single_qubit_actions():
    seen = set()
    for seed in range(1000):
        c = pauli.random_clifford(1, 2, seed=seed)
        ix, _ = pauli.conjugate_pauli(c, [1, 0])
        iz, _ = pauli.conjugate_pauli(c, [0, 1])
        seen.add((tuple(ix.tolist()), tuple(iz.tolist())))
        if len(seen) == 6:
            break
    assert len(seen) == 6


def test_random_clifford_tableaux_are_symplectic():
    for seed in range(100):
        c = pauli.random_clifford(2, 3, seed=seed)
        pauli.tableau_simulate(c).validate()


def test_circuit_spec_rejects_custom_gates():
    # a circuit file holds generator gates only: any other name, a
    # custom matrix included, and a wrong target count fail at load
    matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    for gate in (
        {"g": "custom", "q": [0], "matrix": matrix},
        {"g": "T", "q": [0]},
        {"g": "CNOT", "q": [0]},
        {"g": "H", "q": [0, 1]},
    ):
        with pytest.raises(IOFailure):
            pauli.load_circuit_json({"d": 2, "n": 2, "gates": [gate]})
