"""Dense qudit simulation: gates, traces, entropies, Choi matrices, Bell measurements."""

import json

import numpy as np
import pytest

from nlqclab import engine, pauli, qudit, teleport
from nlqclab.errors import DimensionMismatch, IndexOutOfRange


def random_state(d, n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return qudit.DenseState(d, n, amp / np.linalg.norm(amp))


def density(st):
    return np.outer(st.amplitudes, st.amplitudes.conj())


def apply_gate(st, gate, targets):
    """The state with ``gate`` applied to the ``targets`` qudits."""
    return qudit.DenseState(st.d, st.n, qudit.embed_operator(gate, st.d, st.n, targets) @ st.amplitudes)


def test_x_gate_is_a_shift():
    st = qudit.DenseState(2, 1, np.eye(2)[0])
    out = apply_gate(st, qudit.weyl_x(2), (0,))
    assert np.allclose(out.amplitudes, [0, 1])


def test_hadamard_qutrit_on_zero():
    st = qudit.DenseState(3, 1, np.eye(3)[0])
    out = apply_gate(st, qudit.hadamard(3), (0,))
    assert np.allclose(out.amplitudes, np.ones(3) / np.sqrt(3))


def test_cnot_qutrit_addition():
    st = qudit.DenseState(3, 2, np.eye(9)[3 * 1 + 1])  # |1, 1>
    out = apply_gate(st, qudit.cnot(3), (0, 1))
    assert np.allclose(out.amplitudes, np.eye(9)[3 * 1 + 2])  # |1, 2>


def test_apply_gate_rejects_bad_targets():
    with pytest.raises(IndexOutOfRange):
        qudit.embed_operator(qudit.weyl_x(2), 2, 2, (5,))
    with pytest.raises(IndexOutOfRange):
        qudit.embed_operator(qudit.cnot(2), 2, 2, (1, 1))
    with pytest.raises(DimensionMismatch):
        qudit.embed_operator(qudit.weyl_x(2), 2, 2, (0, 1))


def test_gate_preserves_norm_for_random_circuits():
    st = random_state(3, 3, 11)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        st = apply_gate(st, u, (int(rng.integers(3)),))
    assert abs(np.linalg.norm(st.amplitudes) - 1) < 1e-9


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def loop_partial_trace(mat, d, n, keep):
    """Index-summation oracle, written independently of the library path."""
    keep = tuple(keep)
    dk = d ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def digits(k):
        return [(k // d ** (n - 1 - i)) % d for i in range(n)]

    def build(kdigs, rest_digs, rest_pos):
        full = [0] * n
        for q, v in zip(keep, kdigs):
            full[q] = v
        for q, v in zip(rest_pos, rest_digs):
            full[q] = v
        idx = 0
        for v in full:
            idx = idx * d + v
        return idx

    rest = [q for q in range(n) if q not in keep]
    for a in range(dk):
        for b in range(dk):
            da = [(a // d ** (len(keep) - 1 - i)) % d for i in range(len(keep))]
            db = [(b // d ** (len(keep) - 1 - i)) % d for i in range(len(keep))]
            tot = 0
            for r in range(d ** len(rest)):
                dr = [(r // d ** (len(rest) - 1 - i)) % d for i in range(len(rest))]
                tot += mat[build(da, dr, rest), build(db, dr, rest)]
            out[a, b] = tot
    return out


def test_partial_trace_bell_pair_is_mixed():
    red = qudit.partial_trace_matrix(density(qudit.bell_pair(2)), 2, 2, (0,))
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_recovers_factor():
    a = random_state(3, 1, 0)
    b = random_state(3, 1, 1)
    ab = qudit.DenseState(3, 2, np.kron(a.amplitudes, b.amplitudes))
    red = qudit.partial_trace_matrix(density(ab), 3, 2, (0,))
    assert np.abs(red - density(a)).max() < 1e-12


def test_partial_trace_matches_loop_oracle():
    rho = density(random_state(3, 3, 5))
    for keep in ((0, 2), (2, 0), (1,), ()):
        got = qudit.partial_trace_matrix(rho, 3, 3, keep)
        want = loop_partial_trace(rho, 3, 3, keep)
        assert np.abs(got - want).max() < 1e-12


def test_partial_trace_rejects_bad_targets():
    rho = np.eye(4) / 4
    for keep in ((0, 0), (2,), (-1,)):
        with pytest.raises(IndexOutOfRange):
            qudit.partial_trace_matrix(rho, 2, 2, keep)


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------

def test_trace_distance_values():
    zero = density(qudit.DenseState(2, 1, np.eye(2)[0]))
    one = density(qudit.DenseState(2, 1, np.eye(2)[1]))
    assert qudit.trace_distance_matrices(zero, zero) < 1e-12
    assert abs(qudit.trace_distance_matrices(zero, one) - 1) < 1e-12
    assert abs(qudit.trace_distance_matrices(zero, np.eye(2) / 2) - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# Choi matrices
# ---------------------------------------------------------------------------

def test_choi_of_identity_and_depolarizing():
    j = qudit.choi_of_unitary(np.eye(2))
    assert np.abs(j - density(qudit.bell_pair(2))).max() < 1e-12
    # depolarizing at entanglement fidelity 1/d^2 is the completely depolarizing channel
    jd = teleport.depolarizing_choi(j, 0.25)
    assert np.abs(jd - np.eye(4) / 4).max() < 1e-12


def test_choi_of_x_conjugation():
    x = qudit.weyl_x(2)
    j = qudit.choi_of_unitary(x)
    bell = qudit.bell_pair(2).amplitudes
    want = np.kron(x, np.eye(2)) @ np.outer(bell, bell.conj()) @ np.kron(x, np.eye(2)).conj().T
    assert np.abs(j - want).max() < 1e-12


# ---------------------------------------------------------------------------
# generalized Bell measurements
# ---------------------------------------------------------------------------

def bell_program(d, n):
    """Program over qudits 0..n-1 measuring (0, 1) in the Bell basis as "m"."""
    rest = tuple(range(2, n))
    return engine.Program(d, tuple(range(n)), (engine.BellMeasureOp((0, 1), "m"),), rest)


def bell_probabilities(st):
    """Born probability of every outcome (a, b) of measuring (0, 1), shape (d, d)."""
    probs = np.zeros((st.d, st.d))
    for br in engine.run_program(bell_program(st.d, st.n), st.amplitudes.reshape(-1, 1)):
        probs[br.outcomes["m"]] = br.wire.squared_norm()
    return probs


def test_bell_measurement_of_bell_pair_is_deterministic():
    br = engine.sample_branch(bell_program(2, 2), qudit.bell_pair(2).amplitudes, {"m": (0, 0)})
    assert abs(br.wire.squared_norm() - 1) < 1e-12
    got = bell_probabilities(qudit.bell_pair(2))
    assert abs(got[0, 0] - 1) < 1e-12 and abs(got.sum() - 1) < 1e-12


def test_twisted_bell_pair_reads_its_label():
    st = qudit.bell_pair(2)
    twisted = apply_gate(st, qudit.weyl_x(2), (0,))
    probs = bell_probabilities(twisted)
    assert abs(probs[1, 0] - 1) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_forced_outcomes_sum_to_one(d):
    st = random_state(d, 2, 21 + d)
    probs = bell_probabilities(st)
    assert abs(probs.sum() - 1) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_teleport_correct_for_all_forced_outcomes(d):
    psi = random_state(d, 1, 4)
    st = qudit.DenseState(d, 3, np.kron(psi.amplitudes, qudit.bell_pair(d).amplitudes))
    program = bell_program(d, 3)
    for a in range(d):
        for b in range(d):
            br = engine.sample_branch(program, st.amplitudes, {"m": (a, b)})
            post = engine.branch_map(br, program.out_regs)[:, 0] / np.sqrt(br.wire.squared_norm())
            undo = qudit.weyl(d, a, b).conj().T
            assert np.abs(undo @ post - psi.amplitudes).max() < 1e-9


def test_sampled_measurement_matches_forced_probabilities():
    st = random_state(2, 2, 9)
    rng = np.random.default_rng(0)
    br = engine.sample_branch(bell_program(2, 2), st.amplitudes, rng=rng)
    probs = bell_probabilities(st)
    assert abs(br.wire.squared_norm() - probs[br.outcomes["m"]]) < 1e-12
    # one draw over the outcomes (a, b) in row-major order, by Born weight
    want = np.random.default_rng(0).choice(4, p=probs.ravel() / probs.sum())
    assert br.outcomes["m"] == divmod(int(want), 2)


# ---------------------------------------------------------------------------
# circuit files
# ---------------------------------------------------------------------------

def test_circuit_json_round_trip():
    doc = {
        "d": 3,
        "n": 2,
        "gates": [
            {"g": "H", "q": [0], "pow": 1},
            {"g": "CNOT", "q": [0, 1], "pow": 2},
        ],
    }
    circuit = pauli.load_circuit_json(doc)
    text = pauli.dump_circuit_json(circuit)
    assert text == json.dumps(doc, sort_keys=True)
    assert pauli.dump_circuit_json(pauli.load_circuit_json(text)) == text
    u = circuit.unitary()
    assert np.abs(u @ u.conj().T - np.eye(9)).max() < 1e-9


def test_entropy_units():
    # entropies are in nats
    assert abs(qudit.von_neumann_entropy(np.eye(2) / 2) - np.log(2)) < 1e-12
    bell = density(qudit.bell_pair(3))
    assert abs(qudit.mutual_information_bipartite(bell, 3, 2, 1) - 2 * np.log(3)) < 1e-9
