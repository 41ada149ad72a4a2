"""Dense qudit simulation: gates, traces, channels, Bell measurements."""

import numpy as np
import pytest

from nlqclab import engine, qudit
from nlqclab.errors import DimensionMismatch, IndexOutOfRange, UsageError


def random_state(d, n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return qudit.DenseState(d, n, amp / np.linalg.norm(amp))


def test_x_gate_is_a_shift():
    st = qudit.DenseState.computational(2, 1, 0)
    out = qudit.apply_gate(st, qudit.weyl_x(2), (0,))
    assert np.allclose(out.amplitudes, [0, 1])


def test_hadamard_qutrit_on_zero():
    st = qudit.DenseState.computational(3, 1, 0)
    out = qudit.apply_gate(st, qudit.hadamard(3), (0,))
    assert np.allclose(out.amplitudes, np.ones(3) / np.sqrt(3))


def test_cnot_qutrit_addition():
    st = qudit.DenseState.from_digits(3, (1, 1))
    out = qudit.apply_gate(st, qudit.cnot(3), (0, 1))
    assert np.allclose(out.amplitudes, qudit.DenseState.from_digits(3, (1, 2)).amplitudes)


def test_apply_gate_rejects_bad_targets():
    st = qudit.DenseState.computational(2, 2, 0)
    with pytest.raises(IndexOutOfRange):
        qudit.apply_gate(st, qudit.weyl_x(2), (5,))
    with pytest.raises(DimensionMismatch):
        qudit.apply_gate(st, qudit.weyl_x(2), (0, 1))


def test_gate_preserves_norm_for_random_circuits():
    st = random_state(3, 3, 11)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        st = qudit.apply_gate(st, u, (int(rng.integers(3)),))
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
    rho = qudit.bell_pair(2).density()
    red = qudit.partial_trace(rho, (0,))
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_recovers_factor():
    a = random_state(3, 1, 0).density()
    b = random_state(3, 1, 1).density()
    red = qudit.partial_trace(a.tensor(b), (0,))
    assert np.abs(red.matrix - a.matrix).max() < 1e-12


def test_partial_trace_matches_loop_oracle():
    rho = random_state(3, 3, 5).density()
    got = qudit.partial_trace(rho, (0, 2)).matrix
    want = loop_partial_trace(rho.matrix, 3, 3, (0, 2))
    assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# fidelity / trace distance
# ---------------------------------------------------------------------------

def test_fidelity_extremes():
    zero = qudit.DenseState.computational(2, 1, 0).density()
    one = qudit.DenseState.computational(2, 1, 1).density()
    plus = qudit.DenseState(2, 1, np.array([1, 1]) / np.sqrt(2)).density()
    assert abs(qudit.fidelity(zero, zero) - 1) < 1e-12
    assert qudit.fidelity(zero, one) < 1e-12
    assert abs(qudit.fidelity(zero, plus) - 0.5) < 1e-12


def test_trace_distance_values():
    zero = qudit.DenseState.computational(2, 1, 0).density()
    one = qudit.DenseState.computational(2, 1, 1).density()
    assert qudit.trace_distance(zero, zero) < 1e-12
    assert abs(qudit.trace_distance(zero, one) - 1) < 1e-12
    assert abs(qudit.trace_distance(zero, qudit.maximally_mixed(2, 1)) - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_choi_of_identity_and_depolarizing():
    ident = qudit.Channel.identity(2)
    j = qudit.choi_of(ident, 2)
    bell = qudit.bell_pair(2).density()
    assert np.abs(j.matrix - bell.matrix).max() < 1e-12
    dep = qudit.Channel.completely_depolarizing(2)
    jd = qudit.choi_of(dep, 2)
    assert np.abs(jd.matrix - np.eye(4) / 4).max() < 1e-12


def test_choi_of_x_conjugation():
    x = qudit.weyl_x(2)
    ch = qudit.Channel.from_unitary(x)
    j = qudit.choi_of(ch, 2).matrix
    bell = qudit.bell_pair(2).amplitudes
    want = np.kron(x, np.eye(2)) @ np.outer(bell, bell.conj()) @ np.kron(x, np.eye(2)).conj().T
    assert np.abs(j - want).max() < 1e-12


def test_kraus_choi_round_trip_on_random_states():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    iso, _ = np.linalg.qr(g)
    kraus = tuple(iso[3 * i : 3 * i + 3, :] for i in range(3))
    ch = qudit.Channel(3, 3, kraus)
    back = qudit.Channel.from_choi(ch.choi_matrix(), 3, 3)
    for seed in range(20):
        rho = random_state(3, 1, seed).density()
        assert np.abs(ch.apply_matrix(rho.matrix) - back.apply_matrix(rho.matrix)).max() < 1e-9


def test_channel_completeness_enforced():
    bad = (np.eye(2) * 0.5,)
    with pytest.raises(DimensionMismatch):
        qudit.Channel(2, 2, bad)


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
    twisted = qudit.apply_gate(st, qudit.weyl_x(2), (0,))
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
    st = psi.tensor(qudit.bell_pair(d))
    program = bell_program(d, 3)
    for a in range(d):
        for b in range(d):
            br = engine.sample_branch(program, st.amplitudes, {"m": (a, b)})
            post = engine.branch_map(br, program.out_regs)[:, 0] / np.sqrt(br.wire.squared_norm())
            undo = qudit.weyl(d, a, b).conj().T
            fixed = qudit.apply_gate(qudit.DenseState(d, 1, post), undo, (0,))
            assert np.abs(fixed.amplitudes - psi.amplitudes).max() < 1e-9


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
    spec = qudit.load_circuit_json(doc)
    again = qudit.load_circuit_json(qudit.dump_circuit_json(spec))
    assert qudit.dump_circuit_json(again) == qudit.dump_circuit_json(spec)
    u = qudit.circuit_unitary(spec)
    assert np.abs(u @ u.conj().T - np.eye(9)).max() < 1e-9


def test_circuit_json_custom_matrix():
    h = qudit.hadamard(2)
    doc = {
        "d": 2,
        "n": 1,
        "gates": [
            {
                "g": "custom",
                "q": [0],
                "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in h],
            }
        ],
    }
    u = qudit.circuit_unitary(qudit.load_circuit_json(doc))
    assert np.abs(u - h).max() < 1e-12


def test_entropy_units():
    rho = qudit.maximally_mixed(2, 1)
    assert abs(qudit.von_neumann_entropy(rho, "e") - np.log(2)) < 1e-12
    assert abs(qudit.von_neumann_entropy(rho, "2") - 1.0) < 1e-12
    bell = qudit.bell_pair(3).density()
    assert abs(qudit.mutual_information_bipartite(bell, 1, "2") - 2 * np.log2(3)) < 1e-9
    with pytest.raises(UsageError):
        qudit.von_neumann_entropy(rho, base="10")


def test_from_choi_rejects_bad_operators():
    with pytest.raises(DimensionMismatch):
        qudit.Channel.from_choi(np.diag([1.0, 0, 0, -0.1]) / 0.9, 2, 2)
    not_tp = np.zeros((4, 4))
    not_tp[0, 0] = 1.0  # output trace is |0><0|, not I/2
    with pytest.raises(DimensionMismatch):
        qudit.Channel.from_choi(not_tp, 2, 2)
