"""Threshold secret sharing and the code-routing protocols."""

from itertools import combinations, product

import numpy as np
import pytest

from nlqclab import coderouting as cr
from nlqclab import engine, qudit
from nlqclab.errors import AmbiguousSide, DimensionTooSmall, InsufficientShares, UsageError


def rand_qudit(d, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=d) + 1j * rng.normal(size=d)
    return qudit.DenseState(d, 1, amp / np.linalg.norm(amp))


def reduced(state, keep):
    """Reduced density matrix of a pure state on the kept qudits."""
    column = state.amplitudes.reshape(-1, 1)
    return engine.Wire.from_matrix(state.d, column, range(state.n)).density_keeping(keep)


SCHEMES = [(2, 3, 3), (2, 3, 5), (3, 5, 5)]


@pytest.mark.parametrize("k,n,d", SCHEMES)
def test_encoding_is_an_isometry(k, n, d):
    iso = cr.ThresholdScheme(k, n, d).encoding_isometry()
    assert np.abs(iso.conj().T @ iso - np.eye(d)).max() < 1e-12


def test_two_of_three_qutrit_pattern():
    # secret |0> encodes to the uniform repetition pattern
    scheme = cr.ThresholdScheme(2, 3, 3)
    enc = scheme.encode(qudit.DenseState(3, 1, np.eye(3)[0]))
    want = np.zeros(27)
    want[[0, 13, 26]] = 1 / np.sqrt(3)  # |000>, |111>, |222>
    assert np.abs(enc.amplitudes - want).max() < 1e-12


@pytest.mark.parametrize("k,n,d", SCHEMES)
def test_any_k_shares_recover_exactly(k, n, d):
    scheme = cr.ThresholdScheme(k, n, d)
    for seed in range(3):
        psi = rand_qudit(d, seed)
        enc = scheme.encode(psi)
        for subset in combinations(range(n), k):
            dec_u = qudit.embed_operator(scheme.decode_unitary(subset), d, n, subset)
            dec = qudit.DenseState(d, n, dec_u @ enc.amplitudes)
            red = reduced(dec, (subset[k - 1],))
            fid = np.real(psi.amplitudes.conj() @ red @ psi.amplitudes)
            assert fid > 1 - 1e-10


@pytest.mark.parametrize("k,n,d", SCHEMES)
def test_below_threshold_is_maximally_mixed(k, n, d):
    scheme = cr.ThresholdScheme(k, n, d)
    states = [qudit.DenseState(d, 1, np.eye(d)[i]) for i in range(min(d, 3))]
    states.append(qudit.DenseState(d, 1, np.ones(d) / np.sqrt(d)))
    for psi in states:
        enc = scheme.encode(psi)
        for subset in combinations(range(n), k - 1):
            red = reduced(enc, subset)
            dist = qudit.trace_distance_matrices(red, np.eye(d ** (k - 1)) / d ** (k - 1))
            assert dist < 1e-9


def test_decode_plus_state_round_trip():
    scheme = cr.ThresholdScheme(2, 3, 3)
    plus = qudit.DenseState(3, 1, np.ones(3) / np.sqrt(3))
    dec_u = qudit.embed_operator(scheme.decode_unitary((1, 2)), 3, 3, (1, 2))
    dec = qudit.DenseState(3, 3, dec_u @ scheme.encode(plus).amplitudes)
    red = reduced(dec, (2,))
    assert np.real(plus.amplitudes.conj() @ red @ plus.amplitudes) > 1 - 1e-10


def test_insufficient_shares_raises():
    scheme = cr.ThresholdScheme(2, 3, 3)
    with pytest.raises(InsufficientShares):
        scheme.decode_unitary((0,))


def test_small_dimension_rejected():
    with pytest.raises(DimensionTooSmall):
        cr.ThresholdScheme(2, 3, 2)


# ---------------------------------------------------------------------------
# routing plans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,plan_fn,func", [
    ("and", cr.and_plan, lambda x, y: x & y),
    ("or", cr.or_plan, lambda x, y: x | y),
])
def test_plans_route_and_recover(name, plan_fn, func):
    plan = plan_fn(3)
    rng = np.random.default_rng(4)
    for x, y in product((0, 1), repeat=2):
        psi = rand_qudit(3, 10 + 2 * x + y)
        rep = cr.code_route(plan, x, y, psi, rng=rng)
        assert rep.side == func(x, y)
        assert rep.fidelity > 1 - 1e-9
        assert rep.hiding_distance < 1e-9


def test_and_plan_exhaustive_forced_outcomes():
    plan = cr.and_plan(3)
    psi = qudit.DenseState(3, 1, np.ones(3) / np.sqrt(3))
    for o2 in product(range(3), repeat=2):
        for o3 in product(range(3), repeat=2):
            rep = cr.code_route(plan, 1, 1, psi, forced={(1, 0): o2, (2, 0): o3})
            assert rep.side == 1 and rep.fidelity > 1 - 1e-9


def test_unforced_outcome_without_rng_is_a_usage_error():
    # the y-owned share's hop is forced, the x-owned share's is not
    psi = qudit.DenseState(3, 1, np.eye(3)[0])
    with pytest.raises(UsageError):
        cr.code_route(cr.and_plan(3), 1, 1, psi, forced={(2, 0): (0, 0)})


def test_or_plan_bounce_case_forced():
    # (0, 0): share 1 sent right, share 2 kept, 3 launched and bounced back;
    # sweep the first two measurements fully, slide the third diagonally
    plan = cr.or_plan(3)
    psi = rand_qudit(3, 6)
    for o1 in product(range(3), repeat=2):
        for o3a in product(range(3), repeat=2):
            o3b = ((o1[0] + o3a[1]) % 3, (o1[1] + 2 * o3a[0]) % 3)
            rep = cr.code_route(
                plan, 0, 0, psi,
                forced={(0, 0): o1, (2, 0): o3a, (2, 1): o3b},
            )
            assert rep.side == 0 and rep.fidelity > 1 - 1e-9
            assert rep.hiding_distance < 1e-9


def test_pipe_accounting():
    plan = cr.and_plan(3)
    psi = qudit.DenseState(3, 1, np.eye(3)[0])
    rep = cr.code_route(plan, 1, 1, psi, rng=np.random.default_rng(0))
    # keep: 0 pipes, x-share: 1 pipe, y-share: 2 pipes
    assert rep.pipe_count == 3


def test_ambiguous_plan_rejected():
    # a 2-2 split of a (3, 4) scheme leaves neither side at threshold
    scheme = cr.ThresholdScheme(3, 4, 5)
    plan = cr.CodeRoutingPlan(scheme, ("keep", "keep", "send", "send"))
    psi = qudit.DenseState(5, 1, np.eye(5)[0])
    with pytest.raises(AmbiguousSide):
        cr.code_route(plan, 0, 0, psi, rng=np.random.default_rng(0))


def test_five_share_routing_threshold():
    scheme = cr.ThresholdScheme(3, 5, 5)
    plan = cr.CodeRoutingPlan(
        scheme, ("keep", "keep", ("x", 0), ("x", 0), ("y", 0))
    )
    psi = rand_qudit(5, 9)
    rng = np.random.default_rng(1)
    rep = cr.code_route(plan, 0, 0, psi, rng=rng)   # left holds 1,2,3,4,5
    assert rep.side == 0 and rep.fidelity > 1 - 1e-9
    rep = cr.code_route(plan, 1, 1, psi, rng=rng)   # right holds 3,4,5
    assert rep.side == 1 and rep.fidelity > 1 - 1e-9
    assert rep.hiding_distance < 1e-9
