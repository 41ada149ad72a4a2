"""Garden-hose routing: combinatorics, quantum execution, the transform."""

from itertools import product

import numpy as np
import pytest

from nlqclab import gardenhose as gh
from nlqclab import qudit
from nlqclab.errors import IndexOutOfRange, IOFailure, MalformedMatching, MalformedProgram, UsageError


def rand_qubit(seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=2) + 1j * rng.normal(size=2)
    return qudit.DenseState(2, 1, amp / np.linalg.norm(amp))


AND_TABLE = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
OR_TABLE = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def test_and_strategy_truth_table():
    assert gh.exhaustive_table(gh.and_strategy()) == AND_TABLE


def test_or_strategy_truth_table():
    assert gh.exhaustive_table(gh.or_strategy()) == OR_TABLE


def test_and_path_for_one_zero():
    r = gh.gh_evaluate(gh.and_strategy(), 1, 0)
    assert r.side == 0
    assert r.path == ("Q", "L1", "R1", "R2", "L2")


def test_pipe_counts():
    assert gh.gh_complexity(gh.and_strategy()) == {"pipes": 2, "gh_cost": 2}
    assert gh.gh_complexity(gh.or_strategy()) == {"pipes": 3, "gh_cost": 3}
    empty = gh.GHStrategy(0, 1, 1, {}, {})
    assert gh.gh_complexity(empty) == {"pipes": 0, "gh_cost": 0}


def test_walk_terminates_within_bound():
    s = gh.or_strategy()
    for x, y in product((0, 1), repeat=2):
        r = gh.gh_evaluate(s, x, y)
        assert len(r.path) <= 2 * (2 * s.pipes + 1)


def test_inputs_outside_the_strategy_are_rejected():
    # an x with no matching listed is "no measurement" only inside [0, 2^n_x)
    s = gh.and_strategy()
    for x, y in ((7, 3), (2, 0), (0, 2), (-1, 0)):
        with pytest.raises(IndexOutOfRange):
            gh.gh_evaluate(s, x, y)
        with pytest.raises(IndexOutOfRange):
            gh.gh_quantum_execute(s, x, y, qudit.DenseState(2, 1, np.eye(2)[0]), forced={})


def test_malformed_matching_rejected():
    with pytest.raises(MalformedMatching):
        gh.GHStrategy(2, 1, 1, {1: (("Q", "L1"), ("Q", "L2"))}, {})
    with pytest.raises(MalformedMatching):
        gh.GHStrategy(1, 1, 1, {1: (("Q", "R1"),)}, {})


@pytest.mark.parametrize("strategy,table", [
    (gh.and_strategy(), AND_TABLE),
    (gh.or_strategy(), OR_TABLE),
])
def test_quantum_execution_all_forced_outcomes(strategy, table):
    for x, y in product((0, 1), repeat=2):
        psi = rand_qubit(17 + 2 * x + y)
        pairs = strategy.matched_pairs(x, y)
        route = gh.gh_evaluate(strategy, x, y)
        assert route.side == table[(x, y)]
        outcome_sets = [[(a, b) for a in range(2) for b in range(2)]] * len(pairs)
        total = 0.0
        for outs in product(*outcome_sets):
            forced = {tuple(p): o for p, o in zip(pairs, outs)}
            run = gh.gh_quantum_execute(strategy, x, y, psi, forced=forced)
            assert run.outcome.side == route.side
            assert run.outcome.terminal == route.terminal
            fid = abs(np.vdot(run.terminal_state.amplitudes, psi.amplitudes)) ** 2
            assert fid > 1 - 1e-10
            total += run.probability
        assert abs(total - 1) < 1e-9


def test_zero_pipe_strategy_keeps_q_left():
    z = gh.GHStrategy(0, 1, 1, {}, {})
    psi = rand_qubit(3)
    run = gh.gh_quantum_execute(z, 1, 0, psi, forced={})
    assert run.outcome.side == 0 and run.outcome.terminal == "Q"
    assert abs(np.vdot(run.terminal_state.amplitudes, psi.amplitudes)) ** 2 > 1 - 1e-12


def test_quantum_execution_sampled_outcomes():
    rng = np.random.default_rng(11)
    psi = rand_qubit(5)
    run = gh.gh_quantum_execute(gh.or_strategy(), 0, 0, psi, rng=rng)
    assert run.outcome.side == 0
    assert abs(np.vdot(run.terminal_state.amplitudes, psi.amplitudes)) ** 2 > 1 - 1e-10


def test_unforced_outcome_without_rng_is_a_usage_error():
    with pytest.raises(UsageError):
        gh.gh_quantum_execute(gh.or_strategy(), 0, 0, rand_qubit(5))


def test_qutrit_pipes_also_work():
    s = gh.and_strategy()
    rng = np.random.default_rng(2)
    amp = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi = qudit.DenseState(3, 1, amp / np.linalg.norm(amp))
    run = gh.gh_quantum_execute(s, 1, 1, psi, rng=rng)
    assert run.outcome.side == 1
    assert abs(np.vdot(run.terminal_state.amplitudes, psi.amplitudes)) ** 2 > 1 - 1e-10


def test_strategy_json_round_trip():
    s = gh.or_strategy()
    again = gh.load_strategy_json(gh.dump_strategy_json(s))
    assert gh.exhaustive_table(again) == gh.exhaustive_table(s)
    assert again.pipes == s.pipes


@pytest.mark.parametrize("doc", ["{bad", '{"E": 1, "nx": 1, "ny": 1, "left": []}'])
def test_malformed_strategy_document_is_an_io_failure(doc):
    with pytest.raises(IOFailure):
        gh.load_strategy_json(doc)


# ---------------------------------------------------------------------------
# control programs and the transform
# ---------------------------------------------------------------------------

def test_phase_visibility_enforced():
    with pytest.raises(MalformedProgram):
        gh.ControlProgram(1, 1, 1, (
            gh.Instruction("left", (("y", 0, 1),), ("Q", "L1")),
        ))


@pytest.mark.parametrize("program,table", [
    (gh.and_program(), AND_TABLE),
    (gh.or_program(), OR_TABLE),
])
def test_transform_preserves_truth_table(program, table):
    tracked = gh.interaction_to_preprocessed(program)
    for x, y in product((0, 1), repeat=2):
        assert program.evaluate(x, y) == table[(x, y)]
        assert tracked.evaluate(x, y) == table[(x, y)]
    assert tracked.added_bits <= int(np.ceil(np.log2(program.pipes + 2))) + 2


def test_transform_of_empty_interaction_is_semantic_identity():
    program = gh.and_program()
    assert all(i.phase != "interaction" for i in program.instructions)
    tracked = gh.interaction_to_preprocessed(program)
    assert tracked.tracking_bits >= 1  # register added regardless
    for x, y in product((0, 1), repeat=2):
        assert program.evaluate(x, y) == tracked.evaluate(x, y)


def test_transform_with_interaction_phase_measurements():
    program = gh.ControlProgram(2, 1, 1, (
        gh.Instruction("left", (("x", 0, 1),), ("Q", "L1")),
        gh.Instruction("interaction", (("y", 0, 0),), ("R1", "R2")),
    ))
    tracked = gh.interaction_to_preprocessed(program)
    for x, y in product((0, 1), repeat=2):
        assert program.evaluate(x, y) == tracked.evaluate(x, y) == AND_TABLE[(x, y)]


def test_exhaustive_three_bit_inputs():
    # routing by the parity-ish function f(x, y) = x0 AND y0 on 3-bit strings
    strategy = gh.GHStrategy(
        2, 3, 3,
        {x: (("Q", "L1"),) if x & 1 else () for x in range(8)},
        {y: (("R1", "R2"),) if not (y & 1) else () for y in range(8)},
    )
    for x in range(8):
        for y in range(8):
            assert gh.gh_evaluate(strategy, x, y).side == ((x & 1) & (y & 1))
