"""Both sweeps on seeded random all-Clifford programs that no builder makes.

Each program mixes pair appends, circuits on random register subsets,
Bell measurements (some of two registers whose Bell state is known, so
that their outcome is fixed), Pauli corrections with random frames over
earlier outcomes, discards and a shuffled output order.  Against a random
target, the stabilizer sweep and the dense oracle must give the same rows
to ``assert_rows_agree``'s tolerances, or raise the same typed error.
"""

import numpy as np
import pytest

from nlqclab import engine, pauli
from nlqclab.errors import NlqcError

from test_tableau import assert_rows_agree, dense_rows, tableau_rows

MAX_LIVE = 6
# live plus input registers: the stabilizer path's distances act on a vector of d**that entries
MAX_CHOI_REGISTERS = {2: 8, 3: 8, 5: 6}
MAX_MEASUREMENTS = {2: 4, 3: 3, 5: 2}  # keeps the dense sweep to a few hundred branches
KINDS = ("append", "circuit", "measure", "fixed", "correct", "discard")
WEIGHTS = (0.25, 0.25, 0.12, 0.12, 0.18, 0.08)


def random_program(rng: np.random.Generator) -> engine.Program:
    d = int(rng.choice([2, 3, 5]))
    inputs = tuple(f"a{i}" for i in range(int(rng.integers(1, 3))))
    live, labels, ops = list(inputs), [], []
    partner = {}  # halves of a Bell state |Phi+> up to a Pauli on one half
    fresh = iter(range(10**6))

    def forget(regs):
        for r in regs:
            q = partner.pop(r, None)
            partner.pop(q, None)

    def pick(k):
        return [str(r) for r in rng.choice(live, k, replace=False)]

    for _ in range(int(rng.integers(3, 10))):
        kind = KINDS[rng.choice(len(KINDS), p=WEIGHTS)]
        measurable = len(labels) < MAX_MEASUREMENTS[d]
        room = min(MAX_LIVE, MAX_CHOI_REGISTERS[d] - len(inputs)) - len(live)
        if kind == "append" and room >= 2:
            k = int(rng.integers(1, room // 2 + 1))
            left = [f"l{next(fresh)}" for _ in range(k)]
            right = [f"r{next(fresh)}" for _ in range(k)]
            ops.append(engine.AppendOp(tuple(left + right), engine.Resource.pairs(d, k)))
            live += left + right
            partner.update(zip(left, right))
            partner.update(zip(right, left))
        elif kind == "circuit" and live:
            targets = pick(int(rng.integers(1, min(3, len(live)) + 1)))
            circuit = pauli.random_clifford(
                len(targets), d, seed=int(rng.integers(2**31)), length=int(rng.integers(1, 6)),
            )
            ops.append(engine.CircuitOp(circuit, tuple(targets)))
            forget(targets)
        elif kind in ("measure", "fixed") and measurable and len(live) >= 2:
            if kind == "fixed" and partner:
                x = str(rng.choice(sorted(partner)))
                pair = [x, partner[x]]
            else:
                pair = pick(2)
            x, y = pair
            if x in partner and y in partner and partner[x] != y:
                # entanglement swapping: the partners are left in a Bell state
                p, q = partner[x], partner[y]
                forget(pair)
                partner.update({p: q, q: p})
            else:
                forget(pair)
            label = f"m{len(labels)}"
            ops.append(engine.BellMeasureOp(tuple(pair), label))
            labels.append(label)
            live = [r for r in live if r not in pair]
        elif kind == "correct" and labels and live:
            reads = [str(lb) for lb in rng.choice(labels, int(rng.integers(1, min(2, len(labels)) + 1)),
                                                  replace=False)]
            targets = pick(int(rng.integers(1, min(2, len(live)) + 1)))
            frame = rng.integers(0, d, size=(2 * len(targets), 2 * len(reads)))
            ops.append(engine.PauliCorrectionOp(tuple(reads), tuple(targets), frame))
        elif kind == "discard" and live:
            (r,) = pick(1)
            ops.append(engine.DiscardOp((r,)))
            forget([r])
            live.remove(r)
    rng.shuffle(live)
    return engine.Program(d, inputs, tuple(ops), tuple(live))


def random_target(program: engine.Program, rng: np.random.Generator) -> np.ndarray:
    shape = (program.d ** len(program.out_regs), program.d ** len(program.in_regs))
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rows_or_error(sweep, program, target):
    try:
        return sweep(program, target), None
    except NlqcError as exc:
        return None, type(exc)


@pytest.mark.parametrize("block", range(8))
def test_both_sweeps_agree_on_random_programs(block):
    for i in range(25 * block, 25 * (block + 1)):
        rng = np.random.default_rng([21, i])
        program = random_program(rng)
        target = random_target(program, rng)
        assert engine.is_clifford_program(program)
        dense, dense_error = rows_or_error(dense_rows, program, target)
        tableau, tableau_error = rows_or_error(tableau_rows, program, target)
        assert dense_error == tableau_error, (i, program)
        if dense_error is None:
            assert_rows_agree(dense, tableau)
