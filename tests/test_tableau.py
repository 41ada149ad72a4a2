"""The stabilizer sweep of all-Clifford programs against the dense oracle.

``engine.program_exactness`` sweeps a program whose every op is Clifford on
its Choi stabilizer state (``engine.tableau_branches``).  The oracle is the
dense sweep: ``engine.sweep_branch_maps`` and ``engine.rank1_choi_distance``
on each branch map.  Both must give the same outcomes, the same branch
probabilities to 1e-12 and the same distances to 1e-9, on exact programs and
on broken ones.
"""

import dataclasses

import numpy as np
import pytest

from nlqclab import engine, pauli, qudit, surgery, teleport
from nlqclab.errors import DimensionMismatch, NotClifford

from test_acceptance import PROTOCOL_MIX


def dense_rows(program, target):
    dim = program.d ** len(program.in_regs)
    return {
        tuple(sorted(outcomes.items())): (
            float(np.linalg.norm(m) ** 2) / dim, engine.rank1_choi_distance(m, target),
        )
        for outcomes, m in engine.sweep_branch_maps(program)
    }


def tableau_rows(program, target):
    assert engine.is_clifford_program(program)
    return {
        tuple(sorted(outcomes.items())): (p, dist)
        for outcomes, p, dist in engine.tableau_branches(program, target)
    }


def assert_rows_agree(dense, tableau):
    """The same outcomes, probabilities to 1e-12 and distances to 1e-9."""
    assert dense.keys() == tableau.keys()
    for key, (p, dist) in dense.items():
        assert abs(tableau[key][0] - p) < 1e-12, key
        assert abs(tableau[key][1] - dist) < 1e-9, key


def assert_paths_agree(program, target) -> float:
    """Check the two sweeps branch by branch; return the worst distance."""
    dense, tableau = dense_rows(program, target), tableau_rows(program, target)
    assert_rows_agree(dense, tableau)
    maxd, ptot, count = engine.program_exactness(program, target)
    assert count == len(dense)
    assert maxd == max(dist for _, dist in tableau.values())
    assert abs(ptot - sum(p for p, _ in dense.values())) < 1e-12
    return maxd


def three_programs(circuit, split):
    """The teleportation protocol, its normal form and its surgery, as programs."""
    protocol = engine.clifford_protocol(circuit, split)
    cnf = surgery.clifford_normal_form(circuit, split)
    return protocol.program, cnf.program(), surgery.clifford_surgery(cnf).program


# (d, n, n0, seed) of the acceptance mix and of the test_engine and
# test_surgery grids
ACCEPTANCE_CELLS = [(d, n, n0, 10_000 + i) for i, (d, n, n0) in enumerate(PROTOCOL_MIX)]
ENGINE_CELLS = [
    (d, n, n0, 977 * d + 31 * n + s)
    for d, n, n0 in [(2, 2, 1), (2, 3, 2), (2, 4, 2), (3, 3, 1), (3, 4, 2), (5, 2, 1)]
    for s in range(2)
]
SURGERY_CELLS = [(2, 2, 1, s) for s in range(3)] + [
    (3, 2, 1, 0), (3, 3, 1, 1), (2, 3, 2, 0), (2, 3, 2, 1), (2, 3, 2, 2), (3, 3, 2, 0),
] + [
    (2, 3, 1, 700), (2, 3, 2, 701), (3, 2, 1, 702), (3, 3, 2, 703), (5, 2, 1, 704),
    (2, 4, 2, 12), (2, 2, 1, 5), (3, 4, 2, 77),
]


# the dense sweep of a two-pair qutrit surgery program takes about 30 s:
# the test_surgery cell (3, 4, 2, 77) runs it, these two run only the
# protocol and the normal form
SLOW_DENSE_SURGERY = {(3, 4, 2, 3055), (3, 4, 2, 3056)}


@pytest.mark.parametrize("cells", [ACCEPTANCE_CELLS, ENGINE_CELLS, SURGERY_CELLS],
                         ids=["acceptance", "engine", "surgery"])
def test_tableau_sweep_matches_dense_oracle(cells):
    for d, n, n0, seed in cells:
        circuit = pauli.random_clifford(n, d, seed=seed)
        u = circuit.unitary()
        programs = three_programs(circuit, (n0, n - n0))
        if (d, n, n0, seed) in SLOW_DENSE_SURGERY:
            programs = programs[:2]
        for program in programs:
            assert assert_paths_agree(program, u) < 1e-9


def test_swap_surgery_on_both_paths():
    swap = pauli.CliffordCircuit.from_gate_list(
        2, 2, [("CNOT", (0, 1), 1), ("CNOT", (1, 0), 1), ("CNOT", (0, 1), 1)]
    )
    for program in three_programs(swap, (1, 1)):
        assert assert_paths_agree(program, swap.unitary()) < 1e-9


# ---------------------------------------------------------------------------
# broken programs: distances far from 0 agree too
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,n,n0,seed", [(2, 2, 1, 3), (3, 3, 1, 4), (5, 2, 1, 5), (2, 4, 2, 6)])
def test_target_missing_its_last_gate(d, n, n0, seed):
    circuit = pauli.random_clifford(n, d, seed=seed)
    short = pauli.CliffordCircuit(d, n, circuit.gates[:-1]).unitary()
    for program in three_programs(circuit, (n0, n - n0)):
        assert assert_paths_agree(program, short) > 0.5


OFF_BY_ONE_CELLS = [(2, 2, 1, 7), (3, 3, 2, 8), (5, 2, 1, 9)]


def _x_before_first_correction(program):
    """The program with an X on the first correction's first target just before it."""
    i = next(i for i, op in enumerate(program.ops) if isinstance(op, engine.PauliCorrectionOp))
    x = pauli.CliffordCircuit.from_gate_list(program.d, 1, [("X", (0,))])
    ops = program.ops[:i] + (engine.CircuitOp(x, program.ops[i].targets[:1]),) + program.ops[i:]
    return dataclasses.replace(program, ops=ops)


@pytest.mark.parametrize("d,n,n0,seed", OFF_BY_ONE_CELLS)
def test_correction_off_by_one_x(d, n, n0, seed):
    circuit = pauli.random_clifford(n, d, seed=seed)
    u = circuit.unitary()
    protocol, _, local = three_programs(circuit, (n0, n - n0))
    for program in (protocol, local):
        assert assert_paths_agree(_x_before_first_correction(program), u) > 0.5


def _first_frame_plus_one(protocol):
    """The protocol with 1 added to entry (0, 0) of its first correction's frame."""
    first = next(op for op in protocol.program.ops if isinstance(op, engine.PauliCorrectionOp))
    frame = first.frame.copy()
    frame[0, 0] += 1
    mutant = dataclasses.replace(first, frame=frame)
    swap = lambda ops: tuple(mutant if op is first else op for op in ops)
    return dataclasses.replace(
        protocol,
        stages=tuple(swap(stage) for stage in protocol.stages),
        program=dataclasses.replace(protocol.program, ops=swap(protocol.program.ops)),
    )


@pytest.mark.parametrize("d,n,n0,seed", OFF_BY_ONE_CELLS)
def test_correction_frame_off_by_one(d, n, n0, seed):
    circuit = pauli.random_clifford(n, d, seed=seed)
    u = circuit.unitary()
    mutant = _first_frame_plus_one(engine.clifford_protocol(circuit, (n0, n - n0)))
    assert assert_paths_agree(mutant.program, u) > 0.5
    # the normal form reads the frame columns, so it inherits the mutation: a
    # Pauli error on the (d - 1)/d of outcomes with a_1 != 0, left entangled
    # with the discarded messages, so its Choi matrix is that far from U's
    choi = surgery.normal_form(mutant).choi()
    assert abs(qudit.trace_distance_matrices(choi, qudit.choi_of_unitary(u)) - (d - 1) / d) < 1e-9


def test_discarding_an_entangled_register_raises_on_both_paths():
    circuit = pauli.random_clifford(3, 3, seed=11)
    for program in three_programs(circuit, (1, 2)):
        broken = dataclasses.replace(
            program, ops=program.ops + (engine.DiscardOp(program.out_regs[:1]),),
        )
        assert engine.is_clifford_program(broken)
        with pytest.raises(DimensionMismatch, match="entangled"):
            list(engine.sweep_branch_maps(broken))
        with pytest.raises(DimensionMismatch, match="entangled"):
            engine.program_exactness(broken, circuit.unitary())


@pytest.mark.parametrize("d", [2, 3, 5])
def test_measuring_one_pair_is_deterministic(d):
    # both halves of one |Phi+>: outcome (0, 0) has probability 1, the rest 0
    pair = engine.Resource.pairs(d, 1)
    program = engine.Program(
        d, ("a",),
        (engine.AppendOp(("p", "q"), pair), engine.BellMeasureOp(("p", "q"), "m")),
        ("a",),
    )
    assert assert_paths_agree(program, np.eye(d)) < 1e-12
    assert list(tableau_rows(program, np.eye(d))) == [(("m", (0, 0)),)]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_swapped_pairs_fix_the_second_outcome(d):
    # entanglement swapping: Bell-measuring (l1, l2) leaves (r1, r2) in the
    # Bell state of that outcome, so measuring (r1, r2) next is deterministic
    # and each branch's outcomes meet a constraint spanning both measurements
    pairs = engine.Resource.pairs(d, 2)
    program = engine.Program(d, ("a",), (
        engine.AppendOp(("l1", "l2", "r1", "r2"), pairs),
        engine.BellMeasureOp(("l1", "l2"), "m1"),
        engine.BellMeasureOp(("r1", "r2"), "m2"),
    ), ("a",))
    assert assert_paths_agree(program, np.eye(d)) < 1e-12
    rows = tableau_rows(program, np.eye(d))
    assert len(rows) == d**2
    assert len({dict(key)["m1"] for key in rows}) == d**2
    assert all(abs(p - d**-2) < 1e-15 for p, _ in rows.values())


def test_tableau_path_runs_each_measurement_once(monkeypatch):
    # two qudits teleported at d = 5: 625 outcomes, from one symbolic run
    d = 5
    program = engine.Program(d, ("a", "b"), (
        engine.AppendOp(("L_0", "L_1", "R_0", "R_1"), engine.Resource.pairs(d, 2)),
        engine.BellMeasureOp(("a", "L_0"), "x_0"),
        engine.BellMeasureOp(("b", "L_1"), "x_1"),
    ) + engine.hop_undos(("x_0", "x_1"), ("R_0", "R_1")), ("R_0", "R_1"))
    project_bell, calls = pauli.StabilizerWire.project_bell, []

    def counted(wire, pair):
        calls.append(pair)
        return project_bell(wire, pair)

    monkeypatch.setattr(pauli.StabilizerWire, "project_bell", counted)
    maxd, ptot, count = engine.program_exactness(program, np.eye(d**2))
    assert maxd < 1e-9 and abs(ptot - 1) < 1e-12 and count == d**4
    assert len(calls) == sum(isinstance(op, engine.BellMeasureOp) for op in program.ops)


# ---------------------------------------------------------------------------
# which path runs
# ---------------------------------------------------------------------------

def _one_sided_qutrit():
    """The one-sided program at n_a = 1 for a non-Clifford diagonal qutrit U,
    and U: its undo U W^dag U^dag keeps a correction sequence on the dense path."""
    u = np.diag(np.exp(1j * np.array([0.0, 0.3, 1.1])))
    task = surgery.OneSidedTask(3, 1, {0: u})
    return surgery.OneSidedProtocol(task, 1).program(0), u


def dense_only_programs():
    """(name, program, target) whose ops have no stabilizer form here."""
    h = qudit.hadamard(2)
    plus_i = np.array([1.0, 1.0j]) / np.sqrt(2)
    return [
        ("GateOp", engine.Program(2, ("a",), (engine.GateOp(h, ("a",)),), ("a",)), h),
        ("OneSidedProtocol", *_one_sided_qutrit()),
        ("PortMeasureOp", engine.Program(2, ("a",), (
            engine.AppendOp(("p", "q"), engine.Resource.pairs(2, 1)),
            engine.PortMeasureOp("port", ("p",), (("q",),), teleport.PBTParams(2, 1)),
            engine.DiscardOp(("p", "q")),
        ), ("a",)), np.eye(2)),
        ("AppendOp", engine.Program(
            2, ("a",), (engine.AppendOp(("b",), engine.Resource(2, 1, 0, plus_i)), engine.DiscardOp(("b",))), ("a",),
        ), np.eye(2)),
    ]


@pytest.mark.parametrize("name,program,target", dense_only_programs(),
                         ids=[row[0] for row in dense_only_programs()])
def test_other_ops_take_the_dense_path(monkeypatch, name, program, target):
    assert not engine.is_clifford_program(program)

    def no_tableau(*args):
        raise AssertionError("the tableau sweep ran")

    monkeypatch.setattr(engine, "tableau_branches", no_tableau)
    maxd, ptot, _ = engine.program_exactness(program, target)
    assert maxd < 1e-9 and abs(ptot - 1) < 1e-9


def test_clifford_programs_take_the_tableau_path(monkeypatch):
    circuit = pauli.random_clifford(3, 3, seed=2)
    programs = three_programs(circuit, (1, 2))

    def not_run(*args):
        raise AssertionError("the other path's sweep ran")

    monkeypatch.setattr(engine, "sweep_branch_maps", not_run)
    for program in programs:
        assert engine.is_clifford_program(program)
        maxd, ptot, _ = engine.program_exactness(program, circuit.unitary())
        assert maxd < 1e-9 and abs(ptot - 1) < 1e-12
    # an appended |0> is a stabilizer state, but only Resource.pairs declares
    # generators, so this program takes the dense path
    monkeypatch.undo()
    zero = engine.AppendOp(("b",), engine.Resource(3, 1, 0, np.eye(3)[0]))
    program = dataclasses.replace(programs[0], ops=(zero,) + programs[0].ops + (engine.DiscardOp(("b",)),))
    assert not engine.is_clifford_program(program)
    monkeypatch.setattr(engine, "tableau_branches", not_run)
    assert engine.program_exactness(program, circuit.unitary())[0] < 1e-9


def _undeclared(program):
    """The program with each appended ``Resource.pairs`` rebuilt from its amplitudes alone."""
    ops = tuple(
        engine.AppendOp(op.names, engine.Resource(op.resource.d, op.resource.n_l, op.resource.n_r,
                                                  op.resource.state))
        if isinstance(op, engine.AppendOp) else op
        for op in program.ops
    )
    return dataclasses.replace(program, ops=ops)


@pytest.mark.parametrize("d,n,n0,seed", [(2, 2, 1, 40), (3, 3, 1, 41), (5, 2, 1, 42)])
def test_pair_amplitudes_without_pairs_take_the_dense_path(d, n, n0, seed):
    # the same state, not built by Resource.pairs, declares no pair count:
    # its program runs dense, and its rows are the tableau rows of the original
    circuit = pauli.random_clifford(n, d, seed=seed)
    u = circuit.unitary()
    for program in three_programs(circuit, (n0, n - n0)):
        undeclared = _undeclared(program)
        assert not engine.is_clifford_program(undeclared)
        assert_rows_agree(dense_rows(undeclared, u), tableau_rows(program, u))


def test_both_sweeps_name_an_unknown_register():
    program = engine.Program(2, ("a",), (
        engine.AppendOp(("b", "c"), engine.Resource.pairs(2, 1)),
        engine.BellMeasureOp(("a", "zz"), "m"),
    ), ("b", "c"))
    with pytest.raises(DimensionMismatch, match="'zz'"):
        list(engine.sweep_branch_maps(program))
    with pytest.raises(DimensionMismatch, match="'zz'"):
        list(engine.tableau_branches(program, np.eye(4, 2)))


def test_stabilizer_wire_rejects_other_states():
    wire = pauli.StabilizerWire.pairs(2, ("a",), ("ref_0",))
    with pytest.raises(NotClifford):
        wire.append(engine.Resource(2, 1, 0, np.array([1.0, 1.0]) / np.sqrt(2)), ("b",))
    # the amplitudes of two pairs, in either register order, declare no pairs
    for vec in (engine.Resource.pairs(2, 2).state,
                np.kron(qudit.bell_pair(2).amplitudes, qudit.bell_pair(2).amplitudes)):
        with pytest.raises(NotClifford):
            wire.append(engine.Resource(2, 2, 2, vec), ("b", "c", "e", "f"))
    grown = wire.append(engine.Resource.pairs(2, 2), ("b", "c", "e", "f"))
    assert grown.regs == ["a", "ref_0", "b", "c", "e", "f"] and len(grown.gens) == 6


def test_pauli_words_act_without_their_matrices():
    # the projector of a random stabilizer state, applied word by word,
    # against the dense projector built from the words' matrices
    rng = np.random.default_rng(3)
    for d in (2, 3):
        circuit = pauli.random_clifford(3, d, seed=21 + d)
        wire = pauli.StabilizerWire(d, np.eye(3, 6, 3), ("a", "b", "c"))  # Z on each: |000>
        wire = wire.apply_circuit(circuit, ("a", "b", "c"))
        proj = np.eye(d**3, dtype=complex)
        for row, phase in zip(wire.gens, wire.forms[:, 0]):
            m = pauli.word_matrix(d, row, phase)
            proj = proj @ sum(np.linalg.matrix_power(m, j) for j in range(d)) / d
        vec = rng.normal(size=d**3) + 1j * rng.normal(size=d**3)
        u = vec / np.linalg.norm(vec)
        want = np.linalg.norm(u - proj @ u)
        phases = [wire.forms[:, 0]]
        (dist,) = wire.distances(vec, ["a", "b", "c"], phases)
        assert abs(dist - want) < 1e-12
        # the state is the circuit's first column, up to phase
        col = circuit.unitary()[:, 0]
        assert wire.distances(col, ["a", "b", "c"], phases)[0] < 1e-12
