"""Protocol surgery: rewriting entanglement into local interaction circuits.

Clifford surgery takes a one-round Clifford protocol in unitary-stage normal
form (pre-stages V, crossing, post-stages W, all generator circuits) and
replaces its shared pairs with locally prepared ones sewn together by Bell
measurements in a small interaction stage; the broadcast outcomes feed Pauli
corrections computed by conjugation through the stage circuits, so the
rewritten protocol implements the same channel exactly.  The interaction's
qudits and gates are counted from the rewritten program's ops.  The normal
form is the deferred-measurement form of ``engine.clifford_protocol``, so
the teleportation wiring is written only there.

PBT surgery handles tasks whose right-hand input is a classical label: the
right stage is replicated onto N locally prepared pair copies and the shared
pairs are replaced by a port-teleportation measurement inside the interaction,
reproducing the original channel as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine, pauli, qudit, teleport
from .errors import DimensionMismatch, NotOneSided

# ---------------------------------------------------------------------------
# deferred-measurement normal form of the Clifford teleportation protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CliffordOneRound:
    """One-round Clifford protocol whose four stages are Clifford circuits.

    ``stages`` holds (register names, circuit) for the V stages b_left and
    b_right, before the crossing, and the W stages c_left and c_right, after
    it, run in that order once the resource pairs (v0[j], v1[j]) are
    appended; the message registers in ``discards`` are dropped at the end.
    """

    d: int
    n_a0: int
    n_a1: int
    pairs: int
    v0: tuple      # resource halves held on the left
    v1: tuple      # resource halves held on the right
    stages: tuple  # ((regs, CliffordCircuit),) * 4
    out_regs: tuple
    discards: tuple
    target: np.ndarray | None = field(repr=False)

    def program(self) -> engine.Program:
        ops = ()
        if self.pairs:
            ops += (engine.AppendOp(self.v0 + self.v1, engine.Resource.pairs(self.d, self.pairs)),)
        ops += tuple(engine.CircuitOp(circ, regs) for regs, circ in self.stages)
        ops += (engine.DiscardOp(self.discards),)
        in_regs = engine.input_names(self.n_a0, self.n_a1)
        return engine.Program(self.d, in_regs, ops, self.out_regs)

    def choi(self) -> np.ndarray:
        return engine.program_choi(self.program())

    def branch_exactness(self, target: np.ndarray):
        return engine.program_exactness(self.program(), target)


def _cz_gates(control: int, target: int, power: int) -> list:
    # CZ^p(c, t) = (I x H) CNOT^p (I x H^-1): circuit order H^-1, CNOT^p, H
    return [
        pauli.CliffordGate("H", (target,), -1),
        pauli.CliffordGate("CNOT", (control, target), power),
        pauli.CliffordGate("H", (target,), 1),
    ]


def _deferred_stage(d: int, stage: tuple, messages: dict) -> tuple:
    """(registers, circuit) running a protocol stage with measurements deferred.

    A Bell measurement of (src, half) becomes CNOT^-1(src, half), H^-1(src)
    and leaves (src, half) as message registers holding (u, v); its outcome
    would be (a, b) = (v, -u), and ``messages`` records the pair under the
    label.  A Pauli correction becomes controlled gates read off its frame
    columns: it undoes frame . (a, b), so u_j controls the exponents of
    column b_j and v_j minus those of column a_j, X parts first.  The
    controlled word's phases are not reproduced; the controls are message
    registers that end up discarded, so the channel is unchanged.
    """
    regs = []

    def at(names) -> list:
        regs.extend(nm for nm in names if nm not in regs)
        return [regs.index(nm) for nm in names]

    gates = []
    for op in stage:
        if isinstance(op, engine.CircuitOp):
            pos = at(op.targets)
            gates += [
                pauli.CliffordGate(g.name, tuple(pos[q] for q in g.targets), g.power)
                for g in op.circuit.gates
            ]
        elif isinstance(op, engine.BellMeasureOp):
            src, half = at(op.pair)
            messages[op.label] = op.pair
            gates += [pauli.CliffordGate("CNOT", (src, half), -1), pauli.CliffordGate("H", (src,), -1)]
        elif isinstance(op, engine.PauliCorrectionOp):
            us = at([messages[label][0] for label in op.labels])
            vs = at([messages[label][1] for label in op.labels])
            tgt = at(op.targets)
            m = len(tgt)
            controls = [(u, op.frame[:, 2 * j + 1] % d) for j, u in enumerate(us)]
            controls += [(v, -op.frame[:, 2 * j] % d) for j, v in enumerate(vs)]
            gates += [
                pauli.CliffordGate("CNOT", (c, t), col[i])
                for c, col in controls for i, t in enumerate(tgt) if col[i]
            ]
            gates += [
                g for c, col in controls for i, t in enumerate(tgt) if col[m + i]
                for g in _cz_gates(c, t, col[m + i])
            ]
        else:
            raise DimensionMismatch(f"no deferred form for {op!r}")
    return tuple(regs), pauli.CliffordCircuit(d, len(regs), tuple(gates))


def clifford_normal_form(circuit: pauli.CliffordCircuit, split: tuple) -> CliffordOneRound:
    """Deferred-measurement form of ``engine.clifford_protocol(circuit, split)``."""
    return normal_form(engine.clifford_protocol(circuit, split))


def normal_form(protocol: engine.OneRoundProtocol) -> CliffordOneRound:
    """Deferred-measurement form of a protocol built by ``engine.clifford_protocol``.

    Each of the protocol's four stages becomes one Clifford circuit on its
    registers (see ``_deferred_stage``): the Bell outcomes ride along as
    message registers, the corrections become controlled generator gates,
    and the messages are discarded at the end.  The channel equals the
    measured protocol's exactly.
    """
    messages = {}
    stages = tuple(_deferred_stage(protocol.d, stage, messages) for stage in protocol.stages)
    k = protocol.meta["pairs"]
    halves = protocol.program.ops[0].names if k else ()  # the resource AppendOp
    return CliffordOneRound(
        protocol.d, protocol.n_a0, protocol.n_a1, k,
        tuple(halves[:k]), tuple(halves[k:]), stages,
        protocol.program.out_regs,
        tuple(u for u, _ in messages.values()) + tuple(v for _, v in messages.values()),
        target=protocol.target,
    )


# ---------------------------------------------------------------------------
# Clifford surgery
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LocalInteractionProtocol:
    """Interaction-form rewrite of a protocol, with broadcast wires.

    ``program`` realizes pre-stages on locally prepared pairs, an
    interaction consisting of Bell measurements (or a port measurement),
    classical broadcast of the outcomes, corrections, and post-stages.
    The interaction's size is counted from the program (``_interaction``).
    """

    program: engine.Program
    resource_pairs: int
    target: np.ndarray | None = field(repr=False)

    @property
    def interaction_qudits(self) -> int:
        return _interaction(self.program)[0]

    @property
    def interaction_gate_count(self) -> int:
        return _interaction(self.program)[1]

    def choi(self) -> np.ndarray:
        """Choi matrix of the program, every branch run on dense tensors.

        The oracle for ``pbt_surgery_choi``, whose closed form builds no PGM.
        """
        return engine.program_choi(self.program)

    def branch_exactness(self, target: np.ndarray):
        return engine.program_exactness(self.program, target)


def _interaction(program: engine.Program) -> tuple:
    """(qudits, gates) of the interaction, counted from the program's ops.

    The interaction measurements are the Bell and port measurements that
    touch no input register; its qudits are the registers they consume.
    Each counts 4 gates (H, CNOT and two single-qudit measurements) if Bell
    and none if a port measurement, whose POVM is not decomposed into
    generators; a gate or circuit on interaction registers not yet measured
    adds its gates.
    """

    def measured(op) -> set:
        if isinstance(op, engine.BellMeasureOp):
            return set(op.pair)
        if isinstance(op, engine.PortMeasureOp):
            return set(op.input_regs).union(*op.port_groups)
        return set()

    sewing = [op for op in program.ops if measured(op) and not measured(op) & set(program.in_regs)]
    live = set().union(*map(measured, sewing))
    qudits, gates = len(live), 0
    for op in program.ops:
        if op in sewing:
            gates += 4 if isinstance(op, engine.BellMeasureOp) else 0
            live -= measured(op)
        elif isinstance(op, (engine.GateOp, engine.CircuitOp)) and set(op.targets) <= live:
            gates += len(op.circuit.gates) if isinstance(op, engine.CircuitOp) else 1
    return qudits, gates


def clifford_surgery(cnf: CliffordOneRound) -> LocalInteractionProtocol:
    """Replace shared pairs by local ones sewn inside an interaction stage.

    Each resource pair becomes two local pairs whose inner halves meet in a
    Bell measurement.  Sewing Phi(v0, s0) (x) Phi(s1, v1) with outcome
    (a, b) on (s0, s1) leaves (I (x) X^a Z^b)|Phi+> on (v0, v1) up to
    phase, so the outcome is the Weyl twist of the sewn pair; it is
    conjugated through the right V stage and undone before the W stages.
    The interaction is the k sewing measurements: 2k qudits and 4k gates.
    """
    d, k = cnf.d, cnf.pairs
    s0 = [f"s0_{j}" for j in range(k)]
    s1 = [f"s1_{j}" for j in range(k)]
    labels = tuple(f"w_{j}" for j in range(k))
    stage_ops = [engine.CircuitOp(circ, regs) for regs, circ in cnf.stages]
    regs_right, v_right = cnf.stages[1]  # the V stage holding the v1 halves

    # sew first: the interaction measurements commute with the V stages and
    # collapsing the inner halves early keeps the working tensor small
    ops = ()
    if k:
        left_pairs = engine.Resource.pairs(d, k)
        ops += (engine.AppendOp(cnf.v0 + tuple(s0), left_pairs),)
        ops += (engine.AppendOp(tuple(s1) + cnf.v1, left_pairs),)
        ops += tuple(engine.BellMeasureOp((s0[j], s1[j]), labels[j]) for j in range(k))
    ops += tuple(stage_ops[:2])
    if k:
        sewn = [regs_right.index(v) for v in cnf.v1]
        frame = pauli.conjugation_frame(v_right, sewn, range(len(regs_right)))
        ops += (engine.PauliCorrectionOp(labels, regs_right, frame),)
    ops += tuple(stage_ops[2:]) + (engine.DiscardOp(cnf.discards),)
    program = engine.Program(d, engine.input_names(cnf.n_a0, cnf.n_a1), ops, cnf.out_regs)
    return LocalInteractionProtocol(program, resource_pairs=k, target=cnf.target)


@dataclass(frozen=True)
class ComplexityReport:
    interaction_qudits: int
    interaction_gate_count: int
    resource_pairs: int
    footprint_law: bool  # n' == 2 * pairs
    gate_bound: bool     # gates <= 4 * pairs


def complexity_report(lp: LocalInteractionProtocol) -> ComplexityReport:
    """n', gate count and pair count, with the construction-level relations.

    n' and the gate count are counted from the program's interaction ops;
    Clifford surgery should realize n' = 2 * pairs and at most 4 counted
    operations per pair.  The raw numbers are reported too, so either
    reading of the pairs-versus-registers relation can be checked downstream.
    """
    return ComplexityReport(
        lp.interaction_qudits,
        lp.interaction_gate_count,
        lp.resource_pairs,
        lp.interaction_qudits == 2 * lp.resource_pairs,
        lp.interaction_gate_count <= 4 * lp.resource_pairs,
    )


# ---------------------------------------------------------------------------
# one-sided tasks and PBT surgery
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OneSidedTask:
    """Unitary family indexed by a classical label held on the right."""

    d: int
    n_a: int
    unitaries: dict  # label -> unitary on d**n_a

    def __post_init__(self):
        dim = self.d**self.n_a
        for x, u in self.unitaries.items():
            if np.shape(u) != (dim, dim) or not qudit.is_unitary(u):
                raise DimensionMismatch(f"family member {x!r} is not unitary")


@dataclass(frozen=True, eq=False)
class OneSidedProtocol:
    """Teleport-through-a-twisted-pair protocol for a one-sided task.

    The left party holds the quantum input and Bell-measures it against its
    halves of E shared pairs; the right party, knowing x, applies U^x to its
    halves and sends them left; the left undoes the teleportation Pauli
    conjugated through U^x.  Exact for every x and outcome.
    """

    task: OneSidedTask
    e_pairs: int

    def __post_init__(self):
        if self.e_pairs != self.task.n_a:
            raise NotOneSided("this construction uses one pair per input qudit")

    def program(self, x) -> engine.Program:
        d, n = self.task.d, self.task.n_a
        u = np.asarray(self.task.unitaries[x], dtype=complex)
        a = engine.input_names(n)
        v0 = tuple(f"V0_{j}" for j in range(n))
        v1 = tuple(f"V1_{j}" for j in range(n))
        labels = tuple(f"x_{j}" for j in range(n))
        ops = (engine.AppendOp(v0 + v1, engine.Resource.pairs(d, n)), engine.GateOp(u, v1))
        ops += tuple(engine.BellMeasureOp((a[j], v0[j]), labels[j]) for j in range(n))
        return engine.Program(d, a, ops + _undo(u, labels, v1), v1)

    def choi(self, x) -> np.ndarray:
        return engine.program_choi(self.program(x))


def _undo(u: np.ndarray, labels: tuple, regs: tuple) -> tuple:
    """Ops for U W^dag U^dag on ``regs``, undoing the Bell outcomes' Paulis W after U."""
    return (engine.GateOp(u.conj().T, regs),) + engine.hop_undos(labels, regs) + (engine.GateOp(u, regs),)


def pbt_surgery(
    task: OneSidedTask,
    protocol: OneSidedProtocol,
    n_ports: int,
) -> dict:
    """Localize a one-sided protocol at a chosen port count.

    Returns per-label LocalInteractionProtocol objects.  The right stage is
    applied to each of N locally prepared pair copies; the interaction
    port-teleports the left pair's inner half against the copies' inner
    halves and broadcasts the port index; outputs keep only that port.
    """
    if protocol.task is not task:
        if set(protocol.task.unitaries) != set(task.unitaries):
            raise NotOneSided("protocol does not implement the given task")
    d, n = task.d, task.n_a
    e = protocol.e_pairs
    a = engine.input_names(n)
    v0 = tuple(f"V0_{j}" for j in range(e))
    vl = tuple(f"VL_{j}" for j in range(e))
    ports_c = tuple(tuple(f"C{i}_{j}" for j in range(e)) for i in range(n_ports))
    ports_y = tuple(tuple(f"Y{i}_{j}" for j in range(e)) for i in range(n_ports))
    labels = tuple(f"x_{j}" for j in range(e))
    out_names = tuple(f"B_{j}" for j in range(e))

    # everything but the label's unitary is the same program for every label
    pairs = engine.Resource.pairs(d, e)
    appends = (engine.AppendOp(v0 + vl, pairs),)
    appends += tuple(engine.AppendOp(c + y, pairs) for c, y in zip(ports_c, ports_y))
    measures = tuple(engine.BellMeasureOp((a[j], v0[j]), labels[j]) for j in range(e))
    measures += (
        engine.PortMeasureOp("port", vl, ports_c, teleport.PBTParams(d**e, n_ports)),
        engine.SelectPortOp("port", ports_y, out_names),
        engine.DiscardOp(vl + tuple(nm for g in ports_c for nm in g)),
    )
    out = {}
    for x, u in task.unitaries.items():
        u = np.asarray(u, dtype=complex)
        ops = appends + tuple(engine.GateOp(u, y) for y in ports_y) + measures + _undo(u, labels, out_names)
        program = engine.Program(d, a, ops, out_names)
        out[x] = LocalInteractionProtocol(program, resource_pairs=e, target=u)
    return out


def pbt_surgery_choi(lp: LocalInteractionProtocol) -> np.ndarray:
    """Choi matrix of a protocol built by ``pbt_surgery``, in closed form.

    Bell branch x hands the port measurement W_x psi.  The PGM port channel
    is the depolarizing channel Delta_F with F = ``teleport.pgm_fidelity``
    at the ``PortMeasureOp``'s (d_a, N), Delta_F commutes with W_x, and the
    correction U W_x^dagger U^dagger leaves U . Delta_F on every branch; see
    ``engine.bk_choi``.  No PGM is built.  ``lp.choi()`` is the dense oracle.
    Raises ``DimensionMismatch`` unless the program has exactly one port
    measurement and ``lp.target`` is a unitary on its d_a.
    """
    ports = [op for op in lp.program.ops if isinstance(op, engine.PortMeasureOp)]
    if len(ports) != 1:
        raise DimensionMismatch(f"need one port measurement, the program has {len(ports)}")
    if lp.target is None:
        raise DimensionMismatch("the protocol has no target unitary")
    params = ports[0].params
    if np.shape(lp.target) != (params.d_a, params.d_a):
        raise DimensionMismatch(
            f"target of shape {np.shape(lp.target)} does not act on d_a = {params.d_a}"
        )
    fid = teleport.pgm_fidelity(params.d_a, params.n_ports)
    return teleport.depolarizing_choi(qudit.choi_of_unitary(lp.target), fid)
