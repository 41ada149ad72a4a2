"""Protocol surgery: rewriting entanglement into local interaction circuits.

Clifford surgery takes a one-round Clifford protocol in unitary-stage normal
form (pre-stages V, crossing, post-stages W, all generator circuits) and
replaces its shared pairs with locally prepared ones sewn together by Bell
measurements in a small interaction stage; the broadcast outcomes feed Pauli
corrections computed by conjugation through the stage circuits, so the
rewritten protocol implements the same channel exactly.  The interaction
touches 2 pairs-worth of qudits and counts one Hadamard, one CNOT and two
single-qudit measurements per pair.

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
# unitary-stage normal form for Clifford protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CliffordOneRound:
    """One-round Clifford protocol with unitary stages and explicit wiring.

    The V stages act on (inputs + resource halves + ancillas); their
    registers partition into kept and crossed groups.  The W stages act on
    the explicit ``w_left_regs``/``w_right_regs`` lists and the declared
    message registers are discarded at the end.  With ``message_copies``
    the broadcast is modelled by CNOT-copied ancillas so each output stage
    reads its own copy; without them both stages read the same registers,
    which leaves the channel unchanged.
    """

    d: int
    n_a0: int
    n_a1: int
    pairs: int
    regs_left: tuple
    regs_right: tuple
    anc_left: tuple       # |0> ancillas inside regs_left
    v0: tuple             # resource halves inside regs_left
    v1: tuple             # resource halves inside regs_right
    v_left: pauli.CliffordCircuit
    v_right: pauli.CliffordCircuit
    keep_left: tuple
    cross_left: tuple
    keep_right: tuple
    cross_right: tuple
    w_left_regs: tuple
    w_right_regs: tuple
    w_left: pauli.CliffordCircuit
    w_right: pauli.CliffordCircuit
    out_left: tuple
    out_right: tuple
    discards: tuple
    target: np.ndarray | None = field(default=None, repr=False)

    @property
    def out_regs(self) -> tuple:
        return tuple(self.out_left) + tuple(self.out_right)

    def program(self) -> engine.Program:
        d = self.d
        ops = []
        if self.pairs:
            vec = engine.Resource.pairs(d, self.pairs).state
            ops.append(engine.AppendOp(tuple(self.v0) + tuple(self.v1), vec))
        if self.anc_left:
            z = np.zeros(d ** len(self.anc_left), dtype=complex)
            z[0] = 1.0
            ops.append(engine.AppendOp(tuple(self.anc_left), z))
        ops += [
            engine.CircuitOp(self.v_left, tuple(self.regs_left)),
            engine.CircuitOp(self.v_right, tuple(self.regs_right)),
            engine.CircuitOp(self.w_left, tuple(self.w_left_regs)),
            engine.CircuitOp(self.w_right, tuple(self.w_right_regs)),
            engine.DiscardOp(tuple(self.discards)),
        ]
        a0, a1 = engine._a_names(self.n_a0, self.n_a1)
        return engine.Program(d, tuple(a0 + a1), (), tuple(ops), self.out_regs)

    def choi(self) -> np.ndarray:
        # the messages end in a product state, which the column path checks
        return engine.program_choi(self.program(), method="columns")

    def branch_exactness(self, target: np.ndarray):
        return engine.program_exactness(self.program(), target)


def _cz_gates(control: int, target: int, power: int) -> list:
    # CZ^p(c, t) = (I x H) CNOT^p (I x H^-1): circuit order H^-1, CNOT^p, H
    return [
        pauli.CliffordGate("H", (target,), -1),
        pauli.CliffordGate("CNOT", (control, target), power),
        pauli.CliffordGate("H", (target,), 1),
    ]


def _controlled_word_gates(d, coeffs_x, coeffs_z) -> list:
    """Gates applying X^(c*cx) Z^(c*cz) on targets controlled by registers.

    ``coeffs_x[(ctrl, tgt)]`` holds the X exponent multiplier for the value
    of control slot ``ctrl`` acting on target slot ``tgt``; likewise for Z.
    Phases of the controlled word are not reproduced; the controls are
    message registers that end up discarded, so the channel is unchanged.
    """
    gates = []
    for (ctrl, tgt), c in sorted(coeffs_x.items()):
        if c % d:
            gates.append(pauli.CliffordGate("CNOT", (ctrl, tgt), c % d))
    for (ctrl, tgt), c in sorted(coeffs_z.items()):
        if c % d:
            gates.extend(_cz_gates(ctrl, tgt, c % d))
    return gates


def clifford_normal_form(
    circuit: pauli.CliffordCircuit,
    split: tuple,
    decomposition: engine.InteractionDecomposition | None = None,
    message_copies: bool = False,
) -> CliffordOneRound:
    """Teleportation protocol for a Clifford, with all stages as circuits.

    Bell measurements are deferred: the measurement pre-rotation joins the
    V stage, the would-be outcomes ride along as message registers,
    corrections become controlled generator gates in the W stages, and the
    messages are discarded at the end.  The channel equals the measured
    protocol's exactly.
    """
    n0, n1 = split
    if n0 + n1 != circuit.n:
        raise DimensionMismatch("split does not cover the circuit register")
    dec = decomposition or engine.reduce_circuit(circuit, n0)
    d = circuit.d
    core = dec.core
    tele_side = 0 if dec.n0_core <= dec.n1_core else 1
    if tele_side == 1:
        return _mirror_normal_form(circuit, split, message_copies)
    k = min(dec.n0_core, dec.n1_core)
    slots = dec.core_slots()

    a0 = [f"a0_{i}" for i in range(n0)]
    a1 = [f"a1_{i}" for i in range(n1)]
    v0 = [f"V0_{j}" for j in range(k)]
    v1 = [f"V1_{j}" for j in range(k)]
    anc = [f"m_{j}" for j in range(2 * k)] if message_copies else []

    side0 = {q: a0[q] for q in range(n0)}
    side1 = {q: a1[q - n0] for q in range(n0, n0 + n1)}
    tele = list(dec.core0)
    own_slots = {q: slots[q] for q in dec.core0 + dec.core1}

    regs_left = a0 + v0 + anc
    pos_l = {nm: i for i, nm in enumerate(regs_left)}
    gates_l = [
        pauli.CliffordGate(g.name, tuple(pos_l[a0[q]] for q in g.targets), g.power)
        for g in dec.pre_left.gates
    ]
    for j, q in enumerate(tele):
        cq, lv = pos_l[side0[q]], pos_l[v0[j]]
        gates_l.append(pauli.CliffordGate("CNOT", (cq, lv), -1))
        gates_l.append(pauli.CliffordGate("H", (cq,), -1))
        if message_copies:
            gates_l.append(pauli.CliffordGate("CNOT", (cq, pos_l[anc[2 * j]]), 1))
            gates_l.append(pauli.CliffordGate("CNOT", (lv, pos_l[anc[2 * j + 1]]), 1))
    v_left = pauli.CliffordCircuit(d, len(regs_left), tuple(gates_l))

    regs_right = a1 + v1
    pos_r = {nm: i for i, nm in enumerate(regs_right)}
    core_targets = [None] * core.n
    for j, q in enumerate(tele):
        core_targets[slots[q]] = v1[j]
    for q in dec.core1:
        core_targets[slots[q]] = side1[q]
    gates_r = [
        pauli.CliffordGate(g.name, tuple(pos_r[a1[q]] for q in g.targets), g.power)
        for g in dec.pre_right.gates
    ]
    gates_r += [
        pauli.CliffordGate(g.name, tuple(pos_r[core_targets[s]] for s in g.targets), g.power)
        for g in core.gates
    ]
    v_right = pauli.CliffordCircuit(d, len(regs_right), tuple(gates_r))

    msg_u = [side0[q] for q in tele]  # post-rotation core registers
    msg_v = list(v0)                  # post-rotation pair halves

    keep_left = tuple(nm for nm in a0 if nm not in set(msg_u)) + tuple(msg_u) + tuple(msg_v)
    cross_left = tuple(anc)
    keep_right = tuple(a1)
    cross_right = tuple(v1)

    # message value (u_j, v_j) encodes Bell outcome (a_j, b_j) = (v_j, -u_j)
    unit_a = [
        pauli.conjugate_pauli(core, pauli.PauliWord.single(d, core.n, slots[q], 1, 0))
        for q in tele
    ]
    unit_b = [
        pauli.conjugate_pauli(core, pauli.PauliWord.single(d, core.n, slots[q], 0, 1))
        for q in tele
    ]

    def correction_coeffs(target_qudits, msg_pos, target_pos):
        cx, cz = {}, {}
        for j in range(k):
            ru, rv = msg_pos[2 * j], msg_pos[2 * j + 1]
            for q in target_qudits:
                s = own_slots[q]
                t = target_pos[q]
                # exponents of the undo word: a_j couples through unit_a,
                # b_j through unit_b, with (a_j, b_j) = (v_j, -u_j)
                cx[(rv, t)] = cx.get((rv, t), 0) - unit_a[j].x[s]
                cx[(ru, t)] = cx.get((ru, t), 0) + unit_b[j].x[s]
                cz[(rv, t)] = cz.get((rv, t), 0) - unit_a[j].z[s]
                cz[(ru, t)] = cz.get((ru, t), 0) + unit_b[j].z[s]
        return cx, cz

    # left output stage reads the kept originals
    wl_regs = list(keep_left) + list(cross_right)
    wl_pos = {nm: i for i, nm in enumerate(wl_regs)}
    msg_pos_l = {}
    for j in range(k):
        msg_pos_l[2 * j] = wl_pos[msg_u[j]]
        msg_pos_l[2 * j + 1] = wl_pos[msg_v[j]]
    target_pos_l = {q: wl_pos[v1[tele.index(q)]] for q in dec.core0}
    cx, cz = correction_coeffs(dec.core0, msg_pos_l, target_pos_l)
    gates_wl = _controlled_word_gates(d, cx, cz)
    out_slot_l = {
        q: (v1[tele.index(q)] if q in dec.core0 else side0[q]) for q in range(n0)
    }
    gates_wl += [
        pauli.CliffordGate(g.name, tuple(wl_pos[out_slot_l[q]] for q in g.targets), g.power)
        for g in dec.post_left.gates
    ]
    w_left = pauli.CliffordCircuit(d, len(wl_regs), tuple(gates_wl))

    # right output stage reads the copies if present, the originals if not
    if message_copies:
        wr_regs = list(keep_right) + list(cross_left)
        right_msgs = list(anc)
    else:
        wr_regs = list(keep_right) + msg_u + msg_v
        right_msgs = msg_u + msg_v
    wr_pos = {nm: i for i, nm in enumerate(wr_regs)}
    msg_pos_r = {}
    for j in range(k):
        msg_pos_r[2 * j] = wr_pos[right_msgs[2 * j] if message_copies else msg_u[j]]
        msg_pos_r[2 * j + 1] = wr_pos[right_msgs[2 * j + 1] if message_copies else msg_v[j]]
    target_pos_r = {q: wr_pos[side1[q]] for q in dec.core1}
    cx, cz = correction_coeffs(dec.core1, msg_pos_r, target_pos_r)
    gates_wr = _controlled_word_gates(d, cx, cz)
    gates_wr += [
        pauli.CliffordGate(g.name, tuple(wr_pos[a1[q]] for q in g.targets), g.power)
        for g in dec.post_right.gates
    ]
    w_right = pauli.CliffordCircuit(d, len(wr_regs), tuple(gates_wr))

    out_left = tuple(out_slot_l[q] for q in range(n0))
    out_right = tuple(a1)
    discards = tuple(msg_u) + tuple(msg_v) + tuple(anc)

    return CliffordOneRound(
        d, n0, n1, k,
        tuple(regs_left), tuple(regs_right), tuple(anc), tuple(v0), tuple(v1),
        v_left, v_right,
        keep_left, cross_left, keep_right, cross_right,
        tuple(wl_regs), tuple(wr_regs), w_left, w_right,
        out_left, out_right, discards,
        target=circuit.unitary(),
    )


def _mirror_normal_form(circuit, split, message_copies):
    """Build the normal form teleporting the right core leftward."""
    n0, n1 = split
    d = circuit.d
    swapped = pauli.CliffordCircuit(
        d, circuit.n,
        tuple(
            pauli.CliffordGate(
                g.name,
                tuple(q + n1 if q < n0 else q - n0 for q in g.targets),
                g.power,
            )
            for g in circuit.gates
        ),
    )
    nf = clifford_normal_form(swapped, (n1, n0), message_copies=message_copies)
    ren = {}
    for i in range(n1):
        ren[f"a0_{i}"] = f"a1_{i}"
    for i in range(n0):
        ren[f"a1_{i}"] = f"a0_{i}"

    def rn(names):
        return tuple(ren.get(nm, nm) for nm in names)

    return CliffordOneRound(
        d, n0, n1, nf.pairs,
        rn(nf.regs_right), rn(nf.regs_left), rn(nf.anc_left), rn(nf.v1), rn(nf.v0),
        nf.v_right, nf.v_left,
        rn(nf.keep_right), rn(nf.cross_right), rn(nf.keep_left), rn(nf.cross_left),
        rn(nf.w_right_regs), rn(nf.w_left_regs),
        nf.w_right, nf.w_left,
        rn(nf.out_right), rn(nf.out_left),
        rn(nf.discards),
        target=circuit.unitary(),
    )


# ---------------------------------------------------------------------------
# Clifford surgery
# ---------------------------------------------------------------------------

_TWIST_CACHE: dict = {}


def sewing_twist_table(d: int) -> dict:
    """Outcome (a, b) of sewing two fresh pairs -> Weyl twist on the far half.

    Measuring the inner halves of Phi(v0,s0) (x) Phi(s1,v1) in the Bell
    basis leaves (v0,v1) in (I (x) X^alpha Z^beta)|Phi+> up to phase; the
    table records (alpha, beta) per outcome, matched numerically.
    """
    if d in _TWIST_CACHE:
        return _TWIST_CACHE[d]
    bell = qudit.bell_pair(d).amplitudes.reshape(d, d)
    table = {}
    targets = {}
    phi = qudit.max_entangled_tensor(d)
    for al in range(d):
        for be in range(d):
            targets[(al, be)] = (qudit.weyl(d, al, be) @ phi.T).T  # (v0, v1)
    for a in range(d):
        for b in range(d):
            proj = qudit.bell_basis_vector(d, a, b).conj().reshape(d, d)
            # joint[v0, s0, s1, v1]; contract (s0, s1)
            vec = np.einsum("vs,st,tw->vw", bell, proj, bell)
            hit = None
            for key, tgt in targets.items():
                ov = abs(np.vdot(tgt.reshape(-1), vec.reshape(-1)))
                if ov > 0.9 * np.linalg.norm(vec):
                    hit = key
                    break
            if hit is None:
                raise DimensionMismatch("sewing outcome did not match a Weyl twist")
            table[(a, b)] = hit
    _TWIST_CACHE[d] = table
    return table


@dataclass(frozen=True, eq=False)
class LocalInteractionProtocol:
    """Interaction-form rewrite of a protocol, with broadcast wires.

    ``program`` realizes pre-stages on locally prepared pairs, an
    interaction consisting of Bell measurements (or a port measurement),
    classical broadcast of the outcomes, corrections, and post-stages.
    """

    d: int
    program: engine.Program
    out_regs: tuple
    interaction_qudits: int
    interaction_gate_count: int
    resource_pairs: int
    target: np.ndarray | None = field(default=None, repr=False)

    def choi(self) -> np.ndarray:
        return engine.program_choi(self.program)

    def branch_exactness(self, target: np.ndarray):
        return engine.program_exactness(self.program, target)


def clifford_surgery(cnf: CliffordOneRound) -> LocalInteractionProtocol:
    """Replace shared pairs by local ones sewn inside an interaction stage.

    Each resource pair becomes two local pairs whose inner halves meet in a
    Bell measurement; the broadcast outcome fixes a Weyl twist on the sewn
    pair, which is conjugated through the right V stage and undone before
    the W stages.  The interaction acts on 2 * pairs qudits and costs one
    Hadamard, one CNOT and two single-qudit measurements per pair.
    """
    d, k = cnf.d, cnf.pairs
    s0 = [f"s0_{j}" for j in range(k)]
    s1 = [f"s1_{j}" for j in range(k)]
    labels = tuple(f"w_{j}" for j in range(k))
    twist = sewing_twist_table(d)

    v1_slots = {nm: i for i, nm in enumerate(cnf.regs_right)}

    def correction_rule(outcomes):
        x = [0] * len(cnf.regs_right)
        z = [0] * len(cnf.regs_right)
        for j in range(k):
            al, be = twist[tuple(outcomes[labels[j]])]
            s = v1_slots[cnf.v1[j]]
            x[s], z[s] = al, be
        word = pauli.PauliWord(d, len(cnf.regs_right), tuple(x), tuple(z))
        return pauli.conjugate_pauli(cnf.v_right, word).inverse()

    # sew first: the interaction measurements commute with the V stages and
    # collapsing the inner halves early keeps the working tensor small
    ops = ()
    if k:
        left_pairs = engine.Resource.pairs(d, k).state
        ops += (engine.AppendOp(tuple(cnf.v0) + tuple(s0), left_pairs),)
        ops += (engine.AppendOp(tuple(s1) + tuple(cnf.v1), left_pairs),)
        ops += tuple(engine.BellMeasureOp((s0[j], s1[j]), labels[j]) for j in range(k))
    if cnf.anc_left:
        z = np.zeros(d ** len(cnf.anc_left), dtype=complex)
        z[0] = 1.0
        ops += (engine.AppendOp(tuple(cnf.anc_left), z),)
    ops += (
        engine.CircuitOp(cnf.v_left, tuple(cnf.regs_left)),
        engine.CircuitOp(cnf.v_right, tuple(cnf.regs_right)),
    )
    if k:
        ops += (engine.PauliCorrectionOp(labels, tuple(cnf.regs_right), correction_rule),)
    ops += (
        engine.CircuitOp(cnf.w_left, tuple(cnf.w_left_regs)),
        engine.CircuitOp(cnf.w_right, tuple(cnf.w_right_regs)),
        engine.DiscardOp(tuple(cnf.discards)),
    )
    a0, a1 = engine._a_names(cnf.n_a0, cnf.n_a1)
    program = engine.Program(d, tuple(a0 + a1), (), ops, cnf.out_regs)
    return LocalInteractionProtocol(
        d, program, cnf.out_regs,
        interaction_qudits=2 * k,
        interaction_gate_count=4 * k,
        resource_pairs=k,
        target=cnf.target,
    )


@dataclass(frozen=True)
class ComplexityReport:
    interaction_qudits: int
    interaction_gate_count: int
    resource_pairs: int
    footprint_law: bool  # n' == 2 * pairs
    gate_bound: bool     # gates <= 4 * pairs


def complexity_report(lp: LocalInteractionProtocol) -> ComplexityReport:
    """n', gate count and pair count, with the construction-level relations.

    The construction realizes exactly n' = 2 * pairs and at most 4 counted
    operations per pair; both raw numbers are reported so either reading of
    the pairs-versus-registers relation can be checked downstream.
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
            u = np.asarray(u, dtype=complex)
            if u.shape != (dim, dim) or np.abs(u @ u.conj().T - np.eye(dim)).max() > 1e-9:
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
        a = [f"a0_{i}" for i in range(n)]
        v0 = [f"V0_{j}" for j in range(n)]
        v1 = [f"V1_{j}" for j in range(n)]
        labels = tuple(f"x_{j}" for j in range(n))
        init = ((tuple(v0) + tuple(v1), engine.Resource.pairs(d, n).state),)
        ops = (engine.GateOp(u, tuple(v1)),)
        ops += tuple(engine.BellMeasureOp((a[j], v0[j]), labels[j]) for j in range(n))
        ops += (engine.CorrectionOp(labels, tuple(v1), _undo_rule(d, u, labels)),)
        return engine.Program(d, tuple(a), init, ops, tuple(v1))

    def choi(self, x) -> np.ndarray:
        return engine.program_choi(self.program(x))


def _undo_rule(d: int, u: np.ndarray, labels: tuple):
    """Correction rule U W^dag U^dag undoing the Bell outcomes' Weyls W after U."""

    def rule(outcomes):
        w = np.eye(1, dtype=complex)
        for label in labels:
            a, b = outcomes[label]
            w = np.kron(w, qudit.weyl(d, a, b))
        return u @ w.conj().T @ u.conj().T

    return rule


def pbt_surgery(
    task: OneSidedTask,
    protocol: OneSidedProtocol,
    n_ports: int,
    cap_dim: int = teleport.POVM_DIM_CAP,
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
    d_a = d**e
    out = {}
    for x in task.unitaries:
        u = np.asarray(task.unitaries[x], dtype=complex)
        a = [f"a0_{i}" for i in range(n)]
        v0 = [f"V0_{j}" for j in range(e)]
        vl = [f"VL_{j}" for j in range(e)]
        ports_c = [[f"C{i}_{j}" for j in range(e)] for i in range(n_ports)]
        ports_y = [[f"Y{i}_{j}" for j in range(e)] for i in range(n_ports)]
        labels = tuple(f"x_{j}" for j in range(e))

        init = [((tuple(v0) + tuple(vl)), engine.Resource.pairs(d, e).state)]
        for i in range(n_ports):
            init.append(
                ((tuple(ports_c[i]) + tuple(ports_y[i])), engine.Resource.pairs(d, e).state)
            )

        out_names = tuple(f"B_{j}" for j in range(e))
        ops = tuple(engine.GateOp(u, tuple(ports_y[i])) for i in range(n_ports))
        ops += tuple(engine.BellMeasureOp((a[j], v0[j]), labels[j]) for j in range(e))
        ops += (
            engine.PortMeasureOp(
                "port",
                tuple(vl),
                tuple(tuple(g) for g in ports_c),
                teleport.PBTParams(d_a, n_ports),
            ),
            engine.SelectPortOp("port", tuple(tuple(g) for g in ports_y), out_names),
            engine.DiscardOp(tuple(vl) + tuple(nm for g in ports_c for nm in g)),
            engine.CorrectionOp(labels, out_names, _undo_rule(d, u, labels)),
        )
        program = engine.Program(d, tuple(a), tuple(init), ops, out_names)
        out[x] = LocalInteractionProtocol(
            d, program, out_names,
            interaction_qudits=e + n_ports * e,
            interaction_gate_count=0,
            resource_pairs=e,
            target=u,
        )
    return out


def pbt_surgery_choi(lp: LocalInteractionProtocol) -> np.ndarray:
    """Choi of a localized one-sided protocol via the referenced input."""
    return engine.program_choi(lp.program, method="ref")
