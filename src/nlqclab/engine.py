"""One-round non-local computation: representation, execution, constructors.

A protocol is compiled to a flat ``Program`` over named registers.  The
executor propagates a wire and enumerates, forces or samples measurement
outcomes; classical outcomes live in a per-branch dict that downstream
corrections read.  Success probabilities and Choi operators are computed by
exact outcome sweeps, never by sampling; ``sample_branch`` runs one seeded
shot.

Every op is data, corrections included.  A Pauli correction's integer frame
over Z_d maps the Bell outcomes it reads linearly to the Pauli word the
outcomes leave on its targets, and the op applies that word's inverse; a
correction that is not Pauli, such as the BK undo U P_x^dagger, is Pauli
corrections followed or framed by ``GateOp``s.

The wire is a dense state tensor (optionally with a column axis carrying
basis inputs, which turns a pure branch into the matrix of the induced
linear map), or, in ``program_exactness`` on a program whose every op is
Clifford (``is_clifford_program``), a ``pauli.StabilizerWire`` holding the
program's Choi state as generator words.  On that wire every Bell outcome
is a pair of variables that the generator phases depend on linearly, so
the same executor runs the program once, with no d**n tensor, and
``tableau_branches`` expands that one run over the outcome grid.  The
dense sweep, which enumerates every outcome, is the oracle for that path
and the path for every other program.

A Bell measurement on the dense wire rotates the measured pair into the
Bell basis once (``qudit.bell_basis``, one (d**2, d**2) matrix product),
whether its outcomes are enumerated, forced or sampled; each outcome's
branch wire is a slice of that rotated tensor.  A port measurement applies
the PGM in factored form (``teleport.PBTInstance``): the measured registers
move to the front of the tensor once, the port-invariant completion is
applied once, and each port costs two thin real matrix products; no dense
POVM element or root is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import pauli, qudit, teleport
from .errors import CapExceeded, DimensionMismatch, IOFailure, UsageError

BRANCH_PRUNE = 1e-22  # squared-norm threshold below which a branch is dropped
BATCH_BUDGET = 2**23  # peak tensor entries a column batch of sweep_branch_maps may reach


# ---------------------------------------------------------------------------
# wires: named-register state tensors
# ---------------------------------------------------------------------------

class Wire:
    """State over named d-dimensional registers with a trailing column axis."""

    __slots__ = ("d", "tensor", "regs")

    def __init__(self, d: int, tensor: np.ndarray, regs):
        self.d = d
        self.regs = list(regs)
        self.tensor = tensor  # shape (d,)*len(regs) + (cols,)

    @classmethod
    def from_matrix(cls, d: int, mat: np.ndarray, regs) -> "Wire":
        """Wire whose tensor is ``mat``, of shape (d**len(regs), cols)."""
        regs = list(regs)
        mat = np.asarray(mat, dtype=complex)
        return cls(d, mat.reshape((d,) * len(regs) + (mat.shape[1],)), regs)

    @property
    def cols(self) -> int:
        return self.tensor.shape[-1]

    def positions(self, names) -> list:
        return [self.regs.index(nm) for nm in names]

    def squared_norm(self) -> float:
        return float(np.linalg.norm(self.tensor) ** 2)

    def apply(self, mat: np.ndarray, names) -> "Wire":
        d = self.d
        pos = self.positions(names)
        k = len(pos)
        t = np.moveaxis(self.tensor, pos, range(k))
        rest = t.shape[k:]
        t = t.reshape(d**k, -1)
        if np.isrealobj(mat):  # acts alike on both parts: one real GEMM on the float view
            t = (np.asarray(mat, dtype=float) @ np.ascontiguousarray(t).view(float)).view(complex)
        else:
            t = np.asarray(mat, dtype=complex) @ t
        t = np.moveaxis(t.reshape((d,) * k + rest), range(k), pos)
        return Wire(d, t, list(self.regs))

    def to_front(self, names) -> "Wire":
        """The same state with ``names`` as its leading registers, contiguous."""
        pos = self.positions(names)
        t = np.ascontiguousarray(np.moveaxis(self.tensor, pos, range(len(pos))))
        return Wire(self.d, t, list(names) + [nm for nm in self.regs if nm not in names])

    def apply_circuit(self, circuit: pauli.CliffordCircuit, names) -> "Wire":
        d = self.d
        w = self
        for g in circuit.gates:
            mat = qudit.gate_matrix(g.name, d, g.power)
            w = w.apply(mat, [names[q] for q in g.targets])
        return w

    def correct(self, op: "PauliCorrectionOp", outcomes) -> "Wire":
        """Apply the Pauli undo ``op`` for this branch's outcomes.

        The outcomes o leave X^x Z^z, (x, z) = frame . o mod d, whose inverse
        is omega**(x.z) X^-x Z^-z: one Weyl matrix per target it moves, then
        the global phase tau**(w x.z) with omega = tau**w.
        """
        d, m = self.d, len(op.targets)
        xz = (op.frame @ [c for label in op.labels for c in outcomes[label]] % d).tolist()
        w = self
        for nm, a, b in zip(op.targets, xz[:m], xz[m:]):
            if a or b:
                w = w.apply(qudit.weyl(d, -a, -b), [nm])
        phase = pauli._omega_units(d) * sum(a * b for a, b in zip(xz[:m], xz[m:])) % pauli._phase_mod(d)
        if phase:  # reduced mod the phase order, so 0 is the identity
            w = Wire(d, w.tensor * pauli.tau(d) ** phase, w.regs)
        return w

    def append(self, vec: np.ndarray, names) -> "Wire":
        """Adjoin registers ``names`` in the pure state ``vec``.

        Raises ``CapExceeded`` before allocating when one column of the
        result would hold more than ``qudit.STATE_ENTRY_CAP`` entries.
        """
        d = self.d
        names = list(names)
        size = d ** (len(self.regs) + len(names))
        if size > qudit.STATE_ENTRY_CAP:
            raise CapExceeded(
                f"appending {len(names)} registers to {len(self.regs)} at d={d} gives "
                f"columns of {size} entries, cap {qudit.STATE_ENTRY_CAP}"
            )
        if np.size(vec) != d ** len(names):
            raise DimensionMismatch(f"state of {np.size(vec)} entries for {len(names)} registers")
        add = np.asarray(vec, dtype=complex).reshape((d,) * len(names))
        t = np.multiply.outer(self.tensor, add)
        # move the column axis back to the end
        col_axis = len(self.regs)
        t = np.moveaxis(t, col_axis, -1)
        return Wire(d, t, self.regs + names)

    def bell_outcomes(self) -> list:
        """Every outcome (a, b) of a Bell measurement."""
        return [(a, b) for a in range(self.d) for b in range(self.d)]

    def project_bell(self, pair):
        """Map from outcome (a, b) to the branch wire of a Bell measurement of ``pair``.

        The pair is rotated into the Bell basis once, one (d**2, d**2) @
        (d**2, rest) product with ``qudit.bell_basis``, and each branch wire
        is row a*d + b of that product.  A branch carries its amplitude (it
        is not renormalized).
        """
        d = self.d
        t = np.moveaxis(self.tensor, self.positions(pair), (0, 1))
        rest = t.shape[2:]
        rotated = qudit.bell_basis(d) @ t.reshape(d * d, -1)
        regs = [nm for nm in self.regs if nm not in pair]
        return lambda ab: Wire(d, rotated[ab[0] * d + ab[1]].reshape(rest), regs)

    def rename(self, mapping) -> "Wire":
        return Wire(self.d, self.tensor, [mapping.get(nm, nm) for nm in self.regs])

    def as_matrix(self, out_names) -> np.ndarray:
        """Reorder to ``out_names`` and flatten to (dim, cols)."""
        if set(out_names) != set(self.regs):
            raise DimensionMismatch(
                f"output registers {out_names} do not match wire {self.regs}"
            )
        pos = self.positions(out_names)
        t = np.moveaxis(self.tensor, pos, range(len(pos)))
        return t.reshape(-1, self.cols)

    def density_keeping(self, keep_names) -> np.ndarray:
        """Partial trace onto ``keep_names``; requires a single column."""
        if self.cols != 1:
            raise DimensionMismatch("density finalize needs a single input column")
        d = self.d
        keep = list(keep_names)
        drop = [nm for nm in self.regs if nm not in keep]
        pos = self.positions(keep + drop)
        t = np.moveaxis(self.tensor, pos, range(len(pos)))
        m = t.reshape(d ** len(keep), d ** len(drop))
        return m @ m.conj().T

    def factor_out(self, names) -> "Wire":
        """Drop registers that are in a product state with the rest.

        The dropped state's phase is fixed, its first entry of at least half
        the largest modulus real and positive, so column batches of one
        branch keep one phase; the SVD's own phase choice varies with the
        columns.
        """
        if not names:
            return self
        d = self.d
        pos = self.positions(names)
        t = np.moveaxis(self.tensor, pos, range(len(pos)))
        m = t.reshape(d ** len(names), -1)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        nrm = np.linalg.norm(s)
        if nrm > 0 and (np.linalg.norm(s[1:]) > qudit.ATOL * nrm):
            raise DimensionMismatch(
                "discarded registers are entangled with the remainder"
            )
        mod = np.abs(u[:, 0])
        lead = u[np.argmax(mod >= mod.max() / 2), 0]
        rest_shape = t.shape[len(names):]
        keep = [nm for nm in self.regs if nm not in names]
        return Wire(d, (s[0] * lead / abs(lead) * vh[0]).reshape(rest_shape), keep)


# ---------------------------------------------------------------------------
# program ops
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GateOp:
    matrix: np.ndarray = field(repr=False)
    targets: tuple


@dataclass(frozen=True, eq=False)
class CircuitOp:
    circuit: pauli.CliffordCircuit
    targets: tuple

    def __post_init__(self):
        if len(self.targets) != self.circuit.n:
            raise DimensionMismatch(f"{self.circuit.n}-register circuit on targets {self.targets}")


@dataclass(frozen=True, eq=False)
class BellMeasureOp:
    pair: tuple
    label: str

    def __post_init__(self):
        if len(self.pair) != 2 or self.pair[0] == self.pair[1]:
            raise DimensionMismatch(f"Bell measurement {self.label!r} on {self.pair}, not two registers")


@dataclass(frozen=True, eq=False)
class PauliCorrectionOp:
    """Undo of the Pauli frame that recorded Bell outcomes leave on targets.

    The outcomes (a_j, b_j) of ``labels`` leave X^x Z^z on ``targets``, with
    (x, z) = frame . (a_1, b_1, ..., a_k, b_k) mod d; the op applies its
    exact inverse.  Every correction is linear in the outcomes, so there is
    no constant column.
    """

    labels: tuple
    targets: tuple
    frame: np.ndarray = field(repr=False)  # int, (2 len(targets), 2 len(labels))

    def __post_init__(self):
        if np.shape(self.frame) != (2 * len(self.targets), 2 * len(self.labels)):
            raise DimensionMismatch(f"frame of shape {np.shape(self.frame)} does not fit {self}")


def hop_undos(labels, targets) -> tuple:
    """One single-hop Pauli undo per teleported qudit: outcome ``labels[j]``
    left X^a Z^b on ``targets[j]``."""
    return tuple(PauliCorrectionOp((lb,), (t,), teleport.hop_frame(1)) for lb, t in zip(labels, targets))


@dataclass(frozen=True, eq=False)
class PortMeasureOp:
    label: str
    input_regs: tuple
    port_groups: tuple  # tuple of register-name tuples
    params: teleport.PBTParams


@dataclass(frozen=True, eq=False)
class SelectPortOp:
    """Keep the port named by an outcome; mark the others for discard."""

    label: str
    port_groups: tuple
    renamed: tuple  # canonical names for the surviving group


@dataclass(frozen=True, eq=False)
class DiscardOp:
    targets: tuple


@dataclass(frozen=True, eq=False)
class AppendOp:
    """Adjoin fresh registers in a given pure state mid-program."""

    names: tuple
    vec: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class Program:
    """Flat op sequence over named d-dimensional registers.

    The program starts on ``in_regs``; every other register, the halves of
    a shared resource included, enters through an ``AppendOp``.  The
    registers left at the end, less the discarded ones, are ``out_regs``.
    """

    d: int
    in_regs: tuple
    ops: tuple
    out_regs: tuple


@dataclass(frozen=True, eq=False)
class Branch:
    outcomes: dict
    wire: Wire
    pending_discards: tuple


def _children(op, wire, outcomes, forced, pgm_cache, rng):
    """Lazily yield (outcomes, branch wire) for each outcome of a measurement.

    The wire is asked once per measurement for a projector, a map from
    outcome to branch wire (``project_bell``, or ``_port_projector`` for
    ports) that does the measurement's shared work once.  A Bell
    measurement's outcomes are the wire's ``bell_outcomes``: all d**2 on a
    dense ``Wire``, one pair of variables on a ``pauli.StabilizerWire``.
    A forced outcome always runs, and raises ``DimensionMismatch`` when its
    probability given the branch so far is below 1e-30.  An unforced outcome
    is drawn with ``rng`` when one is given, by the Born weights of all the
    children; otherwise every outcome is enumerated and, when there is a
    choice, a branch below ``BRANCH_PRUNE`` is pruned.
    """
    if isinstance(op, BellMeasureOp):
        kind, choices = tuple, wire.bell_outcomes()
        project = wire.project_bell(op.pair)
    else:
        kind, choices = int, list(range(op.params.n_ports))
        project = _port_projector(op, wire, pgm_cache)
    if forced is not None and op.label in forced:
        c = kind(forced[op.label])
        w2 = project(c)
        if w2.squared_norm() < 1e-30 * wire.squared_norm():
            raise DimensionMismatch(f"outcome {c!r} of {op.label!r} has zero probability")
        yield {**outcomes, op.label: c}, w2
        return
    if rng is not None:
        wires = [project(c) for c in choices]
        probs = np.array([w.squared_norm() for w in wires])
        i = int(rng.choice(len(choices), p=probs / probs.sum()))
        yield {**outcomes, op.label: choices[i]}, wires[i]
        return
    for c in choices:
        w2 = project(c)
        if len(choices) > 1 and w2.squared_norm() < BRANCH_PRUNE:
            continue
        yield {**outcomes, op.label: c}, w2


def _port_projector(op: PortMeasureOp, wire: Wire, pgm_cache: dict):
    """Map from port i to the branch wire sqrt(Pi_i) applied to ``wire``.

    The measured registers are moved to the front once, and Delta/sqrt(N),
    the same for every port, is applied once; each port then adds
    left_i (right_i^T t), two thin real GEMMs on the float view of the
    tensor t (``teleport.PBTInstance.sqrt_povm``).  Branch wires keep the
    measured registers first.
    """
    groups = (op.input_regs,) + tuple(op.port_groups)
    if len(op.port_groups) != op.params.n_ports or any(
        wire.d ** len(g) != op.params.d_a for g in groups
    ):
        raise DimensionMismatch(
            f"port measurement {op.label!r} on registers {groups} of dimension {wire.d} "
            f"does not match {op.params}"
        )
    key = (op.params.d_a, op.params.n_ports)
    if key not in pgm_cache:
        inst = teleport.build_pgm(op.params)
        pgm_cache[key] = inst, inst.sqrt_povm()
    inst, roots = pgm_cache[key]
    front = wire.to_front([nm for g in groups for nm in g])
    t = front.tensor.reshape(op.params.dim, -1).view(float)
    null = inst.null_part(t) / np.sqrt(op.params.n_ports)

    def project(i):
        left, right = roots[i]
        out = left @ (right.T @ t)
        out += null
        return Wire(wire.d, out.view(complex).reshape(front.tensor.shape), front.regs)

    return project


def _run_ops(ops, wire, forced, pgm_cache, rng):
    """Depth-first branches of ``ops`` applied to ``wire``, without recursion.

    A stack frame holds the next op index, the pending discards and a lazy
    iterator over a measurement's (outcomes, wire) children.  A child is made
    only once the previous outcome's subtree is exhausted, and program
    length is not bounded by the recursion limit.  On a dense wire a Bell
    measurement level keeps one rotated tensor alive, as large as its
    parent, whose slices are the children.
    """
    stack = [(0, (), iter([({}, wire)]))]
    while stack:
        i, pending, children = stack[-1]
        outcomes, wire = next(children, (None, None))
        if wire is None:
            stack.pop()
            continue
        while i < len(ops):
            op = ops[i]
            i += 1
            if isinstance(op, GateOp):
                wire = wire.apply(op.matrix, op.targets)
            elif isinstance(op, CircuitOp):
                wire = wire.apply_circuit(op.circuit, op.targets)
            elif isinstance(op, PauliCorrectionOp):
                wire = wire.correct(op, outcomes)
            elif isinstance(op, (BellMeasureOp, PortMeasureOp)):
                stack.append((i, pending, _children(op, wire, outcomes, forced, pgm_cache, rng)))
                break
            elif isinstance(op, SelectPortOp):
                k = int(outcomes[op.label])
                pending += tuple(nm for j, g in enumerate(op.port_groups) if j != k for nm in g)
                wire = wire.rename(dict(zip(op.port_groups[k], op.renamed)))
            elif isinstance(op, DiscardOp):
                pending += tuple(op.targets)
            elif isinstance(op, AppendOp):
                wire = wire.append(op.vec, op.names)
            else:
                raise DimensionMismatch(f"unknown op {op!r}")
        else:
            yield Branch(outcomes, wire, pending)


def run_program(program: Program, input_mat: np.ndarray, *, extra_regs=()):
    """Yield every branch for the given input columns.

    ``input_mat`` has shape (d**len(in_regs + extra_regs), cols); extra
    registers (a reference system) ride along untouched.
    """
    regs = list(program.in_regs) + list(extra_regs)
    wire = Wire.from_matrix(program.d, input_mat, regs)
    yield from _run_ops(program.ops, wire, None, {}, None)


def sample_branch(program: Program, input_vec, forced=None, rng=None) -> Branch:
    """The one branch picked by ``forced``; other outcomes are drawn with ``rng``.

    ``input_vec`` is a pure state on ``in_regs``.  Each drawn outcome costs
    one ``rng.choice`` over the measurement's outcomes, weighted by Born
    probability.  An outcome that is neither forced nor drawable raises
    ``UsageError``; a forced outcome of zero probability, ``DimensionMismatch``.
    """
    forced = forced or {}
    if rng is None:
        for op in program.ops:
            if isinstance(op, (BellMeasureOp, PortMeasureOp)) and op.label not in forced:
                raise UsageError(f"outcome {op.label!r} is not forced and no rng was given")
    wire = Wire.from_matrix(program.d, np.reshape(input_vec, (-1, 1)), program.in_regs)
    return next(_run_ops(program.ops, wire, forced, {}, rng))


def branch_map(branch: Branch, out_regs) -> np.ndarray:
    """Matrix of a pure branch on the out registers; discards dropped."""
    w = branch.wire
    if branch.pending_discards:
        w = w.factor_out(list(branch.pending_discards))
    return w.as_matrix(list(out_regs))


# ---------------------------------------------------------------------------
# resources
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Resource:
    """Entangled resource on L (x) R with a declared bipartition."""

    d: int
    n_l: int
    n_r: int
    state: np.ndarray = field(repr=False)  # pure amplitude vector
    pair_count: int | None = None

    def __post_init__(self):
        dim = self.d ** (self.n_l + self.n_r)
        size = np.size(self.state)
        if size != dim:
            raise DimensionMismatch(f"resource state has {size} amplitudes, expected {dim}")
        nrm = np.linalg.norm(self.state)
        if abs(nrm - 1.0) > qudit.ATOL:
            raise DimensionMismatch(f"resource state norm {nrm} deviates from 1")

    @classmethod
    def pairs(cls, d: int, k: int) -> "Resource":
        """k maximally entangled pairs; register order L_1..L_k R_1..R_k."""
        if d ** (2 * k) > qudit.STATE_ENTRY_CAP:
            raise CapExceeded(
                f"{k} pairs at d={d} need {d ** (2 * k)} state entries, cap "
                f"{qudit.STATE_ENTRY_CAP}"
            )
        amp = 1.0
        for _ in range(k):  # one 1/sqrt(d) per pair, in order: the kron of k pairs, bit for bit
            amp *= 1.0 / np.sqrt(d)
        return cls(d, k, k, np.diag(np.full(d**k, amp, dtype=complex)).reshape(-1), pair_count=k)

    def account(self) -> "ResourceAccount":
        """Mutual information I(L:R) = 2 S(rho_L) of the pure resource.

        rho_L = M M^dagger, with M the amplitude vector as a d^n_l x d^n_r
        matrix, so the full density matrix is never built.
        """
        m = self.state.reshape(self.d**self.n_l, self.d**self.n_r)
        nats = 2.0 * qudit.von_neumann_entropy(m @ m.conj().T)
        ebits = nats / np.log(2.0)
        return ResourceAccount(self.pair_count, nats, ebits)


@dataclass(frozen=True)
class ResourceAccount:
    """Entanglement bookkeeping; mutual information reported in both units."""

    ebit_count: int | None
    mutual_information_nats: float
    mutual_information_ebits: float


# ---------------------------------------------------------------------------
# one-round protocols
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OneRoundProtocol:
    """Resource + two first-round and two second-round local operations.

    ``stages`` holds the op tuples of b_left, b_right, c_left and c_right.
    The compiled ``program`` appends the resource, runs B_left (x) B_right,
    crosses the messages and runs C_left (x) C_right: its ops are the
    resource ``AppendOp`` followed by the four stages in that order.
    """

    d: int
    n_a0: int
    n_a1: int
    resource: Resource
    stages: tuple
    program: Program
    target: np.ndarray | None = field(repr=False)
    meta: dict = field(compare=False, repr=False)


def input_names(n0: int, n1: int = 0) -> tuple:
    """Input register names: a0_i for the left party, then a1_i for the right."""
    return tuple(f"a0_{i}" for i in range(n0)) + tuple(f"a1_{i}" for i in range(n1))


def assemble_protocol(
    d, n0, n1, resource, stages, out_regs, target, meta=None,
) -> OneRoundProtocol:
    """Wire a resource and four stages into the one-round program.

    The resource halves are named L_i and R_i and enter as the leading
    ``AppendOp`` (none when the resource has no registers); the ops of
    ``stages`` = (b_left, b_right, c_left, c_right) follow in that order.
    ``meta["pairs"]`` is the resource's pair count.
    """
    halves = tuple(f"L_{i}" for i in range(resource.n_l))
    halves += tuple(f"R_{i}" for i in range(resource.n_r))
    ops = (AppendOp(halves, resource.state),) if halves else ()
    ops += tuple(op for stage in stages for op in stage)
    program = Program(d, input_names(n0, n1), ops, tuple(out_regs))
    meta = {**(meta or {}), "pairs": resource.pair_count}
    return OneRoundProtocol(d, n0, n1, resource, tuple(stages), program, target, meta)


def _auto_batch(program: Program) -> int:
    """Column batch size keeping the peak tensor entries under ``BATCH_BUDGET``.

    A Bell measurement holds three tensors of its wire's size at once: the
    wire, the copy with the pair moved to the front and its rotation.
    """
    d = program.d
    live = len(program.in_regs)
    peak = d**live
    for op in program.ops:
        if isinstance(op, AppendOp):
            live += len(op.names)
            peak = max(peak, d**live)
        elif isinstance(op, BellMeasureOp):
            peak = max(peak, 3 * d**live)
            live -= 2
    return int(max(1, min(d ** len(program.in_regs), BATCH_BUDGET // peak)))


def sweep_branch_maps(program: Program):
    """Assembled (outcomes, M) per forced branch, run in column batches.

    M is the unnormalized matrix of the branch map on the program inputs;
    column norms squared are the branch probabilities per basis input.
    Batches keep memory bounded when many registers coexist.
    """
    d = program.d
    dim = d ** len(program.in_regs)
    batch = _auto_batch(program)
    acc: dict = {}
    for start in range(0, dim, batch):
        stop = min(dim, start + batch)
        cols = np.zeros((dim, stop - start), dtype=complex)
        cols[np.arange(start, stop), np.arange(stop - start)] = 1.0
        for br in run_program(program, cols):
            m = branch_map(br, program.out_regs)
            key = tuple(sorted(br.outcomes.items()))
            if key not in acc:
                acc[key] = (dict(br.outcomes), np.zeros((m.shape[0], dim), dtype=complex))
            acc[key][1][:, start:stop] = m
    for outcomes, m in acc.values():
        yield outcomes, m


def program_density(program: Program, input_vec, extra_regs=()) -> np.ndarray:
    """Density on out_regs + extra_regs, summed over every branch.

    ``input_vec`` is a pure state on in_regs + extra_regs; the extra
    registers (a reference system) ride along untouched.  Raises
    ``CapExceeded`` before allocating when the density would hold more than
    ``qudit.STATE_ENTRY_CAP`` entries.
    """
    keep = list(program.out_regs) + list(extra_regs)
    dim = program.d ** len(keep)
    if dim * dim > qudit.STATE_ENTRY_CAP:
        raise CapExceeded(
            f"a density on {len(keep)} registers at d={program.d} has {dim * dim} entries, "
            f"cap {qudit.STATE_ENTRY_CAP}"
        )
    total = np.zeros((dim, dim), dtype=complex)
    inp = np.reshape(input_vec, (-1, 1))
    for br in run_program(program, inp, extra_regs=extra_regs):
        total += br.wire.density_keeping(keep)
    return total


def _ref_names(program: Program) -> list:
    return [f"ref_{i}" for i in range(len(program.in_regs))]


def program_choi(program: Program) -> np.ndarray:
    """Trace-1 Choi matrix of the program channel on its input registers.

    The inputs are fed one half of a maximally entangled state, the other
    half sitting on reference registers ``ref_i``; the output and reference
    registers are kept and everything else is traced out.
    """
    dim = program.d ** len(program.in_regs)
    return program_density(program, qudit.max_entangled_tensor(dim), _ref_names(program))


def rank1_choi_distance(m: np.ndarray, target_u: np.ndarray) -> float:
    """Trace distance between the rank-1 Chois of a pure branch map and U.

    Computed as the norm of the component of the branch vector orthogonal
    to the target vector, which stays accurate near zero (the naive
    sqrt(1 - overlap**2) loses half the working precision there).
    """
    v = m.reshape(-1)
    nv = np.linalg.norm(v)
    if nv < 1e-30:
        return 1.0
    v = v / nv
    u = target_u.reshape(-1)
    u = u / np.linalg.norm(u)
    w = v - np.vdot(u, v) * u
    return float(min(1.0, np.linalg.norm(w)))


def is_clifford_program(program: Program) -> bool:
    """Whether every op has a stabilizer form, so exactness runs on a tableau.

    Circuits, Pauli corrections, Bell measurements and discards do; an
    ``AppendOp`` does when its state is |0...0> or ``Resource.pairs``.
    """
    return qudit.is_prime(program.d) and all(
        isinstance(op, (CircuitOp, PauliCorrectionOp, BellMeasureOp, DiscardOp))
        or (isinstance(op, AppendOp)
            and pauli.stabilizer_generators(program.d, op.vec, len(op.names)) is not None)
        for op in program.ops
    )


def tableau_branches(program: Program, target: np.ndarray):
    """(outcomes, probability, distance) per branch, from one run on the Choi stabilizer state.

    The inputs start paired with ``ref_i`` as in ``program_choi``, and the
    executor runs the program once on that ``pauli.StabilizerWire``, every
    Bell outcome a pair of variables.  That one branch is then expanded
    over the outcome grid Z_d**(2k) (``StabilizerWire.outcome_phases``):
    outcomes that break a constraint have probability 0 and are dropped;
    every other one has the probability d**-r, and outcomes whose
    generators get the same phases are the same state, whose distance is
    computed once; one ``StabilizerWire.distances`` call computes them all
    from tables it builds once.  The distance is ``rank1_choi_distance`` of
    the branch: ||u - P u|| for the target's Choi vector u over out +
    reference registers and the branch's projector P.  Rows come in the
    dense sweep's order.  ``is_clifford_program(program)`` must hold.
    """
    ref = _ref_names(program)
    wire = pauli.StabilizerWire.pairs(program.d, program.in_regs, ref)
    (br,) = _run_ops(program.ops, wire, None, {}, None)
    w = br.wire.factor_out(list(br.pending_discards))
    names = list(program.out_regs) + ref
    grid, phases = w.outcome_phases()
    states, which = np.unique(phases, axis=0, return_inverse=True)
    dists = w.distances(target, names, states)
    for o, k in zip(grid.tolist(), which.reshape(-1).tolist()):
        yield {label: (o[a], o[b]) for label, (a, b) in br.outcomes.items()}, w.norm2, dists[k]


def program_exactness(program: Program, target: np.ndarray):
    """Max per-branch rank-1 Choi distance to target, probability, branches.

    An all-Clifford program is swept on its Choi stabilizer state
    (``tableau_branches``); any other on dense branch maps.
    """
    if is_clifford_program(program):
        rows = [(p, dist) for _, p, dist in tableau_branches(program, target)]
    else:
        dim = program.d ** len(program.in_regs)
        rows = [
            (float(np.linalg.norm(m) ** 2) / dim, rank1_choi_distance(m, target))
            for _, m in sweep_branch_maps(program)
        ]
    return max(dist for _, dist in rows), sum(p for p, _ in rows), len(rows)


def branch_exactness(protocol: OneRoundProtocol, target: np.ndarray):
    """Per-forced-outcome distances to the target plus probability total."""
    return program_exactness(protocol.program, target)


# ---------------------------------------------------------------------------
# interaction decompositions and Protocol-2 style constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InteractionDecomposition:
    """Pre/post local circuits around an interaction core circuit."""

    d: int
    pre_left: pauli.CliffordCircuit
    pre_right: pauli.CliffordCircuit
    core: pauli.CliffordCircuit  # on core0 + core1 slots, original order
    post_left: pauli.CliffordCircuit
    post_right: pauli.CliffordCircuit
    core0: tuple  # original qudit indices entering the core, left side
    core1: tuple

    @property
    def n0_core(self) -> int:
        return len(self.core0)

    @property
    def n1_core(self) -> int:
        return len(self.core1)

    def core_slots(self) -> dict:
        order = sorted(self.core0 + self.core1)
        return {q: i for i, q in enumerate(order)}


def reduce_circuit(circuit: pauli.CliffordCircuit, n0: int) -> InteractionDecomposition:
    """Built-in reduction: peel one-sided prefix/suffix gates, strip idle qudits.

    Gates wholly on one side at the start move into the pre stages, those at
    the end into the post stages; the remaining core keeps only qudits it
    touches.  No search is attempted beyond this.
    """
    d, n = circuit.d, circuit.n
    side = lambda q: 0 if q < n0 else 1

    def one_sided(g):
        return len({side(q) for q in g.targets}) == 1

    gates = list(circuit.gates)
    pre = []
    while gates and one_sided(gates[0]):
        pre.append(gates.pop(0))
    post = []
    while gates and one_sided(gates[-1]):
        post.insert(0, gates.pop())
    core_qudits = sorted({q for g in gates for q in g.targets})
    core0 = tuple(q for q in core_qudits if side(q) == 0)
    core1 = tuple(q for q in core_qudits if side(q) == 1)
    slot = {q: i for i, q in enumerate(core_qudits)}
    core = pauli.CliffordCircuit(
        d, len(core_qudits),
        tuple(pauli.CliffordGate(g.name, tuple(slot[q] for q in g.targets), g.power) for g in gates),
    )

    def side_circuit(glist, which):
        names = [q for q in range(n) if side(q) == which]
        pos = {q: i for i, q in enumerate(names)}
        picked = [g for g in glist if side(g.targets[0]) == which]
        return pauli.CliffordCircuit(
            d, len(names),
            tuple(pauli.CliffordGate(g.name, tuple(pos[q] for q in g.targets), g.power) for g in picked),
        )

    return InteractionDecomposition(
        d,
        side_circuit(pre, 0), side_circuit(pre, 1),
        core,
        side_circuit(post, 0), side_circuit(post, 1),
        core0, core1,
    )


def clifford_protocol(circuit: pauli.CliffordCircuit, split: tuple) -> OneRoundProtocol:
    """One-round protocol implementing a Clifford exactly.

    The smaller core side is Bell-teleported to the other party, who applies
    the interaction core before knowing the outcome; both parties compute
    the propagated Pauli from the broadcast outcome and undo their halves.
    Consumes min(n0', n1') pairs.
    """
    n0, n1 = split
    if n0 < 0 or n1 < 0:
        raise DimensionMismatch(f"split {split} has a negative side")
    if n0 + n1 != circuit.n:
        raise DimensionMismatch("split does not cover the circuit register")
    dec = reduce_circuit(circuit, n0)
    d = circuit.d
    slots = dec.core_slots()
    core = dec.core

    # teleport the smaller core side t toward the far side f; stage slots
    # are [b_left, b_right, c_left, c_right]
    t = 0 if dec.n0_core <= dec.n1_core else 1
    f = 1 - t
    cores = (dec.core0, dec.core1)
    k = len(cores[t])
    pairs = ([f"L_{i}" for i in range(k)], [f"R_{i}" for i in range(k)])
    labels = tuple(f"x_{j}" for j in range(k))
    names = input_names(n0, n1)
    a = (names[:n0], names[n0:])
    qudits = (range(n0), range(n0, n0 + n1))
    side_regs = [dict(zip(qudits[s], a[s])) for s in (0, 1)]
    pre = (dec.pre_left, dec.pre_right)
    post = (dec.post_left, dec.post_right)

    # the core carries the teleported slots' frame onto the core slots of side s
    tele_slots = [slots[q] for q in cores[t]]
    frame = lambda s: pauli.conjugation_frame(core, tele_slots, [slots[q] for q in cores[s]])

    tele_regs = [side_regs[t][q] for q in cores[t]]
    # the far side runs the core with the teleported qudits on its pair halves
    core_targets = [None] * core.n
    for j, q in enumerate(cores[t]):
        core_targets[slots[q]] = pairs[f][j]
    for q in cores[f]:
        core_targets[slots[q]] = side_regs[f][q]
    tele_out = tuple(
        pairs[f][cores[t].index(q)] if q in cores[t] else side_regs[t][q] for q in qudits[t]
    )
    stages = [None] * 4
    stages[t] = (CircuitOp(pre[t], a[t]),) + tuple(
        BellMeasureOp((tele_regs[j], pairs[t][j]), labels[j]) for j in range(k)
    )
    stages[f] = (CircuitOp(pre[f], a[f]), CircuitOp(core, tuple(core_targets)))
    stages[2 + t] = (
        PauliCorrectionOp(labels, tuple(pairs[f]), frame(t)),
        CircuitOp(post[t], tele_out),
    )
    stages[2 + f] = (
        PauliCorrectionOp(labels, tuple(side_regs[f][q] for q in cores[f]), frame(f)),
        CircuitOp(post[f], a[f]),
    )
    out_regs = tele_out + a[f] if t == 0 else a[f] + tele_out

    meta = {"decomposition": dec, "tele_side": t}
    return assemble_protocol(d, n0, n1, Resource.pairs(d, k), stages, out_regs, circuit.unitary(), meta)


# ---------------------------------------------------------------------------
# Beigi-Koenig style protocol (port teleportation of the joint register)
# ---------------------------------------------------------------------------

def bk_protocol(u: np.ndarray, split: tuple, n_ports: int) -> OneRoundProtocol:
    """Approximate one-round protocol for an arbitrary unitary.

    One party Bell-measures its input against shared pairs; the other
    port-teleports the joint register back; the first applies
    U (P_x^dagger (x) I) to every port, as ``hop_undos`` and a ``GateOp``,
    and after the round everything but port i* is discarded.
    """
    n0, n1 = split
    n = n0 + n1
    u, d = _bk_target(u, n)
    d_a = d**n
    if d_a ** (n_ports + 1) > teleport.POVM_DIM_CAP:
        raise CapExceeded(
            f"port measurement dimension {d_a ** (n_ports + 1)} exceeds cap "
            f"{teleport.POVM_DIM_CAP}"
        )
    a = input_names(n0, n1)
    a0, a1 = a[:n0], a[n0:]
    # pair halves L_j / R_j: the n0 teleport pairs first, then n per port
    f0 = tuple(f"L_{j}" for j in range(n0))
    f1 = tuple(f"R_{j}" for j in range(n0))
    ports_l = tuple(tuple(f"L_{n0 + k * n + i}" for i in range(n)) for k in range(n_ports))
    ports_r = tuple(tuple(f"R_{n0 + k * n + i}" for i in range(n)) for k in range(n_ports))

    labels = tuple(f"x_{j}" for j in range(n0))

    # on every port: undo the teleportation Paulis on the first n0 qudits,
    # then apply the target, U P_x^dagger
    b_left = tuple(BellMeasureOp((a0[j], f0[j]), labels[j]) for j in range(n0))
    for g in ports_l:
        b_left += hop_undos(labels, g[:n0]) + (GateOp(u, g),)
    b_right = (PortMeasureOp("port", f1 + a1, ports_r, teleport.PBTParams(d_a, n_ports)),)
    out_names = tuple(f"B_{i}" for i in range(n))
    c_left = (
        SelectPortOp("port", ports_l, out_names),
        DiscardOp(f1 + a1 + tuple(nm for g in ports_r for nm in g)),
    )
    return assemble_protocol(
        d, n0, n1, Resource.pairs(d, n0 + n_ports * n), (b_left, b_right, c_left, ()), out_names, u,
    )


def _bk_target(u, n: int):
    """The BK target as a complex array, and the d of its n qudits.

    Only a unitary is a target: any other matrix would make a "Choi"
    matrix that is not a channel's.
    """
    u = np.asarray(u, dtype=complex)
    if not qudit.is_unitary(u):
        raise DimensionMismatch("BK target is not unitary")
    dim = u.shape[0]
    d = round(dim ** (1.0 / n))
    for cand in (d - 1, d, d + 1):
        if cand >= 2 and cand**n == dim:
            return u, cand
    raise DimensionMismatch(f"dimension {dim} is not a {n}-th power")


def bk_choi(u: np.ndarray, split: tuple, n_ports: int) -> np.ndarray:
    """Choi matrix of the BK channel, from covariance; no PGM is built.

    Bell branch x hands the port measurement the input twisted by P_x.  The
    PGM port channel is U (x) U* covariant, hence the depolarizing channel
    Delta_F with F = ``teleport.pgm_fidelity(d_a, n_ports)``, and it
    commutes with every unitary, so the port-wise correction U P_x^dagger
    leaves U . Delta_F on every branch.  The Choi matrix is therefore
    F Phi_U + (1 - F)/(d_a^2 - 1) (I - Phi_U) at any port count, and its
    trace distance to Phi_U is 1 - F.  The dense oracle at small N is
    ``program_choi(bk_protocol(u, split, n_ports).program)``.
    """
    u, _ = _bk_target(u, sum(split))  # a unitary on whole qudits
    fid = teleport.pgm_fidelity(u.shape[0], n_ports)
    return teleport.depolarizing_choi(qudit.choi_of_unitary(u), fid)


# ---------------------------------------------------------------------------
# product replacement bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Product-replacement bound data.

    ``passed`` compares I/2 in nats against ``rhs`` = -ln p_suc(product),
    and ``passed_full`` compares I against it.  The relative-entropy
    argument (I(L:R) equals S(rho_LR || rho_L x rho_R), and data processing
    on the success POVM) gives the binary relative entropy
    d(p_suc_original || p_suc_product) <= I.  That is the full-I form only
    when p_suc_original = 1, as on the maximally entangled resources built
    here; on a resource that is not maximally entangled ``passed_full`` can
    be false.  Exact teleportation protocols saturate -ln p_suc = I, so
    ``passed`` is genuinely false for them.
    """

    mutual_information_nats: float
    mutual_information_ebits: float
    p_suc_original: float
    p_suc_product: float
    rhs: float
    passed: bool
    passed_full: bool


def projector_task(target_u: np.ndarray):
    """Success POVM: projector onto (U (x) I)|Phi+> on output + reference."""
    dim = target_u.shape[0]
    v = (np.asarray(target_u, dtype=complex) @ qudit.max_entangled_tensor(dim)).reshape(-1)

    def task(density: np.ndarray) -> float:
        return float(np.real(v.conj() @ density @ v))

    return task


def _product_program(protocol: OneRoundProtocol) -> Program:
    """The protocol's program run on a purification of rho_L (x) rho_R.

    The leading resource ``AppendOp`` becomes two copies of the resource
    state: the first puts its L factor on the L halves and its R factor on
    purifier registers, the second its L factor on purifiers and its R
    factor on the R halves.  The purifiers, named ``("purifier", name)`` so
    that no register can collide with them, are traced out with every other
    unkept register, which leaves exactly rho_L (x) rho_R on the halves.  A
    resource with no registers leaves the program unchanged.
    """
    prog, res = protocol.program, protocol.resource
    if res.n_l + res.n_r == 0:
        return prog
    names = prog.ops[0].names
    left, right = names[: res.n_l], names[res.n_l :]
    purifiers = lambda regs: tuple(("purifier", nm) for nm in regs)
    copies = (
        AppendOp(left + purifiers(right), res.state),
        AppendOp(purifiers(left) + right, res.state),
    )
    return replace(prog, ops=copies + prog.ops[1:])


def product_replacement_check(protocol: OneRoundProtocol) -> BoundReport:
    """Check I(L:R)/2 >= -ln p_suc under product replacement of the resource.

    The task is the projector onto the protocol target's Choi state
    (``projector_task``), a POVM expectation on the output (x) reference
    density, so applied to the Choi matrix, whose sweep sums all branches,
    it gives the success probability.  It is computed once with the true
    resource and once on ``_product_program``, which purifies the product
    of its marginals: two density sweeps in all.
    """
    if protocol.target is None:
        raise DimensionMismatch("no target recorded")
    task = projector_task(protocol.target)
    account = protocol.resource.account()
    p_orig = task(program_choi(protocol.program))
    p_prod = task(program_choi(_product_program(protocol)))
    rhs = -np.log(max(p_prod, 1e-300))
    return BoundReport(
        account.mutual_information_nats,
        account.mutual_information_ebits,
        p_orig,
        p_prod,
        float(rhs),
        bool(account.mutual_information_nats / 2.0 >= rhs - qudit.ATOL),
        bool(account.mutual_information_nats >= rhs - qudit.ATOL),
    )


# ---------------------------------------------------------------------------
# protocol file format
# ---------------------------------------------------------------------------

def load_protocol_json(source) -> OneRoundProtocol:
    """Load a Clifford protocol description.

    ``{"n0": int, "n1": int, "split_circuit": {...}}`` builds the
    teleportation protocol for the circuit JSON under ``split_circuit``.
    Optional ``"d"`` and ``"resource": {"pairs": k}`` entries are checked
    against the constructed protocol for consistency.
    """
    doc = qudit.parse_json(source, "protocol")
    try:
        n0, n1 = int(doc["n0"]), int(doc["n1"])
        circuit = pauli.load_circuit_json(doc["split_circuit"])
        d = int(doc["d"]) if "d" in doc else None
        declared = doc.get("resource", {}).get("pairs")
        declared = None if declared is None else int(declared)
    except qudit.MALFORMED_DOCUMENT as exc:
        raise IOFailure(f"malformed protocol document: {exc}") from exc
    if n0 + n1 != circuit.n:
        raise IOFailure("n0 + n1 does not match the circuit register")
    if d is not None and d != circuit.d:
        raise IOFailure("declared d does not match the circuit")
    protocol = clifford_protocol(circuit, (n0, n1))
    if declared is not None and declared != protocol.meta["pairs"]:
        raise IOFailure(
            f"declared resource of {declared} pairs, construction needs "
            f"{protocol.meta['pairs']}"
        )
    return protocol
