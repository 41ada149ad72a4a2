"""Generalized Pauli words and symplectic simulation of Clifford circuits.

A Pauli word on n qudits is one packed int64 row of exponents x | z in
Z_d^2n and a phase exponent.  The phase exponent counts powers of tau,
where tau = i for d = 2 and tau = omega for odd prime d (so the phase group
is Z_4 at d = 2 and Z_d otherwise; omega = tau**w with w = 2 at d = 2 and 1
otherwise).  The dense operator of a word (``word_matrix``) is

    tau**phase  *  kron_q( X^x[q] Z^z[q] ).

X and Z on different qudits commute, so the word with packed exponents e
and phase 0 is the product X_0**e_0 ... X_{n-1}**e_{n-1} Z_0**e_n ...
Z_{n-1}**e_{2n-1}, in that order.  The product, in order, of packed rows
r_j with phases p_j raised to the powers e_j is

    x | z = sum_j e_j r_j  mod d,
    phase = sum_j e_j p_j + w (sum_{i<j} e_i e_j z_i.x_j + sum_j C(e_j, 2) x_j.z_j)

mod the phase group, from Z^b X^a = omega**(a.b) X^a Z^b and
(X^x Z^z)**k = omega**(x.z C(k, 2)) X^kx Z^kz: an affine and quadratic form
over Z_d (Dehaene and De Moor, arXiv:quant-ph/0304125; Hostens, Dehaene and
De Moor, arXiv:quant-ph/0408190).  Conjugation by the generator set
{CNOT, H, S, X, Z} is closed over these words, phases included.  A
circuit's tableau holds the images of X_0..X_{n-1}, Z_0..Z_{n-1} as those
rows, so it conjugates a batch of words with one matrix product and one
quadratic form.

``StabilizerWire`` runs engine programs on a stabilizer state: circuits
conjugate its generator rows, a Bell measurement is two commuting Pauli
measurements (Aaronson and Gottesman, arXiv:quant-ph/0406196) whose outcome
stays a pair of variables, each generator's phase is one affine form in the
variables, and discarding registers keeps the generators acting trivially on them.

Circuits are read from and written to one JSON format,
``{"d": int, "n": int, "gates": [{"g": name, "q": [...], "pow": int}]}``,
whose gate names are the generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import qudit
from .errors import CapExceeded, DimensionMismatch, IndexOutOfRange, IOFailure, NotClifford

CLIFFORD_GATES = {"H": 1, "S": 1, "CNOT": 2, "X": 1, "Z": 1}  # generator -> target count


def _phase_mod(d: int) -> int:
    return 4 if d == 2 else d


def _omega_units(d: int) -> int:
    # one omega equals tau**2 at d=2, tau**1 otherwise
    return 2 if d == 2 else 1


def tau(d: int) -> complex:
    return 1j if d == 2 else qudit.omega(d)


def _check_unitary_cap(d: int, n: int) -> None:
    if d ** (2 * n) > qudit.STATE_ENTRY_CAP:
        raise CapExceeded(f"unitary of {d ** (2 * n)} entries exceeds cap {qudit.STATE_ENTRY_CAP}")


def word_matrix(d: int, row, phase: int = 0) -> np.ndarray:
    """Dense operator tau**phase kron_q X^x[q] Z^z[q] of the packed row x | z."""
    x, z = np.split(np.asarray(row, dtype=np.int64) % d, 2)
    facs = [qudit.weyl(d, a, b) for a, b in zip(x.tolist(), z.tolist())]
    return tau(d) ** (int(phase) % _phase_mod(d)) * reduce(np.kron, facs, np.eye(1, dtype=complex))


@dataclass(frozen=True)
class CliffordGate:
    name: str
    targets: tuple
    power: int = 1

    def __post_init__(self):
        if self.name not in CLIFFORD_GATES:
            raise NotClifford(f"{self.name!r} is not a generator gate")
        arity = CLIFFORD_GATES[self.name]
        t = tuple(int(q) for q in self.targets)
        if len(t) != arity or len(set(t)) != arity:
            raise IndexOutOfRange(f"gate {self.name} needs {arity} distinct targets")
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "power", int(self.power))


@dataclass(frozen=True)
class CliffordCircuit:
    d: int
    n: int
    gates: tuple

    def __post_init__(self):
        if not qudit.is_prime(self.d):
            raise DimensionMismatch(f"d must be prime, got {self.d}")
        for g in self.gates:
            for q in g.targets:
                if not 0 <= q < self.n:
                    raise IndexOutOfRange(f"gate target {q} out of range")
        object.__setattr__(self, "gates", tuple(self.gates))

    @classmethod
    def from_gate_list(cls, d: int, n: int, gates) -> "CliffordCircuit":
        return cls(d, n, tuple(CliffordGate(*g) for g in gates))

    def unitary(self) -> np.ndarray:
        """Dense unitary of the circuit (gates applied in list order).

        Built on first call and kept with the circuit, like ``tableau``, so
        the array is read-only.  Past ``qudit.STATE_ENTRY_CAP`` entries it
        raises ``CapExceeded`` before allocating.
        """
        return self._unitary

    @cached_property
    def _unitary(self) -> np.ndarray:
        # the engine's wire on the identity columns: each gate acts on its
        # target axes, so no gate is embedded at d**n x d**n
        from .engine import Wire  # engine imports this module

        _check_unitary_cap(self.d, self.n)
        names = list(range(self.n))
        wire = Wire.from_matrix(self.d, np.eye(self.d**self.n), names).apply_circuit(self, names)
        u = wire.as_matrix(names)
        u.setflags(write=False)
        return u

    @cached_property
    def tableau(self) -> "StabilizerTableau":
        """The circuit's tableau, built on first use and kept with the circuit."""
        return tableau_simulate(self)


def load_circuit_json(source) -> CliffordCircuit:
    """Parse the JSON circuit format (see the module docstring).

    An unknown gate name or a wrong number of targets is an ``IOFailure``.
    """
    doc = qudit.parse_json(source, "circuit")
    try:
        d, n = int(doc["d"]), int(doc["n"])
        gates = []
        for g in doc.get("gates", []):
            name = g["g"]
            targets = tuple(int(q) for q in g["q"])
            if name not in CLIFFORD_GATES:
                raise IOFailure(f"unknown gate name {name!r}")
            if len(targets) != CLIFFORD_GATES[name]:
                raise IOFailure(f"gate {name} expects {CLIFFORD_GATES[name]} targets")
            gates.append(CliffordGate(name, targets, int(g.get("pow", 1))))
    except qudit.MALFORMED_DOCUMENT as exc:
        raise IOFailure(f"malformed circuit document: {exc}") from exc
    return CliffordCircuit(d, n, tuple(gates))


def dump_circuit_json(circuit: CliffordCircuit) -> str:
    gates = [{"g": g.name, "q": list(g.targets), "pow": g.power} for g in circuit.gates]
    return json.dumps({"d": circuit.d, "n": circuit.n, "gates": gates}, sort_keys=True)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def conjugate_pauli(circuit: CliffordCircuit, row, phase: int = 0) -> tuple:
    """(row, phase) of C w C^dagger for the packed word ``row`` = x | z with ``phase``, exact."""
    row = np.asarray(row, dtype=np.int64)
    if row.shape != (2 * circuit.n,):
        raise DimensionMismatch(f"word of shape {row.shape} on a circuit of {circuit.n} registers")
    rows, phases = circuit.tableau.images(row[None] % circuit.d, phase)
    return rows[0], int(phases[0])


def conjugation_frame(circuit: CliffordCircuit, sources, targets) -> np.ndarray:
    """Pauli frame on qudits ``targets`` of C (prod_j X^a_j Z^b_j on sources[j]) C^dagger.

    Conjugation is linear in the exponents, phases aside, so column pair j
    holds the exponents of the images of X and Z on ``sources[j]``: the
    (2 len(targets), 2 len(sources)) frame with rows x then z on the
    targets and columns (a_1, b_1, ..., a_k, b_k), a slice of the tableau.
    """
    n, targets = circuit.n, list(targets)
    images = [r for s in sources for r in (s, n + s)]
    return circuit.tableau.rows[images][:, targets + [n + t for t in targets]].T


# ---------------------------------------------------------------------------
# tableau
# ---------------------------------------------------------------------------

class StabilizerTableau:
    """Images of the 2n generator words X_i, Z_i under a Clifford circuit C.

    ``rows`` is the (2n, 2n) int64 array of the images of X_0..X_{n-1},
    Z_0..Z_{n-1}, columns x | z, and ``phases`` their phases.  A word w with
    packed exponents e = x | z and phase f is tau**f times the product, in
    that order, of the e_j-th powers of X_0..Z_{n-1}, so C w C^dagger is the
    same product of the images: e.rows mod d, with phase

        f + e.phases + w (e U e + C(e, 2).D)

    mod the phase group (see the module docstring), where U, the strict
    upper triangle of Z X^T, and D, the row-wise x.z of ``rows``, are built
    once per tableau.
    """

    def __init__(self, d: int, n: int, rows, phases):
        rows, phases = np.array(rows, dtype=np.int64), np.array(phases, dtype=np.int64)
        if rows.shape != (2 * n, 2 * n) or phases.shape != (2 * n,):
            raise DimensionMismatch("tableau needs 2n packed rows of 2n columns and 2n phases")
        self._fill(d, n, rows % d, phases % _phase_mod(d))
        self.validate()

    def _fill(self, d: int, n: int, rows: np.ndarray, phases: np.ndarray) -> None:
        self.d, self.n, self.rows, self.phases = d, n, rows, phases
        rows.setflags(write=False)  # kept with its circuit, like the unitary
        phases.setflags(write=False)
        zx, i = rows[:, n:] @ rows[:, :n].T, np.arange(2 * n)  # zx[i, j] = z_i . x_j
        self._upper, self._diag = zx * (i[:, None] < i), zx.diagonal()

    def validate(self) -> None:
        d, n = self.d, self.n
        # commutation structure must match the generator words'
        # (a nondegenerate Gram matrix, so the 2n rows are independent over Z_d)
        x, z = self.rows[:, :n], self.rows[:, n:]
        # gram[i, j] = s with rows[i] rows[j] = omega**s rows[j] rows[i]
        gram = (z @ x.T - x @ z.T) % d
        want = np.zeros((2 * n, 2 * n), dtype=np.int64)
        want[:n, n:] = (d - 1) * np.eye(n, dtype=np.int64)
        want[n:, :n] = np.eye(n, dtype=np.int64)
        if not np.array_equal(gram, want):
            raise DimensionMismatch("tableau rows violate the X/Z commutation relations")

    def images(self, words: np.ndarray, phases) -> tuple:
        """(rows, phases) of C w C^dagger for each packed row w of ``words``, entries in 0..d-1."""
        quad = ((words @ self._upper) * words).sum(axis=1) + (words * (words - 1) // 2) @ self._diag
        phases = (phases + words @ self.phases + _omega_units(self.d) * quad) % _phase_mod(self.d)
        return words @ self.rows % self.d, phases

    def to_unitary(self) -> np.ndarray:
        """Dense unitary reproducing the tableau, fixed up to global phase.

        The first column is reconstructed as the joint +1 eigenvector of the
        Z-row images; the remaining columns follow by applying X-row image
        words, which pins every relative phase.  Past ``qudit.STATE_ENTRY_CAP``
        entries it raises ``CapExceeded`` before allocating.
        """
        d, n = self.d, self.n
        _check_unitary_cap(d, n)
        dim = d**n
        proj = np.eye(dim, dtype=complex)
        for row, phase in zip(self.rows[n:], self.phases[n:]):
            m = word_matrix(d, row, phase)
            acc = np.eye(dim, dtype=complex)
            term = np.eye(dim, dtype=complex)
            for _ in range(d - 1):
                term = term @ m
                acc = acc + term
            proj = proj @ (acc / d)
        col0 = None
        for seed in range(dim):
            v = proj[:, seed]
            if np.linalg.norm(v) > 1e-6:
                col0 = v / np.linalg.norm(v)
                break
        if col0 is None:
            raise DimensionMismatch("failed to reconstruct stabilizer state")
        cols = []
        x_mats = [word_matrix(d, row, phase) for row, phase in zip(self.rows[:n], self.phases[:n])]
        for k in range(dim):
            digits = _digits(k, d, n)
            v = col0
            for q in reversed(range(n)):
                for _ in range(digits[q]):
                    v = x_mats[q] @ v
            cols.append(v)
        return np.array(cols).T


def _digits(k: int, d: int, n: int) -> tuple:
    out = []
    for _ in range(n):
        out.append(k % d)
        k //= d
    return tuple(reversed(out))


def tableau_simulate(circuit: CliffordCircuit) -> StabilizerTableau:
    """The circuit's tableau: the packed rows of X_q and Z_q conjugated gate by gate.

    A gate power acts as that many generator steps (CNOT, X and Z steps add
    up linearly).  The rows are Python lists while the gates run, which is
    faster than array updates at these sizes.
    """
    d, n, w = circuit.d, circuit.n, _omega_units(circuit.d)
    rows, phases = np.eye(2 * n, dtype=np.int64).tolist(), [0] * (2 * n)
    for g in circuit.gates:
        k = g.power % qudit._gate_order(g.name, d)
        q, zq = g.targets[0], n + g.targets[0]
        if g.name == "CNOT":
            # X_c -> X_c X_t, Z_t -> Z_c^-1 Z_t, others fixed; no phases
            t = g.targets[1]
            for r in rows:
                r[zq] = (r[zq] - k * r[n + t]) % d
                r[t] = (r[t] + k * r[q]) % d
        elif g.name == "X":
            phases = [p - w * k * r[zq] for p, r in zip(phases, rows)]
        elif g.name == "Z":
            phases = [p + w * k * r[q] for p, r in zip(phases, rows)]
        elif g.name == "H":
            for _ in range(k):
                phases = [p - w * r[q] * r[zq] for p, r in zip(phases, rows)]
                for r in rows:
                    r[q], r[zq] = -r[zq] % d, r[q]
        else:  # S
            for _ in range(k):
                phases = [p + r[q] + w * (r[q] * (r[q] - 1) // 2) for p, r in zip(phases, rows)]
                for r in rows:
                    r[zq] = (r[zq] + r[q]) % d
    # the rows are symplectic by construction, so StabilizerTableau.validate
    # is not run again here
    tab = object.__new__(StabilizerTableau)
    tab._fill(d, n, np.array(rows, dtype=np.int64).reshape(2 * n, 2 * n), np.array(phases) % _phase_mod(d))
    return tab


# ---------------------------------------------------------------------------
# stabilizer wires: the executor's wire on a stabilizer state
# ---------------------------------------------------------------------------

def _pair_words(d: int, k: int) -> np.ndarray:
    """Generators of k pairs |Phi+> on (i, k + i), packed: X (x) X and Z (x) Z^-1 per pair."""
    words, i = np.zeros((2 * k, 4 * k), dtype=np.int64), np.arange(k)
    words[2 * i, i] = words[2 * i, k + i] = 1
    words[2 * i + 1, 2 * k + i], words[2 * i + 1, 3 * k + i] = 1, d - 1
    return words


def stabilizer_generators(d: int, vec, m: int):
    """Packed generator rows of ``vec`` on m registers (phases 0), or None if it has none here.

    Two states are recognized, to 1e-12 per amplitude: |0...0>, and m/2
    pairs |Phi+> in the register order L_1..L_k R_1..R_k of
    ``engine.Resource.pairs``.
    """
    vec = np.asarray(vec).reshape(-1)
    if vec.size != d**m:
        return None
    zero = np.zeros(d**m)
    zero[0] = 1.0
    if np.abs(vec - zero).max() <= 1e-12:
        return np.eye(m, 2 * m, m, dtype=np.int64)  # Z on each register
    half = d ** (m // 2)
    if m % 2 == 0 and np.abs(vec - (np.eye(half) / np.sqrt(half)).reshape(-1)).max() <= 1e-12:
        return _pair_words(d, m // 2)
    return None


def _times_row(gens, forms, i: int, m: np.ndarray, d: int) -> tuple:
    """Every generator row g times row h = ``gens[i]`` to the power m[g]: words multiply, forms add.

    The packed product of the module docstring with exponents (1, m):
    g h**m = tau**(g_phase + m h_phase) omega**(m g_z.h_x + C(m, 2) h_x.h_z)
    X^(g_x + m h_x) Z^(g_z + m h_z), whose omega factor goes to the constant.
    """
    n, h = gens.shape[1] // 2, gens[i]
    quad = m * (gens[:, n:] @ h[:n]) + m * (m - 1) // 2 * (h[:n] @ h[n:])
    forms = forms + m[:, None] * forms[i]
    forms[:, 0] += _omega_units(d) * quad
    return (gens + m[:, None] * h) % d, forms % _phase_mod(d)


def _eliminate(gens, forms, cols, d: int) -> tuple:
    """Row-reduce generator rows over Z_d on the packed columns ``cols``, in order.

    Each column's pivot is the first row, not yet a pivot, that is nonzero
    there, and every other such row takes the power of the pivot that clears
    the column.  Rows change only by multiplying in powers of other rows, so
    they generate the group they generated.  Returns the new (gens, forms)
    and the mask of the rows that are not pivots: those are zero on every
    column of ``cols``.
    """
    free = np.ones(len(gens), dtype=bool)
    for c in cols:
        hits = free & (gens[:, c] != 0)
        i = hits.argmax()
        if hits[i]:
            free[i] = False
            m = np.where(free, -gens[:, c] * pow(int(gens[i, c]), -1, d) % d, 0)
            gens, forms = _times_row(gens, forms, i, m, d)
    return gens, forms, free


class StabilizerWire:
    """Stabilizer state over named registers: ``engine.Wire`` on a tableau.

    ``gens`` holds one packed generator row per register, (k, 2N) over the
    N ``regs`` with columns x | z; the state is the words' joint +1
    eigenvector, kept normalized.  It is symbolic in its Bell outcomes:
    every outcome is a variable, the x/z parts never depend on the
    outcomes, and the phases are affine in them (Dehaene and De Moor,
    arXiv:quant-ph/0304125).  Row i of the (k, 1 + nvars) array ``forms``
    is the phase of generator i as a constant and then the coefficients:
    forms[i] . (1, o) mod the phase group, for the vector o in Z_d**nvars
    of the outcome variables.  A measurement whose outcome the state fixes
    appends its eigenvalue's phase form, a row of the same shape, to
    ``constraints``: an outcome vector that makes one of them nonzero has
    probability 0.  Every other outcome vector has probability ``norm2`` =
    d**-r, r the number of measurements the state does not fix.  The
    methods are the ones ``engine._run_ops`` and ``engine._children`` call
    on a wire, so the one executor runs an all-Clifford program on it in one
    pass that covers every outcome; ``outcome_phases`` and ``distances``
    expand that pass into branches.
    """

    __slots__ = ("d", "gens", "forms", "regs", "norm2", "constraints")

    def __init__(self, d: int, gens, regs):
        self.d = d
        self.regs = list(regs)
        self.gens = np.asarray(gens, dtype=np.int64).reshape(len(gens), 2 * len(self.regs))
        self.forms = np.zeros((len(gens), 1), dtype=np.int64)
        self.norm2 = 1.0
        self.constraints = np.zeros((0, 1), dtype=np.int64)

    def _replace(self, **fields) -> "StabilizerWire":
        new = object.__new__(StabilizerWire)
        for name in self.__slots__:
            setattr(new, name, fields.get(name, getattr(self, name)))
        return new

    @property
    def nvars(self) -> int:
        return self.forms.shape[1] - 1

    @classmethod
    def pairs(cls, d: int, left, right) -> "StabilizerWire":
        """Maximally entangled pairs (left[i], right[i]) and nothing else."""
        return cls(d, [], [])._adjoin(_pair_words(d, len(left)), list(left) + list(right))

    def positions(self, names) -> list:
        return [self.regs.index(nm) for nm in names]

    def _columns(self, names) -> list:
        """The packed columns of ``names``: their x columns, then their z columns."""
        pos = self.positions(names)
        return pos + [len(self.regs) + p for p in pos]

    def _adjoin(self, words, names) -> "StabilizerWire":
        n, m, j, k = len(self.regs), len(names), len(self.gens), len(words)
        # (rows, x|z, register) blocks: the old rows gain m zero registers,
        # the new rows n leading ones
        gens = np.zeros((j + k, 2, n + m), dtype=np.int64)
        gens[:j, :, :n] = self.gens.reshape(j, 2, n)
        gens[j:, :, n:] = words.reshape(k, 2, m)
        return self._replace(
            gens=gens.reshape(-1, 2 * (n + m)),
            forms=np.concatenate([self.forms, np.zeros((k, 1 + self.nvars), dtype=np.int64)]),
            regs=self.regs + list(names),
        )

    def append(self, vec, names) -> "StabilizerWire":
        words = stabilizer_generators(self.d, vec, len(names))
        if words is None:
            raise NotClifford("appended state is neither |0...0> nor Bell pairs")
        return self._adjoin(words, names)

    def apply_circuit(self, circuit: CliffordCircuit, names) -> "StabilizerWire":
        """Conjugate the generators' columns on ``names`` by the circuit's tableau.

        The phase a conjugation adds depends on the word alone, so only the
        forms' constant column changes.
        """
        if not circuit.gates:
            return self
        cols, gens, forms = self._columns(names), self.gens.copy(), self.forms.copy()
        gens[:, cols], forms[:, 0] = circuit.tableau.images(self.gens[:, cols], self.forms[:, 0])
        return self._replace(gens=gens, forms=forms)

    def correct(self, op, outcomes) -> "StabilizerWire":
        """Apply an ``engine.PauliCorrectionOp`` whose outcomes are variables.

        The op applies P, the inverse of X^x Z^z with (x, z) = frame . o, and
        P g P^-1 = omega**s g with s = x.g_z - z.g_x on the targets.  So s
        is linear in the outcomes: the frame, with its columns moved to the
        form columns of the variables they read, times the generators'
        target columns; the constant column gains nothing.
        """
        m = len(op.targets)
        variables = [1 + v for label in op.labels for v in outcomes[label]]  # one per frame column
        frame = op.frame @ np.eye(1 + self.nvars, dtype=np.int64)[variables]
        s = self.gens[:, self._columns(op.targets)] @ np.concatenate([-frame[m:], frame[:m]])
        return self._replace(forms=(self.forms + _omega_units(self.d) * s) % _phase_mod(self.d))

    def _measure(self, word, form) -> "StabilizerWire":
        """Project onto the +1 eigenspace of tau**(form . (1, o)) ``word`` (packed, word**d = I)."""
        d, n = self.d, len(self.regs)
        s = (self.gens[:, n:] @ word[:n] - self.gens[:, :n] @ word[n:]) % d
        if not s.any():
            # the word commutes with the group, so the state is an eigenvector
            # of it: reduce it, as the last row, by the generators down to the
            # eigenvalue's phase, which must vanish
            gens, forms, _ = _eliminate(
                np.vstack([self.gens, word]), np.vstack([self.forms, form]), range(2 * n), d
            )
            if gens[-1].any():
                raise DimensionMismatch("stabilizer generators do not fix a single state")
            return self._replace(constraints=np.vstack([self.constraints, forms[-1]]))
        # every outcome has probability 1/d (Aaronson and Gottesman); keep the
        # generators commuting with the word
        j0 = np.flatnonzero(s)[0]
        m = -s * pow(int(s[j0]), -1, d) % d
        gens, forms = _times_row(self.gens, self.forms, j0, m, d)
        gens[j0], forms[j0] = word, form
        return self._replace(gens=gens, forms=forms, norm2=self.norm2 / d)

    def bell_outcomes(self) -> list:
        """The one outcome of the next Bell measurement: its two new variables."""
        return [(self.nvars, self.nvars + 1)]

    def project_bell(self, pair):
        """Map from an outcome to the wire with ``pair`` projected onto its Bell vector and dropped.

        The outcome is the pair (a, b) of new variables ``bell_outcomes``
        gives, so every form grows by those two columns.  The vector
        ((X^a Z^b)^dagger (x) I)|Phi+> is the +1 eigenvector of
        omega**-b X (x) X and omega**a Z (x) Z^-1, measured in turn.
        """
        d, n, w, mod = self.d, len(self.regs), _omega_units(self.d), _phase_mod(self.d)
        i, j = self.positions(pair)
        xx, zz = np.zeros(2 * n, dtype=np.int64), np.zeros(2 * n, dtype=np.int64)
        xx[[i, j]] = 1
        zz[[n + i, n + j]] = 1, d - 1
        unit = np.eye(1 + self.nvars + 2, dtype=np.int64)
        grow = lambda a: np.concatenate([a, np.zeros((len(a), 2), dtype=np.int64)], axis=1)

        def project(outcome):
            a, b = outcome
            wire = self._replace(forms=grow(self.forms), constraints=grow(self.constraints))
            wire = wire._measure(xx, unit[1 + b] * -w % mod)._measure(zz, unit[1 + a] * w % mod)
            return wire.factor_out(pair)

        return project

    def factor_out(self, names) -> "StabilizerWire":
        """Drop registers that are in a product state with the rest."""
        if not names:
            return self
        cols = self._columns(names)
        gens, forms, rest = _eliminate(self.gens, self.forms, cols, self.d)
        keep = [nm for nm in self.regs if nm not in names]
        if rest.sum() != len(keep):
            raise DimensionMismatch("discarded registers are entangled with the remainder")
        return self._replace(
            gens=gens[rest][:, self._columns(keep)], forms=forms[rest], regs=keep,
        )

    def outcome_phases(self) -> tuple:
        """(outcomes, phases) over every outcome vector the constraints allow.

        ``outcomes`` holds those vectors of Z_d**nvars as rows, in
        lexicographic order, and row i of ``phases`` the phase of each
        generator for outcome vector i: both arrays of forms evaluated at
        (1, o).
        """
        d, mod, v = self.d, _phase_mod(self.d), self.nvars
        grid = np.indices((d,) * v).reshape(v, d**v).T
        points = np.column_stack([np.ones(len(grid), dtype=np.int64), grid])
        points = points[~(points @ self.constraints.T % mod).any(axis=1)]
        return points[:, 1:], points @ self.forms.T % mod

    def distances(self, vec, names, phases) -> list:
        """||u - P u|| per row of ``phases``, the branch whose generators have those phases.

        u is ``vec`` normalized, over ``names`` in order, and P the branch's
        projector.

        P = prod_g (1/d) sum_j g**j over the generators.  Each g acts on u as
        one index permutation times one phase vector, so no Pauli matrix is
        built; the permutations and the phase vectors' omega powers depend on
        the words' x/z parts only and are built once for every row.  For a
        pure branch this is ``engine.rank1_choi_distance``.
        """
        if set(names) != set(self.regs):
            raise DimensionMismatch(f"output registers {list(names)} do not match wire {self.regs}")
        d, m = self.d, len(names)
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.size != d**m:
            raise DimensionMismatch(f"target has {vec.size} entries, the branch {d**m}")
        xz = self.gens[:, self._columns(names)]
        x, z = xz[:, :m], xz[:, m:]
        # (g u)[j] = tau**phase omega**(z.(j - x)) u[j - x]; both the index of
        # j - x and the exponent are sums over registers of one digit's term
        shifted = (np.arange(d) - x[:, :, None]) % d  # digit q of j - x, for j_q = 0..d-1
        perms = _outer_sum(shifted * (d ** np.arange(m - 1, -1, -1))[:, None])
        clock = (qudit.omega(d) ** np.arange(d))[_outer_sum(shifted * z[:, :, None]) % d]
        u = vec / np.linalg.norm(vec)
        out = []
        for phase in np.asarray(phases, dtype=np.int64):
            v = u
            for perm, ph in zip(perms, (tau(d) ** phase)[:, None] * clock):
                acc = cur = v
                for _ in range(d - 1):
                    cur = ph * cur[perm]
                    acc = acc + cur
                v = acc / d
            out.append(float(min(1.0, np.linalg.norm(u - v))))
        return out


def _outer_sum(terms: np.ndarray) -> np.ndarray:
    """(k, m, d) per-register terms -> (k, d**m) sums over every index j, register 0 first."""
    k, m, _ = terms.shape
    out = np.zeros((k, 1), dtype=terms.dtype)
    for q in range(m):
        out = (out[:, :, None] + terms[:, q, None, :]).reshape(k, -1)
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def random_clifford(
    n: int, d: int, seed: int, length: int | None = None
) -> CliffordCircuit:
    """Reproducible random generator word; same seed gives the same circuit.

    Sampling is not Haar-uniform over the Clifford group; it only needs full
    support on small groups, which random words over the generator set give.
    """
    if n < 1:
        raise DimensionMismatch("need at least one qudit")
    rng = np.random.default_rng(seed)
    if length is None:
        length = int(rng.integers(3 * n + 4, 6 * n + 12))
    pool = []
    for q in range(n):
        pool += [("H", (q,)), ("S", (q,)), ("X", (q,)), ("Z", (q,))]
    for c in range(n):
        for t in range(n):
            if c != t:
                pool.append(("CNOT", (c, t)))
    gates = []
    for _ in range(length):
        name, targets = pool[int(rng.integers(len(pool)))]
        power = int(rng.integers(1, d)) if name in ("X", "Z", "CNOT") else 1
        gates.append(CliffordGate(name, targets, power))
    return CliffordCircuit(d, n, tuple(gates))
