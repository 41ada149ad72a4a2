"""Generalized Pauli words and symplectic simulation of Clifford circuits.

A Pauli word on n qudits is stored as exponent vectors x, z in Z_d^n plus a
phase exponent.  The phase exponent counts powers of tau, where tau = i for
d = 2 and tau = omega for odd prime d (so the phase group is Z_4 at d = 2 and
Z_d otherwise; omega = tau**2 at d = 2).  The dense operator of a word is

    tau**phase  *  kron_q( X^x[q] Z^z[q] ).

Conjugation by the generator set {CNOT, H, S, X, Z} is closed over these
words, phases included, which is what the tableau simulation relies on.
A circuit's tableau (the images of every X_q and Z_q) is built once per
circuit and conjugates any word with one product per qudit.

``StabilizerWire`` runs engine programs on a stabilizer state: circuits
conjugate its generator words, a Bell measurement is two commuting Pauli
measurements (Aaronson and Gottesman, arXiv:quant-ph/0406196, with the
qudit phases of Hostens, Dehaene and De Moor, arXiv:quant-ph/0408190)
whose outcome stays a pair of variables that the generator phases depend
on linearly, and discarding registers keeps the generators that act
trivially on them.

Circuits are read from and written to one JSON format,
``{"d": int, "n": int, "gates": [{"g": name, "q": [...], "pow": int}]}``,
whose gate names are the generators.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import qudit
from .errors import CapExceeded, DimensionMismatch, IndexOutOfRange, IOFailure, NotClifford

CLIFFORD_GATES = {"H": 1, "S": 1, "CNOT": 2, "X": 1, "Z": 1}  # generator -> target count
UNITARY_DIM_CAP = 4096  # largest dimension StabilizerTableau.to_unitary builds


def _phase_mod(d: int) -> int:
    return 4 if d == 2 else d


def _omega_units(d: int) -> int:
    # one omega equals tau**2 at d=2, tau**1 otherwise
    return 2 if d == 2 else 1


def tau(d: int) -> complex:
    return 1j if d == 2 else qudit.omega(d)


@dataclass(frozen=True)
class PauliWord:
    d: int
    n: int
    x: tuple
    z: tuple
    phase: int = 0

    def __post_init__(self):
        if not qudit.is_prime(self.d):
            raise DimensionMismatch(f"d must be prime, got {self.d}")
        if len(self.x) != self.n or len(self.z) != self.n:
            raise DimensionMismatch("exponent vectors must have length n")
        object.__setattr__(self, "x", tuple(int(a) % self.d for a in self.x))
        object.__setattr__(self, "z", tuple(int(b) % self.d for b in self.z))
        object.__setattr__(self, "phase", int(self.phase) % _phase_mod(self.d))

    @classmethod
    def single(cls, d: int, n: int, q: int, a: int, b: int) -> "PauliWord":
        x = [0] * n
        z = [0] * n
        x[q], z[q] = a, b
        return cls(d, n, tuple(x), tuple(z))

    def inverse(self) -> "PauliWord":
        # (X^a Z^b)^-1 = Z^-b X^-a = omega^(ab) X^-a Z^-b per qudit
        w = _omega_units(self.d)
        cross = sum(a * b for a, b in zip(self.x, self.z))
        return PauliWord(
            self.d,
            self.n,
            tuple(-a for a in self.x),
            tuple(-b for b in self.z),
            -self.phase + w * cross,
        )

    def matrix(self) -> np.ndarray:
        facs = [qudit.weyl(self.d, a, b) for a, b in zip(self.x, self.z)]
        m = reduce(np.kron, facs, np.eye(1, dtype=complex))
        return tau(self.d) ** self.phase * m


def _word(d: int, x: tuple, z: tuple, phase: int) -> PauliWord:
    """A PauliWord from exponents already reduced mod d, without re-checking them."""
    w = object.__new__(PauliWord)
    w.__dict__.update(d=d, n=len(x), x=x, z=z, phase=phase % _phase_mod(d))
    return w


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
        # the columns are held as a tensor with one axis per qudit and each
        # gate acts on its target axes, so no gate is embedded at d**n x d**n
        d, n = self.d, self.n
        if d ** (2 * n) > qudit.STATE_ENTRY_CAP:
            raise CapExceeded(f"unitary of {d ** (2 * n)} entries exceeds cap {qudit.STATE_ENTRY_CAP}")
        u = np.eye(d**n, dtype=complex).reshape((d,) * n + (d**n,))
        for g in self.gates:
            k = len(g.targets)
            t = np.moveaxis(u, g.targets, range(k))
            rest = t.shape[k:]
            t = qudit.gate_matrix(g.name, d, g.power) @ t.reshape(d**k, -1)
            u = np.moveaxis(t.reshape((d,) * k + rest), range(k), g.targets)
        u = u.reshape(d**n, d**n)
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

def _conjugate_rows(rows, circuit: CliffordCircuit) -> None:
    """Conjugate raw words [x, z, phase] by the circuit, in place, gate by gate.

    ``x`` and ``z`` are lists of exponents; a gate power acts as that many
    generator steps (CNOT, X and Z steps add up linearly).
    """
    d, w = circuit.d, _omega_units(circuit.d)
    for g in circuit.gates:
        k = g.power % qudit._gate_order(g.name, d)
        q = g.targets[0]
        for r in rows:
            x, z = r[0], r[1]
            if g.name == "CNOT":
                # X_c -> X_c X_t, Z_t -> Z_c^-1 Z_t, others fixed; no phases
                t = g.targets[1]
                z[q] = (z[q] - k * z[t]) % d
                x[t] = (x[t] + k * x[q]) % d
            elif g.name == "X":
                r[2] -= w * k * z[q]
            elif g.name == "Z":
                r[2] += w * k * x[q]
            elif g.name == "H":
                for _ in range(k):
                    a, b = x[q], z[q]
                    x[q], z[q] = -b % d, a
                    r[2] -= w * a * b
            else:  # S
                for _ in range(k):
                    a = x[q]
                    z[q] = (z[q] + a) % d
                    r[2] += a + w * (a * (a - 1) // 2)


def conjugate_pauli(circuit: CliffordCircuit, p: PauliWord) -> PauliWord:
    """Return C p C^dagger with the phase tracked exactly."""
    if (circuit.d, circuit.n) != (p.d, p.n):
        raise DimensionMismatch("circuit and Pauli word registers differ")
    return circuit.tableau.conjugate(p)


def conjugation_frame(circuit: CliffordCircuit, sources, targets) -> np.ndarray:
    """Pauli frame on qudits ``targets`` of C (prod_j X^a_j Z^b_j on sources[j]) C^dagger.

    Conjugation is linear in the exponents, phases aside, so column pair j
    holds the exponents of the images of X and Z on ``sources[j]``: the
    (2 len(targets), 2 len(sources)) frame with rows x then z on the
    targets and columns (a_1, b_1, ..., a_k, b_k).
    """
    tab, targets = circuit.tableau, list(targets)
    images = [img for s in sources for img in (tab.x_images[s], tab.z_images[s])]
    cols = [[img.x[t] for t in targets] + [img.z[t] for t in targets] for img in images]
    return np.array(cols, dtype=np.int64).reshape(len(images), 2 * len(targets)).T


# ---------------------------------------------------------------------------
# tableau
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerTableau:
    """Images of the 2n generator words X_i, Z_i under a Clifford circuit."""

    d: int
    n: int
    x_images: tuple
    z_images: tuple

    def __post_init__(self):
        if len(self.x_images) != self.n or len(self.z_images) != self.n:
            raise DimensionMismatch("tableau needs n X-rows and n Z-rows")
        self.validate()

    def validate(self) -> None:
        d, n = self.d, self.n
        # commutation structure must match the generator words'
        # (a nondegenerate Gram matrix, so the 2n rows are independent over Z_d)
        rows = self.x_images + self.z_images
        x = np.array([w.x for w in rows], dtype=np.int64).reshape(2 * n, n)
        z = np.array([w.z for w in rows], dtype=np.int64).reshape(2 * n, n)
        # gram[i, j] = s with rows[i] rows[j] = omega**s rows[j] rows[i]
        gram = (z @ x.T - x @ z.T) % d
        want = np.zeros((2 * n, 2 * n), dtype=np.int64)
        want[:n, n:] = (d - 1) * np.eye(n, dtype=np.int64)
        want[n:, :n] = np.eye(n, dtype=np.int64)
        if not np.array_equal(gram, want):
            raise DimensionMismatch("tableau rows violate the X/Z commutation relations")

    def _image(self, x, z, phase: int) -> tuple:
        """Unreduced (x, z, phase) of C w C^dagger, w = tau**phase prod_q X^x[q] Z^z[q].

        One product per qudit: the images of X_q and Z_q raised to the
        word's exponents, (X^x Z^z)**k = omega**(x.z k(k-1)/2) X^kx Z^kz.
        """
        n, w = self.n, _omega_units(self.d)
        ox, oz = [0] * n, [0] * n
        for q in range(n):
            for img, k in ((self.x_images[q], x[q]), (self.z_images[q], z[q])):
                if k:
                    cross = k * sum(map(operator.mul, oz, img.x))
                    if k > 1:
                        cross += sum(map(operator.mul, img.x, img.z)) * (k * (k - 1) // 2)
                    phase += k * img.phase + w * cross
                    ox = [u + k * v for u, v in zip(ox, img.x)]
                    oz = [u + k * v for u, v in zip(oz, img.z)]
        return ox, oz, phase

    def conjugate(self, p: PauliWord) -> PauliWord:
        """C p C^dagger for the circuit C of the tableau."""
        x, z, phase = self._image(p.x, p.z, p.phase)
        return _word(self.d, tuple(v % self.d for v in x), tuple(v % self.d for v in z), phase)

    def to_unitary(self) -> np.ndarray:
        """Dense unitary reproducing the tableau, fixed up to global phase.

        The first column is reconstructed as the joint +1 eigenvector of the
        Z-row images; the remaining columns follow by applying X-row image
        words, which pins every relative phase.
        """
        d, n = self.d, self.n
        dim = d**n
        if dim > UNITARY_DIM_CAP:
            raise DimensionMismatch(f"dense reconstruction capped at {UNITARY_DIM_CAP}")
        proj = np.eye(dim, dtype=complex)
        for zi in self.z_images:
            m = zi.matrix()
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
        x_mats = [xi.matrix() for xi in self.x_images]
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
    d, n = circuit.d, circuit.n
    unit = lambda q: [int(i == q) for i in range(n)]
    rows = [[unit(q), [0] * n, 0] for q in range(n)] + [[[0] * n, unit(q), 0] for q in range(n)]
    _conjugate_rows(rows, circuit)
    words = tuple(_word(d, tuple(x), tuple(z), ph) for x, z, ph in rows)
    # the rows are symplectic by construction, so StabilizerTableau.validate
    # is not run again here
    tab = object.__new__(StabilizerTableau)
    tab.__dict__.update(d=d, n=n, x_images=words[:n], z_images=words[n:])
    return tab


# ---------------------------------------------------------------------------
# stabilizer wires: the executor's wire on a stabilizer state
# ---------------------------------------------------------------------------

def _pair_words(d: int, k: int) -> list:
    """Generators of k pairs |Phi+> on (i, k + i): X (x) X and Z (x) Z^-1."""
    words, none = [], (0,) * (2 * k)
    for i in range(k):
        one = [0] * (2 * k)
        one[i] = one[k + i] = 1
        words.append(_word(d, tuple(one), none, 0))
        one[k + i] = d - 1
        words.append(_word(d, none, tuple(one), 0))
    return words


def stabilizer_generators(d: int, vec, m: int):
    """Generator words of ``vec`` on m registers, or None if it has none here.

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
        return [PauliWord.single(d, m, q, 0, 1) for q in range(m)]
    half = d ** (m // 2)
    if m % 2 == 0 and np.abs(vec - (np.eye(half) / np.sqrt(half)).reshape(-1)).max() <= 1e-12:
        return _pair_words(d, m // 2)
    return None


def _times_power(g: PauliWord, h: PauliWord, m: int) -> PauliWord:
    """g @ h**m, from (X^x Z^z)**m = omega**(x.z m(m-1)/2) X^(mx) Z^(mz)."""
    d = g.d
    xz = sum(a * b for a, b in zip(h.x, h.z))
    cross = sum(b * a for b, a in zip(g.z, h.x))  # Z^b X^a reorder
    return _word(
        d,
        tuple((a + m * a2) % d for a, a2 in zip(g.x, h.x)),
        tuple((b + m * b2) % d for b, b2 in zip(g.z, h.z)),
        g.phase + m * h.phase + _omega_units(d) * (m * cross + xz * (m * (m - 1) // 2)),
    )


def _coord(w: PauliWord, c: int) -> int:
    # symplectic coordinate c: x[c] for c < n, else z[c - n]
    return w.x[c] if c < w.n else w.z[c - w.n]


def _row_times_power(g, h, m: int) -> tuple:
    """The (word, form) row g times h**m: the words multiply, the outcome forms add."""
    mod = _phase_mod(g[0].d)
    return _times_power(g[0], h[0], m), tuple((a + m * b) % mod for a, b in zip(g[1], h[1]))


def _reduce(rows, cols, d: int):
    """Row-reduce (word, form) ``rows`` over Z_d on the symplectic coordinates ``cols``.

    Returns (pivots, rest): ``pivots`` lists (column, row) in elimination
    order, each word zero on the columns of the pivots before it, and
    ``rest`` the rows whose words are zero on every column of ``cols``.
    Rows change only by multiplying in powers of other rows, so pivots and
    rest generate the group the rows generate.
    """
    rest, pivots = list(rows), []
    for c in cols:
        k = next((i for i, (w, _) in enumerate(rest) if _coord(w, c)), None)
        if k is None:
            continue
        piv = rest.pop(k)
        inv = pow(_coord(piv[0], c), -1, d)
        rest = [_row_times_power(r, piv, -_coord(r[0], c) * inv % d) if _coord(r[0], c) else r for r in rest]
        pivots.append((c, piv))
    return pivots, rest


class StabilizerWire:
    """Stabilizer state over named registers: ``engine.Wire`` on a tableau.

    ``gens`` holds one generator word per register, over ``regs`` in order;
    the state is the words' joint +1 eigenvector, kept normalized.  It is
    symbolic in its Bell outcomes: every outcome is a variable, the x/z
    parts of the words never depend on the outcomes, and the phases depend
    on them linearly (Dehaene and De Moor, arXiv:quant-ph/0304125).  The
    phase of ``gens[i]`` is its word's phase plus ``forms[i]`` . o, mod the
    phase group, for the vector o in Z_d**nvars of the outcome variables.
    A measurement whose outcome the state fixes adds the (constant, form)
    of the eigenvalue's phase to ``constraints``: an outcome vector that
    makes one of them nonzero has probability 0.  Every other outcome
    vector has probability ``norm2`` = d**-r, r the number of measurements
    the state does not fix.  The methods are the ones ``engine._run_ops``
    and ``engine._children`` call on a wire, so the one executor runs an
    all-Clifford program on it in one pass that covers every outcome;
    ``outcome_phases`` and ``distances`` expand that pass into branches.
    """

    __slots__ = ("d", "gens", "forms", "regs", "norm2", "nvars", "constraints")

    def __init__(self, d: int, gens, regs):
        self.d = d
        self.gens = list(gens)
        self.forms = [()] * len(self.gens)
        self.regs = list(regs)
        self.norm2 = 1.0
        self.nvars = 0
        self.constraints = ()

    def _replace(self, **fields) -> "StabilizerWire":
        new = object.__new__(StabilizerWire)
        for name in self.__slots__:
            setattr(new, name, fields.get(name, getattr(self, name)))
        return new

    @classmethod
    def pairs(cls, d: int, left, right) -> "StabilizerWire":
        """Maximally entangled pairs (left[i], right[i]) and nothing else."""
        return cls(d, [], [])._adjoin(_pair_words(d, len(left)), list(left) + list(right))

    def positions(self, names) -> list:
        return [self.regs.index(nm) for nm in names]

    def _adjoin(self, words, names) -> "StabilizerWire":
        n, m = len(self.regs), len(names)
        pad, lead = (0,) * m, (0,) * n
        gens = [_word(self.d, g.x + pad, g.z + pad, g.phase) for g in self.gens]
        gens += [_word(self.d, lead + w.x, lead + w.z, w.phase) for w in words]
        forms = self.forms + [(0,) * self.nvars] * len(words)
        return self._replace(gens=gens, forms=forms, regs=self.regs + list(names))

    def append(self, vec, names) -> "StabilizerWire":
        words = stabilizer_generators(self.d, vec, len(names))
        if words is None:
            raise NotClifford("appended state is neither |0...0> nor Bell pairs")
        return self._adjoin(words, names)

    def apply_circuit(self, circuit: CliffordCircuit, names) -> "StabilizerWire":
        """Conjugate every generator touching ``names`` by the circuit's tableau.

        The phase a conjugation adds depends on the word alone, so the
        outcome forms are unchanged.
        """
        if not circuit.gates:
            return self
        d, tab, pos = self.d, circuit.tableau, self.positions(names)
        gens = []
        for g in self.gens:
            sub_x = [g.x[p] for p in pos]
            sub_z = [g.z[p] for p in pos]
            if not any(sub_x) and not any(sub_z):
                gens.append(g)
                continue
            img_x, img_z, phase = tab._image(sub_x, sub_z, g.phase)
            x, z = list(g.x), list(g.z)
            for p, a, b in zip(pos, img_x, img_z):
                x[p], z[p] = a % d, b % d
            gens.append(_word(d, tuple(x), tuple(z), phase))
        return self._replace(gens=gens)

    def correct(self, op, outcomes) -> "StabilizerWire":
        """Apply an ``engine.PauliCorrectionOp`` whose outcomes are variables.

        The op applies P, the inverse of X^x Z^z with (x, z) = frame . o, and
        P g P^-1 = omega**s g with s = x.g_z - z.g_x on the targets.  So s
        is linear in the outcomes, and frame column j gives the coefficient
        of variable j.
        """
        d, w, mod = self.d, _omega_units(self.d), _phase_mod(self.d)
        pos, m = self.positions(op.targets), len(op.targets)
        frame = op.frame.tolist()
        variables = [v for label in op.labels for v in outcomes[label]]  # one per frame column
        forms = []
        for g, f in zip(self.gens, self.forms):
            gx, gz = [g.x[p] for p in pos], [g.z[p] for p in pos]
            if any(gx) or any(gz):
                f = list(f)
                for j, v in enumerate(variables):
                    s = sum(frame[i][j] * gz[i] - frame[m + i][j] * gx[i] for i in range(m))
                    f[v] = (f[v] + w * s) % mod
                f = tuple(f)
            forms.append(f)
        return self._replace(forms=forms)

    def _measure(self, row) -> "StabilizerWire":
        """Project onto the +1 eigenspace of the (word, form) ``row`` (a word p with p**d = I)."""
        d, p, rows = self.d, row[0], list(zip(self.gens, self.forms))
        supp = [q for q in range(p.n) if p.x[q] or p.z[q]]
        s = [sum(g.z[q] * p.x[q] - g.x[q] * p.z[q] for q in supp) % d for g in self.gens]
        j0 = next((j for j, v in enumerate(s) if v), None)
        if j0 is None:
            # p commutes with the group, so the state is an eigenvector of p:
            # reduce p by group elements down to the eigenvalue's phase, which
            # must vanish
            pivots, _ = _reduce(rows, range(2 * len(self.regs)), d)
            for c, piv in pivots:
                if _coord(row[0], c):
                    row = _row_times_power(row, piv, -_coord(row[0], c) * pow(_coord(piv[0], c), -1, d) % d)
            if any(row[0].x) or any(row[0].z):
                raise DimensionMismatch("stabilizer generators do not fix a single state")
            return self._replace(constraints=self.constraints + ((row[0].phase, row[1]),))
        # every outcome has probability 1/d (Aaronson and Gottesman); keep the
        # generators commuting with p
        inv = pow(s[j0], -1, d)
        rows = [_row_times_power(r, rows[j0], -v * inv % d) if v else r for r, v in zip(rows, s)]
        rows[j0] = row
        return self._replace(gens=[g for g, _ in rows], forms=[f for _, f in rows], norm2=self.norm2 / d)

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
        d, n, w, nvars = self.d, len(self.regs), _omega_units(self.d), self.nvars + 2
        i, j = self.positions(pair)
        unit = lambda v, c: tuple(c % _phase_mod(d) if u == v else 0 for u in range(nvars))
        xx, zz = [0] * n, [0] * n
        xx[i] = xx[j] = zz[i] = 1
        zz[j] = d - 1
        none = (0,) * n

        def project(outcome):
            a, b = outcome
            wire = self._replace(
                forms=[f + (0, 0) for f in self.forms], nvars=nvars,
                constraints=tuple((c, f + (0, 0)) for c, f in self.constraints),
            )
            wire = wire._measure((_word(d, tuple(xx), none, 0), unit(b, -w)))
            wire = wire._measure((_word(d, none, tuple(zz), 0), unit(a, w)))
            return wire.factor_out(pair)

        return project

    def factor_out(self, names) -> "StabilizerWire":
        """Drop registers that are in a product state with the rest."""
        if not names:
            return self
        n, pos = len(self.regs), self.positions(names)
        _, rest = _reduce(zip(self.gens, self.forms), pos + [n + p for p in pos], self.d)
        keep = [i for i in range(n) if i not in pos]
        if len(rest) != len(keep):
            raise DimensionMismatch("discarded registers are entangled with the remainder")
        gens = [
            _word(self.d, tuple(g.x[i] for i in keep), tuple(g.z[i] for i in keep), g.phase)
            for g, _ in rest
        ]
        return self._replace(gens=gens, forms=[f for _, f in rest], regs=[self.regs[i] for i in keep])

    def outcome_phases(self) -> tuple:
        """(outcomes, phases) over every outcome vector the constraints allow.

        ``outcomes`` holds those vectors of Z_d**nvars as rows, in
        lexicographic order, and row i of ``phases`` the phase of each
        generator for outcome vector i.
        """
        d, mod, v = self.d, _phase_mod(self.d), self.nvars
        grid = np.indices((d,) * v).reshape(v, d**v).T

        def values(consts, forms):
            forms = np.array(forms, dtype=np.int64).reshape(len(consts), v)
            return (np.array(consts, dtype=np.int64) + grid @ forms.T) % mod

        if self.constraints:
            grid = grid[~values(*zip(*self.constraints)).any(axis=1)]
        return grid, values([g.phase for g in self.gens], self.forms)

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
        d, m, pos = self.d, len(names), self.positions(names)
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.size != d**m:
            raise DimensionMismatch(f"target has {vec.size} entries, the branch {d**m}")
        k = len(self.gens)
        x = np.array([[g.x[p] for p in pos] for g in self.gens], dtype=np.int64).reshape(k, m)
        z = np.array([[g.z[p] for p in pos] for g in self.gens], dtype=np.int64).reshape(k, m)
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
