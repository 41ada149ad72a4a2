"""Generalized Pauli words and symplectic simulation of Clifford circuits.

A Pauli word on n qudits is stored as exponent vectors x, z in Z_d^n plus a
phase exponent.  The phase exponent counts powers of tau, where tau = i for
d = 2 and tau = omega for odd prime d (so the phase group is Z_4 at d = 2 and
Z_d otherwise; omega = tau**2 at d = 2).  The dense operator of a word is

    tau**phase  *  kron_q( X^x[q] Z^z[q] ).

Conjugation by the generator set {CNOT, H, S, X, Z} is closed over these
words, phases included, which is what the tableau simulation relies on.

Circuits are read from and written to one JSON format,
``{"d": int, "n": int, "gates": [{"g": name, "q": [...], "pow": int}]}``,
whose gate names are the generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import qudit
from .errors import DimensionMismatch, IndexOutOfRange, IOFailure, NotClifford

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
    def identity(cls, d: int, n: int) -> "PauliWord":
        return cls(d, n, (0,) * n, (0,) * n, 0)

    @classmethod
    def single(cls, d: int, n: int, q: int, a: int, b: int, phase: int = 0) -> "PauliWord":
        x = [0] * n
        z = [0] * n
        x[q], z[q] = a, b
        return cls(d, n, tuple(x), tuple(z), phase)

    def mul(self, other: "PauliWord") -> "PauliWord":
        """Operator product self @ other with exact phase bookkeeping."""
        self._check(other)
        w = _omega_units(self.d)
        cross = sum(b * a2 for b, a2 in zip(self.z, other.x))  # Z^b X^a' reorder
        return PauliWord(
            self.d,
            self.n,
            tuple(a1 + a2 for a1, a2 in zip(self.x, other.x)),
            tuple(b1 + b2 for b1, b2 in zip(self.z, other.z)),
            self.phase + other.phase + w * cross,
        )

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

    def symplectic_product(self, other: "PauliWord") -> int:
        """Exponent s with self*other = omega**s other*self."""
        self._check(other)
        s = sum(b * a2 - a * b2 for a, b, a2, b2 in zip(self.x, self.z, other.x, other.z))
        return s % self.d

    def matrix(self) -> np.ndarray:
        facs = [qudit.weyl(self.d, a, b) for a, b in zip(self.x, self.z)]
        m = reduce(np.kron, facs, np.eye(1, dtype=complex))
        return tau(self.d) ** self.phase * m

    def _check(self, other: "PauliWord") -> None:
        if (self.d, self.n) != (other.d, other.n):
            raise DimensionMismatch("Pauli words live on different registers")


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
        """Dense unitary of the circuit (gates applied in list order)."""
        u = np.eye(self.d**self.n, dtype=complex)
        for g in self.gates:
            m = qudit.gate_matrix(g.name, self.d, g.power)
            u = qudit.embed_operator(m, self.d, self.n, g.targets) @ u
        return u

    def inverse(self) -> "CliffordCircuit":
        return CliffordCircuit(
            self.d,
            self.n,
            tuple(CliffordGate(g.name, g.targets, -g.power) for g in reversed(self.gates)),
        )


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

def _conj_single_step(p: PauliWord, g: CliffordGate) -> PauliWord:
    d, w = p.d, _omega_units(p.d)
    x, z = list(p.x), list(p.z)
    phase = p.phase
    if g.name == "H":
        q = g.targets[0]
        a, b = x[q], z[q]
        x[q], z[q] = -b % d, a
        phase += w * (-(a * b))
    elif g.name == "S":
        q = g.targets[0]
        a = x[q]
        z[q] = (z[q] + a) % d
        phase += a + w * (a * (a - 1) // 2)
    elif g.name == "CNOT":
        c, t = g.targets
        # X_c -> X_c X_t, Z_t -> Z_c^-1 Z_t, others fixed; no phases
        z[c] = (z[c] - z[t]) % d
        x[t] = (x[t] + x[c]) % d
    elif g.name == "X":
        q = g.targets[0]
        phase += w * (-z[q])
    elif g.name == "Z":
        q = g.targets[0]
        phase += w * x[q]
    return PauliWord(d, p.n, tuple(x), tuple(z), phase)


def _conj_gate(p: PauliWord, g: CliffordGate, d: int) -> PauliWord:
    k = g.power % qudit._gate_order(g.name, d)
    step = CliffordGate(g.name, g.targets, 1)
    for _ in range(k):
        p = _conj_single_step(p, step)
    return p


def conjugate_pauli(circuit: CliffordCircuit, p: PauliWord) -> PauliWord:
    """Return C p C^dagger with the phase tracked exactly."""
    if (circuit.d, circuit.n) != (p.d, p.n):
        raise DimensionMismatch("circuit and Pauli word registers differ")
    for g in circuit.gates:
        p = _conj_gate(p, g, circuit.d)
    return p


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
        for i in range(n):
            for j in range(n):
                want_xz = -1 % d if i == j else 0
                if self.x_images[i].symplectic_product(self.z_images[j]) != want_xz:
                    raise DimensionMismatch("tableau violates X/Z commutation")
                if self.x_images[i].symplectic_product(self.x_images[j]) != 0:
                    raise DimensionMismatch("tableau violates X/X commutation")
                if self.z_images[i].symplectic_product(self.z_images[j]) != 0:
                    raise DimensionMismatch("tableau violates Z/Z commutation")

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
    xs = [conjugate_pauli(circuit, PauliWord.single(d, n, q, 1, 0)) for q in range(n)]
    zs = [conjugate_pauli(circuit, PauliWord.single(d, n, q, 0, 1)) for q in range(n)]
    return StabilizerTableau(d, n, tuple(xs), tuple(zs))


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
