"""Exact dense simulation of n-qudit systems with prime local dimension d.

Conventions used throughout the package:

* Qudit 0 is the most significant tensor factor: basis index
  ``k = sum_i digit_i * d**(n-1-i)``.
* ``omega = exp(2*pi*i/d)``; the shift and clock operators act as
  ``X|j> = |j+1 mod d>`` and ``Z|j> = omega**j |j>``.
* Generalized Bell outcomes are labelled so that outcome ``(a, b)`` on a
  measured pair leaves the far half of the consumed entangled pair holding
  ``X^a Z^b |psi>`` exactly; the undo correction is ``(X^a Z^b)^dagger``.
  ``bell_basis_vector`` fixes this convention; the measurement itself is
  ``engine.Wire.project_bell``.

All values are immutable from the caller's perspective; operations return new
objects. Randomness enters only through explicitly passed generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, DimensionMismatch, IndexOutOfRange, IOFailure, UsageError

ATOL = 1e-9
STATE_ENTRY_CAP = 2**22  # largest dense state vector we agree to build


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    f = 2
    while f * f <= d:
        if d % f == 0:
            return False
        f += 1
    return True


def _require_prime(d: int) -> None:
    if not is_prime(d):
        raise DimensionMismatch(f"local dimension must be prime, got {d}")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# gate matrices
# ---------------------------------------------------------------------------

def omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def weyl_x(d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j + 1) % d, j] = 1.0
    return m


def weyl_z(d: int) -> np.ndarray:
    return np.diag(omega(d) ** np.arange(d))


def hadamard(d: int) -> np.ndarray:
    """Fourier gate, H|i> = d**-0.5 sum_m omega**(m i) |m>."""
    j = np.arange(d)
    return omega(d) ** np.outer(j, j) / np.sqrt(d)


def phase_gate(d: int) -> np.ndarray:
    """Diagonal phase gate completing the Clifford generator set.

    For odd prime d this is diag(omega**(i(i+1)/2)).  At d=2 that formula
    degenerates to Z, so the qubit phase gate diag(1, i) is used instead;
    it is the standard generator that makes {CNOT, H, S} complete.
    """
    if d == 2:
        return np.diag([1.0, 1.0j])
    i = np.arange(d)
    return np.diag(omega(d) ** (i * (i + 1) // 2))


def cnot(d: int) -> np.ndarray:
    """CNOT|i>|j> = |i>|i+j mod d>, control first."""
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[i * d + (i + j) % d, i * d + j] = 1.0
    return m


def weyl(d: int, a: int, b: int) -> np.ndarray:
    """X^a Z^b (no extra phase)."""
    return np.linalg.matrix_power(weyl_x(d), a % d) @ np.linalg.matrix_power(
        weyl_z(d), b % d
    )


GATE_BUILDERS = {
    "X": weyl_x,
    "Z": weyl_z,
    "H": hadamard,
    "S": phase_gate,
    "CNOT": cnot,
}

GATE_ARITY = {"X": 1, "Z": 1, "H": 1, "S": 1, "CNOT": 2}


def gate_matrix(name: str, d: int, power: int = 1) -> np.ndarray:
    if name not in GATE_BUILDERS:
        raise DimensionMismatch(f"unknown gate {name!r}")
    base = GATE_BUILDERS[name](d)
    if power == 1:
        return base
    k = power % _gate_order(name, d)
    return np.linalg.matrix_power(base, k)


def _gate_order(name: str, d: int) -> int:
    if name == "H":
        return 4
    if name == "S":
        return 4 if d == 2 else d
    return d  # X, Z, CNOT all have order d


# ---------------------------------------------------------------------------
# states and density operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DenseState:
    """Pure state of n qudits of prime dimension d as a complex vector."""

    d: int
    n: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_prime(self.d)
        if self.n < 0:
            raise DimensionMismatch("qudit count must be non-negative")
        dim = self.d**self.n
        if dim > STATE_ENTRY_CAP:
            raise CapExceeded(f"state of {dim} entries exceeds cap {STATE_ENTRY_CAP}")
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (dim,):
            raise DimensionMismatch(
                f"amplitude vector has length {amp.shape[0]}, expected {dim}"
            )
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1.0) > ATOL:
            raise DimensionMismatch(f"state norm {nrm} deviates from 1")
        object.__setattr__(self, "amplitudes", _readonly(amp))

    @classmethod
    def computational(cls, d: int, n: int, index: int = 0) -> "DenseState":
        amp = np.zeros(d**n, dtype=complex)
        amp[index] = 1.0
        return cls(d, n, amp)

    @classmethod
    def from_digits(cls, d: int, digits) -> "DenseState":
        idx = 0
        for dig in digits:
            idx = idx * d + int(dig) % d
        return cls.computational(d, len(tuple(digits)), idx)

    @property
    def dim(self) -> int:
        return self.d**self.n

    def tensor(self, other: "DenseState") -> "DenseState":
        if other.d != self.d:
            raise DimensionMismatch("tensor factors must share d")
        return DenseState(
            self.d, self.n + other.n, np.kron(self.amplitudes, other.amplitudes)
        )

    def density(self) -> "DensityOperator":
        return DensityOperator(
            self.d, self.n, np.outer(self.amplitudes, self.amplitudes.conj())
        )

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: "DenseState") -> complex:
        if (self.d, self.n) != (other.d, other.n):
            raise DimensionMismatch("overlap requires equal registers")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Mixed state of n qudits; Hermitian, unit trace, positive."""

    d: int
    n: int
    matrix: np.ndarray = field(repr=False)

    # full positivity checks are skipped above this dimension (cost), the
    # cheap Hermiticity/trace checks always run
    _PSD_CHECK_DIM = 512

    def __post_init__(self):
        _require_prime(self.d)
        dim = self.d**self.n
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise DimensionMismatch(f"matrix shape {m.shape}, expected {(dim, dim)}")
        if np.abs(m - m.conj().T).max() > 1e-8:
            raise DimensionMismatch("density operator is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > 1e-8:
            raise DimensionMismatch(f"density operator trace {tr} deviates from 1")
        if dim <= self._PSD_CHECK_DIM:
            lo = np.linalg.eigvalsh(m)[0]
            if lo < -1e-8:
                raise DimensionMismatch(f"density operator has eigenvalue {lo}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.d**self.n

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        if other.d != self.d:
            raise DimensionMismatch("tensor factors must share d")
        return DensityOperator(
            self.d, self.n + other.n, np.kron(self.matrix, other.matrix)
        )


def maximally_mixed(d: int, n: int) -> DensityOperator:
    dim = d**n
    return DensityOperator(d, n, np.eye(dim) / dim)


def bell_pair(d: int) -> DenseState:
    """|Phi+> = d**-0.5 sum_i |ii> on two qudits."""
    amp = np.zeros(d * d, dtype=complex)
    amp[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return DenseState(d, 2, amp)


def max_entangled_tensor(dim: int) -> np.ndarray:
    """Rank-2 tensor of sum_i |ii>/sqrt(dim); dim need not be prime."""
    return np.eye(dim, dtype=complex) / np.sqrt(dim)


def bell_basis_vector(d: int, a: int, b: int) -> np.ndarray:
    """Basis vector for outcome (a, b) of a generalized Bell measurement.

    Chosen as ((X^a Z^b)^dagger x I)|Phi+> so that teleporting through |Phi+>
    and reading outcome (a, b) leaves exactly X^a Z^b |psi> on the far side.
    As a set these vectors coincide with {(X^a Z^b x I)|Phi+>}.
    """
    pair = bell_pair(d).amplitudes.reshape(d, d)
    w = weyl(d, a, b).conj().T
    return (w @ pair).reshape(-1)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _check_targets(n: int, targets) -> tuple:
    t = tuple(int(q) for q in targets)
    if len(set(t)) != len(t):
        raise IndexOutOfRange(f"duplicate targets {t}")
    for q in t:
        if not 0 <= q < n:
            raise IndexOutOfRange(f"target {q} outside register of {n} qudits")
    return t


def apply_gate(state: DenseState, gate: np.ndarray, targets) -> DenseState:
    """Apply a unitary on d**k dimensions to the given k qudits."""
    t = _check_targets(state.n, targets)
    k = len(t)
    d, n = state.d, state.n
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (d**k, d**k):
        raise DimensionMismatch(
            f"gate shape {gate.shape} does not match {k} qudits of dimension {d}"
        )
    psi = state.amplitudes.reshape((d,) * n)
    psi = np.moveaxis(psi, t, range(k))
    psi = gate @ psi.reshape(d**k, -1)
    psi = np.moveaxis(psi.reshape((d,) * n), range(k), t)
    return DenseState(d, n, psi.reshape(-1))


def embed_operator(op: np.ndarray, d: int, n: int, targets) -> np.ndarray:
    """Embed an operator on the target qudits into the full register."""
    t = _check_targets(n, targets)
    k = len(t)
    op = np.asarray(op, dtype=complex)
    if op.shape != (d**k, d**k):
        raise DimensionMismatch("operator does not match target count")
    rest = [q for q in range(n) if q not in t]
    perm = list(t) + rest
    big = np.kron(op, np.eye(d ** (n - k)))
    # permute tensor legs of the embedded operator back to register order
    big = big.reshape((d,) * (2 * n))
    inv = np.argsort(perm)
    big = big.transpose(tuple(inv) + tuple(n + i for i in inv))
    return big.reshape(d**n, d**n)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced operator on the kept qudits, in their original order."""
    k = _check_targets(rho.n, keep)
    return DensityOperator(rho.d, len(k), partial_trace_matrix(rho.matrix, rho.d, rho.n, k))


def partial_trace_matrix(mat: np.ndarray, d: int, n: int, keep) -> np.ndarray:
    """partial_trace on a raw matrix (no normalization requirements)."""
    k = tuple(keep)
    rest = tuple(q for q in range(n) if q not in k)
    m = mat.reshape((d,) * (2 * n))
    perm = k + rest
    m = m.transpose(tuple(perm) + tuple(n + q for q in perm))
    dk, dr = d ** len(k), d ** len(rest)
    return np.trace(m.reshape(dk, dr, dk, dr), axis1=1, axis2=3)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))**2."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch("fidelity requires equal dimensions")
    s = np.linalg.svd(psd_sqrt(rho.matrix) @ psd_sqrt(sigma.matrix), compute_uv=False)
    return float(min(1.0, s.sum() ** 2))


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """T = 0.5 * ||rho - sigma||_1 via eigenvalues of the difference."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch("trace distance requires equal dimensions")
    return trace_distance_matrices(rho.matrix, sigma.matrix)


def trace_distance_matrices(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def von_neumann_entropy(rho: DensityOperator, base: str = "e") -> float:
    """Entropy of rho; base 'e' gives nats, base '2' gives bits/ebits."""
    vals = np.linalg.eigvalsh(rho.matrix)
    vals = vals[vals > 1e-14]
    s = float(-(vals * np.log(vals)).sum())
    if base == "e":
        return s
    if base == "2":
        return s / np.log(2.0)
    raise UsageError(f"unsupported entropy base {base!r}")


def mutual_information_bipartite(rho: DensityOperator, n_left: int, base="e") -> float:
    """I(L:R) for a declared split of the register after qudit n_left - 1."""
    left = partial_trace(rho, range(n_left))
    right = partial_trace(rho, range(n_left, rho.n))
    return (
        von_neumann_entropy(left, base)
        + von_neumann_entropy(right, base)
        - von_neumann_entropy(rho, base)
    )


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Channel:
    """CPTP map given by a Kraus list; input/output dimensions may differ."""

    dim_in: int
    dim_out: int
    kraus: tuple = field(repr=False)

    def __post_init__(self):
        ks = tuple(_readonly(k) for k in self.kraus)
        for k in ks:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatch(
                    f"Kraus shape {k.shape}, expected {(self.dim_out, self.dim_in)}"
                )
        comp = sum(k.conj().T @ k for k in ks)
        if np.abs(comp - np.eye(self.dim_in)).max() > ATOL:
            raise DimensionMismatch("Kraus operators do not satisfy completeness")
        object.__setattr__(self, "kraus", ks)

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "Channel":
        u = np.asarray(u, dtype=complex)
        return cls(u.shape[1], u.shape[0], (u,))

    @classmethod
    def identity(cls, dim: int) -> "Channel":
        return cls(dim, dim, (np.eye(dim, dtype=complex),))

    @classmethod
    def completely_depolarizing(cls, dim: int) -> "Channel":
        ks = []
        for i in range(dim):
            for j in range(dim):
                m = np.zeros((dim, dim), dtype=complex)
                m[i, j] = 1.0 / np.sqrt(dim)
                ks.append(m)
        return cls(dim, dim, tuple(ks))

    @classmethod
    def from_choi(cls, choi: np.ndarray, dim_in: int, dim_out: int) -> "Channel":
        """Recover a Kraus list from a trace-normalized Choi operator.

        The Choi must be positive within 1e-9 and its output partial trace
        must be the maximally mixed state on the input copy.
        """
        j = np.asarray(choi, dtype=complex) * dim_in  # unnormalized convention
        if j.shape != (dim_out * dim_in, dim_out * dim_in):
            raise DimensionMismatch("Choi matrix has the wrong shape")
        vals, vecs = np.linalg.eigh(j)
        if vals[0] < -1e-9 * dim_in:
            raise DimensionMismatch(f"Choi operator has eigenvalue {vals[0] / dim_in}")
        marg = np.trace(j.reshape(dim_out, dim_in, dim_out, dim_in), axis1=0, axis2=2)
        if np.abs(marg - np.eye(dim_in)).max() > 1e-9 * dim_in:
            raise DimensionMismatch("Choi partial trace is not the identity")
        ks = []
        for lam, v in zip(vals, vecs.T):
            if lam > 1e-12:
                ks.append(np.sqrt(lam) * v.reshape(dim_out, dim_in))
        return cls(dim_in, dim_out, tuple(ks))

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for k in self.kraus)

    def apply(self, rho: DensityOperator) -> DensityOperator:
        if rho.dim != self.dim_in:
            raise DimensionMismatch("channel input dimension mismatch")
        out = self.apply_matrix(rho.matrix)
        n_out = _log_dim(self.dim_out, rho.d)
        return DensityOperator(rho.d, n_out, out)

    def choi_matrix(self) -> np.ndarray:
        """Trace-1 Choi operator (C x I) acting on |Phi+><Phi+|."""
        vecs = [k.reshape(-1) / np.sqrt(self.dim_in) for k in self.kraus]
        j = sum(np.outer(v, v.conj()) for v in vecs)
        return j


def _log_dim(dim: int, d: int) -> int:
    n = 0
    while d**n < dim:
        n += 1
    if d**n != dim:
        raise DimensionMismatch(f"{dim} is not a power of {d}")
    return n


def choi_of(channel: Channel, d: int) -> DensityOperator:
    """Choi state of a channel, normalized to trace one."""
    j = channel.choi_matrix()
    n = _log_dim(j.shape[0], d)
    return DensityOperator(d, n, j)


def choi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Trace-1 Choi matrix of the unitary channel u . u^dagger."""
    v = np.asarray(u, dtype=complex).reshape(-1) / np.sqrt(u.shape[1])
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# circuit file format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateSpec:
    name: str
    targets: tuple
    power: int = 1
    matrix: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class CircuitSpec:
    d: int
    n: int
    gates: tuple


def load_circuit_json(source) -> CircuitSpec:
    """Parse the JSON circuit format.

    ``{"d": int, "n": int, "gates": [{"g": name, "q": [...], "pow": int}]}``
    where ``g`` is one of X, Z, H, S, CNOT or "custom" with a row-major
    ``"matrix"`` of [re, im] pairs.
    """
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise IOFailure(f"invalid circuit JSON: {exc}") from exc
    else:
        doc = source
    try:
        d, n = int(doc["d"]), int(doc["n"])
        gates = []
        for g in doc.get("gates", []):
            name = g["g"]
            targets = tuple(int(q) for q in g["q"])
            power = int(g.get("pow", 1))
            if name == "custom":
                m = np.array(
                    [[complex(re, im) for re, im in row] for row in g["matrix"]]
                )
                gates.append(GateSpec("custom", targets, power, m))
            else:
                if name not in GATE_BUILDERS:
                    raise IOFailure(f"unknown gate name {name!r}")
                if len(targets) != GATE_ARITY[name]:
                    raise IOFailure(f"gate {name} expects {GATE_ARITY[name]} targets")
                gates.append(GateSpec(name, targets, power))
    except (KeyError, TypeError, ValueError) as exc:
        raise IOFailure(f"malformed circuit document: {exc}") from exc
    return CircuitSpec(d, n, tuple(gates))


def dump_circuit_json(spec: CircuitSpec) -> str:
    gates = []
    for g in spec.gates:
        if g.name == "custom":
            gates.append(
                {
                    "g": "custom",
                    "q": list(g.targets),
                    "pow": g.power,
                    "matrix": [
                        [[float(z.real), float(z.imag)] for z in row]
                        for row in np.asarray(g.matrix)
                    ],
                }
            )
        else:
            gates.append({"g": g.name, "q": list(g.targets), "pow": g.power})
    return json.dumps({"d": spec.d, "n": spec.n, "gates": gates}, sort_keys=True)


def circuit_unitary(spec: CircuitSpec) -> np.ndarray:
    """Dense unitary of a circuit (gates applied in list order)."""
    _require_prime(spec.d)
    dim = spec.d**spec.n
    u = np.eye(dim, dtype=complex)
    for g in spec.gates:
        if g.name == "custom":
            m = np.linalg.matrix_power(g.matrix, g.power) if g.power != 1 else g.matrix
        else:
            m = gate_matrix(g.name, spec.d, g.power)
        u = embed_operator(m, spec.d, spec.n, g.targets) @ u
    return u
