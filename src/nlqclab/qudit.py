"""Exact dense simulation of n-qudit systems with prime local dimension d.

Conventions used throughout the package:

* Qudit 0 is the most significant tensor factor: basis index
  ``k = sum_i digit_i * d**(n-1-i)``.
* ``omega = exp(2*pi*i/d)``; the shift and clock operators act as
  ``X|j> = |j+1 mod d>`` and ``Z|j> = omega**j |j>``.
* Generalized Bell outcomes are labelled so that outcome ``(a, b)`` on a
  measured pair leaves the far half of the consumed entangled pair holding
  ``X^a Z^b |psi>`` exactly; the undo correction is ``(X^a Z^b)^dagger``.
  ``bell_basis_vector`` fixes this convention.  ``bell_basis`` stacks the
  conjugated vectors, a-major, into the rotation that
  ``engine.Wire.project_bell`` applies once per measurement.

All values are immutable from the caller's perspective; operations return new
objects. Randomness enters only through explicitly passed generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import CapExceeded, DimensionMismatch, IndexOutOfRange, IOFailure

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


def gate_matrix(name: str, d: int, power: int) -> np.ndarray:
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
# states
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


@cache
def bell_basis(d: int) -> np.ndarray:
    """Read-only (d**2, d**2) rotation into the Bell basis, built once per d.

    Row a*d + b is ``bell_basis_vector(d, a, b).conj()``, so the product with
    a pair's amplitudes holds every outcome's amplitude, a-major.
    """
    return _readonly([bell_basis_vector(d, a, b).conj() for a in range(d) for b in range(d)])


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


def embed_operator(op: np.ndarray, d: int, n: int, targets) -> np.ndarray:
    """Embed an operator on the target qudits into the full register; a real one stays real."""
    t = _check_targets(n, targets)
    k = len(t)
    op = np.asarray(op)
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


def partial_trace_matrix(mat: np.ndarray, d: int, n: int, keep) -> np.ndarray:
    """Reduced matrix on the kept qudits, in the order given; any trace."""
    k = _check_targets(n, keep)
    rest = tuple(q for q in range(n) if q not in k)
    m = mat.reshape((d,) * (2 * n))
    perm = k + rest
    m = m.transpose(tuple(perm) + tuple(n + q for q in perm))
    dk, dr = d ** len(k), d ** len(rest)
    return np.trace(m.reshape(dk, dr, dk, dr), axis1=1, axis2=3)


def is_unitary(u: np.ndarray) -> bool:
    """True iff u is a square matrix with u u^dagger = I to ``ATOL``."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() <= ATOL)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a positive semidefinite matrix by ``eigh``, negative
    eigenvalues clipped to 0.

    A null eigenvalue comes out of ``eigh`` as some delta up to about
    dim * eps * ||m|| in size, and its root sqrt(delta) enters the result, so
    near a null space the root is accurate only to about
    sqrt(dim * eps * ||m||) entrywise, not to eps.
    """
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def trace_distance_matrices(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy of the density matrix rho, in nats."""
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-14]
    return float(-(vals * np.log(vals)).sum())


def mutual_information_bipartite(rho: np.ndarray, d: int, n: int, n_left: int) -> float:
    """I(L:R) in nats for the split of n qudits after qudit n_left - 1."""
    left = partial_trace_matrix(rho, d, n, range(n_left))
    right = partial_trace_matrix(rho, d, n, range(n_left, n))
    return von_neumann_entropy(left) + von_neumann_entropy(right) - von_neumann_entropy(rho)


def choi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Trace-1 Choi matrix of the unitary channel u . u^dagger."""
    v = np.asarray(u, dtype=complex).reshape(-1) / np.sqrt(u.shape[1])
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

# what indexing or converting a malformed document raises
MALFORMED_DOCUMENT = (AttributeError, KeyError, TypeError, ValueError)


def parse_json(source, kind: str):
    """A JSON document: a str is parsed, anything else is taken as parsed.

    Every file-format loader reads its document through here, so a syntax
    error is an ``IOFailure`` naming the ``kind`` of document.
    """
    if not isinstance(source, str):
        return source
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise IOFailure(f"invalid {kind} JSON: {exc}") from exc
