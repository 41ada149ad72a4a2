"""Bell-basis teleportation and approximate port-based teleportation.

Port teleportation sends a register of dimension ``d_a`` onto one of N ports
using the pretty-good measurement built from the signals

    sigma_i = |Phi+><Phi+|_{A L_i} (x) (I/d_a)^{(N-1)}

as ``Pi_i = rho^{-1/2} sigma_i rho^{-1/2} + Delta/N`` with ``rho = sum_i
sigma_i``; the completion Delta = I - sum_i Pi_i is spread equally over the
ports.  The receiver's only correction is discarding all ports but ``i*``,
so the reproduced state is approximate, improving with N.

The PGM is real, as |Phi+> and I are, and is held in factored form
(``PBTInstance``): rho commutes with conj(U) (x) U^(x)N, so for diagonal U
it is block diagonal by charge (``charge_labels``) and is diagonalized one
block at a time; ``Pi_i`` is P_i b b^T P_i^T + Delta/N for one D x D/d_a^2
factor b and the port exchange P_i (``port_rows``), and each root is thin
as well.  The port measurement, the oracle channel and the reduced port
Chois all work on the factors; the dense elements are a view for checks
and oracles.  The build is limited to ``POVM_DIM_CAP``.

The channel path is the closed form: the channel is U (x) U* covariant,
hence depolarizing, and ``pgm_fidelity`` gives its entanglement fidelity as
a sum over Young diagrams, so ``depolarizing_choi`` gives its Choi matrix at
any port count the diagram cap allows.  The PGM is built only where a port
measurement is executed (``engine.PortMeasureOp``) and in the oracles that
check the closed form against a built instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import exp, fsum, lgamma, log

import numpy as np

from . import qudit
from .errors import CapExceeded, DimensionMismatch, IndexOutOfRange

POVM_DIM_CAP = 2**14  # largest dense dimension for PGM operator matrices
PGM_DIAGRAM_CAP = 10**5  # most Young diagrams pgm_fidelity sums over


# ---------------------------------------------------------------------------
# Bell teleportation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TeleportResult:
    outcomes: tuple          # ((a, b), ...) per teleported qudit
    probability: float
    state: qudit.DenseState  # remaining register, measured qudits removed


def bell_teleport(
    state: qudit.DenseState,
    sources,
    pairs,
    *,
    forced=None,
    rng: np.random.Generator | None = None,
) -> TeleportResult:
    """Teleport source qudits through Bell pairs contained in ``state``.

    ``pairs[i] = (near, far)`` names two qudit indices of ``state``; source
    ``i`` is measured against ``near`` and lands on ``far``, where the
    outcome-dependent (X^a Z^b)^dagger undo reproduces the input exactly.
    ``forced[i]`` fixes the outcome of source ``i``; the others are drawn
    with ``rng``.  The run is one ``engine.sample_branch`` of the teleport
    program over the qudits of ``state``, named by their indices.
    """
    from . import engine  # engine imports this module

    sources = tuple(sources)
    pairs = tuple(tuple(p) for p in pairs)
    if len(sources) != len(pairs):
        raise DimensionMismatch("need one resource pair per teleported qudit")
    touched = list(sources) + [q for p in pairs for q in p]
    if len(set(touched)) != len(touched):
        raise IndexOutOfRange("sources and pair halves must be distinct qudits")
    measured = set(sources) | {near for near, _ in pairs}
    rest = tuple(q for q in range(state.n) if q not in measured)
    ops = _teleport_ops(sources, pairs)
    program = engine.Program(state.d, tuple(range(state.n)), ops, rest)
    forced = None if forced is None else dict(enumerate(forced))
    branch = engine.sample_branch(program, state.amplitudes, forced, rng)
    prob = branch.wire.squared_norm()
    vec = engine.branch_map(branch, rest)[:, 0] / np.sqrt(prob)
    outcomes = tuple(branch.outcomes[i] for i in range(len(sources)))
    return TeleportResult(outcomes, prob, qudit.DenseState(state.d, len(rest), vec))


def _teleport_ops(sources, pairs) -> tuple:
    """Bell measurement i of (source i, near i); then the undo on far i."""
    from . import engine  # engine imports this module

    ops = tuple(
        engine.BellMeasureOp((src, near), i)
        for i, (src, (near, _)) in enumerate(zip(sources, pairs))
    )
    return ops + engine.hop_undos(range(len(pairs)), [far for _, far in pairs])


def hop_frame(hops: int) -> np.ndarray:
    """Pauli frame of a chain of Bell teleportation hops on the qudit it carries.

    A hop reading (a, b) leaves X^a Z^b on the far half, so a chain leaves
    X^(sum a) Z^(sum b), up to a global phase.
    """
    return np.tile(np.eye(2, dtype=np.int64), hops)


def teleportation_channel_choi(d: int) -> np.ndarray:
    """Choi matrix of one-qudit Bell teleportation, all outcomes summed."""
    from . import engine  # engine imports this module

    ops = (engine.AppendOp((1, 2), engine.Resource.pairs(d, 1)),)
    ops += _teleport_ops((0,), ((1, 2),))
    return engine.program_choi(engine.Program(d, (0,), ops, (2,)))


# ---------------------------------------------------------------------------
# port-based teleportation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PBTParams:
    d_a: int
    n_ports: int

    def __post_init__(self):
        if self.n_ports < 1:
            raise DimensionMismatch("need at least one port")
        if self.d_a < 2:
            raise DimensionMismatch("input dimension must be at least 2")

    @property
    def dim(self) -> int:
        """Dimension of the measured system A L_1..L_N."""
        return self.d_a ** (self.n_ports + 1)

    def diamond_bound(self) -> float:
        """Quoted accuracy bound 4 d_a^2 / sqrt(N) on the diamond distance."""
        return 4.0 * self.d_a**2 / np.sqrt(self.n_ports)


def port_rows(mat: np.ndarray, d: int, n: int, i: int) -> np.ndarray:
    """P_i mat, P_i exchanging ports 1 and i+1 of (A, L_1..L_N) on the row
    index of ``mat``: a transpose of its (d,)*(N+1) row axes, with ``n`` = N."""
    axes = list(range(n + 2))
    axes[1], axes[1 + i] = axes[1 + i], axes[1]
    return mat.reshape((d,) * (n + 1) + (-1,)).transpose(axes).reshape(mat.shape)


def port_swap(mat: np.ndarray, d: int, n: int, i: int) -> np.ndarray:
    """P_i mat P_i^T, with P_i as in ``port_rows``."""
    return port_rows(port_rows(mat, d, n, i).T, d, n, i).T


def charge_labels(d: int, n: int) -> np.ndarray:
    """Charge block of each basis state |a, l_1..l_N> of (A, L_1..L_N), as 0, 1, ...

    The charge of |a, l> is the count of each value among l_1..l_N less one
    count of a.  conj(U) (x) U^(x)N multiplies |a, l> by a phase fixed by its
    charge when U is diagonal, and rho commutes with it, so rho maps each
    charge to itself.  |0, 0, m> has the charge of m alone.
    """
    digits = np.indices((d,) * (n + 1)).reshape(n + 1, -1)
    values = np.arange(d)
    counts = (digits[1:, :, None] == values).sum(axis=0) - (digits[0][:, None] == values)
    return np.unique(counts, axis=0, return_inverse=True)[1].reshape(-1)


def rho_blocks(params: PBTParams) -> list:
    """(states, block) for each charge block of rho = sum_i sigma_i.

    ``states`` are the block's basis indices in increasing order and
    ``block`` is rho on them; rho is zero between blocks.  sigma_i maps
    |a', l> with l_i = a' to d_a^-N sum_a |a, l with l_i = a>, so the entries
    come from index arithmetic and the D x D rho is never formed.
    """
    d, n, dim = params.d_a, params.n_ports, params.dim
    labels = charge_labels(d, n)
    digits = np.indices((d,) * (n + 1)).reshape(n + 1, -1)
    src, dst = [], []
    for i in range(n):
        s = np.flatnonzero(digits[0] == digits[i + 1])
        for a in range(d):
            src.append(s)
            dst.append(s + (a - digits[0, s]) * (d**n + d ** (n - 1 - i)))
    src, dst = np.concatenate(src), np.concatenate(dst)
    blocks = []
    for c in range(labels.max() + 1):
        states = np.flatnonzero(labels == c)
        size = len(states)
        hit = labels[src] == c
        flat = np.searchsorted(states, dst[hit]) * size + np.searchsorted(states, src[hit])
        blocks.append((states, np.bincount(flat, minlength=size * size).reshape(size, size) / d**n))
    return blocks


@dataclass(frozen=True, eq=False)
class PBTInstance:
    """A real PGM held as factors: Pi_i = P_i b b^T P_i^T + Delta/N.

    ``b`` is D x D/d_a^2 with b b^T = rho^-1/2 sigma_1 rho^-1/2, P_i is the
    port exchange of ``port_rows``, and Delta = I - sum_i P_i b b^T P_i^T is
    the projector onto ker rho.  ``basis`` is an orthonormal basis of ker rho
    when ``kernel`` is true, else of supp rho, whichever is smaller, so
    Delta = basis basis^T or I - basis basis^T.  Covariance and positivity
    hold by construction.  Every column of b and of basis must lie in one
    charge block (``charge_labels``); the sum of the elements is then block
    diagonal, and it is checked against I block by block, to 1e-9.
    """

    params: PBTParams
    b: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    kernel: bool

    def __post_init__(self):
        d, n, dim = self.params.d_a, self.params.n_ports, self.params.dim
        r = dim // d**2
        if self.b.shape != (dim, r) or self.basis.shape[0] != dim:
            raise DimensionMismatch(f"PGM factors do not fit dimension {dim}")
        labels = charge_labels(d, n)
        for m in (self.b, self.basis):
            live = m != 0
            if np.any(live & (labels[:, None] != labels[live.argmax(axis=0)])):
                raise DimensionMismatch("a PGM factor column spans two charge blocks")
        rows = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
        cols = [np.flatnonzero(labels[:r] == c) for c in range(labels.max() + 1)]
        totals = []
        for s in rows:  # Delta on the block
            part = self.basis[s] @ self.basis[s].T
            totals.append(part if self.kernel else np.eye(len(s)) - part)
        for i in range(n):
            perm = port_rows(np.arange(dim), d, n, i)  # (P_i m)[x] = m[perm[x]]
            for total, s, t in zip(totals, rows, cols):
                part = self.b[np.ix_(perm[s], t)]
                total += part @ part.T
        if max(np.abs(t - np.eye(len(t))).max() for t in totals) > 1e-9:
            raise DimensionMismatch("POVM does not sum to the identity")

    def null_part(self, t: np.ndarray) -> np.ndarray:
        """Delta t, through the smaller of the bases of ker rho and supp rho."""
        part = self.basis @ (self.basis.T @ t)
        return part if self.kernel else t - part

    @property
    def povm(self) -> tuple:
        """The dense elements, D x D each: a view for checks and oracles."""
        d, n, dim = self.params.d_a, self.params.n_ports, self.params.dim
        first = self.b @ self.b.T + self.null_part(np.eye(dim)) / n
        return tuple(port_swap(first, d, n, i) for i in range(n))

    def sqrt_povm(self) -> tuple:
        """(left_i, right_i) per port, with sqrt(Pi_i) = left_i right_i^T + Delta/sqrt(N).

        right_i = P_i b and left_i = P_i b G^-1/2 with G = b^T b: for
        M = P_i b, (M G^-1/2 M^T)^2 = M M^T, and Delta annihilates every
        P_i b, so the root is exact and no null eigenvalue is clipped.
        """
        d, n = self.params.d_a, self.params.n_ports
        vals, vecs = np.linalg.eigh(self.b.T @ self.b)
        left = self.b @ ((vecs / np.sqrt(vals)) @ vecs.T)
        return tuple((port_rows(left, d, n, i), port_rows(self.b, d, n, i)) for i in range(n))


def build_pgm(params: PBTParams) -> PBTInstance:
    """Pretty-good-measurement POVM for the port teleportation instance, as factors.

    rho is block diagonal over charges (``rho_blocks``), so it is
    diagonalized by one real ``eigh`` per block.  In block c,
    b = rho^-1/2 (|Phi+> (x) I)/sqrt(d_a^(N-1)) on the columns m whose
    |0, 0, m> has charge c, and the null eigenvectors span ker rho there.
    No D x D matrix is formed.
    """
    d, n, dim = params.d_a, params.n_ports, params.dim
    if dim > POVM_DIM_CAP:
        raise CapExceeded(f"PGM on dimension {dim} exceeds the dense cap {POVM_DIM_CAP}")
    r = dim // d**2
    spectra = [(states, *np.linalg.eigh(block)) for states, block in rho_blocks(params)]
    tol = max(vals.max() for _, vals, _ in spectra) * 1e-12
    n_null = sum(int((vals <= tol).sum()) for _, vals, _ in spectra)
    kernel = n_null <= dim // 2
    b = np.zeros((dim, r))
    basis = np.zeros((dim, n_null if kernel else dim - n_null))
    start = 0
    for states, vals, vecs in spectra:
        keep = vals > tol
        cols = states[states < r]  # |0, 0, m> is basis state m
        # rows of (|Phi+>_{A L_1} (x) I)^T vecs: the sum over |a, a, m>
        proj = sum(vecs[np.searchsorted(states, cols + a * (d**n + d ** (n - 1)))] for a in range(d))
        proj = proj[:, keep] / np.sqrt(d)
        b[np.ix_(states, cols)] = (vecs[:, keep] / np.sqrt(vals[keep])) @ proj.T / np.sqrt(d ** (n - 1))
        span = vecs[:, ~keep if kernel else keep]
        basis[states, start:start + span.shape[1]] = span
        start += span.shape[1]
    return PBTInstance(params, b, basis, kernel)


@dataclass(frozen=True)
class PBTChannelReport:
    params: PBTParams
    choi: np.ndarray = field(repr=False)
    choi_fidelity: float
    choi_trace_distance: float
    paper_bound_diamond: float
    paper_bound_trace: float

    def bound_respected(self) -> bool:
        return self.choi_trace_distance <= self.paper_bound_trace + 1e-9


def pbt_channel(params: PBTParams, instance: PBTInstance | None = None) -> PBTChannelReport:
    """Exact Choi operator of the PGM port-teleportation channel.

    Without an instance, the closed form: the depolarizing channel with
    F = ``pgm_fidelity(d_a, N)``, at trace distance 1 - F from the identity;
    no PGM is built.  With one, the oracle: the sum over ports of
    ``reduced_port_choi`` of that instance, every outcome summed.
    """
    target = qudit.choi_of_unitary(np.eye(params.d_a))
    if instance is None:
        fid = pgm_fidelity(params.d_a, params.n_ports)
        j, dist = depolarizing_choi(target, fid), 1.0 - fid
    elif instance.params != params:
        raise DimensionMismatch(f"PGM built for {instance.params}, channel asked for {params}")
    else:
        j = sum(reduced_port_choi(instance))
        j = 0.5 * (j + j.conj().T)
        fid = float(np.real(np.trace(target @ j)))
        dist = qudit.trace_distance_matrices(j, target)
    bound = params.diamond_bound()
    return PBTChannelReport(params, j, fid, dist, bound, min(1.0, bound / 2.0))


def _partitions(n: int, max_rows: int, max_part: int | None = None):
    """Young diagrams of n boxes with at most ``max_rows`` rows, as row tuples."""
    if n == 0:
        yield ()
        return
    # a first row shorter than n/max_rows leaves too many boxes for the rest,
    # so every call made here yields at least one diagram
    for first in range(min(n, max_part or n), -(-n // max_rows) - 1, -1):
        for rest in _partitions(n - first, max_rows - 1, first):
            yield (first,) + rest


def _log_sqrt_dims(mu: tuple, d: int, log_n_fact: float) -> float:
    """log sqrt(d_mu m_mu) for a diagram mu of N boxes with at most d rows.

    d_mu = N!/H is the S_N irrep dimension (hook-length formula) and
    m_mu = prod_cells (d + content)/H the U(d) irrep dimension (hook-content
    formula).  Both products are taken row by row: with l_i = mu_i + k-1-i
    over the k rows, H = prod_i l_i! / prod_{i<j} (l_i - l_j), and row i
    contributes Gamma(d - i + mu_i)/Gamma(d - i) to the content product.
    """
    k = len(mu)
    ls = [mu[i] + k - 1 - i for i in range(k)]
    log_h = sum(lgamma(li + 1) for li in ls) - sum(
        log(ls[i] - ls[j]) for i in range(k) for j in range(i + 1, k)
    )
    log_content = sum(lgamma(d - i + mu[i]) - lgamma(d - i) for i in range(k))
    return 0.5 * (log_n_fact + log_content) - log_h


def pgm_fidelity(d_a: int, n_ports: int) -> float:
    """Entanglement fidelity <Phi+|J|Phi+> of the PGM port-teleportation channel.

    Closed form of Studzinski, Strelchuk, Mozrzymas and Horodecki,
    Sci. Rep. 7, 10871 (2017) (qubits: Ishizaka and Hiroshima, PRL 101,
    240501 (2008)):

        F = d_a^-(N+2) sum_{alpha |- N-1} (sum_{mu = alpha + box} sqrt(d_mu m_mu))^2

    over diagrams with at most d_a rows.  Every term is evaluated in log
    space, so large N neither overflows nor loses the terms that matter.
    Raises ``CapExceeded`` when there are more than ``PGM_DIAGRAM_CAP``
    diagrams alpha.
    """
    PBTParams(d_a, n_ports)  # validates d_a and N
    d, n = d_a, n_ports
    alphas = list(islice(_partitions(n - 1, d), PGM_DIAGRAM_CAP + 1))
    if len(alphas) > PGM_DIAGRAM_CAP:
        raise CapExceeded(
            f"PGM fidelity at (d_a, N) = ({d}, {n}) sums more than "
            f"{PGM_DIAGRAM_CAP} Young diagrams"
        )
    log_n_fact = lgamma(n + 1)
    log_norm = (n + 2) * log(d)
    terms = []
    for alpha in alphas:
        rows = list(alpha) + [0]
        logs = []
        for i in range(min(len(rows), d)):
            if i > 0 and rows[i] == rows[i - 1]:
                continue  # a box here would not leave a diagram
            mu = list(rows)
            mu[i] += 1
            logs.append(_log_sqrt_dims(tuple(r for r in mu if r), d, log_n_fact))
        top = max(logs)
        log_inner = top + log(fsum(exp(s - top) for s in logs))
        terms.append(exp(2.0 * log_inner - log_norm))
    return fsum(terms)


def depolarizing_choi(target: np.ndarray, fidelity: float) -> np.ndarray:
    """Choi matrix of a unitary channel followed by depolarizing noise.

    ``target`` is the trace-1 Choi projector of the unitary; the result is
    F target + (1 - F)/(D - 1) (I - target) for Choi dimension D, whose
    trace distance to ``target`` is 1 - F.
    """
    dim = target.shape[0]
    return fidelity * target + (1.0 - fidelity) / (dim - 1) * (np.eye(dim) - target)


def reduced_port_choi(instance: PBTInstance) -> list:
    """Trace-normalized Choi contribution of each port's reduced channel.

    Summing over ports gives the full PBT channel Choi; indices are ordered
    (output, input copy).  With the A slot read as the output copy and the
    L_i slot as the input copy, port i's contribution is Theta_i/d^(N+1),
    Theta_i = tr_{ports != i}(Pi_i) on (A, L_i), the same matrix for every
    port by covariance.  (A, L_1) leads the row index of the factors, so
    Theta is one product of each factor reshaped to d_a^2 rows.
    """
    d, n, dim = instance.params.d_a, instance.params.n_ports, instance.params.dim
    b = instance.b.reshape(d * d, -1)
    basis = instance.basis.reshape(d * d, -1)
    delta = basis @ basis.T
    if not instance.kernel:
        delta = dim // (d * d) * np.eye(d * d) - delta
    theta = b @ b.T + delta / n
    return [theta / d ** (n + 1)] * n


def trace_commutation_check(u: np.ndarray, n_ports: int) -> bool:
    """Check tr_{else}(U^xN rho U^dag xN) == U tr_{else}(rho) U^dag.

    Both sides are linear in rho, so the identity is checked exhaustively,
    on every matrix unit |a><b| of the d^N register and for every kept
    port; returns True iff it holds there to ``qudit.ATOL``.  Generic
    non-unitary matrices fail it.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    dim = d**n_ports

    def port_images(m, keep):
        # tr over the ports other than keep of m |a><b| m^dag, indexed (i, j, a, b)
        t = np.moveaxis(m.reshape((d,) * n_ports + (dim,)), keep, 0).reshape(d, -1, dim)
        return np.einsum("ira,jrb->ijab", t, t.conj())

    big = np.eye(1, dtype=complex)
    for _ in range(n_ports):
        big = np.kron(big, u)
    for keep in range(n_ports):
        # U on the kept port alone commutes with the trace over the others
        local = np.kron(np.kron(np.eye(d**keep), u), np.eye(d ** (n_ports - keep - 1)))
        if np.abs(port_images(big, keep) - port_images(local, keep)).max() > qudit.ATOL:
            return False
    return True
