"""Bell-basis teleportation and approximate port-based teleportation.

Port teleportation sends a register of dimension ``d_a`` onto one of N ports
using the pretty-good measurement built from the signals

    sigma_i = |Phi+><Phi+|_{A L_i} (x) (I/d_a)^{(N-1)}

as ``Pi_i = rho^{-1/2} sigma_i rho^{-1/2} + Delta/N`` with ``rho = sum_i
sigma_i``; the completion Delta = I - sum_i Pi_i is spread equally over the
ports.  The receiver's only correction is discarding all ports but ``i*``,
so the reproduced state is approximate, improving with N.

The PGM is real, as |Phi+> and I are, and port covariant: rho and Delta
are permutation invariant, so ``Pi_i`` and its root are element 0's with
ports 1 and i+1 exchanged (``port_swap``).  The dense PGM, one real
``eigh`` and index permutations, is limited to ``POVM_DIM_CAP``.  Beyond
it, the channel is known in closed form: it is U (x) U* covariant, hence
depolarizing, and ``pgm_fidelity`` gives its entanglement fidelity as a
sum over Young diagrams, so ``depolarizing_choi`` rebuilds its Choi
matrix at any port count the diagram cap allows.  The dense path stays
as the oracle that the closed form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import exp, fsum, lgamma, log

import numpy as np

from . import pauli, qudit
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
    ops = _teleport_ops(state.d, sources, pairs)
    program = engine.Program(state.d, tuple(range(state.n)), ops, rest)
    forced = None if forced is None else dict(enumerate(forced))
    branch = engine.sample_branch(program, state.amplitudes, forced, rng)
    prob = branch.wire.squared_norm()
    vec = engine.branch_map(branch, rest)[:, 0] / np.sqrt(prob)
    outcomes = tuple(branch.outcomes[i] for i in range(len(sources)))
    return TeleportResult(outcomes, prob, qudit.DenseState(state.d, len(rest), vec))


def _teleport_ops(d: int, sources, pairs) -> tuple:
    """Bell measurement i of (source i, near i); then the undo on far i."""
    from . import engine  # engine imports this module

    ops = tuple(
        engine.BellMeasureOp((src, near), i)
        for i, (src, (near, _)) in enumerate(zip(sources, pairs))
    )
    return ops + tuple(
        engine.PauliCorrectionOp((i,), (far,), hop_undo_rule(d, (i,)))
        for i, (_, far) in enumerate(pairs)
    )


def hop_undo_rule(d: int, labels: tuple):
    """Correction rule undoing a chain of Bell teleportation hops.

    A hop reading (a, b) leaves X^a Z^b on the far half, so hops read in
    ``labels`` order leave their product, the last hop leftmost; the rule
    returns its inverse as a one-qudit ``PauliWord``.
    """

    def rule(outcomes):
        err = pauli.PauliWord.identity(d, 1)
        for label in labels:
            a, b = outcomes[label]
            err = pauli.PauliWord(d, 1, (a,), (b,)).mul(err)
        return err.inverse()

    return rule


def teleportation_channel_choi(d: int) -> np.ndarray:
    """Choi matrix of one-qudit Bell teleportation, all outcomes summed."""
    from . import engine  # engine imports this module

    ops = (engine.AppendOp((1, 2), qudit.bell_pair(d).amplitudes),)
    ops += _teleport_ops(d, (0,), ((1, 2),))
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


def port_swap(mat: np.ndarray, d: int, n: int, i: int) -> np.ndarray:
    """P mat P^T, P exchanging ports 1 and i+1 of (A, L_1..L_N): a transpose
    of the (d,)*(2N+2) tensor of ``mat``, with ``n`` = N."""
    axes = list(range(2 * n + 2))
    for s in (1, n + 2):  # the row and the column index of port 1
        axes[s], axes[s + i] = axes[s + i], axes[s]
    return mat.reshape((d,) * (2 * n + 2)).transpose(axes).reshape(mat.shape)


@dataclass(frozen=True, eq=False)
class PBTInstance:
    """A real PGM whose ``povm[i]`` is ``port_swap(povm[0], d_a, N, i)``, so that
    element 0's spectrum and square root cover every element's."""

    params: PBTParams
    povm: tuple = field(repr=False)

    def __post_init__(self):
        d, n, dim = self.params.d_a, self.params.n_ports, self.params.dim
        total = sum(self.povm)
        if np.abs(total - np.eye(dim)).max() > 1e-9:
            raise DimensionMismatch("POVM does not sum to the identity")
        first = self.povm[0]
        if not all(np.array_equal(p, port_swap(first, d, n, i)) for i, p in enumerate(self.povm)):
            raise DimensionMismatch("POVM is not the port permutations of its first element")
        if np.linalg.eigvalsh(first)[0] < -1e-10:
            raise DimensionMismatch("POVM element is not positive")

    def sqrt_povm(self) -> tuple:
        d, n = self.params.d_a, self.params.n_ports
        root = qudit.psd_sqrt(self.povm[0])
        return tuple(port_swap(root, d, n, i) for i in range(n))


def build_pgm(params: PBTParams) -> PBTInstance:
    """Pretty-good-measurement POVM for the port teleportation instance.

    One real ``eigh`` of rho gives B = rho^{-1/2} (|Phi+> (x) I)/sqrt(d_a^(N-1)),
    a D x D/d_a^2 matrix, and Pi_0 = B B^T; every other element, the Delta/N
    completion included, is a ``port_swap`` of element 0.
    """
    d, n, dim = params.d_a, params.n_ports, params.dim
    if dim > POVM_DIM_CAP:
        raise CapExceeded(f"PGM on dimension {dim} exceeds the dense cap {POVM_DIM_CAP}")
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    sigma = qudit.embed_operator(np.outer(phi, phi), d, n + 1, (0, 1)) / d ** (n - 1)
    rho = sum(port_swap(sigma, d, n, i) for i in range(n))
    vals, vecs = np.linalg.eigh(rho)
    tol = vals.max() * 1e-12
    inv_sqrt = np.where(vals > tol, 1.0 / np.sqrt(np.where(vals > tol, vals, 1.0)), 0.0)
    # (|Phi+>_{A L_1} (x) I)^T vecs: the trace over the (A, L_1) index pair
    proj = np.trace(vecs.reshape(d, d, -1, dim), axis1=0, axis2=1) / np.sqrt(d)
    b = (vecs * inv_sqrt) @ proj.T / np.sqrt(d ** (n - 1))
    pi = b @ b.T
    delta = np.eye(dim) - sum(port_swap(pi, d, n, i) for i in range(n))
    first = pi + delta / n
    return PBTInstance(params, tuple(port_swap(first, d, n, i) for i in range(n)))


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

    The sum over ports of ``reduced_port_choi``: every outcome is summed,
    nothing is sampled.
    """
    if instance is None:
        instance = build_pgm(params)
    j = sum(reduced_port_choi(instance))
    j = 0.5 * (j + j.conj().T)
    target = qudit.choi_of_unitary(np.eye(params.d_a))
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


def port_transfer_operators(instance: PBTInstance) -> list:
    """Partial traces Theta_i = tr_{ports != i}(Pi_i) on (A, port_i).

    These d_a^2-dimensional operators determine the per-port reduced
    channels when the resource is the product of maximally entangled pairs.
    """
    d, n = instance.params.d_a, instance.params.n_ports
    out = []
    for i, p in enumerate(instance.povm):
        out.append(qudit.partial_trace_matrix(p, d, n + 1, (0, i + 1)))
    return out


def reduced_port_choi(instance: PBTInstance) -> list:
    """Trace-normalized Choi contribution of each port's reduced channel.

    Summing over ports gives the full PBT channel Choi; indices are ordered
    (output, input copy).
    """
    d, n = instance.params.d_a, instance.params.n_ports
    # with the A slot read as the output copy and the L_i slot as the input
    # copy, Theta_i/d^(N+1) is exactly the port's Choi contribution
    return [th / d ** (n + 1) for th in port_transfer_operators(instance)]


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
