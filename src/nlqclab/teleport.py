"""Bell-basis teleportation and approximate port-based teleportation.

Port teleportation sends a register of dimension ``d_a`` onto one of N ports
using the pretty-good measurement built from the signals

    sigma_i = |Phi+><Phi+|_{A L_i} (x) (I/d_a)^{(N-1)}

as ``Pi_i = rho^{-1/2} sigma_i rho^{-1/2} + Delta/N`` with ``rho = sum_i
sigma_i``; the completion Delta = I - sum_i Pi_i is spread equally over the
ports.  The receiver's only correction is discarding all ports but ``i*``,
so the reproduced state is approximate, improving with N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qudit
from .errors import CapExceeded, DimensionMismatch, IndexOutOfRange

POVM_DIM_CAP = 2**14  # largest dense dimension for PGM operator matrices


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
    correct: bool = True,
) -> TeleportResult:
    """Teleport source qudits through Bell pairs contained in ``state``.

    ``pairs[i] = (near, far)`` names two qudit indices of ``state``; source
    ``i`` is measured against ``near`` and lands on ``far``.  With
    ``correct=True`` the outcome-dependent (X^a Z^b)^dagger undo is applied,
    reproducing the input exactly.  ``forced`` fixes all outcomes.
    """
    sources = tuple(sources)
    pairs = tuple(tuple(p) for p in pairs)
    if len(sources) != len(pairs):
        raise DimensionMismatch("need one resource pair per teleported qudit")
    touched = list(sources) + [q for p in pairs for q in p]
    if len(set(touched)) != len(touched):
        raise IndexOutOfRange("sources and pair halves must be distinct qudits")

    live = list(range(state.n))  # original indices of the unmeasured qudits
    cur = state
    outcomes = []
    prob = 1.0
    for i, (src, (near, far)) in enumerate(zip(sources, pairs)):
        f = None if forced is None else tuple(forced[i])
        res = qudit.measure_generalized_bell(
            cur, (live.index(src), live.index(near)), forced=f, rng=rng
        )
        outcomes.append(res.outcome)
        prob *= res.probability
        cur = res.post_state
        live.remove(src)
        live.remove(near)
    if correct:
        for (a, b), (_, far) in zip(outcomes, pairs):
            undo = qudit.weyl(state.d, a, b).conj().T
            cur = qudit.apply_gate(cur, undo, (live.index(far),))
    return TeleportResult(tuple(outcomes), prob, cur)


def teleportation_channel_choi(d: int, correct: bool = True) -> np.ndarray:
    """Choi matrix of one-qudit Bell teleportation, all outcomes summed."""
    ref_in = qudit.bell_pair(d)  # (ref, A)
    resource = qudit.bell_pair(d)  # (L, R)
    joint = ref_in.tensor(resource)  # regs: ref, A, L, R
    j = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            res = bell_teleport(
                joint, sources=(1,), pairs=((2, 3),), forced=((a, b),), correct=correct
            )
            # remaining regs: (ref, R); Choi index convention is (out, ref)
            vec = res.state.amplitudes.reshape(d, d).T.reshape(-1)
            j += res.probability * np.outer(vec, vec.conj())
    return j


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


@dataclass(frozen=True, eq=False)
class PBTInstance:
    params: PBTParams
    povm: tuple = field(repr=False)

    def __post_init__(self):
        dim = self.params.dim
        total = sum(self.povm)
        if np.abs(total - np.eye(dim)).max() > 1e-9:
            raise DimensionMismatch("POVM does not sum to the identity")
        for p in self.povm:
            if np.linalg.eigvalsh(p)[0] < -1e-10:
                raise DimensionMismatch("POVM element is not positive")

    def sqrt_povm(self) -> tuple:
        return tuple(qudit.psd_sqrt(p) for p in self.povm)


def _phi_projector(d_a: int) -> np.ndarray:
    v = np.eye(d_a, dtype=complex).reshape(-1) / np.sqrt(d_a)
    return np.outer(v, v.conj())


def _signal(params: PBTParams, i: int) -> np.ndarray:
    """sigma_i on (A, L_1..L_N); slot 0 is A, slot i+1 is L_i."""
    d, n = params.d_a, params.n_ports
    p = _phi_projector(d)
    return qudit.embed_operator(p, d, n + 1, (0, i + 1)) / d ** (n - 1)


def build_pgm(params: PBTParams, cap_dim: int = POVM_DIM_CAP) -> PBTInstance:
    """Pretty-good-measurement POVM for the port teleportation instance."""
    dim = params.dim
    if dim > cap_dim:
        raise CapExceeded(
            f"PGM on dimension {dim} exceeds the dense cap {cap_dim}"
        )
    sigmas = [_signal(params, i) for i in range(params.n_ports)]
    rho = sum(sigmas)
    vals, vecs = np.linalg.eigh(rho)
    tol = vals.max() * 1e-12
    inv_sqrt = np.where(vals > tol, 1.0 / np.sqrt(np.where(vals > tol, vals, 1.0)), 0.0)
    r_is = (vecs * inv_sqrt) @ vecs.conj().T
    povm = [r_is @ s @ r_is for s in sigmas]
    delta = np.eye(dim) - sum(povm)
    povm = [p + delta / params.n_ports for p in povm]
    return PBTInstance(params, tuple(povm))


def port_permutation(params: PBTParams, i: int, j: int) -> np.ndarray:
    """Unitary swapping ports i and j on the measured register."""
    d, n = params.d_a, params.n_ports
    dim = params.dim
    perm = list(range(n + 1))
    perm[i + 1], perm[j + 1] = perm[j + 1], perm[i + 1]
    m = np.eye(dim).reshape((d,) * (n + 1) + (dim,))
    m = np.transpose(m, tuple(perm) + (n + 1,))
    return m.reshape(dim, dim)


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


def pbt_channel(
    params: PBTParams,
    instance: PBTInstance | None = None,
    cap_dim: int = POVM_DIM_CAP,
) -> PBTChannelReport:
    """Exact Choi operator of the PGM port-teleportation channel.

    The full outcome sweep is summed; no sampling.  Output per port i is
    tr_{else}[(Pi_i (x) I)(rho_A (x) resource)] restricted to R_i.
    """
    if instance is None:
        instance = build_pgm(params, cap_dim)
    d, n = params.d_a, params.n_ports
    # pure joint state on regs (A, ref, L_1..L_N, R_1..R_N)
    psi = qudit.max_entangled_tensor(d)  # (A, ref)
    for _ in range(n):
        psi = np.multiply.outer(psi, qudit.max_entangled_tensor(d))
    # axes currently: A, ref, (L_1, R_1), ..., (L_N, R_N)
    order = [0, 1] + [2 + 2 * k for k in range(n)] + [3 + 2 * k for k in range(n)]
    psi = np.transpose(psi, order)  # (A, ref, L_1..L_N, R_1..R_N)

    j = np.zeros((d * d, d * d), dtype=complex)
    axes = {"A": 0, "ref": 1}
    for k in range(n):
        axes[f"L{k}"] = 2 + k
        axes[f"R{k}"] = 2 + n + k
    for i in range(n):
        traced_r = [axes[f"R{k}"] for k in range(n) if k != i]
        x_axes = [axes["A"]] + [axes[f"L{k}"] for k in range(n)] + traced_r
        keep = [axes[f"R{i}"], axes["ref"]]
        psi_m = np.transpose(psi, x_axes + keep).reshape(d ** (2 * n), d * d)
        m = psi_m.reshape(d ** (n + 1), d ** (n - 1) * d * d)
        m = instance.povm[i] @ m  # Pi_i acts on (A, L_1..L_N)
        m = m.reshape(d ** (2 * n), d * d)
        out = psi_m.conj().T @ m  # (keep', keep) -> transpose below
        j += out.T
    j = 0.5 * (j + j.conj().T)
    target = _phi_projector(d)
    fid = float(np.real(np.trace(target @ j)))
    dist = qudit.trace_distance_matrices(j, target)
    bound = params.diamond_bound()
    return PBTChannelReport(params, j, fid, dist, bound, min(1.0, bound / 2.0))


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


def trace_commutation_check(
    u: np.ndarray,
    n_ports: int,
    *,
    rng: np.random.Generator | None = None,
    trials: int = 10,
    atol: float = 1e-9,
) -> bool:
    """Check tr_{else}(U^xN rho U^dag xN) == U tr_{else}(rho) U^dag.

    Returns True iff the identity holds on ``trials`` random inputs for
    every kept port.  Generic non-unitary matrices fail it.
    """
    rng = rng or np.random.default_rng(0)
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    big = np.eye(1, dtype=complex)
    for _ in range(n_ports):
        big = np.kron(big, u)
    for _ in range(trials):
        g = rng.normal(size=(d**n_ports, d**n_ports)) + 1j * rng.normal(
            size=(d**n_ports, d**n_ports)
        )
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        conj = big @ rho @ big.conj().T
        for keep in range(n_ports):
            lhs = qudit.partial_trace_matrix(conj, d, n_ports, (keep,))
            red = qudit.partial_trace_matrix(rho, d, n_ports, (keep,))
            rhs = u @ red @ u.conj().T
            if np.abs(lhs - rhs).max() > atol:
                return False
    return True
