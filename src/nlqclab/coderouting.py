"""Threshold qudit secret sharing and code-routing for f-routing.

A (k, n) scheme encodes one qudit into n shares by evaluating a random
polynomial of degree k-1 at the points 1..n mod d, with the secret as the
top coefficient and the k-1 lower coefficients in uniform superposition.
Any k shares determine the polynomial (recovery is a basis relabeling on
those shares), while any k-1 shares are independent of the secret and
maximally mixed.  Putting the secret at the top coefficient keeps that
hiding property even when d = n and 0 shows up among the evaluation
points.

Code-routing moves each share left or right with a small garden-hose
gadget; the side that crosses the threshold recovers the routed qudit
exactly, the other side holds a maximally mixed remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import engine, qudit, teleport
from .errors import (
    AmbiguousSide,
    DimensionMismatch,
    DimensionTooSmall,
    InsufficientShares,
)


def _inv_mod_matrix(m: np.ndarray, d: int) -> np.ndarray:
    n = m.shape[0]
    a = np.concatenate([m % d, np.eye(n, dtype=np.int64)], axis=1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if a[r, c] % d:
                piv = r
                break
        if piv is None:
            raise DimensionMismatch("matrix is singular mod d")
        a[[c, piv]] = a[[piv, c]]
        a[c] = (a[c] * pow(int(a[c, c]), -1, d)) % d
        for r in range(n):
            if r != c and a[r, c]:
                a[r] = (a[r] - a[r, c] * a[c]) % d
    return a[:, n:] % d


@dataclass(frozen=True, eq=False)
class ThresholdScheme:
    """(k, n) polynomial threshold scheme over prime d >= n."""

    k: int
    n_shares: int
    d: int

    def __post_init__(self):
        if not qudit.is_prime(self.d):
            raise DimensionMismatch(f"d = {self.d} is not prime")
        if self.d < self.n_shares:
            raise DimensionTooSmall(
                f"d = {self.d} cannot host {self.n_shares} distinct share points"
            )
        if not 1 <= self.k <= self.n_shares:
            raise DimensionMismatch("threshold must satisfy 1 <= k <= n")
        if self.n_shares > 2 * self.k - 1:
            raise DimensionMismatch(
                "hiding needs n <= 2k - 1 so unauthorized sets stay below k"
            )

    @property
    def points(self) -> tuple:
        return tuple((j + 1) % self.d for j in range(self.n_shares))

    def share_values(self, secret: int, masks) -> tuple:
        """Polynomial evaluations; the secret is the degree-(k-1) coefficient."""
        coeffs = list(masks) + [secret]
        out = []
        for z in self.points:
            acc = 0
            for p, c in enumerate(coeffs):
                acc = (acc + c * pow(z, p, self.d)) % self.d
            out.append(acc)
        return tuple(out)

    def encoding_isometry(self) -> np.ndarray:
        d, k, n = self.d, self.k, self.n_shares
        iso = np.zeros((d**n, d), dtype=complex)
        norm = 1.0 / np.sqrt(d ** (k - 1))
        for s in range(d):
            for masks in product(range(d), repeat=k - 1):
                idx = 0
                for v in self.share_values(s, masks):
                    idx = idx * d + v
                iso[idx, s] += norm
        return iso

    def decode_unitary(self, positions) -> np.ndarray:
        """Basis relabeling on k shares mapping them to (masks..., secret).

        The adapted coefficient basis puts the secret on a polynomial that
        vanishes at every non-selected point, so after the relabeling the
        last register carries the secret exactly, decoupled from the rest.
        """
        positions = tuple(positions)
        if len(positions) < self.k:
            raise InsufficientShares(
                f"need {self.k} shares, got {len(positions)}"
            )
        positions = positions[: self.k]
        d, k = self.d, self.k
        sel = [self.points[p] for p in positions]
        others = [self.points[p] for p in range(self.n_shares) if p not in positions]
        # adapted basis: monomials 1..z^(k-2) plus the secret carrier G, a
        # monic degree-(k-1) polynomial vanishing at the unselected points
        poly = [1]
        for zm in others:
            poly = _poly_mul(poly, [(-zm) % d, 1], d)
        pad = (k - 1) - (len(poly) - 1)
        gpoly = _poly_shift(poly, pad)
        w = np.zeros((k, k), dtype=np.int64)
        for row, z in enumerate(sel):
            for p in range(k - 1):  # mask monomials z^p
                w[row, p] = pow(z, p, d)
            w[row, k - 1] = sum(
                c * pow(z, p, d) for p, c in enumerate(gpoly)
            ) % d
        winv = _inv_mod_matrix(w, d)
        u = np.zeros((d**k, d**k), dtype=complex)
        for vals in product(range(d), repeat=k):
            vec = np.array(vals, dtype=np.int64)
            coords = (winv @ vec) % d
            src = 0
            for v in vals:
                src = src * d + v
            dst = 0
            for v in coords:
                dst = dst * d + int(v)
            u[dst, src] = 1.0
        return u

    def encode(self, secret: qudit.DenseState) -> qudit.DenseState:
        if secret.d != self.d or secret.n != 1:
            raise DimensionMismatch("secret must be a single qudit of matching d")
        vec = self.encoding_isometry() @ secret.amplitudes
        return qudit.DenseState(self.d, self.n_shares, vec)


def _poly_mul(a, b, d):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % d
    return out


def _poly_shift(poly, pad):
    return [0] * pad + list(poly)


# ---------------------------------------------------------------------------
# code-routing plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CodeRoutingPlan:
    """Per-share routing directives: keep | send | ("x"|"y", bit index)."""

    scheme: ThresholdScheme
    directives: tuple

    def __post_init__(self):
        if len(self.directives) != self.scheme.n_shares:
            raise DimensionMismatch("one directive per share required")
        for item in self.directives:
            if item in ("keep", "send"):
                continue
            owner, idx = item
            if owner not in ("x", "y") or int(idx) < 0:
                raise DimensionMismatch(f"bad directive {item!r}")


def and_plan(d: int) -> CodeRoutingPlan:
    scheme = ThresholdScheme(2, 3, d)
    return CodeRoutingPlan(scheme, ("keep", ("x", 0), ("y", 0)))


def or_plan(d: int) -> CodeRoutingPlan:
    scheme = ThresholdScheme(2, 3, d)
    return CodeRoutingPlan(scheme, ("send", ("x", 0), ("y", 0)))


def _directive_route(directive, x: int, y: int) -> tuple:
    """(side, teleport hops, pipes) of the garden-hose gadget moving one share.

    keep: side 0, no pipes.  send: side 1, one hop over one pipe.  x-owned
    bit: one pipe, hopped once iff the bit is 1.  y-owned bit: two pipes;
    the left always launches the share, the right bounces it back iff the
    bit is 0, so it hops once (bit 1) or twice (bit 0).  The share ends on
    the side the bit names.
    """
    if directive == "keep":
        return 0, 0, 0
    if directive == "send":
        return 1, 1, 1
    owner, idx = directive
    bit = ((x if owner == "x" else y) >> int(idx)) & 1
    if owner == "x":
        return bit, bit, 1
    return bit, 2 - bit, 2


@dataclass(frozen=True)
class RouteReport:
    side: int
    fidelity: float
    hiding_distance: float
    pipe_count: int


def code_route(
    plan: CodeRoutingPlan,
    x: int,
    y: int,
    q_state: qudit.DenseState,
    *,
    forced=None,
    rng: np.random.Generator | None = None,
) -> RouteReport:
    """Encode, route shares through entangled pipes, decode on the winner.

    Share movement is realized by Bell measurements on real pipe registers
    (the garden-hose mechanism); the broadcast outcomes fix the Pauli
    correction applied to each moved share before decoding.  The losing
    side's reduced state is returned as a distance from maximally mixed.
    ``forced`` maps (share, hop) to a Bell outcome; outcomes not given are
    drawn with ``rng`` in one ``engine.sample_branch`` of the routing program.
    """
    scheme = plan.scheme
    d, n = scheme.d, scheme.n_shares
    if q_state.d != d or q_state.n != 1:
        raise DimensionMismatch("routed system must be one qudit of matching d")
    routes = [_directive_route(dv, x, y) for dv in plan.directives]
    sides = [route[0] for route in routes]
    winners = [i for i in range(n) if len([s for s in sides if s == sides[i]]) >= scheme.k]
    win_sides = {sides[i] for i in winners}
    if len(win_sides) != 1:
        raise AmbiguousSide(f"share split {sides} has no unique threshold side")
    side = win_sides.pop()
    winning = tuple(i for i in range(n) if sides[i] == side)

    # one program over the shares: each hop appends a pipe and Bell-measures
    # the share against its near half, so the share moves to the far half
    shares = tuple(f"share{i}" for i in range(n))
    regs = list(shares)  # register holding each share
    pipe = engine.Resource.pairs(d, 1)
    ops = ()
    pipes_used = 0
    for i, (share_side, hops, pipes) in enumerate(routes):
        pipes_used += pipes
        if share_side == 0:  # kept, or bounced back to the left: not routed
            continue
        labels = tuple((i, hop) for hop in range(hops))
        for label in labels:
            near, far = f"pipe{i}_{label[1]}_near", f"pipe{i}_{label[1]}_far"
            ops += (
                engine.AppendOp((near, far), pipe),
                engine.BellMeasureOp((regs[i], near), label),
            )
            regs[i] = far
        ops += (engine.PauliCorrectionOp(labels, (regs[i],), teleport.hop_frame(hops)),)
    decoded = tuple(regs[i] for i in winning[: scheme.k])
    ops += (engine.GateOp(scheme.decode_unitary(winning), decoded),)
    program = engine.Program(d, shares, ops, tuple(regs))
    wire = engine.sample_branch(program, scheme.encode(q_state).amplitudes, forced, rng).wire
    prob = wire.squared_norm()

    red = wire.density_keeping(decoded[-1:]) / prob  # the secret's register
    fid = float(np.real(q_state.amplitudes.conj() @ red @ q_state.amplitudes))

    losers = tuple(i for i in range(n) if sides[i] != side)
    if losers:
        loser_red = wire.density_keeping([regs[i] for i in losers]) / prob
        dim = d ** len(losers)
        hiding = qudit.trace_distance_matrices(loser_red, np.eye(dim) / dim)
    else:
        hiding = 0.0
    return RouteReport(side, fid, hiding, pipes_used)

