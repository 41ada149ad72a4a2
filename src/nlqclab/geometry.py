"""Vacuum AdS(2+1) causal structure in embedding coordinates.

Conventions: unit AdS radius, ambient metric diag(-1,-1,+1,+1), global
coordinates (t, rho, theta) embedded as

    X = (cosh(rho) cos t, cosh(rho) sin t, sinh(rho) cos theta,
         sinh(rho) sin theta),

with the quadric <X, X> = -1.  A boundary point carries the null vector
P = (cos t, sin t, cos theta, sin theta); against a bulk point in the
fundamental time band the sign of <X, P> separates timelike from spacelike
separation, and time ordering is read off the universal cover, where every
bulk point at |t - t_p| >= pi is causally related to p.  Entanglement
entropies are geodesic lengths in 4G_N = 1 units with the boundary cut off
at epsilon, where length between boundary points is

    L = ln((cos dt - cos dtheta) / 2) + 2 ln(2 / epsilon).

Configurations are expected to keep all relevant time separations inside
(-3pi/2, 3pi/2), which holds for the presets and grids used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyDecisionRegion, EmptyDiamond, EmptyRegion

ETA = np.diag([-1.0, -1.0, 1.0, 1.0])
REGION_TOL = 1e-7  # a scattering-region margin down to -REGION_TOL still counts as inside
REGION_TANH_MAX = 0.999  # the scattering-region search stops at tanh(rho) = 0.999


def mink(u: np.ndarray, v: np.ndarray) -> float:
    return float(-u[..., 0] * v[..., 0] - u[..., 1] * v[..., 1]
                 + u[..., 2] * v[..., 2] + u[..., 3] * v[..., 3])


@dataclass(frozen=True)
class BoundaryPoint:
    t: float
    theta: float

    def __post_init__(self):
        theta = float(self.theta) % (2 * np.pi)
        # a tiny negative angle rounds up to 2 pi, which is angle 0
        object.__setattr__(self, "theta", 0.0 if theta == 2 * np.pi else theta)
        object.__setattr__(self, "t", float(self.t))

    def null_vector(self) -> np.ndarray:
        return np.array(
            [np.cos(self.t), np.sin(self.t), np.cos(self.theta), np.sin(self.theta)]
        )


@dataclass(frozen=True)
class BulkPoint:
    t: float
    rho: float
    theta: float

    def embedding(self) -> np.ndarray:
        return np.array(
            [
                np.cosh(self.rho) * np.cos(self.t),
                np.cosh(self.rho) * np.sin(self.t),
                np.sinh(self.rho) * np.cos(self.theta),
                np.sinh(self.rho) * np.sin(self.theta),
            ]
        )


def bulk_causal(p: BoundaryPoint, x: BulkPoint) -> str:
    """Relation of a bulk point to a boundary point's lightcones.

    Returns one of "timelike-future", "null", "spacelike", "past"; a bulk
    point with |<X, P>| <= 1e-9 inside the time band is null.
    """
    s = mink(x.embedding(), p.null_vector())
    dt = x.t - p.t
    if abs(s) <= 1e-9 and 0 < abs(dt) < np.pi:
        return "null"
    if dt > 0 and (s > 0 or dt >= np.pi):
        return "timelike-future"
    if dt < 0 and (s > 0 or dt <= -np.pi):
        return "past"
    return "spacelike"


# ---------------------------------------------------------------------------
# scattering region
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringConfig:
    c0: BoundaryPoint
    c1: BoundaryPoint
    r0: BoundaryPoint
    r1: BoundaryPoint

    def inputs(self):
        return (self.c0, self.c1)

    def outputs(self):
        return (self.r0, self.r1)


def preset_config(name: str, delay: float = 0.2) -> ScatteringConfig:
    base = dict(
        c0=BoundaryPoint(0.0, 0.0),
        c1=BoundaryPoint(0.0, np.pi),
        r0=BoundaryPoint(np.pi, np.pi / 2),
        r1=BoundaryPoint(np.pi, -np.pi / 2),
    )
    if name == "marginal":
        return ScatteringConfig(**base)
    if name == "delayed":
        base["r0"] = BoundaryPoint(np.pi + delay, np.pi / 2)
        base["r1"] = BoundaryPoint(np.pi + delay, -np.pi / 2)
        return ScatteringConfig(**base)
    raise DimensionMismatch(f"unknown preset {name!r}")


def _window(cfg: ScatteringConfig) -> tuple:
    """(t_lo, t_hi): the times after both inputs and before both outputs."""
    return max(p.t for p in cfg.inputs()), min(p.t for p in cfg.outputs())


def _subsets(n: int, size: int) -> np.ndarray:
    """The subsets of range(n) with ``size`` elements, one index row each."""
    return np.array([[i for i in range(n) if mask >> i & 1]
                     for mask in range(1, 1 << n) if bin(mask).count("1") == size])


def _rot(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` turned a quarter circle."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _span_points(ps: np.ndarray, sizes) -> np.ndarray:
    """Points where min_i <X, P_i> is stationary in the span of rows of ``ps``.

    On a subset S of the rows (null vectors, or their projections onto a
    face) with eta-Gram matrix G, c = G^-1 1 makes every <sum_j c_j P_j, P_i>
    equal on S, and where q = -1^T c > 0 the points +-(sum_j c_j P_j) / sqrt(q)
    lie on the quadric with margins +-1 / sqrt(q).  The points come back
    unnormalized, for ``_region_witness`` to put on the quadric.
    """
    points = []
    for size in sizes:
        sub = ps[_subsets(len(ps), size)]
        gram = sub @ ETA @ sub.transpose(0, 2, 1)
        regular = np.abs(np.linalg.det(gram)) > 1e-12  # a singular G has no isolated point
        sub, gram = sub[regular], gram[regular]
        c = np.linalg.solve(gram, np.ones((len(sub), size, 1)))
        x = (c * sub).sum(axis=1)
        points += [x, -x]
    return np.concatenate(points)


def _torus_directions(a: np.ndarray, b: np.ndarray, ch: float, sh: float) -> tuple:
    """(a, b) rows where min_i m_i is stationary on the face rho = rho_max.

    There m_i = -ch a.a_i + sh b.b_i for unit a = (cos t, sin t) and
    b = (cos theta, sin theta).  No margin is the minimum alone at its peak
    ch + sh, which no margin exceeds.  Two balance at a ~ l a_i + (1 - l) a_j,
    b ~ l b_i + (1 - l) b_j with any signs, where l = 1/2 (directions normal
    to a_i - a_j and b_i - b_j) or
    l (1 - l) = (ch^2 al^2 - sh^2 be^2) / (2 al be (ch^2 al - sh^2 be)),
    al = 1 - a_i.a_j and be = 1 - b_i.b_j.  Three are equal where the two
    linear equations ch a.(a_i - a_m) = sh b.(b_i - b_m) hold: (a, b) lies
    in a 2-plane, on which |a| = |b| is a quadratic form, solved by one eigh.
    The rows come back unnormalized.
    """
    i, j = _subsets(len(a), 2).T
    # for unit a_i, a_j the sum and the turned difference are parallel, and
    # the longer of the two is the safe one when either vanishes
    halves = [np.where((s * s).sum(1)[:, None] >= (d * d).sum(1)[:, None], s, _rot(d))
              for s, d in ((a[i] + a[j], a[i] - a[j]), (b[i] + b[j], b[i] - b[j]))]
    al, be = 1 - (a[i] * a[j]).sum(1), 1 - (b[i] * b[j]).sum(1)
    den = 2 * al * be * (ch**2 * al - sh**2 * be)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = 1 - 4 * (ch**2 * al**2 - sh**2 * be**2) / den
    keep = np.isfinite(disc) & (disc >= 0)
    lams = np.concatenate([(1 + np.sqrt(disc[keep])) / 2, (1 - np.sqrt(disc[keep])) / 2])[:, None]
    ii, jj = np.tile(i[keep], 2), np.tile(j[keep], 2)
    pa = np.concatenate([halves[0], lams * a[ii] + (1 - lams) * a[jj]])
    pb = np.concatenate([halves[1], lams * b[ii] + (1 - lams) * b[jj]])
    pa = np.concatenate([pa, pa, -pa, -pa])
    pb = np.concatenate([pb, -pb, pb, -pb])

    i, j, k = _subsets(len(a), 3).T
    eqs = np.stack([np.concatenate([ch * (a[i] - a[m]), -sh * (b[i] - b[m])], axis=1)
                    for m in (j, k)], axis=1)
    null = np.linalg.svd(eqs)[2][:, 2:]  # two null vectors of each triple's equations
    na, nb = null[..., :2], null[..., 2:]
    w, v = np.linalg.eigh(na @ na.transpose(0, 2, 1) - nb @ nb.transpose(0, 2, 1))
    real = (w[:, 0] <= 0) & (w[:, 1] >= 0)
    w, v, null = w[real], v[real], null[real]
    zs = [np.sqrt(w[:, 1:]) * v[..., 0] + sign * np.sqrt(-w[:, :1]) * v[..., 1] for sign in (1, -1)]
    triples = np.concatenate([(z[:, :, None] * null).sum(axis=1) for z in zs])
    triples = np.concatenate([triples, -triples])
    return np.concatenate([pa, triples[:, :2]]), np.concatenate([pb, triples[:, 2:]])


def _edge_directions(a0: np.ndarray, a: np.ndarray, b: np.ndarray, ch: float, sh: float) -> np.ndarray:
    """b rows where min_i m_i is stationary on the circle t = t0, rho = rho_max.

    There m_i = k_i + sh b.b_i with k_i = -ch a0.a_i: one margin peaks at
    b = b_i, and two cross where b.w = r, w = sh (b_i - b_j), r = k_j - k_i.
    """
    k = -ch * (a @ a0)
    i, j = _subsets(len(a), 2).T
    w, r = sh * (b[i] - b[j]), (k[j] - k[i])[:, None]
    ww = (w * w).sum(1)[:, None]
    cross = (ww > 0) & (r * r <= ww)
    w, r, ww = w[cross[:, 0]], r[cross[:, 0]], ww[cross[:, 0]]
    h = np.sqrt(ww - r * r) * _rot(w)
    return np.concatenate([b, (r * w + h) / ww, (r * w - h) / ww])


def _region_witness(cfg: ScatteringConfig) -> tuple:
    """(margin, X): the maximum of min_i <X, P_i> over the search domain and
    a point of the quadric that attains it.

    The domain is t in [t_lo, t_hi], tanh(rho) in [0, REGION_TANH_MAX] and
    any theta.  Its strata are the interior, the faces t = t_lo and t = t_hi,
    the torus rho = rho_max and the two circles where they meet; the
    maximum sits at a stationary point of one of them, with at most
    (dimension + 1) equal margins active.  Every such point that can be the
    maximum is enumerated in closed form, and so is the line rho = 0, where a
    zero margin (active null vectors summing to zero) has no Gram-matrix
    point.  Each candidate is scored by its own four inner products, so the
    margin is one a domain point attains.
    """
    t_lo, t_hi = _window(cfg)
    ps = np.array([p.null_vector() for p in cfg.inputs() + cfg.outputs()])
    ts = np.array([p.t for p in cfg.inputs() + cfg.outputs()])
    a, b = ps[:, :2], ps[:, 2:]
    u = REGION_TANH_MAX
    ch, sh = 1 / np.sqrt(1 - u * u), u / np.sqrt(1 - u * u)

    gram_points = [_span_points(ps, (2, 3, 4))]
    dir_a, dir_b = _torus_directions(a, b, ch, sh)
    dirs_a, dirs_b = [dir_a], [dir_b]
    for t0 in (t_lo, t_hi):
        a0 = np.array([np.cos(t0), np.sin(t0)])
        n = np.array([-a0[1], a0[0], 0.0, 0.0])
        # the P projected off n; one of them alone is spacelike and has no point
        gram_points.append(_span_points(ps + np.outer(ps @ ETA @ n, n), (2, 3)))
        edge_b = _edge_directions(a0, a, b, ch, sh)
        dirs_a.append(np.broadcast_to(a0, edge_b.shape))
        dirs_b.append(edge_b)

    gram_points = np.concatenate(gram_points)
    norms = np.einsum("ij,jk,ik->i", gram_points, ETA, gram_points)
    gram_points = gram_points[norms < 0] / np.sqrt(-norms[norms < 0])[:, None]
    dir_a, dir_b = np.concatenate(dirs_a), np.concatenate(dirs_b)
    len_a, len_b = np.hypot(*dir_a.T)[:, None], np.hypot(*dir_b.T)[:, None]
    sized = (len_a[:, 0] > 1e-12) & (len_b[:, 0] > 1e-12)
    torus = np.concatenate([ch * dir_a[sized] / len_a[sized], sh * dir_b[sized] / len_b[sized]], axis=1)
    i, j = _subsets(len(ts), 2).T
    line_ts = np.concatenate([[t_lo, t_hi], ts + np.pi, (ts[i] + ts[j]) / 2, (ts[i] + ts[j]) / 2 + np.pi])
    zeros = np.zeros_like(line_ts)
    line = np.stack([np.cos(line_ts), np.sin(line_ts), zeros, zeros], axis=1)

    xs = np.concatenate([gram_points, torus, line])
    margins = (xs @ ETA @ ps.T).min(axis=1)
    t_shift = (np.arctan2(xs[:, 1], xs[:, 0]) - t_lo) % (2 * np.pi)
    inside = ((t_shift <= t_hi - t_lo + 1e-12) | (t_shift >= 2 * np.pi - 1e-12)) & (
        np.hypot(xs[:, 2], xs[:, 3]) <= (u + 1e-12) * np.hypot(xs[:, 0], xs[:, 1]))
    best = int(np.argmax(np.where(inside, margins, -np.inf)))
    return float(margins[best]), xs[best]


@dataclass(frozen=True)
class RegionReport:
    nonempty: bool
    margin: float


def scattering_region_nonempty(cfg: ScatteringConfig) -> RegionReport:
    """Whether some bulk point lies inside all four cones, and by how much.

    The margin is the exact maximum of min_i <X, P_i> (positive inside,
    zero on the boundary) over the quadric with t in the causal window
    [t_lo, t_hi] and tanh(rho) <= REGION_TANH_MAX, from a closed-form
    enumeration of stationary points (``_region_witness``).
    """
    t_lo, t_hi = _window(cfg)
    if t_hi <= t_lo:
        return RegionReport(False, -np.inf)
    margin, _ = _region_witness(cfg)
    return RegionReport(margin >= -REGION_TOL, margin)


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RidgeCurve:
    length: float
    points: np.ndarray = field(repr=False)   # (m, 4) embedding samples


def _ridge_frame(cfg: ScatteringConfig):
    """Orthonormal (timelike, spacelike) frame spanning the ridge plane."""
    p0 = cfg.c0.null_vector()
    p1 = cfg.c1.null_vector()
    rows = np.stack([ETA @ p0, ETA @ p1])
    _, _, vh = np.linalg.svd(rows)
    basis = vh[2:]  # Euclidean null space of the constraint rows
    b = np.array(
        [[mink(basis[i], basis[j]) for j in range(2)] for i in range(2)]
    )
    vals, vecs = np.linalg.eigh(b)
    if not (vals[0] < -1e-12 < 1e-12 < vals[1]):
        raise EmptyRegion("input lightcone intersection is not a spacelike curve")
    f_time = (vecs[:, 0] @ basis) / np.sqrt(-vals[0])
    f_space = (vecs[:, 1] @ basis) / np.sqrt(vals[1])
    return f_time, f_space


def _ridge_point(f_time, f_space, s):
    return np.cosh(s) * f_time + np.sinh(s) * f_space


def ridge_curve(cfg: ScatteringConfig, resolution: int = 4096) -> RidgeCurve:
    """The lower edge of the scattering region, clipped to the output pasts.

    The two input lightcone boundaries meet on the intersection of a
    2-plane with the quadric, the unit-speed hyperbola branch
    x(s) = cosh(s) f_t + sinh(s) f_s.  Output r keeps the points with
    <x(s), P_r> = a cosh(s) + b sinh(s) >= 0, i.e. a + b tanh(s) >= 0, a
    half-line in s bounded at artanh(-a/b) (or all or nothing when
    |a| >= |b|).  The length is the exact parameter span hi - lo of the
    intersected bounds within |s| <= 15; ``resolution`` + 1 evenly spaced
    ``points`` sample the clipped branch.
    """
    region = scattering_region_nonempty(cfg)
    if not region.nonempty:
        raise EmptyRegion("scattering region is empty")
    return _clipped_ridge(cfg, resolution + 1)


def _clip_interval(a: float, b: float, span: float) -> tuple:
    """The s-interval within |s| <= span where a cosh(s) + b sinh(s) >= 0.

    An empty interval comes back with lo > hi.
    """
    if abs(a) >= abs(b):
        return (-span, span) if a >= 0 else (span, -span)
    bound = float(np.arctanh(-a / b))
    return (max(-span, bound), span) if b > 0 else (-span, min(span, bound))


def _clipped_ridge(cfg: ScatteringConfig, samples: int) -> RidgeCurve:
    """The ridge branch inside the causal window, clipped to the output pasts,
    with its exact length and ``samples`` evenly spaced points.

    When the pasts clip the whole branch but touch it, the ridge is the
    touching point, of length 0, sampled at most once.
    """
    f_time, f_space = _ridge_frame(cfg)
    t_lo, t_hi = _window(cfg)

    # pick the hyperbola branch sitting inside the causal window; the time
    # of its midpoint is read modulo 2 pi from t_lo, as in _region_witness
    def in_window(f):
        mid = _ridge_point(f, f_space, 0.0)
        return (np.arctan2(mid[1], mid[0]) - t_lo + 1e-9) % (2 * np.pi) <= t_hi - t_lo + 2e-9

    if not in_window(f_time):
        f_time = -f_time
        if not in_window(f_time):
            raise EmptyRegion("no ridge branch inside the causal window")

    span = 15.0
    coeffs = [(mink(f_time, p), mink(f_space, p))
              for p in (cfg.r0.null_vector(), cfg.r1.null_vector())]
    spans = [_clip_interval(a, b, span) for a, b in coeffs]
    lo = max(lo for lo, _ in spans)
    hi = min(hi for _, hi in spans)
    if lo <= hi:
        s = np.linspace(lo, hi, samples)[:, None]
        return RidgeCurve(hi - lo, _ridge_point(f_time, f_space, s))

    # nothing survives the clip: the best min-margin sits at a window edge,
    # at a stationary point of one margin or where the two margins cross
    (a0, b0), (a1, b1) = coeffs
    ratios = ((-b0, a0), (-b1, a1), (a1 - a0, b0 - b1))
    cands = [-span, span] + [float(np.arctanh(n / d)) for n, d in ratios if abs(n) < abs(d)]

    def clip_margin(s):
        return min(a * np.cosh(s) + b * np.sinh(s) for a, b in coeffs)

    smax = max((s for s in cands if abs(s) <= span), key=clip_margin)
    if clip_margin(smax) > -1e-9:
        return RidgeCurve(0.0, _ridge_point(f_time, f_space, np.full((min(samples, 1), 1), smax)))
    raise EmptyRegion("ridge clipped away by the output pasts")


# ---------------------------------------------------------------------------
# boundary decision regions
# ---------------------------------------------------------------------------

def _circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


def _wrap_signed(a: float) -> float:
    return (a + np.pi) % (2 * np.pi) - np.pi


@dataclass(frozen=True)
class Diamond:
    bottom: BoundaryPoint
    top: BoundaryPoint
    corner_left: BoundaryPoint
    corner_right: BoundaryPoint


def _past_front(cfg: ScatteringConfig, theta: float) -> float:
    """Latest time at angle theta inside both output pasts."""
    return min(
        cfg.r0.t - _circle_dist(theta, cfg.r0.theta),
        cfg.r1.t - _circle_dist(theta, cfg.r1.theta),
    )


def _front_peaks(cfg: ScatteringConfig) -> list:
    """Local maxima of the past front, in closed form.

    The front is the minimum of two tents of slope 1 on the circle, so a
    peak is either an apex lying under the other tent, or a crossing of a
    falling and a rising tent.  On the arc of length L from r0 to r1 (taken
    both ways round) the tents r0.t - x and r1.t - (L - x) cross at
    x = (r0.t - r1.t + L) / 2; that crossing is a peak when both x and
    L - x are genuine circle distances, in [0, pi).
    """
    r0, r1 = cfg.outputs()
    peaks = [r for r in (r0, r1) if _past_front(cfg, r.theta) >= r.t]
    ccw = (r1.theta - r0.theta) % (2 * np.pi)
    for sign, arc in ((1.0, ccw), (-1.0, 2 * np.pi - ccw)):
        x = (r0.t - r1.t + arc) / 2
        if 0 <= x <= arc and max(x, arc - x) < np.pi:
            th = r0.theta + sign * x
            peaks.append(BoundaryPoint(_past_front(cfg, th), th))
    return peaks


def decision_regions(cfg: ScatteringConfig) -> tuple:
    """Boundary diamonds from each input within both output pasts.

    The diamond top is the nearest peak of the outputs' past front (an apex
    of one past cone or a crossing of the two, found in closed form by
    ``_front_peaks``) strictly inside the input's future; the base interval
    runs between the diamond's left and right null corners.  Degenerate
    (null or empty) diamonds raise.
    """
    diamonds = []
    peaks = _front_peaks(cfg)
    for c in cfg.inputs():
        best = None
        for peak in peaks:
            sep = _circle_dist(peak.theta, c.theta)
            if peak.t - c.t <= sep + 1e-12:
                continue  # not strictly inside the input's future
            if best is None or _circle_dist(peak.theta, c.theta) < _circle_dist(
                best.theta, c.theta
            ):
                best = peak
        if best is None:
            raise EmptyDecisionRegion(f"no causal diamond above input at theta={c.theta}")
        dt = best.t - c.t
        dth = _wrap_signed(best.theta - c.theta)
        if dt <= abs(dth) + 1e-12:
            raise EmptyDiamond("diamond degenerates to a null segment")
        right = BoundaryPoint(c.t + (dt + dth) / 2, c.theta + (dt + dth) / 2)
        left = BoundaryPoint(c.t + (dt - dth) / 2, c.theta - (dt - dth) / 2)
        for corner in (left, right):
            if corner.t > _past_front(cfg, corner.theta) + 1e-9:
                # the region above this input is not a single diamond;
                # such configurations are outside the supported domain
                raise EmptyDiamond(
                    "decision region is not a causal diamond for this layout"
                )
        diamonds.append(Diamond(c, best, left, right))
    return tuple(diamonds)


# ---------------------------------------------------------------------------
# entanglement entropy and the connected wedge check
# ---------------------------------------------------------------------------

def boundary_geodesic_length(p: BoundaryPoint, q: BoundaryPoint, cutoff: float) -> float:
    """Regularized geodesic length between boundary points (4G_N = 1)."""
    dt = p.t - q.t
    dth = _circle_dist(p.theta, q.theta)
    arg = (np.cos(dt) - np.cos(dth)) / 2.0
    if arg <= 0:
        raise DimensionMismatch("boundary points are not spacelike separated")
    return float(np.log(arg) + 2.0 * np.log(2.0 / cutoff))


def mutual_information(cfg: ScatteringConfig, cutoff: float = 1e-4) -> float:
    """I(V0:V1) from the decision diamonds' base geodesics.

    Uses the two-interval prescription: the connected candidate surface is
    the cross pairing of the four diamond corners; the disconnected phase
    clamps I to zero.  Cutoff dependence cancels between the two phases.
    """
    d0, d1 = decision_regions(cfg)
    disc = boundary_geodesic_length(d0.corner_left, d0.corner_right, cutoff)
    disc += boundary_geodesic_length(d1.corner_left, d1.corner_right, cutoff)
    conn = boundary_geodesic_length(d0.corner_right, d1.corner_left, cutoff)
    conn += boundary_geodesic_length(d1.corner_right, d0.corner_left, cutoff)
    return float(max(0.0, disc - conn))


@dataclass(frozen=True)
class GeometryReport:
    region_nonempty: bool
    region_margin: float
    ridge_length: float
    mutual_information: float
    saturation_residual: float
    inequality_margin: float  # I - 2 * ridge


def verify_connected_wedge(cfg: ScatteringConfig) -> GeometryReport:
    """Mutual information versus twice the ridge length.

    In the vacuum the two quantities agree; the report carries the raw
    residual |I - 2 ridge| and the signed inequality margin.  Sub-leading
    corrections are not modelled, so residual interpretation is left to
    the caller.  I is cutoff-independent, so the default cutoff is used.
    The ridge length is exact and no ridge point is sampled.  An empty
    scattering region has ridge length 0; when an input's decision region
    is empty as well, I is 0, since an empty region carries no mutual
    information.  Any other ``EmptyDiamond`` is raised.
    """
    region = scattering_region_nonempty(cfg)
    ridge_len = _clipped_ridge(cfg, 0).length if region.nonempty else 0.0
    try:
        mi = mutual_information(cfg)
    except EmptyDecisionRegion:
        if region.nonempty:
            raise
        mi = 0.0
    return GeometryReport(
        region.nonempty,
        region.margin,
        ridge_len,
        mi,
        abs(mi - 2.0 * ridge_len),
        mi - 2.0 * ridge_len,
    )
