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

from .errors import DimensionMismatch, EmptyDiamond, EmptyRegion

ETA = np.diag([-1.0, -1.0, 1.0, 1.0])
REGION_TOL = 1e-7  # a scattering-region margin down to -REGION_TOL still counts as inside
REGION_REFINEMENTS = 18  # zoom steps of the scattering-region search around its best point


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


def _margin_grid(cfg: ScatteringConfig, t_rng, u_rng, th_rng, nt, nu, nth):
    ts = np.linspace(*t_rng, nt)
    us = np.linspace(*u_rng, nu)        # u = tanh(rho)
    ths = np.linspace(*th_rng, nth, endpoint=False) if th_rng[1] - th_rng[0] >= 2 * np.pi - 1e-12 else np.linspace(*th_rng, nth)
    tg, ug, thg = np.meshgrid(ts, us, ths, indexing="ij")
    rho = np.arctanh(np.clip(ug, 0.0, 1.0 - 1e-12))
    x0 = np.cosh(rho) * np.cos(tg)
    x1 = np.cosh(rho) * np.sin(tg)
    x2 = np.sinh(rho) * np.cos(thg)
    x3 = np.sinh(rho) * np.sin(thg)
    margin = None
    for p in (cfg.c0, cfg.c1, cfg.r0, cfg.r1):
        pv = p.null_vector()
        s = -x0 * pv[0] - x1 * pv[1] + x2 * pv[2] + x3 * pv[3]
        margin = s if margin is None else np.minimum(margin, s)
    idx = np.unravel_index(np.argmax(margin), margin.shape)
    return float(margin[idx]), (float(tg[idx]), float(ug[idx]), float(thg[idx]))


@dataclass(frozen=True)
class RegionReport:
    nonempty: bool
    margin: float


def scattering_region_nonempty(cfg: ScatteringConfig) -> RegionReport:
    """Search the quadric for a point inside all four cones.

    A coarse grid over (t, tanh rho, theta) is refined around the best
    point; the reported margin is the maximized minimum of the four cone
    inner products (positive inside, zero on the boundary).
    """
    t_lo = max(p.t for p in cfg.inputs())
    t_hi = min(p.t for p in cfg.outputs())
    if t_hi <= t_lo:
        return RegionReport(False, -np.inf)
    t_rng = (t_lo, t_hi)
    u_rng = (0.0, 0.999)
    th_rng = (0.0, 2 * np.pi)
    best, at = _margin_grid(cfg, t_rng, u_rng, th_rng, 33, 21, 65)
    spans = [t_hi - t_lo, 0.999, 2 * np.pi]
    for _ in range(REGION_REFINEMENTS):
        spans = [s * 0.35 for s in spans]
        t_rng = (at[0] - spans[0] / 2, at[0] + spans[0] / 2)
        u_rng = (max(0.0, at[1] - spans[1] / 2), min(0.999, at[1] + spans[1] / 2))
        th_rng = (at[2] - spans[2] / 2, at[2] + spans[2] / 2)
        cand, cand_at = _margin_grid(cfg, t_rng, u_rng, th_rng, 9, 9, 9)
        if cand > best:
            best, at = cand, cand_at
    return RegionReport(best >= -REGION_TOL, best)


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
    return _clipped_ridge(cfg, resolution)


def _clip_interval(a: float, b: float, span: float) -> tuple:
    """The s-interval within |s| <= span where a cosh(s) + b sinh(s) >= 0.

    An empty interval comes back with lo > hi.
    """
    if abs(a) >= abs(b):
        return (-span, span) if a >= 0 else (span, -span)
    bound = float(np.arctanh(-a / b))
    return (max(-span, bound), span) if b > 0 else (-span, min(span, bound))


def _clipped_ridge(cfg: ScatteringConfig, resolution: int) -> RidgeCurve:
    f_time, f_space = _ridge_frame(cfg)
    t_lo = max(p.t for p in cfg.inputs())
    t_hi = min(p.t for p in cfg.outputs())

    # pick the hyperbola branch sitting inside the causal window
    mid = _ridge_point(f_time, f_space, 0.0)
    t_mid = np.arctan2(mid[1], mid[0])
    if not (t_lo - 1e-9 <= t_mid <= t_hi + 1e-9):
        f_time = -f_time
        mid = _ridge_point(f_time, f_space, 0.0)
        t_mid = np.arctan2(mid[1], mid[0])
        if not (t_lo - 1e-9 <= t_mid <= t_hi + 1e-9):
            raise EmptyRegion("no ridge branch inside the causal window")

    span = 15.0
    coeffs = [(mink(f_time, p), mink(f_space, p))
              for p in (cfg.r0.null_vector(), cfg.r1.null_vector())]
    spans = [_clip_interval(a, b, span) for a, b in coeffs]
    lo = max(lo for lo, _ in spans)
    hi = min(hi for _, hi in spans)
    if lo <= hi:
        s = np.linspace(lo, hi, resolution + 1)[:, None]
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
        pt = _ridge_point(f_time, f_space, smax)
        return RidgeCurve(0.0, pt[None, :])
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
            raise EmptyDiamond(f"no causal diamond above input at theta={c.theta}")
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


def verify_connected_wedge(cfg: ScatteringConfig, resolution: int = 4096) -> GeometryReport:
    """Mutual information versus twice the ridge length.

    In the vacuum the two quantities agree; the report carries the raw
    residual |I - 2 ridge| and the signed inequality margin.  Sub-leading
    corrections are not modelled, so residual interpretation is left to
    the caller.  I is cutoff-independent, so the default cutoff is used.
    """
    region = scattering_region_nonempty(cfg)
    ridge_len = _clipped_ridge(cfg, resolution).length if region.nonempty else 0.0
    mi = mutual_information(cfg)
    return GeometryReport(
        region.nonempty,
        region.margin,
        ridge_len,
        mi,
        abs(mi - 2.0 * ridge_len),
        mi - 2.0 * ridge_len,
    )
