"""Vacuum AdS3 causal structure, ridge length and mutual information."""

import numpy as np
import pytest

from nlqclab import geometry as geo
from nlqclab.errors import EmptyDiamond, EmptyRegion


def delayed(tau):
    return geo.preset_config("delayed", tau)


def mapped(cfg, move):
    """The config with ``move`` applied to each of its four boundary points."""
    return geo.ScatteringConfig(*(move(p) for p in cfg.inputs() + cfg.outputs()))


# ---------------------------------------------------------------------------
# causal classification
# ---------------------------------------------------------------------------

def test_light_focuses_at_center_after_quarter_period():
    p = geo.BoundaryPoint(0, 0)
    assert geo.bulk_causal(p, geo.BulkPoint(np.pi / 2, 0, 0)) == "null"
    assert geo.bulk_causal(p, geo.BulkPoint(np.pi / 2 - 0.1, 0, 0)) == "spacelike"
    assert geo.bulk_causal(p, geo.BulkPoint(np.pi / 2 + 0.1, 0, 0)) == "timelike-future"


def test_near_boundary_lightspeed():
    p = geo.BoundaryPoint(0, 0)
    x = geo.BulkPoint(np.pi / 4, 7.0, np.pi / 4 + 0.05)
    assert geo.bulk_causal(p, x) == "spacelike"
    y = geo.BulkPoint(np.pi / 4 + 0.1, 7.0, np.pi / 4 - 0.05)
    assert geo.bulk_causal(p, y) == "timelike-future"


def test_past_classification():
    p = geo.BoundaryPoint(0, 0)
    assert geo.bulk_causal(p, geo.BulkPoint(-np.pi / 2 - 0.1, 0, 0)) == "past"


def test_boundary_angle_stays_below_two_pi():
    # -1e-17 % 2 pi rounds up to 2 pi in floating point
    assert geo.BoundaryPoint(0, -1e-17).theta == 0.0
    for theta in (-1e-17, -np.pi, 0.0, 2 * np.pi, 7.0, -50.0):
        assert 0.0 <= geo.BoundaryPoint(0, theta).theta < 2 * np.pi
    d0, _ = geo.decision_regions(geo.preset_config("marginal"))
    assert d0.top.theta == 0.0


# ---------------------------------------------------------------------------
# scattering region
# ---------------------------------------------------------------------------

def test_delayed_outputs_have_a_scattering_region():
    rep = geo.scattering_region_nonempty(delayed(0.2))
    assert rep.nonempty
    # the maximized minimum slack balances inputs against outputs at the
    # center of the region, giving sin(tau / 2)
    assert abs(rep.margin - np.sin(0.1)) < 1e-6


def test_early_outputs_have_no_region():
    cfg = geo.ScatteringConfig(
        geo.BoundaryPoint(0, 0), geo.BoundaryPoint(0, np.pi),
        geo.BoundaryPoint(np.pi - 0.2, np.pi / 2),
        geo.BoundaryPoint(np.pi - 0.2, -np.pi / 2),
    )
    rep = geo.scattering_region_nonempty(cfg)
    assert not rep.nonempty
    assert rep.margin < -1e-3


def test_marginal_region_is_a_single_point():
    rep = geo.scattering_region_nonempty(geo.preset_config("marginal"))
    assert rep.nonempty
    assert abs(rep.margin) < 1e-6


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.2, 0.3, 0.4])
def test_delayed_margin_is_exact(tau):
    assert abs(geo.scattering_region_nonempty(delayed(tau)).margin - np.sin(tau / 2)) < 1e-12


def _grid_margin(cfg, t_rng, u_rng, th_rng, nt, nu, nth):
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


def window_grid_margin(cfg):
    """Oracle: a lower bound on the region margin from grid points of the domain.

    A 33 x 21 x 65 grid over (t, tanh rho, theta) is refined by 9^3 grids
    around its best point, each round clamped to the causal window in t and
    to [0, 0.999] in tanh rho, so every point it scores lies in the domain.
    """
    t_lo = max(p.t for p in cfg.inputs())
    t_hi = min(p.t for p in cfg.outputs())
    best, at = _grid_margin(cfg, (t_lo, t_hi), (0.0, 0.999), (0.0, 2 * np.pi), 33, 21, 65)
    spans = [t_hi - t_lo, 0.999, 2 * np.pi]
    for _ in range(18):
        spans = [s * 0.35 for s in spans]
        t_rng = (max(t_lo, at[0] - spans[0] / 2), min(t_hi, at[0] + spans[0] / 2))
        u_rng = (max(0.0, at[1] - spans[1] / 2), min(0.999, at[1] + spans[1] / 2))
        th_rng = (at[2] - spans[2] / 2, at[2] + spans[2] / 2)
        cand, cand_at = _grid_margin(cfg, t_rng, u_rng, th_rng, 9, 9, 9)
        if cand > best:
            best, at = cand, cand_at
    return best


def torus_grid_margin(cfg):
    """Oracle: a lower bound on the region margin from the face tanh rho = 0.999.

    A 128 x 128 grid over (t, theta) on that face is refined 12 times by
    17 x 17 grids, each four steps of the one before wide and clamped to the
    causal window.
    """
    t_lo = max(p.t for p in cfg.inputs())
    t_hi = min(p.t for p in cfg.outputs())
    ps = np.array([p.null_vector() for p in cfg.inputs() + cfg.outputs()])
    ch, sh = np.cosh(np.arctanh(0.999)), np.sinh(np.arctanh(0.999))

    def best_of(ts, ths):
        tg, thg = np.meshgrid(ts, ths, indexing="ij")
        x = np.stack([ch * np.cos(tg), ch * np.sin(tg), sh * np.cos(thg), sh * np.sin(thg)], -1)
        margin = (x @ geo.ETA @ ps.T).min(axis=-1)
        idx = np.unravel_index(np.argmax(margin), margin.shape)
        return float(margin[idx]), float(tg[idx]), float(thg[idx])

    best, t, th = best_of(np.linspace(t_lo, t_hi, 128), np.linspace(0, 2 * np.pi, 128, endpoint=False))
    dt, dth = (t_hi - t_lo) / 128, 2 * np.pi / 128
    for _ in range(12):
        cand = best_of(np.linspace(max(t_lo, t - 2 * dt), min(t_hi, t + 2 * dt), 17),
                       np.linspace(th - 2 * dth, th + 2 * dth, 17))
        if cand[0] > best:
            best, t, th = cand
        dt, dth = dt / 4, dth / 4
    return best


def random_configs(seed, n=200):
    """Four boundary points at random angles, inputs near t = 0 and outputs later."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        t_in, t_out = rng.uniform(0.0, 0.5, 2), rng.uniform(2.0, 4.5, 2)
        th = rng.uniform(0, 2 * np.pi, 4)
        out.append(geo.ScatteringConfig(
            geo.BoundaryPoint(t_in[0], th[0]), geo.BoundaryPoint(t_in[1], th[1]),
            geo.BoundaryPoint(t_out[0], th[2]), geo.BoundaryPoint(t_out[1], th[3]),
        ))
    return out


def test_region_margin_is_attained_and_beats_the_window_grid():
    for cfg in grid_configs() + peak_test_configs() + random_configs(11):
        margin, x = geo._region_witness(cfg)
        assert margin >= max(window_grid_margin(cfg), torus_grid_margin(cfg)) - 1e-12
        assert geo.scattering_region_nonempty(cfg).margin == margin
        # the witness is a domain point of the quadric with that margin
        ps = [p.null_vector() for p in cfg.inputs() + cfg.outputs()]
        assert abs(min(geo.mink(x, p) for p in ps) - margin) < 1e-12
        assert abs(geo.mink(x, x) + 1) < 1e-9
        assert np.hypot(x[2], x[3]) <= (0.999 + 1e-12) * np.hypot(x[0], x[1])
        t_lo = max(p.t for p in cfg.inputs())
        t_hi = min(p.t for p in cfg.outputs())
        after = (np.arctan2(x[1], x[0]) - t_lo + 1e-12) % (2 * np.pi) - 1e-12
        assert -1e-12 <= after <= t_hi - t_lo + 1e-12


@pytest.mark.parametrize("index", [45, 49, 67, 72])
def test_outputs_pasts_without_a_common_point_have_no_region(index):
    # points past the causal window, in the future of one output, have all
    # four inner products positive; every point of the window has one negative
    cfg = peak_test_configs()[index]
    rep = geo.scattering_region_nonempty(cfg)
    assert not rep.nonempty
    assert rep.margin < -0.1
    with pytest.raises(EmptyRegion, match="scattering region is empty"):
        geo.ridge_curve(cfg)


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------

def test_marginal_ridge_has_zero_length():
    assert geo.ridge_curve(geo.preset_config("marginal"), 512).length < 1e-6


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.2, 0.4])
def test_ridge_length_matches_analytic_form(tau):
    # closed form for the symmetric preset: 2 * arctanh(sin tau)
    length = geo.ridge_curve(delayed(tau), 4096).length
    assert abs(length - 2 * np.arctanh(np.sin(tau))) < 1e-5


def test_ridge_monotone_in_delay():
    lengths = [geo.ridge_curve(delayed(t), 2048).length for t in (0.05, 0.1, 0.2, 0.4)]
    assert all(b > a for a, b in zip(lengths, lengths[1:]))


def test_ridge_reflection_symmetry():
    cfg = delayed(0.2)
    a = geo.ridge_curve(cfg, 2048).length
    b = geo.ridge_curve(mapped(cfg, lambda p: geo.BoundaryPoint(p.t, -p.theta)), 2048).length
    assert abs(a - b) < 1e-9


def test_ridge_resolution_cauchy():
    l1 = geo.ridge_curve(delayed(0.2), 2048).length
    l2 = geo.ridge_curve(delayed(0.2), 4096).length
    assert abs(l1 - l2) / l2 < 1e-5


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.2, 0.4])
def test_ridge_length_is_exact_on_the_delayed_preset(tau):
    length = geo.ridge_curve(delayed(tau), 64).length
    assert abs(length - 2 * np.arctanh(np.sin(tau))) < 1e-12


def polyline_length(points):
    diffs = points[1:] - points[:-1]
    return np.sqrt(np.maximum(0.0, np.einsum("ij,ij->i", diffs @ geo.ETA, diffs))).sum()


def test_ridge_length_matches_its_own_polyline():
    # the chords of a unit-speed hyperbola overestimate its length by
    # L^3 / (24 n^2), under 2e-9 at n = 4096 for every grid ridge
    for cfg in grid_configs():
        rc = geo.ridge_curve(cfg, 4096)
        assert rc.points.shape == (4097, 4)
        assert abs(rc.length - polyline_length(rc.points)) < 2e-9


def test_empty_region_raises():
    cfg = geo.ScatteringConfig(
        geo.BoundaryPoint(0, 0), geo.BoundaryPoint(0, np.pi),
        geo.BoundaryPoint(np.pi - 0.3, np.pi / 2),
        geo.BoundaryPoint(np.pi - 0.3, -np.pi / 2),
    )
    with pytest.raises(EmptyRegion):
        geo.ridge_curve(cfg)


# ---------------------------------------------------------------------------
# decision regions
# ---------------------------------------------------------------------------

def test_marginal_decision_interval():
    d0, d1 = geo.decision_regions(geo.preset_config("marginal"))
    assert abs(d0.corner_left.t - np.pi / 4) < 1e-9
    assert abs(geo._wrap_signed(d0.corner_left.theta - (-np.pi / 4))) < 1e-9
    assert abs(geo._wrap_signed(d0.corner_right.theta - np.pi / 4)) < 1e-9
    assert abs(geo._wrap_signed(d1.bottom.theta - np.pi)) < 1e-9


def test_delayed_intervals_widen_but_stay_disjoint():
    d0m, _ = geo.decision_regions(geo.preset_config("marginal"))
    d0d, d1d = geo.decision_regions(delayed(0.2))
    widths = [geo._circle_dist(d.corner_left.theta, d.corner_right.theta) for d in (d0m, d0d)]
    assert widths[1] > widths[0]
    gap = geo._circle_dist(d0d.corner_right.theta, d1d.corner_left.theta)
    assert gap > 1e-3


def scanned_front_peaks(cfg, n_grid=4096, zooms=10):
    """Oracle: local maxima of the past front by vectorised grid scans.

    Each grid maximum of the front is zoomed in on by 65-point grids, each
    spanning four steps of the grid before it.
    """
    def front(th):
        tents = []
        for r in cfg.outputs():
            d = np.abs(th - r.theta) % (2 * np.pi)
            tents.append(r.t - np.minimum(d, 2 * np.pi - d))
        return np.minimum(*tents)

    th = np.linspace(0, 2 * np.pi, n_grid, endpoint=False)
    f = front(th)
    peaks = []
    for i in np.flatnonzero((f >= np.roll(f, 1)) & (f >= np.roll(f, -1))):
        center, half = th[i], 2 * np.pi / n_grid
        for _ in range(zooms):
            grid = np.linspace(center - half, center + half, 65)
            center = grid[np.argmax(front(grid))]
            half /= 16
        peaks.append((float(front(np.array([center]))[0]), float(center)))
    return peaks


def near_any(point, peaks, tol=1e-9):
    t, theta = point
    return any(abs(t - pt) < tol and geo._circle_dist(theta, pth) < tol for pt, pth in peaks)


def peak_test_configs():
    rng = np.random.default_rng(7)
    out = grid_configs() + [geo.preset_config("marginal")]
    for _ in range(60):
        t0, t1 = rng.uniform(2.0, 6.0, 2)
        th0, th1 = rng.uniform(0, 2 * np.pi, 2)
        out.append(geo.ScatteringConfig(
            geo.BoundaryPoint(0, 0), geo.BoundaryPoint(0, np.pi),
            geo.BoundaryPoint(t0, th0), geo.BoundaryPoint(t1, th1),
        ))
    return out


def test_front_peaks_match_a_grid_scan():
    apexes = 0
    for cfg in peak_test_configs():
        scanned = scanned_front_peaks(cfg)
        closed = [(p.t, p.theta) for p in geo._front_peaks(cfg)]
        assert all(near_any(p, scanned) for p in closed)
        assert all(near_any(p, closed) for p in scanned)
        apexes += sum(near_any((r.t, r.theta), closed) for r in cfg.outputs())
    assert apexes > 0  # the apex branch is exercised


def test_diamond_tops_match_a_grid_scan():
    for cfg in grid_configs() + [geo.preset_config("marginal")]:
        scanned = scanned_front_peaks(cfg)
        for d in geo.decision_regions(cfg):
            assert near_any((d.top.t, d.top.theta), scanned)


def test_degenerate_diamond_flagged():
    # output on the input's boundary lightcone collapses the diamond
    cfg = geo.ScatteringConfig(
        geo.BoundaryPoint(0, 0), geo.BoundaryPoint(0, np.pi),
        geo.BoundaryPoint(np.pi / 2, np.pi / 2),
        geo.BoundaryPoint(np.pi / 2, -np.pi / 2),
    )
    with pytest.raises(EmptyDiamond):
        geo.decision_regions(cfg)


# ---------------------------------------------------------------------------
# mutual information and the connected wedge identity
# ---------------------------------------------------------------------------

def test_marginal_mutual_information_vanishes():
    assert abs(geo.mutual_information(geo.preset_config("marginal"))) < 1e-9


def test_delayed_mutual_information_positive():
    assert geo.mutual_information(delayed(0.2)) > 0.1


@pytest.mark.parametrize("cutoff", [1e-3, 1e-4, 1e-5])
def test_cutoff_independence(cutoff):
    base = geo.mutual_information(delayed(0.2), cutoff=1e-4)
    assert abs(geo.mutual_information(delayed(0.2), cutoff=cutoff) - base) < 1e-9


def test_marginal_report_is_all_zero():
    rep = geo.verify_connected_wedge(geo.preset_config("marginal"))
    assert rep.region_nonempty
    assert rep.ridge_length < 1e-6
    assert rep.mutual_information < 1e-9
    assert rep.saturation_residual < 1e-6


@pytest.mark.parametrize("tau", [0.1, 0.2])
def test_vacuum_saturation(tau):
    rep = geo.verify_connected_wedge(delayed(tau))
    assert rep.saturation_residual < 1e-3


def test_each_region_is_computed_once(monkeypatch):
    calls = {}
    for name in ("scattering_region_nonempty", "decision_regions"):
        def counted(*args, _name=name, _real=getattr(geo, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(geo, name, counted)
    geo.verify_connected_wedge(delayed(0.2))
    assert calls == {"scattering_region_nonempty": 1, "decision_regions": 1}


@pytest.mark.parametrize("shift", [-5, -2, -1, 0.41, 1, 1.6, 2, 3])
def test_translation_invariance(shift):
    # shifts that carry the ridge midpoint past t = pi need the time read
    # modulo 2 pi
    a = geo.verify_connected_wedge(delayed(0.2))
    later = mapped(delayed(0.2), lambda p: geo.BoundaryPoint(p.t + shift, p.theta))
    b = geo.verify_connected_wedge(later)
    assert abs(a.ridge_length - b.ridge_length) < 1e-9
    assert abs(a.mutual_information - b.mutual_information) < 1e-9


def grid_configs():
    out = []
    for tau in (0.05, 0.1, 0.2, 0.3, 0.4):
        out.append(delayed(tau))
    for tau in (0.1, 0.2, 0.3):
        for da in (-0.08, 0.06):
            out.append(geo.ScatteringConfig(
                geo.BoundaryPoint(0, 0),
                geo.BoundaryPoint(0.02, np.pi + 0.1),
                geo.BoundaryPoint(np.pi + tau, np.pi / 2 + da),
                geo.BoundaryPoint(np.pi + tau + 0.05, -np.pi / 2),
            ))
    for tau in (0.15, 0.25, 0.35):
        for dc in (0.05, 0.15, 0.25):
            out.append(geo.ScatteringConfig(
                geo.BoundaryPoint(0, dc),
                geo.BoundaryPoint(0, np.pi - dc),
                geo.BoundaryPoint(np.pi + tau, np.pi / 2),
                geo.BoundaryPoint(np.pi + tau, -np.pi / 2 + dc),
            ))
    return out


def test_inequality_on_config_grid():
    configs = grid_configs()
    assert len(configs) >= 20
    for cfg in configs:
        rep = geo.verify_connected_wedge(cfg)
        assert rep.region_nonempty
        assert rep.inequality_margin >= -1e-3
