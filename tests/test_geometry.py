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
    rep = geo.verify_connected_wedge(geo.preset_config("marginal"), 512)
    assert rep.region_nonempty
    assert rep.ridge_length < 1e-6
    assert rep.mutual_information < 1e-9
    assert rep.saturation_residual < 1e-6


@pytest.mark.parametrize("tau", [0.1, 0.2])
def test_vacuum_saturation(tau):
    rep = geo.verify_connected_wedge(delayed(tau), 4096)
    assert rep.saturation_residual < 1e-3


def test_each_region_is_computed_once(monkeypatch):
    calls = {}
    for name in ("scattering_region_nonempty", "decision_regions"):
        def counted(*args, _name=name, _real=getattr(geo, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(geo, name, counted)
    geo.verify_connected_wedge(delayed(0.2), 512)
    assert calls == {"scattering_region_nonempty": 1, "decision_regions": 1}


def test_translation_invariance():
    a = geo.verify_connected_wedge(delayed(0.2), 2048)
    later = mapped(delayed(0.2), lambda p: geo.BoundaryPoint(p.t + 0.41, p.theta))
    b = geo.verify_connected_wedge(later, 2048)
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
        rep = geo.verify_connected_wedge(cfg, 2048)
        assert rep.region_nonempty
        assert rep.inequality_margin >= -1e-3
