"""The closed forms of the conformal generic charts g = phi(|x|^2) I (the
geodesic spray and the scalar curvature) against the general path that
every other chart runs: the contraction of the central-difference jet,
the curvature stencil and the models' warp functions."""
from __future__ import annotations

import math

import numpy as np
import pytest

from swlab.errors import LeftDomain, OutOfDomain, SingularMetric
from swlab.metric import (
    MODEL_NAMES,
    ConformalChart,
    MetricChart,
    curvature_many,
    g_inner,
    g_norms,
    geodesic_shoot_many,
    get_model,
)
from swlab.metric import calculus

C = get_model("warped-3").analytic["warp_coefficient"]

# name: largest |x| sampled, inside the chart's domain
RADIUS = {"flat-2": 3.0, "round-s2": 3.0, "hyperbolic-2": 0.95,
          "flat-3": 3.0, "round-s3": 3.0, "warped-3": 0.95 / math.sqrt(C)}

def _plain(chart):
    """The chart without its factor: the same metric and domain, so the
    calculus contracts the jet of its stencil."""
    return MetricChart(chart.name, chart.dim, chart.metric, chart.contains)


def _ball(rng, n, dim, radius):
    """n points uniform in the ball of the radius."""
    dirs = rng.normal(size=(n, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return radius * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / dim) * dirs


def _outcome(fn, *args):
    try:
        fn(*args)
    except (OutOfDomain, SingularMetric, LeftDomain) as exc:
        return type(exc)
    return None


def _same_bits(x, y):
    """np.array_equal that also tells -0.0 from 0.0."""
    return x.shape == y.shape and np.array_equal(x, y) \
        and np.array_equal(np.signbit(x), np.signbit(y))


def _spray(chart, x, v):
    """The spray at the rays that are the rows of x and v (N, d)."""
    return calculus._spray(chart, x.T, v.T)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_generic_chart_is_conformal(name):
    chart = get_model(name).chart("generic")
    assert isinstance(chart, ConformalChart)
    pts = _ball(np.random.default_rng(50), 32, chart.dim, RADIUS[name])
    phi = chart.factor_at(pts.T)[1]
    assert np.array_equal(chart.metric(pts), phi[:, None, None]
                          * np.eye(chart.dim))
    # the probes' point-set evaluations return that phi itself
    assert np.array_equal(chart.factor(pts), phi)
    assert np.array_equal(chart.factor_and_scalar(pts)[0], phi)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_factor_norms_and_inner_products_are_the_bits_of_phi_i(name):
    # the probes' quadrature reads phi where it read phi I: g_norms and
    # g_inner on phi must return the bits of the sum over g * (w w^T) and
    # of the einsum with phi I, at the shapes the probes use: N rays, one
    # center factor (1,) shared by them, and a sphere's LAT,LON grid.  The
    # vectors span many scales, and one pair is signed zeros.
    chart = get_model(name).chart("generic")
    d = chart.dim
    rng = np.random.default_rng(56)
    pts = _ball(rng, 240, d, RADIUS[name])
    a, b = rng.normal(size=(2, 240, d)) \
        * np.exp(rng.normal(scale=4.0, size=(2, 240, 1)))
    a[0], b[0] = -0.0, 1.0
    grid = (12, 20)
    cases = ((chart.factor(pts), chart.metric(pts), a, b),
             (chart.factor(pts[:1]), chart.metric(pts[:1]), a, b),
             (chart.factor(pts).reshape(grid),
              chart.metric(pts).reshape(grid + (d, d)),
              a.reshape(grid + (d,)), b.reshape(grid + (d,))))
    for phi, g, u, w in cases:
        want = np.einsum("...ij,...i,...j->...", g, u, w)
        assert _same_bits(g_norms(phi, u), g_norms(g, u))
        assert _same_bits(g_inner(phi, u, w), want)
        assert _same_bits(g_inner(g, u, w), want)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_spray_matches_jet_contraction(name, monkeypatch):
    # v' = |v|^2 grad u - 2 <grad u, v> v against -g^-1 (P - Q/2) of the
    # closed-form jet d_a g = 2 phi' x_a I, held to 1e-12 of the terms it is
    # summed from, |v|^2 |grad u|.  The test supplies the jet itself: the
    # stencil's truncation error would swamp the bound near the Poincare
    # disk's edge.
    chart = get_model(name).chart("generic")
    rng = np.random.default_rng(51)
    x = _ball(rng, 200, chart.dim, RADIUS[name])
    v = rng.normal(size=x.shape)
    got = _spray(chart, x, v).T

    def closed_form_jet(_chart, pts):
        _, phi, slope = chart.factor_at(pts.T)
        eye = np.eye(chart.dim)
        return phi[:, None, None] * eye, \
            np.einsum("n,na,ij->naij", 2.0 * slope, pts, eye)

    monkeypatch.setattr(calculus, "metric_jet", closed_form_jet)
    want = _spray(_plain(chart), x, v).T
    _, phi, slope = chart.factor_at(x.T)
    terms = np.abs(slope / phi) * np.linalg.norm(x, axis=1) \
        * np.einsum("ni,ni->n", v, v)
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * terms)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_closed_form_scalar_matches_stencil_and_analytic(name):
    # against the stencil of the same chart, and against the model's
    # constant scalar curvature (warped-3: its value -36c at the center)
    model = get_model(name)
    chart = model.chart("generic")
    pts = _ball(np.random.default_rng(52), 64, chart.dim, 0.5)
    closed = chart.factor_and_scalar(pts)[1]
    stencil = curvature_many(chart, pts).scalar
    assert np.max(np.abs(closed - stencil)) < 1e-3
    scalar = model.analytic["scalar"]
    if scalar is None:
        scalar = model.analytic["scalar_at_center"]
        assert abs(chart.factor_and_scalar([(0.0, 0.0, 0.0)])[1][0] - scalar) \
            <= 1e-12 * abs(scalar)
    else:
        assert np.max(np.abs(closed - scalar)) <= 1e-12 * max(1.0, abs(scalar))


def test_warped_scalar_matches_warp_at_every_radius():
    # R = -4 f''/f + 2 (1 - f'^2) / f^2 for f = r + c r^3, at the point of
    # geodesic radius r of the conformal chart
    model = get_model("warped-3")
    chart = model.chart("generic")
    for r in (0.05, 0.2, 0.5, 1.0, 2.0):
        f, df, ddf = r + C * r ** 3, 1.0 + 3.0 * C * r * r, 6.0 * C * r
        want = -4.0 * ddf / f + 2.0 * (1.0 - df * df) / f ** 2
        x = model.analytic["polar_radius"](r) * np.array([[0.6, 0.0, 0.8]])
        assert abs(chart.factor_and_scalar(x)[1][0] - want) \
            <= 1e-12 * abs(want)


def test_conformal_warped_chart_is_isometric_to_the_cartesian_one(
        cartesian_warped_chart):
    # y = x / sqrt(1 + c |x|^2) maps the cartesian warped-3 chart onto the
    # conformal one: the scalar curvature and the geodesics must agree
    conformal = get_model("warped-3").chart("generic")
    rng = np.random.default_rng(53)
    x = _ball(rng, 8, 3, 0.8)
    s = 1.0 / np.sqrt(1.0 + C * np.einsum("ni,ni->n", x, x))
    y = s[:, None] * x
    want = curvature_many(cartesian_warped_chart, x).scalar
    assert np.max(np.abs(conformal.factor_and_scalar(y)[1] - want)) < 1e-4
    v = rng.normal(size=x.shape)
    # the pushforward J v with J = s I - c s^3 x x^T
    w = s[:, None] * v - (C * s ** 3 * np.einsum("ni,ni->n", x, v))[:, None] * x
    xe, _ = geodesic_shoot_many(cartesian_warped_chart, x, v, 0.5, h=0.5 / 64)
    ye, _ = geodesic_shoot_many(conformal, y, w, 0.5, h=0.5 / 64)
    se = 1.0 / np.sqrt(1.0 + C * np.einsum("ni,ni->n", xe, xe))
    assert np.max(np.abs(ye - se[:, None] * xe)) < 1e-9


def _bad_inputs(name, dim):
    """Points at which a chart's metric checks fail, each with the outcome
    in common to both paths."""
    cases = [np.zeros((2, dim + 1)),                   # wrong width
             np.full((1, dim), np.nan)]                # NaN
    if name == "hyperbolic-2":
        cases += [np.array([[0.0, 1.0]]), np.array([[0.8, 0.8]])]
    if name == "warped-3":
        edge = 1.0001 / math.sqrt(C)
        cases += [np.array([[edge, 0.0, 0.0]]),
                  np.array([[0.0, 2.0 * edge, 0.0]])]
    return cases


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_spray_rejects_what_the_jet_rejects(name):
    chart = get_model(name).chart("generic")
    jet = _plain(chart)
    inside = np.full((1, chart.dim), 0.1)
    for x in _bad_inputs(name, chart.dim):
        pts = np.concatenate([np.resize(inside, (1, x.shape[1])), x])
        v = np.ones_like(pts)
        want = _outcome(_spray, jet, pts, v)
        # a flat metric is finite even at a NaN point
        assert want is not None or name.startswith("flat")
        assert _outcome(_spray, chart, pts, v) == want
        for fn in (chart.metric, chart.factor, chart.factor_and_scalar):
            assert _outcome(fn, pts) == want


def test_spray_rejects_a_factor_that_is_not_positive():
    # phi = 1 - |x|^2 is positive in the unit ball only; a geodesic that
    # leaves it fails the metric check on both paths alike
    chart = ConformalChart(
        "shrinking", 2, lambda rho2: (1.0 - rho2, -np.ones_like(rho2)),
        lambda rho2, slope: np.zeros_like(rho2))
    jet = _plain(chart)
    for x in ([[1.0, 0.0]], [[0.0, -2.0]], [[0.5, 0.5], [1.5, 0.0]]):
        x = np.asarray(x)
        v = np.ones_like(x)
        assert _outcome(_spray, jet, x, v) is SingularMetric
        assert _outcome(_spray, chart, x, v) is SingularMetric
        for fn in (chart.metric, chart.factor, chart.factor_and_scalar):
            assert _outcome(fn, x) is SingularMetric
    for c in (chart, jet):
        with pytest.raises(SingularMetric):
            geodesic_shoot_many(c, [(0.5, 0.0)], [(1.0, 0.0)], 1.0, h=0.05)


def test_metric_rejects_a_determinant_that_underflows():
    # at |x| = 1e30 on round-s3, phi = 4e-120 is positive but phi^3, the
    # determinant of phi I, underflows to 0: every call that returns g or
    # the probes' phi rejects the point, as the jet path's Sylvester check does, while the
    # spray, which forms no g, accepts it
    chart = get_model("round-s3").chart()
    x = np.array([[0.1, 0.0, 0.0], [1e30, 0.0, 0.0]])
    v = np.ones_like(x)
    messages = set()
    for fn in (chart.metric, chart.factor, chart.factor_and_scalar,
               _plain(chart).metric,
               lambda pts: _spray(_plain(chart), pts, v)):
        with pytest.raises(SingularMetric) as exc_info:
            fn(x)
        messages.add(str(exc_info.value))
    assert messages == {"round-s3/stereographic: metric not positive "
                        f"definite at {x[1]}"}
    assert _outcome(_spray, chart, x, v) is None
    # phi^2 = 1.6e-239 does not underflow: round-s2 takes the point
    assert _outcome(get_model("round-s2").chart().metric, x[:, :2]) is None


@pytest.mark.parametrize("name,x0", [("hyperbolic-2", (0.9, 0.0)),
                                     ("warped-3", (3.1, 0.0, 0.0))])
def test_shoot_leaves_the_domain_on_both_paths(name, x0):
    # a coarse step near the domain's edge puts an RK4 stage outside it
    chart = get_model(name).chart("generic")
    v0 = np.eye(chart.dim)[:1]
    for c in (chart, _plain(chart)):
        with pytest.raises(LeftDomain) as exc_info:
            geodesic_shoot_many(c, [x0], v0, 1.0, h=0.5)
        assert not c.contains(exc_info.value.exit_point)[0]


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_polar_radius_is_where_radial_geodesics_land(name):
    # a unit-speed radial ray of length r from the origin of the generic
    # chart ends at |x| = polar_radius(r), within the ray's RK4 error (its
    # step-doubling difference)
    model = get_model(name)
    chart = model.chart("generic")
    radii = [r for r in (0.05, 0.2, 0.5, 1.0, 1.5, 2.0)
             if r <= model.injectivity_guard]
    dirs = _ball(np.random.default_rng(54), 4, chart.dim, 1.0)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    x0 = np.zeros_like(dirs)
    v0 = dirs / g_norms(chart.metric(x0), dirs)[:, None]
    for r in radii:
        fine, _ = geodesic_shoot_many(chart, x0, v0, r, h=r / 64)
        coarse, _ = geodesic_shoot_many(chart, x0, v0, r, h=r / 32)
        err = np.max(np.abs(fine - coarse)) + 1e-15 * r
        got = np.linalg.norm(fine, axis=1)
        assert np.max(np.abs(got - model.analytic["polar_radius"](r))) \
            <= err, (r, err)
        # radial rays stay radial
        assert np.max(np.abs(fine - got[:, None] * dirs)) <= err
