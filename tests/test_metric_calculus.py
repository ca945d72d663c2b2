from __future__ import annotations

import math

import numpy as np
import pytest

from swlab.errors import (
    DimensionOutOfRange,
    LeftDomain,
    OutOfDomain,
    SingularMetric,
)
from swlab.metric import (
    MetricChart,
    MODEL_NAMES,
    christoffel,
    curvature_at,
    curvature_many,
    frame_det_w1,
    frame_gram_det,
    g_norms,
    gauss_equation_check,
    geodesic_shoot_many,
    get_model,
    metric_jet,
    restricted_chart,
)


def test_christoffel_round_sphere_polar():
    # g = dr^2 + sin(r)^2 dphi^2: Gamma^r_pp = -sin r cos r, Gamma^p_rp = cot r
    gam = christoffel(get_model("round-s2").chart("polar"), (math.pi / 4, 1.0))
    assert abs(gam[0, 1, 1] + 0.5) < 1e-8
    assert abs(gam[1, 0, 1] - 1.0) < 1e-8
    assert abs(gam[1, 1, 0] - 1.0) < 1e-8


def test_christoffel_vanishes_on_flat_cartesian():
    rng = np.random.default_rng(30)
    for name in ("flat-2", "flat-3"):
        chart = get_model(name).chart("generic")
        for p in rng.normal(size=(3, chart.dim)):
            assert np.max(np.abs(christoffel(chart, p))) < 1e-9


SCALAR_CASES = [
    ("flat-2", "generic", 0.0, 1e-7),
    ("flat-3", "generic", 0.0, 1e-7),
    ("round-s2", "generic", 2.0, 1e-4),
    ("round-s2", "polar", 2.0, 5e-4),
    ("hyperbolic-2", "generic", -2.0, 1e-4),
    ("round-s3", "generic", 6.0, 1e-3),
]


@pytest.mark.parametrize("name,kind,want,tol", SCALAR_CASES)
def test_scalar_curvature(name, kind, want, tol):
    rng = np.random.default_rng(31)
    model = get_model(name)
    if kind == "polar":
        pts = np.column_stack([rng.uniform(0.3, 2.0, 5),
                               rng.uniform(0.0, 6.0, 5)])
    else:
        pts = 0.3 * rng.normal(size=(5, model.dim))
    data = curvature_many(model.chart(kind), pts)
    assert np.max(np.abs(data.scalar - want)) < tol


def test_scalar_curvature_warped_center():
    data = curvature_at(get_model("warped-3").chart("generic"), (0.0, 0.0, 0.0))
    want = get_model("warped-3").analytic["scalar_at_center"]
    assert abs(data.scalar - want) < 1e-3


def test_riemann_symmetries():
    data = curvature_at(get_model("warped-3").chart("generic"), (0.3, -0.2, 0.5))
    R = data.riemann
    assert np.max(np.abs(R + np.einsum("dcab->dcba", R))) < 1e-6
    assert np.max(np.abs(R + np.einsum("dcab->cdab", R))) < 1e-6
    assert np.max(np.abs(R - np.einsum("dcab->bacd", R))) < 1e-6
    bianchi = R + np.einsum("dcab->dabc", R) + np.einsum("dcab->dbca", R)
    assert np.max(np.abs(bianchi)) < 1e-6


def test_ricci_equals_metric_on_unit_sphere():
    # the unit 2-sphere is Einstein with Ric = g
    chart = get_model("round-s2").chart("polar")
    p = (0.9, 0.4)
    data = curvature_at(chart, p)
    g = chart.metric([p])[0]
    assert np.max(np.abs(data.ricci - g)) < 1e-5


def test_curvature_at_matches_batch():
    chart = get_model("round-s3").chart("generic")
    pts = np.array([[0.1, -0.2, 0.3], [0.0, 0.4, -0.1]])
    batch = curvature_many(chart, pts)
    single = curvature_at(chart, pts[1])
    assert np.allclose(single.riemann, batch.riemann[1], atol=1e-12)
    assert abs(single.scalar - batch.scalar[1]) < 1e-12


def test_metric_jet_against_closed_form():
    # warped model: g_ij = (1 + c r^2)^2 d_ij - (2c + c^2 r^2) x_i x_j
    model = get_model("warped-3")
    c = model.analytic["warp_coefficient"]
    chart = model.chart("generic")
    rng = np.random.default_rng(32)
    pts = 0.4 * rng.normal(size=(4, 3))
    _, dg = metric_jet(chart, pts)
    eye = np.eye(3)
    for n, x in enumerate(pts):
        r2 = x @ x
        rad = 2.0 * c + c * c * r2
        for a in range(3):
            want = (4.0 * c * (1.0 + c * r2) * x[a] * eye
                    - 2.0 * c * c * x[a] * np.outer(x, x)
                    - rad * (np.outer(eye[a], x) + np.outer(x, eye[a])))
            assert np.max(np.abs(dg[n, a] - want)) < 1e-8


def test_equator_geodesic_closes():
    chart = get_model("round-s2").chart("generic")
    x0, v0 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    speed0 = g_norms(chart, x0, v0)[0]
    gaps = []
    for steps in (256, 512):
        x, v = geodesic_shoot_many(chart, x0, v0, 2.0 * math.pi,
                                   h=2.0 * math.pi / steps)
        gaps.append(np.hypot(*(x[0] - [1.0, 0.0])))
        assert abs(g_norms(chart, x, v)[0] - speed0) / speed0 < 1e-8
    assert gaps[0] < 1e-6
    # RK4: halving the step shrinks the closure gap by about 16
    assert gaps[0] / gaps[1] > 8.0


def test_geodesic_batch_matches_single():
    chart = get_model("warped-3").chart("generic")
    rng = np.random.default_rng(33)
    x0 = 0.2 * rng.normal(size=(3, 3))
    v0 = rng.normal(size=(3, 3))
    x, v = geodesic_shoot_many(chart, x0, v0, 0.4, h=0.4 / 64)
    for k in range(3):
        xk, vk = geodesic_shoot_many(chart, x0[k], v0[k], 0.4, h=0.4 / 64)
        assert np.allclose(x[k], xk[0], atol=1e-13)
        assert np.allclose(v[k], vk[0], atol=1e-13)


def test_geodesic_record_shapes():
    chart = get_model("flat-2").chart("generic")
    x0 = np.zeros((5, 2))
    v0 = np.tile([1.0, 0.5], (5, 1))
    xs, vs = geodesic_shoot_many(chart, x0, v0, 1.0, h=1.0 / 16, record=True)
    assert xs.shape == (17, 5, 2)
    assert vs.shape == (17, 5, 2)
    # flat space: straight lines at constant velocity
    assert np.allclose(xs[-1], x0 + v0, atol=1e-12)
    assert np.allclose(vs[-1], v0, atol=1e-12)


def test_geodesic_left_domain():
    chart = get_model("round-s2").chart("polar")
    with pytest.raises(LeftDomain) as exc_info:
        geodesic_shoot_many(chart, np.array([[1.0, 0.3]]),
                            np.array([[1.0, 0.0]]), 2.5, h=2.5 / 128)
    exit_point = exc_info.value.exit_point
    assert exit_point is not None
    assert exit_point[0] > math.pi - 0.06


def test_g_norms():
    chart = get_model("round-s2").chart("polar")
    pts = np.array([[1.0, 0.0], [0.5, 1.0]])
    vecs = np.array([[0.0, 1.0], [1.0, 0.0]])
    norms = g_norms(chart, pts, vecs)
    assert np.allclose(norms, [math.sin(1.0), 1.0], atol=1e-12)


def test_out_of_domain_reports_point():
    chart = get_model("round-s2").chart("polar")
    with pytest.raises(OutOfDomain) as exc_info:
        chart.metric([(math.pi, 0.0)])
    assert exc_info.value.point is not None
    assert exc_info.value.point[0] == pytest.approx(math.pi)
    with pytest.raises(OutOfDomain):
        chart.metric([(1.0, 0.0, 0.0)])  # wrong width


def test_non_positive_metric_rejected():
    lorentz = MetricChart(
        "lorentz", 2, lambda pts: np.tile(np.diag([1.0, -1.0]), (len(pts), 1, 1)))
    with pytest.raises(SingularMetric):
        lorentz.metric([(0.0, 0.0)])


@pytest.mark.parametrize("dim", [0, 4, 5])
def test_chart_dimension_outside_checked_range_rejected(dim):
    # the Sylvester check expands minors up to order 3 only; a 4-D chart
    # with a negative last eigenvalue would otherwise pass it
    with pytest.raises(DimensionOutOfRange):
        MetricChart("x", dim, lambda pts: np.tile(
            np.diag([1.0] * (dim - 1) + [-1.0]), (len(pts), 1, 1)))


def test_frame_dets_all_models():
    for name in MODEL_NAMES:
        model = get_model(name)
        p = np.asarray(model.center) + 0.2
        chart = model.chart("generic")
        assert abs(frame_gram_det(chart, p) - 1.0) < 1e-10, name
        assert frame_det_w1(chart, p) == 1, name


def test_frame_collapse_on_non_finite_metric():
    # a NaN entry slips through the sign tests but must not produce a frame
    broken = MetricChart(
        "broken", 2,
        lambda pts: np.tile(np.diag([1.0, math.nan]), (len(pts), 1, 1)))
    with pytest.raises(SingularMetric):
        frame_gram_det(broken, (0.0, 0.0))


def test_restricted_chart_is_metric_slice():
    chart3 = get_model("warped-3").chart("generic")
    sub = restricted_chart(chart3)
    assert sub.dim == 2
    assert sub.name.endswith("|x3=0")
    pts2 = np.array([[0.3, -0.1], [0.0, 0.5]])
    pts3 = np.concatenate([pts2, np.zeros((2, 1))], axis=1)
    assert np.allclose(sub.metric(pts2), chart3.metric(pts3)[:, :2, :2])


GAUSS_CASES = [("flat-3", 1e-8), ("round-s3", 1e-3), ("warped-3", 1e-3)]


@pytest.mark.parametrize("name,tol", GAUSS_CASES)
def test_gauss_equation_residual(name, tol):
    model = get_model(name)
    worst = 0.0
    for k in range(5):
        ang = 2.0 * math.pi * k / 5.0
        p = 0.5 * np.array([math.cos(ang), math.sin(ang)])
        worst = max(worst, gauss_equation_check(model, p))
    assert worst < tol, (name, worst)


def test_gauss_equation_needs_three_dimensions():
    with pytest.raises(OutOfDomain):
        gauss_equation_check(get_model("round-s2"), (0.1, 0.1))


def test_scalar_agrees_across_charts():
    for name in MODEL_NAMES:
        model = get_model(name)
        r = 0.8
        rho = model.analytic["polar_radius"](r)
        if model.dim == 2:
            pol = (r, 0.7)
            gen = rho * np.array([math.cos(0.7), math.sin(0.7)])
        else:
            pol = (r, 1.1, 0.7)
            gen = rho * np.array([math.sin(1.1) * math.cos(0.7),
                                  math.sin(1.1) * math.sin(0.7),
                                  math.cos(1.1)])
        s_pol = curvature_at(model.chart("polar"), pol).scalar
        s_gen = curvature_at(model.chart("generic"), gen).scalar
        assert abs(s_pol - s_gen) < 2e-4, name
