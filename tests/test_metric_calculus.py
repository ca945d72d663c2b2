from __future__ import annotations

import math

import numpy as np
import pytest

from swlab.errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    LeftDomain,
    OutOfDomain,
    SingularMetric,
)
from swlab.metric import (
    ConformalChart,
    MetricChart,
    MODEL_NAMES,
    christoffel_many,
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
    gam = christoffel_many(get_model("round-s2").chart("polar"),
                           [(math.pi / 4, 1.0)])[0]
    assert abs(gam[0, 1, 1] + 0.5) < 1e-8
    assert abs(gam[1, 0, 1] - 1.0) < 1e-8
    assert abs(gam[1, 1, 0] - 1.0) < 1e-8


def test_christoffel_vanishes_on_flat_cartesian():
    rng = np.random.default_rng(30)
    for name in ("flat-2", "flat-3"):
        chart = get_model(name).chart("generic")
        for p in rng.normal(size=(3, chart.dim)):
            assert np.max(np.abs(christoffel_many(chart, [p]))) < 1e-9


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
        pts = 0.3 * rng.normal(size=(5, model.chart().dim))
    data = curvature_many(model.chart(kind), pts)
    assert np.max(np.abs(data.scalar - want)) < tol


def test_scalar_curvature_warped_center():
    data = curvature_many(get_model("warped-3").chart("generic"),
                          [(0.0, 0.0, 0.0)])
    want = get_model("warped-3").analytic["scalar_at_center"]
    assert abs(data.scalar[0] - want) < 1e-3


def test_riemann_symmetries():
    data = curvature_many(get_model("warped-3").chart("generic"),
                          [(0.3, -0.2, 0.5)])
    R = data.riemann[0]
    assert np.max(np.abs(R + np.einsum("dcab->dcba", R))) < 1e-6
    assert np.max(np.abs(R + np.einsum("dcab->cdab", R))) < 1e-6
    assert np.max(np.abs(R - np.einsum("dcab->bacd", R))) < 1e-6
    bianchi = R + np.einsum("dcab->dabc", R) + np.einsum("dcab->dbca", R)
    assert np.max(np.abs(bianchi)) < 1e-6


def test_ricci_equals_metric_on_unit_sphere():
    # the unit 2-sphere is Einstein with Ric = g
    chart = get_model("round-s2").chart("polar")
    p = (0.9, 0.4)
    data = curvature_many(chart, [p])
    g = chart.metric([p])[0]
    assert np.max(np.abs(data.ricci[0] - g)) < 1e-5


def test_metric_jet_against_closed_form(cartesian_warped_chart):
    # warped-3 in cartesian coordinates:
    # g_ij = (1 + c r^2)^2 d_ij - (2c + c^2 r^2) x_i x_j, a non-diagonal
    # metric whose stencil jet is held against its closed form
    c = get_model("warped-3").analytic["warp_coefficient"]
    chart = cartesian_warped_chart
    rng = np.random.default_rng(32)
    pts = 0.4 * rng.normal(size=(4, 3))
    _, dg = metric_jet(chart, pts)
    h = 1e-5
    fd = np.stack([(chart.metric(pts + h * e) - chart.metric(pts - h * e))
                   / (2.0 * h) for e in np.eye(3)], axis=1)
    assert np.max(np.abs(dg - fd)) < 1e-8
    eye = np.eye(3)
    for n, x in enumerate(pts):
        r2 = x @ x
        rad = 2.0 * c + c * c * r2
        for a in range(3):
            want = (4.0 * c * (1.0 + c * r2) * x[a] * eye
                    - 2.0 * c * c * x[a] * np.outer(x, x)
                    - rad * (np.outer(eye[a], x) + np.outer(x, eye[a])))
            assert np.max(np.abs(dg[n, a] - want)) < 1e-8


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_closed_form_jet_against_central_differences(name):
    # the jet of a generic chart g = phi(|x|^2) I is d_a g = 2 phi' x_a I in
    # closed form, from the factor's hand-derived slope; metric_jet's
    # stencil must agree with it, and its g is the chart's metric bit for bit
    chart = get_model(name).chart("generic")
    pts = np.random.default_rng(36).uniform(-0.5, 0.5, size=(16, chart.dim))
    g, dg = metric_jet(chart, pts)
    assert np.array_equal(g, chart.metric(pts))
    slope = chart.factor_at(pts.T)[2]
    want = np.einsum("n,na,ij->naij", 2.0 * slope, pts, np.eye(chart.dim))
    assert dg.shape == want.shape
    assert np.max(np.abs(dg - want)) <= 1e-7 * np.max(np.abs(want))


def test_closed_form_jet_checks_domain_and_metric():
    disk = get_model("hyperbolic-2").chart("generic")
    with pytest.raises(OutOfDomain) as exc_info:
        metric_jet(disk, [(0.0, 0.0), (0.8, 0.8)])
    assert np.array_equal(exc_info.value.point, [0.8, 0.8])
    with pytest.raises(OutOfDomain):
        metric_jet(disk, [(0.0, 0.0, 0.0)])  # wrong width

    def lorentz(pts):
        return np.tile(np.diag([1.0, -1.0]), (len(pts), 1, 1))

    chart = MetricChart("lorentz", 2, lorentz)
    with pytest.raises(SingularMetric):
        metric_jet(chart, [(0.0, 0.0)])
    with pytest.raises(SingularMetric):
        geodesic_shoot_many(chart, [(0.0, 0.0)], [(1.0, 0.0)], 0.1, h=0.05)


def test_equator_geodesic_closes():
    chart = get_model("round-s2").chart("generic")
    x0, v0 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    speed0 = g_norms(chart.metric(x0), v0)[0]
    gaps = []
    for steps in (256, 512):
        x, v = geodesic_shoot_many(chart, x0, v0, 2.0 * math.pi,
                                   h=2.0 * math.pi / steps)
        gaps.append(np.hypot(*(x[0] - [1.0, 0.0])))
        assert abs(g_norms(chart.metric(x), v)[0] - speed0) / speed0 < 1e-8
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


@pytest.mark.parametrize("length,h", [
    (0.4, -0.1), (0.4, 0.0), (0.4, math.nan), (0.4, math.inf),
    (math.nan, 0.05), (math.inf, 0.05), (-math.inf, 0.05), (0.4, 1e-320),
    (-0.4, 0.05)])
def test_geodesic_step_and_length_are_validated(length, h):
    # a negative step or length took one RK4 step over the full length, a
    # zero or NaN step raised a bare ZeroDivisionError or ValueError, a
    # subnormal one an OverflowError
    chart = get_model("flat-2").chart()
    with pytest.raises(OutOfDomain):
        geodesic_shoot_many(chart, [(0.0, 0.0)], [(1.0, 0.0)], length, h)


def test_g_norms():
    chart = get_model("round-s2").chart("polar")
    pts = np.array([[1.0, 0.0], [0.5, 1.0]])
    vecs = np.array([[0.0, 1.0], [1.0, 0.0]])
    norms = g_norms(chart.metric(pts), vecs)
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


@pytest.mark.parametrize("diag", [(1.0, -1.0, -1.0), (-1.0, -1.0, 1.0),
                                  (-1.0, -1.0)])
def test_indefinite_metric_with_positive_determinant_rejected(diag):
    # det g = 1 in each case, so only the first or second leading minor
    # shows that g is not positive definite
    dim = len(diag)
    chart = MetricChart(
        "indefinite", dim,
        lambda pts: np.tile(np.diag(diag), (len(pts), 1, 1)))
    x, v = np.zeros((1, dim)), np.eye(dim)[:1]
    with pytest.raises(SingularMetric):
        chart.metric(x)
    with pytest.raises(SingularMetric):
        metric_jet(chart, x)
    with pytest.raises(SingularMetric):
        geodesic_shoot_many(chart, x, v, 0.1, h=0.05)


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_non_finite_metric_rejected(entry):
    # NaN fails every comparison, so a sign test alone passes it; an inf
    # diagonal passes the sign tests and forms inf * 0 in the minors
    broken = MetricChart(
        "broken", 2,
        lambda pts: np.tile(np.diag([entry, entry]), (len(pts), 1, 1)))
    with pytest.raises(SingularMetric):
        broken.metric([(0.0, 0.0)])
    with pytest.raises(SingularMetric):
        geodesic_shoot_many(broken, [(0.0, 0.0)], [(1.0, 0.0)], 0.1, h=0.05)


def test_curvature_evaluates_metric_once(monkeypatch):
    # g and its inverse at the points come from the centre block of the
    # Christoffel stencil, so every chart takes one metric call on the
    # (2d+1)^2 N = 250 points of the nested stencil
    calls = []

    def recording(metric):
        def record(self, points):
            calls.append(len(points))
            return metric(self, points)
        return record

    monkeypatch.setattr(MetricChart, "metric", recording(MetricChart.metric))
    monkeypatch.setattr(ConformalChart, "metric",
                        recording(ConformalChart.metric))
    pts = np.random.default_rng(34).uniform(-0.5, 0.5, size=(10, 2))
    curvature_many(get_model("round-s2").chart("generic"), pts)
    assert calls == [250]
    calls.clear()
    polar = np.random.default_rng(35).uniform(0.4, 1.2, size=(10, 2))
    curvature_many(get_model("round-s2").chart("polar"), polar)
    assert calls == [250]


@pytest.mark.parametrize("kind", ["generic", "polar"])
@pytest.mark.parametrize("name", ["round-s2", "round-s3"])
def test_derivatives_at_no_points_are_empty(name, kind):
    # the stencil's differences were reshaped by an inferred axis, which
    # numpy cannot infer from zero points; the metric and the shoot return
    # empty arrays there, and so must the derivatives
    chart = get_model(name).chart(kind)
    d = chart.dim
    none = np.zeros((0, d))
    assert chart.metric(none).shape == (0, d, d)
    g, dg = metric_jet(chart, none)
    assert (g.shape, dg.shape) == ((0, d, d), (0, d, d, d))
    assert christoffel_many(chart, none).shape == (0, d, d, d)
    data = curvature_many(chart, none)
    assert data.riem_up.shape == data.riemann.shape == (0, d, d, d, d)
    assert (data.ricci.shape, data.scalar.shape) == ((0, d, d), (0,))


@pytest.mark.parametrize("kind", ["generic", "polar"])
@pytest.mark.parametrize("name", ["round-s2", "round-s3"])
def test_wrong_width_input_is_out_of_domain(name, kind):
    # `[]` is one point of width 0: the derivatives raised a bare numpy
    # ValueError, and the shoot a LeftDomain, a ValueError or, with more
    # velocities than points, dropped rays; they now name the width as
    # the metric does, before any stencil or step
    chart = get_model(name).chart(kind)
    d = chart.dim
    for call in (metric_jet, christoffel_many, curvature_many):
        for pts in ([], np.full((2, d + 1), 0.5)):
            with pytest.raises(OutOfDomain, match=f"{d} coordinates"):
                call(chart, pts)
    x0 = np.tile((0.1, 0.1, 0.1) if kind == "generic" else (1.0, 1.0, 0.0),
                 (4, 1))[:, :d]
    v0 = np.full((4, d), 0.2)
    for x, v, match in (([], [], "coordinates"),
                        (np.full((4, d + 1), 0.1), np.full((4, d + 1), 0.2),
                         "coordinates"),
                        (x0, v0[:, 1:], "velocities"),
                        (x0, np.full((5, d), 0.2), "velocities")):
        with pytest.raises(OutOfDomain, match=match):
            geodesic_shoot_many(chart, x, v, 0.3, 0.1)
    assert geodesic_shoot_many(chart, x0, v0, 0.3, 0.1)[0].shape == (4, d)


@pytest.mark.parametrize("kind", ["generic", "polar"])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_contains_checks_the_width(name, kind):
    # contains read `[]` as one point inside, a narrower point as inside,
    # or raised a numpy broadcast error
    chart = get_model(name).chart(kind)
    d = chart.dim
    for pts in ([], np.full((1, d - 1), 0.1), np.full((3, d + 1), 0.1)):
        with pytest.raises(OutOfDomain, match=f"{d} coordinates"):
            chart.contains(pts)
    assert chart.contains(np.zeros((0, d))).shape == (0,)


@pytest.mark.parametrize("h2", [0.0, -1e-3, math.nan, math.inf])
def test_curvature_step_is_validated(h2):
    # h2 = 0 gave a NaN scalar curvature, a NaN or infinite h2 a
    # SingularMetric at a stencil point instead of a usage error
    chart = get_model("round-s2").chart("generic")
    with pytest.raises(OutOfDomain, match="h2"):
        curvature_many(chart, [(0.0, 0.1)], h2=h2)


@pytest.mark.parametrize("dim", [0, 4, 5])
def test_chart_dimension_outside_checked_range_rejected(dim):
    # the Sylvester check expands minors up to order 3 only; a 4-D chart
    # with a negative last eigenvalue would otherwise pass it
    with pytest.raises(DimensionOutOfRange):
        MetricChart("x", dim, lambda pts: np.tile(
            np.diag([1.0] * (dim - 1) + [-1.0]), (len(pts), 1, 1)))


@pytest.mark.parametrize("metric_fn", [
    # a 3x3 metric on a 2-D chart, whose 2x2 minors are positive
    lambda pts: np.tile(np.diag([1.0, 2.0, -1.0]), (len(pts), 1, 1)),
    # one matrix too many
    lambda pts: np.tile(np.eye(2), (len(pts) + 1, 1, 1)),
    # one number per point
    lambda pts: np.ones(len(pts)),
])
def test_metric_result_shape_is_checked(metric_fn):
    chart = MetricChart("misshapen", 2, metric_fn)
    with pytest.raises(DimensionMismatch, match="misshapen"):
        chart.metric([[0.1, 0.2], [0.3, 0.4]])


def test_frame_dets_all_models():
    for name in MODEL_NAMES:
        model = get_model(name)
        p = np.full(model.chart().dim, 0.2)
        chart = model.chart("generic")
        assert abs(frame_gram_det(chart, p) - 1.0) < 1e-10, name
        assert frame_det_w1(chart, p) == 1, name


def test_frame_collapse_on_non_finite_metric():
    # a NaN entry must not produce a frame; the chart's metric check
    # rejects it before the frame is built
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


def test_restricted_chart_needs_three_dimensions():
    # a 2-D chart has no plane x3 = 0; it must be refused by name, not
    # turned into a chart whose every metric call fails
    with pytest.raises(OutOfDomain, match="round-s2/stereographic.* 2"):
        restricted_chart(get_model("round-s2").chart())


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
        if model.chart().dim == 2:
            pol = (r, 0.7)
            gen = rho * np.array([math.cos(0.7), math.sin(0.7)])
        else:
            pol = (r, 1.1, 0.7)
            gen = rho * np.array([math.sin(1.1) * math.cos(0.7),
                                  math.sin(1.1) * math.sin(0.7),
                                  math.cos(1.1)])
        s_pol = curvature_many(model.chart("polar"), [pol]).scalar[0]
        s_gen = curvature_many(model.chart("generic"), [gen]).scalar[0]
        assert abs(s_pol - s_gen) < 2e-4, name
