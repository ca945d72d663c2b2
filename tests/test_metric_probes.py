from __future__ import annotations

import dataclasses
import math
import time
from functools import partial

import numpy as np
import pytest

from swlab.errors import (GridTooCoarse, LeftDomain, NonConvergent,
                          OutOfDomain)
from swlab.metric import (
    ConformalChart,
    MetricChart,
    ModelGeometry,
    curvature_many,
    gauss_bonnet_disk,
    geodesic_shoot_many,
    get_model,
    sphere_area_probe,
    w3_limit,
)
from swlab.metric import calculus, probes
from swlab.metric.calculus import RK4_BUDGET
from swlab.metric.probes import (
    MIN_GRID,
    MAX_STEPS,
    MIN_RADIUS,
    MIN_STEPS,
    SCALE_STEPS,
    _fft_derivative,
    _shoot_rays,
    _simpson,
)

MODELS_2D = ("flat-2", "round-s2", "hyperbolic-2")
MODELS_3D = ("flat-3", "round-s3", "warped-3")


def test_fft_derivative_on_trig_polynomial():
    n = 64
    t = 2.0 * math.pi * np.arange(n) / n
    values = np.sin(3.0 * t) + 0.25 * np.cos(7.0 * t)
    want = 3.0 * np.cos(3.0 * t) - 1.75 * np.sin(7.0 * t)
    assert np.max(np.abs(_fft_derivative(values) - want)) < 1e-12


def test_fft_derivative_axis():
    n = 32
    t = 2.0 * np.pi * np.arange(n) / n
    grid = np.tile(np.sin(t), (3, 1))
    out = _fft_derivative(grid, axis=1)
    assert np.max(np.abs(out - np.cos(t))) < 1e-12


@pytest.mark.parametrize("name", MODELS_2D)
@pytest.mark.parametrize("eps", (0.25, 0.5))
def test_circumference_closed_form(name, eps):
    model = get_model(name)
    res = sphere_area_probe(model, eps)
    exact = model.analytic["sphere_area"](eps)
    assert abs(res.value - exact) < 1e-6
    assert abs(res.ratio - exact / (2.0 * math.pi * eps)) < 1e-6


@pytest.mark.parametrize("name", MODELS_3D)
def test_sphere_area_closed_form(name):
    model = get_model(name)
    eps = 0.2
    res = sphere_area_probe(model, eps)
    exact = model.analytic["sphere_area"](eps)
    assert abs(res.value - exact) / exact < 5e-5
    assert res.error / exact < 1e-3  # estimate is conservative, not tiny


def test_area_ratio_tracks_curvature_sign():
    eps = 0.3
    assert sphere_area_probe(get_model("round-s3"), eps).ratio < 1.0
    assert sphere_area_probe(get_model("warped-3"), eps).ratio > 1.0
    flat = sphere_area_probe(get_model("flat-3"), eps).ratio
    assert abs(flat - 1.0) < 1e-5


@pytest.mark.parametrize("name,want", [("warped-3", 0.2),
                                       ("round-s3", -1.0 / 3.0)])
def test_area_ratio_slope_is_gray_curvature_term(name, want):
    # Gray: area / (4 pi eps^2) = 1 - scal / 18 eps^2 + O(eps^4) in
    # dimension 3.  The eps^2 coefficient of the probes' ratio, fitted
    # through three radii, must match the scalar curvature from the
    # Christoffel symbols at the center; the constant term absorbs the
    # coarse grid's quadrature bias
    model = get_model(name)
    radii = np.array([0.2, 0.1, 0.05])
    ratios = [sphere_area_probe(model, eps, grid=(16, 32)).ratio
              for eps in radii]
    _, slope, _ = np.linalg.solve(np.vander(radii ** 2, 3, increasing=True),
                                  ratios)
    scal = curvature_many(model.chart("generic"), [np.zeros(3)]).scalar[0]
    assert abs(-scal / 18.0 - want) < 1e-6
    assert abs(slope - (-scal / 18.0)) < 1e-4


def _on_chart(model, chart):
    """The model with its probes run on `chart`."""
    return dataclasses.replace(model, charts={**model.charts,
                                              "generic": chart})


def test_probe_chart_independence_off_axis():
    flat = get_model("flat-3")
    res = sphere_area_probe(_on_chart(flat, flat.chart("polar")), 0.3,
                            center=(1.0, math.pi / 2.0, 0.0))
    assert abs(res.ratio - 1.0) < 1e-4


@pytest.mark.parametrize("name", MODELS_2D)
def test_probes_on_a_polar_chart(name):
    # a chart that is not conformal: the rays contract the stencil jet and
    # the disk's curvature runs the stencil
    model = get_model(name)
    polar = _on_chart(model, model.chart("polar"))
    disk = gauss_bonnet_disk(polar, 0.3, center=(1.0, 1.0), grid=128)
    circle = sphere_area_probe(polar, 0.3, center=(1.0, 1.0), grid=128)
    for res, got, want in (
            (disk, disk.total, 2.0 * math.pi),
            (circle, circle.value, model.analytic["sphere_area"](0.3))):
        assert abs(got - want) <= min(res.error, 1e-6)


def test_each_probe_evaluates_the_metric_once_per_point(monkeypatch):
    # the center, the ray ends and the disk's shells are each evaluated
    # once, in at most three calls; the disk reads phi and the scalar
    # curvature on its shells from one evaluation.  A conformal probe reads
    # the factor phi and never builds the metric phi I.  Curved models
    # only: on flat-2 a fine and a companion shell can coincide bitwise
    calls, built = [], []

    def recording(evaluate, into):
        def record(self, points):
            into.append(np.atleast_2d(np.asarray(points, dtype=float)))
            return evaluate(self, points)
        return record

    monkeypatch.setattr(MetricChart, "metric",
                        recording(MetricChart.metric, calls))
    monkeypatch.setattr(ConformalChart, "metric",
                        recording(ConformalChart.metric, built))
    for name in ("factor", "factor_and_scalar"):
        monkeypatch.setattr(ConformalChart, name,
                            recording(getattr(ConformalChart, name), calls))
    for probe, name, eps, grid in (
            (gauss_bonnet_disk, "round-s2", 0.5, None),
            (sphere_area_probe, "round-s2", 0.5, None),
            (sphere_area_probe, "round-s3", 0.2, (16, 32))):
        calls.clear()
        probe(get_model(name), eps, grid=grid)
        points = np.concatenate(calls)
        assert len(calls) <= 3, (probe.__name__, name)
        assert len(np.unique(points, axis=0)) == len(points), \
            (probe.__name__, name)
        assert not built, (probe.__name__, name)


@pytest.mark.parametrize("name", MODELS_2D)
@pytest.mark.parametrize("eps", (0.25, 0.5))
def test_gauss_bonnet_components(name, eps):
    model = get_model(name)
    res = gauss_bonnet_disk(model, eps)
    assert abs(res.total - 2.0 * math.pi) < 1e-6
    assert abs(res.interior - model.analytic["gauss_bonnet_interior"](eps)) < 5e-7
    assert abs(res.boundary - model.analytic["gauss_bonnet_boundary"](eps)) < 1e-8
    assert res.cochain_value == 1
    assert abs(res.total - 2.0 * math.pi) < max(res.error, 1e-9) * 50


def test_gauss_bonnet_flat_interior_is_zero():
    res = gauss_bonnet_disk(get_model("flat-2"), 0.4)
    assert res.interior == 0.0


@pytest.mark.parametrize("name", MODELS_2D)
@pytest.mark.parametrize("kind,bound", [("polar", 1e-12), ("generic", 1e-7)])
def test_disk_boundary_reads_gamma_from_the_spray(name, kind, bound):
    # the disk's covariant boundary acceleration adds Gamma(t, t) as minus
    # the geodesic spray at t; christoffel_many is the reference, to the
    # bound relative to |Gamma| |t|^2.  On the polar charts both contract
    # the same stencil jet; on the generic charts the spray is closed form
    # and the symbols come from the stencil, whose truncation error grows
    # towards the Poincare disk's edge.
    chart = get_model(name).chart(kind)
    rng = np.random.default_rng(61)
    r, theta = rng.uniform(0.0, 1.0, 64), rng.uniform(0.0, 2.0 * math.pi, 64)
    if kind == "polar":
        x = np.column_stack([0.2 + 1.2 * r, theta])
    else:
        radius = 0.9 if name == "hyperbolic-2" else 2.0
        x = (radius * np.sqrt(r))[:, None] \
            * np.column_stack([np.cos(theta), np.sin(theta)])
    t = rng.normal(size=x.shape)
    got = -calculus._spray(chart, x.T, t.T).T
    gam = calculus.christoffel_many(chart, x)
    want = np.einsum("nkij,ni,nj->nk", gam, t, t)
    scale = np.abs(gam).max(axis=(1, 2, 3)) * np.einsum("ni,ni->n", t, t)
    assert np.all(np.abs(got - want).max(axis=1) <= bound * scale)


def test_w3_limit_coarse_grid_all_models():
    # the extrapolated limit absorbs the curvature deficit; what remains
    # is the quadrature bias of the coarse grid, identical across models
    for name in MODELS_3D:
        res = w3_limit(get_model(name), (0.4, 0.2, 0.1), grid=(20, 40))
        assert abs(res.value - 1.0) < 1e-4, name
        assert res.params["cochain_value"] == 1
        assert res.params["eps"] == (0.4, 0.2, 0.1)
        assert len(res.params["ratios"]) == 3


def test_w3_limit_beats_raw_ratio():
    res = w3_limit(get_model("round-s3"), (0.4, 0.2, 0.1), grid=(20, 40))
    raw_gap = abs(res.params["ratios"][0] - 1.0)   # curvature deficit ~ eps^2
    assert raw_gap > 1e-3
    assert abs(res.value - 1.0) < raw_gap / 10.0


def test_probe_radius_guard():
    with pytest.raises(OutOfDomain):
        sphere_area_probe(get_model("round-s2"), 2.0)  # beyond injectivity
    with pytest.raises(OutOfDomain):
        sphere_area_probe(get_model("round-s2"), -0.1)
    with pytest.raises(OutOfDomain):
        gauss_bonnet_disk(get_model("round-s2"), 0.5, h=0.0)


def test_probe_takes_any_finite_explicit_step():
    # a step longer than the radius shoots two fine steps and a one-step
    # companion; a step near the float maximum is not doubled into inf
    for h in (0.5, 1e308):
        res = gauss_bonnet_disk(get_model("flat-2"), 0.25, grid=64, h=h)
        assert res.params["steps"] == 2
    for h in (1e-320, math.inf):
        with pytest.raises(OutOfDomain):
            sphere_area_probe(get_model("flat-2"), 0.25, grid=64, h=h)


def test_rk4_budget_refuses_a_too_short_step_at_once():
    # 0.5 / 1e-9 is 5e8 steps: the budget refuses them before the first
    # RK4 step, also for four rays or one
    chart = get_model("flat-2").chart()
    for run in (partial(gauss_bonnet_disk, get_model("flat-2"), 0.5, grid=4, h=1e-9),
                partial(sphere_area_probe, get_model("flat-2"), 0.5, grid=4, h=1e-9),
                partial(sphere_area_probe, get_model("flat-3"), 0.2,
                        grid=(4, 4), h=1e-9),
                partial(geodesic_shoot_many, chart, [(0.0, 0.0)], [(1.0, 0.0)],
                        0.5, h=1e-9, record=True)):
        start = time.perf_counter()
        with pytest.raises(OutOfDomain, match="exceed the budget"):
            run()
        assert time.perf_counter() - start < 0.5


def test_rk4_budget_bounds_rays_times_steps():
    calculus.check_rk4_budget(RK4_BUDGET, 1)
    calculus.check_rk4_budget(1, RK4_BUDGET)
    for rays, steps in ((RK4_BUDGET + 1, 1), (2, RK4_BUDGET // 2 + 1)):
        with pytest.raises(OutOfDomain, match=f"{rays} rays of {steps} RK4"):
            calculus.check_rk4_budget(rays, steps)
    # a radius of 0.5 takes 16 steps at the default step; the fine steps
    # count, so one ray over the budget's share is refused
    rays = RK4_BUDGET // 16 + 1
    with pytest.raises(OutOfDomain, match=f"{rays} rays of 16 RK4"):
        gauss_bonnet_disk(get_model("round-s2"), 0.5, grid=rays)


def test_grid_shape_guard():
    with pytest.raises(OutOfDomain):
        sphere_area_probe(get_model("round-s2"), 0.5, grid=(8, 8))
    with pytest.raises(OutOfDomain):
        sphere_area_probe(get_model("round-s3"), 0.2, grid=16)
    with pytest.raises(OutOfDomain):
        sphere_area_probe(get_model("round-s3"), 0.2, grid=(8, 9))  # odd longitudes
    # counts must be integers: a float pair failed inside numpy, and 16.7
    # rays silently ran 16
    for name, grid in (("flat-3", (16.0, 32.0)), ("flat-3", (16, 32.5)),
                       ("round-s2", 16.7), ("round-s2", 16.0),
                       ("round-s2", "16")):
        with pytest.raises(OutOfDomain, match="integer"):
            sphere_area_probe(get_model(name), 0.2, grid=grid)
    with pytest.raises(OutOfDomain, match="integer"):
        gauss_bonnet_disk(get_model("round-s2"), 0.2, grid=16.7)
    res = sphere_area_probe(get_model("flat-3"), 0.2,
                            grid=(np.int64(8), np.int64(16)))
    assert res.params["grid"] == (8, 16)


@pytest.mark.parametrize("name,grid", [
    ("round-s2", 1), ("round-s2", 2), ("round-s2", 3),
    ("round-s3", (1, 8)), ("round-s3", (4, 2)), ("round-s3", (2, 8)),
    ("round-s3", (0, 4)), ("round-s3", (3, 8))])
def test_grid_floor(name, grid):
    # below MIN_GRID rays, latitudes or longitudes the value came out 0.0
    # with a 0.0 error, or the polar stencil failed with a bare exception
    with pytest.raises(OutOfDomain, match=f"at least {MIN_GRID}"):
        sphere_area_probe(get_model(name), 0.3, grid=grid)
    if name == "round-s2":
        with pytest.raises(OutOfDomain, match=f"at least {MIN_GRID}"):
            gauss_bonnet_disk(get_model(name), 0.3, grid=grid)


def test_smallest_grid_is_measured():
    res = sphere_area_probe(get_model("round-s2"), 0.3, grid=MIN_GRID)
    assert res.value > 0 and res.error > 0
    res = sphere_area_probe(get_model("round-s3"), 0.3,
                            grid=(MIN_GRID, MIN_GRID))
    assert res.value > 0 and res.error > 0


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse, match="quadrature .* refine the grid"):
        sphere_area_probe(get_model("round-s2"), 0.5, max_error=1e-15)
    with pytest.raises(GridTooCoarse, match="quadrature .* refine the grid"):
        gauss_bonnet_disk(get_model("round-s2"), 0.5, max_error=1e-15)
    with pytest.raises(GridTooCoarse,
                       match="integration .* shorten the step"):
        sphere_area_probe(get_model("round-s2"), 0.5, h=0.5,
                          max_error=1e-15)


def test_w3_limit_input_validation():
    flat = get_model("flat-3")
    # bad requests, not verification failures
    with pytest.raises(OutOfDomain):
        w3_limit(flat, (0.2, 0.1))          # too short to extrapolate
    with pytest.raises(OutOfDomain):
        w3_limit(flat, (0.1, 0.2, 0.05))    # not strictly decreasing
    with pytest.raises(OutOfDomain):
        w3_limit(get_model("round-s2"), (0.2, 0.1, 0.05))


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_non_finite_probe_radius_is_named(eps):
    with pytest.raises(OutOfDomain, match="is not finite"):
        sphere_area_probe(get_model("round-s3"), eps, grid=(24, 48))
    with pytest.raises(OutOfDomain, match="is not finite"):
        gauss_bonnet_disk(get_model("round-s2"), eps, grid=64)


@pytest.mark.parametrize("eps", [1e-100, 1e-200, 0.0, math.nan])
def test_probe_radius_below_the_floor_is_rejected(eps):
    # below MIN_RADIUS the area came out 0 with a 0 error bar, or the probe
    # divided by zero
    with pytest.raises(OutOfDomain):
        sphere_area_probe(get_model("round-s3"), eps, grid=(24, 48))
    with pytest.raises(OutOfDomain):
        gauss_bonnet_disk(get_model("round-s2"), eps, grid=64)


@pytest.mark.parametrize("probe,name,center", [
    (gauss_bonnet_disk, "flat-2", (math.nan, 0.0)),
    (sphere_area_probe, "flat-2", (0.0, -math.inf)),
    (sphere_area_probe, "flat-3", (math.inf, 0.0, 0.0)),
    (sphere_area_probe, "round-s3", (0.0, math.nan, 0.0))])
def test_non_finite_probe_center_is_named(probe, name, center):
    # a chart without a domain accepts a NaN point and a flat metric is
    # finite there, so the probe checks its center itself
    with pytest.raises(OutOfDomain, match="center .* is not finite"):
        probe(get_model(name), 0.25, center=center, grid=None)


@pytest.mark.parametrize("probe", (sphere_area_probe, gauss_bonnet_disk))
@pytest.mark.parametrize("max_error", [math.nan, -1.0, None, math.inf])
def test_max_error_is_validated_before_any_ray(probe, max_error,
                                               monkeypatch):
    # NaN failed no comparison, so it turned the error gate off; a negative
    # bound failed every probe as GridTooCoarse.  None and inf gate nothing
    shots = []
    shoot = probes._shoot_together

    def counting_shoot(*args):
        shots.append(1)
        return shoot(*args)

    monkeypatch.setattr(probes, "_shoot_together", counting_shoot)
    model = get_model("round-s2")
    if max_error is None or max_error > 0:
        res = probe(model, 0.5, grid=64, max_error=max_error)
        assert res.error == probe(model, 0.5, grid=64).error
        assert shots == [1, 1]
    else:
        with pytest.raises(OutOfDomain, match="max_error .*non-negative"):
            probe(model, 0.5, grid=64, max_error=max_error)
        assert shots == []


def _assert_paired_shoot_matches(model, center, grid, h, record):
    """The fine and companion rays of a probe's paired shoot equal two
    separate geodesic_shoot_many calls, bit for bit."""
    eps = 0.2
    chart, (xs, vs), _, params = _shoot_rays(model, eps, center, grid, h,
                                             record=True)
    _, fine, companion, _ = _shoot_rays(model, eps, center, grid, h,
                                        record=record)
    steps = params["steps"]
    for got, count in ((fine, steps), (companion, steps // 2)):
        want = geodesic_shoot_many(chart, xs[0], vs[0], eps, eps / count,
                                   record=record)
        assert len(got) == 2
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a, b), count
    return steps


@pytest.mark.parametrize("record", (False, True))
@pytest.mark.parametrize("name,kind,center,grid", [
    ("round-s2", "generic", None, 64),
    ("warped-3", "generic", (0.1, -0.2, 0.05), (8, 16)),
    ("hyperbolic-2", "polar", (1.0, 1.0), 32),
    ("round-s3", "polar", (1.0, math.pi / 2.0, 0.0), (8, 16))])
def test_paired_shoot_matches_two_separate_shoots(name, kind, center, grid,
                                                  record):
    # the fine and companion rays step together in one loop, bit for bit
    # as each would alone; a polar chart runs the jet spray
    model = get_model(name)
    _assert_paired_shoot_matches(_on_chart(model, model.chart(kind)), center,
                                 grid, None, record)


@pytest.mark.parametrize("steps", (4, 6, 8, 10, 12))
@pytest.mark.parametrize("name,center,grid", [
    ("hyperbolic-2", (1.0, 1.0), 32),
    ("round-s3", (1.0, math.pi / 2.0, 0.0), (8, 16))])
def test_paired_shoot_matches_at_explicit_step_counts(name, center, grid,
                                                      steps):
    # a one-group shoot steps the same C-contiguous state as the paired
    # loop; the jet spray's last bits depend on that layout
    model = get_model(name)
    model = _on_chart(model, model.chart("polar"))
    assert _assert_paired_shoot_matches(model, center, grid, 0.2 / steps,
                                        False) == steps


@pytest.mark.parametrize("probe", (sphere_area_probe, gauss_bonnet_disk))
def test_coarse_probe_near_the_disk_edge_leaves_the_domain(probe):
    # a unit-speed ray stays inside the Poincare disk, but an RK4 stage of
    # step 1.5 from (0.9, 0) lands outside it
    model = get_model("hyperbolic-2")
    with pytest.raises(LeftDomain) as exc_info:
        probe(model, 3.0, center=(0.9, 0.0), grid=64, h=1.5)
    exit_point = exc_info.value.exit_point
    assert exit_point is not None
    assert not model.chart().contains(exit_point)[0]


@pytest.mark.parametrize("eps", [1.01 * MIN_RADIUS, 1e-60])
def test_error_covers_the_closed_form_just_above_the_radius_floor(eps):
    for name in ("round-s3", "flat-3"):
        res = sphere_area_probe(get_model(name), eps, grid=(24, 48))
        # sin(eps)/eps is 1 in floating point at these radii
        assert res.value > 0 and res.error > 0, name
        assert abs(res.value - 4.0 * math.pi * eps ** 2) <= res.error, name
    for name in ("round-s2", "flat-2"):
        res = gauss_bonnet_disk(get_model(name), eps, grid=64)
        assert abs(res.total - 2.0 * math.pi) <= res.error, name


def test_w3_limit_rejects_oscillatory_metric():
    # conformal factor oscillating faster than the probe radii: ratio
    # differences grow instead of shrinking and the probe must say so
    def metric_fn(pts):
        r2 = np.einsum("ni,ni->n", pts, pts)
        conf = (1.0 + 0.35 * np.sin(60.0 * r2)) ** 2
        return conf[:, None, None] * np.eye(3)

    wiggly = ModelGeometry(
        name="wiggly",
        charts={"generic": MetricChart("wiggly/cartesian", 3, metric_fn)},
        injectivity_guard=1.0)
    with pytest.raises(NonConvergent):
        w3_limit(wiggly, (0.45, 0.3, 0.2, 0.13), grid=(12, 24))


def test_probes_check_the_chart_dimension():
    line = ModelGeometry(name="line", charts={"generic": MetricChart(
        "line", 1, lambda pts: np.ones((len(pts), 1, 1)))},
        injectivity_guard=1.0)
    with pytest.raises(OutOfDomain, match="dimension 2 or 3"):
        sphere_area_probe(line, 0.1)
    with pytest.raises(OutOfDomain, match="disk probe needs dimension 2"):
        gauss_bonnet_disk(get_model("flat-3"), 0.1)


def test_error_estimate_halves_when_grid_doubles():
    coarse = sphere_area_probe(get_model("round-s2"), 0.5, grid=64)
    fine = sphere_area_probe(get_model("round-s2"), 0.5, grid=128)
    assert coarse.error > 2.0 * fine.error
    coarse3 = sphere_area_probe(get_model("round-s3"), 0.2, grid=(16, 32))
    fine3 = sphere_area_probe(get_model("round-s3"), 0.2, grid=(32, 64))
    assert coarse3.error > 2.0 * fine3.error


@pytest.mark.parametrize("name", ("round-s2", "hyperbolic-2"))
def test_error_covers_coarse_step(name):
    # two RK4 steps over the radius: the integration error dominates, and
    # the reported error must still cover the distance to the closed form
    model = get_model(name)
    res = sphere_area_probe(model, 0.5, h=0.5)
    actual = abs(res.value - model.analytic["sphere_area"](0.5))
    assert res.error >= actual
    assert res.params["steps"] == 2
    assert res.params["error_parts"]["integration"] >= actual


@pytest.mark.parametrize("eps", (0.25, 0.5))
def test_disk_error_covers_coarse_step(eps):
    res = gauss_bonnet_disk(get_model("round-s2"), eps, h=eps / 2.0)
    assert res.error >= abs(res.total - 2.0 * math.pi)
    assert res.params["steps"] == 2


EDGE_CENTERS = ((0.9, 0.0), (0.99, 0.0), (0.999, 0.0), (0.0, -0.9995))


def _stencil_only(model):
    """The model on a chart of the same metric and domain as its own but
    no factor, so that its curvature runs the stencil."""
    chart = model.chart()
    return _on_chart(model, MetricChart(chart.name, chart.dim, chart.metric,
                                        chart.contains))


@pytest.mark.parametrize("center", EDGE_CENTERS)
def test_disk_error_covers_curvature_stencil_near_chart_edge(center):
    # the curvature stencil's outer step is fixed in chart coordinates,
    # but the Poincare metric varies on the scale 1 - rho^2: at 0.999 the
    # total missed 2 pi by 8.7e-3 while the error read 7.9e-5
    model = _stencil_only(get_model("hyperbolic-2"))
    res = gauss_bonnet_disk(model, 0.2, center=center)
    miss = abs(res.total - 2.0 * math.pi)
    assert res.error >= miss
    assert res.params["error_parts"]["curvature"] >= 0.5 * miss
    with pytest.raises(GridTooCoarse,
                       match="curvature .* nearer the chart's center"):
        gauss_bonnet_disk(model, 0.2, center=(0.999, 0.0), max_error=1e-3)


@pytest.mark.parametrize("center", EDGE_CENTERS)
def test_conformal_disk_is_accurate_near_chart_edge(center):
    # the Poincare chart's curvature is closed form, so its disks run no
    # stencil: at 0.999 the stencil's total missed 2 pi by 8.7e-3
    res = gauss_bonnet_disk(get_model("hyperbolic-2"), 0.2, center=center)
    assert abs(res.total - 2.0 * math.pi) < 1e-9
    assert abs(res.total - 2.0 * math.pi) <= res.error
    assert res.params["error_parts"]["curvature"] == 0.0


def test_disk_curvature_part_is_small_at_the_center():
    for name in MODELS_2D:
        res = gauss_bonnet_disk(_stencil_only(get_model(name)), 0.5, grid=64)
        assert res.params["error_parts"]["curvature"] < 1e-7, name


@pytest.mark.parametrize("probe", (sphere_area_probe, gauss_bonnet_disk))
def test_integration_part_is_fourth_order(probe):
    # RK4 step doubling: halving h shrinks the difference about 16-fold
    model = get_model("round-s2")
    coarse, fine = (probe(model, 0.5, grid=64, h=0.5 / k).params
                    ["error_parts"]["integration"] for k in (8, 16))
    assert 12.0 < coarse / fine < 20.0


def test_default_probe_step_count(monkeypatch):
    # a default probe shoots 1 / SCALE_STEPS, clamped to between
    # MIN_STEPS and MAX_STEPS steps, stepped together with a companion at
    # half as many steps: as many RK4 steps as the fine shoot, four spray
    # evaluations per step, and for a disk's turning two more on its
    # boundary circle (spectral and finite-difference tangents) and one on
    # the companion's, which reports no error parts.  A silent return to a
    # finer default step fails here rather than on a timing gate
    calls = []
    spray = calculus._spray

    def counting_spray(*args, out=None):
        calls.append(1)
        return spray(*args, out=out)

    monkeypatch.setattr(calculus, "_spray", counting_spray)
    monkeypatch.setattr(probes, "_spray", counting_spray)
    assert (MIN_STEPS, MAX_STEPS, SCALE_STEPS) == (16, 32, 32)
    for probe, name, eps, grid, steps in (
            (sphere_area_probe, "round-s2", 0.5, None, 16),
            (gauss_bonnet_disk, "round-s2", 0.5, None, 16),
            (sphere_area_probe, "round-s3", 0.2, (8, 16), 16),
            # the 1 / SCALE_STEPS cap: 0.75 / 16 is longer than 1 / 32
            (gauss_bonnet_disk, "round-s2", 0.75, 64, 24),
            # the step count stops at MAX_STEPS, also far out
            (gauss_bonnet_disk, "round-s2", 1.5, 64, 32),
            (gauss_bonnet_disk, "flat-2", 1e6, 64, 32)):
        res = probe(get_model(name), eps, grid=grid)
        assert len(calls) == 4 * steps + 3 * (probe is gauss_bonnet_disk)
        calls.clear()
        assert res.params["steps"] == steps
        assert res.params["h"] == max(
            eps / MAX_STEPS, min(eps / MIN_STEPS, 1.0 / SCALE_STEPS))
        parts = res.params["error_parts"]
        assert set(parts) == {"quadrature", "integration", "drift"} | (
            {"curvature"} if probe is gauss_bonnet_disk else set())
        assert min(parts.values()) >= 0.0
        assert sum(parts.values()) == pytest.approx(res.error, rel=1e-12)


@pytest.mark.parametrize("name,radii", [
    *((n, (0.25, 0.5)) for n in MODELS_2D),
    *((n, (0.2, 0.1, 0.05)) for n in MODELS_3D)])
def test_default_step_integration_part_is_far_below_quadrature(name, radii):
    # at the criterion radii the default step leaves the step-doubling
    # difference at most 1/100 of the quadrature part (the worst case,
    # the round-s2 circle at 0.5, is about 1/500), and every probe lies
    # within its reported error of the closed form
    model = get_model(name)
    probes = (sphere_area_probe,)
    if model.chart().dim == 2:
        probes += (gauss_bonnet_disk,)
    for eps in radii:
        for probe in probes:
            res = probe(model, eps)
            parts = res.params["error_parts"]
            assert parts["integration"] <= parts["quadrature"] / 100.0, \
                (probe.__name__, eps, parts)
            if probe is gauss_bonnet_disk:
                actual = abs(res.total - 2.0 * math.pi)
            else:
                actual = abs(res.value - model.analytic["sphere_area"](eps))
            assert actual <= res.error, (probe.__name__, eps)


@pytest.mark.parametrize("name", MODELS_2D + MODELS_3D)
def test_every_probe_is_within_its_error_at_every_radius(name):
    # on the benchmark's grids, from the smallest criterion radius to 1
    model = get_model(name)
    grid = 256 if model.chart().dim == 2 else (16, 32)
    for eps in (0.05, 0.1, 0.2, 0.5, 1.0):
        res = sphere_area_probe(model, eps, grid=grid)
        assert abs(res.value - model.analytic["sphere_area"](eps)) \
            <= res.error, eps
        if model.chart().dim == 2:
            res = gauss_bonnet_disk(model, eps, grid=grid)
            assert abs(res.total - 2.0 * math.pi) <= res.error, eps


@pytest.mark.parametrize("eps", (1.25, 1.5))
def test_long_round_disk_meets_the_cli_tolerance(eps):
    # the swlab metric gauss-bonnet default tolerance is 1e-6; a flat
    # eps/16 step misses 2*pi by 2.5e-6 at 1.25 and 9.9e-6 at 1.5, the
    # default (32 steps at both radii) by 4.8e-8 and 5.4e-7
    res = gauss_bonnet_disk(get_model("round-s2"), eps)
    assert abs(res.total - 2.0 * math.pi) <= 1e-6


def test_simpson_any_interval_count():
    # exact for cubics from two intervals on (the 3/8 tail closes odd
    # counts); one interval is the trapezoid, exact for lines
    for n in range(2, 9):
        x = np.linspace(0.0, 1.0, n + 1)
        assert _simpson(x ** 3 - x, 1.0 / n) == pytest.approx(-0.25,
                                                              abs=1e-14)
    assert _simpson(np.array([1.0, 3.0]), 0.5) == pytest.approx(1.0)
