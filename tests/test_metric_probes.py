from __future__ import annotations

import math

import numpy as np
import pytest

from swlab.errors import GridTooCoarse, NonConvergent, OutOfDomain
from swlab.metric import (
    MetricChart,
    ModelGeometry,
    gauss_bonnet_disk,
    get_model,
    sphere_area_probe,
    w3_limit,
)
from swlab.metric import calculus
from swlab.metric.probes import PROBE_STEPS, _fft_derivative, _simpson

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


def test_probe_chart_independence_off_axis():
    res = sphere_area_probe(get_model("flat-3"), 0.3,
                            center=(1.0, math.pi / 2.0, 0.0),
                            chart_kind="polar")
    assert abs(res.ratio - 1.0) < 1e-4


def test_non_generic_chart_requires_center():
    with pytest.raises(OutOfDomain):
        sphere_area_probe(get_model("flat-3"), 0.3, chart_kind="polar")


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
    with pytest.raises(NonConvergent):
        w3_limit(flat, (0.2, 0.1))          # too short to extrapolate
    with pytest.raises(NonConvergent):
        w3_limit(flat, (0.1, 0.2, 0.05))    # not strictly decreasing
    with pytest.raises(OutOfDomain):
        w3_limit(get_model("round-s2"), (0.2, 0.1, 0.05))


def test_w3_limit_rejects_oscillatory_metric():
    # conformal factor oscillating faster than the probe radii: ratio
    # differences grow instead of shrinking and the probe must say so
    def metric_fn(pts):
        r2 = np.einsum("ni,ni->n", pts, pts)
        conf = (1.0 + 0.35 * np.sin(60.0 * r2)) ** 2
        return conf[:, None, None] * np.eye(3)

    wiggly = ModelGeometry(
        name="wiggly", dim=3,
        charts={"generic": MetricChart("wiggly/cartesian", 3, metric_fn)},
        center=(0.0, 0.0, 0.0), injectivity_guard=1.0)
    with pytest.raises(NonConvergent):
        w3_limit(wiggly, (0.45, 0.3, 0.2, 0.13), grid=(12, 24))


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


@pytest.mark.parametrize("probe", (sphere_area_probe, gauss_bonnet_disk))
def test_integration_part_is_fourth_order(probe):
    # RK4 step doubling: halving h shrinks the difference about 16-fold
    model = get_model("round-s2")
    coarse, fine = (probe(model, 0.5, grid=64, h=0.5 / k).params
                    ["error_parts"]["integration"] for k in (8, 16))
    assert 12.0 < coarse / fine < 20.0


def test_default_probe_step_count(monkeypatch):
    # a default probe shoots PROBE_STEPS RK4 steps plus a companion at
    # half as many, four right-hand sides per step; a silent return to a
    # finer default step fails here rather than on a timing gate
    calls = []
    rhs = calculus._geodesic_rhs

    def counting_rhs(*args):
        calls.append(1)
        return rhs(*args)

    monkeypatch.setattr(calculus, "_geodesic_rhs", counting_rhs)
    assert PROBE_STEPS == 32
    for probe, name, eps, grid in (
            (sphere_area_probe, "round-s2", 0.5, None),
            (gauss_bonnet_disk, "round-s2", 0.5, None),
            (sphere_area_probe, "round-s3", 0.2, (8, 16))):
        res = probe(get_model(name), eps, grid=grid)
        assert len(calls) == 4 * (32 + 16)
        calls.clear()
        assert res.params["steps"] == 32
        parts = res.params["error_parts"]
        assert set(parts) == {"quadrature", "integration", "drift"}
        assert min(parts.values()) >= 0.0
        assert sum(parts.values()) == pytest.approx(res.error, rel=1e-12)


def test_simpson_any_interval_count():
    # exact for cubics from two intervals on (the 3/8 tail closes odd
    # counts); one interval is the trapezoid, exact for lines
    for n in range(2, 9):
        x = np.linspace(0.0, 1.0, n + 1)
        assert _simpson(x ** 3 - x, 1.0 / n) == pytest.approx(-0.25,
                                                              abs=1e-14)
    assert _simpson(np.array([1.0, 3.0]), 0.5) == pytest.approx(1.0)
