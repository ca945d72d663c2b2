"""The closed forms and polar charts that swlab.metric derives from each
model's warp f, against the formulas written out model by model, kept here
as the reference."""
from __future__ import annotations

import math

import numpy as np
import pytest

from swlab.metric import MODEL_NAMES, get_model

EPS_VALUES = (0.05, 0.2, 0.25, 0.5, 0.8, 1.3)
POLAR_EPS = 0.05
BIG = 1e9
C = 0.1
TWO_PI, FOUR_PI = 2.0 * math.pi, 4.0 * math.pi

# name: (sphere_area, gauss_bonnet_interior, gauss_bonnet_boundary)
CLOSED_FORMS = {
    "flat-2": (lambda e: TWO_PI * e, lambda e: 0.0, lambda e: TWO_PI),
    "round-s2": (lambda e: TWO_PI * math.sin(e),
                 lambda e: TWO_PI * (1.0 - math.cos(e)),
                 lambda e: TWO_PI * math.cos(e)),
    "hyperbolic-2": (lambda e: TWO_PI * math.sinh(e),
                     lambda e: -TWO_PI * (math.cosh(e) - 1.0),
                     lambda e: TWO_PI * math.cosh(e)),
    "flat-3": (lambda e: FOUR_PI * e ** 2,),
    "round-s3": (lambda e: FOUR_PI * math.sin(e) ** 2,),
    "warped-3": (lambda e: FOUR_PI * (e + C * e ** 3) ** 2,),
}

# name: (generic chart, scalar, guard, polar_radius)
CONSTANTS = {
    "flat-2": ("flat-2/cartesian", 0.0, BIG, lambda r: r),
    "round-s2": ("round-s2/stereographic", 2.0, 1.5,
                 lambda r: math.tan(r / 2.0)),
    "hyperbolic-2": ("hyperbolic-2/disk", -2.0, 6.0,
                     lambda r: math.tanh(r / 2.0)),
    "flat-3": ("flat-3/cartesian", 0.0, BIG, lambda r: r),
    "round-s3": ("round-s3/stereographic", 6.0, 1.5,
                 lambda r: math.tan(r / 2.0)),
    # the conformal chart (1 - C |x|^2)^-3 I: |x| = r / sqrt(1 + C r^2)
    "warped-3": ("warped-3/conformal", None, 2.0,
                 lambda r: r / math.sqrt(1.0 + C * r * r)),
}

# name: (polar metric diagonal, polar r_max)
POLAR = {
    "flat-2": (lambda p: (np.ones(len(p)), p[:, 0] ** 2), BIG),
    "round-s2": (lambda p: (np.ones(len(p)), np.sin(p[:, 0]) ** 2),
                 math.pi - POLAR_EPS),
    "hyperbolic-2": (lambda p: (np.ones(len(p)), np.sinh(p[:, 0]) ** 2), BIG),
    "flat-3": (lambda p: (np.ones(len(p)), p[:, 0] ** 2,
                          p[:, 0] ** 2 * np.sin(p[:, 1]) ** 2), BIG),
    "round-s3": (lambda p: (np.ones(len(p)), np.sin(p[:, 0]) ** 2,
                            np.sin(p[:, 0]) ** 2 * np.sin(p[:, 1]) ** 2),
                 math.pi - POLAR_EPS),
    "warped-3": (lambda p: (np.ones(len(p)), (p[:, 0] + C * p[:, 0] ** 3) ** 2,
                            (p[:, 0] + C * p[:, 0] ** 3) ** 2
                            * np.sin(p[:, 1]) ** 2), BIG),
}


def test_reference_covers_every_model():
    assert set(CLOSED_FORMS) == set(CONSTANTS) == set(POLAR) == set(MODEL_NAMES)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_closed_forms_match_reference(name):
    # np.sinh and math.sinh may differ by an ulp, so the forms are held to
    # 1e-15 of the largest term they are summed from, not bitwise: 2 pi for
    # the Gauss-Bonnet parts, whose interior cancels to O(eps^2)
    analytic = get_model(name).analytic
    keys = ("sphere_area", "gauss_bonnet_interior", "gauss_bonnet_boundary")
    assert set(keys) & set(analytic) == set(keys[:len(CLOSED_FORMS[name])])
    for key, want_fn in zip(keys, CLOSED_FORMS[name]):
        for eps in EPS_VALUES:
            got, want = analytic[key](eps), want_fn(eps)
            scale = abs(want) if key == "sphere_area" else TWO_PI
            assert isinstance(got, float), (key, eps)
            assert abs(got - want) <= 1e-15 * scale, (key, eps, got, want)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_model_constants_match_reference(name):
    model = get_model(name)
    generic, scalar, guard, polar_radius = CONSTANTS[name]
    assert model.chart("generic").name == generic
    assert model.chart("polar").name == name + "/polar"
    # the probes' default center
    assert model.chart().contains(np.zeros(model.chart().dim)).all()
    assert model.injectivity_guard == guard
    assert model.analytic["scalar"] == scalar
    for r in EPS_VALUES:
        assert model.analytic["polar_radius"](r) == polar_radius(r)
    if name == "warped-3":
        assert model.analytic["warp_coefficient"] == C
        assert model.analytic["scalar_at_center"] == -36.0 * C


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_polar_chart_is_bitwise_reference(name):
    chart = get_model(name).chart("polar")
    diagonal, r_max = POLAR[name]
    rng = np.random.default_rng(20)
    pts = rng.uniform(0.0, 3.3, size=(400, chart.dim))
    if chart.dim == 3:
        pts[:, 2] *= 2.0
    # the domain's edges and just inside them
    edges = [POLAR_EPS, math.pi - POLAR_EPS, r_max]
    pts[:6, 0] = edges + [np.nextafter(x, 1.0) for x in edges]
    if chart.dim == 3:
        pts[6:12, 1] = pts[:6, 0]
        pts[6:12, 0] = 1.0
    inside = (pts[:, 0] > POLAR_EPS) & (pts[:, 0] < r_max)
    if chart.dim == 3:
        inside &= (pts[:, 1] > POLAR_EPS) & (pts[:, 1] < math.pi - POLAR_EPS)
    assert np.array_equal(chart.contains(pts), inside)
    sample = pts[inside & (pts[:, 0] < 4.0)]  # sinh(r_max) overflows
    assert len(sample) > 100
    want = np.zeros((len(sample), chart.dim, chart.dim))
    for i, values in enumerate(diagonal(sample)):
        want[:, i, i] = values
    assert np.array_equal(chart.metric(sample), want)
