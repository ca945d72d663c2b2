"""Model geometries: charts with batched metric evaluators.

Each model ships two charts.  The polar chart makes the closed-form
reference quantities easy to derive; the generic chart (stereographic,
Poincare disk, or cartesian) is where the honest numerical probes run, so
the comparisons in the tests are not circular.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionOutOfRange, OutOfDomain, SingularMetric


class MetricChart:
    """A coordinate chart with a batched metric evaluator.

    `metric` takes an (N, dim) array of points and returns (N, dim, dim)
    symmetric matrices, validating the domain predicate and positive
    definiteness (leading principal minors) at every call.  The minors are
    expanded up to order 3, so `dim` must lie in 1..3.
    """

    __slots__ = ("name", "dim", "scale", "_metric_fn", "_domain_fn")

    def __init__(self, name, dim, metric_fn, domain_fn=None, scale=1.0):
        if dim not in (1, 2, 3):
            raise DimensionOutOfRange(
                f"{name}: chart dimension {dim} is outside 1..3")
        self.name = name
        self.dim = dim
        self.scale = scale
        self._metric_fn = metric_fn
        self._domain_fn = domain_fn

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._domain_fn is None:
            return np.ones(len(pts), dtype=bool)
        return np.asarray(self._domain_fn(pts), dtype=bool)

    def metric(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise OutOfDomain(
                f"{self.name}: points must have {self.dim} coordinates")
        inside = self.contains(pts)
        if not inside.all():
            bad = pts[~inside][0]
            raise OutOfDomain(f"{self.name}: point {bad} outside the domain",
                              point=bad)
        g = np.asarray(self._metric_fn(pts), dtype=float)
        self._check_spd(g, pts)
        return g

    def _check_spd(self, g, pts):
        """Sylvester test: all leading principal minors positive.  Minors
        are expanded by hand; this sits on the geodesic hot path and a
        LAPACK det call here costs more than the metric itself."""
        minor = g[:, 0, 0].copy()
        bad = minor <= 0
        if self.dim >= 2 and not bad.any():
            minor = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
            bad = minor <= 0
        if self.dim >= 3 and not bad.any():
            minor = (g[:, 0, 0] * (g[:, 1, 1] * g[:, 2, 2] - g[:, 1, 2] ** 2)
                     - g[:, 0, 1] * (g[:, 0, 1] * g[:, 2, 2]
                                     - g[:, 1, 2] * g[:, 0, 2])
                     + g[:, 0, 2] * (g[:, 0, 1] * g[:, 1, 2]
                                     - g[:, 1, 1] * g[:, 0, 2]))
            bad = minor <= 0
        if bad.any():
            raise SingularMetric(
                f"{self.name}: metric not positive definite at {pts[bad][0]}")

    def __repr__(self):
        return f"MetricChart({self.name!r}, dim={self.dim})"


@dataclass(frozen=True)
class ModelGeometry:
    """A named model with paired charts and analytic reference data.

    `analytic` maps quantity names to closed forms derived in the polar
    chart; `injectivity_guard` bounds probe radii; `center` is the default
    probe center in the generic chart.
    """

    name: str
    dim: int
    charts: dict
    center: tuple
    injectivity_guard: float
    analytic: dict = field(default_factory=dict)

    def chart(self, kind: str = "generic") -> MetricChart:
        return self.charts[kind]


def _diag_metric(values_fn):
    def metric_fn(pts):
        vals = values_fn(pts)
        n, d = len(pts), len(vals)
        g = np.zeros((n, d, d))
        for i, v in enumerate(vals):
            g[:, i, i] = v
        return g
    return metric_fn


def _conformal_metric(factor_fn, dim):
    def metric_fn(pts):
        lam = factor_fn(pts)
        return lam[:, None, None] * np.eye(dim)[None, :, :]
    return metric_fn


def _warped_cartesian(c: float):
    """dr^2 + f(r)^2 dOmega^2 with f(r) = r + c r^3, written in cartesian
    coordinates: g = (1 + c rho^2)^2 I - (2c + c^2 rho^2) x x^T.

    Polynomial in the coordinates, hence smooth through the origin; the
    radial eigenvalue is identically 1 and the tangential one (1+c rho^2)^2.
    """
    def metric_fn(pts):
        rho2 = np.einsum("ni,ni->n", pts, pts)
        conf = (1.0 + c * rho2) ** 2
        rad = 2.0 * c + c * c * rho2
        out = conf[:, None, None] * np.eye(pts.shape[1])
        out -= np.einsum("n,ni,nj->nij", rad, pts, pts)
        return out
    return metric_fn


_POLAR_EPS = 0.05


def _polar_domain_2d(r_max):
    def domain(pts):
        return (pts[:, 0] > _POLAR_EPS) & (pts[:, 0] < r_max)
    return domain


def _polar_domain_3d(r_max):
    def domain(pts):
        return ((pts[:, 0] > _POLAR_EPS) & (pts[:, 0] < r_max)
                & (pts[:, 1] > _POLAR_EPS) & (pts[:, 1] < math.pi - _POLAR_EPS))
    return domain


def _warp(c):
    return lambda r: r + c * r ** 3


def _build_models() -> dict:
    big = 1e9
    c = 0.1
    f = _warp(c)

    models = {}

    models["flat-2"] = ModelGeometry(
        name="flat-2", dim=2,
        charts={
            "generic": MetricChart(
                "flat-2/cartesian", 2, _conformal_metric(
                    lambda pts: np.ones(len(pts)), 2)),
            "polar": MetricChart(
                "flat-2/polar", 2,
                _diag_metric(lambda pts: (np.ones(len(pts)), pts[:, 0] ** 2)),
                domain_fn=_polar_domain_2d(big)),
        },
        center=(0.0, 0.0), injectivity_guard=big,
        analytic={
            "scalar": 0.0,
            "sphere_area": lambda eps: 2.0 * math.pi * eps,
            "gauss_bonnet_interior": lambda eps: 0.0,
            "gauss_bonnet_boundary": lambda eps: 2.0 * math.pi,
            "polar_radius": lambda r: r,
        })

    models["round-s2"] = ModelGeometry(
        name="round-s2", dim=2,
        charts={
            "generic": MetricChart(
                "round-s2/stereographic", 2, _conformal_metric(
                    lambda pts: 4.0 / (1.0 + np.sum(pts * pts, axis=1)) ** 2, 2)),
            "polar": MetricChart(
                "round-s2/polar", 2,
                _diag_metric(lambda pts: (np.ones(len(pts)),
                                          np.sin(pts[:, 0]) ** 2)),
                domain_fn=_polar_domain_2d(math.pi - _POLAR_EPS)),
        },
        center=(0.0, 0.0), injectivity_guard=1.5,
        analytic={
            "scalar": 2.0,
            "sphere_area": lambda eps: 2.0 * math.pi * math.sin(eps),
            "gauss_bonnet_interior": lambda eps: 2.0 * math.pi * (1.0 - math.cos(eps)),
            "gauss_bonnet_boundary": lambda eps: 2.0 * math.pi * math.cos(eps),
            "polar_radius": lambda r: math.tan(r / 2.0),
        })

    models["hyperbolic-2"] = ModelGeometry(
        name="hyperbolic-2", dim=2,
        charts={
            "generic": MetricChart(
                "hyperbolic-2/disk", 2, _conformal_metric(
                    lambda pts: 4.0 / (1.0 - np.sum(pts * pts, axis=1)) ** 2, 2),
                domain_fn=lambda pts: np.sum(pts * pts, axis=1) < (1.0 - 1e-9)),
            "polar": MetricChart(
                "hyperbolic-2/polar", 2,
                _diag_metric(lambda pts: (np.ones(len(pts)),
                                          np.sinh(pts[:, 0]) ** 2)),
                domain_fn=_polar_domain_2d(big)),
        },
        center=(0.0, 0.0), injectivity_guard=6.0,
        analytic={
            "scalar": -2.0,
            "sphere_area": lambda eps: 2.0 * math.pi * math.sinh(eps),
            "gauss_bonnet_interior": lambda eps: -2.0 * math.pi * (math.cosh(eps) - 1.0),
            "gauss_bonnet_boundary": lambda eps: 2.0 * math.pi * math.cosh(eps),
            "polar_radius": lambda r: math.tanh(r / 2.0),
        })

    models["flat-3"] = ModelGeometry(
        name="flat-3", dim=3,
        charts={
            "generic": MetricChart(
                "flat-3/cartesian", 3, _conformal_metric(
                    lambda pts: np.ones(len(pts)), 3)),
            "polar": MetricChart(
                "flat-3/spherical", 3,
                _diag_metric(lambda pts: (
                    np.ones(len(pts)),
                    pts[:, 0] ** 2,
                    pts[:, 0] ** 2 * np.sin(pts[:, 1]) ** 2)),
                domain_fn=_polar_domain_3d(big)),
        },
        center=(0.0, 0.0, 0.0), injectivity_guard=big,
        analytic={
            "scalar": 0.0,
            "sphere_area": lambda eps: 4.0 * math.pi * eps ** 2,
            "polar_radius": lambda r: r,
        })

    models["round-s3"] = ModelGeometry(
        name="round-s3", dim=3,
        charts={
            "generic": MetricChart(
                "round-s3/stereographic", 3, _conformal_metric(
                    lambda pts: 4.0 / (1.0 + np.sum(pts * pts, axis=1)) ** 2, 3)),
            "polar": MetricChart(
                "round-s3/polar", 3,
                _diag_metric(lambda pts: (
                    np.ones(len(pts)),
                    np.sin(pts[:, 0]) ** 2,
                    np.sin(pts[:, 0]) ** 2 * np.sin(pts[:, 1]) ** 2)),
                domain_fn=_polar_domain_3d(math.pi - _POLAR_EPS)),
        },
        center=(0.0, 0.0, 0.0), injectivity_guard=1.5,
        analytic={
            "scalar": 6.0,
            "sphere_area": lambda eps: 4.0 * math.pi * math.sin(eps) ** 2,
            "polar_radius": lambda r: math.tan(r / 2.0),
        })

    models["warped-3"] = ModelGeometry(
        name="warped-3", dim=3,
        charts={
            "generic": MetricChart(
                "warped-3/cartesian", 3, _warped_cartesian(c)),
            "polar": MetricChart(
                "warped-3/polar", 3,
                _diag_metric(lambda pts: (
                    np.ones(len(pts)),
                    (pts[:, 0] + c * pts[:, 0] ** 3) ** 2,
                    (pts[:, 0] + c * pts[:, 0] ** 3) ** 2
                    * np.sin(pts[:, 1]) ** 2)),
                domain_fn=_polar_domain_3d(big)),
        },
        center=(0.0, 0.0, 0.0), injectivity_guard=2.0,
        analytic={
            "scalar": None,  # not constant; -36c at the center
            "scalar_at_center": -36.0 * c,
            "warp_coefficient": c,
            "sphere_area": lambda eps: 4.0 * math.pi * f(eps) ** 2,
            "polar_radius": lambda r: r,
        })

    return models


MODELS = _build_models()
MODEL_NAMES = tuple(sorted(MODELS))


def get_model(name: str) -> ModelGeometry:
    if name not in MODELS:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
    return MODELS[name]
