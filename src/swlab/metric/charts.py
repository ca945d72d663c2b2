"""Model geometries: charts with batched metric evaluators.

Every model is a warped product dr^2 + f(r)^2 dOmega^2 around the origin
of its generic chart, and is built from one row: the generic chart, the
warp f and its slope f', and the model's constants.  The polar chart and
the closed-form reference quantities (sphere measure, Gauss-Bonnet parts)
are derived from f.  A rotationally symmetric metric is conformally flat,
so every generic chart is a `ConformalChart` g = phi(|x|^2) I (cartesian,
stereographic, Poincare disk, and (1 - c|x|^2)^-3 I for warped-3), whose
factor phi is derived by hand, independently of f: the probes that run
there are honest checks of the closed forms, not circular ones.  From one
checked evaluation of phi and phi' come the metric and the geodesic
spray in closed form; the scalar curvature also reads phi'', which the
chart computes for it alone.  The probes' quadrature reads phi itself
(`factor`, `factor_and_scalar`) and never forms phi I.  Every other
derivative of the metric, on every chart, is the calculus's
central-difference stencil.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache, reduce

import numpy as np

from ..errors import (DimensionMismatch, DimensionOutOfRange, OutOfDomain,
                      SingularMetric, UnknownModel)
from .constants import sphere_volume


class MetricChart:
    """A coordinate chart with a batched metric evaluator.

    `metric` takes an (N, dim) array of points and returns (N, dim, dim)
    symmetric matrices, validating the domain predicate, the shape of
    `metric_fn`'s result and positive definiteness (leading principal
    minors) at every call.  The minors are expanded up to order 3, so `dim`
    must lie in 1..3.  The calculus differentiates the metric by central
    differences.
    """

    __slots__ = ("name", "dim", "_metric_fn", "_domain_fn")

    def __init__(self, name, dim, metric_fn, domain_fn=None):
        if dim not in (1, 2, 3):
            raise DimensionOutOfRange(
                f"{name}: chart dimension {dim} is outside 1..3")
        self.name = name
        self.dim = dim
        self._metric_fn = metric_fn
        self._domain_fn = domain_fn

    def _points(self, points) -> np.ndarray:
        """The points as an (N, dim) float array.  Raises OutOfDomain for
        another width; a flat list is one point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise OutOfDomain(
                f"{self.name}: points must have {self.dim} coordinates")
        return pts

    def contains(self, points) -> np.ndarray:
        pts = self._points(points)
        if self._domain_fn is None:
            return np.ones(len(pts), dtype=bool)
        return np.asarray(self._domain_fn(pts), dtype=bool)

    def metric(self, points) -> np.ndarray:
        pts = self._points(points)
        inside = self.contains(pts)
        if not inside.all():
            bad = pts[~inside][0]
            raise OutOfDomain(f"{self.name}: point {bad} outside the domain",
                              point=bad)
        g = np.asarray(self._metric_fn(pts), dtype=float)
        want = (len(pts), self.dim, self.dim)
        if g.shape != want:
            raise DimensionMismatch(f"{self.name}: metric of shape {g.shape} "
                                    f"at {len(pts)} points, not {want}")
        self._check_spd(g, pts)
        return g

    def _check_spd(self, g, pts):
        """Every entry finite and all leading principal minors positive
        (Sylvester).  Finiteness is tested first, so that no minor is formed
        from an inf or NaN.  Minors are expanded by hand; this sits on the
        geodesic hot path and a LAPACK det call here costs more than the
        metric itself.  The calculus inverts g in closed form and relies on
        this check for a positive determinant."""
        finite = np.isfinite(g)
        if finite.all():
            ok = g[:, 0, 0] > 0
            if self.dim >= 2:
                ok &= g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0] > 0
            if self.dim >= 3:
                ok &= (g[:, 0, 0] * (g[:, 1, 1] * g[:, 2, 2] - g[:, 1, 2] ** 2)
                       - g[:, 0, 1] * (g[:, 0, 1] * g[:, 2, 2]
                                       - g[:, 1, 2] * g[:, 0, 2])
                       + g[:, 0, 2] * (g[:, 0, 1] * g[:, 1, 2]
                                       - g[:, 1, 1] * g[:, 0, 2])) > 0
        else:
            ok = finite.all(axis=(1, 2))
        if not ok.all():
            raise SingularMetric(
                f"{self.name}: metric not positive definite at {pts[~ok][0]}")

    def __repr__(self):
        return f"MetricChart({self.name!r}, dim={self.dim})"


@dataclass(frozen=True)
class ModelGeometry:
    """A named model with paired charts and analytic reference data.

    `analytic` maps quantity names to closed forms derived from the warp
    f: `sphere_area(eps)`, in 2-D `gauss_bonnet_interior(eps)` and
    `gauss_bonnet_boundary(eps)`, the constant `scalar` curvature (None
    when it varies) and `polar_radius(r)`, the generic-chart radius of the
    geodesic radius r.  `injectivity_guard` bounds probe radii.  The
    dimension is the chart's, and the probes center on its origin by
    default.
    """

    name: str
    charts: dict
    injectivity_guard: float
    analytic: dict = field(default_factory=dict)

    def chart(self, kind: str = "generic") -> MetricChart:
        return self.charts[kind]


@cache
def _ones(d):
    ones = np.ones(d)
    ones.flags.writeable = False  # shared by every call
    return ones


def _colsum(cols):
    """The sum of each column of a (d, N) array.  A matmul: numpy reduces
    over a length-2 or 3 axis several times slower than BLAS contracts
    it."""
    return _ones(len(cols)) @ cols


def _diag(vals, n):
    g = np.zeros((n, len(vals), len(vals)))
    for i, v in enumerate(vals):
        g[:, i, i] = v
    return g


class ConformalChart(MetricChart):
    """The chart g = phi(|x|^2) I, built from two functions of
    rho2 = |x|^2: factor(rho2) returns phi and phi', and
    curve(rho2, phi') returns phi''.  The domain, if any, is a predicate
    on rho2 too.  `factor` (phi at a point set), `factor_and_scalar`, the
    metric phi I and the calculus's closed-form geodesic spray each come
    from one checked factor evaluation, `factor_at`; only the scalar
    curvature calls curve."""

    __slots__ = ("_factor_fn", "_curve_fn")

    def __init__(self, name, dim, factor, curve, domain_fn=None):
        super().__init__(name, dim, None, domain_fn)
        self._factor_fn = factor
        self._curve_fn = curve

    def contains(self, points) -> np.ndarray:
        x = self._points(points).T
        if self._domain_fn is None:
            return np.ones(x.shape[1], dtype=bool)
        return np.asarray(self._domain_fn(_colsum(x * x)), dtype=bool)

    def factor_at(self, x):
        """(rho2, phi, phi') at the points that are the columns of x
        (dim, N), as the calculus stores its rays.  Raises OutOfDomain for
        a wrong width or the first point outside the domain, and
        SingularMetric for the first point where phi is not finite and
        positive.  The RK4 stage calls this: phi is tested by one min and
        one max, both of which fail on NaN, and the per-point mask is
        built only to name a failing point."""
        if len(x) != self.dim:
            raise OutOfDomain(
                f"{self.name}: points must have {self.dim} coordinates")
        rho2 = _colsum(x * x)
        if self._domain_fn is not None:
            inside = self._domain_fn(rho2)
            if not inside.all():
                bad = x.T[~inside][0]
                raise OutOfDomain(
                    f"{self.name}: point {bad} outside the domain", point=bad)
        phi, slope = self._factor_fn(rho2)
        if not (phi.min(initial=math.inf) > 0.0
                and phi.max(initial=0.0) < math.inf):
            ok = (phi > 0.0) & (phi < math.inf)
            raise SingularMetric(
                f"{self.name}: metric not positive definite at {x.T[~ok][0]}")
        return rho2, phi, slope

    def _check_det(self, x, phi):
        """phi at the columns x, checked for phi^dim > 0: the determinant
        of phi I, which calculus._inverse divides by, can underflow where
        phi cannot."""
        ok = reduce(operator.mul, (phi,) * self.dim) > 0.0
        if not ok.all():
            raise SingularMetric(
                f"{self.name}: metric not positive definite at {x.T[~ok][0]}")
        return phi

    def factor(self, points) -> np.ndarray:
        """phi at the (N, dim) points, with every check that `metric` runs:
        the width, the domain, phi finite and positive, and phi^dim > 0.
        The probes read phi here and never form phi I."""
        x = self._points(points).T
        return self._check_det(x, self.factor_at(x)[1])

    def metric(self, points) -> np.ndarray:
        phi = self.factor(points)
        return _diag((phi,) * self.dim, len(phi))

    def factor_and_scalar(self, points):
        """phi and the scalar curvature at the (N, dim) points from one
        checked factor evaluation, checked as `factor` is.  The scalar
        curvature of g = e^(2u) I is, in closed form,

            R = -e^(-2u) (2 (n-1) Lap u + (n-2)(n-1) |grad u|^2),

        where u = log(phi) / 2, so grad u = w x with w = phi'/phi, and
        Lap u = n w + 2 rho2 w' with w' = dw / d rho2."""
        x = self._points(points).T
        rho2, phi, slope = self.factor_at(x)
        phi, n, w = self._check_det(x, phi), self.dim, slope / phi
        curve = self._curve_fn(rho2, slope)
        lap = n * w + 2.0 * rho2 * (curve / phi - w * w)
        return phi, \
            -(2.0 * (n - 1) * lap + (n - 2) * (n - 1) * w * w * rho2) / phi


# Each conformal factor is a pair: phi and phi' of rho2, then phi'' of
# rho2 and phi'.

def _flat(rho2):
    return np.ones_like(rho2), np.zeros_like(rho2)


def _flat_curve(rho2, slope):
    return np.zeros_like(rho2)


def _stereographic(rho2):
    s = 1.0 + rho2
    phi = 4.0 / s ** 2
    return phi, -2.0 * phi / s


def _stereographic_curve(rho2, slope):
    return -3.0 * slope / (1.0 + rho2)


def _poincare(rho2):
    s = 1.0 - rho2
    phi = 4.0 / s ** 2
    return phi, 2.0 * phi / s


def _poincare_curve(rho2, slope):
    return 3.0 * slope / (1.0 - rho2)


def _warped(c: float):
    """The factor (1 - c rho2)^-3 of dr^2 + f(r)^2 dOmega^2 with
    f(r) = r + c r^3, and its phi'': |x| = exp(integral dr / f) =
    r / sqrt(1 + c r^2) makes it e^(2u) (d|x|^2 + |x|^2 dOmega^2) with
    e^(2u) = (dr / d|x|)^2 = (1 + c r^2)^3 = (1 - c |x|^2)^-3."""
    def factor(rho2):
        t = 1.0 / (1.0 - c * rho2)
        phi = t ** 3
        return phi, 3.0 * c * phi * t

    def curve(rho2, slope):
        return 4.0 * c * slope * (1.0 / (1.0 - c * rho2))

    return factor, curve


_POLAR_EPS = 0.05


def _polar_chart(name, dim, f, r_max):
    """Geodesic polar coordinates (r, theta) or (r, theta, phi) of the
    warped product dr^2 + f(r)^2 dOmega^2: g = diag(1, f^2) respectively
    diag(1, f^2, f^2 sin^2 theta), kept _POLAR_EPS away from the
    coordinate singularities."""
    def metric_fn(pts):
        f2 = f(pts[:, 0]) ** 2
        if dim == 2:
            return _diag((np.ones(len(pts)), f2), len(pts))
        return _diag((np.ones(len(pts)), f2, f2 * np.sin(pts[:, 1]) ** 2),
                     len(pts))

    lo = np.array([_POLAR_EPS, _POLAR_EPS])[:dim - 1]
    hi = np.array([r_max, math.pi - _POLAR_EPS])[:dim - 1]

    def domain_fn(pts):
        return ((pts[:, :dim - 1] > lo) & (pts[:, :dim - 1] < hi)).all(axis=1)

    return MetricChart(name, dim, metric_fn, domain_fn)


def _model(generic, f, df, r_max, guard, scalar, polar_radius, **extra):
    """A warped-product model dr^2 + f(r)^2 dOmega^2 around the origin of
    its generic chart.  The polar chart and the closed forms come from f:
    the geodesic sphere of radius eps has measure omega_{d-1} f(eps)^(d-1),
    and in 2-D the boundary of the geodesic disk turns by 2 pi f'(eps), so
    by Gauss-Bonnet its interior curvature is 2 pi (1 - f'(eps))."""
    name, dim = generic.name.split("/")[0], generic.dim
    omega = sphere_volume(dim - 1)
    analytic = {"scalar": scalar,
                "sphere_area": lambda eps: omega * float(f(eps)) ** (dim - 1),
                "polar_radius": polar_radius, **extra}
    if dim == 2:
        analytic["gauss_bonnet_boundary"] = \
            lambda eps: 2.0 * math.pi * float(df(eps))
        analytic["gauss_bonnet_interior"] = \
            lambda eps: 2.0 * math.pi * (1.0 - float(df(eps)))
    return ModelGeometry(
        name=name,
        charts={"generic": generic,
                "polar": _polar_chart(name + "/polar", dim, f, r_max)},
        injectivity_guard=guard, analytic=analytic)


def _build_models() -> dict:
    big, c, pole = 1e9, 0.1, math.pi - _POLAR_EPS

    def identity(r):
        return r

    def half_tan(r):
        return math.tan(r / 2.0)

    models = (
        # generic chart, f, f', polar r_max, guard, scalar, polar_radius
        _model(ConformalChart("flat-2/cartesian", 2, _flat, _flat_curve),
               identity, np.ones_like, big, big, 0.0, identity),
        _model(ConformalChart("round-s2/stereographic", 2, _stereographic,
                              _stereographic_curve),
               np.sin, np.cos, pole, 1.5, 2.0, half_tan),
        _model(ConformalChart("hyperbolic-2/disk", 2, _poincare,
                              _poincare_curve, lambda rho2: rho2 < 1.0 - 1e-9),
               np.sinh, np.cosh, big, 6.0, -2.0,
               lambda r: math.tanh(r / 2.0)),
        _model(ConformalChart("flat-3/cartesian", 3, _flat, _flat_curve),
               identity, np.ones_like, big, big, 0.0, identity),
        _model(ConformalChart("round-s3/stereographic", 3, _stereographic,
                              _stereographic_curve),
               np.sin, np.cos, pole, 1.5, 6.0, half_tan),
        # scalar curvature not constant; -36c at the center
        _model(ConformalChart("warped-3/conformal", 3, *_warped(c),
                              lambda rho2: c * rho2 < 1.0),
               lambda r: r + c * r ** 3, lambda r: 1.0 + 3.0 * c * r ** 2,
               big, 2.0, None, lambda r: r / math.sqrt(1.0 + c * r * r),
               scalar_at_center=-36.0 * c, warp_coefficient=c),
    )
    return {model.name: model for model in models}


MODELS = _build_models()
MODEL_NAMES = tuple(sorted(MODELS))


def get_model(name: str) -> ModelGeometry:
    if name not in MODELS:
        raise UnknownModel(
            f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
    return MODELS[name]
