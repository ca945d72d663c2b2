"""Geodesic probes: sphere areas, disk curvature totals, and their limits.

The probes shoot dense batches of unit-speed geodesics out of a point and
integrate over the resulting spheres and disks.  Angular derivatives are
spectral (the ray families are periodic), radial quadrature uses Simpson
shells, and every probe carries a self-estimated numerical error so a
too-coarse grid or step is detected instead of silently trusted.  The
error has three parts: quadrature (a lower-order comparison on the same
rays), integration (the step-doubling difference against companion
rays at twice the RK4 step, stepped together with the fine rays in one
RK4 loop) and drift (the g-speed drift of the rays).
The disk probe adds a fourth, curvature (the truncation error of the
curvature stencil, by Richardson on the boundary circle); it is 0 on a
conformal chart, where the disk reads the scalar curvature in closed form
and runs no stencil.  There the RK4 stages read phi and phi' of the
chart's factor, only the disk's curvature reads phi'', and the
quadrature reads the checked phi once per point set (`_metric_at`,
`ConformalChart.factor_and_scalar`) and never forms the metric phi I:
`g_norms` and `g_inner` take phi in place of g with the same bits.  The
step-doubling companion reports values only: its disk computes no error
parts.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import GridTooCoarse, NonConvergent, OutOfDomain
from .calculus import _shoot_together, _spray, check_rk4_budget, \
    curvature_many, g_inner, g_norms, rk4_step_count
from .charts import ConformalChart, ModelGeometry
from .constants import sphere_volume


@dataclass(frozen=True)
class ProbeResult:
    """A measured geometric quantity with its normalization and error.

    `value` is the raw measurement (circumference or area), `ratio` the
    value divided by its flat-space counterpart, `error` a conservative
    estimate of the numerical error in `value`."""

    value: float
    ratio: float
    error: float
    params: dict


@dataclass(frozen=True)
class GaussBonnetResult:
    interior: float
    boundary: float
    total: float
    cochain_value: int
    error: float
    params: dict


def _fft_derivative(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Spectral d/dt of samples over one period t in [0, 2*pi)."""
    n = values.shape[axis]
    spec = np.fft.rfft(values, axis=axis)
    k = np.arange(spec.shape[axis], dtype=float)
    if n % 2 == 0:
        k[-1] = 0.0  # the Nyquist mode has no well-defined odd derivative
    shape = [1] * spec.ndim
    shape[axis] = -1
    return np.fft.irfft(spec * (1j * k.reshape(shape)), n=n, axis=axis)


# The RK4 step when the caller passes no step: 1 / SCALE_STEPS in chart
# coordinates (every model's length scale is 1), clamped so that a
# probe takes between MIN_STEPS and MAX_STEPS steps.  The probes need the
# sphere or disk value, not a fine trajectory: at radii up to 0.5 the
# 16-step difference stays about 500 times below the quadrature error on
# every model.  The 1 / SCALE_STEPS cap keeps round-s2 disks out to its
# guard 1.5 within 1e-6 of 2*pi, where eps/16 alone misses by 1e-5;
# MAX_STEPS bounds the work at large radii (a flat disk of radius 1e6 takes
# 32 steps).
MIN_STEPS = 16
MAX_STEPS = 32
SCALE_STEPS = 32
# Fewest rays, latitudes or longitudes a probe grid may have: below 4 the
# spectral tangents vanish (a 0.0 value with a 0.0 error) and the polar
# stencil of a 3-D grid runs out of rows.
MIN_GRID = 4
# Below about 1.2e-77, eps**4 (a squared area element) is subnormal and underflows.
MIN_RADIUS = float(np.finfo(float).tiny) ** 0.25


def _directions(dim: int, grid, steps: int):
    """The probe grid and the unit directions of its rays: in 2-D a fan of
    `grid` rays (default 512) at equal angles, in 3-D a LAT,LON pair
    (default 48, 96) of latitude midpoints and equal longitudes, whose
    longitude count must be even for `_sphere_area`'s pole reflection.
    The rays, of `steps` RK4 steps each, are checked against RK4_BUDGET
    before their directions are built."""
    if dim == 2:
        try:
            nrays = operator.index(grid) if grid is not None else 512
        except TypeError:
            raise OutOfDomain(f"a 2-D probe takes one integer ray count, "
                              f"not {grid!r}") from None
        if nrays < MIN_GRID:
            raise OutOfDomain(f"a 2-D probe needs at least {MIN_GRID} rays, "
                              f"not {nrays}")
        check_rk4_budget(nrays, steps)
        theta = 2.0 * math.pi * np.arange(nrays) / nrays
        return nrays, np.column_stack([np.cos(theta), np.sin(theta)])
    try:
        nlat, nlon = map(operator.index,
                         grid if grid is not None else (48, 96))
    except (TypeError, ValueError):
        raise OutOfDomain(f"a 3-D probe takes an integer LAT,LON grid "
                          f"pair, not {grid!r}") from None
    if min(nlat, nlon) < MIN_GRID:
        raise OutOfDomain(f"a 3-D probe needs at least {MIN_GRID} "
                          f"latitudes and longitudes, not {(nlat, nlon)!r}")
    if nlon % 2:
        raise OutOfDomain("longitude count must be even for the "
                          "pole-reflection stencil")
    check_rk4_budget(nlat * nlon, steps)
    lat = (np.arange(nlat) + 0.5) * (math.pi / nlat)
    lon = 2.0 * math.pi * np.arange(nlon) / nlon
    st, ct = np.sin(lat), np.cos(lat)
    cp, sp = np.cos(lon), np.sin(lon)
    return (nlat, nlon), np.stack([st[:, None] * cp[None, :],
                                   st[:, None] * sp[None, :],
                                   np.broadcast_to(ct[:, None], (nlat, nlon))],
                                  axis=-1).reshape(-1, 3)


def _shoot_rays(model: ModelGeometry, eps: float, center, grid, h,
                record: bool = False):
    """The rays of a probe of radius eps on the model's chart.

    The radius must lie in [MIN_RADIUS, injectivity guard]; the default
    center is the chart's origin and the default step 1 / SCALE_STEPS,
    clamped to between MIN_STEPS and MAX_STEPS steps; the center must be
    finite.  Unit-speed rays along the `_directions` of `grid` are shot to
    length eps at the step h and at 2h: eps/h is rounded to a positive
    even step count so that the companion takes exactly half as many
    steps (step doubling).  Both run in one RK4 loop; the companion rays
    drop out when they reach eps, halfway through.  A grid whose rays
    at that step count exceed RK4_BUDGET is refused before its directions
    are built.  Returns the chart, the (x, v) ends of the fine and the
    companion rays (with `record`, their trajectories (steps+1, nrays,
    dim)), and the params every probe reports."""
    chart = model.chart()
    if not math.isfinite(eps):
        raise OutOfDomain(f"{model.name}: probe radius {eps} is not finite")
    if eps < MIN_RADIUS:
        raise OutOfDomain(f"{model.name}: probe radius {eps} is below {MIN_RADIUS:.3g}")
    if eps > model.injectivity_guard:
        raise OutOfDomain(
            f"{model.name}: radius {eps} exceeds the injectivity guard "
            f"{model.injectivity_guard}")
    if chart.dim not in (2, 3):
        raise OutOfDomain(
            f"{model.name}: sphere probes need dimension 2 or 3")
    if center is None:
        center = np.zeros(chart.dim)
    center = np.asarray(center, dtype=float)
    if not np.isfinite(center).all():
        raise OutOfDomain(
            f"{model.name}: probe center {center} is not finite")
    if h is None:
        h = max(eps / MAX_STEPS, min(eps / MIN_STEPS, 1.0 / SCALE_STEPS))
    half = rk4_step_count(eps / 2.0, h)
    grid, dirs = _directions(chart.dim, grid, 2 * half)
    x0 = np.tile(center, (len(dirs), 1))
    v0 = dirs / g_norms(_metric_at(chart, [center]), dirs)[:, None]
    fine, coarse = _shoot_together(chart, x0, v0, eps, (2 * half, half),
                                   record)
    params = {"model": model.name, "chart": chart.name, "eps": eps,
              "grid": grid, "h": h, "steps": 2 * half}
    return chart, fine, coarse, params


def _metric_at(chart, points):
    """What the quadrature reads of the metric at the (N, dim) points: the
    checked factor phi (N,) on a conformal chart, so that no phi I is
    formed, else the metric g (N, dim, dim).  `g_norms` and `g_inner`
    take either."""
    if isinstance(chart, ConformalChart):
        return chart.factor(points)
    return chart.metric(points)


_ADVICE = {"quadrature": "refine the grid",
           "integration": "shorten the step",
           "drift": "shorten the step",
           "curvature": "probe nearer the chart's center"}


def _check_max_error(name: str, max_error: float | None):
    """A NaN max_error would pass every error, a negative one fail every
    probe: both raise OutOfDomain."""
    if max_error is not None and not max_error >= 0:
        raise OutOfDomain(f"{name}: max_error must be None or non-negative, "
                          f"got {max_error}")


def _error_budget(name: str, eps: float, max_error: float | None,
                  **parts: float):
    """Sum the error parts; raise GridTooCoarse naming the dominant part
    when the sum exceeds max_error.  Returns (error, parts).

    `integration` is the full step-doubling difference, not divided by 15,
    so it bounds the RK4 error of the fine shoot conservatively."""
    error = sum(parts.values())
    if max_error is not None and error > max_error:
        worst = max(parts, key=parts.get)
        raise GridTooCoarse(
            f"{name}: estimated error {error:.3e} exceeds "
            f"{max_error:.3e} at eps={eps}; the {worst} part "
            f"({parts[worst]:.3e}) dominates: {_ADVICE[worst]}")
    return error, parts


def _circle_length(g: np.ndarray, x: np.ndarray):
    """Length of the closed curve through the ray ends x (nrays, 2), with
    the metric g there (or its factor, see `_metric_at`) and spectral
    tangents, and its quadrature error against central differences."""
    value = float(np.mean(g_norms(g, _fft_derivative(x, axis=0)))) \
        * 2.0 * math.pi
    dtheta = 2.0 * math.pi / len(x)
    tangents_fd = (np.roll(x, -1, axis=0) - np.roll(x, 1, axis=0)) \
        / (2.0 * dtheta)
    value_fd = float(np.mean(g_norms(g, tangents_fd))) * 2.0 * math.pi
    return value, abs(value - value_fd)


def _sphere_area(g: np.ndarray, x: np.ndarray, grid):
    """Area of the surface through the ray ends x on the LAT,LON grid of
    `_directions`, with the metric g there (or its factor, see
    `_metric_at`), and its quadrature error against the plain midpoint
    rule."""
    nlat, nlon = grid
    dlat = math.pi / nlat
    lat = (np.arange(nlat) + 0.5) * dlat
    sphere = x.reshape(nlat, nlon, 3)
    d_lon = _fft_derivative(sphere, axis=1)
    # Pad two rows past each pole; the direction field satisfies
    # dir(-t, phi) = dir(t, phi + pi) exactly, so reflected rows are
    # half-period rolls of existing ones.
    top = np.roll(sphere[1::-1], nlon // 2, axis=1)
    bottom = np.roll(sphere[:nlat - 3:-1], nlon // 2, axis=1)
    padded = np.concatenate([top, sphere, bottom], axis=0)
    d_lat = (-padded[4:] + 8.0 * padded[3:-1]
             - 8.0 * padded[1:-3] + padded[:-4]) / (12.0 * dlat)

    g = g.reshape((nlat, nlon) + g.shape[1:])
    ee = g_inner(g, d_lat, d_lat)
    ff = g_inner(g, d_lat, d_lon)
    gg = g_inner(g, d_lon, d_lon)
    dens = np.sqrt(np.clip(ee * gg - ff * ff, 0.0, None))

    dlon = 2.0 * math.pi / nlon
    weights = np.cos(lat - 0.5 * dlat) - np.cos(lat + 0.5 * dlat)
    rho = dens / np.sin(lat)[:, None]
    value = float(np.sum(rho * weights[:, None]) * dlon)
    value_mid = float(np.sum(dens) * dlat * dlon)
    return value, abs(value - value_mid)


def sphere_area_probe(model: ModelGeometry, eps: float, center=None,
                      grid=None, h: float | None = None,
                      max_error: float | None = None) -> ProbeResult:
    """Measure the geodesic sphere of radius eps around a point of the
    model's chart.

    In dimension 2 this is the circumference of the geodesic circle, in
    dimension 3 the area of the geodesic sphere; `ratio` divides by
    2*pi*eps respectively 4*pi*eps^2.  The rays are shot at the RK4 step
    h (default 1 / SCALE_STEPS, clamped to between MIN_STEPS and
    MAX_STEPS steps) and once more at 2h; `params` holds the step count
    and the parts of `error`.  Raises GridTooCoarse when the
    self-estimated error exceeds `max_error`, None or non-negative, and
    OutOfDomain when the grid's rays times the step count exceed
    RK4_BUDGET.
    """
    _check_max_error(model.name, max_error)
    chart, (x, v), (x2, _), params = _shoot_rays(model, eps, center, grid, h)
    if chart.dim == 2:
        measure, flat = _circle_length, sphere_volume(1) * eps
    else:
        measure = partial(_sphere_area, grid=params["grid"])
        flat = sphere_volume(2) * eps ** 2
    g = _metric_at(chart, x)
    drift = float(np.max(np.abs(g_norms(g, v) - 1.0)))
    value, quadrature = measure(g, x)
    error, parts = _error_budget(
        model.name, eps, max_error, quadrature=quadrature,
        integration=abs(value - measure(_metric_at(chart, x2), x2)[0]),
        drift=drift * abs(value))
    params.update(drift=drift, error_parts=parts)
    return ProbeResult(value, value / flat, error, params)


def _simpson(values: np.ndarray, dx: float) -> float:
    """Composite Simpson over equal intervals.  An odd interval count ends
    with the 3/8 rule over the last three; one interval is a trapezoid."""
    n = len(values) - 1
    if n == 1:
        return float(dx / 2.0 * (values[0] + values[1]))
    tail = 0.0
    if n % 2:
        tail = 3.0 * dx / 8.0 * (values[-4] + 3.0 * values[-3]
                                 + 3.0 * values[-2] + values[-1])
        values = values[:-3]
        if len(values) == 1:
            return float(tail)
    return float(dx / 3.0 * (values[0] + values[-1]
                             + 4.0 * values[1:-1:2].sum()
                             + 2.0 * values[2:-1:2].sum()) + tail)


def _disk_total(chart, traj_x: np.ndarray, traj_v: np.ndarray, eps: float):
    """Interior curvature and boundary turning of the disk swept by the
    recorded rays (steps+1, nrays, 2), and a function that returns their
    error parts: the quadrature error of both, the curvature stencil's
    truncation error and the g-speed drift of the rays at the boundary.
    The step-doubling companion needs the values only, so the parts are
    computed on demand.  The stencil is second order in h2, so by
    Richardson its error is the largest 4/3 |K(h2) - K(h2/2)| on the
    boundary circle, nearest the chart's edge, times the disk's area; it
    is 0 on a conformal chart, whose curvature is closed form."""
    steps, nrays = traj_x.shape[0] - 1, traj_x.shape[1]

    # Interior: f(s) = integral of K * |d_theta exp(s v)| over theta,
    # integrated over shells s in [0, eps] with Simpson.  The last shell
    # is the boundary circle.
    stride = steps // 64 if steps % 64 == 0 else 1
    shells = list(range(stride, steps + 1, stride))
    pos = traj_x[shells]                      # (nsh, nrays, 2)
    # The Gauss curvature is half the scalar curvature: in closed form on a
    # conformal chart, with the factor phi from the same evaluation,
    # else from the stencil, whose short outer step keeps the truncation
    # bias of the total well under 1e-6 near the chart's center; roundoff
    # stays negligible.
    conformal = isinstance(chart, ConformalChart)
    if conformal:
        g, scalar = chart.factor_and_scalar(pos.reshape(-1, 2))
    else:
        h2 = 2.5e-4
        g = chart.metric(pos.reshape(-1, 2))
        scalar = curvature_many(chart, pos.reshape(-1, 2), h2=h2).scalar
    jac = _fft_derivative(pos, axis=1)
    jnorm = g_norms(g, jac.reshape(-1, 2)).reshape(len(shells), nrays)
    gauss = 0.5 * scalar.reshape(len(shells), nrays)
    f_vals = np.concatenate([[0.0], (gauss * jnorm).mean(axis=1)
                             * 2.0 * math.pi])
    ds = eps / steps * stride
    interior = _simpson(f_vals, ds)

    # Boundary: geodesic curvature of the boundary circle against the
    # inward normal (minus the outgoing ray velocity).  The covariant
    # acceleration adds Gamma(t, t), which is minus the geodesic spray at t.
    # The quadrature error compares spectral with central-difference
    # tangents.
    curve = traj_x[-1]
    g_bnd = g.reshape((len(shells), nrays) + g.shape[1:])[-1]
    speed = g_norms(g_bnd, traj_v[-1])
    normal_in = -traj_v[-1] / speed[:, None]

    def turning(tang, accel):
        cov = accel - _spray(chart, curve.T, tang.T).T
        k_geod = g_inner(g_bnd, cov, normal_in) / g_norms(g_bnd, tang)
        return float(np.mean(k_geod)) * 2.0 * math.pi

    tang = _fft_derivative(curve, axis=0)
    boundary = turning(tang, _fft_derivative(tang, axis=0))

    def errors():
        interior_tz = float(np.trapezoid(f_vals, dx=ds))
        curvature = 0.0
        if not conformal:
            half = 0.5 * curvature_many(chart, pos[-1], h2=h2 / 2.0).scalar
            area = _simpson(np.concatenate([[0.0], jnorm.mean(axis=1)])
                            * 2.0 * math.pi, ds)
            curvature = 4.0 / 3.0 * float(np.max(np.abs(gauss[-1] - half))) \
                * area
        ahead, behind = np.roll(curve, -1, axis=0), np.roll(curve, 1, axis=0)
        dtheta = 2.0 * math.pi / nrays
        boundary_fd = turning((ahead - behind) / (2.0 * dtheta),
                              (ahead - 2.0 * curve + behind) / dtheta ** 2)
        quadrature = abs(interior - interior_tz) + abs(boundary - boundary_fd)
        return quadrature, curvature, float(np.max(np.abs(speed - 1.0)))

    return interior, boundary, errors


def gauss_bonnet_disk(model: ModelGeometry, eps: float, center=None,
                      grid=None, h: float | None = None,
                      max_error: float | None = None) -> GaussBonnetResult:
    """Interior curvature plus boundary turning of a geodesic disk around
    a point of the model's chart.

    `interior` integrates the Gauss curvature over the disk in geodesic
    polar shells, `boundary` integrates the geodesic curvature of the
    boundary circle; their sum is 2*pi for any metric, and `cochain_value`
    is the resulting Euler evaluation reduced mod 2.  The rays are shot
    at the RK4 step h (default 1 / SCALE_STEPS, clamped to between
    MIN_STEPS and MAX_STEPS steps) and once more at 2h; `params` holds the
    step count and the parts of `error`, gated as in `sphere_area_probe`.
    """
    if model.chart().dim != 2:
        raise OutOfDomain(f"{model.name}: disk probe needs dimension 2")
    _check_max_error(model.name, max_error)
    chart, fine, companion, params = _shoot_rays(model, eps, center, grid,
                                                 h, record=True)
    interior, boundary, errors = _disk_total(chart, *fine, eps)
    quadrature, curvature, drift = errors()
    interior2, boundary2, _ = _disk_total(chart, *companion, eps)
    total = interior + boundary
    error, parts = _error_budget(
        model.name, eps, max_error, quadrature=quadrature,
        integration=abs(total - interior2 - boundary2),
        drift=drift * (abs(interior) + abs(boundary)), curvature=curvature)
    params.update(drift=drift, error_parts=parts)
    return GaussBonnetResult(interior, boundary, total,
                             round(total / (2.0 * math.pi)) % 2,
                             error, params)


def w3_limit(model: ModelGeometry, eps_list, center=None,
             grid=None) -> ProbeResult:
    """Extrapolate the normalized sphere-area ratio to radius zero.

    The ratio area / (4*pi*eps^2) has an expansion in eps^2; Neville
    extrapolation over the given strictly decreasing radii removes the
    curvature deficit, and the limit is the top-degree cochain value (1
    for every smooth metric).  Raises NonConvergent when the successive
    ratio differences grow beyond the probes' own error floor.
    """
    chart = model.chart()
    if chart.dim != 3:
        raise OutOfDomain(f"{model.name}: the limit probe is 3-dimensional")
    radii = [float(e) for e in eps_list]
    if len(radii) < 3:
        raise OutOfDomain("need at least 3 radii to extrapolate")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise OutOfDomain("radii must strictly decrease")

    probes = [sphere_area_probe(model, e, center=center, grid=grid)
              for e in radii]
    ratios = [p.ratio for p in probes]
    ratio_errors = [p.error / (sphere_volume(2) * e ** 2)
                    for p, e in zip(probes, radii)]
    floor = max(1e-9, 3.0 * max(ratio_errors))
    diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    for a, b in zip(diffs, diffs[1:]):
        if b > a and b > floor:
            raise NonConvergent(
                f"{model.name}: ratio differences grow ({a:.3e} then "
                f"{b:.3e}); radii are outside the convergent regime")

    # Neville tableau evaluated at eps^2 = 0
    xs = [e * e for e in radii]
    tab = list(ratios)
    for width in range(1, len(tab)):
        prev = tab[0]
        for i in range(len(tab) - width):
            tab[i] = (xs[i + width] * tab[i] - xs[i] * tab[i + 1]) \
                / (xs[i + width] - xs[i])
    limit = tab[0]
    error = abs(limit - prev) + max(ratio_errors)
    params = {"model": model.name, "chart": chart.name,
              "eps": tuple(radii), "ratios": tuple(ratios),
              "grid": probes[0].params["grid"],
              "cochain_value": round(limit) % 2}
    return ProbeResult(limit, limit, error, params)
