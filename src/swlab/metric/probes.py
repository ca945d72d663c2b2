"""Geodesic probes: sphere areas, disk curvature totals, and their limits.

The probes shoot dense batches of unit-speed geodesics out of a point and
integrate over the resulting spheres and disks.  Angular derivatives are
spectral (the ray families are periodic), radial quadrature uses Simpson
shells, and every probe carries a self-estimated numerical error so a
too-coarse grid or step is detected instead of silently trusted.  The
error has three parts: quadrature (a lower-order comparison on the same
rays), integration (the step-doubling difference against a companion
shoot at twice the RK4 step) and drift (the g-speed drift of the rays).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import GridTooCoarse, NonConvergent, OutOfDomain
from .calculus import christoffel_many, curvature_many, g_norms, \
    geodesic_shoot_many
from .charts import ModelGeometry
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


# RK4 steps over the probe radius when the caller passes no step.  The
# probes need the sphere or disk value, not a fine trajectory: at eps/32 the
# step-doubling difference stays far below the quadrature error on every
# model.
PROBE_STEPS = 32


def _probe_setup(model: ModelGeometry, eps: float, center, h, chart_kind):
    """The chart, center and RK4 step of a probe of radius eps.  The radius
    must lie within the injectivity guard; the default center is the
    model's generic-chart center and the default step eps / PROBE_STEPS."""
    chart = model.chart(chart_kind)
    if not eps > 0:
        raise OutOfDomain(f"{model.name}: probe radius must be positive")
    if eps > model.injectivity_guard:
        raise OutOfDomain(
            f"{model.name}: radius {eps} exceeds the injectivity guard "
            f"{model.injectivity_guard}")
    if center is None:
        if chart_kind != "generic":
            raise OutOfDomain(
                f"{model.name}: default center is a generic-chart point; "
                f"pass one explicitly for the {chart_kind} chart")
        center = model.center
    return chart, center, eps / PROBE_STEPS if h is None else h


def _circle_fan(grid):
    """The ray count (default 512) and the unit directions of a planar
    fan of rays."""
    nrays = int(grid) if grid is not None else 512
    theta = 2.0 * math.pi * np.arange(nrays) / nrays
    return nrays, np.column_stack([np.cos(theta), np.sin(theta)])


def _shoot_pair(chart, center, dirs, eps: float, h: float,
                record: bool = False):
    """Shoot unit-speed rays from center along dirs to length eps at the
    RK4 step h and at 2h.

    eps/h is rounded to a positive even step count so that the companion
    takes exactly half as many steps (step doubling).  Returns the (x, v)
    pair of each shoot, fine first, and the fine step count."""
    if not h > 0:
        raise OutOfDomain(f"RK4 step must be positive, got {h}")
    x0 = np.tile(np.asarray(center, dtype=float), (len(dirs), 1))
    v0 = dirs / g_norms(chart, x0, dirs)[:, None]
    steps = 2 * max(1, round(eps / (2.0 * h)))
    fine = geodesic_shoot_many(chart, x0, v0, eps, eps / steps,
                               record=record)
    coarse = geodesic_shoot_many(chart, x0, v0, eps, 2.0 * eps / steps,
                                 record=record)
    return fine, coarse, steps


def _error_budget(name: str, eps: float, max_error: float | None,
                  quadrature: float, integration: float, drift: float):
    """Sum the error parts; raise GridTooCoarse naming the dominant part
    when the sum exceeds max_error.  Returns (error, parts).

    `integration` is the full step-doubling difference, not divided by 15,
    so it bounds the RK4 error of the fine shoot conservatively."""
    parts = {"quadrature": quadrature, "integration": integration,
             "drift": drift}
    error = quadrature + integration + drift
    if max_error is not None and error > max_error:
        worst = max(parts, key=parts.get)
        advice = ("refine the grid" if worst == "quadrature"
                  else "shorten the step")
        raise GridTooCoarse(
            f"{name}: estimated error {error:.3e} exceeds "
            f"{max_error:.3e} at eps={eps}; the {worst} part "
            f"({parts[worst]:.3e}) dominates: {advice}")
    return error, parts


def _circle_length(chart, x: np.ndarray):
    """Length of the closed curve through the ray ends x (nrays, 2), with
    spectral tangents, and its quadrature error against central
    differences."""
    value = float(np.mean(g_norms(chart, x, _fft_derivative(x, axis=0)))) \
        * 2.0 * math.pi
    dtheta = 2.0 * math.pi / len(x)
    tangents_fd = (np.roll(x, -1, axis=0) - np.roll(x, 1, axis=0)) \
        / (2.0 * dtheta)
    value_fd = float(np.mean(g_norms(chart, x, tangents_fd))) * 2.0 * math.pi
    return value, abs(value - value_fd)


def _sphere_area(chart, x: np.ndarray, lat: np.ndarray, nlon: int):
    """Area of the surface through the ray ends x on the (lat, lon) grid,
    and its quadrature error against the plain midpoint rule."""
    nlat = len(lat)
    dlat = math.pi / nlat
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

    g = chart.metric(x).reshape(nlat, nlon, 3, 3)
    ee = np.einsum("abij,abi,abj->ab", g, d_lat, d_lat)
    ff = np.einsum("abij,abi,abj->ab", g, d_lat, d_lon)
    gg = np.einsum("abij,abi,abj->ab", g, d_lon, d_lon)
    dens = np.sqrt(np.clip(ee * gg - ff * ff, 0.0, None))

    dlon = 2.0 * math.pi / nlon
    weights = np.cos(lat - 0.5 * dlat) - np.cos(lat + 0.5 * dlat)
    rho = dens / np.sin(lat)[:, None]
    value = float(np.sum(rho * weights[:, None]) * dlon)
    value_mid = float(np.sum(dens) * dlat * dlon)
    return value, abs(value - value_mid)


def sphere_area_probe(model: ModelGeometry, eps: float, center=None,
                      grid=None, h: float | None = None,
                      chart_kind: str = "generic",
                      max_error: float | None = None) -> ProbeResult:
    """Measure the geodesic sphere of radius eps around a point.

    In dimension 2 this is the circumference of the geodesic circle, in
    dimension 3 the area of the geodesic sphere; `ratio` divides by
    2*pi*eps respectively 4*pi*eps^2.  The rays are shot at the RK4 step
    h (default eps / PROBE_STEPS) and once more at 2h; `params` holds the
    step count and the parts of `error`.  Raises GridTooCoarse when the
    self-estimated error exceeds `max_error`.
    """
    chart, center, h = _probe_setup(model, eps, center, h, chart_kind)
    if chart.dim == 2:
        grid, dirs = _circle_fan(grid)
        measure = partial(_circle_length, chart)
        flat = sphere_volume(1) * eps
    elif chart.dim == 3:
        nlat, nlon = grid if grid is not None else (48, 96)
        grid = (nlat, nlon)
        if nlon % 2:
            raise OutOfDomain("longitude count must be even for the "
                              "pole-reflection stencil")
        lat = (np.arange(nlat) + 0.5) * (math.pi / nlat)
        lon = 2.0 * math.pi * np.arange(nlon) / nlon
        st, ct = np.sin(lat), np.cos(lat)
        cp, sp = np.cos(lon), np.sin(lon)
        dirs = np.stack([st[:, None] * cp[None, :],
                         st[:, None] * sp[None, :],
                         np.broadcast_to(ct[:, None], (nlat, nlon))],
                        axis=-1).reshape(-1, 3)
        measure = partial(_sphere_area, chart, lat=lat, nlon=nlon)
        flat = sphere_volume(2) * eps ** 2
    else:
        raise OutOfDomain(
            f"{model.name}: sphere probes need dimension 2 or 3")

    (x, v), (x2, _), steps = _shoot_pair(chart, center, dirs, eps, h)
    drift = float(np.max(np.abs(g_norms(chart, x, v) - 1.0)))
    value, quadrature = measure(x)
    error, parts = _error_budget(model.name, eps, max_error, quadrature,
                                 abs(value - measure(x2)[0]),
                                 drift * abs(value))
    params = {"model": model.name, "chart": chart.name, "eps": eps,
              "grid": grid, "h": h, "steps": steps, "drift": drift,
              "error_parts": parts}
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
    recorded rays (steps+1, nrays, 2), and the quadrature error of both."""
    steps, nrays = traj_x.shape[0] - 1, traj_x.shape[1]

    # Interior: f(s) = integral of K * |d_theta exp(s v)| over theta,
    # integrated over shells s in [0, eps] with Simpson.
    stride = steps // 64 if steps % 64 == 0 else 1
    shells = list(range(stride, steps + 1, stride))
    pos = traj_x[shells]                      # (nsh, nrays, 2)
    jac = _fft_derivative(pos, axis=1)
    jnorm = g_norms(chart, pos.reshape(-1, 2),
                    jac.reshape(-1, 2)).reshape(len(shells), nrays)
    # A short outer step keeps the curvature truncation bias well under
    # the 1e-6 budget of the total; roundoff stays negligible here.
    gauss = 0.5 * curvature_many(chart, pos.reshape(-1, 2),
                                 h2=2.5e-4 * chart.scale).scalar \
        .reshape(len(shells), nrays)
    f_vals = np.concatenate([[0.0], (gauss * jnorm).mean(axis=1)
                             * 2.0 * math.pi])
    ds = eps / steps * stride
    interior = _simpson(f_vals, ds)
    interior_tz = float(np.trapezoid(f_vals, dx=ds))

    # Boundary: geodesic curvature of the boundary circle against the
    # inward normal (minus the outgoing ray velocity).
    curve = traj_x[-1]
    tang = _fft_derivative(curve, axis=0)
    accel = _fft_derivative(tang, axis=0)
    gam = christoffel_many(chart, curve)
    cov = accel + np.einsum("nkij,ni,nj->nk", gam, tang, tang)
    normal_in = -traj_v[-1] / g_norms(chart, curve, traj_v[-1])[:, None]
    g_bnd = chart.metric(curve)
    sigma = g_norms(chart, curve, tang)
    k_geod = np.einsum("nij,ni,nj->n", g_bnd, cov, normal_in) / sigma
    boundary = float(np.mean(k_geod)) * 2.0 * math.pi

    dtheta = 2.0 * math.pi / nrays
    tang_fd = (np.roll(curve, -1, axis=0) - np.roll(curve, 1, axis=0)) \
        / (2.0 * dtheta)
    accel_fd = (np.roll(curve, -1, axis=0) - 2.0 * curve
                + np.roll(curve, 1, axis=0)) / dtheta ** 2
    cov_fd = accel_fd + np.einsum("nkij,ni,nj->nk", gam, tang_fd, tang_fd)
    boundary_fd = float(np.mean(
        np.einsum("nij,ni,nj->n", g_bnd, cov_fd, normal_in)
        / g_norms(chart, curve, tang_fd))) * 2.0 * math.pi

    return interior, boundary, \
        abs(interior - interior_tz) + abs(boundary - boundary_fd)


def gauss_bonnet_disk(model: ModelGeometry, eps: float, center=None,
                      grid=None, h: float | None = None,
                      chart_kind: str = "generic",
                      max_error: float | None = None) -> GaussBonnetResult:
    """Interior curvature plus boundary turning of a geodesic disk.

    `interior` integrates the Gauss curvature over the disk in geodesic
    polar shells, `boundary` integrates the geodesic curvature of the
    boundary circle; their sum is 2*pi for any metric, and `cochain_value`
    is the resulting Euler evaluation reduced mod 2.  The rays are shot
    at the RK4 step h (default eps / PROBE_STEPS) and once more at 2h;
    `params` holds the step count and the parts of `error`.
    """
    chart, center, h = _probe_setup(model, eps, center, h, chart_kind)
    if chart.dim != 2:
        raise OutOfDomain(f"{model.name}: disk probe needs dimension 2")
    nrays, dirs = _circle_fan(grid)
    (traj_x, traj_v), companion, steps = _shoot_pair(chart, center, dirs,
                                                     eps, h, record=True)
    drift = float(np.max(np.abs(
        g_norms(chart, traj_x[-1], traj_v[-1]) - 1.0)))
    interior, boundary, quadrature = _disk_total(chart, traj_x, traj_v, eps)
    interior2, boundary2, _ = _disk_total(chart, *companion, eps)
    total = interior + boundary
    error, parts = _error_budget(
        model.name, eps, max_error, quadrature,
        abs(total - interior2 - boundary2),
        drift * (abs(interior) + abs(boundary)))
    params = {"model": model.name, "chart": chart.name, "eps": eps,
              "grid": nrays, "h": h, "steps": steps, "drift": drift,
              "error_parts": parts}
    return GaussBonnetResult(interior, boundary, total,
                             round(total / (2.0 * math.pi)) % 2,
                             error, params)


def w3_limit(model: ModelGeometry, eps_list, center=None, grid=None,
             chart_kind: str = "generic") -> ProbeResult:
    """Extrapolate the normalized sphere-area ratio to radius zero.

    The ratio area / (4*pi*eps^2) has an expansion in eps^2; Neville
    extrapolation over the given strictly decreasing radii removes the
    curvature deficit, and the limit is the top-degree cochain value (1
    for every smooth metric).  Raises NonConvergent when the successive
    ratio differences grow beyond the probes' own error floor.
    """
    chart = model.chart(chart_kind)
    if chart.dim != 3:
        raise OutOfDomain(f"{model.name}: the limit probe is 3-dimensional")
    radii = [float(e) for e in eps_list]
    if len(radii) < 3:
        raise NonConvergent("need at least 3 radii to extrapolate")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise NonConvergent("radii must strictly decrease")

    probes = [sphere_area_probe(model, e, center=center, grid=grid,
                                chart_kind=chart_kind) for e in radii]
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
    prev = tab[0]
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
