"""Finite-difference Riemannian calculus on a chart.

Derivatives of the metric use central differences with step H1; the outer
derivatives of the Christoffel symbols in the curvature use H2 scaled by
the chart's characteristic length.  Geodesics integrate with fixed-step
RK4.  Everything is batched over points so the probes can drive tens of
thousands of rays through numpy at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from ..errors import LeftDomain, OutOfDomain, SingularMetric
from .charts import MetricChart

H1 = 1e-5
H2 = 1e-3


def _central_differences(fn, points, h: float):
    """fn at the points (N, d) and its central differences along every
    coordinate: diff[:, a] = (fn(x + h e_a) - fn(x - h e_a)) / 2h.  One
    batched call of fn evaluates the whole stencil."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    stencil = [pts]
    for step in h * np.eye(d):
        stencil += [pts + step, pts - step]
    values = fn(np.concatenate(stencil, axis=0))
    shifted = values[n:].reshape((d, 2, n) + values.shape[1:])
    diff = np.stack([(plus - minus) / (2.0 * h) for plus, minus in shifted],
                    axis=1)
    return values[:n], diff


def metric_jet(chart: MetricChart, points: np.ndarray):
    """Metric and its first derivatives: g (N,d,d) and dg (N,d,d,d) with
    dg[:, a, i, j] = d g_ij / d x_a."""
    return _central_differences(chart.metric, points, H1)


def christoffel_many(chart: MetricChart, points: np.ndarray) -> np.ndarray:
    """Gamma[:, k, i, j] = Gamma^k_ij at each point."""
    g, dg = metric_jet(chart, points)
    # dg[:, a, i, j] = d_a g_ij; lower symbol: (d_i g_jl + d_j g_il - d_l g_ij)/2
    lower = 0.5 * (np.einsum("nijl->nlij", dg)
                   + np.einsum("njil->nlij", dg)
                   - dg)
    return np.einsum("nkl,nlij->nkij", np.linalg.inv(g), lower)


def christoffel(chart: MetricChart, p) -> np.ndarray:
    """Christoffel symbols at a single point, shape (d, d, d)."""
    return christoffel_many(chart, [p])[0]


@dataclass(frozen=True)
class CurvatureData:
    """Curvature tensors at one or more points.

    `riem_up[:, m, c, a, b]` holds the components of R(e_a, e_b) e_c along
    e_m; `riemann` is the fully lowered (0,4) tensor with the same index
    order; `ricci[:, x, y] = sum_m riem_up[:, m, y, m, x]`; `scalar` is the
    g-trace of ricci."""

    riem_up: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray


def curvature_many(chart: MetricChart, points: np.ndarray,
                   h2: float | None = None) -> CurvatureData:
    """Curvature from central differences of the Christoffel symbols with
    the outer step h2 (default H2 times the chart's scale)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if h2 is None:
        h2 = H2 * chart.scale
    gam, dgam = _central_differences(partial(christoffel_many, chart), pts,
                                     h2)
    # R^m_{c a b} = d_a Gamma^m_bc - d_b Gamma^m_ac
    #              + Gamma^l_bc Gamma^m_al - Gamma^l_ac Gamma^m_bl
    riem_up = (np.einsum("nambc->nmcab", dgam)
               - np.einsum("nbmac->nmcab", dgam)
               + np.einsum("nlbc,nmal->nmcab", gam, gam)
               - np.einsum("nlac,nmbl->nmcab", gam, gam))
    g = chart.metric(pts)
    riemann = np.einsum("ndm,nmcab->ndcab", g, riem_up)
    ricci = np.einsum("nmcmb->nbc", riem_up)
    scalar = np.einsum("nxy,nxy->n", np.linalg.inv(g), ricci)
    return CurvatureData(riem_up, riemann, ricci, scalar)


def curvature_at(chart: MetricChart, p) -> CurvatureData:
    """Curvature at a single point (leading batch axis dropped)."""
    data = curvature_many(chart, [p])
    return CurvatureData(data.riem_up[0], data.riemann[0], data.ricci[0],
                         float(data.scalar[0]))


# ------------------------------------------------------------------ geodesics

def g_norms(chart: MetricChart, points, vectors) -> np.ndarray:
    g = chart.metric(points)
    return np.sqrt(np.einsum("nij,ni,nj->n", g,
                             np.atleast_2d(vectors), np.atleast_2d(vectors)))


def _geodesic_rhs(chart, x, v):
    """x' = v, v' = -Gamma(v, v) without forming the symbols: with
    P_l = v^i v^j d_i g_jl and Q_l = v^i v^j d_l g_ij the geodesic equation
    reads g v' = -(P - Q/2)."""
    g, dg = metric_jet(chart, x)
    vv = v[:, :, None] * v[:, None, :]
    p = np.einsum("nijl,nij->nl", dg, vv)
    q = np.einsum("nlij,nij->nl", dg, vv)
    acc = -np.linalg.solve(g, (p - 0.5 * q)[..., None])[..., 0]
    return v, acc


def geodesic_shoot_many(chart: MetricChart, x0, v0, length: float,
                        h: float, record: bool = False):
    """Integrate x'' = -Gamma(x', x') with fixed-step RK4, batched over rays.

    Returns (x, v) arrays, or with record=True the full trajectory arrays
    of shape (steps+1, N, d)."""
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    v = np.atleast_2d(np.asarray(v0, dtype=float)).copy()
    steps = max(1, int(round(length / h)))
    dt = length / steps
    xs = [x.copy()] if record else None
    vs = [v.copy()] if record else None
    try:
        for _ in range(steps):
            k1x, k1v = _geodesic_rhs(chart, x, v)
            k2x, k2v = _geodesic_rhs(chart, x + 0.5 * dt * k1x,
                                     v + 0.5 * dt * k1v)
            k3x, k3v = _geodesic_rhs(chart, x + 0.5 * dt * k2x,
                                     v + 0.5 * dt * k2v)
            k4x, k4v = _geodesic_rhs(chart, x + dt * k3x, v + dt * k3v)
            x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if record:
                xs.append(x.copy())
                vs.append(v.copy())
    except OutOfDomain as exc:
        raise LeftDomain(f"geodesic left the domain of {chart.name}",
                         exit_point=exc.point) from exc
    if record:
        return np.stack(xs), np.stack(vs)
    return x, v


# ---------------------------------------------------------------- w1 frames

def frame_gram_det(chart: MetricChart, p) -> float:
    """Gram-Schmidt the coordinate frame against g at p and return the
    determinant of the resulting Gram matrix (1 for an exact orthonormal
    frame)."""
    g = chart.metric([p])[0]
    d = chart.dim
    frame = np.eye(d)
    for k in range(d):
        v = frame[:, k].copy()
        for j in range(k):
            v -= (v @ g @ frame[:, j]) * frame[:, j]
        norm2 = v @ g @ v
        if not np.isfinite(norm2) or norm2 <= 0:
            raise SingularMetric(f"{chart.name}: frame collapsed at {p}")
        frame[:, k] = v / np.sqrt(norm2)
    return float(np.linalg.det(frame.T @ g @ frame))


def frame_det_w1(chart: MetricChart, p) -> int:
    """The determinant cochain value: det of the orthonormalized Gram
    matrix, asserted to be 1 within 1e-10, reduced mod 2."""
    det = frame_gram_det(chart, p)
    if abs(det - 1.0) > 1e-10:
        raise SingularMetric(
            f"{chart.name}: Gram determinant {det} drifted from 1 at {p}")
    return round(det) % 2


# ------------------------------------------------------------ Gauss equation

def restricted_chart(chart3: MetricChart) -> MetricChart:
    """The induced chart on the plane x3 = 0 of a 3-dimensional chart.

    Valid when the plane is totally geodesic and g(e_i, e_3) = 0 on it,
    which holds for all built-in generic charts by reflection symmetry."""
    def metric_fn(pts2):
        pts3 = np.concatenate([pts2, np.zeros((len(pts2), 1))], axis=1)
        return chart3.metric(pts3)[:, :2, :2]

    def domain_fn(pts2):
        pts3 = np.concatenate([pts2, np.zeros((len(pts2), 1))], axis=1)
        return chart3.contains(pts3)

    return MetricChart(chart3.name + "|x3=0", 2, metric_fn, domain_fn,
                       scale=chart3.scale)


def gauss_equation_check(model, p) -> float:
    """Residual of the Gauss equation relating intrinsic and extrinsic
    Ricci tensors on the totally geodesic plane x3 = 0:

        r_sub(X, Y) = r_amb(X, Y) - g(R(v, X) Y, v)

    for the unit normal v, maximized over the coordinate pairs X, Y."""
    chart3 = model.chart("generic")
    if chart3.dim != 3:
        raise OutOfDomain(f"{model.name}: Gauss equation check needs a "
                          "3-dimensional model")
    sub = restricted_chart(chart3)
    p2 = np.asarray(p, dtype=float).reshape(2)
    p3 = np.array([p2[0], p2[1], 0.0])

    g3 = chart3.metric([p3])[0]
    if abs(g3[0, 2]) > 1e-12 or abs(g3[1, 2]) > 1e-12:
        raise OutOfDomain(f"{model.name}: normal direction not orthogonal "
                          f"at {p3}; plane is not a metric slice")
    normal = np.array([0.0, 0.0, 1.0]) / np.sqrt(g3[2, 2])

    amb = curvature_at(chart3, p3)
    intr = curvature_at(sub, p2)

    residual = 0.0
    for xv, yv in product(np.eye(2), repeat=2):
        x3 = np.array([xv[0], xv[1], 0.0])
        y3 = np.array([yv[0], yv[1], 0.0])
        lhs = xv @ intr.ricci @ yv
        # ricci[b, c] pairs X with the b slot and Y with the c slot
        amb_term = x3 @ amb.ricci @ y3
        # g(R(v, X) Y, v) = R_low[d, c, a, b] v^d Y^c v^a X^b
        extr = np.einsum("dcab,d,c,a,b->", amb.riemann, normal, y3,
                         normal, x3)
        residual = max(residual, abs(lhs - (amb_term - extr)))
    return residual
