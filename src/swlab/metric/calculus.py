"""Riemannian calculus on a chart.

On a conformal chart g = phi(|x|^2) I (the generic chart of every built-in
model) the geodesic spray is closed form in phi and phi', O(N d) per RK4
stage with no jet, and the stage evaluates no phi''; the chart's
`factor_and_scalar` is closed form too, and `g_norms` and `g_inner` take
phi in place of the metric phi I with the same bits.  On every other
chart (the polar charts, `restricted_chart`, user charts) the spray
contracts the metric's first derivatives, which are central differences
with step H1: one stencil differentiates the metric wherever a closed
form is not used.  The chart checks the domain and positive
definiteness of every g the calculus sees.  `curvature_many` takes the
outer derivatives of the Christoffel symbols by central differences on
every chart, with the step H2 in chart coordinates.
Geodesics integrate with fixed-step RK4 in one loop, `_shoot_together`:
the rays are held coordinate-major, x and v as (d, N) arrays with one
column per ray, so per-ray scalars broadcast along the contiguous axis,
and groups of rays step together, each at its own step count.  Each RK4
stage is one (3, d, N) block of x, v and the spray, which `_spray` writes
in place, so a state update is one multiply and one add on the block.
`geodesic_shoot_many` is one group; a probe's fine rays and their
step-doubling companions are two, shot in as many steps as the fine
rays alone.  Everything is batched over points so the probes can drive
tens of thousands of rays through numpy at once: tensor contractions are
batched matmuls on reshaped or transposed views, and the metric inverse
is the closed-form adjugate over the determinant (charts have dimension
1..3), so the per-step path calls no einsum and no LAPACK routine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ..errors import LeftDomain, OutOfDomain, SingularMetric
from .charts import ConformalChart, MetricChart, _colsum

H1 = 1e-5
H2 = 1e-3
# The most ray-steps (rays times RK4 steps) that one shoot may take; a
# request above it is refused before any array of its size is allocated.
# Time grows with the product, and so does the memory of a recorded
# shoot: a disk probe at the budget, 131072 rays of 16 steps, peaks at
# about 355 MiB of arrays (178 bytes per ray-step).  The largest default
# probe, a 48 x 96 sphere of 32 steps, takes 147456 ray-steps.
RK4_BUDGET = 2 ** 21


def _stencil(pts: np.ndarray, h: float) -> np.ndarray:
    """The points (N, d) followed by x + h e_a and x - h e_a for every
    coordinate a, so that one batched call evaluates a function on all."""
    d = pts.shape[1]
    stencil = np.tile(pts, (2 * d + 1, 1, 1))
    for a in range(d):
        stencil[2 * a + 1, :, a] += h
        stencil[2 * a + 2, :, a] -= h
    return stencil.reshape(-1, d)


def _central_differences(values: np.ndarray, n: int, h: float):
    """Split values on the _stencil of n points into the values at the
    points and diff[:, a] = (f(x + h e_a) - f(x - h e_a)) / 2h.  The last
    axis has length d, which sets the shape also at n = 0."""
    shifted = values[n:].reshape((values.shape[-1], 2, n) + values.shape[1:])
    diff = (shifted[:, 0] - shifted[:, 1]) / (2.0 * h)
    return values[:n], np.moveaxis(diff, 0, 1)


def _inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of symmetric (N, d, d) matrices, d <= 3: the adjugate over
    the determinant, read from the upper triangle.  The chart's metric has
    checked every g finite with a positive determinant: MetricChart.metric
    expands the same determinant as its last leading minor, and a
    ConformalChart requires phi^d > 0."""
    d = g.shape[-1]
    if d == 1:
        return 1.0 / g
    if d == 2:
        a, b, c = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
        det = a * c - b * b
        adj = np.stack([c, -b, -b, a], axis=-1)
    else:
        a, b, c = g[:, 0, 0], g[:, 0, 1], g[:, 0, 2]
        e, f, i = g[:, 1, 1], g[:, 1, 2], g[:, 2, 2]
        c00, c01, c02 = e * i - f * f, c * f - b * i, b * f - e * c
        c11, c12, c22 = a * i - c * c, b * c - a * f, a * e - b * b
        det = a * c00 + b * c01 + c * c02
        adj = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=-1)
    return (adj / det[:, None]).reshape(g.shape)


def metric_jet(chart: MetricChart, points: np.ndarray):
    """Metric and its first derivatives: g (N,d,d) and dg (N,d,d,d) with
    dg[:, a, i, j] = d g_ij / d x_a, by central differences of the metric
    with step H1.  Raises OutOfDomain for points of another width than
    the chart's."""
    pts = chart._points(points)
    return _central_differences(chart.metric(_stencil(pts, H1)), len(pts), H1)


def _christoffel(chart: MetricChart, points: np.ndarray):
    """Gamma[:, k, i, j] = Gamma^k_ij with the metric and its inverse at
    the points."""
    g, dg = metric_jet(chart, points)
    n, d = g.shape[:2]
    ginv = _inverse(g)
    # dg[:, a, i, j] = d_a g_ij; lower[:, l, i, j] = (d_i g_jl + d_j g_il - d_l g_ij)/2
    lower = 0.5 * (dg.transpose(0, 3, 1, 2) + dg.transpose(0, 3, 2, 1) - dg)
    gam = (ginv @ lower.reshape(n, d, d * d)).reshape(n, d, d, d)
    return gam, g, ginv


def christoffel_many(chart: MetricChart, points: np.ndarray) -> np.ndarray:
    """Gamma[:, k, i, j] = Gamma^k_ij at each point."""
    return _christoffel(chart, points)[0]


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
                   h2: float = H2) -> CurvatureData:
    """Curvature from central differences of the Christoffel symbols with
    the outer step h2.  Raises OutOfDomain for an h2 that is not positive
    and finite, or points of another width than the chart's."""
    if not (math.isfinite(h2) and h2 > 0):
        raise OutOfDomain(
            f"curvature step h2 must be positive and finite, got {h2}")
    pts = chart._points(points)
    n, d = pts.shape
    # The first block of the stencil is the points themselves, so g and
    # its inverse there come with the symbols.
    symbols, g, ginv = _christoffel(chart, _stencil(pts, h2))
    gam, dgam = _central_differences(symbols, n, h2)
    g, ginv = g[:n], ginv[:n]
    # R^m_{c a b} = d_a Gamma^m_bc - d_b Gamma^m_ac
    #              + Gamma^l_bc Gamma^m_al - Gamma^l_ac Gamma^m_bl
    # with dgam[:, a, m, b, c] = d_a Gamma^m_bc and
    # gg[:, m, a, b, c] = Gamma^m_al Gamma^l_bc
    gg = (gam.reshape(n, d * d, d)
          @ gam.reshape(n, d, d * d)).reshape((n,) + (d,) * 4)
    riem_up = (dgam.transpose(0, 2, 4, 1, 3) - dgam.transpose(0, 2, 4, 3, 1)
               + gg.transpose(0, 1, 4, 2, 3) - gg.transpose(0, 1, 4, 3, 2))
    riemann = (g @ riem_up.reshape(n, d, d ** 3)).reshape(riem_up.shape)
    ricci = np.trace(riem_up, axis1=1, axis2=3).transpose(0, 2, 1)
    scalar = (ginv * ricci).sum(axis=(1, 2))
    return CurvatureData(riem_up, riemann, ricci, scalar)


# ------------------------------------------------------------------ geodesics

def g_norms(g: np.ndarray, vectors) -> np.ndarray:
    """The g-length of each vector (..., d) under the metric g (..., d, d)
    at its point, or one g (1, d, d) shared by all.  On a conformal chart g
    may be the factor phi (...) or (1,) of g = phi I instead, told apart by
    its rank: the norm^2 is then sum_i phi (w_i w_i), summed left to right,
    which is the bits of the sum over g * (w w^T) with phi I."""
    w = np.atleast_2d(vectors)
    if g.ndim < w.ndim:
        norm2 = g * (w[..., 0] * w[..., 0])
        for i in range(1, w.shape[-1]):
            norm2 += g * (w[..., i] * w[..., i])
        return np.sqrt(norm2)
    return np.sqrt((g * (w[..., :, None] * w[..., None, :]))
                   .sum(axis=(-2, -1)))


def g_inner(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """g(a, b) of the vectors a and b (..., d) under the metric g
    (..., d, d) at their points, or under g = phi I given the factor phi
    (...), told apart by its rank.  On phi the sum is 0 + sum_i (phi a_i)
    b_i, left to right from the zero that einsum accumulates onto, which
    is the bits of the einsum with phi I."""
    if g.ndim < a.ndim:
        inner = 0.0
        for i in range(a.shape[-1]):
            inner = inner + (g * a[..., i]) * b[..., i]
        return inner
    return np.einsum("...ij,...i,...j->...", g, a, b)


def _spray(chart, x, v, out=None):
    """The acceleration v' = -Gamma(v, v) of the rays whose positions and
    velocities are the columns of x and v (d, N), without forming the
    symbols, written into `out` (d, N) when given.  On a conformal chart
    g = e^(2u) I, Gamma^k_ij = d_ik u_j + d_jk u_i - d_ij u_k, so
    v' = |v|^2 grad u - 2 <grad u, v> v with grad u = (phi'/phi) x, and
    the per-ray scalars broadcast along the rows.  Otherwise, with
    P_l = v^i v^j d_i g_jl and Q_l = v^i v^j d_l g_ij, the geodesic
    equation reads g v' = -(P - Q/2), solved on the transposed (N, d)
    views."""
    if isinstance(chart, ConformalChart):
        _, phi, slope = chart.factor_at(x)
        grad = (slope / phi) * x
        return np.subtract(_colsum(v * v) * grad,
                           (2.0 * _colsum(grad * v)) * v, out=out)
    x, v = x.T, v.T
    g, dg = metric_jet(chart, x)
    n, d = v.shape
    vv = (v[:, :, None] * v[:, None, :]).reshape(n, 1, d * d)
    p = (vv @ dg.reshape(n, d * d, d))[:, 0]
    q = (dg.reshape(n, d, d * d) @ vv.transpose(0, 2, 1))[..., 0]
    return np.negative((_inverse(g) @ (p - 0.5 * q)[..., None])[..., 0].T,
                       out=out)


def rk4_step_count(length: float, h: float) -> int:
    """The number of RK4 steps of about h that cover length, at least one.
    Raises OutOfDomain for a step that is not positive and finite, a
    length that is negative or not finite, or a step too short to count."""
    if not (math.isfinite(h) and h > 0):
        raise OutOfDomain(f"RK4 step must be positive and finite, got {h}")
    if not (math.isfinite(length) and length >= 0):
        raise OutOfDomain(
            f"geodesic length must be non-negative and finite, got {length}")
    if not math.isfinite(length / h):
        raise OutOfDomain(f"RK4 step {h} is too short for length {length}")
    return max(1, int(round(length / h)))


def check_rk4_budget(rays: int, steps: int) -> None:
    """Raise OutOfDomain when `rays` rays of `steps` RK4 steps each
    exceed RK4_BUDGET."""
    if rays * steps > RK4_BUDGET:
        raise OutOfDomain(f"{rays} rays of {steps} RK4 steps exceed the "
                          f"budget of {RK4_BUDGET} ray-steps")


def geodesic_shoot_many(chart: MetricChart, x0, v0, length: float,
                        h: float, record: bool = False):
    """Integrate x'' = -Gamma(x', x') with fixed-step RK4, batched over rays.

    Returns (x, v) arrays, or with record=True the full trajectory arrays
    of shape (steps+1, N, d).  Raises OutOfDomain as rk4_step_count and
    check_rk4_budget do, and for x0 of another width than the chart's or
    v0 of another shape than x0."""
    steps = rk4_step_count(length, h)
    return _shoot_together(chart, x0, v0, length, (steps,), record)[0]


def _shoot_together(chart: MetricChart, x0, v0, length: float, counts,
                   record: bool = False):
    """Shoot the rays (x0, v0) to `length` once for each RK4 step count
    in `counts` (non-increasing), in one loop.

    The state holds a copy of every ray per count, coordinate-major: x
    and v are (d, rays * len(counts)) with one column per ray, and each
    copy steps at its own length / count.  Once the shortest-stepped
    copies reach `length` they are sliced off and the others step on
    alone, so counts (2k, k) cost 2k steps of RK4, not 3k.  Each RK4
    stage is one (3, d, columns) block of x, v and the spray, so that
    block[:2] is a state and block[1:] its derivative: a state update is
    one multiply and one add on the whole block, by step factors held at
    its full shape.  Every element still takes the operations of a shoot
    with its count alone, in the same order, so the results are those
    bits.  Returns one (x, v) pair per count as `geodesic_shoot_many`
    does.  Raises OutOfDomain for x0 of another width than the chart's,
    v0 of another shape than x0 or rays and counts over RK4_BUDGET, and
    LeftDomain when a stage leaves the chart's domain."""
    x0 = chart._points(x0)
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    if v0.shape != x0.shape:
        raise OutOfDomain(f"{chart.name}: velocities of shape {v0.shape} "
                          f"for points of shape {x0.shape}")
    (n, d), groups = x0.shape, len(counts)
    check_rk4_budget(n, counts[0])
    state = np.stack([np.tile(x0.T, groups), np.tile(v0.T, groups)])
    dt = np.repeat([length / steps for steps in counts], n)
    states = [state]
    ends = [None] * groups
    done = 0
    try:
        for group in reversed(range(groups)):
            cols = slice(group * n, (group + 1) * n)
            width = cols.stop
            # C-contiguous blocks of the current width: the spray's last
            # bits depend on the layout
            b1, b2, b3, b4 = np.empty((4, 3, d, width))
            b1[:2] = state[..., :width]
            step = np.broadcast_to(dt[:width], (2, d, width))
            full, half, sixth = step.copy(), 0.5 * step, step / 6.0
            for _ in range(done, counts[group]):
                _spray(chart, b1[0], b1[1], out=b1[2])
                np.multiply(half, b1[1:], out=b2[:2])
                b2[:2] += b1[:2]
                _spray(chart, b2[0], b2[1], out=b2[2])
                np.multiply(half, b2[1:], out=b3[:2])
                b3[:2] += b1[:2]
                _spray(chart, b3[0], b3[1], out=b3[2])
                np.multiply(full, b3[1:], out=b4[:2])
                b4[:2] += b1[:2]
                _spray(chart, b4[0], b4[1], out=b4[2])
                # x += sixth (v + 2 v2 + 2 v3 + v4), v likewise with the
                # sprays, summed in that order in the spent stage blocks
                b2[1:] *= 2.0
                b2[1:] += b1[1:]
                b3[1:] *= 2.0
                b2[1:] += b3[1:]
                b2[1:] += b4[1:]
                b2[1:] *= sixth
                b1[:2] += b2[1:]
                if record:
                    states.append(b1[:2].copy())
            done = counts[group]
            state = b1[:2]
            if record:
                ends[group] = tuple(
                    np.stack([s[k, :, cols] for s in states[:done + 1]])
                    .transpose(0, 2, 1).copy() for k in (0, 1))
            else:
                ends[group] = state[0, :, cols].T.copy(), \
                    state[1, :, cols].T.copy()
    except OutOfDomain as exc:
        raise LeftDomain(f"geodesic left the domain of {chart.name}",
                         exit_point=exc.point) from exc
    return ends


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
    which holds for all built-in generic charts by reflection symmetry.
    Raises OutOfDomain for a chart that is not 3-dimensional."""
    if chart3.dim != 3:
        raise OutOfDomain(f"{chart3.name}: the plane x3 = 0 needs a "
                          f"3-dimensional chart, not dimension {chart3.dim}")

    def lift(pts2):
        return np.concatenate([pts2, np.zeros((len(pts2), 1))], axis=1)

    return MetricChart(chart3.name + "|x3=0", 2,
                       lambda pts2: chart3.metric(lift(pts2))[:, :2, :2],
                       lambda pts2: chart3.contains(lift(pts2)))


def gauss_equation_check(model, p) -> float:
    """Residual of the Gauss equation relating intrinsic and extrinsic
    Ricci tensors on the totally geodesic plane x3 = 0:

        r_sub(X, Y) = r_amb(X, Y) - g(R(v, X) Y, v)

    for the unit normal v, maximized over the coordinate pairs X, Y."""
    chart3 = model.chart("generic")
    sub = restricted_chart(chart3)
    p2 = np.asarray(p, dtype=float).reshape(2)
    p3 = np.array([p2[0], p2[1], 0.0])

    g3 = chart3.metric([p3])[0]
    if abs(g3[0, 2]) > 1e-12 or abs(g3[1, 2]) > 1e-12:
        raise OutOfDomain(f"{model.name}: normal direction not orthogonal "
                          f"at {p3}; plane is not a metric slice")
    normal = np.array([0.0, 0.0, 1.0]) / np.sqrt(g3[2, 2])

    amb = curvature_many(chart3, [p3])
    intr = curvature_many(sub, [p2])

    residual = 0.0
    for xv, yv in product(np.eye(2), repeat=2):
        x3 = np.array([xv[0], xv[1], 0.0])
        y3 = np.array([yv[0], yv[1], 0.0])
        lhs = xv @ intr.ricci[0] @ yv
        # ricci[b, c] pairs X with the b slot and Y with the c slot
        amb_term = x3 @ amb.ricci[0] @ y3
        # g(R(v, X) Y, v) = R_low[d, c, a, b] v^d Y^c v^a X^b
        extr = np.einsum("dcab,d,c,a,b->", amb.riemann[0], normal, y3,
                         normal, x3)
        residual = max(residual, abs(lhs - (amb_term - extr)))
    return residual
