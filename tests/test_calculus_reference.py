"""The batched-matmul contractions and the closed-form metric inverse of
swlab.metric.calculus against the einsum and LAPACK formulas they replaced,
kept here as the oracle, and the whole-state RK4 loop against the loop it
replaced, which stepped x and v as separate arrays."""
from __future__ import annotations

import math

import numpy as np
import pytest

from swlab.errors import OutOfDomain, SingularMetric
from swlab.metric import (
    MODEL_NAMES,
    ConformalChart,
    MetricChart,
    christoffel_many,
    curvature_many,
    get_model,
    metric_jet,
)
from swlab.metric import calculus

REL = 1e-12


def ref_christoffel(chart, pts):
    g, dg = metric_jet(chart, pts)
    lower = 0.5 * (np.einsum("nijl->nlij", dg)
                   + np.einsum("njil->nlij", dg)
                   - dg)
    return np.einsum("nkl,nlij->nkij", np.linalg.inv(g), lower)


def ref_acceleration(chart, x, v):
    g, dg = metric_jet(chart, x)
    vv = v[:, :, None] * v[:, None, :]
    p = np.einsum("nijl,nij->nl", dg, vv)
    q = np.einsum("nlij,nij->nl", dg, vv)
    return -np.linalg.solve(g, (p - 0.5 * q)[..., None])[..., 0]


def ref_curvature(chart, pts, h2):
    """riem_up, riemann, ricci and scalar, and the size of the largest
    term they are summed from."""
    gam = ref_christoffel(chart, pts)
    dgam = np.stack([(ref_christoffel(chart, pts + h2 * e)
                      - ref_christoffel(chart, pts - h2 * e)) / (2.0 * h2)
                     for e in np.eye(pts.shape[1])], axis=1)
    riem_up = (np.einsum("nambc->nmcab", dgam)
               - np.einsum("nbmac->nmcab", dgam)
               + np.einsum("nlbc,nmal->nmcab", gam, gam)
               - np.einsum("nlac,nmbl->nmcab", gam, gam))
    g = chart.metric(pts)
    riemann = np.einsum("ndm,nmcab->ndcab", g, riem_up)
    ricci = np.einsum("nmcmb->nbc", riem_up)
    ginv = np.linalg.inv(g)
    scalar = np.einsum("nxy,nxy->n", ginv, ricci)
    terms = (max(np.max(np.abs(dgam)), len(g[0]) * np.max(np.abs(gam)) ** 2)
             * max(1.0, np.max(np.abs(g)), np.max(np.abs(ginv))))
    return (riem_up, riemann, ricci, scalar), terms


def _line_chart():
    return MetricChart("line", 1, lambda pts: np.exp(pts)[:, :, None] + 1.0)


def _cases():
    rng = np.random.default_rng(40)
    cases = [("line", _line_chart(), rng.uniform(-1.0, 1.0, size=(12, 1)))]
    for name in MODEL_NAMES:
        model = get_model(name)
        d = model.chart().dim
        cases.append((name + "/generic", model.chart("generic"),
                      rng.uniform(-0.5, 0.5, size=(12, d))))
        polar = rng.uniform(0.4, 1.2, size=(12, d))
        if d == 3:
            polar[:, 1] = rng.uniform(0.4, math.pi - 0.4, size=12)
        cases.append((name + "/polar", model.chart("polar"), polar))
    return cases


CASES = _cases()


def _close(got, want, terms=0.0):
    """Within REL of the largest entry of want; a tensor that cancels to
    rounding noise (any curvature on a flat chart) is held to REL of the
    terms it is summed from instead."""
    return (np.max(np.abs(got - want))
            <= REL * max(np.max(np.abs(want)), terms))


@pytest.mark.parametrize("label,chart,pts", CASES,
                         ids=[c[0] for c in CASES])
def test_christoffel_and_acceleration_match_einsum(label, chart, pts):
    assert _close(christoffel_many(chart, pts), ref_christoffel(chart, pts))
    v = np.random.default_rng(41).normal(size=pts.shape)
    # the jet contraction on a copy without the conformal factor, so that
    # both sides contract the same stencil jet; the closed-form spray has
    # its own test against the closed-form jet
    plain = MetricChart(chart.name, chart.dim, chart.metric, chart.contains)
    acc = calculus._spray(plain, pts.T, v.T).T
    assert _close(acc, ref_acceleration(chart, pts, v))


@pytest.mark.parametrize("label,chart,pts", CASES,
                         ids=[c[0] for c in CASES])
def test_curvature_matches_einsum(label, chart, pts):
    data = curvature_many(chart, pts)
    wants, terms = ref_curvature(chart, pts, calculus.H2)
    for got, want in zip((data.riem_up, data.riemann, data.ricci,
                          data.scalar), wants):
        assert _close(got, want, terms)


def ref_spray(chart, x, v):
    """The spray at the columns of x and v (d, N) as a stage computed it
    before the lean stage: on a conformal chart phi, phi' and phi'' at
    every stage and an elementwise 0 < phi < inf mask, otherwise the jet
    contraction."""
    if isinstance(chart, ConformalChart):
        ones = np.ones(len(x))
        rho2 = ones @ (x * x)
        if chart._domain_fn is not None:
            inside = chart._domain_fn(rho2)
            if not inside.all():
                raise OutOfDomain("outside", point=x.T[~inside][0])
        phi, slope = chart._factor_fn(rho2)
        chart._curve_fn(rho2, slope)
        ok = (phi > 0.0) & (phi < math.inf)
        if not ok.all():
            raise SingularMetric("not positive definite")
        grad = (slope / phi) * x
        return (ones @ (v * v)) * grad - (2.0 * (ones @ (grad * v))) * v
    x, v = x.T, v.T
    g, dg = metric_jet(chart, x)
    n, d = v.shape
    vv = (v[:, :, None] * v[:, None, :]).reshape(n, 1, d * d)
    p = (vv @ dg.reshape(n, d * d, d))[:, 0]
    q = (dg.reshape(n, d, d * d) @ vv.transpose(0, 2, 1))[..., 0]
    return -(calculus._inverse(g) @ (p - 0.5 * q)[..., None])[..., 0].T


def ref_shoot_together(chart, x0, v0, length, counts, record):
    """The paired RK4 loop on separate x and v arrays (d, N), with
    per-ray step factors broadcast along the rows."""
    n, groups = len(x0), len(counts)
    x, v = np.tile(x0.T.copy(), groups), np.tile(v0.T.copy(), groups)
    dt = np.repeat([length / steps for steps in counts], n)
    xs, vs = [x], [v]
    ends = [None] * groups
    done = 0
    for group in reversed(range(groups)):
        cols = slice(group * n, (group + 1) * n)
        x, v, dt = x[:, :cols.stop], v[:, :cols.stop], dt[:cols.stop]
        half, sixth = 0.5 * dt, dt / 6.0
        for _ in range(done, counts[group]):
            k1 = ref_spray(chart, x, v)
            x2, v2 = x + half * v, v + half * k1
            k2 = ref_spray(chart, x2, v2)
            x3, v3 = x + half * v2, v + half * k2
            k3 = ref_spray(chart, x3, v3)
            x4, v4 = x + dt * v3, v + dt * k3
            k4 = ref_spray(chart, x4, v4)
            x = x + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
            v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if record:
                xs.append(x)
                vs.append(v)
        done = counts[group]
        if record:
            ends[group] = tuple(
                np.stack([s[:, cols] for s in states[:done + 1]])
                .transpose(0, 2, 1).copy() for states in (xs, vs))
        else:
            ends[group] = x[:, cols].T.copy(), v[:, cols].T.copy()
    return ends


@pytest.mark.parametrize("record", (False, True))
@pytest.mark.parametrize("counts", ((8, 4), (4,), (6, 3)))
@pytest.mark.parametrize("label,chart,pts", CASES[1:],
                         ids=[c[0] for c in CASES[1:]])
def test_shoot_matches_the_separate_state_loop(label, chart, pts, counts,
                                               record):
    # the whole-state loop takes every element through the same
    # operations in the same order, so it must agree bit for bit
    v = 0.5 * np.random.default_rng(42).normal(size=pts.shape)
    got = calculus._shoot_together(chart, pts, v, 0.2, counts, record)
    want = ref_shoot_together(chart, pts, v, 0.2, counts, record)
    assert len(got) == len(want) == len(counts)
    for pair, ref in zip(got, want):
        for a, b in zip(pair, ref):
            assert a.shape == b.shape
            assert a.flags.c_contiguous
            assert np.array_equal(a, b)
