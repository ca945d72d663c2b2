"""The batched-matmul contractions and the closed-form metric inverse of
swlab.metric.calculus against the einsum and LAPACK formulas they replaced,
kept here as the oracle."""
from __future__ import annotations

import math

import numpy as np
import pytest

from swlab.metric import (
    MODEL_NAMES,
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
