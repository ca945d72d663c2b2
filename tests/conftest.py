from __future__ import annotations

import numpy as np
import pytest

from swlab.corpus import corpus, CORPUS_NAMES
from swlab.metric import MetricChart, get_model
from swlab.pipeline import compute_report
from swlab.simplicial import build_complex
from swlab.subdivision import barycentric_subdivide


def relabeled(X, labels):
    """X with its vertices, in increasing order, renamed to `labels`, and
    per degree d the index in the renamed complex of each d-simplex of X:
    `gf2.gather(c.bits, index[d], ...)` pulls a d-cochain c of the renamed
    complex back to X."""
    to = dict(zip(X.vertices(), labels))
    Y = build_complex([tuple(sorted(to[v] for v in f)) for f in X.facets])
    index = [[Y.index(tuple(to[v] for v in s)) for s in X.skeleton(d)]
             for d in range(X.dim + 1)]
    return Y, index


@pytest.fixture(scope="session")
def entries():
    """All corpus entries, validated at load."""
    return {name: corpus(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def reports(entries):
    """Full pipeline reports, computed once for the whole session."""
    return {name: compute_report(entry.complex())
            for name, entry in entries.items()}


@pytest.fixture(scope="session")
def pinched_sphere():
    """sd(s2) with the barycentres of (0,) and (1, 2, 3) identified: a closed
    pseudomanifold with f = (13, 36, 24) and Betti numbers (1, 1, 1), whose
    cup pairing H^1 x H^1 -> H^2 is zero."""
    S = barycentric_subdivide(corpus("s2").complex())
    keep, drop = S.vertex_id[(0,)], S.vertex_id[(1, 2, 3)]
    return build_complex([tuple(sorted(keep if v == drop else v for v in f))
                          for f in S.derived.facets])


@pytest.fixture(scope="session")
def cartesian_warped_chart():
    """warped-3, dr^2 + f(r)^2 dOmega^2 with f(r) = r + c r^3, written in
    cartesian coordinates x = r * direction:

        g = (1 + c rho^2)^2 I - (2c + c^2 rho^2) x x^T.

    The radial eigenvalue is 1 and the tangential one (1 + c rho^2)^2.  The
    metric is not conformal, so on this chart the calculus runs the
    general jet contraction on its central-difference jet; the model's own
    generic chart is conformal, with |x| = r / sqrt(1 + c r^2)."""
    c = get_model("warped-3").analytic["warp_coefficient"]
    eye = np.eye(3)

    def metric_fn(pts):
        rho2 = np.einsum("ni,ni->n", pts, pts)
        return (((1.0 + c * rho2) ** 2)[:, None, None] * eye
                - (2.0 * c + c * c * rho2)[:, None, None]
                * np.einsum("ni,nj->nij", pts, pts))

    return MetricChart("warped-3/cartesian", 3, metric_fn)
