from __future__ import annotations

import pytest

from swlab.corpus import corpus, CORPUS_NAMES
from swlab.pipeline import compute_report
from swlab.simplicial import build_complex
from swlab.subdivision import barycentric_subdivide


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
