from __future__ import annotations

import importlib
import sys

import pytest


@pytest.mark.parametrize("module", [
    "swlab",
    "swlab.metric",
    "swlab.errors",
    "swlab.gf2",
    "swlab.homology",
    "swlab.simplicial",
    "swlab.subdivision",
])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    for name in mod.__all__:
        getattr(mod, name)


def test_corpus_is_the_module():
    # the package exports no `corpus` function that would shadow it
    import swlab.corpus as m

    assert m is sys.modules["swlab.corpus"]
