"""Mod-2 characteristic cochains of triangulated manifolds.

The package computes the dual-cell cochains whose classes are the mod-2
characteristic classes of a closed triangulated manifold, checks them
against an independent cup/cap-product oracle, and probes their smooth
counterparts by geodesic integration on model metrics.
"""
from __future__ import annotations

from . import errors
from .corpus import CORPUS_NAMES, CorpusEntry, corpus_entries
from .fileio import (
    parse_complex_file,
    parse_complex_text,
    serialize_complex,
    write_complex_file,
)
from .homology import HomologySummary, mod2_homology
from .oracle import (
    CohomologyClass,
    VertexOrder,
    WuData,
    cap,
    class_of,
    cup,
    cup_i,
    fundamental_cycle,
    poincare_dual_of_cocycle,
    steenrod_sq,
    wu_classes,
)
from .pipeline import DegreeRow, SWReport, compute_report
from .simplicial import Chain, SimplicialComplex, build_complex, \
    canonical_simplex
from .subdivision import (
    SubdividedComplex,
    barycentric_subdivide,
    flag_dual_cells,
)

__version__ = "0.1.0"

__all__ = [
    "CORPUS_NAMES",
    "Chain",
    "CohomologyClass",
    "CorpusEntry",
    "DegreeRow",
    "HomologySummary",
    "SWReport",
    "SimplicialComplex",
    "SubdividedComplex",
    "VertexOrder",
    "WuData",
    "barycentric_subdivide",
    "build_complex",
    "canonical_simplex",
    "cap",
    "class_of",
    "compute_report",
    "corpus_entries",
    "cup",
    "cup_i",
    "errors",
    "flag_dual_cells",
    "fundamental_cycle",
    "mod2_homology",
    "parse_complex_file",
    "parse_complex_text",
    "poincare_dual_of_cocycle",
    "serialize_complex",
    "steenrod_sq",
    "write_complex_file",
    "wu_classes",
]
