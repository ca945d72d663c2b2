"""Facet-list text format.

One facet per line, vertex ids separated by whitespace; a line whose first
non-blank character is `#` is a comment; blank lines are ignored.  The
serializer emits facets in canonical sorted order so parse/serialize
round-trips are stable.
"""
from __future__ import annotations

from .errors import EmptyInput, MalformedFacet, ParseError
from .simplicial import SimplicialComplex, canonical_simplex


def parse_complex_text(text: str) -> SimplicialComplex:
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            values = [int(t) for t in tokens]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}",
                             line=lineno) from exc
        try:
            facets.append(canonical_simplex(values))
        except MalformedFacet as exc:
            raise ParseError(f"line {lineno}: {exc}", line=lineno) from exc
    if not facets:
        raise EmptyInput("no facets found in input")
    return SimplicialComplex.from_canonical_facets(facets)


def parse_complex_file(path) -> SimplicialComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise ParseError(f"line {line}: input is not UTF-8 text", line=line) from exc
    return parse_complex_text(text)


def serialize_complex(complex: SimplicialComplex) -> str:
    """Canonical facet-list text: one sorted facet per line."""
    lines = [" ".join(str(v) for v in facet) for facet in complex.facets]
    return "\n".join(lines) + "\n"


def write_complex_file(path, complex: SimplicialComplex) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_complex(complex))
