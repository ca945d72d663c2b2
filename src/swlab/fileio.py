"""Facet-list text format.

One facet per line, vertex ids separated by whitespace; a line whose first
non-blank character is `#` is a comment; blank lines are ignored.  The
serializer emits facets in canonical sorted order so parse/serialize
round-trips are stable.
"""
from __future__ import annotations

from itertools import chain, groupby, islice, repeat
from typing import NoReturn

from .errors import EmptyInput, MalformedFacet, ParseError
from .simplicial import Simplex, SimplicialComplex, canonical_simplex


def parse_complex_text(text: str) -> SimplicialComplex:
    """Close the facets of the text downward.  Raises ParseError naming the
    first bad line, or EmptyInput if no line has a facet."""
    return SimplicialComplex.from_canonical_facets(_canonical_rows(text))


def _canonical_rows(text: str) -> list[Simplex]:
    """The sorted vertex tuple of each facet row of the text, checked in
    bulk: one C-level pass over all tokens.  A bad token, a negative id or
    a repeated vertex sends the text to the per-line loop for its error."""
    rows = [row for row in map(str.split, text.splitlines()) if row and row[0][0] != "#"]
    try:
        flat = list(map(int, chain.from_iterable(rows)))
    except ValueError:
        _raise_first_error(text)
    tokens = iter(flat)
    facets = list(map(tuple, map(sorted, map(islice, repeat(tokens), map(len, rows)))))
    if not flat or min(flat) < 0 or sum(map(len, map(set, facets))) != len(flat):
        _raise_first_error(text)
    return facets


def _raise_first_error(text: str) -> NoReturn:
    """Raise the ParseError of the first bad line, or EmptyInput."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(t) for t in line.split()]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}",
                             line=lineno) from exc
        try:
            canonical_simplex(values)
        except MalformedFacet as exc:
            raise ParseError(f"line {lineno}: {exc}", line=lineno) from exc
    raise EmptyInput("no facets found in input")


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
    facets = complex.facets
    # the facets come in runs of one size ((len, s) order): one row template
    # per run, and one format call over all vertex ids
    template = "".join(("%d " * (size - 1) + "%d\n") * len(list(run))
                       for size, run in groupby(map(len, facets)))
    return template % tuple(chain.from_iterable(facets)) or "\n"


def write_complex_file(path, complex: SimplicialComplex) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_complex(complex))
