"""Command-line front end.

Exit codes:

  0  success;
  1  verification failure found while computing (oracle conflicts,
     tolerance breaches, non-convergent limits);
  2  anything wrong with the request itself (unparsable input, a closure
     over its budget, unknown names, radii outside a model's guard);
  3  internal error (a failed internal assertion, or memory exhausted),
     reported as one `internal error: ...` line on stderr.

Reports serialize with sorted keys and no timing data, so byte-identical
inputs produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

from .errors import (
    EmptyInput,
    InputTooLarge,
    MalformedFacet,
    NotPseudomanifold,
    OracleConflict,
    OutOfDomain,
    ParseError,
    SWLabError,
    UnknownCorpusEntry,
    UnknownModel,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_INPUT_ERRORS = (ParseError, EmptyInput, InputTooLarge, MalformedFacet, NotPseudomanifold,
                 UnknownCorpusEntry, UnknownModel, OutOfDomain, OSError)

SCHEMA_VERSION = 1


def _parse_grid(raw: str | None):
    if raw is None:
        return None
    parts = raw.split(",")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"grid must be an integer or LAT,LON pair: {raw!r}")
    if len(values) > 2:
        raise ParseError(f"unusable grid specification: {raw!r}")
    return values[0] if len(values) == 1 else tuple(values)


def _parse_eps_list(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in raw.split(","))
    except ValueError:
        raise ParseError(f"radius list must be comma-separated floats: {raw!r}")


def tolerance(raw: str) -> float:
    """A --tol value. NaN or inf would pass every gap and a negative value
    fail every one, so only finite non-negative floats are accepted."""
    tol = float(raw)
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(raw)
    return tol


def _json_dump(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _report_payload(source: str, sha: str, report) -> dict:
    payload = {"schema": SCHEMA_VERSION, "source": source, "sha256": sha}
    payload.update(report.as_dict())
    return payload


def _cmd_classes(args) -> int:
    from .corpus import corpus
    from .fileio import parse_complex_file, serialize_complex
    from .pipeline import compute_report

    source = args.path if args.corpus is None else f"corpus:{args.corpus}"
    sha = None
    try:
        if args.corpus is not None:
            complex = corpus(args.corpus).complex()
        else:
            complex = parse_complex_file(args.path)
        sha = hashlib.sha256(serialize_complex(complex).encode()).hexdigest()
        report = compute_report(complex)
    except Exception as exc:
        # any failed run replaces OUT, so no earlier report survives it;
        # main maps the run's own exception, not a failed write of OUT, to
        # its exit code and stderr line
        if args.report is not None:
            payload = {
                "schema": SCHEMA_VERSION,
                "source": source,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
            if sha is not None:
                payload["sha256"] = sha
            if isinstance(exc, OracleConflict) and exc.report is not None:
                payload["partial"] = exc.report.as_dict()
            try:
                _json_dump(payload, args.report)
            except OSError as err:
                print(f"report {args.report} not written: {err.strerror or err}",
                      file=sys.stderr)
        raise

    print(f"input: {source}")
    print(f"dimension {report.dimension}, "
          f"f-vector {tuple(report.f_vector)}, "
          f"betti {tuple(report.betti)}")
    for row in report.rows:
        verdict = "match" if row.matches_oracle else "CONFLICT"
        print(f"  w{row.degree}: cocycle={_yn(row.all_ones_is_cocycle)} "
              f"cycle={_yn(row.ht_chain_is_cycle)} "
              f"class={'nonzero' if row.class_nonzero else 'zero'} "
              f"oracle={verdict}")
    print(f"pattern: {''.join('1' if r.class_nonzero else '0' for r in report.rows)}")
    if args.diagnostics:
        ks = ", ".join(f"{i}:{_yn(v)}"
                       for i, v in enumerate(report.k_level_cocycle))
        print(f"diagnostics: base-level cocycle {{{ks}}}, "
              f"pairing involution {_yn(report.pairing_ok)}")
        for phase, dt in report.timings.items():
            print(f"  {phase}: {dt:.3f}s")
    if args.report is not None:
        _json_dump(_report_payload(source, sha, report), args.report)
        print(f"report written to {args.report}")
    return EXIT_OK


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_metric(args) -> int:
    from .metric import (gauss_bonnet_disk, get_model, sphere_area_probe,
                         w3_limit)

    model = get_model(args.model)
    grid = _parse_grid(args.grid)

    if args.metric_command == "gauss-bonnet":
        res = gauss_bonnet_disk(model, args.eps, grid=grid)
        print(f"model {model.name}, eps {args.eps}, grid {res.params['grid']}")
        print(f"interior  {res.interior:+.12f}")
        print(f"boundary  {res.boundary:+.12f}")
        print(f"total     {res.total:.12f}   (2*pi = {2 * math.pi:.12f})")
        print(f"cochain value {res.cochain_value}")
        print(f"estimated numerical error {res.error:.3e}")
        gap = abs(res.total - 2.0 * math.pi)
        if gap > args.tol:
            print(f"total misses 2*pi by {gap:.3e} (tolerance {args.tol:.3e})",
                  file=sys.stderr)
            return EXIT_VERIFICATION
        return EXIT_OK

    if args.metric_command == "sphere-area":
        res = sphere_area_probe(model, args.eps, grid=grid)
        kind = "circumference" if model.chart().dim == 2 else "area"
        print(f"model {model.name}, eps {args.eps}, grid {res.params['grid']}")
        print(f"{kind} {res.value:.12f}")
        print(f"flat-space ratio {res.ratio:.12f}")
        print(f"estimated numerical error {res.error:.3e}")
        return EXIT_OK

    radii = _parse_eps_list(args.eps_list)
    res = w3_limit(model, radii, grid=grid)
    print(f"model {model.name}, radii {radii}")
    for eps, ratio in zip(res.params["eps"], res.params["ratios"]):
        print(f"  eps {eps}: ratio {ratio:.10f}")
    print(f"extrapolated limit {res.value:.10f}")
    print(f"cochain value {res.params['cochain_value']}")
    print(f"estimated numerical error {res.error:.3e}")
    gap = abs(res.value - 1.0)
    if gap > args.tol:
        print(f"limit misses 1 by {gap:.3e} (tolerance {args.tol:.3e})",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_corpus(args) -> int:
    from .corpus import corpus_entries

    for entry in corpus_entries():
        pattern = "".join("1" if b else "0" for b in entry.sw_pattern)
        dim = len(entry.betti) - 1
        print(f"{entry.name:8s} dim {dim}  facets {len(entry.facets):4d}  "
              f"betti {entry.betti}  pattern {pattern}  {entry.description}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` keeps no
    state in it, so every `main` call can reuse it."""
    parser = argparse.ArgumentParser(
        prog="swlab",
        description="mod-2 characteristic cochains: dual-cell pipeline, "
                    "cup/cap oracle, and Riemannian probes")
    sub = parser.add_subparsers(dest="command", required=True)

    classes = sub.add_parser(
        "classes", help="verify the characteristic cochains of a complex")
    group = classes.add_mutually_exclusive_group(required=True)
    group.add_argument("path", nargs="?", default=None,
                       help="facet file, one simplex per line")
    group.add_argument("--corpus", default=None, metavar="NAME",
                       help="use a built-in corpus entry instead of a file")
    classes.add_argument("--report", default=None, metavar="OUT.json",
                         help="write the JSON report here")
    classes.add_argument("--diagnostics", action="store_true",
                         help="print base-level cocycle checks and timings")
    classes.set_defaults(func=_cmd_classes)

    metric = sub.add_parser("metric", help="Riemannian model probes")
    msub = metric.add_subparsers(dest="metric_command", required=True)

    gb = msub.add_parser("gauss-bonnet",
                         help="interior plus boundary curvature of a "
                              "geodesic disk")
    gb.add_argument("--model", required=True)
    gb.add_argument("--eps", type=float, required=True)
    gb.add_argument("--grid", default=None)
    gb.add_argument("--tol", type=tolerance, default=1e-6)
    gb.set_defaults(func=_cmd_metric)

    sa = msub.add_parser("sphere-area",
                         help="measure a geodesic sphere by batched shooting")
    sa.add_argument("--model", required=True)
    sa.add_argument("--eps", type=float, required=True)
    sa.add_argument("--grid", default=None)
    sa.set_defaults(func=_cmd_metric)

    w3 = msub.add_parser("w3-limit",
                         help="extrapolate the normalized sphere-area ratio "
                              "to radius zero")
    w3.add_argument("--model", required=True)
    w3.add_argument("--eps-list", required=True, metavar="E1,E2,...")
    w3.add_argument("--grid", default=None)
    w3.add_argument("--tol", type=tolerance, default=1e-4)
    w3.set_defaults(func=_cmd_metric)

    corpus = sub.add_parser("corpus", help="built-in triangulation corpus")
    csub = corpus.add_subparsers(dest="corpus_command", required=True)
    clist = csub.add_parser("list", help="list the corpus entries")
    clist.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SWLabError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (AssertionError, MemoryError) as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
