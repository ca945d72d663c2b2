"""Layer-boundary spans recorded from outside the swlab package.

The tracer replaces public functions and methods of each layer with thin
wrappers.  A module-level function is replaced in every loaded swlab module
that holds it, because `pipeline`, `probes` and `cli` bind names with
``from ... import``.  Per-simplex helpers (`canonical_simplex`, `cofacets`,
`VertexOrder.sort`, ...) are deliberately not wrapped: they run about 10^5
times per large op and would swamp what they measure.

Each wrapped call records one span: scope ("setup" or "ops"), op id, span
id, parent span id, name, start, end, self time and optional counts.  Self
time is the span's duration minus the durations of its child spans.  Spans
stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from itertools import combinations

import numpy as np


@functools.lru_cache(maxsize=None)
def _cut_counts(p: int, q: int, i: int) -> tuple[int, int]:
    """(enumerated, contributing) cut sequences of one cup_i term, counted
    the way `oracle.cup_i` enumerates them."""
    m = p + q - i
    total = useful = 0
    for cuts in combinations(range(m + 1), i + 1):
        total += 1
        bounds = (0,) + cuts + (m,)
        evens = sum(bounds[j + 1] - bounds[j] + 1 for j in range(0, i + 2, 2))
        odds = sum(bounds[j + 1] - bounds[j] + 1 for j in range(1, i + 2, 2))
        useful += evens == p + 1 and odds == q + 1
    return total, useful


# Counters: (args, kwargs, result, before) -> dict of counts.  `before` is
# what the matching `before` hook returned just ahead of the call.

def _count_transpose(args, kwargs, result, fresh):
    m = args[0]
    return {"bytes": m.rows * m.cols} if fresh else None


def _count_echelon(args, kwargs, result, _):
    return {"cols": args[0].cols, "rank": len(result[1])}


def _count_cup_i(args, kwargs, result, _):
    p, q, m = args[2].dimension, args[3].dimension, result.dimension
    total, useful = _cut_counts(p, q, p + q - m)
    n = result.complex.n_simplices(m)
    return {"cuts": total * n, "useful_cuts": useful * n}


def _count_report(args, kwargs, result, _):
    return {"phase." + k: v for k, v in result.timings.items()}


def _count_points(args, kwargs, result, _):
    return {"points": len(result)}


def _count_jet(args, kwargs, result, _):
    return {"points": len(result[0])}


def _count_shoot(args, kwargs, result, _):
    length, h = args[3], args[4]
    rays = np.atleast_2d(np.asarray(args[1])).shape[0]
    return {"rk4_steps": max(1, int(round(length / h))) * rays}


def _count_text_in(args, kwargs, result, _):
    return {"bytes": len(args[0])}


def _count_text_out(args, kwargs, result, _):
    return {"bytes": len(result)}


def _count_subdivide(args, kwargs, result, _):
    return {"derived_simplices": args[0].derived.total_simplices()}


def _packed_bytes(args):
    rows, cols = args[1], args[2]
    return rows * max(1, (cols + 63) >> 6) * 8


def _fresh_transpose(args):
    return getattr(args[0], "_transpose", None) is None


# (module, class or None, attribute, span name, counter, before-hook)
SPANS = [
    ("swlab.cli", None, "main", "cli.main", None, None),
    ("swlab.fileio", None, "parse_complex_text", "fileio.parse", _count_text_in, None),
    ("swlab.fileio", None, "parse_complex_file", "fileio.parse", None, None),
    ("swlab.fileio", None, "serialize_complex", "fileio.serialize", _count_text_out, None),
    ("swlab.fileio", None, "write_complex_file", "fileio.write", None, None),
    ("swlab.corpus", None, "corpus", "corpus.load", None, None),
    ("swlab.corpus", None, "corpus_entries", "corpus.load", None, None),
    ("swlab.simplicial", "SimplicialComplex", "__init__", "simplicial.build", None, None),
    ("swlab.simplicial", "SimplicialComplex", "from_facets", "simplicial.build", None, None),
    ("swlab.simplicial", "SimplicialComplex", "boundary_matrix", "simplicial.boundary_matrix", None, None),
    ("swlab.simplicial", "SimplicialComplex", "is_closed_pseudomanifold", "simplicial.pseudomanifold", None, None),
    ("swlab.gf2", "BitMatrix", "from_entries", "gf2.build", None, None),
    ("swlab.gf2", "BitMatrix", "from_row_ints", "gf2.build", None, None),
    ("swlab.gf2", "BitMatrix", "transpose", "gf2.transpose", _count_transpose, _fresh_transpose),
    ("swlab.gf2", "BitMatrix", "matvec", "gf2.matvec", None, None),
    ("swlab.gf2", "BitMatrix", "_forward_echelon", "gf2.forward_echelon", _count_echelon, None),
    ("swlab.gf2", "BitMatrix", "row_space", "gf2.row_space", None, None),
    ("swlab.gf2", "BitMatrix", "null_space", "gf2.null_space", None, None),
    ("swlab.gf2", "BitMatrix", "solve", "gf2.solve", None, None),
    ("swlab.gf2", "EchelonBasis", "reduce", "gf2.reduce", None, None),
    ("swlab.subdivision", "SubdividedComplex", "__init__", "subdivision.subdivide", _count_subdivide, None),
    ("swlab.subdivision", "SubdividedComplex", "chain_map", "subdivision.chain_map", None, None),
    ("swlab.subdivision", None, "flag_dual_cells", "subdivision.flag_cells", None, None),
    ("swlab.subdivision", None, "flag_partner", "subdivision.partner", None, None),
    ("swlab.dual_blocks", "BlockComplex", "__init__", "dual_blocks.build", None, None),
    ("swlab.dual_blocks", "BlockComplex", "generators", "dual_blocks.blocks", None, None),
    ("swlab.dual_blocks", "BlockComplex", "block_boundary", "dual_blocks.blocks", None, None),
    ("swlab.dual_blocks", "BlockComplex", "all_ones", "dual_blocks.blocks", None, None),
    ("swlab.dual_blocks", "BlockComplex", "dual_chain", "dual_blocks.blocks", None, None),
    ("swlab.dual_blocks", "BlockComplex", "coboundary", "dual_blocks.cocycle", None, None),
    ("swlab.dual_blocks", "BlockComplex", "is_cocycle", "dual_blocks.cocycle", None, None),
    ("swlab.homology", "HomologySummary", "boundary_image_basis", "homology.basis", None, None),
    ("swlab.homology", "HomologySummary", "coboundary_image_basis", "homology.basis", None, None),
    ("swlab.homology", "HomologySummary", "cycle_basis", "homology.basis", None, None),
    ("swlab.homology", "HomologySummary", "cocycle_basis", "homology.basis", None, None),
    ("swlab.homology", "HomologySummary", "cohomology_basis", "homology.basis", None, None),
    ("swlab.homology", "HomologySummary", "betti", "homology.betti", None, None),
    ("swlab.homology", "HomologySummary", "class_is_zero", "homology.query", None, None),
    ("swlab.homology", "HomologySummary", "same_class", "homology.query", None, None),
    ("swlab.homology", "HomologySummary", "cocycle_class_is_zero", "homology.query", None, None),
    ("swlab.homology", "HomologySummary", "same_cocycle_class", "homology.query", None, None),
    ("swlab.homology", "HomologySummary", "is_cycle", "homology.query", None, None),
    ("swlab.homology", "HomologySummary", "is_cocycle", "homology.query", None, None),
    ("swlab.oracle", None, "cup", "oracle.cup", None, None),
    ("swlab.oracle", None, "cap", "oracle.cap", None, None),
    ("swlab.oracle", None, "cup_i", "oracle.cup_i", _count_cup_i, None),
    ("swlab.oracle", None, "steenrod_sq", "oracle.sq", None, None),
    ("swlab.oracle", None, "class_of", "oracle.class_of", None, None),
    ("swlab.oracle", None, "wu_classes", "oracle.wu", None, None),
    ("swlab.oracle", None, "fundamental_cycle", "oracle.fundamental_cycle", None, None),
    ("swlab.oracle", None, "poincare_dual_of_cocycle", "oracle.poincare_dual", None, None),
    ("swlab.pipeline", None, "compute_report", "pipeline.compute_report", _count_report, None),
    ("swlab.pipeline", None, "ht_chain", "pipeline.ht_chain", None, None),
    ("swlab.metric.charts", "MetricChart", "metric", "charts.metric", _count_points, None),
    ("swlab.metric.calculus", None, "metric_jet", "calculus.jet", _count_jet, None),
    ("swlab.metric.calculus", None, "christoffel_many", "calculus.christoffel", None, None),
    ("swlab.metric.calculus", None, "curvature_many", "calculus.curvature", None, None),
    ("swlab.metric.calculus", None, "geodesic_shoot_many", "calculus.shoot", _count_shoot, None),
    ("swlab.metric.calculus", None, "g_norms", "calculus.g_norms", None, None),
    ("swlab.metric.probes", None, "sphere_area_probe", "probes.sphere_area", None, None),
    ("swlab.metric.probes", None, "gauss_bonnet_disk", "probes.gauss_bonnet", None, None),
]

# Count-only wrappers (no span): (module, class, attribute, tally key, amount).
TALLIES = [
    ("swlab.gf2", "BitMatrix", "__init__", "gf2.matrix_bytes", _packed_bytes),
    ("swlab.simplicial", "Chain", "boundary", "simplicial.chain_ops", None),
    ("swlab.simplicial", "Chain", "coboundary", "simplicial.chain_ops", None),
    ("swlab.simplicial", "Chain", "__xor__", "simplicial.chain_ops", None),
    ("swlab.simplicial", "Chain", "__add__", "simplicial.chain_ops", None),
    ("swlab.simplicial", "Chain", "pairing", "simplicial.chain_ops", None),
]


class Tracer:
    """Installs the wrappers and keeps the spans of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.tally: dict[tuple[str, str], float] = defaultdict(float)
        self.scope = "setup"
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name, fn, count, before):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            frame = tracer._open()
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, name, start, perf(), None)
                raise
            end = perf()
            # Counting runs outside the span, so it is not charged to the layer.
            counts = count(args, kwargs, result, pre) if count is not None else None
            tracer._close(frame, name, start, end, counts)
            return result

        return wrapper

    def _open(self) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, 0.0]   # id, parent id, child time
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, start, end, counts) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((self.scope, self.op, frame[0], frame[1], name,
                           start, end, duration - frame[2], counts))

    def _tally_wrapper(self, key, fn, amount):
        tally = self.tally
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally[tracer.scope, key] += amount(args) if amount else 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, module_name, class_name, attr, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(module_name)
            return
        if class_name is not None:
            owner = getattr(module, class_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{class_name}.{attr}")
                return
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        new = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("swlab"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, new)
                    self._undo.append((mod, name, original))

    def install(self) -> None:
        for module, cls, attr, name, count, before in SPANS:
            self._patch(module, cls, attr,
                        lambda fn, n=name, c=count, b=before:
                        self._span_wrapper(n, fn, c, b))
        for module, cls, attr, key, amount in TALLIES:
            self._patch(module, cls, attr,
                        lambda fn, k=key, a=amount: self._tally_wrapper(k, fn, a))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ harness

    def root(self, scope: str, op: int, name: str, fn, *args):
        """Run fn(*args) as the root span of one op (or of the set-up)."""
        self.scope, self.op = scope, op
        return self._span_wrapper(name, fn, None, None)(*args)

    def dump(self, path: str, meta: dict) -> None:
        fields = ["scope", "op", "id", "parent", "name", "start", "end",
                  "self", "counts"]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans,
                       "tally": [[s, k, v] for (s, k), v in self.tally.items()]},
                      fh)


# --------------------------------------------------------------- metrics

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


SETUP_LAYERS = ("gf2", "homology", "simplicial", "subdivision", "oracle")
PHASES = ("subdivide", "homology", "wu_oracle", "degrees", "pairing")


def layer_metrics(tracer: Tracer, n_ops: int, errors) -> dict:
    """Per-layer metrics of the traced ops, normalised per op.

    `errors` holds (reported, actual) relative errors of probe ops.
    Returns {name: (value, unit)}.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    setup_self: dict[str, float] = defaultdict(float)
    names = {}
    for scope, _op, sid, _parent, name, *_ in tracer.spans:
        names[sid] = name
    corpus_load = wu_total = 0.0
    jet_metric_points = 0.0
    for scope, _op, _sid, parent, name, start, end, self_t, cnt in tracer.spans:
        layer = _layer(name)
        if scope == "setup":
            setup_self[layer] += self_t
            if name == "corpus.load" and names.get(parent) != "corpus.load":
                corpus_load += end - start
            continue
        self_s[name] += self_t
        calls[name] += 1
        layer_self[layer] += self_t
        if name == "oracle.wu":
            wu_total += end - start
        if cnt:
            for key, value in cnt.items():
                counts[name + ":" + key] += value
            if name == "charts.metric" and names.get(parent) == "calculus.jet":
                jet_metric_points += cnt["points"]

    per = 1.0 / max(n_ops, 1)

    def sec(*span_names):
        return (sum(self_s[n] for n in span_names) * per, "s/op")

    def cnt(key, unit="count/op"):
        return (counts[key] * per, unit)

    def ratio(a, b):
        return (a / b if b else 0.0, "ratio")

    out = {}
    for layer in ("cli", "fileio", "corpus", "simplicial", "gf2", "subdivision",
                  "dual_blocks", "homology", "oracle", "pipeline", "charts",
                  "calculus", "probes"):
        out[layer + ".self_s"] = (layer_self[layer] * per, "s/op")
    out.update({
        "gf2.transpose_s": sec("gf2.transpose"),
        "gf2.transpose_bytes": cnt("gf2.transpose:bytes", "B/op"),
        "gf2.echelon_s": sec("gf2.forward_echelon", "gf2.row_space",
                             "gf2.null_space", "gf2.solve"),
        "gf2.echelon_cols": cnt("gf2.forward_echelon:cols"),
        "gf2.pivot_yield": ratio(counts["gf2.forward_echelon:rank"],
                                 counts["gf2.forward_echelon:cols"]),
        "gf2.matrix_bytes": (tracer.tally["ops", "gf2.matrix_bytes"] * per, "B/op"),
        "gf2.reduce_s": sec("gf2.reduce"),
        "gf2.reduce_calls": (calls["gf2.reduce"] * per, "count/op"),
        "gf2.matvec_s": sec("gf2.matvec"),
        "gf2.matvec_calls": (calls["gf2.matvec"] * per, "count/op"),
        "homology.basis_s": sec("homology.basis"),
        "homology.query_s": sec("homology.query"),
        "homology.queries": (calls["homology.query"] * per, "count/op"),
        "simplicial.build_s": sec("simplicial.build"),
        "simplicial.boundary_matrix_s": sec("simplicial.boundary_matrix"),
        "simplicial.pseudomanifold_s": sec("simplicial.pseudomanifold"),
        "simplicial.chain_ops": (tracer.tally["ops", "simplicial.chain_ops"] * per,
                                 "count/op"),
        "subdivision.subdivide_s": sec("subdivision.subdivide"),
        "subdivision.derived_simplices": cnt("subdivision.subdivide:derived_simplices"),
        "subdivision.chain_map_s": sec("subdivision.chain_map"),
        "subdivision.flag_cells_s": sec("subdivision.flag_cells"),
        "subdivision.partner_s": sec("subdivision.partner"),
        "subdivision.partner_calls": (calls["subdivision.partner"] * per, "count/op"),
        "dual_blocks.cocycle_s": sec("dual_blocks.cocycle"),
        "oracle.wu_s": (wu_total * per, "s/op"),
        "oracle.products_s": sec("oracle.cup", "oracle.cap", "oracle.cup_i",
                                 "oracle.sq"),
        "oracle.cup_calls": (calls["oracle.cup"] * per, "count/op"),
        "oracle.cap_calls": (calls["oracle.cap"] * per, "count/op"),
        "oracle.cup_i_calls": (calls["oracle.cup_i"] * per, "count/op"),
        "oracle.cup_i_cut_yield": ratio(counts["oracle.cup_i:useful_cuts"],
                                        counts["oracle.cup_i:cuts"]),
        "oracle.class_of_s": sec("oracle.class_of"),
        "fileio.parse_s": sec("fileio.parse"),
        "fileio.bytes": ((counts["fileio.parse:bytes"]
                          + counts["fileio.serialize:bytes"]) * per, "B/op"),
        "corpus.load_s": (corpus_load, "s"),
        "charts.metric_s": sec("charts.metric"),
        "charts.metric_points": cnt("charts.metric:points"),
        "calculus.jet_s": sec("calculus.jet"),
        "calculus.jet_points": cnt("calculus.jet:points"),
        "calculus.metric_evals_per_jet_point": ratio(
            jet_metric_points, counts["calculus.jet:points"]),
        "calculus.shoot_s": sec("calculus.shoot"),
        "calculus.rk4_steps": cnt("calculus.shoot:rk4_steps"),
        "calculus.curvature_s": sec("calculus.curvature"),
        "calculus.christoffel_s": sec("calculus.christoffel"),
    })
    for phase in PHASES:
        out[f"pipeline.phase.{phase}_s"] = cnt(
            f"pipeline.compute_report:phase.{phase}", "s/op")
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}_s"] = (setup_self[layer], "s")
    reported = [r for r, _ in errors]
    actual = [a for _, a in errors]
    floor = sys.float_info.epsilon
    over = [r / max(a, floor) for r, a in errors]
    out["probes.error_reported"] = (_median(reported), "rel")
    out["probes.error_actual"] = (_median(actual), "rel")
    out["probes.error_overestimate"] = (_median(over), "ratio")
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_table(metrics: dict) -> list[str]:
    """Layers by self time per op, largest first."""
    rows = sorted(((v, k[:-len(".self_s")]) for k, (v, _) in metrics.items()
                   if k.endswith(".self_s")), reverse=True)
    total = sum(v for v, _ in rows) or 1.0
    return [f"  {name:12s} {v:10.6f} s/op  {100.0 * v / total:5.1f}%"
            for v, name in rows]


def phase_attribution(tracer: Tracer, describe) -> list[str]:
    """SWReport.timings next to traced gf2/homology self time per phase.

    The report's phases run back to back at the end of compute_report, so
    each phase window is rebuilt backwards from the span's end; a gf2 or
    homology span is charged to the window holding its midpoint.
    """
    by_op = defaultdict(list)
    for span in tracer.spans:
        if span[0] == "ops":
            by_op[span[1]].append(span)
    rows = defaultdict(lambda: defaultdict(list))
    for op, spans in by_op.items():
        reports = [s for s in spans if s[4] == "pipeline.compute_report" and s[8]]
        if not reports:
            continue
        rep = reports[0]
        windows = []
        end = rep[6]
        for phase in reversed(PHASES):
            dt = rep[8]["phase." + phase]
            windows.append((phase, end - dt, end))
            end -= dt
        charged = {(p, layer): 0.0 for p in PHASES for layer in ("gf2", "homology")}
        for s in spans:
            layer = _layer(s[4])
            if layer not in ("gf2", "homology"):
                continue
            mid = 0.5 * (s[5] + s[6])
            for phase, lo, hi in windows:
                if lo <= mid < hi:
                    charged[phase, layer] += s[7]
        label = describe(op)
        for phase in PHASES:
            rows[label][phase].append((rep[8]["phase." + phase],
                                       charged[phase, "gf2"],
                                       charged[phase, "homology"]))
    lines = ["phase attribution (median over traced ops; seconds):",
             f"  {'input':16s} {'phase':10s} {'report':>8s} {'gf2 self':>9s} "
             f"{'homology self':>13s}"]
    for label in sorted(rows):
        for phase in PHASES:
            samples = rows[label][phase]
            med = [_median([s[j] for s in samples]) for j in range(3)]
            lines.append(f"  {label:16s} {phase:10s} {med[0]:8.4f} {med[1]:9.4f} "
                         f"{med[2]:13.4f}")
    return lines
