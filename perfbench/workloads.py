"""Seeded inputs, operations and answer checks for the benchmark workloads.

This module runs inside a benchmark child process, after the parent has
pinned the BLAS thread variables, so importing numpy here is safe.  Every
swlab function is looked up on its module at call time, never bound with
``from ... import``, so that the tracer's patches are always seen.

A workload object exposes ``warmup()``, ``execute(k)`` (the timed part of
op ``k``) and ``check(k, out)`` (the untimed comparison against answers
fixed before timing).  Op ``k`` is slot ``k % len(slots)`` of a fixed
cycle; the cycle lengths are odd so that the median latency falls inside
one slot's cluster of samples instead of between two.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random

cli = importlib.import_module("swlab.cli")
corpus = importlib.import_module("swlab.corpus")
fileio = importlib.import_module("swlab.fileio")
simplicial = importlib.import_module("swlab.simplicial")
subdivision = importlib.import_module("swlab.subdivision")
homology = importlib.import_module("swlab.homology")
oracle = importlib.import_module("swlab.oracle")
charts = importlib.import_module("swlab.metric.charts")
probes = importlib.import_module("swlab.metric.probes")

# Relabelings per input: each run cycles through several, so one unlucky
# vertex order does not set a whole run's numbers.
RELABELINGS = 3
# Random chains per degree case of a class-queries slot; radii per probe slot.
DRAWS_PER_CASE = 4
DRAWS = 16


def relabel(facets, rng: random.Random) -> list[tuple[int, ...]]:
    """Apply a random bijection of the vertex set onto 0..n-1."""
    verts = sorted({v for f in facets for v in f})
    image = list(range(len(verts)))
    rng.shuffle(image)
    to = dict(zip(verts, image))
    return sorted(tuple(sorted(to[v] for v in f)) for f in facets)


def subdivide(facets) -> list[tuple[int, ...]]:
    """Facets of one barycentric subdivision."""
    complex_ = simplicial.build_complex(facets)
    return list(subdivision.barycentric_subdivide(complex_).derived.facets)


def _derived_input(spec: str):
    """`rp3`, `sd(s3)`, `sd(sd(klein))`: facets plus the corpus entry whose
    frozen invariants the derived complex must keep."""
    depth = spec.count("sd(")
    entry = corpus.corpus(spec[3 * depth:len(spec) - depth])
    facets = list(entry.facets)
    for _ in range(depth):
        facets = subdivide(facets)
    return entry, facets


# ------------------------------------------------------------ verify-large

class VerifyLarge:
    """`swlab classes FILE --report OUT` run in-process on derived complexes.

    Betti numbers and the Stiefel-Whitney pattern do not change under
    relabeling or subdivision, so the corpus entry's frozen values are the
    expected answer for every relabeled file.
    """

    inputs = ("rp3", "sd(s3)", "sd(sd(klein))", "sd(sd(rp2-6))")
    # rp3, the largest input, fills 6 of 9 slots: the pooled median then
    # lies near the first quartile of the rp3 cluster, and the tail near
    # its middle, however a run's last cycle is cut.  With rp3 in a bare
    # majority of slots, the median would sit at the edge between the rp3
    # cluster and the smaller inputs and jump from run to run.
    slots = ("rp3", "sd(s3)", "rp3", "rp3", "sd(sd(klein))", "rp3", "rp3",
             "sd(sd(rp2-6))", "rp3")
    warmup_input = "sd(sd(rp2-6))"
    # Each op builds a fresh complex whose homology caches refer back to
    # it, so its arrays are freed only by a full cyclic collection.  Left
    # to the collector's own schedule, an op's leftovers stay alive into
    # some later ops and not others, which moves their latency and the
    # child's peak RSS at random.  A `swlab classes` process never carries
    # them over, so the benchmark starts each op from a collected heap.
    collect_between_ops = True

    def __init__(self, seed: int, workdir: str, spoil: bool):
        self.workdir = workdir
        self.report_path = os.path.join(workdir, "report.json")
        self.files: dict[str, list[str]] = {}
        self.expected: dict[str, tuple] = {}
        for spec in self.inputs:
            entry, facets = _derived_input(spec)
            betti = list(entry.betti)
            if spoil:
                betti[0] += 1
            self.expected[spec] = (betti, list(entry.sw_pattern))
            paths = []
            for r in range(RELABELINGS):
                rng = random.Random(f"{seed}:{spec}:{r}")
                path = os.path.join(workdir, f"{_slug(spec)}-{r}.facets")
                fileio.write_complex_file(
                    path, simplicial.build_complex(relabel(facets, rng)))
                paths.append(path)
            self.files[spec] = paths

    def describe(self, k: int) -> str:
        return self.slots[k % len(self.slots)]

    def _run(self, path: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["classes", path, "--report", self.report_path])
        return rc, err.getvalue()

    def warmup(self) -> None:
        self._run(self.files[self.warmup_input][0])

    def execute(self, k: int):
        n = len(self.slots)
        spec = self.slots[k % n]
        # Successive ops step through the relabelings, so that every run
        # uses all of them about equally.
        return self._run(self.files[spec][(k // n + k) % RELABELINGS])

    def check(self, k: int, out) -> tuple[bool, str]:
        rc, err = out
        if rc != 0:
            return False, f"exit code {rc}: {err.strip()[:200]}"
        with open(self.report_path) as fh:
            report = json.load(fh)
        betti, pattern = self.expected[self.describe(k)]
        got_pattern = [row["class_nonzero"] for row in report["degrees"]]
        if report["betti"] != betti:
            return False, f"betti {report['betti']} != {betti}"
        if got_pattern != pattern:
            return False, f"pattern {got_pattern} != {pattern}"
        if not all(row["matches_oracle"] is True for row in report["degrees"]):
            return False, "a degree does not match the oracle"
        return True, ""


def _slug(spec: str) -> str:
    return spec.replace("(", "_").replace(")", "")


# ----------------------------------------------------------- class-queries

class _Complex:
    """One mid-size complex with its transcripts built ahead of the ops."""

    def __init__(self, spec: str, seed: int):
        entry, facets = _derived_input(spec)
        rng = random.Random(f"{seed}:{spec}")
        X = simplicial.build_complex(relabel(facets, rng))
        Chain = simplicial.Chain
        n = X.dim
        H = homology.mod2_homology(X)
        for d in range(n + 1):
            H.boundary_image_basis(d)
            H.coboundary_image_basis(d)
            H.cohomology_basis(d)
        if H.betti_vector != entry.betti:
            raise RuntimeError(f"{spec}: betti {H.betti_vector} != {entry.betti}")
        order = oracle.VertexOrder.numeric(X)
        gamma = oracle.fundamental_cycle(X)
        # Nonzero homology classes: Poincare duals of the cohomology basis,
        # the fundamental cycle on top, a single vertex at the bottom.
        cycles = {n: [gamma], 0: [Chain(X, 0, 1)]}
        for d in range(1, n):
            cycles[d] = [oracle.poincare_dual_of_cocycle(X, order, Chain(X, n - d, b))
                         for b in H.cohomology_basis(n - d)]
        self.spec, self.X, self.H, self.n = spec, X, H, n
        self.order, self.cycles, self.rng = order, cycles, rng

    def chain(self, d: int):
        """A random chain of dimension d (the zero group outside 0..n)."""
        size = self.X.n_simplices(d)
        return simplicial.Chain(self.X, d, self.rng.getrandbits(size) if size else 0)


class ClassQueries:
    """Class-membership queries and cochain identities on cached transcripts.

    Each draw fixes its expected answer at setup: boundaries and
    coboundaries are null-homologous, adding a boundary keeps a class,
    adding a coboundary keeps cohomology coordinates (the basis mask that
    built the cocycle), and the Leibniz and Steenrod identities hold.
    """

    specs = ("sd(klein)", "sd(s3)", "rp3", "sd(sd(rp2-6))")
    kinds = ("boundary", "shifted", "coboundary", "class_of",
             "cup_leibniz", "cap_leibniz", "sq_axioms")
    # rp3 twice: the largest complex, and an odd cycle length.
    complex_slots = ("sd(klein)", "rp3", "sd(s3)", "rp3", "sd(sd(rp2-6))")

    def __init__(self, seed: int, workdir: str, spoil: bool):
        self.spoil = spoil
        self.complexes = {spec: _Complex(spec, seed) for spec in self.specs}
        self.slots = [(spec, kind) for spec in self.complex_slots
                      for kind in self.kinds]
        # Degrees are enumerated, not drawn, so that every seed runs the
        # same mix of costs; the seed draws the chains and masks.
        self.draws = {}
        for spec in self.specs:
            c = self.complexes[spec]
            for kind in self.kinds:
                draw = getattr(self, "_draw_" + kind)
                self.draws[spec, kind] = [draw(c, *case)
                                          for _ in range(DRAWS_PER_CASE)
                                          for case in self._cases(c, kind)]

    def describe(self, k: int) -> str:
        return "/".join(self.slots[k % len(self.slots)])

    @staticmethod
    def _cases(c, kind):
        n, H = c.n, c.H
        cohom = [d for d in range(n + 1) if H.cohomology_basis(d)]
        return {
            "boundary": [(d,) for d in range(n)],
            "shifted": [(d, j) for d in range(n + 1) for j in range(len(c.cycles[d]))],
            "coboundary": [(d,) for d in range(1, n + 1)],
            "class_of": [(d,) for d in cohom],
            "cup_leibniz": [(p, q) for p in range(n) for q in range(n - p)],
            "cap_leibniz": [(d, r) for d in range(1, n + 1) for r in range(d)],
            "sq_axioms": [(d, j) for d in cohom
                          for j in range(len(H.cohomology_basis(d)))],
        }[kind]

    # Draws: (arguments, expected answer) with the answer fixed here.
    def _draw_boundary(self, c, d):
        return (c.chain(d + 1),), True

    def _draw_shifted(self, c, d, j):
        return (c.cycles[d][j], c.chain(d + 1)), (True, False)

    def _draw_coboundary(self, c, d):
        return (c.chain(d - 1),), True

    def _draw_class_of(self, c, d):
        basis = c.H.cohomology_basis(d)
        mask = c.rng.randrange(1, 1 << len(basis))
        bits = 0
        for j, b in enumerate(basis):
            if mask >> j & 1:
                bits ^= b
        return (simplicial.Chain(c.X, d, bits), c.chain(d - 1)), mask

    def _draw_cup_leibniz(self, c, p, q):
        return (c.chain(p), c.chain(q)), True

    def _draw_cap_leibniz(self, c, d, r):
        return (c.chain(r), c.chain(d)), True

    def _draw_sq_axioms(self, c, d, j):
        return (simplicial.Chain(c.X, d, c.H.cohomology_basis(d)[j]),), True

    # Ops: public-API calls only.
    def _op_boundary(self, c, chain):
        return c.H.class_is_zero(chain.boundary())

    def _op_shifted(self, c, z, chain):
        y = z ^ chain.boundary()
        return c.H.same_class(y, z), c.H.class_is_zero(y)

    def _op_coboundary(self, c, chain):
        return c.H.cocycle_class_is_zero(chain.coboundary())

    def _op_class_of(self, c, x, chain):
        y = x ^ chain.coboundary()
        return oracle.class_of(c.X, y).coordinates

    def _op_cup_leibniz(self, c, a, b):
        X, o = c.X, c.order
        lhs = oracle.cup(X, o, a, b).coboundary()
        rhs = oracle.cup(X, o, a.coboundary(), b) ^ oracle.cup(X, o, a, b.coboundary())
        return lhs == rhs

    def _op_cap_leibniz(self, c, alpha, chain):
        X, o = c.X, c.order
        lhs = oracle.cap(X, o, alpha, chain).boundary()
        rhs = (oracle.cap(X, o, alpha.coboundary(), chain)
               ^ oracle.cap(X, o, alpha, chain.boundary()))
        return lhs == rhs

    def _op_sq_axioms(self, c, x):
        X, o, d = c.X, c.order, x.dimension
        ok = oracle.steenrod_sq(X, o, 0, x) == x
        if 0 < 2 * d <= c.n:
            ok = ok and oracle.steenrod_sq(X, o, d, x) == oracle.cup(X, o, x, x)
        return ok and oracle.steenrod_sq(X, o, d + 1, x).is_zero()

    def _args(self, k: int):
        n = len(self.slots)
        spec, kind = self.slots[k % n]
        draws = self.draws[spec, kind]
        args, expected = draws[(k // n) % len(draws)]
        return self.complexes[spec], kind, args, expected

    def warmup(self) -> None:
        self.execute(0)

    def execute(self, k: int):
        c, kind, args, _ = self._args(k)
        return getattr(self, "_op_" + kind)(c, *args)

    def check(self, k: int, out) -> tuple[bool, str]:
        _, _, _, expected = self._args(k)
        if self.spoil:
            expected = ("spoiled", expected)
        if out != expected:
            return False, f"{self.describe(k)}: got {out!r}, expected {expected!r}"
        return True, ""


# ---------------------------------------------------------- probe-geodesic

class ProbeGeodesic:
    """Geodesic probes at the library-default RK4 step on fixed grids.

    A disk must total 2*pi within 1e-6 with cochain value 1; a sphere's
    measured value must lie within its own reported error of the closed
    form (`error` is in value units, so the ratio is held to error / flat).
    """

    DISK_GRID = 256
    SPHERE_GRID = (16, 32)
    DISK_RADII = (0.25, 0.5)            # criterion 05
    SPHERE_RADII = (0.2, 0.1, 0.05)     # criterion 06
    # warped-3 twice: the costliest probe, and an odd cycle length.
    slots = (("disk", "round-s2"), ("sphere", "round-s3"),
             ("disk", "hyperbolic-2"), ("sphere", "warped-3"),
             ("disk", "flat-2"), ("sphere", "flat-3"),
             ("sphere", "warped-3"))

    def __init__(self, seed: int, workdir: str, spoil: bool):
        self.spoil = spoil
        self.models = {name: charts.get_model(name) for _, name in self.slots}
        rng = random.Random(f"{seed}:probe-geodesic")
        self.radii = [[rng.choice(self.DISK_RADII if kind == "disk"
                                  else self.SPHERE_RADII)
                       for _ in range(DRAWS)] for kind, _ in self.slots]
        self.errors: list[tuple[float, float]] = []   # (reported, actual), relative

    def describe(self, k: int) -> str:
        return "/".join(self.slots[k % len(self.slots)])

    def _probe(self, kind: str, name: str, eps: float):
        model = self.models[name]
        if kind == "disk":
            return probes.gauss_bonnet_disk(model, eps, grid=self.DISK_GRID)
        return probes.sphere_area_probe(model, eps, grid=self.SPHERE_GRID)

    def warmup(self) -> None:
        self._probe("disk", "flat-2", self.DISK_RADII[0])

    def _eps(self, k: int) -> float:
        n = len(self.slots)
        return self.radii[k % n][(k // n) % DRAWS]

    def execute(self, k: int):
        return self._probe(*self.slots[k % len(self.slots)], self._eps(k))

    def check(self, k: int, out) -> tuple[bool, str]:
        kind, name = self.slots[k % len(self.slots)]
        eps = self._eps(k)
        shift = 1.0 if self.spoil else 0.0
        if kind == "disk":
            reference = 2.0 * math.pi + shift
            measured, error = out.total, out.error
            ok = abs(measured - reference) <= 1e-6 and out.cochain_value == 1
        else:
            reference = self.models[name].analytic["sphere_area"](eps) + shift
            measured, error = out.value, out.error
            ok = abs(measured - reference) <= error
        actual = abs(measured - reference)
        self.errors.append((error / abs(reference), actual / abs(reference)))
        if not ok:
            return False, (f"{name} eps={eps}: measured {measured!r}, "
                           f"reference {reference!r}, reported error {error:.3e}")
        return True, ""


def build(name: str, seed: int, workdir: str, spoil: bool = False):
    """Validate corpus entries, generate inputs and write files for a workload."""
    os.makedirs(workdir, exist_ok=True)
    cls = {"verify-large": VerifyLarge, "class-queries": ClassQueries,
           "probe-geodesic": ProbeGeodesic}[name]
    return cls(seed, workdir, spoil)
