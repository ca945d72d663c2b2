"""Acceptance suite: one test per verification criterion.

Each test prints a single `criterion NN: PASS/FAIL` line on the live
terminal (bypassing capture) so a verbose run reads as a checklist."""
from __future__ import annotations

import math
import time
import zlib

import numpy as np

from conftest import relabeled
from swlab.corpus import CORPUS_NAMES, corpus
from swlab.gf2 import gather
from swlab.homology import mod2_homology
from swlab.metric import (
    MODEL_NAMES,
    cgb_constant,
    frame_det_w1,
    frame_gram_det,
    gauss_bonnet_disk,
    gauss_equation_check,
    get_model,
    sphere_volume,
    sphere_volume_double_factorial,
    w3_limit,
)
from swlab.oracle import VertexOrder, cap, cup, fundamental_cycle, steenrod_sq, wu_classes
from swlab.pipeline import compute_report
from swlab.simplicial import Chain
from swlab.subdivision import barycentric_subdivide, flag_dual_cells


def _report(capsys, num: int, problems: list, detail: str = "") -> None:
    verdict = "PASS" if not problems else "FAIL"
    note = detail if not problems else "; ".join(str(p) for p in problems[:4])
    with capsys.disabled():
        print(f"\ncriterion {num:02d}: {verdict}  {note}")
    assert not problems, problems


def _random_bits(rng, nbits):
    if nbits <= 0:
        return 0
    raw = int.from_bytes(rng.bytes((nbits + 7) // 8), "little")
    return raw & ((1 << nbits) - 1)


def _random_cochain(rng, X, d):
    return Chain(X, d, _random_bits(rng, X.n_simplices(d)))


def test_criterion_01_all_ones_cocycle_matches_oracle(capsys):
    # every corpus entry, every degree: the all-ones block cochain on K'
    # is a cocycle whose class matches the Wu class under duality
    problems = []
    t0 = time.perf_counter()
    for name in CORPUS_NAMES:
        report = compute_report(corpus(name).complex())
        for row in report.rows:
            if not row.all_ones_is_cocycle:
                problems.append(f"{name} degree {row.degree}: not a cocycle")
            if row.matches_oracle is not True:
                problems.append(f"{name} degree {row.degree}: oracle mismatch")
    total = time.perf_counter() - t0
    if total >= 60.0:
        problems.append(f"runtime {total:.1f}s >= 60s")
    _report(capsys, 1, problems,
            f"all degrees on {len(CORPUS_NAMES)} entries ({total:.1f}s < 60s)")


def test_criterion_02_known_patterns(capsys):
    problems = []
    expected = {
        "rp2-6": {1: True, 2: True},
        "klein": {1: True, 2: False},
        "t2-7": {1: False, 2: False},
        "s2": {1: False, 2: False},
        "s3": {1: False, 2: False, 3: False},
        "rp3": {1: False, 2: False, 3: False},
    }
    for name, degrees in expected.items():
        wu = wu_classes(corpus(name).complex())
        for degree, nonzero in degrees.items():
            got = not wu.w[degree].is_zero()
            if got != nonzero:
                problems.append(
                    f"{name}: w{degree} {'non' if got else ''}zero, "
                    f"expected {'non' if nonzero else ''}zero")
    _report(capsys, 2, problems, "w-patterns via Wu oracle on 6 entries")


def test_criterion_03_halperin_toledo_chains(capsys):
    # sum of all i-simplices of K' is a cycle whose class is PD(w_{n-i})
    # pushed through the subdivision chain map
    problems = []
    for name in CORPUS_NAMES:
        X = corpus(name).complex()
        n = X.dim
        S = barycentric_subdivide(X)
        Kp = S.derived
        Hp = mod2_homology(Kp)
        order = VertexOrder.numeric(X)
        wu = wu_classes(X)
        gamma = fundamental_cycle(X)
        for i in range(n + 1):
            ht = Chain.all_ones(Kp, i)
            if not ht.boundary().is_zero():
                problems.append(f"{name} i={i}: not a cycle")
                continue
            pd = cap(X, order, wu.w[n - i].cocycle, gamma)
            pushed = Chain(Kp, i, S.chain_map(i).matvec(pd.bits))
            if not Hp.same_class(ht, pushed):
                problems.append(f"{name} i={i}: class differs from PD(w_{n-i})")
    _report(capsys, 3, problems, "HT chain = PD(w_{n-i}) on all entries")


def test_criterion_04_odd_cell_pairing(capsys):
    problems = []
    for name in CORPUS_NAMES:
        X = corpus(name).complex()
        S = barycentric_subdivide(X)
        for i in range(1, X.dim + 1):
            for base, ids in flag_dual_cells(S, i).items():
                members = set(ids)
                for id_tuple in ids:
                    partner_ids = S.partner(id_tuple)
                    if partner_ids == id_tuple:
                        problems.append(f"{name} i={i}: fixed point {id_tuple}")
                    elif partner_ids not in members:
                        problems.append(f"{name} i={i}: partner left the cell")
                    elif S.partner(partner_ids) != id_tuple:
                        problems.append(f"{name} i={i}: not an involution")
    _report(capsys, 4, problems,
            "fixed-point-free involution in all degrees >= 1")


def test_criterion_05_gauss_bonnet(capsys):
    problems = []
    worst = 0.0
    slowest = 0.0
    for name in ("round-s2", "hyperbolic-2", "flat-2"):
        model = get_model(name)
        for eps in (0.25, 0.5):
            t0 = time.perf_counter()
            res = gauss_bonnet_disk(model, eps)
            dt = time.perf_counter() - t0
            gap = abs(res.total - 2.0 * math.pi)
            worst = max(worst, gap)
            slowest = max(slowest, dt)
            if gap > 1e-6:
                problems.append(f"{name} eps={eps}: |total-2pi|={gap:.2e}")
            if res.cochain_value != 1:
                problems.append(f"{name} eps={eps}: cochain {res.cochain_value}")
            if dt >= 5.0:
                problems.append(f"{name} eps={eps}: {dt:.1f}s >= 5s")
    _report(capsys, 5, problems,
            f"total=2pi within {worst:.1e} (tol 1e-6), "
            f"slowest probe {slowest:.1f}s < 5s")


def test_criterion_06_w3_limit(capsys):
    problems = []
    worst = 0.0
    slowest = 0.0
    for name in ("round-s3", "flat-3", "warped-3"):
        t0 = time.perf_counter()
        res = w3_limit(get_model(name), (0.2, 0.1, 0.05))
        dt = time.perf_counter() - t0
        gap = abs(res.value - 1.0)
        worst = max(worst, gap)
        slowest = max(slowest, dt)
        if gap > 1e-4:
            problems.append(f"{name}: |limit-1|={gap:.2e}")
        if res.params["cochain_value"] != 1:
            problems.append(f"{name}: cochain {res.params['cochain_value']}")
        if dt >= 30.0:
            problems.append(f"{name}: {dt:.1f}s >= 30s")
    _report(capsys, 6, problems,
            f"limit=1 within {worst:.1e} (tol 1e-4), "
            f"slowest model {slowest:.1f}s < 30s")


def test_criterion_07_frame_determinant(capsys):
    problems = []
    rng = np.random.default_rng(2718)
    t0 = time.perf_counter()
    n_charts = 0
    for name in MODEL_NAMES:
        model = get_model(name)
        for kind in ("generic", "polar"):
            chart = model.chart(kind)
            n_charts += 1
            if kind == "generic":
                # uniform box keeps every point inside the hyperbolic disk
                pts = rng.uniform(-0.35, 0.35, size=(100, chart.dim))
            elif chart.dim == 2:
                pts = np.column_stack([rng.uniform(0.2, 1.2, 100),
                                       rng.uniform(0.0, 2.0 * math.pi, 100)])
            else:
                pts = np.column_stack([
                    rng.uniform(0.2, 1.2, 100),
                    rng.uniform(0.2, math.pi - 0.2, 100),
                    rng.uniform(0.0, 2.0 * math.pi, 100)])
            for p in pts:
                det = frame_gram_det(chart, p)
                if abs(det - 1.0) > 1e-10:
                    problems.append(f"{chart.name}: det-1 = {det - 1.0:.2e}")
                    break
                if frame_det_w1(chart, p) != 1:
                    problems.append(f"{chart.name}: cochain value != 1")
                    break
    dt = time.perf_counter() - t0
    if dt >= 1.0:
        problems.append(f"runtime {dt:.2f}s >= 1s")
    _report(capsys, 7, problems,
            f"det=1 within 1e-10 at 100 points x {n_charts} charts "
            f"({dt:.2f}s < 1s)")


def test_criterion_08_constants(capsys):
    problems = []
    for k in range(1, 9):
        gamma_form = sphere_volume(2 * k)
        df_form = sphere_volume_double_factorial(k)
        rel = abs(gamma_form - df_form) / df_form
        if rel > 1e-12:
            problems.append(f"k={k}: relative gap {rel:.2e}")
    if abs(cgb_constant(1) - 2.0 * math.pi) > 1e-15 * 2.0 * math.pi:
        problems.append(f"cgb_1 = {cgb_constant(1)!r}")
    if abs(sphere_volume(2) - 4.0 * math.pi) > 1e-15 * 4.0 * math.pi:
        problems.append(f"omega_2 = {sphere_volume(2)!r}")
    _report(capsys, 8, problems,
            "omega_{2k} forms agree to 1e-12 (k=1..8); cgb_1=2pi; omega_2=4pi")


def test_criterion_09_gauss_equation(capsys):
    problems = []
    residuals = {}
    for name, tol in (("round-s3", 1e-3), ("flat-3", 1e-8)):
        model = get_model(name)
        worst = 0.0
        for k in range(20):
            ang = 2.0 * math.pi * k / 20.0
            p = 0.5 * np.array([math.cos(ang), math.sin(ang)])
            worst = max(worst, gauss_equation_check(model, p))
        residuals[name] = worst
        if worst > tol:
            problems.append(f"{name}: residual {worst:.2e} > {tol:.0e}")
    _report(capsys, 9, problems,
            f"equator residual {residuals['round-s3']:.1e} <= 1e-3, "
            f"flat {residuals['flat-3']:.1e} <= 1e-8 (20 points)")


def test_criterion_10_oracle_self_tests(capsys):
    problems = []
    for name in CORPUS_NAMES:
        X = corpus(name).complex()
        n = X.dim
        order = VertexOrder.numeric(X)
        # str hashes change from process to process; crc32 does not, so
        # every run draws the same trials and a failure can be replayed
        rng = np.random.default_rng(zlib.crc32(name.encode()))

        for _ in range(100):
            p = int(rng.integers(0, n))
            q = int(rng.integers(0, n - p))
            a = _random_cochain(rng, X, p)
            b = _random_cochain(rng, X, q)
            lhs = cup(X, order, a, b).coboundary()
            rhs = cup(X, order, a.coboundary(), b) \
                ^ cup(X, order, a, b.coboundary())
            if lhs != rhs:
                problems.append(f"{name}: cup Leibniz fails ({p},{q})")
                break
            d = int(rng.integers(1, n + 1))
            r = int(rng.integers(0, d))
            alpha = _random_cochain(rng, X, r)
            c = _random_cochain(rng, X, d)
            lhs = cap(X, order, alpha, c).boundary()
            rhs = cap(X, order, alpha.coboundary(), c) \
                ^ cap(X, order, alpha, c.boundary())
            if lhs != rhs:
                problems.append(f"{name}: cap Leibniz fails ({r},{d})")
                break

        H = mod2_homology(X)
        for d in range(n + 1):
            for bits in H.cohomology_basis(d):
                x = Chain(X, d, bits)
                if steenrod_sq(X, order, 0, x) != x:
                    problems.append(f"{name}: Sq^0 != id in degree {d}")
                if 0 < 2 * d <= n and \
                        steenrod_sq(X, order, d, x) != cup(X, order, x, x):
                    problems.append(f"{name}: Sq^{d} != square in degree {d}")
                if not steenrod_sq(X, order, d + 1, x).is_zero():
                    problems.append(f"{name}: Sq^{d + 1} != 0 in degree {d}")

        wu_a = wu_classes(X)
        if not wu_a.wu_vanishing_holds():
            problems.append(f"{name}: Wu vanishing fails")
        # w of a shuffled relabeling, pulled back to X: the classes under
        # another vertex order
        labels = list(range(X.n_simplices(0)))
        rng.shuffle(labels)
        Y, index = relabeled(X, labels)
        wu_b = wu_classes(Y)
        for k in range(n + 1):
            w_b = Chain(X, k, gather(wu_b.w[k].cocycle.bits, index[k],
                                     Y.n_simplices(k)))
            if not H.same_cocycle_class(wu_a.w[k].cocycle, w_b):
                problems.append(f"{name}: w{k} depends on the vertex order")
    _report(capsys, 10, problems,
            "Leibniz + Sq axioms (100 random trials/entry), Wu vanishing, "
            "order independence")
