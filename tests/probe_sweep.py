"""Hash 129 probe and calculus outputs into one sha256.

A refactor of the metric code that should change no number runs this on
the trees before and after it and compares the two lines it prints:

    PYTHONPATH=src python tests/probe_sweep.py          # the hash
    PYTHONPATH=src python tests/probe_sweep.py --each   # one line per output
    PYTHONPATH=src python tests/probe_sweep.py --expect HEX

With --expect the exit status is the gate: 0 when the printed hash is
HEX, 1 when it differs.

The outputs are

- disks and circles on the three 2-D models at eps 0.2 and 0.5, each at
  the default grid, at 64 rays and around an off-center point (36);
- a disk and a circle on each 2-D model's polar chart at (1, 1) (6);
- spheres on the three 3-D models at 16x32, at the default grid, around
  an off-center point and on the polar chart (12);
- `w3_limit` on the three 3-D models at 8x16 and 16x32 (6);
- on each of the 12 generic and polar charts, `curvature_many`, the
  geodesic spray, `geodesic_shoot_many` with and without `record`, and
  `metric` (60);
- `gauss_equation_check` at three points on each 3-D model (9).

Each output is encoded bit for bit (floats by `float.hex`, arrays by the
sha256 of their bytes, with shape and dtype); an output that raises is
its error type and message.  The file is not named test_*.py, so pytest
does not collect it.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
from functools import partial

import numpy as np

from swlab.errors import SWLabError
from swlab.metric import (MODEL_NAMES, calculus, curvature_many,
                          gauss_bonnet_disk, gauss_equation_check,
                          geodesic_shoot_many, get_model, sphere_area_probe,
                          w3_limit)

MODELS_2D = ("flat-2", "round-s2", "hyperbolic-2")
MODELS_3D = ("flat-3", "round-s3", "warped-3")


def _encode(obj) -> str:
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes())
        return f"array{obj.shape}{obj.dtype}:{digest.hexdigest()}"
    if isinstance(obj, float):
        return float(obj).hex()
    if dataclasses.is_dataclass(obj):
        return _encode({f.name: getattr(obj, f.name)
                        for f in dataclasses.fields(obj)})
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k!r}:{_encode(v)}"
                              for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_encode(v) for v in obj) + ")"
    return repr(obj)


def _on_chart(model, kind):
    """The model with its probes run on its `kind` chart."""
    return dataclasses.replace(
        model, charts={**model.charts, "generic": model.chart(kind)})


def _probes():
    for name in MODELS_2D:
        model = get_model(name)
        for eps in (0.2, 0.5):
            for label, kwargs in (("default", {}), ("64 rays", {"grid": 64}),
                                  ("off-center",
                                   {"center": (0.1, 0.05)})):
                for probe in (gauss_bonnet_disk, sphere_area_probe):
                    yield (f"{probe.__name__} {name} {eps} {label}",
                           partial(probe, model, eps, **kwargs))
        polar = _on_chart(model, "polar")
        for probe in (gauss_bonnet_disk, sphere_area_probe):
            yield (f"{probe.__name__} {name}/polar",
                   partial(probe, polar, 0.3, center=(1.0, 1.0), grid=128))
    for name in MODELS_3D:
        model = get_model(name)
        yield (f"sphere {name} 16x32",
               partial(sphere_area_probe, model, 0.2, grid=(16, 32)))
        yield f"sphere {name} default", partial(sphere_area_probe, model, 0.2)
        yield (f"sphere {name} off-center",
               partial(sphere_area_probe, model, 0.2,
                       center=(0.1, -0.05, 0.2), grid=(16, 32)))
        yield (f"sphere {name}/polar",
               partial(sphere_area_probe, _on_chart(model, "polar"), 0.2,
                       center=(1.0, math.pi / 2.0, 0.0), grid=(16, 32)))
        for grid in ((8, 16), (16, 32)):
            yield (f"w3_limit {name} {grid}",
                   partial(w3_limit, model, (0.4, 0.2, 0.1), grid=grid))


def _points(chart, rng, n=12):
    """n points inside the chart: a ball of radius 0.4 on a generic chart,
    r in [0.3, 1.2] and angles away from the poles on a polar one."""
    if chart.name.endswith("/polar"):
        cols = [rng.uniform(0.3, 1.2, n), rng.uniform(0.3, 2.8, n),
                rng.uniform(0.0, 6.0, n)][:chart.dim]
        return np.column_stack(cols)
    return rng.uniform(-0.4, 0.4, size=(n, chart.dim)) / math.sqrt(chart.dim)


def _calculus():
    for name in MODEL_NAMES:
        for kind in ("generic", "polar"):
            chart = get_model(name).chart(kind)
            rng = np.random.default_rng(sum(map(ord, chart.name)))
            x, v = _points(chart, rng), rng.normal(size=(12, chart.dim))
            yield (f"curvature_many {chart.name}",
                   partial(curvature_many, chart, x))
            yield (f"spray {chart.name}",
                   partial(calculus._spray, chart, x.T, v.T))
            for record in (False, True):
                yield (f"geodesic_shoot_many {chart.name} record={record}",
                       partial(geodesic_shoot_many, chart, x, v, 0.3,
                               h=0.3 / 8, record=record))
            yield f"metric {chart.name}", partial(chart.metric, x)
    for name in MODELS_3D:
        for p in ((0.5, 0.0), (0.1, -0.3), (-0.4, 0.25)):
            yield (f"gauss_equation_check {name} {p}",
                   partial(gauss_equation_check, get_model(name), p))


def sweep():
    """(label, encoded outcome) for each of the 129 outputs."""
    out = []
    for label, run in (*_probes(), *_calculus()):
        try:
            value = _encode(run())
        except SWLabError as exc:
            value = f"{type(exc).__name__}: {exc}"
        out.append((label, value))
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--each", action="store_true",
                        help="print one hash line per output first")
    parser.add_argument("--expect", metavar="HEX",
                        help="exit 1 unless the hash is HEX")
    args = parser.parse_args(argv)
    outputs = sweep()
    assert len(outputs) == 129, len(outputs)
    if args.each:
        for label, value in outputs:
            print(hashlib.sha256(value.encode()).hexdigest()[:16], label)
    text = "\n".join(f"{label}\t{value}" for label, value in outputs)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(digest)
    if args.expect is not None and digest != args.expect.lower():
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
