"""Riemannian side: model geometries, chart calculus, and geodesic probes."""
from __future__ import annotations

from .calculus import (
    CurvatureData,
    christoffel_many,
    curvature_many,
    frame_det_w1,
    frame_gram_det,
    g_inner,
    g_norms,
    gauss_equation_check,
    geodesic_shoot_many,
    metric_jet,
    restricted_chart,
)
from .charts import (
    MODEL_NAMES,
    MODELS,
    ConformalChart,
    MetricChart,
    ModelGeometry,
    get_model,
)
from .constants import (
    cgb_constant,
    double_factorial,
    sphere_volume,
    sphere_volume_double_factorial,
)
from .probes import (
    GaussBonnetResult,
    ProbeResult,
    gauss_bonnet_disk,
    sphere_area_probe,
    w3_limit,
)

__all__ = [
    "ConformalChart",
    "CurvatureData",
    "GaussBonnetResult",
    "MODELS",
    "MODEL_NAMES",
    "MetricChart",
    "ModelGeometry",
    "ProbeResult",
    "cgb_constant",
    "christoffel_many",
    "curvature_many",
    "double_factorial",
    "frame_det_w1",
    "frame_gram_det",
    "g_inner",
    "g_norms",
    "gauss_bonnet_disk",
    "gauss_equation_check",
    "geodesic_shoot_many",
    "get_model",
    "metric_jet",
    "restricted_chart",
    "sphere_area_probe",
    "sphere_volume",
    "sphere_volume_double_factorial",
    "w3_limit",
]
