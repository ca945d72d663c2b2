from __future__ import annotations

import math

import pytest

from swlab.metric.constants import (
    cgb_constant,
    double_factorial,
    sphere_volume,
    sphere_volume_double_factorial,
)


def test_double_factorial_small_values():
    assert [double_factorial(k) for k in range(-1, 8)] == \
        [1, 1, 1, 2, 3, 8, 15, 48, 105]


def test_sphere_volumes_low_dimensions():
    assert sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_volume(3) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    assert sphere_volume(4) == pytest.approx(8.0 * math.pi ** 2 / 3.0, rel=1e-14)


def test_sphere_volume_rejects_bad_dimension():
    with pytest.raises(ValueError):
        sphere_volume(0)


def test_gamma_form_matches_double_factorial_form():
    # omega_{2k} = 2^{k+1} pi^k / (2k-1)!! in even dimensions
    for k in range(1, 9):
        gamma_form = sphere_volume(2 * k)
        df_form = sphere_volume_double_factorial(k)
        assert abs(gamma_form - df_form) / df_form < 1e-12, k


def test_cgb_constant():
    assert cgb_constant(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert cgb_constant(2) == pytest.approx(sphere_volume(4) / 2.0, rel=1e-15)
