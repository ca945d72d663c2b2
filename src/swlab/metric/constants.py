"""Unit-sphere volumes and the curvature-integral constants.

omega_d is the d-dimensional hypersurface measure of the unit d-sphere.
The Gamma closed form is cross-checked against the double-factorial form
omega_{2k} = 2^{k+1} pi^k / (2k-1)!!; half of omega_{2k} is the value of
the k-fold curvature-form integral over a 2k-disk block.
"""
from __future__ import annotations

import math


def sphere_volume(d: int) -> float:
    """omega_d = 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def double_factorial(n: int) -> int:
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def sphere_volume_double_factorial(k: int) -> float:
    """omega_{2k} via the double-factorial identity (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2.0 ** (k + 1) * math.pi ** k / double_factorial(2 * k - 1)


def cgb_constant(k: int) -> float:
    """omega_{2k} / 2: the disk value of the k-fold curvature integral."""
    return sphere_volume(2 * k) / 2.0

