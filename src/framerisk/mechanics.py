"""Closed-form collapse strengths of intact and damaged regular frames.

All functions return the ultimate distributed load intensity (kN/m) at which
the given mechanism forms: plastic hinge mechanisms for beams, brittle
crushing for columns.  Beam strengths optionally include a catenary
contribution through the dimensionless ``psi`` parameter.  Every strength is
homogeneous of degree one in its capacity argument.  An argument outside its
range, NaN and ±inf included, raises ``ValueError``.
"""

from __future__ import annotations

import enum

from .model import FrameGeometry, _check_range


class CollapseMode(enum.Enum):
    BENDING = "bending"
    LOCAL_PANCAKE = "local_pancake"
    GLOBAL_PANCAKE = "global_pancake"
    CATENARY = "catenary"


def intact_bending_strength(geom: FrameGeometry, b_y: float, psi: float = 0.0) -> float:
    """Triple-hinge mechanism of a single bay: 16*B_y/L^2, times (1 + psi/8)
    when catenary action is active."""
    _check_range("b_y", b_y, 0, strict=True)
    _check_range("psi", psi, 0, 4)
    return 16.0 * b_y / geom.L**2 * (1.0 + psi / 8.0)


def damaged_bending_strength(geom: FrameGeometry, b_y: float, n_rc: int, psi: float = 0.0) -> float:
    """Hinge mechanism of the beams bridging over ``n_rc`` lost columns.

    The effective-span rule uses n_rc * L^2 in the denominator, so strength
    falls off as 1/n_rc. Catenary action contributes a (1 + psi/4) factor.
    """
    _check_range("b_y", b_y, 0, strict=True)
    _check_range("psi", psi, 0, 4)
    _check_range("n_rc", n_rc, 1, geom.n_c - 2)
    return 4.0 * b_y / (n_rc * geom.L**2) * (1.0 + psi / 4.0)


def intact_pancake_strength(geom: FrameGeometry, r_c: float) -> float:
    """Static crushing of the ground-story columns of the intact frame."""
    _check_range("r_c", r_c, 0, strict=True)
    return r_c / geom.L * geom.n_c / (geom.n_s * (geom.n_c - 1))


def local_pancake_strength(geom: FrameGeometry, r_c: float, n_rc: int, n_rs: int) -> float:
    """Crushing of the two intact columns nearest the removed ones.

    The overload they pick up grows with the damaged width ``n_rc`` and
    shrinks with the vertical damage extent ``n_rs`` (fewer stories bearing
    on them).
    """
    _check_range("r_c", r_c, 0, strict=True)
    _check_range("n_rc", n_rc, 1, geom.n_c - 2)
    _check_range("n_rs", n_rs, 0, geom.n_s)
    share = 2.0 - (geom.n_c - 1) / geom.n_c + n_rc * (1.0 - n_rs / geom.n_s)
    return r_c / geom.L / (geom.n_s * share)


def global_pancake_strength(geom: FrameGeometry, r_c: float, n_rc: int, n_rs: int) -> float:
    """Brittle crushing of all remaining columns of the damaged frame.

    Reduces exactly to :func:`intact_pancake_strength` at ``n_rc = 0``.
    """
    _check_range("r_c", r_c, 0, strict=True)
    _check_range("n_rc", n_rc, 0, geom.n_c - 1)
    _check_range("n_rs", n_rs, 0, geom.n_s)
    num = geom.n_c * (geom.n_c - n_rc)
    den = (geom.n_c - 1) * (geom.n_c + n_rc) - 2.0 * (n_rs / geom.n_s) * n_rc * geom.n_c
    if den <= 0:
        raise ValueError(f"degenerate geometry: nonpositive load-share denominator ({den})")
    return r_c / (geom.L * geom.n_s) * num / den
