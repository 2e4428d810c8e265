"""Cornell reliability indexes for the intact and damaged frame.

The limit states are linear in one resistance variable (strength function
times a model-uncertainty factor) minus dead and live load, so the
second-moment index beta = E[g]/std[g] is exact for Gaussian inputs.  Live
load enters at one of two horizons: the 50-year extreme for the intact frame
and the sustained arbitrary-point-in-time level conditional on damage.

Every scalar index comes from one routine, :func:`_mode_indexes`, on the
floats of a validated :meth:`LoadModel.moments`, which the scenario's record
keeps: :func:`beta_set`, which :func:`beta_damaged` calls, validates its
scenario, checks its raw strengths and the indexes they give, and passes the
record's moments; :meth:`RiskModel.trace` and the study's index grid pass
their validated moments straight in.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import mechanics
from .design import MemberDesign
from .mechanics import CollapseMode
from .model import DesignFactors, Scenario, _check_factors, _derived, validate

SQRT2 = math.sqrt(2.0)

# Live-load horizons.
LIVE_50 = "50yr"
LIVE_APT = "apt"

# Where each horizon's load mean sits in LoadModel.moments(); its variance follows.
_LOAD_MOMENTS = {LIVE_50: 4, LIVE_APT: 6}


def _moment_index(r, mu_r, var_r, mu_l, var_l, sqrt):
    """Index of ``R*r - L`` from the resistance factor's mean and variance
    and the total load's mean and variance.

    Works elementwise on broadcast arrays when ``sqrt`` is ``np.sqrt``:
    :mod:`risk` calls it once per stacked block of index rows for the grid,
    and :func:`_mode_indexes` once per mode on floats.
    """
    return (r * mu_r - mu_l) / sqrt(r * r * var_r + var_l)


def _pf_float(beta: float) -> float:
    """The failure probability Phi(-beta) of an index."""
    return 0.5 * math.erfc(beta / SQRT2)


class BetaSet(NamedTuple):
    """Reliability indexes of the competing collapse modes at one design
    point, or their unit-factor strengths (kN/m) from :func:`unit_strengths`;
    ``beta_pl`` is None for the intact frame."""

    beta_b: float
    beta_pg: float
    beta_pl: float | None = None
    beta_cat: float | None = None


def unit_strengths(
    scenario: Scenario, b_y: float, r_c: float, damage: tuple[int, int] | None = None
) -> BetaSet:
    """Strengths of every mode of the frame with beam moment ``b_y`` and
    column capacity ``r_c``: intact, or with ``damage = (n_rc, n_rs)`` lost
    (a damaged frame needs ``n_rc >= 1``).  Bending takes catenary action
    only where the scenario includes it; the catenary mode always does.
    Every strength is homogeneous of degree one in its capacity, so a design
    factor scales it in :func:`beta_set`.
    """
    g = scenario.geometry
    # (beta_b, beta_pg, beta_pl, beta_cat) by position: a NamedTuple takes
    # keywords about 0.2 us slower, and validate and the build call this once per stage
    if damage is None:
        return BetaSet(
            mechanics.intact_bending_strength(g, b_y, scenario.bending_psi()),
            mechanics.intact_pancake_strength(g, r_c),
            None,
            mechanics.intact_bending_strength(g, b_y, scenario.psi),
        )
    n_rc, n_rs = damage
    return BetaSet(
        mechanics.damaged_bending_strength(g, b_y, n_rc, scenario.bending_psi()),
        mechanics.global_pancake_strength(g, r_c, n_rc, n_rs),
        mechanics.local_pancake_strength(g, r_c, n_rc, n_rs),
        mechanics.damaged_bending_strength(g, b_y, n_rc, scenario.psi),
    )


def _mode_indexes(moments: tuple[float, ...], strengths: BetaSet, factors: DesignFactors, live: str) -> BetaSet:
    """Indexes of the modes whose unit-factor ``strengths`` come from
    :func:`unit_strengths`, at the design ``factors`` and the ``live``
    horizon, from the floats of a validated :meth:`LoadModel.moments`: beam
    modes scale with ``lambda_b`` and take the beam resistance, column modes
    scale with ``lambda_c`` and take the column resistance.  A NaN factor gives NaN."""
    k = _LOAD_MOMENTS.get(live)
    if k is None:
        raise ValueError(f"unknown live-load horizon {live!r}")
    mu_rb, var_rb, mu_rc, var_rc = moments[:4]
    mu_l, var_l = moments[k], moments[k + 1]
    lb, lc, pl = factors.lambda_b, factors.lambda_c, strengths.beta_pl
    r_b, r_pg, r_cat = lb * strengths.beta_b, lc * strengths.beta_pg, lb * strengths.beta_cat
    r_pl = None if pl is None else lc * pl
    try:
        betas = BetaSet(
            _moment_index(r_b, mu_rb, var_rb, mu_l, var_l, math.sqrt),
            _moment_index(r_pg, mu_rc, var_rc, mu_l, var_l, math.sqrt),
            None if r_pl is None else _moment_index(r_pl, mu_rc, var_rc, mu_l, var_l, math.sqrt),
            _moment_index(r_cat, mu_rb, var_rb, mu_l, var_l, math.sqrt),
        )
    except ZeroDivisionError:
        raise ValueError("degenerate statistics: an index's total variance is zero") from None
    _check_factors(lb, lc)  # after the indexes, which report a zero variance at any factor
    return betas


def beta_set(scenario: Scenario, strengths: BetaSet, factors: DesignFactors, live: str) -> BetaSet:
    """Indexes of the modes whose unit-factor ``strengths`` come from
    :func:`unit_strengths`, at the design ``factors`` and the ``live``
    horizon, by :func:`_mode_indexes` on the moments of ``scenario``, which
    it validates.  The strengths and factors it checks as raw numbers, and
    raises ``ValueError`` unless each strength is positive and finite (NaN
    is neither) and, at factors that are not NaN, every index and the
    variance under it are finite: from about 1e154 a factored strength's
    variance overflows, and its index would read a silent 0.0.  A NaN factor
    gives NaN indexes."""
    moments = _derived(validate(scenario)).moments
    if not all(0.0 < s < math.inf for s in strengths if s is not None):
        raise ValueError(f"unit strengths must be positive and finite, got {strengths}")
    betas = _mode_indexes(moments, strengths, factors, live)
    lb, lc = factors.lambda_b, factors.lambda_c
    if lb == lb and lc == lc:
        # each index's variance rises with its strength: the largest of each resistance bounds the others
        var_l = moments[_LOAD_MOMENTS[live] + 1]
        beam = lb * max(strengths.beta_b, strengths.beta_cat)
        column = lc * max(strengths.beta_pg, strengths.beta_pl or 0.0)
        if not (math.isfinite(beam * beam * moments[1] + var_l) and math.isfinite(column * column * moments[3] + var_l)
                and all(math.isfinite(beta) for beta in betas if beta is not None)):
            raise ValueError(f"strengths {strengths} at {factors} give an index or its variance beyond float range")
    return betas


# The BetaSet field of each mode, in the row order of the study's index grid.
MODE_FIELDS = {
    CollapseMode.GLOBAL_PANCAKE: "beta_pg",
    CollapseMode.LOCAL_PANCAKE: "beta_pl",
    CollapseMode.BENDING: "beta_b",
    CollapseMode.CATENARY: "beta_cat",
}


def beta_damaged(
    scenario: Scenario,
    design: MemberDesign,
    factors: DesignFactors,
    n_rc: int,
    n_rs: int,
    mode: CollapseMode,
    live: str = LIVE_APT,
) -> float:
    """Conditional reliability index given ``n_rc`` lost columns
    (arbitrary-point-in-time live load by default)."""
    strengths = unit_strengths(validate(scenario), design.b_y_0, design.r_c_0, (n_rc, n_rs))
    return getattr(beta_set(scenario, strengths, factors, live), MODE_FIELDS[mode])
