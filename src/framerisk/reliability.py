"""Cornell reliability indexes for the intact and damaged frame.

The limit states are linear in one resistance variable (strength function
times a model-uncertainty factor) minus dead and live load, so the
second-moment index beta = E[g]/std[g] is exact for Gaussian inputs.  Live
load enters at one of two horizons: the 50-year extreme for the intact frame
and the sustained arbitrary-point-in-time level conditional on damage.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import mechanics
from .design import MemberDesign
from .mechanics import CollapseMode
from .model import DesignFactors, RandomVarStats, Scenario

SQRT2 = math.sqrt(2.0)

# Live-load horizons.
LIVE_50 = "50yr"
LIVE_APT = "apt"


def cornell_beta(
    r: float,
    resistance: RandomVarStats,
    dead: RandomVarStats,
    live: RandomVarStats,
) -> float:
    """Second-moment reliability index of R*r - D - L.

    ``r`` is the deterministic strength (kN/m), ``resistance`` the
    dimensionless model/material factor on it.
    """
    if r <= 0:
        raise ValueError(f"strength must be positive, got {r}")
    if resistance.mean <= 0:
        raise ValueError("resistance mean must be positive")
    try:
        return _moment_index(
            r, resistance.mean, resistance.std**2, dead.mean + live.mean, dead.std**2 + live.std**2, math.sqrt
        )
    except ZeroDivisionError:
        raise ValueError("degenerate statistics: all standard deviations are zero") from None


def _moment_index(r, mu_r, var_r, mu_l, var_l, sqrt):
    """Index of ``R*r - L`` from the resistance factor's mean and variance
    and the total load's mean and variance.

    Works elementwise on broadcast arrays when ``sqrt`` is ``np.sqrt``:
    :mod:`risk` calls it once per stacked block of index rows for the grid
    and once per failure probability for the trace.
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


def beta_set(scenario: Scenario, strengths: BetaSet, factors: DesignFactors, live: str) -> BetaSet:
    """Indexes of the modes whose unit-factor ``strengths`` come from
    :func:`unit_strengths`, at the design ``factors`` and the ``live``
    horizon: beam modes scale with ``lambda_b`` and take the beam resistance,
    column modes scale with ``lambda_c`` and take the column resistance."""
    loads = scenario.loads
    live_stats = {LIVE_50: loads.live_50, LIVE_APT: loads.live_apt}.get(live)
    if live_stats is None:
        raise ValueError(f"unknown live-load horizon {live!r}")
    beam, column, dead = loads.beam_resistance, loads.column_resistance, loads.dead
    lb, lc, pl = factors.lambda_b, factors.lambda_c, strengths.beta_pl
    return BetaSet(
        beta_b=cornell_beta(lb * strengths.beta_b, beam, dead, live_stats),
        beta_pg=cornell_beta(lc * strengths.beta_pg, column, dead, live_stats),
        beta_pl=None if pl is None else cornell_beta(lc * pl, column, dead, live_stats),
        beta_cat=cornell_beta(lb * strengths.beta_cat, beam, dead, live_stats),
    )


# The BetaSet field of each mode, in the row order of the study's index grid.
MODE_FIELDS = {
    CollapseMode.GLOBAL_PANCAKE: "beta_pg",
    CollapseMode.LOCAL_PANCAKE: "beta_pl",
    CollapseMode.BENDING: "beta_b",
    CollapseMode.CATENARY: "beta_cat",
}


def beta_intact(
    scenario: Scenario,
    design: MemberDesign,
    factors: DesignFactors,
    mode: CollapseMode,
    live: str = LIVE_50,
) -> float:
    """Reliability index of the intact frame (50-year horizon by default).

    Local pancake is undefined for the intact frame: with no removed
    columns there is no adjacent-column overload mechanism.
    """
    if mode is CollapseMode.LOCAL_PANCAKE:
        raise ValueError("local pancake is undefined for the intact frame")
    strengths = unit_strengths(scenario, design.b_y_0, design.r_c_0)
    return getattr(beta_set(scenario, strengths, factors, live), MODE_FIELDS[mode])


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
    strengths = unit_strengths(scenario, design.b_y_0, design.r_c_0, (n_rc, n_rs))
    return getattr(beta_set(scenario, strengths, factors, live), MODE_FIELDS[mode])
