"""Cornell reliability indexes for the intact and damaged frame.

The limit states are linear in one resistance variable (strength function
times a model-uncertainty factor) minus dead and live load, so the
second-moment index beta = E[g]/std[g] is exact for Gaussian inputs.  Live
load enters at one of two horizons: the 50-year extreme for the intact frame
and the sustained arbitrary-point-in-time level conditional on damage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import mechanics
from .design import MemberDesign
from .mechanics import CollapseMode
from .model import DesignFactors, RandomVarStats, Scenario

if TYPE_CHECKING:
    import numpy as np

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

    Works elementwise on broadcast arrays when ``sqrt`` is ``np.sqrt``; the
    expected-cost walk in :mod:`risk` calls it once per failure probability.
    """
    return (r * mu_r - mu_l) / sqrt(r * r * var_r + var_l)


# The failure probability Phi(-beta) of an index, on floats and on broadcast
# arrays.  The two can differ in the last bit, so each path keeps to one:
# the scalar objective, and with it the optimizer's trajectories, to the
# float form and the grid to the array form.  Only the grid needs scipy, so
# ``ndtr`` is imported on the first array call.
def _pf_float(beta: float) -> float:
    return 0.5 * math.erfc(beta / SQRT2)


_ndtr = None


def _pf_array(beta: np.ndarray) -> np.ndarray:
    global _ndtr
    if _ndtr is None:
        from scipy.special import ndtr as _ndtr
    return _ndtr(-beta)


def _live_stats(scenario: Scenario, live: str) -> RandomVarStats:
    if live == LIVE_50:
        return scenario.loads.live_50
    if live == LIVE_APT:
        return scenario.loads.live_apt
    raise ValueError(f"unknown live-load horizon {live!r}")


def intact_strength(
    scenario: Scenario, design: MemberDesign, factors: DesignFactors, mode: CollapseMode
) -> float:
    """Intact-frame strength (kN/m) at the factored capacities."""
    geom = scenario.geometry
    if mode is CollapseMode.BENDING:
        return mechanics.intact_bending_strength(
            geom, factors.lambda_b * design.b_y_0, scenario.bending_psi()
        )
    if mode is CollapseMode.CATENARY:
        return mechanics.intact_bending_strength(
            geom, factors.lambda_b * design.b_y_0, scenario.psi
        )
    if mode is CollapseMode.GLOBAL_PANCAKE:
        return mechanics.intact_pancake_strength(geom, factors.lambda_c * design.r_c_0)
    raise ValueError(f"{mode.value} is not an intact-frame collapse mode")


def damaged_strength(
    scenario: Scenario,
    design: MemberDesign,
    factors: DesignFactors,
    n_rc: int,
    n_rs: int,
    mode: CollapseMode,
) -> float:
    """Damaged-frame strength (kN/m) with ``n_rc`` columns lost."""
    geom = scenario.geometry
    if mode is CollapseMode.BENDING:
        return mechanics.damaged_bending_strength(
            geom, factors.lambda_b * design.b_y_0, n_rc, scenario.bending_psi()
        )
    if mode is CollapseMode.CATENARY:
        return mechanics.damaged_bending_strength(
            geom, factors.lambda_b * design.b_y_0, n_rc, scenario.psi
        )
    if mode is CollapseMode.LOCAL_PANCAKE:
        return mechanics.local_pancake_strength(geom, factors.lambda_c * design.r_c_0, n_rc, n_rs)
    if mode is CollapseMode.GLOBAL_PANCAKE:
        return mechanics.global_pancake_strength(geom, factors.lambda_c * design.r_c_0, n_rc, n_rs)
    raise ValueError(f"unknown collapse mode {mode}")


def _resistance(scenario: Scenario, mode: CollapseMode) -> RandomVarStats:
    if mode in (CollapseMode.BENDING, CollapseMode.CATENARY):
        return scenario.loads.beam_resistance
    return scenario.loads.column_resistance


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
    r = intact_strength(scenario, design, factors, mode)
    return cornell_beta(r, _resistance(scenario, mode), scenario.loads.dead, _live_stats(scenario, live))


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
    r = damaged_strength(scenario, design, factors, n_rc, n_rs, mode)
    return cornell_beta(r, _resistance(scenario, mode), scenario.loads.dead, _live_stats(scenario, live))


@dataclass(frozen=True)
class BetaSet:
    """Reliability indexes of the competing collapse modes at one design
    point; ``beta_pl`` is None for the intact frame."""

    beta_b: float
    beta_pg: float
    beta_pl: float | None = None
    beta_cat: float | None = None


def beta_set_intact(scenario: Scenario, design: MemberDesign, factors: DesignFactors) -> BetaSet:
    """Indexes of the intact frame over the 50-year horizon."""
    return BetaSet(
        beta_b=beta_intact(scenario, design, factors, CollapseMode.BENDING),
        beta_pg=beta_intact(scenario, design, factors, CollapseMode.GLOBAL_PANCAKE),
        beta_pl=None,
        beta_cat=beta_intact(scenario, design, factors, CollapseMode.CATENARY),
    )


def beta_set_damaged(scenario: Scenario, design: MemberDesign, factors: DesignFactors) -> BetaSet:
    """Indexes given the scenario's initial damage, over the
    arbitrary-point-in-time horizon."""
    n_rc, n_rs = scenario.damage.n_rc0, scenario.damage.n_rs0
    return BetaSet(
        beta_b=beta_damaged(scenario, design, factors, n_rc, n_rs, CollapseMode.BENDING),
        beta_pg=beta_damaged(scenario, design, factors, n_rc, n_rs, CollapseMode.GLOBAL_PANCAKE),
        beta_pl=beta_damaged(scenario, design, factors, n_rc, n_rs, CollapseMode.LOCAL_PANCAKE),
        beta_cat=beta_damaged(scenario, design, factors, n_rc, n_rs, CollapseMode.CATENARY),
    )
