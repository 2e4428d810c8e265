"""Design-factor optimization and threshold damage probability.

The objective surface is cheap, two-dimensional and can carry two competing
local minima near the indifference region, so the minimizer is a fixed-grid
multi-start around a derivative-free simplex search.  The threshold local
damage probability is the root, in log10(p_ld), of the optimal conditional
bending reliability index: above it, strengthening for element removal
carries real margin; below it the optimum degenerates toward normal design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import FACTOR_BOUNDS, DesignFactors, Scenario, _derived, validate
from .reliability import LIVE_50, LIVE_APT, BetaSet, beta_set
from .risk import RiskModel
from .simplex import minimize

# the floats of np.linspace(0.2, 2.5, 5), bit for bit
START_GRID = tuple(0.2 + i * ((2.5 - 0.2) / 4) for i in range(5))
XTOL = 1e-4
FTOL = 1e-8

LOG10_P_RANGE = (-6.0, 0.0)
LOG10_P_TOL = 0.01

ALWAYS_STRENGTHEN = "always-strengthen"
NEVER_STRENGTHEN = "never-strengthen"
BRACKETED = "bracketed"


class OptimizationError(RuntimeError):
    """The objective was not finite at any start point: kept for callers, though ``validate``
    and a model's check of its design prove the objective finite over FACTOR_BOUNDS."""


@dataclass(frozen=True)
class OptimizationResult:
    factors: DesignFactors
    c_te: float
    beta_damaged: BetaSet  # conditional on the initial damage, apt live load
    beta_intact: BetaSet  # intact frame, 50-year live load
    starts_used: int
    converged: bool  # the winning start's search met its tolerances
    evaluations: int  # objective calls, start-point checks included
    converged_starts: int  # starts whose search met its tolerances
    memo_hits: int  # objective calls answered from the memo of the model handed in


@dataclass(frozen=True)
class ThresholdResult:
    """Root of the optimal bending reliability index over p_ld.

    ``status`` is ``bracketed`` when a sign change exists on the search
    interval (then ``p_th`` holds the root), otherwise one of
    ``always-strengthen`` (index positive everywhere, strengthening pays at
    any threat level) or ``never-strengthen`` (negative everywhere).
    """

    status: str
    p_th: float | None
    evaluations: int  # objective calls, summed over the probes
    memo_hits: int  # of which answered from the memo
    # (log10_p, solve) per probe, in probe order: the range's ends first, then the midpoints
    probes: tuple[tuple[float, OptimizationResult], ...]
    bracket: tuple[float, float]  # the final (lo, hi) in log10_p


def _clamp(x: float) -> float:
    lo, hi = FACTOR_BOUNDS
    return lo if x < lo else hi if x > hi else x


def _checked(scenario: Scenario, model: RiskModel) -> RiskModel:
    """``model``, if it was built for ``scenario`` at some ``p_ld``; ``scenario`` then takes
    the model's sizing and tables, which do not depend on ``p_ld``, and is validated."""
    if replace(scenario, p_ld=model.p_ld) != model.scenario:
        raise ValueError("the model was built for another scenario than the one handed in")
    record, lent = _derived(scenario), _derived(model.scenario)
    if record.sizing is None:
        record.sizing, record.tables = lent.sizing, lent.tables
    validate(scenario)
    return model


def minimize_total_cost(scenario: Scenario, *, model: RiskModel | None = None) -> OptimizationResult:
    """Best local minimum of the total expected cost over the design factors.

    Deterministic: fixed 5x5 start grid, simplex search per start, ties
    broken by objective value then lexicographic factors.  Every call goes
    to one :meth:`RiskModel.objective`, clamped to ``FACTOR_BOUNDS``.  A
    design other than the scenario's own sizing enters through ``model``,
    a prebuilt ``RiskModel`` of the scenario at any ``p_ld``, which also
    lends its memo: the solve answers each point it, or an earlier solve on
    it, has seen from there; a model of another scenario raises ``ValueError``.
    A solve handed no model builds its own on the default design and keeps
    no memo: a lone search revisits too few points to pay for one.
    """
    model, memo = (RiskModel(scenario), None) if model is None else (_checked(scenario, model), model.memo)
    seen = 0 if memo is None else len(memo)
    objective = model.objective(scenario.p_ld, memo, FACTOR_BOUNDS)
    best: tuple[float, float, float] | None = None
    best_converged = False
    starts_used = evaluations = converged_starts = 0
    for lb0 in START_GRID:
        for lc0 in START_GRID:
            evaluations += 1
            if not math.isfinite(objective(lb0, lc0)):  # START_GRID lies in FACTOR_BOUNDS
                continue
            starts_used += 1
            res = minimize(objective, (lb0, lc0), xatol=XTOL, fatol=FTOL, maxfev=2000)
            evaluations += res.nfev
            converged_starts += res.success
            cand = (res.fun, _clamp(res.x[0]), _clamp(res.x[1]))
            if best is None or cand < best:
                best = cand
                best_converged = res.success
    if best is None:
        raise OptimizationError("objective is non-finite at every start point")
    c_te, lam_b, lam_c = best
    factors = DesignFactors(lam_b, lam_c)
    return OptimizationResult(
        factors=factors,
        c_te=c_te,
        beta_damaged=beta_set(scenario, model.table.stage_strengths[0], factors, LIVE_APT),
        beta_intact=beta_set(scenario, model.table.intact_strengths, factors, LIVE_50),
        starts_used=starts_used,
        converged=best_converged,
        evaluations=evaluations,
        converged_starts=converged_starts,
        memo_hits=0 if memo is None else evaluations - (len(memo) - seen),
    )


def threshold_probability(scenario: Scenario, *, model: RiskModel | None = None) -> ThresholdResult:
    """Bisection on log10(p_ld) for the zero of the optimal bending index.

    Every evaluation runs the full multi-start so basin hopping near the
    indifference point resolves the same way at every probe.  All probes
    share one model and its memo: ``model``, through which a design other
    than the scenario's own sizing enters, or one built here on the default
    design.  A model of another scenario, ``p_ld`` aside, raises ``ValueError``.
    """
    frame = RiskModel(scenario) if model is None else _checked(scenario, model)
    probes: list[tuple[float, OptimizationResult]] = []

    def beta_b_at_optimum(log10_p: float) -> float:
        probes.append((log10_p, minimize_total_cost(replace(scenario, p_ld=10.0**log10_p), model=frame)))
        return probes[-1][1].beta_damaged.beta_b

    lo, hi = LOG10_P_RANGE
    g_lo, g_hi = beta_b_at_optimum(lo), beta_b_at_optimum(hi)
    status, p_th = BRACKETED, None
    if g_lo > 0.0 and g_hi > 0.0:
        status = ALWAYS_STRENGTHEN
    elif g_lo < 0.0 and g_hi < 0.0:
        status = NEVER_STRENGTHEN
    else:
        while hi - lo > LOG10_P_TOL:
            mid = 0.5 * (lo + hi)
            if (beta_b_at_optimum(mid) < 0.0) == (g_lo < 0.0):
                lo = mid
            else:
                hi = mid
        p_th = 10.0 ** (0.5 * (lo + hi))
    evaluations, memo_hits = sum(p.evaluations for _, p in probes), sum(p.memo_hits for _, p in probes)
    return ThresholdResult(status, p_th, evaluations, memo_hits, tuple(probes), (lo, hi))
