"""Expected-cost engine: mode probabilities, progression chain, objective.

Given local damage, three collapse events compete at every damage extent:
bending of the bridging beams (ductile, self-arresting), local pancake of
the two adjacent columns (brittle, propagates two columns at a time), and
global pancake of the whole frame.  The total expected cost combines

* construction cost at the trial design factors,
* expected collapse cost of the intact frame under normal loading
  (ductile and brittle multipliers on the base construction cost), and
* the local-damage branch: initial damage cost plus the maximum expected
  cost among the competing events at the initial extent and at every
  reachable propagation extent (the propagation extents are weighted by
  the probability that local pancake has advanced that far).

Failure probabilities come from the conditional reliability indexes; failure
costs are held at unit design factors so only construction cost and the
probabilities respond to the design variables.

``RiskModel`` precomputes everything that does not depend on the design
factors, which makes a single objective evaluation cheap enough for dense
grids and multi-start optimization.  What depends only on the scenario and
the design, :func:`precomputed` computes once and keeps on the scenario
instance, where ``validate``, every build and the study tables read it; a
model reads it as ``RiskModel.table``, whose ``chain``, never empty, is
the one per-stage table.  The chain is read in three forms, each with its
measured reason.  Every scalar number comes from one closure built by
``RiskModel.objective``, which clamps, reads the memo and runs the float
kernel, the walk's arithmetic written out in one frame with an exact exit
against one cap: a solve calls it, and :meth:`RiskModel.breakdown` reads
its terms from the memo entry of one call.  :meth:`RiskModel.trace` keeps a
row per stage from ``_walk`` on floats, with no numpy.  The vectorized grid
folds the chain over stacked per-stage rows, each of one factor, with the
same bits as the walk at every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from . import costs as costmod
from .design import MemberDesign, design_members
from .model import DesignFactors, Scenario, ValidationError, _check_factors, _derived, _design_violations, validate
from .reliability import SQRT2, BetaSet, _moment_index, _pf_float, unit_strengths

if TYPE_CHECKING:
    import numpy as np


class ProgressionRow(NamedTuple):
    """One damage extent of the progression chain, a row of
    :meth:`RiskModel.trace` and of the trace table as it stands.

    ``chain_probability`` is the weight the objective applies to this row's
    stage cost: 1 for the initial (given) event, and the probability that
    local pancake has propagated to this extent and advances at it for later
    rows.  ``pairwise_weight`` is the two-factor variant using only the
    previous and current advance probabilities; ``reach_probability`` is the
    probability that damage has reached this extent at all.
    ``expected_cost`` is the weighted stage cost; the largest over the rows
    is the damage branch.
    """

    n_fc: int
    p_b: float
    p_pl: float
    p_pg: float
    c_b: float
    c_pl: float
    c_pg: float
    chain_probability: float
    pairwise_weight: float
    reach_probability: float
    stage_expected_cost: float
    expected_cost: float
    dominant_mode: str


@dataclass(frozen=True)
class ExpectedCost:
    """The terms of the total expected cost at one design point.

    ``total = construction + normal_loading + p_ld * (initial_damage +
    damage_branch)``: the intact frame's expected collapse cost under normal
    loading, and, given local damage, its own cost plus the largest
    chain-weighted expected collapse cost (see :meth:`RiskModel.damage_branch`).
    """

    construction: float
    normal_loading: float
    initial_damage: float
    damage_branch: float
    total: float


class Precomputed(NamedTuple):
    """The numbers of a :class:`RiskModel` that depend only on its scenario
    and design: unit strengths (they scale linearly with the factors), the
    chain's one table ``(a_b, a_pl, a_pg, c_b, c_pl)`` per stage with its
    cap, and the construction and failure costs.  Failure costs of the
    whole frame are held at unit design factors."""

    nlc_strengths: BetaSet  # the normal-condition intact frame
    intact_strengths: BetaSet  # the strengthened intact frame
    stages: range
    stage_strengths: tuple[BetaSet, ...]  # the strengthened frame at each stage
    chain: tuple[tuple[float, float, float, float, float], ...]
    cap: float
    construction: tuple[float, float, float]  # (c0, cb, cc), affine in the factors
    c_pg: float
    c_nlc_bending: float
    c_id: float


def precomputed(scenario: Scenario, design: MemberDesign) -> Precomputed:
    """The :class:`Precomputed` numbers of ``scenario`` and ``design``,
    computed once per scenario instance and design value and kept on the
    instance's record (see :class:`Scenario`), as :func:`functools.cached_property`
    keeps its value: a scenario is frozen, so they never go stale.
    ``dataclasses.replace`` starts a new instance with none unless a solve lends it
    its model's; ``validate`` fills it for the sizing."""
    tables = _derived(scenario).tables
    table = tables.get(design)
    if table is None:
        cp, n_rs0 = scenario.costs, scenario.damage.n_rs0
        stages, stage_strengths, chain = scenario.chain_stages(), [], []
        bending_cost, local_cost = costmod.bending_collapse_cost, costmod.local_pancake_cost
        for j in stages:
            s = unit_strengths(scenario, design.b_y_0, design.r_c_0, (j, n_rs0))
            stage_strengths.append(s)
            chain.append(
                (s.beta_b, s.beta_pl, s.beta_pg, bending_cost(scenario, design, j), local_cost(scenario, design, j))
            )
        c0, cb, cc = costmod.construction_coefficients(scenario, design)
        c_unit = c0 + cb * 1.0 + cc * 1.0  # RiskModel.construction(1.0, 1.0)
        c_pg = cp.k_brittle * c_unit
        table = tables[design] = Precomputed(
            unit_strengths(scenario, design.b_y_nlc, design.r_c_nlc),
            unit_strengths(scenario, design.b_y_0, design.r_c_0),
            stages,
            tuple(stage_strengths),
            tuple(chain),
            # The objective's one cap, >= 0 and >= every cost after the initial
            # extent, bounds the stages not yet costed at every check; costs
            # never fall along the chain, so no cap over fewer stages would be lower.
            max(0.0, c_pg, *(c for stage in chain[1:] for c in stage[3:])),
            (c0, cb, cc),
            c_pg,
            cp.k_ductile * c_unit,
            costmod.initial_damage_cost(scenario),
        )
    return table


class RiskModel:
    """Expected-cost evaluator for one validated scenario and design, on its moments and precomputed table.
    A design other than the scenario's own sizing must pass the rules ``validate`` holds the sizing to."""

    def __init__(self, scenario: Scenario, design: MemberDesign | None = None):
        record = _derived(validate(scenario))
        self.scenario, self.moments = scenario, record.moments
        if design is None:
            design = design_members(scenario)
        elif design != record.sizing and (found := _design_violations(scenario, design, self.moments)):
            raise ValidationError(found)
        self.design = design
        self.table = table = precomputed(scenario, self.design)
        self.p_ld, self.c_pg, self.stages = scenario.p_ld, table.c_pg, table.stages
        # (normal, branch) per factor pair, the kernel's terms free of p_ld:
        # solve objectives read and fill it, nothing else does
        self.memo: dict[tuple[float, float], tuple[float, float]] = {}

    # -- the progression chain ---------------------------------------------

    def _walk(self, probs):
        """Yield ``(terms, weight, reach)`` per stage from its float failure
        probabilities ``(p_b, p_pl, p_pg)`` in ``probs``: the walk behind
        :meth:`trace`'s rows, whose arithmetic the kernel and the grid's fold keep.

        ``terms`` are the expected costs of bending, local pancake and
        global pancake.  At the initial extent the damage is given, so every
        term carries its probability and the weight is 1.  At later extents
        the local-pancake cost is left unweighted because its advance
        probability sits in the chain weight ``reach * p_pl``, where
        ``reach`` is the probability that damage got this far at all.
        """
        c_pg = self.table.c_pg
        reach = None  # until the initial extent is done
        for (p_b, p_pl, p_pg), (_, _, _, c_b, c_pl) in zip(probs, self.table.chain):
            if reach is None:
                yield (p_b * c_b, p_pl * c_pl, p_pg * c_pg), 1.0, 1.0
                reach = p_pl
            else:
                yield (p_b * c_b, c_pl, p_pg * c_pg), reach * p_pl, reach
                reach = reach * p_pl

    # -- entry points ------------------------------------------------------

    def construction(self, lambda_b: float, lambda_c: float) -> float:
        c0, cb, cc = self.table.construction
        return c0 + cb * lambda_b + cc * lambda_c

    def objective(self, p_ld: float, memo: dict | None = None, bounds: tuple[float, float] = (-math.inf, math.inf)):
        """The total expected cost at ``p_ld`` as a function of the design
        factors, built once per solve.  In one frame it clamps each factor into
        ``bounds``, answers from ``memo`` the pairs it holds, or runs the float
        kernel and stores its terms ``(normal, branch)``, which hold at any
        ``p_ld``.  Either way it returns ``construction + normal + p_ld * (c_id
        + branch)``, added left to right.

        The kernel is the walk's arithmetic in its order, with ``y if y > x
        else x`` for the builtin ``max(x, y)``, so it has the walk's bits.  It
        stops once no stage not yet costed, weighted by at most the reach into
        it and costing at most the model's one cap, can beat ``best``: float
        ``*`` and ``max`` are monotone, so the exits are exact.  The initial
        extent, which mostly ends the walk, is written out before the loop.
        Past it the bound is checked as soon as ``p_pl`` gives the reach, and
        bending's probability is left out where ``t_b <= c_b <= top``.
        """
        sqrt, erfc, sqrt2, (lo, hi), table = math.sqrt, math.erfc, SQRT2, bounds, self.table
        mu_rb, var_rb, mu_rc, var_rc, mu_l, var_l, mu_la, var_la = self.moments
        a_b50, a_pg50 = table.intact_strengths.beta_b, table.intact_strengths.beta_pg
        (const_0, const_b, const_c), c_nlc, c_pg, c_id = table.construction, table.c_nlc_bending, table.c_pg, table.c_id
        first, *later = table.chain
        cap = table.cap

        def total(lambda_b: float, lambda_c: float) -> float:
            lb = lo if lambda_b < lo else hi if lambda_b > hi else lambda_b
            lc = lo if lambda_c < lo else hi if lambda_c > hi else lambda_c
            if memo is not None and (parts := memo.get((lb, lc))) is not None:
                normal, best = parts
                return const_0 + const_b * lb + const_c * lc + normal + p_ld * (c_id + best)
            r = a_b50 * lb
            pf_b = 0.5 * erfc((r * mu_rb - mu_l) / sqrt(r * r * var_rb + var_l) / sqrt2)
            r = a_pg50 * lc
            pf_pg = 0.5 * erfc((r * mu_rc - mu_l) / sqrt(r * r * var_rc + var_l) / sqrt2)
            normal = c_nlc * pf_b + c_pg * pf_pg
            # the initial extent: weight 1, every term weighted
            a_b, a_pl, a_pg, c_b, c_pl = first
            r = a_pl * lc
            reach = 0.5 * erfc((r * mu_rc - mu_la) / sqrt(r * r * var_rc + var_la) / sqrt2)
            r = a_b * lb
            t_b = 0.5 * erfc((r * mu_rb - mu_la) / sqrt(r * r * var_rb + var_la) / sqrt2) * c_b
            r = a_pg * lc
            t_pg = 0.5 * erfc((r * mu_rc - mu_la) / sqrt(r * r * var_rc + var_la) / sqrt2) * c_pg
            t_pl = reach * c_pl
            top = t_pg if t_pg > t_pl else t_pl
            best = top if top > t_b else t_b
            if not reach * cap <= best:  # a NaN walks on
                # later extents: local pancake's advance probability is in the weight
                for a_b, a_pl, a_pg, c_b, c_pl in later:
                    r = a_pl * lc
                    reach = reach * (0.5 * erfc((r * mu_rc - mu_la) / sqrt(r * r * var_rc + var_la) / sqrt2))
                    if reach * cap <= best:
                        break
                    r = a_pg * lc
                    t_pg = 0.5 * erfc((r * mu_rc - mu_la) / sqrt(r * r * var_rc + var_la) / sqrt2) * c_pg
                    top = t_pg if t_pg > c_pl else c_pl
                    if c_b > top:
                        r = a_b * lb
                        t_b = 0.5 * erfc((r * mu_rb - mu_la) / sqrt(r * r * var_rb + var_la) / sqrt2) * c_b
                        top = top if top > t_b else t_b
                    stage = reach * top
                    best = stage if stage > best else best
            if memo is not None:
                memo[lb, lc] = normal, best
            return const_0 + const_b * lb + const_c * lc + normal + p_ld * (c_id + best)

        return total

    def damage_branch(self, lambda_b: float, lambda_c: float) -> float:
        """Maximum expected collapse cost over the progression chain."""
        return self.breakdown(lambda_b, lambda_c).damage_branch

    def evaluate(self, lambda_b: float, lambda_c: float) -> float:
        """Total expected cost at the given design factors and the model's ``p_ld``."""
        return self.breakdown(lambda_b, lambda_c).total

    def breakdown(self, lambda_b: float, lambda_c: float) -> ExpectedCost:
        """The terms of the total expected cost at the given design factors,
        read from the memo entry of one call of an unbounded :meth:`objective`,
        so the record's ``total`` is the objective's by construction."""
        _check_factors(lambda_b, lambda_c)
        memo: dict = {}
        total = self.objective(self.p_ld, memo)(lambda_b, lambda_c)
        ((normal, branch),) = memo.values()
        return ExpectedCost(self.construction(lambda_b, lambda_c), normal, self.table.c_id, branch, total)

    def evaluate_grid(self, lambda_b: np.ndarray, lambda_c: np.ndarray) -> np.ndarray:
        """Objective on the outer grid of the two factor vectors.

        Returns an array of shape ``(len(lambda_b), len(lambda_c))``; used
        for brute-force minima and for surface plots.  Each index depends on
        one factor, so the index rows of each factor are stacked and
        ``math.erfc`` maps once over both blocks.  The chain is then folded
        over every stage's rows: the weights ``reach * p_pl`` are one running
        product of the ``p_pl`` rows, and as rounding is monotone, ``w *
        max(a, b)`` has the bits of ``max(w * a, w * b)`` for ``w >= 0``, so
        the largest stage cost is the larger of a ``lambda_c``-only part
        ``max_j w_j * max(t_pl_j, t_pg_j)`` and a bending part ``max_j w_j *
        t_b_j`` over the grid, taken 8 stages a block so that no temporary
        holds more than 8 grids.  Every point has the bits of
        :meth:`evaluate`, NaN where it is NaN.  As there, a factor outside
        ``[FACTOR_BOUNDS[0], MAX_FACTOR]`` raises ``ValueError``, here before
        any arithmetic.  Only the grid needs numpy, so it is imported here.
        """
        import numpy as np

        lb, lc = np.asarray(lambda_b, dtype=float), np.asarray(lambda_c, dtype=float)
        _check_factors(*lb.tolist(), *lc.tolist())
        table, (mu_rb, var_rb, mu_rc, var_rc, mu_l50, var_l50, mu_lapt, var_lapt) = self.table, self.moments
        n = len(table.chain)
        a_b, a_pl, a_pg, c_b, c_pl = zip(*table.chain)
        mu_l = np.array([mu_l50] + [mu_lapt] * 2 * n)[:, None]
        var_l = np.array([var_l50] + [var_lapt] * 2 * n)[:, None]
        r_b = np.array([table.intact_strengths.beta_b, *a_b])[:, None] * lb
        r_c = np.array([table.intact_strengths.beta_pg, *a_pl, *a_pg])[:, None] * lc
        beta_b = _moment_index(r_b, mu_rb, var_rb, mu_l[: n + 1], var_l[: n + 1], np.sqrt)
        beta_c = _moment_index(r_c, mu_rc, var_rc, mu_l, var_l, np.sqrt)
        x = np.concatenate((beta_b.ravel(), beta_c.ravel())) / SQRT2
        pf = 0.5 * np.fromiter(map(math.erfc, x.tolist()), float, x.size)
        pf_b = pf[: r_b.size].reshape(n + 1, len(lb))
        pf_c = pf[r_b.size :].reshape(2 * n + 1, len(lc))
        # the walk's weights: 1 at the initial extent, then reach * p_pl, the running product of p_pl
        weight = np.multiply.accumulate(pf_c[1 : n + 1])
        weight[0] = 1.0
        t_pg = pf_c[n + 1 :] * table.c_pg
        top = np.maximum(np.array(c_pl)[:, None], t_pg)
        top[0] = np.maximum(pf_c[1] * c_pl[0], t_pg[0])  # the initial extent weights local pancake too
        best = (weight * top).max(axis=0)  # the lambda_c-only part
        t_b = pf_b[1:] * np.array(c_b)[:, None]
        for k in range(0, n, 8):  # at most 8 grids a block, so a catalog or screen frame folds in one
            best = np.maximum(best, (t_b[k : k + 8, :, None] * weight[k : k + 8, None, :]).max(axis=0))
        normal = table.c_nlc_bending * pf_b[0][:, None] + table.c_pg * pf_c[0]
        return self.construction(lb[:, None], lc) + normal + self.p_ld * (table.c_id + best)

    def trace(self, factors: DesignFactors) -> list[ProgressionRow]:
        """One row per damage extent on the chain, for tables and plots: the
        chain's one scalar walk over every stage.  Each stage's three indexes,
        bending, local and global pancake, come from the one index formula
        :func:`~framerisk.reliability._moment_index` on the model's moments at
        the arbitrary-point-in-time horizon, with the bits of
        :func:`~framerisk.reliability.beta_set`.  A zero total variance raises
        ``ValueError`` at any factor; then the factors are checked.  The walk
        has the objective kernel's arithmetic, so the largest
        ``expected_cost`` is the kernel's damage branch."""
        table, probs, sqrt = self.table, [], math.sqrt
        mu_rb, var_rb, mu_rc, var_rc, _, _, mu_l, var_l = self.moments  # the arbitrary-point-in-time horizon
        lb, lc = factors.lambda_b, factors.lambda_c
        try:
            for a_b, a_pl, a_pg, _, _ in table.chain:
                probs.append((_pf_float(_moment_index(lb * a_b, mu_rb, var_rb, mu_l, var_l, sqrt)),
                              _pf_float(_moment_index(lc * a_pl, mu_rc, var_rc, mu_l, var_l, sqrt)),
                              _pf_float(_moment_index(lc * a_pg, mu_rc, var_rc, mu_l, var_l, sqrt))))
        except ZeroDivisionError:
            raise ValueError("degenerate statistics: an index's total variance is zero") from None
        _check_factors(lb, lc)  # after the indexes, which report a zero variance at any factor
        pairwise = [1.0] + [prev[1] * cur[1] for prev, cur in zip(probs, probs[1:])]
        c_pg, rows = table.c_pg, []
        for n_fc, (p_b, p_pl, p_pg), (*_, c_b, c_pl), (terms, w, reach), pair in zip(
            table.stages, probs, table.chain, self._walk(probs), pairwise
        ):
            cost, mode = _first_max(*terms)
            rows.append(ProgressionRow(n_fc, p_b, p_pl, p_pg, c_b, c_pl, c_pg, w, pair, reach, cost, w * cost, mode))
        return rows


def _first_max(t_b: float, t_pl: float, t_pg: float) -> tuple[float, str]:
    """Largest stage term and its mode, in the kernel's order ``max(t_b,
    max(t_pl, t_pg))``: ties go to the first mode."""
    top, tag = (t_pg, "global_pancake") if t_pg > t_pl else (t_pl, "local_pancake")
    return (top, tag) if top > t_b else (t_b, "bending")
