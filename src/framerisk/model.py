"""Domain types for regular plane frames under discretionary column loss.

Every other module communicates through the frozen dataclasses defined here.
Quantities are fixed in kN, kNm and m throughout; no unit conversion is done
anywhere in the package.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field, is_dataclass
from math import inf
from typing import get_type_hints


class ValidationError(ValueError):
    """Raised when a scenario violates one or more type invariants.

    The full list of violated invariants is kept in ``violations`` so a
    caller can report every problem at once instead of fixing them one by
    one.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def __reduce__(self):  # unpickled from the list, not the joined message, as from a pool worker
        return type(self), (self.violations,)


@dataclass(frozen=True)
class RandomVarStats:
    """Second-moment description (mean, std) of one random variable.

    ``dist`` is retained as metadata only; all reliability computations use
    the Gaussian second-moment approximation regardless of family.
    """

    mean: float
    std: float
    dist: str = "normal"


@dataclass(frozen=True)
class FrameGeometry:
    """Regular frame: ``n_s`` stories by ``n_c`` columns, bays of length
    ``L`` and stories of height ``H`` (m)."""

    n_s: int
    n_c: int
    L: float = 6.0
    H: float = 3.0


@dataclass(frozen=True)
class DamageScenario:
    """Initial damage extent: ``n_rc0`` removed columns over ``n_rs0``
    stories."""

    n_rc0: int = 1
    n_rs0: int = 1


@dataclass(frozen=True)
class DesignFactors:
    """Multipliers on the strengthened beam (``lambda_b``) and column
    (``lambda_c``) capacities; the two optimization variables."""

    lambda_b: float = 1.0
    lambda_c: float = 1.0


# Model-uncertainty statistics for RC members and gravity loads. Live loads
# carry two horizons: the sustained (arbitrary-point-in-time) level used
# conditionally after damage and the 50-year extreme used for the intact
# frame. Resistance stds are the two-decimal values the published
# reliability indexes were computed with.
BEAM_RESISTANCE = RandomVarStats(1.22, 0.20, "normal")
COLUMN_RESISTANCE = RandomVarStats(1.20, 0.22, "normal")
DEAD_BIAS, DEAD_COV = 1.05, 0.10
LIVE_APT_BIAS, LIVE_APT_COV = 0.25, 0.55
LIVE_50_BIAS, LIVE_50_COV = 1.00, 0.25


@dataclass(frozen=True)
class LoadModel:
    """Nominal loads plus the random-variable statistics derived from them."""

    d_n: float = 1.0
    l_n: float = 1.0
    dead: RandomVarStats = field(default=None)  # type: ignore[assignment]
    live_apt: RandomVarStats = field(default=None)  # type: ignore[assignment]
    live_50: RandomVarStats = field(default=None)  # type: ignore[assignment]
    beam_resistance: RandomVarStats = BEAM_RESISTANCE
    column_resistance: RandomVarStats = COLUMN_RESISTANCE

    def __post_init__(self):
        if self.dead is None:
            m = DEAD_BIAS * self.d_n
            object.__setattr__(self, "dead", RandomVarStats(m, DEAD_COV * m, "normal"))
        if self.live_apt is None:
            m = LIVE_APT_BIAS * self.l_n
            object.__setattr__(self, "live_apt", RandomVarStats(m, LIVE_APT_COV * m, "gamma"))
        if self.live_50 is None:
            m = LIVE_50_BIAS * self.l_n
            object.__setattr__(self, "live_50", RandomVarStats(m, LIVE_50_COV * m, "gumbel"))

    def moments(self) -> tuple[float, ...]:
        """``mu_rb, var_rb, mu_rc, var_rc`` of the resistance factors, then
        ``mu_l50, var_l50, mu_lapt, var_lapt`` of dead plus live load, as floats:
        a std is squared as a float, so one squared beyond range raises OverflowError."""
        rb, rc, d, l50, lapt = self.beam_resistance, self.column_resistance, self.dead, self.live_50, self.live_apt
        var_d = float(d.std) ** 2
        return (float(rb.mean), float(rb.std) ** 2, float(rc.mean), float(rc.std) ** 2,
                float(d.mean) + float(l50.mean), var_d + float(l50.std) ** 2,
                float(d.mean) + float(lapt.mean), var_d + float(lapt.std) ** 2)


@dataclass(frozen=True)
class CostParameters:
    """Cost-model knobs.

    ``alpha_b``/``alpha_c`` are the participation of steel in beam/column
    construction cost (strengthening scales only that share).  ``k_ductile``
    and ``k_brittle`` multiply construction cost into failure cost for
    ductile (beam bending) and brittle (column crushing) collapse.
    ``n_reinf_s`` is the number of strengthened stories.
    """

    alpha_b: float = 0.7
    alpha_c: float = 0.7
    k_ductile: float = 20.0
    k_brittle: float = 40.0
    n_reinf_s: int = 2


@dataclass(frozen=True)
class Scenario:
    """Complete study definition.

    ``p_ld`` is the 50-year local damage probability. ``psi`` sets the
    catenary contribution to beam strength; it affects reported catenary
    reliability indexes always, but enters the bending limit states of the
    cost objective only when ``include_catenary`` is set.  ``phi_nlc`` and
    ``phi_apm`` are the resistance factors for normal-condition design and
    for strengthening.

    What the pipeline derives from an instance is kept on it in one private
    record, under ``_derived`` in its ``__dict__`` and outside its fields, as
    ``functools.cached_property`` keeps a value: ``==``, ``hash``, ``repr``
    and ``dataclasses.replace`` see the fields alone.  The record holds the
    mark that ``validate`` passed, ``loads.moments()``, the sizing and the
    precomputed table of each design.  ``validate`` fills it, and the sizing,
    the tables, ``beta_set``, ``RiskModel`` and the study tables read it.  The
    sizing and the tables do not depend on ``p_ld``, so a solve handed a
    model lends them to a ``p_ld`` variant, which ``validate`` then checks in full.
    """

    geometry: FrameGeometry = FrameGeometry(8, 9)
    loads: LoadModel = LoadModel()
    damage: DamageScenario = DamageScenario()
    costs: CostParameters = CostParameters()
    p_ld: float = 0.1
    psi: float = 2.0
    include_catenary: bool = False
    phi_nlc: float = 0.85
    phi_apm: float = 1.0

    def bending_psi(self) -> float:
        """Catenary parameter entering the bending limit states."""
        return self.psi if self.include_catenary else 0.0

    def chain_stages(self) -> range:
        """Damage extents of the progression chain: the initial extent, then
        two more columns at a time, never beyond n_c - 2 (two columns must
        remain)."""
        return range(self.damage.n_rc0, self.geometry.n_c - 1, 2)


def _scalar_fields(cls, prefix: str = ""):
    """Dotted name and annotated type of every scalar field under ``cls``."""
    for name, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            yield from _scalar_fields(hint, f"{prefix}{name}.")
        else:
            yield prefix + name, hint


# The exact-type tests come first because the ABC checks that admit NumPy
# scalars cost about a microsecond each.  An int beyond float range counts as
# neither a count nor a finite number: the pipeline cannot compute with it.
def _is_count(value) -> bool:
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        return False
    return abs(value) <= sys.float_info.max


def _is_finite(value) -> bool:
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# The type rule of every scalar field follows from its annotation.
_TYPE_RULES = {
    int: (_is_count, "an integer"),
    float: (_is_finite, "a finite number"),
    bool: (lambda value: type(value) is bool, "a boolean"),
    str: (lambda value: isinstance(value, str), "a string"),
}
_TYPED_FIELDS = tuple((name, *_TYPE_RULES[hint]) for name, hint in _scalar_fields(Scenario))
_scalars = operator.attrgetter(*(name for name, _, _ in _TYPED_FIELDS))
_LOAD_STATS = tuple(name for name, hint in get_type_hints(LoadModel).items() if hint is RandomVarStats)


# The progression chain has a stage for every second column, and RiskModel
# builds all of them up front (about 3 s at a million columns); the widest
# catalog frame has 17.
MAX_COLUMNS = 1000

# The box the optimizer searches each design factor in.
FACTOR_BOUNDS = (0.05, 5.0)

# Far above any design the model means; the reliability index squares the
# factored strength, which overflows from about 1e154 and loses every digit
# long before.
MAX_FACTOR = 1e6

# The range of every bounded field: low bound, high bound (inf when the rule is
# one-sided, or the earlier field whose value bounds it) and whether the low
# bound is strict.  Only 1 <= n_rc0 <= n_c - 2 and nonzero loads are
# written out in ``violations``.
_RANGES = {
    "geometry.n_s": (1, inf, False), "geometry.n_c": (2, MAX_COLUMNS, False),
    "geometry.L": (0, inf, True), "geometry.H": (0, inf, True),
    "loads.d_n": (0, inf, False), "loads.l_n": (0, inf, False),
    **{f"loads.{name}.std": (0, inf, False) for name in _LOAD_STATS},
    "loads.beam_resistance.mean": (0, inf, True), "loads.column_resistance.mean": (0, inf, True),
    "damage.n_rs0": (0, "geometry.n_s", False),
    "costs.alpha_b": (0, 1, False), "costs.alpha_c": (0, 1, False),
    "costs.k_ductile": (0, inf, True), "costs.k_brittle": (0, inf, True),
    "costs.n_reinf_s": (0, "geometry.n_s", False),
    "p_ld": (0, 1, False), "psi": (0, 4, False), "phi_nlc": (0, 1, True), "phi_apm": (0, 1, True),
}
_INDEX = {name: i for i, (name, _, _) in enumerate(_TYPED_FIELDS)}
_WALK = tuple(_RANGES.get(name) for name in _INDEX)  # aligned with _TYPED_FIELDS


def _range_message(name: str, value, low, high, strict: bool, top) -> str:
    shown = f"{name}={value}" + (f", {high}={top}" if isinstance(high, str) else "")
    if high == inf:
        return f"{name} {'>' if strict else '>='} {low} violated ({shown})"
    return f"{low} {'<' if strict else '<='} {name} <= {high} violated ({shown})"


def violations(scenario: Scenario) -> list[str]:
    """Collect every violated invariant of ``scenario`` (empty when valid).

    Every scalar field must hold its annotated type: counts integers, other
    numbers finite, ``include_catenary`` a boolean and distribution names
    strings.  When one does not, only those type violations are reported,
    since the range checks need numbers to compare.  The same walk checks
    each bounded field against its row of ``_RANGES``; the numbers the
    build computes from a scenario in range must then be finite, and so must
    every reliability index over the factor range (see ``_design_violations``).
    """
    values = _scalars(scenario)
    wrong, out = [], []
    for (name, ok, what), rule, value in zip(_TYPED_FIELDS, _WALK, values):
        if not ok(value):
            wrong.append(f"{name} must be {what} ({name}={value!r})")
        elif rule and not wrong:
            low, high, strict = rule
            top = values[_INDEX[high]] if isinstance(high, str) else high
            if value < low or strict and value == low or value > top:
                out.append(_range_message(name, value, *rule, top))
    if wrong:
        return wrong
    g, dm, ld = scenario.geometry, scenario.damage, scenario.loads
    if not 1 <= dm.n_rc0 <= g.n_c - 2:
        out.append(f"1 <= n_rc0 <= n_c - 2 violated (n_rc0={dm.n_rc0}, n_c={g.n_c})")
    if not (ld.d_n or ld.l_n):
        out.append("nominal loads must not both be zero (members would have no size)")
    try:  # the moments RiskModel reads: an index needs them finite, each total variance nonzero
        moments = ld.moments()
    except OverflowError:
        moments = ()
    _derived(scenario).moments = moments
    if not moments or not all(map(math.isfinite, moments)):
        out.append(f"load and resistance means and variances must be finite {moments or '(overflow)'}")
    elif 0 in moments[1::2]:  # a total variance is zero only where its two variances are
        for name, var_r in (("beam_resistance", moments[1]), ("column_resistance", moments[3])):
            for live, var_l in (("live_apt", moments[7]), ("live_50", moments[5])):
                if var_r + var_l == 0:
                    out.append(f"{name}.std, dead.std and {live}.std must not all be zero")
    if not out:
        try:
            d = _design.size_members(scenario)
        except (OverflowError, ZeroDivisionError, ValueError):  # L**2 beyond float range, a zero or infinite capacity
            d = None
        out += _design_violations(scenario, d, moments)
    return out


def _design_violations(scenario: Scenario, d: _design.MemberDesign | None, moments: tuple[float, ...]) -> list[str]:
    """The rules on a design ``d`` of a scenario whose other rules hold and
    its ``moments``: its sizing (``None`` where that overflowed) or a design
    handed to a ``RiskModel``.  Capacities and strengthening factors must be
    finite and positive, or every cost and index is nan.  Then the rules on
    the reliability indexes and failure costs, read from the precomputed
    numbers of the design.

    An index of the factored strength ``r`` is ``(r*mu_r - mu_l) /
    sqrt(r*r*var_r + var_l)`` at either live-load horizon.  Its strengths are
    the unit strengths of the normal-condition and strengthened intact
    frames and of the strengthened frame at each chain stage, and a factor
    scales them by FACTOR_BOUNDS[0] up to MAX_FACTOR, so each member's ``r``
    lies in ``[lo, hi]``.  At ``hi`` the mean and variance must be finite,
    and at ``lo`` the variance, which rises with ``r``, nonzero.  The index
    itself must be finite over ``[lo, hi]``.  For a load mean >= 0 it rises
    with ``r``, so it is checked at the two ends.  For a negative load mean it
    is positive, and with ``var_r > 0`` it peaks at ``r = mu_r*var_l /
    (-mu_l*var_r)``, so that point, held in ``[lo, hi]``, is checked too.
    The objective adds the construction cost, at most its value at
    MAX_FACTOR, to failure costs weighted by probabilities and ``p_ld``; the
    same sum with every weight 1, in the objective's order, must be finite.
    """
    sizes = () if d is None else (d.b_y_nlc, d.r_c_nlc, d.b_y_0, d.r_c_0, d.b_sf, d.r_sf)
    if not (sizes and all(map(math.isfinite, sizes)) and min(sizes) > 0):
        return [f"capacities b_y_nlc, r_c_nlc, b_y_0, r_c_0 must be finite and positive, and so must the "
                f"strengthening factors b_sf, r_sf {sizes or '(overflow)'}"]
    table = _risk.precomputed(scenario, d)
    # the first two sets, intact frames, have no local pancake
    b, pg, pl, cat = zip(table.nlc_strengths, table.intact_strengths, *table.stage_strengths)
    horizons = (moments[4:6], moments[6:8])  # (mu_l, var_l) at 50 years and at an arbitrary point in time
    # a mean is finite at both horizons where it is at the smaller load mean,
    # a variance finite where it is at the larger load variance and nonzero
    # where it is at the smaller one
    least_mu_l = min(moments[4], moments[6])
    least_var_l, most_var_l = min(moments[5], moments[7]), max(moments[5], moments[7])
    out = []
    for member, mu_r, var_r, strengths in (("beam", *moments[0:2], b + cat), ("column", *moments[2:4], pg + pl[2:])):
        low, top = min(strengths), max(strengths)
        lo, hi = low * FACTOR_BOUNDS[0], top * MAX_FACTOR
        if not (math.isfinite(hi * mu_r - least_mu_l) and math.isfinite(hi * hi * var_r + most_var_l)):
            out.append(f"{member} unit strengths up to {top:.4g} kN/m times factors up to {MAX_FACTOR:g} "
                       f"must keep every reliability index's mean and variance finite")
        elif not lo * lo * var_r + least_var_l:
            out.append(f"{member} unit strengths down to {low:.4g} kN/m times factors down to {FACTOR_BOUNDS[0]:g} "
                       f"must keep every reliability index's variance nonzero")
        else:
            finite = True
            for mu_l, var_l in horizons:
                for r in (lo, hi, min(max(mu_r * var_l / -mu_l / var_r, lo), hi)) if mu_l < 0 < var_r else (lo, hi):
                    beta = _reliability._moment_index(r, mu_r, var_r, mu_l, var_l, math.sqrt)
                    finite = finite and math.isfinite(beta)
            if not finite:
                out.append(f"{member} unit strengths from {low:.4g} to {top:.4g} kN/m times factors from "
                           f"{FACTOR_BOUNDS[0]:g} to {MAX_FACTOR:g} must keep every reliability index finite")
    c0, cb, cc = table.construction  # the largest stage term is at most the cap or an initial-extent cost
    if not math.isfinite(c0 + cb * MAX_FACTOR + cc * MAX_FACTOR + (table.c_nlc_bending + table.c_pg)
                         + (table.c_id + max(table.cap, *table.chain[0][3:]))):
        out.append(f"failure costs k_ductile and k_brittle times the unit-factor construction cost "
                   f"{c0 + cb + cc:.4g}, and the total expected cost at factors up to {MAX_FACTOR:g}, must be finite")
    return out


class _Derived:
    """The record of one scenario instance, kept on it under ``_derived`` (see
    :class:`Scenario`): ``valid`` once ``validate`` passed, the ``moments``
    that ``violations`` computed, the ``sizing`` of ``design.size_members``
    and the ``tables`` of ``risk.precomputed`` by design."""

    __slots__ = ("valid", "moments", "sizing", "tables")

    def __init__(self):
        self.valid, self.moments, self.sizing, self.tables = False, None, None, {}


def _derived(scenario: Scenario) -> _Derived:
    """The record of ``scenario``, made empty on first use."""
    record = vars(scenario).get("_derived")
    if record is None:
        record = vars(scenario)["_derived"] = _Derived()
    return record


def validate(scenario: Scenario) -> Scenario:
    """Return ``scenario`` unchanged if every invariant holds.

    Raises :class:`ValidationError` carrying the full violation list
    otherwise; there is no partial acceptance.  A success is kept in the
    instance's record.
    """
    record = _derived(scenario)
    if not record.valid:
        if found := violations(scenario):
            raise ValidationError(found)
        record.valid = True
    return scenario


def _check_factors(*factors: float) -> None:
    """Raise ``ValueError`` unless every factor lies in the range ``validate`` proves evaluable; NaN passes."""
    for x in factors:
        if x < FACTOR_BOUNDS[0] or x > MAX_FACTOR:
            raise ValueError(f"design factors must be in [{FACTOR_BOUNDS[0]:g}, {MAX_FACTOR:g}], got {x}")


def _check_range(name: str, value: float, low: float, high: float = sys.float_info.max, strict: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` lies in ``[low, high]`` (``(low, high]`` when ``strict``); the
    comparisons are written so that NaN fails, and ±inf fails at any finite bound."""
    if not (value > low if strict else value >= low) or not value <= high:
        raise ValueError(f"{name} must be in {'(' if strict else '['}{low}, {high}], got {value}")


def annual_from_lifetime(p_ld: float) -> float:
    """Convert a 50-year local damage probability to an annual rate.

    Inverts p_50 = 1 - (1 - p)^50 under a Poisson occurrence model, i.e.
    returns -ln(1 - p_ld)/50.  Defined on [0, 1); p_ld = 1 has no finite
    annual rate.
    """
    if not 0.0 <= p_ld < 1.0:
        raise ValueError(f"p_ld must be in [0, 1), got {p_ld}")
    return -math.log1p(-p_ld) / 50.0


# bound last: these modules import this one
from . import design as _design, reliability as _reliability, risk as _risk  # noqa: E402
