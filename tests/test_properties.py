"""Property tests.  Whatever a sweep axis or a JSON document carries, the
scenario is either accepted or rejected with a ``ValueError`` (a data error,
exit 2), never with another exception, and ``framerisk evaluate`` on such a
document keeps to its exit codes.  An accepted document sizes, builds and
evaluates to finite terms; where its numbers may lie anywhere in the float
range, it still sizes to finite capacities and ratios, has finite moments
and builds.  Its float kernel, which prunes the chain walk, keeps the bits
of the walk over every stage; its stage costs never fall along the chain, so
the kernel's one cap prunes as a cap per stage would.  Every collapse
strength is homogeneous of degree one in its capacity.  On accepted
documents the sizing, costs, objective terms and reliability indexes agree
with the independent numpy evaluator of the benchmark
(``perfbench/reference.py``).  On scenarios set straight on the
dataclasses, every entry point that validates, the optimizer and the
threshold search among them, returns finite numbers or raises
``ValueError``; only these two properties run the optimizer."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import sys
import tempfile
from dataclasses import MISSING, astuple, fields, is_dataclass, replace
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from framerisk import (  # noqa: E402
    DAMAGE_VARIANTS,
    CostParameters,
    DesignFactors,
    FrameGeometry,
    RiskModel,
    Scenario,
    beta_set,
    damaged_bending_strength,
    design_members,
    global_pancake_strength,
    intact_bending_strength,
    intact_pancake_strength,
    local_pancake_strength,
    minimize_total_cost,
    scenario_from_dict,
    set_scenario_field,
    size_members,
    threshold_probability,
    validate,
)
from framerisk.cli import run_command  # noqa: E402
from framerisk.model import MAX_FACTOR  # noqa: E402
from framerisk.optimize import FACTOR_BOUNDS  # noqa: E402
from framerisk.reliability import LIVE_50, LIVE_APT  # noqa: E402
from framerisk.studies import reliability_grid, trace_table  # noqa: E402
from test_reliability import cornell_beta  # noqa: E402
from test_risk import assert_kernel_matches_unpruned_walk  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from reference import Reference  # noqa: E402


def _field_names(instance, prefix: str = ""):
    """Dotted name of every field under a dataclass instance, sections included."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        yield prefix + f.name
        if is_dataclass(value):
            yield from _field_names(value, f"{prefix}{f.name}.")


FIELD_NAMES = sorted(_field_names(Scenario()))
JUNK_NAMES = [
    "", ".", "nonsense", "geometry.", ".p_ld", "p_ld.real", "geometry.n_s.x", "loads.dead.mean.x",
    "bending_psi", "__class__", "__dict__", "geometry.__class__", "loads.__init__", "loads.dead.__class__",
]

HUGE = 2**1024  # the smallest integer a float cannot hold
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=HUGE, max_value=10**400),
    st.integers(min_value=-(10**400), max_value=-HUGE),
    st.floats(),  # nan and both infinities included
    st.text(max_size=4),
)


def _either(*strategies) -> st.SearchStrategy:
    """Draw from each strategy with equal chance, however many branches it has."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


def _halved(value) -> st.SearchStrategy:
    """A number's default scaled by a factor in [1/2, 1], which keeps every
    rule of :func:`validate`."""
    if type(value) is int:
        return st.integers((value + 1) // 2, value)
    return st.floats(value / 2, value)


# log-uniform in magnitude across the float range, subnormals included, of either sign
magnitudes = st.builds(
    lambda mantissa, exponent, sign: sign * math.ldexp(mantissa, exponent),
    st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023), st.sampled_from((1, -1)),
)


def _spread(value) -> st.SearchStrategy:
    """One time in eight any magnitude of either sign (an integer for a
    count), else :func:`_halved`, so that about half the documents pass."""
    return st.integers(0, 7).flatmap(lambda k: magnitudes.map(type(value)) if k == 0 else _halved(value))


def _documents(instance, junk: st.SearchStrategy | None, number=_halved) -> st.SearchStrategy:
    """JSON objects over the keys of a dataclass instance.  A key maps to a
    valid value or, as often when ``junk`` is given, to a draw from it.  The
    valid value of a number is drawn by ``number`` from its default, and that
    of a dataclass field is a document of the field's own keys.  Keys of
    fields without a default are always present."""
    required, optional = {}, {}
    for f in fields(instance):
        value = getattr(instance, f.name)
        if is_dataclass(value):
            valid = _documents(value, junk, number)
        elif type(value) in (int, float):
            valid = number(value)
        else:
            valid = st.just(value)
        keys = required if f.default is MISSING and f.default_factory is MISSING else optional
        keys[f.name] = valid if junk is None else _either(valid, junk)
    return st.fixed_dictionaries(required, optional=optional)


# half the documents carry valid values only, so that more than half are accepted
scenario_documents = _either(_documents(Scenario(), None), _documents(Scenario(), json_scalars))


@given(name=st.sampled_from(FIELD_NAMES + JUNK_NAMES), value=json_scalars)
def test_sweep_field_is_accepted_or_a_data_error(name, value):
    try:
        scenario = set_scenario_field(Scenario(), name, value)
        assert validate(scenario) is scenario
    except ValueError:
        pass


@given(doc=_either(scenario_documents, json_scalars))
def test_scenario_document_is_accepted_or_a_data_error(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ValueError:
        return
    assert validate(scenario) is scenario


@settings(max_examples=200)
@given(doc=scenario_documents)
def test_accepted_scenario_evaluates_to_finite_terms(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ValueError:
        return
    model = RiskModel(scenario, design_members(scenario))
    assert math.isfinite(model.evaluate(1.0, 1.0))
    assert all(math.isfinite(term) for term in astuple(model.breakdown(1.0, 1.0)))


# Every number of a document may be drawn from anywhere in the float range
# (see _spread).  validate must reject what the build cannot size or build: an
# accepted scenario has finite, positive sizes and strengthening factors,
# finite moments with nonzero total variances, and a RiskModel.
@settings(max_examples=400)
@given(doc=_documents(Scenario(), None, _spread))
@example(doc={"geometry": {"L": 0.1}, "phi_apm": 1e-308, "loads": {"d_n": 1e-10, "l_n": 1e-10}})  # b_sf overflows
@example(doc={"loads": {"d_n": 1e200, "l_n": 1e200}})  # the load variances overflow
def test_accepted_scenario_sizes_and_builds(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ValueError:
        return
    d = size_members(scenario)
    assert all(0 < size < math.inf for size in (d.b_y_nlc, d.r_c_nlc, d.b_y_0, d.r_c_0, d.b_sf, d.r_sf)), d
    _, var_rb, _, var_rc, _, var_l50, _, var_lapt = moments = scenario.loads.moments()
    assert all(math.isfinite(m) for m in moments), moments
    assert all(var_r + var_l > 0 for var_r in (var_rb, var_rc) for var_l in (var_l50, var_lapt)), moments
    RiskModel(scenario, d)


# On the same generator, an accepted scenario evaluates: finite breakdown
# terms, trace rows and reliability indexes at (1, 1) and at the four corners
# of FACTOR_BOUNDS.
POINTS = ((1.0, 1.0), *itertools.product(FACTOR_BOUNDS, repeat=2))


@pytest.mark.filterwarnings("ignore:strengthened beam requirement")
@settings(max_examples=400)
@given(doc=_documents(Scenario(), None, _spread))
@example(doc={"loads": {"d_n": 1.1e-284, "l_n": 2.5e-261}})  # an index's variance underflows to 0
@example(doc={"loads": {  # an index overflows by itself
    "dead": {"mean": 1.05, "std": 1e-150}, "live_apt": {"mean": 0.25, "std": 1e-150},
    "live_50": {"mean": 1.0, "std": 1e-150}, "column_resistance": {"mean": 1e300, "std": 1e-150},
}})
def test_accepted_scenario_evaluates_to_finite_numbers(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ValueError:
        return
    model = RiskModel(scenario)
    for lb, lc in POINTS:
        assert all(math.isfinite(term) for term in astuple(model.breakdown(lb, lc))), (lb, lc)
        rows = model.trace(DesignFactors(lb, lc))
        assert all(math.isfinite(value) for row in rows for value in row if type(value) is float), (lb, lc)
        cells = [cell for row in reliability_grid(scenario, DesignFactors(lb, lc))[1] for cell in row[2:]]
        assert all(math.isfinite(cell) for cell in cells if cell != ""), (lb, lc)


# beta_set forms each index from LoadModel.moments(); on the same generator
# it has, at unit factors, the bits of the index formed from the statistics
@pytest.mark.filterwarnings("ignore:strengthened beam requirement")
@settings(max_examples=300)
@given(doc=_documents(Scenario(), None, _spread))
def test_beta_set_matches_the_index_of_the_statistics(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ValueError:
        return
    model, loads = RiskModel(scenario), scenario.loads
    resistances = (loads.beam_resistance, loads.column_resistance, loads.column_resistance, loads.beam_resistance)
    for live, stats in (("50yr", loads.live_50), ("apt", loads.live_apt)):
        for strengths in (model.table.intact_strengths, *model.table.stage_strengths):
            got = beta_set(scenario, strengths, DesignFactors(1.0, 1.0), live)
            for value, strength, resistance in zip(got, strengths, resistances, strict=True):
                want = None if strength is None else cornell_beta(strength, resistance, loads.dead, stats)
                assert (value is None) if want is None else value.hex() == want.hex(), (live, strengths)


def _instances(instance) -> st.SearchStrategy:
    """Instances of the dataclass of ``instance``, built straight from the
    dataclasses as a library caller builds them, never through
    ``scenario_from_dict``.  A field with a default is set or left at it, as
    often; a number set is drawn by :func:`_spread` from the value in
    ``instance``, a flag drawn and a name kept."""
    required, optional = {}, {}
    for f in fields(instance):
        value = getattr(instance, f.name)
        if is_dataclass(value):
            drawn = _instances(value)
        elif type(value) in (int, float):
            drawn = _spread(value)
        else:
            drawn = st.booleans() if type(value) is bool else st.just(value)
        keys = required if f.default is MISSING and f.default_factory is MISSING else optional
        keys[f.name] = drawn
    return st.fixed_dictionaries(required, optional=optional).map(lambda kwargs: type(instance)(**kwargs))


def _finite(value) -> bool:
    """Every float in ``value``, a number or nested tuples and lists of them, is finite."""
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    return type(value) is not float or math.isfinite(value)


def _refused(call) -> bool:
    """``call()`` raises ``ValueError``; any other exception propagates."""
    try:
        call()
    except ValueError:
        return True
    return False


scenarios = _instances(Scenario())
in_range = st.tuples(st.floats(FACTOR_BOUNDS[0], MAX_FACTOR), st.floats(FACTOR_BOUNDS[0], MAX_FACTOR))


# Every gated entry point, on a scenario set straight on the dataclasses,
# returns finite numbers or refuses the scenario with a ValueError, as each
# other one does; at factors in [FACTOR_BOUNDS[0], MAX_FACTOR] the scalar
# entry points of an accepted scenario return finite numbers.  Neither ever
# raises ZeroDivisionError or OverflowError.
@pytest.mark.filterwarnings("ignore:strengthened beam requirement")
@settings(max_examples=100, deadline=None)
@given(scenario=scenarios, point=in_range)
# each failure cost finite, the largest total expected cost beyond float range
@example(scenario=replace(Scenario(), costs=CostParameters(k_ductile=1.5e308, k_brittle=1.5e308)), point=(0.05, 0.05))
@example(scenario=Scenario(costs=CostParameters(k_ductile=1.0, k_brittle=8.5e307), p_ld=1.0), point=(0.05, 0.05))
def test_gated_entry_points_return_finite_numbers_or_refuse(scenario, point):
    factors = DesignFactors(*point)
    entries = (
        lambda: RiskModel(scenario),
        lambda: trace_table(scenario, factors=factors),
        lambda: reliability_grid(scenario, factors),
        lambda: minimize_total_cost(scenario),
    )
    if _refused(entries[0]):
        assert all(_refused(entry) for entry in entries[1:])
        return
    model = RiskModel(scenario)
    assert _finite(astuple(model.breakdown(*point))) and _finite(model.evaluate(*point)), point
    assert _finite(model.trace(factors)), point
    assert _finite(model.evaluate_grid([FACTOR_BOUNDS[0], point[0]], [point[1], MAX_FACTOR]).tolist()), point
    table = model.table
    for strengths, live in ((table.intact_strengths, LIVE_50), *((s, LIVE_APT) for s in table.stage_strengths)):
        assert _finite(beta_set(scenario, strengths, factors, live)), (point, live)
    assert _finite(trace_table(scenario, factors=factors)[1]), point
    assert _finite([cell for row in reliability_grid(scenario, factors)[1] for cell in row[2:] if cell != ""]), point
    opt = minimize_total_cost(scenario)
    assert _finite((opt.c_te, astuple(opt.factors), opt.beta_damaged, opt.beta_intact))


# The threshold search, about a dozen solves, on fewer draws.
@pytest.mark.filterwarnings("ignore:strengthened beam requirement")
@settings(max_examples=12, deadline=None)
@given(scenario=scenarios)
def test_threshold_search_returns_finite_numbers_or_refuses(scenario):
    try:
        result = threshold_probability(scenario)
    except ValueError:
        return
    assert result.p_th is None or 0.0 < result.p_th <= 1.0
    assert all(_finite((opt.c_te, opt.beta_damaged, opt.beta_intact)) for _, opt in result.probes)


positive = st.floats(min_value=1e-3, max_value=1e3)
factors = st.tuples(st.floats(*FACTOR_BOUNDS), st.floats(*FACTOR_BOUNDS))


# k_ductile and k_brittle are drawn on their own, so that k_ductile >
# k_brittle occurs: then c_b > c_pl at later stages, and the kernel computes
# bending's probability there
@settings(max_examples=200)
@given(doc=scenario_documents, k_ductile=positive, k_brittle=positive, points=st.lists(factors, min_size=1, max_size=4))
def test_kernel_matches_unpruned_walk(doc, k_ductile, k_brittle, points):
    try:
        scenario = scenario_from_dict(doc)
    except ValueError:
        return
    model = RiskModel(replace(scenario, costs=replace(scenario.costs, k_ductile=k_ductile, k_brittle=k_brittle)))
    for lb, lc in points:
        assert_kernel_matches_unpruned_walk(model, lb, lc)


# Each check of the float kernel bounds the stages not yet costed by one cap,
# the largest cost past the initial extent.  It prunes as much as a cap over
# the stages from the checked one on only because stage costs never fall
# along a valid chain, so the gated work counts rest on this.
@pytest.mark.filterwarnings("ignore:strengthened beam requirement")
@settings(max_examples=100)
@given(doc=_documents(Scenario(), None), k_ductile=positive, k_brittle=positive)
def test_stage_costs_never_fall_along_the_chain(doc, k_ductile, k_brittle):
    scenario = scenario_from_dict(doc)
    model = RiskModel(replace(scenario, costs=replace(scenario.costs, k_ductile=k_ductile, k_brittle=k_brittle)))
    chain = model.table.chain
    for (*_, c_b, c_pl), (*_, next_b, next_pl) in zip(chain, chain[1:]):
        assert c_b <= next_b and c_pl <= next_pl
    for k in range(1, len(chain)):
        assert max(0.0, model.c_pg, *(c for stage in chain[k:] for c in stage[3:])) == model.table.cap


def _reference_document(doc: dict, include_catenary: bool, damage) -> dict:
    """``doc`` keeping only the nominal loads, from which the reference
    derives every load statistic, with the catenary switch and a catalog
    damage variant set (each variant fits every frame the valid branch
    draws)."""
    loads = {key: value for key, value in doc.get("loads", {}).items() if key in ("d_n", "l_n")}
    damage = {"n_rc0": damage.n_rc0, "n_rs0": damage.n_rs0}
    return {**doc, "loads": loads, "include_catenary": include_catenary, "damage": damage}


reference_documents = st.builds(
    _reference_document, _documents(Scenario(), None), st.booleans(), st.sampled_from(DAMAGE_VARIANTS)
)


# the benchmark's tolerances: 1e-12 for sizing, 1e-9 for values and indexes;
# phi_nlc / phi_apm below 0.8 sizes the strengthened beams below the normal
# ones, which design_members warns of and the reference reproduces
@pytest.mark.filterwarnings("ignore:strengthened beam requirement")
@settings(max_examples=200)
@given(doc=reference_documents, point=factors)
def test_model_matches_the_independent_reference(doc, point):
    scenario, ref, (lb, lc) = scenario_from_dict(doc), Reference(doc), point
    design = design_members(scenario)
    for name in ("b_y_nlc", "r_c_nlc", "b_y_0", "r_c_0", "b_sf", "r_sf"):
        assert getattr(design, name) == pytest.approx(getattr(ref, name), rel=1e-12), name
    model = RiskModel(scenario, design)
    assert model.construction(lb, lc) == pytest.approx(float(ref.construction(lb, lc)), rel=1e-9)
    assert model.evaluate(lb, lc) == pytest.approx(float(ref.objective(lb, lc)[0, 0]), rel=1e-9)
    branch = float(ref.damage_branch(lb, lc)[0, 0])
    assert model.breakdown(lb, lc).damage_branch == pytest.approx(branch, rel=1e-9)
    betas = ref.beta_grid(lb, lc)
    for live, mode, *cells in reliability_grid(scenario, DesignFactors(lb, lc))[1]:
        for cell, want in zip(cells, betas[live, mode], strict=True):
            assert cell == ("" if want is None else pytest.approx(want, rel=0.0, abs=1e-9)), (live, mode)


@given(doc=_either(scenario_documents, json_scalars, st.lists(json_scalars, max_size=3)))
def test_evaluate_on_any_document_keeps_to_the_exit_codes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(["evaluate", "--scenario", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@st.composite
def frames(draw):
    """A damaged frame: geometry, removed columns (two must remain),
    damaged stories and a catenary parameter."""
    n_s, n_c = draw(st.integers(1, 30)), draw(st.integers(3, 60))
    geom = FrameGeometry(n_s, n_c, draw(st.floats(1.0, 20.0)), draw(st.floats(1.0, 10.0)))
    return geom, draw(st.integers(1, n_c - 2)), draw(st.integers(0, n_s)), draw(st.floats(0.0, 4.0))


@given(frame=frames(), capacity=positive, k=positive)
def test_strengths_are_homogeneous_of_degree_one(frame, capacity, k):
    geom, n_rc, n_rs, psi = frame
    strengths = [
        lambda c: intact_bending_strength(geom, c, psi),
        lambda c: damaged_bending_strength(geom, c, n_rc, psi),
        lambda c: intact_pancake_strength(geom, c),
        lambda c: local_pancake_strength(geom, c, n_rc, n_rs),
        lambda c: global_pancake_strength(geom, c, n_rc, n_rs),
    ]
    for strength in strengths:
        assert strength(k * capacity) == pytest.approx(k * strength(capacity), rel=1e-12)
