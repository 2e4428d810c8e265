"""Property tests.  Whatever a sweep axis or a JSON document carries, the
scenario is either accepted or rejected with a ``ValueError`` (a data error,
exit 2), never with another exception, and ``framerisk evaluate`` on such a
document keeps to its exit codes.  An accepted document sizes, builds and
evaluates to finite terms, and its float kernel, which prunes the chain
walk, keeps the bits of the walk over every stage.  Every collapse strength
is homogeneous of degree one in its capacity.  None of them runs the
optimizer."""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from dataclasses import MISSING, astuple, fields, is_dataclass, replace
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from framerisk import (  # noqa: E402
    FrameGeometry,
    RiskModel,
    Scenario,
    damaged_bending_strength,
    design_members,
    global_pancake_strength,
    intact_bending_strength,
    intact_pancake_strength,
    local_pancake_strength,
    scenario_from_dict,
    set_scenario_field,
    validate,
)
from framerisk.cli import run_command  # noqa: E402
from framerisk.optimize import FACTOR_BOUNDS  # noqa: E402
from test_risk import assert_kernel_matches_unpruned_walk  # noqa: E402


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


def _documents(instance, junk: st.SearchStrategy | None) -> st.SearchStrategy:
    """JSON objects over the keys of a dataclass instance.  A key maps to a
    valid value or, as often when ``junk`` is given, to a draw from it.  The
    valid value of a number is its default scaled by a factor in [1/2, 1],
    which keeps every rule of :func:`validate`, and that of a dataclass field
    a document of the field's own keys.  Keys of fields without a default
    are always present."""
    required, optional = {}, {}
    for f in fields(instance):
        value = getattr(instance, f.name)
        if is_dataclass(value):
            valid = _documents(value, junk)
        elif type(value) is int:
            valid = st.integers((value + 1) // 2, value)
        elif type(value) is float:
            valid = st.floats(value / 2, value)
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
