"""Property tests of the scenario schema: whatever a sweep axis or a JSON
document carries, the scenario is either accepted or rejected with a
``ValueError`` (a data error, exit 2), never with another exception."""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from framerisk import Scenario, scenario_from_dict, set_scenario_field, validate  # noqa: E402


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


def _documents(instance) -> st.SearchStrategy:
    """JSON objects over the keys of a dataclass instance.  A key maps to its
    default or to any JSON scalar and, where the field is itself a
    dataclass, as often to a document of that field's own keys."""
    entries = {}
    for f in fields(instance):
        value = getattr(instance, f.name)
        entries[f.name] = _either(_documents(value) if is_dataclass(value) else st.just(value), json_scalars)
    return st.fixed_dictionaries({}, optional=entries)


@given(name=st.sampled_from(FIELD_NAMES + JUNK_NAMES), value=json_scalars)
def test_sweep_field_is_accepted_or_a_data_error(name, value):
    try:
        scenario = set_scenario_field(Scenario(), name, value)
        assert validate(scenario) is scenario
    except ValueError:
        pass


@given(doc=_either(_documents(Scenario()), json_scalars))
def test_scenario_document_is_accepted_or_a_data_error(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ValueError:
        return
    assert validate(scenario) is scenario
