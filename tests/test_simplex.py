"""The 2-D simplex kernel takes scipy's Nelder–Mead steps exactly.

scipy is imported here only, as the reference; the package itself must not
load ``scipy.optimize``.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import framerisk
from framerisk import FRAME_CATALOG, CostParameters, RiskModel, Scenario, design_members, validate
from framerisk.optimize import FACTOR_BOUNDS, FTOL, START_GRID, XTOL, _clamp
from framerisk.simplex import minimize


def _both(f, x0, maxfev=2000):
    """Run scipy and the kernel on ``f(x, y)`` from ``x0``."""
    ref = scipy_minimize(
        lambda v: f(v[0], v[1]),
        np.array(x0, dtype=float),
        method="Nelder-Mead",
        options={"xatol": XTOL, "fatol": FTOL, "maxiter": 2000, "maxfev": maxfev},
    )
    got = minimize(f, x0, xatol=XTOL, fatol=FTOL, maxfev=maxfev)
    return ref, got


def _assert_same(ref, got):
    assert [float(v).hex() for v in got.x] == [float(v).hex() for v in ref.x]
    assert float(got.fun).hex() == float(ref.fun).hex()
    assert (got.nit, got.nfev, got.success) == (ref.nit, ref.nfev, ref.success)


def _objective(scenario):
    model = RiskModel(scenario, design_members(scenario))
    return lambda lambda_b, lambda_c: model.evaluate(_clamp(lambda_b), _clamp(lambda_c))


@pytest.mark.parametrize("frame", ["16x4", "8x8", "4x16", "6x11"])
@pytest.mark.parametrize("p_ld", [1e-6, 1e-2, 1.0])
def test_catalog_starts_match_scipy(frame, p_ld):
    f = _objective(validate(Scenario(geometry=FRAME_CATALOG[frame], p_ld=p_ld)))
    for lb0 in START_GRID:
        for lc0 in START_GRID:
            _assert_same(*_both(f, (lb0, lc0)))


@pytest.mark.parametrize("maxfev", [1, 3, 4, 7])
def test_exhausted_budget_matches_scipy(maxfev):
    ref, got = _both(_objective(validate(Scenario())), (0.775, 1.35), maxfev=maxfev)
    _assert_same(ref, got)
    assert not got.success
    assert got.nfev == maxfev


def test_flat_objective_ties_match_scipy():
    ref, got = _both(lambda x, y: 1.0, (0.5, 0.0))
    _assert_same(ref, got)
    # every tie fails reflection and contraction, so each iteration shrinks
    assert got.success
    assert got.nfev == 3 + 4 * (got.nit - 1)


def test_start_at_factor_bound_ties_match_scipy():
    # no threat and free strengthening: the optimum rides the upper clamp,
    # where the clamped objective is flat in the coordinates beyond it
    scenario = validate(Scenario(p_ld=0.0, costs=CostParameters(alpha_b=0.0, alpha_c=0.0, n_reinf_s=0)))
    hi = FACTOR_BOUNDS[1]
    ref, got = _both(_objective(scenario), (0.98 * hi, 0.99 * hi))
    _assert_same(ref, got)
    assert got.x[0] > hi and got.x[1] > hi


def test_shrink_branch_matches_scipy():
    # this catalog start shrinks three times on the way to its minimum: the
    # shrinks make calls 96-97, 100-101 and 104-105 of its 105
    ref, got = _both(_objective(validate(Scenario(p_ld=1.0))), (0.775, 0.2))
    _assert_same(ref, got)
    # a finished iteration costs at most 2 evaluations unless it shrinks (4)
    assert got.nfev - 3 > 2 * (got.nit - 1)


@pytest.mark.parametrize("maxfev", [95, 96])
def test_budget_cut_in_a_shrink_matches_scipy(maxfev):
    # the start above first shrinks after its 95th call; the budget refuses
    # the moved second vertex's value, or the moved worst vertex's
    ref, got = _both(_objective(validate(Scenario(p_ld=1.0))), (0.775, 0.2), maxfev=maxfev)
    _assert_same(ref, got)
    assert not got.success
    assert got.nfev == maxfev


@pytest.mark.parametrize("maxfev", [3, 2000])
def test_non_finite_values_sort_last_like_scipy(maxfev):
    # the second initial vertex is NaN; cut off there, the minimum over
    # the simplex is NaN as well
    def f(x, y):
        return math.nan if x > 1.02 else (x - 0.5) ** 2 + (y - 2.0) ** 2

    ref, got = _both(f, (1.0, 1.0), maxfev=maxfev)
    _assert_same(ref, got)
    assert math.isnan(got.fun) == (maxfev == 3)


@pytest.mark.parametrize("maxfev", [3, 2000])
def test_non_finite_start_sorts_last_like_scipy(maxfev):
    # the start and the third initial vertex are NaN, so the sort must move
    # the one number ahead of them; the search then rides the NaN edge
    def f(x, y):
        return math.nan if x < 1.01 else (x - 0.5) ** 2 + (y - 2.0) ** 2

    ref, got = _both(f, (1.0, 1.0), maxfev=maxfev)
    _assert_same(ref, got)
    assert got.x[0] >= 1.01


def test_import_does_not_load_scipy_optimize():
    code = "import sys, framerisk; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(framerisk.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
