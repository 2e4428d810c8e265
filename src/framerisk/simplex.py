"""Nelder–Mead simplex search in two dimensions, on plain floats.

A port of scipy's non-adaptive ``_minimize_neldermead`` (scipy 1.17) that
takes the same steps with the same floating-point operations in the same
order, so it returns bit-identical points, values and counts without
scipy's per-call array copies.  The algorithm is Nelder & Mead, *Computer
Journal* 7(4), 1965, in the form analysed by Lagarias et al., *SIAM J.
Optim.* 9(1), 1998:

* the initial simplex moves each nonzero coordinate of ``x0`` by 5% (a zero
  coordinate to 0.00025);
* reflection, expansion, outside and inside contraction and shrink use the
  coefficients 1, 2, 0.5 and 0.5;
* the search stops when every vertex lies within ``xatol`` of the best one
  in every coordinate and every value within ``fatol`` of the best value,
  or when ``maxfev`` evaluations are used up;
* the vertices are sorted by value after every iteration, stably with NaN
  last, which is the order numpy's ``argsort`` gives three values.

The evaluation budget is checked before each call.  An iteration cut short
by it keeps the moves made before the refused call and does not count.
There is no separate iteration cap: each finished iteration makes at least
one call beyond the three initial ones, so ``nit <= nfev - 2`` and a cap at
or above ``maxfev`` would never bind.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
NONZDELT = 0.05
ZDELT = 0.00025


class SimplexResult(NamedTuple):
    """Best vertex and its value, iterations, evaluations, and whether the
    tolerances were met; the fields scipy's result carries under these names."""

    x: tuple[float, float]
    fun: float
    nit: int
    nfev: int
    success: bool


class _Exhausted(Exception):
    """The evaluation budget is used up."""


def _before(a: float, b: float) -> bool:
    """``a`` sorts strictly before ``b``; NaN sorts after every number."""
    return a < b or (b != b and a == a)


def _sort(sim: list[list[float]]) -> None:
    """Stable in-place insertion sort of the three ``[f, x, y]`` vertices."""
    a, b, c = sim
    if _before(b[0], a[0]):
        a, b = b, a
    if _before(c[0], b[0]):
        b, c = c, b
        if _before(b[0], a[0]):
            a, b = b, a
    sim[:] = a, b, c


def minimize(
    f: Callable[[float, float], float],
    x0: tuple[float, float],
    xatol: float,
    fatol: float,
    maxfev: int,
) -> SimplexResult:
    """Minimize ``f(x, y)`` from ``x0``; ``success`` is false when the
    budget ran out, and ``nit`` counts from 1 as scipy's does."""
    nfev = 0

    def call(x: float, y: float) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return f(x, y)

    x, y = float(x0[0]), float(x0[1])
    step_x = (1 + NONZDELT) * x if x != 0 else ZDELT
    step_y = (1 + NONZDELT) * y if y != 0 else ZDELT
    # vertices [f, x, y], kept sorted by f between iterations
    sim = [[float("inf"), x, y], [float("inf"), step_x, y], [float("inf"), x, step_y]]
    try:
        for v in sim:
            v[0] = call(v[1], v[2])
    except _Exhausted:
        pass
    _sort(sim)

    nit = 1
    while nfev < maxfev:
        best, second, worst = sim
        f0, x0, y0 = best
        f1, x1, y1 = second
        f2, x2, y2 = worst
        if (
            abs(x1 - x0) <= xatol
            and abs(y1 - y0) <= xatol
            and abs(x2 - x0) <= xatol
            and abs(y2 - y0) <= xatol
            and abs(f0 - f1) <= fatol
            and abs(f0 - f2) <= fatol
        ):
            break
        try:
            xbar = (x0 + x1) / 2
            ybar = (y0 + y1) / 2
            xr = (1 + RHO) * xbar - RHO * x2
            yr = (1 + RHO) * ybar - RHO * y2
            fxr = call(xr, yr)
            if fxr < f0:
                xe = (1 + RHO * CHI) * xbar - RHO * CHI * x2
                ye = (1 + RHO * CHI) * ybar - RHO * CHI * y2
                fxe = call(xe, ye)
                sim[2] = [fxe, xe, ye] if fxe < fxr else [fxr, xr, yr]
            elif fxr < f1:
                sim[2] = [fxr, xr, yr]
            else:
                if fxr < f2:  # outside contraction
                    xc = (1 + PSI * RHO) * xbar - PSI * RHO * x2
                    yc = (1 + PSI * RHO) * ybar - PSI * RHO * y2
                    fxc = call(xc, yc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = (1 - PSI) * xbar + PSI * x2
                    yc = (1 - PSI) * ybar + PSI * y2
                    fxc = call(xc, yc)
                    accept = fxc < f2
                if accept:
                    sim[2] = [fxc, xc, yc]
                else:  # shrink toward the best vertex
                    for v in (second, worst):
                        v[1] = x0 + SIGMA * (v[1] - x0)
                        v[2] = y0 + SIGMA * (v[2] - y0)
                        v[0] = call(v[1], v[2])
            nit += 1
        except _Exhausted:
            pass
        _sort(sim)

    f0, x0, y0 = sim[0]
    f2 = sim[2][0]
    fun = f2 if f2 != f2 else f0  # the minimum over all vertices is NaN if any is
    return SimplexResult((x0, y0), fun, nit, nfev, nfev < maxfev)
