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

The evaluation budget is checked inline before each call, with no wrapper
or exception: a refused call ends the iteration at once (``continue`` to
the sort, after which the loop stops), so the iteration keeps the moves
made before that call and does not count.
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


def minimize(
    f: Callable[[float, float], float],
    x0: tuple[float, float],
    xatol: float,
    fatol: float,
    maxfev: int,
) -> SimplexResult:
    """Minimize ``f(x, y)`` from ``x0``; ``success`` is false when the
    budget ran out, and ``nit`` counts from 1 as scipy's does."""
    x, y = float(x0[0]), float(x0[1])
    step_x = (1 + NONZDELT) * x if x != 0 else ZDELT
    step_y = (1 + NONZDELT) * y if y != 0 else ZDELT
    # vertices [f, x, y]; a, b, c are sorted by f at the head of each pass
    a, b, c = sim = [float("inf"), x, y], [float("inf"), step_x, y], [float("inf"), x, step_y]
    nfev = 0
    for v in sim:
        if nfev >= maxfev:
            break
        nfev += 1
        v[0] = f(v[1], v[2])

    nit = 1
    while True:
        # stable insertion sort, NaN after every number: numpy's argsort order
        if b[0] < a[0] or (a[0] != a[0] and b[0] == b[0]):
            a, b = b, a
        if c[0] < b[0] or (b[0] != b[0] and c[0] == c[0]):
            b, c = c, b
            if b[0] < a[0] or (a[0] != a[0] and b[0] == b[0]):
                a, b = b, a
        f0, x0, y0 = a
        f1, x1, y1 = b
        f2, x2, y2 = c
        if nfev >= maxfev or (
            abs(x1 - x0) <= xatol
            and abs(y1 - y0) <= xatol
            and abs(x2 - x0) <= xatol
            and abs(y2 - y0) <= xatol
            and abs(f0 - f1) <= fatol
            and abs(f0 - f2) <= fatol
        ):
            break
        # each call below is preceded by the budget check; a refused call
        # skips the rest of the iteration and its count (``continue``)
        xbar = (x0 + x1) / 2
        ybar = (y0 + y1) / 2
        xr = (1 + RHO) * xbar - RHO * x2
        yr = (1 + RHO) * ybar - RHO * y2
        nfev += 1  # checked at the head of the pass
        fxr = f(xr, yr)
        if fxr < f0:
            xe = (1 + RHO * CHI) * xbar - RHO * CHI * x2
            ye = (1 + RHO * CHI) * ybar - RHO * CHI * y2
            if nfev >= maxfev:
                continue
            nfev += 1
            fxe = f(xe, ye)
            c = [fxe, xe, ye] if fxe < fxr else [fxr, xr, yr]
        elif fxr < f1:
            c = [fxr, xr, yr]
        else:
            outside = fxr < f2
            if outside:
                xc = (1 + PSI * RHO) * xbar - PSI * RHO * x2
                yc = (1 + PSI * RHO) * ybar - PSI * RHO * y2
            else:  # inside contraction
                xc = (1 - PSI) * xbar + PSI * x2
                yc = (1 - PSI) * ybar + PSI * y2
            if nfev >= maxfev:
                continue
            nfev += 1
            fxc = f(xc, yc)
            if (fxc <= fxr) if outside else (fxc < f2):
                c = [fxc, xc, yc]
            else:  # shrink toward the best vertex; a refused call keeps the old value
                x1 = x0 + SIGMA * (x1 - x0)
                y1 = y0 + SIGMA * (y1 - y0)
                b = [f1, x1, y1]
                if nfev >= maxfev:
                    continue
                nfev += 1
                b[0] = f(x1, y1)
                x2 = x0 + SIGMA * (x2 - x0)
                y2 = y0 + SIGMA * (y2 - y0)
                c = [f2, x2, y2]
                if nfev >= maxfev:
                    continue
                nfev += 1
                c[0] = f(x2, y2)
        nit += 1

    fun = f2 if f2 != f2 else f0  # the minimum over all vertices is NaN if any is
    return SimplexResult((x0, y0), fun, nit, nfev, nfev < maxfev)
