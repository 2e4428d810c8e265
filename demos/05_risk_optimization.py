"""Minimize the total expected cost over the two design factors.

The objective adds construction cost, the expected collapse cost of the
intact frame under normal loads, and the threat-weighted expected cost of
the post-damage event chain.  Beams and columns compete for the
strengthening budget: more beam steel suppresses ductile bending failures,
more column steel suppresses the brittle pancake modes.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from framerisk import RiskModel, Scenario, Series, emit_svg, minimize_total_cost, validate

OUT = Path(__file__).parent / "out"

scenario = validate(Scenario())

result = minimize_total_cost(scenario)
print(f"Reference frame, p_ld = {scenario.p_ld}:")
print(f"  lambda_b* = {result.factors.lambda_b:.3f}   (beams a bit weaker than code strengthening)")
print(f"  lambda_c* = {result.factors.lambda_c:.3f}   (columns 30% stronger)")
print(f"  C_TE*     = {result.c_te:.4f}  (construction alone would be 1.0)")
bd = result.beta_damaged
print(f"  conditional indexes at the optimum: bending {bd.beta_b:.2f}, "
      f"local pancake {bd.beta_pl:.2f}, global pancake {bd.beta_pg:.2f}")
print()

# Brute-force check on a dense grid: the multi-start simplex should match.
model = RiskModel(scenario)
grid = model.evaluate_grid(np.linspace(0.05, 3.0, 300), np.linspace(0.05, 3.0, 300))
print(f"  300x300 grid minimum: {grid.min():.6f} (optimizer found {result.c_te:.6f})")
print()

# How the optimum moves with the threat level.
print("Optimal factors as the 50-year damage probability varies:")
ps = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
curve = []
for p in ps:
    r = minimize_total_cost(replace(scenario, p_ld=p))
    curve.append(r)
    print(f"  p_ld = {p:7.4f}: lambda* = ({r.factors.lambda_b:.3f}, {r.factors.lambda_c:.3f}), "
          f"beta_b* = {r.beta_damaged.beta_b:+.2f}")

emit_svg(
    [
        Series("lambda_b*", ps, [r.factors.lambda_b for r in curve]),
        Series("lambda_c*", ps, [r.factors.lambda_c for r in curve]),
    ],
    OUT / "optimal_factors_reference.svg",
    title="Reference frame: optimal design factors vs threat probability",
    x_label="p_ld (50-year)",
    y_label="design factor",
    log_x=True,
)
print(f"\nwrote {OUT / 'optimal_factors_reference.svg'}")
print("Below some threat level the optimal beam factor sinks and its")
print("reliability index goes negative: designing for element removal no")
print("longer pays.  Demo 06 locates that threshold exactly.")
