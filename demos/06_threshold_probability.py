"""Locate the threshold damage probability that justifies strengthening.

The threshold is the damage probability at which the optimal bending
reliability index crosses zero.  Above it, the optimizer keeps real margin
on the strengthened beams (alternate-path design pays for itself); below
it, the optimum drifts back toward plain normal-condition design.  The
threshold depends strongly on the frame aspect ratio, and catenary action
can remove it entirely.
"""

from framerisk import Scenario, annual_from_lifetime, parse_frame_token, threshold_probability, validate
from framerisk.optimize import BRACKETED

for token, label in (("4x16", "low frame"), ("8x8", "reference frame"), ("16x4", "tall frame")):
    scn = validate(Scenario(geometry=parse_frame_token(token)))
    th = threshold_probability(scn)
    if th.status == BRACKETED:
        print(f"{label:>16} ({token:>5}): p_ld_th = {th.p_th:.2e}"
              f"  (annual {annual_from_lifetime(th.p_th):.1e})")
    else:
        print(f"{label:>16} ({token:>5}): {th.status}")

print()
print("Taller frames justify strengthening at much smaller threats: losing")
print("one of few columns endangers a tall stack of stories, while a low,")
print("wide frame sheds the load sideways cheaply.")
print()

scn = validate(Scenario(include_catenary=True))
th = threshold_probability(scn)
print(f"Reference frame with catenary action (psi = 2): {th.status}")
print(f"  optimal bending index at p_ld = 1e-6 is already {th.probes[0][1].beta_damaged.beta_b:+.2f}")
print("With membrane action counted, the extra beam capacity is so cheap")
print("that bridging over a lost column pays at any threat probability.")
