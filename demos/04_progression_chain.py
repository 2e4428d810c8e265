"""Follow the progressive-collapse chain after the initial column loss.

Local pancake failure propagates sideways two columns at a time, so the
damage extent walks 1, 3, 5, 7 failed columns on the reference frame.  At
every extent the three modes compete; the table reports their conditional
probabilities, the (constant) failure costs, the probability that the chain
has advanced this far, and the resulting expected cost.  Comparing the
strengthened frame with the normal one shows what the strengthening buys.
"""

from dataclasses import replace
from pathlib import Path

from framerisk import (
    CostParameters,
    DesignFactors,
    RiskModel,
    Scenario,
    design_members,
    emit_csv,
    nlc_member_design,
    validate,
)

OUT = Path(__file__).parent / "out"

scenario = validate(Scenario())
unit = DesignFactors(1.0, 1.0)


def show(title, scn, design):
    rows = RiskModel(scn, design).trace(unit)
    print(title)
    print(f"  {'n_fc':>4}  {'p_bend':>8}  {'p_loc':>8}  {'p_glob':>8}  {'reach':>8}  {'E[cost]':>8}  dominant")
    for r in rows:
        print(
            f"  {r.n_fc:>4}  {r.p_b:8.4f}  {r.p_pl:8.4f}  {r.p_pg:8.4f}"
            f"  {r.reach_probability:8.4f}  {r.expected_cost:8.3f}  {r.dominant_mode}"
        )
    print()
    return rows


strengthened = show("Strengthened frame:", scenario, design_members(scenario))

normal_scn = replace(scenario, costs=CostParameters(n_reinf_s=0))
normal = show("Normal frame (no strengthening):", normal_scn, nlc_member_design(normal_scn))

print("The normal frame is nearly certain to lose its beams in bending")
print(f"(p = {normal[0].p_b:.2f}) and its chain keeps a reach probability of")
print(f"{normal[-1].reach_probability:.3f} at full width, so its expected cost plateaus")
print(f"around {normal[-1].expected_cost:.1f}; strengthening cuts that to {strengthened[-1].expected_cost:.2f}.")

emit_csv(
    OUT / "progression_strengthened.csv",
    ["n_fc", "p_b", "p_pl", "p_pg", "reach", "expected_cost"],
    [(r.n_fc, r.p_b, r.p_pl, r.p_pg, r.reach_probability, r.expected_cost) for r in strengthened],
)
print(f"\nwrote {OUT / 'progression_strengthened.csv'}")
