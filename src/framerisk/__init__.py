"""Risk-based design of regular plane frames under column-loss scenarios.

The package sizes the members of a regular frame, computes closed-form
collapse strengths and Cornell reliability indexes for the intact and
damaged structure, assembles the total expected cost of construction plus
progressive-collapse failure, optimizes the beam and column design factors,
and locates the local-damage probability above which strengthening for
element removal pays off.
"""

from .catalog import DAMAGE_VARIANTS, FRAME_CATALOG, parse_damage_token, parse_frame_token
from .costs import (
    bending_collapse_cost,
    construction_cost,
    initial_damage_cost,
    local_pancake_cost,
    reference_cost,
    unit_beam_cost,
    unit_column_cost,
)
from .design import (
    MemberDesign,
    design_members,
    design_nlc,
    nlc_member_design,
    size_members,
    strengthen_apm,
)
from .mechanics import (
    CollapseMode,
    damaged_bending_strength,
    global_pancake_strength,
    intact_bending_strength,
    intact_pancake_strength,
    local_pancake_strength,
)
from .model import (
    CostParameters,
    DamageScenario,
    DesignFactors,
    FrameGeometry,
    LoadModel,
    RandomVarStats,
    Scenario,
    ValidationError,
    annual_from_lifetime,
    validate,
    violations,
)
from .optimize import (
    OptimizationError,
    OptimizationResult,
    ThresholdResult,
    minimize_total_cost,
    threshold_probability,
)
from .output import Series, emit_csv, emit_svg
from .reliability import (
    BetaSet,
    beta_damaged,
    beta_set,
    unit_strengths,
)
from .risk import ExpectedCost, ProgressionRow, RiskModel
from .studies import (
    StudyDefinition,
    parse_scenario,
    reliability_grid,
    run_study,
    scenario_from_dict,
    set_scenario_field,
    strengthening_table,
    trace_table,
    write_study_tables,
)

__version__ = "0.1.0"
