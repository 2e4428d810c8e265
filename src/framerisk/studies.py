"""Scenario files, parameter sweeps and regeneration of the study tables.

Scenarios are JSON documents whose keys mirror the :class:`Scenario` field
tree; omitted keys fall back to the reference-case defaults and unknown keys
are rejected outright (a typo must not silently become a default).  Sweeps
take a base scenario plus named axes, run the optimizer (and optionally the
threshold search) at every grid point, and emit CSV/SVG through the
deterministic writers.
"""

from __future__ import annotations

import json
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .catalog import FRAME_CATALOG
from .design import MemberDesign, design_members, nlc_member_design
from .mechanics import CollapseMode
from .model import (
    CostParameters,
    DamageScenario,
    DesignFactors,
    FrameGeometry,
    LoadModel,
    RandomVarStats,
    Scenario,
    annual_from_lifetime,
    validate,
)
from .optimize import BRACKETED, minimize_total_cost, threshold_probability
from .output import Series, emit_csv, emit_svg
from .reliability import LIVE_50, LIVE_APT, beta_damaged, beta_intact
from .risk import RiskModel

_GEOMETRY_KEYS = {"n_s", "n_c", "L", "H"}
_DAMAGE_KEYS = {"n_rc0", "n_rs0"}
_COST_KEYS = {"alpha_b", "alpha_c", "k_ductile", "k_brittle", "n_reinf_s"}
_LOAD_KEYS = {"d_n", "l_n", "dead", "live_apt", "live_50", "beam_resistance", "column_resistance"}
_STATS_KEYS = {"mean", "std", "dist"}
_TOP_KEYS = {"geometry", "loads", "damage", "costs", "p_ld", "psi", "include_catenary", "phi_nlc", "phi_apm"}


def _check_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _section(data: dict, key: str, allowed: set[str], where: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    _check_keys(value, allowed, where)
    return dict(value)


def _real(value, where: str) -> float:
    # a JSON string or boolean is not a number, as it is not a count
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{where} must be a number, got {value!r}")
    return float(value)


def _stats_from_dict(data: dict, key: str) -> RandomVarStats:
    where = f"loads.{key}"
    stats = _section(data, key, _STATS_KEYS, where)
    if "mean" not in stats or "std" not in stats:
        raise ValueError(f"{where} needs both 'mean' and 'std'")
    return RandomVarStats(
        _real(stats["mean"], f"{where}.mean"),
        _real(stats["std"], f"{where}.std"),
        str(stats.get("dist", "normal")),
    )


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a scenario from a (possibly partial) dict."""
    if not isinstance(data, dict):
        raise ValueError(f"scenario document must be a JSON object, got {type(data).__name__}")
    _check_keys(data, _TOP_KEYS, "scenario")

    geometry = replace(FrameGeometry(8, 9), **_section(data, "geometry", _GEOMETRY_KEYS, "geometry"))
    damage = replace(DamageScenario(), **_section(data, "damage", _DAMAGE_KEYS, "damage"))
    costs = replace(CostParameters(), **_section(data, "costs", _COST_KEYS, "costs"))

    lds = _section(data, "loads", _LOAD_KEYS, "loads")
    stat_overrides = {key: _stats_from_dict(lds, key) for key in lds if key not in ("d_n", "l_n")}
    loads = LoadModel(d_n=_real(lds.get("d_n", 1.0), "loads.d_n"), l_n=_real(lds.get("l_n", 1.0), "loads.l_n"))
    if stat_overrides:
        loads = replace(loads, **stat_overrides)

    catenary = data.get("include_catenary", False)
    if not isinstance(catenary, bool):
        raise ValueError(f"include_catenary must be true or false, got {catenary!r}")

    scenario = Scenario(
        geometry=geometry,
        loads=loads,
        damage=damage,
        costs=costs,
        p_ld=_real(data.get("p_ld", 0.1), "p_ld"),
        psi=_real(data.get("psi", 2.0), "psi"),
        include_catenary=catenary,
        phi_nlc=_real(data.get("phi_nlc", 0.85), "phi_nlc"),
        phi_apm=_real(data.get("phi_apm", 1.0), "phi_apm"),
    )
    return validate(scenario)


def parse_scenario(path: str | Path) -> Scenario:
    """Load a scenario JSON file; missing keys take reference defaults."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return scenario_from_dict(data)


_NESTED_GROUPS = {"geometry", "loads", "damage", "costs"}


def set_scenario_field(scenario: Scenario, name: str, value) -> Scenario:
    """Return a copy of ``scenario`` with one (possibly dotted) field set.

    Setting a nominal load re-derives the dependent load statistics.
    """
    parts = name.split(".")
    if len(parts) == 1:
        if parts[0] not in {"p_ld", "psi", "include_catenary", "phi_nlc", "phi_apm"}:
            raise ValueError(f"unknown scenario field {name!r}")
        return replace(scenario, **{parts[0]: value})
    if len(parts) != 2 or parts[0] not in _NESTED_GROUPS:
        raise ValueError(f"unknown scenario field {name!r}")
    group, attr = parts
    target = getattr(scenario, group)
    if group == "loads" and attr in ("d_n", "l_n"):
        nominal = {"d_n": target.d_n, "l_n": target.l_n}
        nominal[attr] = value
        return replace(scenario, loads=LoadModel(**nominal))
    if not hasattr(target, attr):
        raise ValueError(f"unknown scenario field {name!r}")
    return replace(scenario, **{group: replace(target, **{attr: value})})


@dataclass(frozen=True)
class StudyDefinition:
    """A sweep: base scenario, named axes, output directory and emit flags."""

    base: Scenario
    axes: tuple[tuple[str, tuple], ...]
    outdir: Path
    write_csv: bool = True
    write_svg: bool = False
    with_threshold: bool = False
    jobs: int = 1

    def __post_init__(self):
        if not self.axes:
            raise ValueError("a study needs at least one sweep axis")
        for name, values in self.axes:
            if len(values) == 0:
                raise ValueError(f"sweep axis {name!r} has an empty value list")
            set_scenario_field(self.base, name, values[0])  # fails fast on bad names


def _study_points(study: StudyDefinition) -> list[tuple[tuple, Scenario]]:
    points: list[tuple[tuple, Scenario]] = [((), study.base)]
    for name, values in study.axes:
        points = [
            (coords + (value,), set_scenario_field(scn, name, value))
            for coords, scn in points
            for value in values
        ]
    return [(coords, validate(scn)) for coords, scn in points]


def _evaluate_point(args: tuple[tuple, Scenario, bool]) -> tuple:
    coords, scenario, with_threshold = args
    design = design_members(scenario)
    opt = minimize_total_cost(scenario, design)
    row = list(coords) + [
        opt.factors.lambda_b,
        opt.factors.lambda_c,
        opt.c_te,
        opt.beta_damaged.beta_b,
        opt.beta_damaged.beta_pl,
        opt.beta_damaged.beta_pg,
        opt.converged,
    ]
    if with_threshold:
        th = threshold_probability(scenario, design)
        row += [th.status, th.p_th if th.p_th is not None else ""]
    return tuple(row)


def run_study(study: StudyDefinition) -> tuple[list[str], list[tuple]]:
    """Execute every grid point (optionally in parallel) in input order."""
    header = [name for name, _ in study.axes] + [
        "lambda_b_star",
        "lambda_c_star",
        "c_te_star",
        "beta_b_star",
        "beta_pl_star",
        "beta_pg_star",
        "converged",
    ]
    if study.with_threshold:
        header += ["threshold_status", "p_ld_th"]
    tasks = [(coords, scn, study.with_threshold) for coords, scn in _study_points(study)]
    if study.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=study.jobs) as pool:
            rows = list(pool.map(_evaluate_point, tasks))
    else:
        rows = [_evaluate_point(t) for t in tasks]

    outdir = Path(study.outdir)
    if study.write_csv:
        emit_csv(outdir / "sweep.csv", header, rows)
    if study.write_svg and len(study.axes) == 1:
        axis_name = study.axes[0][0]
        xs = [row[0] for row in rows]
        emit_svg(
            [
                Series("lambda_b_star", xs, [row[1] for row in rows]),
                Series("lambda_c_star", xs, [row[2] for row in rows]),
            ],
            outdir / "sweep.svg",
            title="Optimal design factors",
            x_label=axis_name,
            y_label="design factor",
            log_x=axis_name == "p_ld",
        )
    return header, rows


# -- study tables ------------------------------------------------------------

_GRID_MODES = (
    ("global_pancake", CollapseMode.GLOBAL_PANCAKE),
    ("local_pancake", CollapseMode.LOCAL_PANCAKE),
    ("bending", CollapseMode.BENDING),
    ("catenary", CollapseMode.CATENARY),
)


def reliability_grid(
    scenario: Scenario, optimized: DesignFactors | None = None
) -> tuple[list[str], list[tuple]]:
    """Reliability indexes across design states, modes and live-load
    horizons: the normal and strengthened intact frames, the strengthened
    frame conditional on the design damage, and the same at the optimized
    factors."""
    design = design_members(scenario)
    nlc = nlc_member_design(scenario)
    if optimized is None:
        optimized = minimize_total_cost(scenario, design).factors
    unit = DesignFactors(1.0, 1.0)
    n_rc, n_rs = scenario.damage.n_rc0, scenario.damage.n_rs0

    header = ["live_load", "mode", "nlc", "strengthened", "damaged", "optimized"]
    rows: list[tuple] = []
    for live in (LIVE_APT, LIVE_50):
        for mode_name, mode in _GRID_MODES:
            if mode is CollapseMode.LOCAL_PANCAKE:
                intact_nlc = intact_str = ""
            else:
                intact_nlc = beta_intact(scenario, nlc, unit, mode, live)
                intact_str = beta_intact(scenario, design, unit, mode, live)
            damaged = beta_damaged(scenario, design, unit, n_rc, n_rs, mode, live)
            opt = beta_damaged(scenario, design, optimized, n_rc, n_rs, mode, live)
            rows.append((live, mode_name, intact_nlc, intact_str, damaged, opt))
    return header, rows


def strengthening_table(
    frames: dict[str, FrameGeometry] | None = None,
    damages: tuple[DamageScenario, ...] | None = None,
) -> tuple[list[str], list[tuple]]:
    """Strengthening factors for every frame/damage combination."""
    from .catalog import DAMAGE_VARIANTS

    frames = frames or FRAME_CATALOG
    damages = damages or DAMAGE_VARIANTS
    header = ["frame", "damage", "b_sf", "r_sf"]
    rows = []
    for frame_name, geometry in frames.items():
        for dmg in damages:
            scn = validate(Scenario(geometry=geometry, damage=dmg))
            d = design_members(scn)
            rows.append((frame_name, f"{dmg.n_rc0}x{dmg.n_rs0}", d.b_sf, d.r_sf))
    return header, rows


def trace_table(
    scenario: Scenario, design: MemberDesign | None = None, factors: DesignFactors | None = None
) -> tuple[list[str], list[tuple]]:
    if design is None:
        design = design_members(scenario)
    if factors is None:
        factors = DesignFactors(1.0, 1.0)
    header = [
        "n_fc",
        "p_b",
        "p_pl",
        "p_pg",
        "c_b",
        "c_pl",
        "c_pg",
        "chain_probability",
        "pairwise_weight",
        "reach_probability",
        "stage_expected_cost",
        "expected_cost",
        "dominant_mode",
    ]
    rows = [
        (
            r.n_fc,
            r.p_b,
            r.p_pl,
            r.p_pg,
            r.c_b,
            r.c_pl,
            r.c_pg,
            r.chain_probability,
            r.pairwise_weight,
            r.reach_probability,
            r.stage_expected_cost,
            r.expected_cost,
            r.dominant_mode,
        )
        for r in RiskModel(scenario, design).trace(factors)
    ]
    return header, rows


_CURVE_FRAMES = ("16x4", "4x16")
_CURVE_P_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def _curve_point(args: tuple[str, float]) -> tuple:
    frame_name, p_ld = args
    scn = validate(Scenario(geometry=FRAME_CATALOG[frame_name], p_ld=p_ld))
    opt = minimize_total_cost(scn)
    return (
        frame_name,
        p_ld,
        opt.factors.lambda_b,
        opt.factors.lambda_c,
        opt.beta_damaged.beta_b,
        opt.beta_damaged.beta_pl,
        opt.beta_damaged.beta_pg,
    )


def _threshold_point(frame_name: str) -> tuple:
    scn = validate(Scenario(geometry=FRAME_CATALOG[frame_name]))
    th = threshold_probability(scn)
    p_th = th.p_th if th.status == BRACKETED else ""
    annual = annual_from_lifetime(th.p_th) if th.status == BRACKETED else ""
    return (frame_name, th.status, p_th, annual)


def write_study_tables(outdir: str | Path, jobs: int = 1) -> list[Path]:
    """Regenerate the published-study reference tables and curve data.

    Emits the reliability-index grid and strengthening-factor table of the
    reference study, the optimal-factor curves over damage probability for
    the tall and low frames (CSV plus SVG), and the threshold probabilities
    for the whole frame catalog.  Deterministic: reruns are byte-identical.
    """
    outdir = Path(outdir)
    written: list[Path] = []

    scenario = validate(Scenario())
    header, rows = reliability_grid(scenario)
    written.append(emit_csv(outdir / "reliability_indexes.csv", header, rows))

    header, rows = strengthening_table()
    written.append(emit_csv(outdir / "strengthening_factors.csv", header, rows))

    curve_tasks = [(frame, p) for frame in _CURVE_FRAMES for p in _CURVE_P_GRID]
    threshold_tasks = list(FRAME_CATALOG)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            curve_rows = list(pool.map(_curve_point, curve_tasks))
            threshold_rows = list(pool.map(_threshold_point, threshold_tasks))
    else:
        curve_rows = [_curve_point(t) for t in curve_tasks]
        threshold_rows = [_threshold_point(f) for f in threshold_tasks]

    header = ["frame", "p_ld", "lambda_b_star", "lambda_c_star", "beta_b_star", "beta_pl_star", "beta_pg_star"]
    written.append(emit_csv(outdir / "optimal_factors_vs_p.csv", header, curve_rows))

    series = []
    for frame in _CURVE_FRAMES:
        rows_f = [r for r in curve_rows if r[0] == frame]
        xs = [r[1] for r in rows_f]
        series.append(Series(f"lambda_b* ({frame})", xs, [r[2] for r in rows_f]))
        series.append(Series(f"lambda_c* ({frame})", xs, [r[3] for r in rows_f]))
    emit_svg(
        series,
        outdir / "optimal_factors_vs_p.svg",
        title="Optimal design factors vs local damage probability",
        x_label="p_ld (50-year)",
        y_label="design factor",
        log_x=True,
    )
    written.append(outdir / "optimal_factors_vs_p.svg")

    header = ["frame", "status", "p_ld_th", "annual_p_th"]
    written.append(emit_csv(outdir / "threshold_probabilities.csv", header, threshold_rows))
    return written
