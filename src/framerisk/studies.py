"""Scenario files, parameter sweeps and regeneration of the study tables.

Scenarios are JSON documents whose keys mirror the :class:`Scenario` field
tree; omitted keys fall back to the reference-case defaults and unknown keys
are rejected outright (a typo must not silently become a default).  Sweeps
take a base scenario plus named axes, run the optimizer at every grid point
(and optionally the threshold search, once for the points that differ only
in ``p_ld``), and emit CSV/SVG through the deterministic writers.
"""

from __future__ import annotations

import json
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path

from .catalog import DAMAGE_VARIANTS, FRAME_CATALOG
from .design import MemberDesign, design_members, size_members
from .model import (
    DesignFactors,
    LoadModel,
    RandomVarStats,
    Scenario,
    _LOAD_STATS,
    _derived,
    _scalar_fields,
    annual_from_lifetime,
    validate,
)
from .optimize import BRACKETED, ThresholdResult, minimize_total_cost, threshold_probability
from .output import Series, emit_csv, emit_svg
from .reliability import LIVE_50, LIVE_APT, MODE_FIELDS, _mode_indexes
from .risk import ProgressionRow, RiskModel, precomputed

_DEFAULT = Scenario()


def _keys(dataclass_or_instance) -> frozenset[str]:
    return frozenset(f.name for f in fields(dataclass_or_instance))


# The JSON keys of each level of the field tree and the fields a sweep axis
# may set (every scalar above the load statistics), built once from the
# dataclasses and the model's walk of them so that neither can drift.
_TOP_KEYS = _keys(Scenario)
_SECTIONS = {name: _keys(getattr(_DEFAULT, name)) for name in _TOP_KEYS if is_dataclass(getattr(_DEFAULT, name))}
_STATS_KEYS = _keys(RandomVarStats)
_STATS_REQUIRED = frozenset(f.name for f in fields(RandomVarStats) if f.default is MISSING)
# The statistics LoadModel derives from the nominal loads when left unset.
_DERIVED_STATS = dict.fromkeys((f.name for f in fields(LoadModel) if f.default is None), None)
_AXES = frozenset(name for name, _ in _scalar_fields(Scenario) if name.count(".") < 2)


def _section(value, allowed: frozenset[str], where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(value.keys() - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")
    return value


def _real(value, where: str) -> float:
    # a JSON string or boolean is not a number, as it is not a count
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where} must be a finite number, got an integer beyond float range") from None


def _stats_from_dict(value, where: str) -> RandomVarStats:
    stats = _section(value, _STATS_KEYS, where)
    if not _STATS_REQUIRED <= stats.keys():
        raise ValueError(f"{where} needs {' and '.join(map(repr, sorted(_STATS_REQUIRED)))}")
    return RandomVarStats(**stats)


def _loads_from_dict(value) -> LoadModel:
    # LoadModel derives the load statistics from the nominal loads as it is
    # built, so those two must be numbers before it is
    loads = _section(value, _SECTIONS["loads"], "loads")
    return LoadModel(**{
        key: _stats_from_dict(item, f"loads.{key}") if key in _LOAD_STATS else _real(item, f"loads.{key}")
        for key, item in loads.items()
    })


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a scenario from a (possibly partial) dict."""
    kwargs = {}
    for key, value in _section(data, _TOP_KEYS, "scenario document").items():
        if key == "loads":
            value = _loads_from_dict(value)
        elif key in _SECTIONS:
            value = replace(getattr(_DEFAULT, key), **_section(value, _SECTIONS[key], key))
        kwargs[key] = value
    return validate(Scenario(**kwargs))


def parse_scenario(path: str | Path) -> Scenario:
    """Load a scenario JSON file; missing keys take reference defaults."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # a data error, not a fault of the program
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    return scenario_from_dict(data)


def set_scenario_field(scenario: Scenario, name: str, value) -> Scenario:
    """Return a copy of ``scenario`` with one scalar field set, by its
    dotted name (``p_ld``, ``geometry.n_s``, ``loads.l_n``, ...).

    Setting a nominal load re-derives the load statistics that follow from
    it (dead and live) and keeps the resistance statistics.  Type and range
    rules are left to :func:`validate`.
    """
    if name not in _AXES:
        raise ValueError(f"{name!r} is not a scalar scenario field; a sweep axis sets one of {sorted(_AXES)}")
    section, _, key = name.rpartition(".")
    if not section:
        return replace(scenario, **{key: value})
    if section == "loads":
        return replace(scenario, loads=replace(scenario.loads, **{key: _real(value, name)}, **_DERIVED_STATS))
    return replace(scenario, **{section: replace(getattr(scenario, section), **{key: value})})


@dataclass(frozen=True)
class StudyDefinition:
    """A sweep: base scenario, named axes, output directory and emit flags."""

    base: Scenario
    axes: tuple[tuple[str, tuple], ...]
    outdir: Path
    write_svg: bool = False
    with_threshold: bool = False
    jobs: int = 1

    def __post_init__(self):
        if not self.axes:
            raise ValueError("a study needs at least one sweep axis")
        for name, values in self.axes:
            if len(values) == 0:
                raise ValueError(f"sweep axis {name!r} has an empty value list")
            if sum(other == name for other, _ in self.axes) > 1:
                raise ValueError(f"sweep axis {name!r} is given more than once")
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


def _scenario_task(args: tuple[Scenario, tuple, bool]) -> tuple[ThresholdResult | None, list]:
    """One scenario's threshold search, if asked for, and its solve at each ``p_ld``.

    With the search, the solves share its model and memo, and a ``p_ld`` it
    probed keeps the probe's solve.  Without it, each solve keeps no memo.
    A ``p_ld`` equal to the scenario's own solves the scenario, validated once.
    """
    scenario, p_lds, with_threshold = args
    model, th, solved = None, None, {}
    if with_threshold:
        model = RiskModel(scenario)
        th = threshold_probability(scenario, model=model)
        solved = {10.0**log10_p: opt for log10_p, opt in th.probes}
    return th, [
        solved[p] if p in solved
        else minimize_total_cost(scenario if p == scenario.p_ld else replace(scenario, p_ld=p), model=model)
        for p in p_lds
    ]


def _map_tasks(jobs: int, fn, tasks: list) -> list:
    """``fn`` over ``tasks``, results in input order.

    With more than one worker to use, the tasks run in a process pool of at
    most ``min(jobs, len(tasks))`` workers: under the fork start method the
    pool forks all of them at the first task, idle or not.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def run_study(study: StudyDefinition) -> tuple[list[str], list[tuple]]:
    """Execute every grid point (optionally in parallel) in input order."""
    header = [name for name, _ in study.axes]
    header += ["lambda_b_star", "lambda_c_star", "c_te_star", "beta_b_star", "beta_pl_star", "beta_pg_star", "converged"]
    if study.with_threshold:
        header += ["threshold_status", "p_ld_th"]
    points = _study_points(study)
    # with a threshold, the points that differ only in p_ld share one task: one model, one search
    groups: dict = {}
    for i, (_, scn) in enumerate(points):
        groups.setdefault(replace(scn, p_ld=0.0) if study.with_threshold else i, []).append(i)
    tasks = [
        (points[idx[0]][1], tuple(points[i][1].p_ld for i in idx), study.with_threshold) for idx in groups.values()
    ]
    rows: list[tuple] = [()] * len(points)
    for idx, (th, opts) in zip(groups.values(), _map_tasks(study.jobs, _scenario_task, tasks)):
        for i, opt in zip(idx, opts):
            bd = opt.beta_damaged
            cells = (opt.factors.lambda_b, opt.factors.lambda_c, opt.c_te, bd.beta_b, bd.beta_pl, bd.beta_pg, opt.converged)
            rows[i] = points[i][0] + cells + (() if th is None else (th.status, "" if th.p_th is None else th.p_th))

    outdir = Path(study.outdir)
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

def reliability_grid(
    scenario: Scenario, optimized: DesignFactors | None = None
) -> tuple[list[str], list[tuple]]:
    """Reliability indexes across design states, modes and live-load
    horizons: the normal and strengthened intact frames, the strengthened
    frame conditional on the design damage, and the same at the optimized
    factors.  Local pancake has no intact index; its cells are empty."""
    moments = _derived(validate(scenario)).moments
    table = precomputed(scenario, design_members(scenario))
    if optimized is None:
        optimized = minimize_total_cost(scenario).factors
    unit, damaged = DesignFactors(1.0, 1.0), table.stage_strengths[0]
    columns = ((table.nlc_strengths, unit), (table.intact_strengths, unit), (damaged, unit), (damaged, optimized))

    header = ["live_load", "mode", "nlc", "strengthened", "damaged", "optimized"]
    rows: list[tuple] = []
    for live in (LIVE_APT, LIVE_50):
        # the routine behind beta_set, on the validated table's strengths
        states = [_mode_indexes(moments, strengths, factors, live) for strengths, factors in columns]
        for mode, field in MODE_FIELDS.items():
            cells = ["" if (beta := getattr(state, field)) is None else beta for state in states]
            rows.append((live, mode.value, *cells))
    return header, rows


def strengthening_table() -> tuple[list[str], list[tuple]]:
    """Strengthening factors for every catalog frame and damage variant, as ``validate`` sizes them."""
    header = ["frame", "damage", "b_sf", "r_sf"]
    rows = []
    for frame_name, geometry in FRAME_CATALOG.items():
        for dmg in DAMAGE_VARIANTS:
            d = size_members(Scenario(geometry=geometry, damage=dmg))
            rows.append((frame_name, f"{dmg.n_rc0}x{dmg.n_rs0}", d.b_sf, d.r_sf))
    return header, rows


def trace_table(
    scenario: Scenario, design: MemberDesign | None = None, factors: DesignFactors | None = None
) -> tuple[list[str], list[tuple]]:
    if factors is None:
        factors = DesignFactors(1.0, 1.0)
    return list(ProgressionRow._fields), RiskModel(scenario, design).trace(factors)


_CURVE_FRAMES = ("16x4", "4x16")
_CURVE_P_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def write_study_tables(outdir: str | Path, jobs: int = 1) -> list[Path]:
    """Regenerate the published-study reference tables and curve data.

    Emits the reliability-index grid and strengthening-factor table of the
    reference study, the optimal-factor curves over damage probability for
    the tall and low frames (CSV plus SVG), and the threshold probabilities
    for the whole frame catalog.  Deterministic: reruns are byte-identical.
    """
    outdir = Path(outdir)
    written: list[Path] = []

    header, rows = reliability_grid(Scenario())
    written.append(emit_csv(outdir / "reliability_indexes.csv", header, rows))

    header, rows = strengthening_table()
    written.append(emit_csv(outdir / "strengthening_factors.csv", header, rows))

    # one task per frame, the curve frames (the longest tasks) first
    frames = sorted(FRAME_CATALOG, key=lambda frame: frame not in _CURVE_FRAMES)
    tasks = [
        (Scenario(geometry=FRAME_CATALOG[frame]), _CURVE_P_GRID if frame in _CURVE_FRAMES else (), True)
        for frame in frames
    ]
    by_frame = dict(zip(frames, _map_tasks(jobs, _scenario_task, tasks)))
    threshold_rows = []
    for frame in FRAME_CATALOG:
        th = by_frame[frame][0]
        p_th = (th.p_th, annual_from_lifetime(th.p_th)) if th.status == BRACKETED else ("", "")
        threshold_rows.append((frame, th.status, *p_th))
    curve_rows, series = [], []
    for frame in _CURVE_FRAMES:
        opts = by_frame[frame][1]
        for p_ld, opt in zip(_CURVE_P_GRID, opts):
            bd = opt.beta_damaged
            curve_rows.append((frame, p_ld, opt.factors.lambda_b, opt.factors.lambda_c, bd.beta_b, bd.beta_pl, bd.beta_pg))
        series.append(Series(f"lambda_b* ({frame})", _CURVE_P_GRID, [opt.factors.lambda_b for opt in opts]))
        series.append(Series(f"lambda_c* ({frame})", _CURVE_P_GRID, [opt.factors.lambda_c for opt in opts]))

    header = ["frame", "p_ld", "lambda_b_star", "lambda_c_star", "beta_b_star", "beta_pl_star", "beta_pg_star"]
    written.append(emit_csv(outdir / "optimal_factors_vs_p.csv", header, curve_rows))
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
