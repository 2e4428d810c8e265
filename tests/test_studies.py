from __future__ import annotations

import json
from pathlib import Path

import pytest

from framerisk import (
    FRAME_CATALOG,
    FrameGeometry,
    RandomVarStats,
    Scenario,
    StudyDefinition,
    ValidationError,
    parse_scenario,
    reliability_grid,
    run_study,
    scenario_from_dict,
    set_scenario_field,
    strengthening_table,
    trace_table,
    validate,
)
from framerisk import studies
from framerisk.optimize import minimize_total_cost

GOLDEN_DIR = Path(__file__).parent / "golden"


def write_scenario(tmp_path, data) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


class TestParseScenario:
    def test_empty_object_gives_reference_case(self, tmp_path):
        scn = parse_scenario(write_scenario(tmp_path, {}))
        assert scn == validate(Scenario())

    def test_partial_geometry_override(self, tmp_path):
        scn = parse_scenario(write_scenario(tmp_path, {"geometry": {"n_s": 16, "n_c": 5}}))
        assert scn.geometry.n_s == 16
        assert scn.geometry.n_c == 5
        assert scn.geometry.L == 6.0  # untouched default
        assert scn.p_ld == 0.1

    def test_invariant_violation_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="psi"):
            parse_scenario(write_scenario(tmp_path, {"psi": 9}))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="p_threat"):
            parse_scenario(write_scenario(tmp_path, {"p_threat": 0.1}))

    def test_unknown_nested_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="stories"):
            parse_scenario(write_scenario(tmp_path, {"geometry": {"stories": 8}}))

    def test_stats_override(self, tmp_path):
        data = {"loads": {"l_n": 2.0, "beam_resistance": {"mean": 1.1, "std": 0.3, "dist": "lognormal"}}}
        scn = parse_scenario(write_scenario(tmp_path, data))
        assert scn.loads.beam_resistance.mean == 1.1
        assert scn.loads.beam_resistance.dist == "lognormal"
        assert scn.loads.live_50.mean == 2.0  # derived from the nominal override

    def test_incomplete_stats_rejected(self):
        with pytest.raises(ValueError, match="mean"):
            scenario_from_dict({"loads": {"dead": {"std": 0.1}}})

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError, match="object"):
            scenario_from_dict([1, 2, 3])


class TestSetScenarioField:
    def test_top_level(self, ref_scenario):
        assert set_scenario_field(ref_scenario, "p_ld", 0.5).p_ld == 0.5

    def test_nested(self, ref_scenario):
        scn = set_scenario_field(ref_scenario, "geometry.n_s", 16)
        assert scn.geometry.n_s == 16

    def test_nominal_load_rederives_statistics(self, ref_scenario):
        scn = set_scenario_field(ref_scenario, "loads.l_n", 2.0)
        assert scn.loads.live_apt.mean == pytest.approx(0.5)
        assert scn.loads.live_50.std == pytest.approx(0.5)

    @pytest.mark.parametrize("name", ["loads.d_n", "loads.l_n"])
    def test_nominal_load_keeps_resistance_overrides(self, name):
        scn = scenario_from_dict({"loads": {"beam_resistance": {"mean": 1.1, "std": 0.3}}})
        swept = set_scenario_field(scn, name, 2.0)
        assert swept.loads.beam_resistance == RandomVarStats(1.1, 0.3)
        assert swept.loads.column_resistance == scn.loads.column_resistance
        assert getattr(swept.loads, name.partition(".")[2]) == 2.0

    def test_unknown_field_rejected(self, ref_scenario):
        with pytest.raises(ValueError):
            set_scenario_field(ref_scenario, "geometry.stories", 3)
        with pytest.raises(ValueError):
            set_scenario_field(ref_scenario, "nonsense", 3)


class TestStudyDefinition:
    def test_empty_axis_rejected(self, ref_scenario, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            StudyDefinition(base=ref_scenario, axes=(("p_ld", ()),), outdir=tmp_path)

    def test_bad_axis_name_rejected(self, ref_scenario, tmp_path):
        with pytest.raises(ValueError):
            StudyDefinition(base=ref_scenario, axes=(("bogus", (1,)),), outdir=tmp_path)

    def test_repeated_axis_rejected(self, ref_scenario, tmp_path):
        # the grid would set the field twice and keep only the last value
        with pytest.raises(ValueError, match="'p_ld' is given more than once"):
            StudyDefinition(base=ref_scenario, axes=(("p_ld", (0.1,)), ("p_ld", (0.001,))), outdir=tmp_path)

    def test_no_axes_rejected(self, ref_scenario, tmp_path):
        with pytest.raises(ValueError):
            StudyDefinition(base=ref_scenario, axes=(), outdir=tmp_path)


class TestRunStudy:
    def test_single_axis_sweep(self, ref_scenario, tmp_path):
        study = StudyDefinition(
            base=ref_scenario,
            axes=(("p_ld", (0.05, 0.1)),),
            outdir=tmp_path,
            write_svg=True,
        )
        header, rows = run_study(study)
        assert header[0] == "p_ld"
        assert [r[0] for r in rows] == [0.05, 0.1]
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.svg").exists()
        # lambda_c* should not be hugely sensitive here, lambda_b* grows with p
        assert rows[1][1] >= rows[0][1]

    def test_parallel_matches_serial(self, ref_scenario, tmp_path, monkeypatch):
        # without a threshold each of the 4 points is a pool task; with one,
        # the points that differ only in p_ld share a task, which leaves 2
        task_counts, map_tasks = [], studies._map_tasks

        def counted(jobs, fn, tasks):
            task_counts.append(len(tasks))
            return map_tasks(jobs, fn, tasks)

        monkeypatch.setattr(studies, "_map_tasks", counted)
        axes = (("p_ld", (0.05, 0.2)), ("costs.k_ductile", (20.0, 40.0)))
        for with_threshold in (False, True):
            out = tmp_path / str(with_threshold)
            serial = run_study(
                StudyDefinition(base=ref_scenario, axes=axes, outdir=out / "s", with_threshold=with_threshold, jobs=1)
            )
            parallel = run_study(
                StudyDefinition(base=ref_scenario, axes=axes, outdir=out / "p", with_threshold=with_threshold, jobs=2)
            )
            assert serial == parallel
            assert (out / "s" / "sweep.csv").read_bytes() == (out / "p" / "sweep.csv").read_bytes()
        assert task_counts == [4, 4, 2, 2]

    def test_threshold_sweep_runs_one_search_per_scenario(self, ref_scenario, tmp_path, monkeypatch):
        # p_ld is the outer axis, so the two scenarios' points interleave;
        # each row still has the bits of a fresh solve and a fresh search
        searches, search = [], studies.threshold_probability

        def counted(scenario, model):
            searches.append(scenario)
            return search(scenario, model=model)

        monkeypatch.setattr(studies, "threshold_probability", counted)
        axes = (("p_ld", (1e-4, 1e-3, 1e-2, 1.0)), ("costs.alpha_b", (0.5, 0.7)))
        _, rows = run_study(StudyDefinition(base=ref_scenario, axes=axes, outdir=tmp_path, with_threshold=True))
        assert len(searches) == 2
        assert [row[:2] for row in rows] == [(p, a) for p in axes[0][1] for a in axes[1][1]]
        for row in rows:
            scn = validate(set_scenario_field(set_scenario_field(ref_scenario, "p_ld", row[0]), "costs.alpha_b", row[1]))
            opt, th = minimize_total_cost(scn), search(scn, model=None)
            bd = opt.beta_damaged
            expected = (
                *row[:2], opt.factors.lambda_b, opt.factors.lambda_c, opt.c_te, bd.beta_b, bd.beta_pl, bd.beta_pg,
                opt.converged, th.status, "" if th.p_th is None else th.p_th,
            )
            assert [x.hex() if isinstance(x, float) else x for x in row] == [
                x.hex() if isinstance(x, float) else x for x in expected
            ]

    def test_sweep_with_threshold(self, tmp_path):
        base = validate(Scenario(geometry=FrameGeometry(16, 5)))
        study = StudyDefinition(
            base=base,
            axes=(("p_ld", (0.1,)),),
            outdir=tmp_path,
            with_threshold=True,
        )
        header, rows = run_study(study)
        assert header[-2:] == ["threshold_status", "p_ld_th"]
        assert rows[0][-2] == "bracketed"
        assert 3e-4 <= rows[0][-1] <= 3e-3

    def test_cartesian_order(self, ref_scenario, tmp_path):
        study = StudyDefinition(
            base=ref_scenario,
            axes=(("p_ld", (0.05, 0.1)), ("costs.k_brittle", (40.0, 80.0))),
            outdir=tmp_path,
        )
        _, rows = run_study(study)
        assert [(r[0], r[1]) for r in rows] == [(0.05, 40.0), (0.05, 80.0), (0.1, 40.0), (0.1, 80.0)]


def test_reliability_grid_layout(ref_scenario):
    header, rows = reliability_grid(ref_scenario, optimized=None)
    assert header == ["live_load", "mode", "nlc", "strengthened", "damaged", "optimized"]
    assert len(rows) == 8  # 4 modes x 2 horizons
    by_key = {(r[0], r[1]): r for r in rows}
    assert by_key[("apt", "local_pancake")][2] == ""  # undefined for the intact frame
    assert by_key[("apt", "bending")][4] == pytest.approx(2.03, abs=0.02)


def test_strengthening_table_covers_catalog():
    header, rows = strengthening_table()
    assert header == ["frame", "damage", "b_sf", "r_sf"]
    assert len(rows) == 7 * 4
    by_key = {(r[0], r[1]): r for r in rows}
    assert by_key[("8x8", "1x1")][3] == pytest.approx(1.15, abs=0.01)
    assert by_key[("16x4", "1x1")][3] == pytest.approx(1.38, abs=0.01)


def test_trace_table_reference(ref_scenario):
    header, rows = trace_table(ref_scenario)
    assert header[0] == "n_fc"
    assert [r[0] for r in rows] == [1, 3, 5, 7]


@pytest.mark.parametrize("frame", studies._CURVE_FRAMES)
def test_curve_ends_reuse_the_threshold_solves(monkeypatch, frame):
    # the curve points the threshold search probed (both ends of its range
    # and its first midpoint, 1e-3) take its own solves; each has the bits of
    # a solve on a fresh model
    probed = (1e-6, 1e-3, 1.0)
    solved, solve = [], studies.minimize_total_cost

    def counted(scenario, model):
        solved.append(scenario.p_ld)
        return solve(scenario, model=model)

    monkeypatch.setattr(studies, "minimize_total_cost", counted)
    scn = validate(Scenario(geometry=FRAME_CATALOG[frame]))
    th, curve = studies._scenario_task((scn, studies._CURVE_P_GRID, True))
    assert th is not None
    assert solved == [1e-5, 1e-4, 1e-2, 1e-1]
    assert len(curve) == len(studies._CURVE_P_GRID)
    by_p = dict(zip(studies._CURVE_P_GRID, curve))

    def bits(opt):
        bd = opt.beta_damaged
        return [x.hex() for x in (opt.factors.lambda_b, opt.factors.lambda_c, bd.beta_b, bd.beta_pl, bd.beta_pg)]

    for p_ld in probed:
        fresh = minimize_total_cost(validate(Scenario(geometry=FRAME_CATALOG[frame], p_ld=p_ld)))
        assert bits(by_p[p_ld]) == bits(fresh)
