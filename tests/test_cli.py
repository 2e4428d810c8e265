from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from framerisk import ExpectedCost, OptimizationError, RiskModel, Scenario, cli, size_members, studies, validate
from framerisk import model as model_module
from framerisk.cli import run_command

GOLDEN_DIR = Path(__file__).parent / "golden"
DATA_DIR = Path(__file__).parent / "data"


def test_no_command_is_usage_error(capsys):
    assert run_command([]) == 1


def test_unknown_command_is_usage_error(capsys):
    assert run_command(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_missing_required_flag_is_usage_error(capsys):
    assert run_command(["sweep", "--outdir", "x"]) == 1


def test_design_reference(capsys):
    assert run_command(["design", "--frame", "8x8", "--damage", "1x1"]) == 0
    out = capsys.readouterr().out
    assert "b_sf    = 2.0643" in out
    assert "r_sf    = 1.1531" in out


@pytest.mark.parametrize("flags, b_sf", [([], "16.5143"), (["--damage", "1x1"], "2.0643"),
                                         (["--p-ld", "0.01", "--catenary"], "16.5143")])
def test_flags_apply_to_the_scenario_document_before_it_is_validated(tmp_path, capsys, monkeypatch, flags, b_sf):
    # n_rc0 = 8 leaves two intact columns of the 8x16 frame, not of the reference 8x8
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"damage": {"n_rc0": 8}}))
    calls = []
    original = model_module.violations
    monkeypatch.setattr(model_module, "violations", lambda scenario: calls.append(scenario) or original(scenario))
    argv = ["design", "--scenario", str(path), "--frame", "8x16", *flags]
    assert run_command(argv) == 0
    assert f"b_sf    = {b_sf}" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize("text, message", [("[1, 2]", "JSON object"), ("{not json", "Expecting"),
                                           ("[" * 990 + "]" * 990, "nested too deeply")])
def test_an_unreadable_document_is_a_data_error_under_flags(tmp_path, capsys, text, message):
    path = tmp_path / "scn.json"
    path.write_text(text)
    assert run_command(["design", "--scenario", str(path), "--frame", "8x16", "--damage", "1x1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1


def test_bad_frame_token_is_data_error(capsys):
    assert run_command(["design", "--frame", "8by8"]) == 2


def test_malformed_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_command(["design", "--scenario", str(bad)]) == 2


@pytest.mark.parametrize("depth", [990, 100_000])
def test_deeply_nested_json_is_data_error(tmp_path, capsys, depth):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    assert run_command(["evaluate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested too deeply" in err
    assert len(err.splitlines()) == 1


def test_missing_scenario_file_is_data_error(tmp_path):
    assert run_command(["design", "--scenario", str(tmp_path / "nope.json")]) == 2


def test_invalid_scenario_is_data_error(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"psi": 9}))
    assert run_command(["evaluate", "--scenario", str(path)]) == 2
    assert "psi" in capsys.readouterr().err


def test_unknown_scenario_key_is_data_error(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"geometry": {"floors": 3}}))
    assert run_command(["design", "--scenario", str(path)]) == 2
    assert "floors" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "scn.json"
    # finite loads this large overflow the load-effect variances, which
    # validate computes as RiskModel does, so optimize never starts
    path.write_text('{"loads": {"d_n": 1e200, "l_n": 1e200}}')
    assert run_command(["optimize", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: load and resistance means and variances must be finite")
    assert len(err.splitlines()) == 1


def _raise_optimization_error(*args, **kwargs):
    raise OptimizationError("the objective was not finite at any start point")


# One numerical failure per command, injected past validation: a result with
# a non-finite term or a solve that fails.
_NUMERICAL_FAILURES = {
    "design": (cli, "design_members", lambda scenario: replace(size_members(scenario), b_sf=math.inf)),
    "evaluate": (RiskModel, "breakdown", lambda model, lb, lc: ExpectedCost(1.0, math.nan, 0.0, 0.0, math.nan)),
    "trace": (cli, "trace_table", lambda scenario, factors: (["n_fc", "expected_cost"], [(1, math.inf)])),
    "beta": (cli, "reliability_grid", lambda scenario, factors: (["live", "mode", "beta"], [("apt", "bending", math.nan)])),
    "optimize": (cli, "minimize_total_cost", _raise_optimization_error),
    "threshold": (cli, "threshold_probability", _raise_optimization_error),
}


@pytest.mark.parametrize("command", list(_NUMERICAL_FAILURES))
def test_numerical_failure_is_exit_3(monkeypatch, capsys, command):
    monkeypatch.setattr(*_NUMERICAL_FAILURES[command])
    assert run_command([command]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1


def test_string_catenary_flag_is_data_error(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"include_catenary": "false"}))
    assert run_command(["evaluate", "--scenario", str(path)]) == 2
    assert "include_catenary" in capsys.readouterr().err


_NAN = float("nan")


@pytest.mark.parametrize(
    "doc",
    [
        {"geometry": {"n_s": "8"}},
        {"geometry": {"n_s": 8.5}},
        {"geometry": {"n_c": True}},
        {"damage": {"n_rc0": 1.0}},
        {"damage": {"n_rs0": "1"}},
        {"costs": {"n_reinf_s": 2.0}},
        {"loads": {"d_n": _NAN}},
        {"loads": {"l_n": _NAN}},
        {"loads": {"dead": {"mean": _NAN, "std": 0.1}}},
        {"loads": {"live_apt": {"mean": 0.25, "std": _NAN}}},
        {"loads": {"live_50": {"mean": _NAN, "std": 0.25}}},
        {"loads": {"beam_resistance": {"mean": _NAN, "std": 0.2}}},
        {"loads": {"column_resistance": {"mean": 1.2, "std": _NAN}}},
    ],
    ids=lambda doc: json.dumps(doc),
)
def test_non_integer_count_or_non_finite_load_is_data_error(tmp_path, capsys, doc):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert run_command(["evaluate", "--scenario", str(path)]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"p_ld": None}, "p_ld"),
        ({"psi": [2.0]}, "psi"),
        ({"p_ld": "0.5"}, "p_ld"),
        ({"psi": True}, "psi"),
        ({"loads": {"l_n": "1"}}, "loads.l_n"),
        ({"loads": {"dead": {"mean": 1.0, "std": False}}}, "loads.dead.std"),
        ({"geometry": 5}, "geometry"),
        ({"geometry": None}, "geometry"),
        ({"damage": [1, 1]}, "damage"),
        ({"costs": "cheap"}, "costs"),
        ({"loads": 5}, "loads"),
        ({"loads": {"dead": 5}}, "loads.dead"),
        ({"loads": {"d_n": None}}, "loads.d_n"),
        ({"loads": {"live_50": {"mean": None, "std": 0.25}}}, "loads.live_50.mean"),
        pytest.param({"p_ld": 10**400}, "p_ld", id="p_ld beyond float range"),
        pytest.param({"loads": {"l_n": 10**400}}, "loads.l_n", id="l_n beyond float range"),
        pytest.param({"geometry": {"n_s": 10**400}}, "geometry.n_s", id="n_s beyond float range"),
        ({"loads": {"dead": {"mean": 1.0, "std": 0.1, "dist": 5}}}, "loads.dead.dist"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else None,
)
def test_wrongly_typed_value_or_section_is_data_error(tmp_path, capsys, doc, where):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert run_command(["evaluate", "--scenario", str(path)]) == 2
    assert f"{where} must be" in capsys.readouterr().err


_ZERO_STDS = {name: {"mean": 1.0, "std": 0.0} for name in ("dead", "live_apt", "live_50")}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"loads": {"beam_resistance": {"mean": -1.22, "std": 0.2}}}, "beam_resistance.mean > 0"),
        ({"loads": {"column_resistance": {"mean": 0.0, "std": 0.22}}}, "column_resistance.mean > 0"),
        (
            {"loads": {**_ZERO_STDS, "beam_resistance": {"mean": 1.22, "std": 0.0}}},
            "beam_resistance.std, dead.std and live_apt.std must not all be zero",
        ),
        ({"loads": {"d_n": 0.0, "l_n": 0.0}}, "nominal loads must not both be zero"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else None,
)
def test_unevaluable_scenario_is_data_error(tmp_path, capsys, doc, message):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert run_command(["evaluate", "--scenario", str(path)]) == 2
    assert message in capsys.readouterr().err


# Tiny loads, whose total variance underflows to 0 in an index, and an index
# that overflows by itself: once exit 3 from some commands and 0 from others
_UNEVALUABLE_INDEXES = {
    "tiny loads": {"loads": {"d_n": 1.1e-284, "l_n": 2.5e-261}},
    "index overflows": {"loads": {
        "dead": {"mean": 1.05, "std": 1e-150}, "live_apt": {"mean": 0.25, "std": 1e-150},
        "live_50": {"mean": 1.0, "std": 1e-150}, "column_resistance": {"mean": 1e300, "std": 1e-150},
    }},
}


@pytest.mark.parametrize("command", ["design", "beta", "evaluate", "trace", "optimize", "threshold"])
@pytest.mark.parametrize("doc", list(_UNEVALUABLE_INDEXES.values()), ids=list(_UNEVALUABLE_INDEXES))
def test_unevaluable_index_is_data_error_from_every_command(tmp_path, capsys, doc, command):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert run_command([command, "--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "must keep every reliability index" in err


@pytest.mark.parametrize("source", ["frame-token", "json"])
def test_too_many_columns_is_data_error(tmp_path, capsys, monkeypatch, source):
    monkeypatch.setattr(cli, "RiskModel", None)  # validation rejects before any model is built
    if source == "frame-token":
        argv = ["--frame", "8x100000000000"]
    else:
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"geometry": {"n_c": 10**12}}))
        argv = ["--scenario", str(path)]
    assert run_command(["evaluate", *argv]) == 2
    assert "n_c <= 1000 violated" in capsys.readouterr().err


def test_no_initial_damage_is_data_error(capsys):
    assert run_command(["evaluate", "--damage", "0x0"]) == 2
    assert "1 <= n_rc0" in capsys.readouterr().err


_BAD_AXES = [
    ("geometry.n_s=8.5", "n_s must be an integer"),
    ("loads.dead=1.5", "'loads.dead' is not a scalar scenario field"),
    ("geometry.__class__=1", "'geometry.__class__' is not a scalar scenario field"),
    ("include_catenary=0.5", "include_catenary must be a boolean"),
]


@pytest.mark.parametrize("axis, message", _BAD_AXES, ids=[axis for axis, _ in _BAD_AXES])
def test_fractional_story_axis_is_data_error(tmp_path, capsys, axis, message):
    assert run_command(["sweep", "--axis", axis, "--outdir", str(tmp_path), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_evaluate_prints_breakdown(capsys):
    assert run_command(["evaluate", "--lambda-b", "0.9", "--lambda-c", "1.3"]) == 0
    out = capsys.readouterr().out
    assert "total expected cost" in out
    assert "1.167" in out
    cost = RiskModel(validate(Scenario())).breakdown(0.9, 1.3)
    assert out.splitlines() == [
        f"construction            = {cost.construction:.6f}",
        f"normal-loading failure  = {cost.normal_loading:.6f}",
        f"initial damage cost     = {cost.initial_damage:.6f}",
        f"damage branch (max E[C])= {cost.damage_branch:.6f}",
        f"total expected cost     = {cost.total:.6f}",
    ]


@pytest.mark.parametrize("command", ["design", "evaluate", "trace", "beta"])
def test_non_finite_result_is_numerical_failure(tmp_path, capsys, command):
    # the strengthening factor b_y_0 / b_y_nlc of this scenario overflows and
    # so does the beam resistance's variance; validate reads the moments
    # RiskModel reads and rejects the scenario before any command computes
    path = tmp_path / "scn.json"
    loads = {"d_n": 1e-10, "l_n": 1e-10, "beam_resistance": {"mean": 1.22, "std": 1e300}}
    path.write_text(json.dumps({"geometry": {"L": 0.1}, "phi_apm": 1e-308, "loads": loads}))
    assert run_command([command, "--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: load and resistance means and variances must be finite")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["design", "beta", "evaluate", "trace", "optimize", "threshold"])
@pytest.mark.parametrize(
    "doc",
    [{"phi_apm": 1e-160}, {"costs": {"k_ductile": 1e130}, "phi_apm": 1e-224}],
    ids=["strength overflows", "failure cost overflows"],
)
def test_overflowing_strength_or_cost_is_data_error(tmp_path, capsys, command, doc):
    # every index of these strengthened frames would read 0 (p_f = 0.5), or
    # their failure costs inf; validate rejects them before any command runs
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert run_command([command, "--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["evaluate", "trace", "beta"])
@pytest.mark.parametrize("flag", ["--lambda-b", "--lambda-c"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "0.01", "1e-200"])
def test_nonpositive_or_non_finite_factor_is_data_error(capsys, command, flag, value):
    # validate proves a scenario evaluable only for factors from
    # FACTOR_BOUNDS[0] up; below it an index's variance may underflow to 0
    assert run_command([command, f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert f"{flag} must be a number >= {cli.FACTOR_BOUNDS[0]:g} and <= {cli.MAX_FACTOR:g}" in err
    assert len(err.splitlines()) == 1


# every load std zero: validate accepts it, since each index keeps a nonzero
# variance from the resistance at factors from FACTOR_BOUNDS[0] up
_ZERO_LOAD_STDS = {"loads": {
    "dead": {"mean": 1.05, "std": 0}, "live_apt": {"mean": 0.25, "std": 0}, "live_50": {"mean": 1.0, "std": 0},
}}


@pytest.mark.parametrize("command", ["evaluate", "trace", "beta"])
def test_factor_whose_index_variance_underflows_is_data_error(tmp_path, capsys, command):
    # at 1e-200 the resistance variance r*r*var_r underflows to 0 and the
    # index would divide by zero
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_ZERO_LOAD_STDS))
    assert run_command([command, "--scenario", str(path), "--lambda-b", "1e-200", "--lambda-c", "1e-200"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lambda-b must be a number >= ") and len(err.splitlines()) == 1
    assert run_command([command, "--scenario", str(path), "--lambda-b", "0.05", "--lambda-c", "0.05"]) == 0


@pytest.mark.parametrize(
    "argv", [["evaluate", "--lambda-b=1e308"], ["trace", "--lambda-c=1e300"], ["beta", "--lambda-b=1e200"]]
)
def test_factor_above_bound_is_data_error(capsys, argv):
    # finite factors this large overflow or flatten the reliability index
    # (nan costs, p = 0.5 at every stage, an optimized index of 0)
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert f"must be a number >= {cli.FACTOR_BOUNDS[0]:g} and <= {cli.MAX_FACTOR:g}" in err
    assert len(err.splitlines()) == 1
    for value in cli.FACTOR_BOUNDS[0], cli.MAX_FACTOR:  # either end of the range is accepted
        assert run_command([argv[0], argv[1].split("=")[0] + f"={value}"]) == 0


def test_beta_grid_stdout(capsys):
    assert run_command(["beta", "--lambda-b", "0.9", "--lambda-c", "1.3"]) == 0
    out = capsys.readouterr().out
    assert "bending" in out
    assert "local_pancake" in out


def test_beta_grid_csv(tmp_path, capsys):
    out_csv = tmp_path / "grid.csv"
    assert run_command(["beta", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "live_load,mode,nlc,strengthened,damaged,optimized"
    assert len(lines) == 9


def test_trace_csv_output(tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    assert run_command(["trace", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("n_fc,")
    assert len(lines) == 5  # header + 4 chain extents


@pytest.mark.parametrize(
    "name, argv",
    [
        ("trace_reference_1_1.csv", ["--lambda-b", "1", "--lambda-c", "1"]),
        ("trace_reference_0.9_1.3.csv", ["--lambda-b", "0.9", "--lambda-c", "1.3"]),
        ("trace_4x16_catenary_0.9_1.3.csv", ["--frame", "4x16", "--catenary", "--lambda-b", "0.9", "--lambda-c", "1.3"]),
    ],
)
def test_trace_csv_matches_frozen_bytes(tmp_path, capsys, name, argv):
    # progression-chain tables this command wrote once and froze: a change to
    # the chain walk must keep every byte of them
    out_csv = tmp_path / name
    assert run_command(["trace", *argv, "--out", str(out_csv)]) == 0
    assert out_csv.read_bytes() == (DATA_DIR / name).read_bytes()


def test_optimize_reference(capsys):
    assert run_command(["optimize", "--p-ld", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "lambda_b* = 0.899" in out
    assert "lambda_c* = 1.296" in out
    # a lone solve keeps no memo
    assert out.splitlines()[-1] == "evaluations = 2092, memo hits = 0"


def test_threshold_tall_frame(capsys):
    assert run_command(["threshold", "--frame", "16x4"]) == 0
    out = capsys.readouterr().out
    assert "p_ld_th" in out
    value = float(out.splitlines()[0].split("=")[1])
    assert 3e-4 <= value <= 3e-3
    assert out.splitlines()[-1] == "evaluations = 26692, memo hits = 10123"


def test_sweep_cli(tmp_path, capsys):
    assert (
        run_command(
            [
                "sweep",
                "--axis",
                "p_ld=0.05,0.1",
                "--outdir",
                str(tmp_path),
                "--svg",
                "--jobs",
                "1",
            ]
        )
        == 0
    )
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "sweep.svg").exists()


def test_linear_sweep_svg_matches_frozen_bytes(tmp_path, capsys):
    # a single-axis sweep over a linear axis, written once and frozen: the
    # goldens pin only a log x axis
    argv = ["sweep", "--axis", "geometry.L=5,6,7", "--svg", "--outdir", str(tmp_path), "--jobs", "1"]
    assert run_command(argv) == 0
    assert (tmp_path / "sweep.svg").read_bytes() == (DATA_DIR / "sweep_geometry_L_5_6_7.svg").read_bytes()


def test_sweep_svg_of_a_lone_huge_value(tmp_path, capsys):
    # 1e17 - 0.5 == 1e17: a lone value this large needs more than a half each way
    argv = ["sweep", "--axis", "geometry.L=1e17", "--svg", "--outdir", str(tmp_path), "--jobs", "1"]
    assert run_command(argv) == 0
    text = (tmp_path / "sweep.svg").read_text()
    ET.fromstring(text)
    assert "nan" not in text and "inf" not in text


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces the process pool with one that records its worker count and
    maps in this process; returns the recorded counts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(studies, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_pool_has_at_most_one_worker_per_task(tmp_path, pool_sizes):
    argv = ["sweep", "--axis", "p_ld=0.05,0.1", "--outdir", str(tmp_path), "--jobs", "64"]
    assert run_command(argv) == 0
    assert pool_sizes == [2]
    # the paper tables run one task per catalog frame
    assert studies._map_tasks(64, abs, list(range(-7, 0))) == list(range(7, 0, -1))
    assert pool_sizes == [2, 7]
    # one task, or one job, runs in this process
    assert studies._map_tasks(64, abs, [-1]) == [1]
    assert studies._map_tasks(1, abs, [-1, -2]) == [1, 2]
    assert pool_sizes == [2, 7]


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--axis", "p_ld=0.1"], ["paper-tables"]],
    ids=["sweep", "paper-tables"],
)
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, pool_sizes, argv, jobs):
    assert run_command([*argv, "--outdir", str(tmp_path), "--jobs", jobs]) == 1
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert pool_sizes == [] and not any(tmp_path.iterdir())


def test_bad_axis_spec_is_data_error(tmp_path):
    assert run_command(["sweep", "--axis", "p_ld", "--outdir", str(tmp_path)]) == 2


def test_repeated_axis_is_data_error(tmp_path, capsys):
    # the last value would win, under a header that names the field twice
    argv = ["sweep", "--axis", "p_ld=0.1", "--axis", "p_ld=0.001", "--outdir", str(tmp_path), "--jobs", "1"]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert "sweep axis 'p_ld' is given more than once" in err and len(err.splitlines()) == 1
    assert not any(tmp_path.iterdir())


def test_catenary_flag(capsys):
    assert run_command(["optimize", "--catenary", "--p-ld", "0.1"]) == 0
    out = capsys.readouterr().out
    # catenary-included optimum reduces the beam factor
    assert "lambda_b* = 0.63" in out


@pytest.fixture(scope="module")
def generated_tables(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("tables")
    assert run_command(["paper-tables", "--outdir", str(outdir), "--jobs", "1"]) == 0
    return outdir


@pytest.mark.parametrize(
    "name",
    [
        "reliability_indexes.csv",
        "strengthening_factors.csv",
        "optimal_factors_vs_p.csv",
        "optimal_factors_vs_p.svg",
        "threshold_probabilities.csv",
    ],
)
def test_study_tables_match_golden(generated_tables, name):
    # content was validated against the published values once, then frozen;
    # regeneration must reproduce the commit byte for byte
    got = (generated_tables / name).read_bytes()
    want = (GOLDEN_DIR / name).read_bytes()
    assert got == want, f"{name} deviates from the frozen golden"
