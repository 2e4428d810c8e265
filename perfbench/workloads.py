"""The benchmark workloads: seeded inputs, one operation, output checks.

Each workload builds one round of inputs from the seed; a run repeats whole
rounds.  ``run`` is the timed operation and hands the program only the
generated inputs.  ``check`` compares an output with the independent
reference in ``reference.py`` the first time an input is seen and with that
first output on every later round, and ``check_round`` holds the checks
that need a whole round.  The checks are module-level functions so the
self-test can feed them planted wrong answers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
from pathlib import Path

import numpy as np

import framerisk as fr
from framerisk import cli, studies
from reference import (
    CATALOG,
    PUBLISHED_B_SF,
    PUBLISHED_BETA,
    PUBLISHED_DAMAGES,
    PUBLISHED_R_SF,
    Reference,
    annual_from_lifetime,
    frame_doc,
)

# -- paper-tables -------------------------------------------------------------

TABLE_FILES = (
    "optimal_factors_vs_p.csv",
    "optimal_factors_vs_p.svg",
    "reliability_indexes.csv",
    "strengthening_factors.csv",
    "threshold_probabilities.csv",
)


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= abs_tol + rel * abs(want)


def check_strengthening(data: bytes) -> list[str]:
    rows = {(r["frame"], r["damage"]): r for r in _csv_rows(data)}
    problems = []
    for frame, r_sfs in PUBLISHED_R_SF.items():
        for damage, r_sf, b_sf in zip(PUBLISHED_DAMAGES, r_sfs, PUBLISHED_B_SF):
            row = rows.get((frame, damage))
            if row is None:
                problems.append(f"strengthening factors: no row for {frame} {damage}")
            elif abs(float(row["r_sf"]) - r_sf) > 0.01 or abs(float(row["b_sf"]) - b_sf) > 0.01:
                problems.append(f"strengthening factors {frame} {damage}: ({row['b_sf']}, {row['r_sf']}) "
                                f"vs published ({b_sf}, {r_sf})")
    return problems


def check_reliability(data: bytes) -> list[str]:
    """Published indexes within 0.02; the factor-independent columns also
    agree with the reference to the CSV's six digits."""
    ref = Reference().beta_grid(1.0, 1.0)
    problems = []
    rows = _csv_rows(data)
    if len(rows) != len(PUBLISHED_BETA):
        problems.append(f"reliability grid has {len(rows)} rows, want {len(PUBLISHED_BETA)}")
    for row in rows:
        key = (row["live_load"], row["mode"])
        cells = [row[c] for c in ("nlc", "strengthened", "damaged", "optimized")]
        for i, (cell, want) in enumerate(zip(cells, PUBLISHED_BETA.get(key, (None,) * 4))):
            if want is not None and (cell == "" or abs(float(cell) - want) > 0.02):
                problems.append(f"reliability {key} column {i}: {cell!r} vs published {want}")
        for i, (cell, want) in enumerate(zip(cells[:3], ref[key][:3])):
            if (want is None) != (cell == "") or (want is not None and not _close(float(cell), want, 1e-5, 1e-6)):
                problems.append(f"reliability {key} column {i}: {cell!r} vs reference {want}")
    return problems


def check_curves(data: bytes) -> list[str]:
    """Each row's indexes equal the reference's at its own lambda*."""
    problems = []
    refs = {frame: Reference(frame_doc(frame)) for frame in ("16x4", "4x16")}
    rows = _csv_rows(data)
    if len(rows) != 14:
        problems.append(f"curve table has {len(rows)} rows, want 14")
    for row in rows:
        ref = refs.get(row["frame"])
        if ref is None:
            problems.append(f"curve row for unexpected frame {row['frame']!r}")
            continue
        lb, lc = float(row["lambda_b_star"]), float(row["lambda_c_star"])
        for col, mode, lam in (("beta_b_star", "bending", lb), ("beta_pl_star", "local_pancake", lc),
                               ("beta_pg_star", "global_pancake", lc)):
            want = float(ref.beta_damaged(mode, lam))
            # six printed digits of lambda* and beta
            if not _close(float(row[col]), want, 1e-5, 2e-4):
                problems.append(f"curve {row['frame']} p={row['p_ld']} {col} = {row[col]} vs reference {want:.6g}")
    return problems


def check_thresholds(data: bytes) -> list[str]:
    rows = _csv_rows(data)
    problems = []
    if [r["frame"] for r in rows] != list(CATALOG):
        return [f"threshold table frames {[r['frame'] for r in rows]} are not the catalog"]
    for r in rows:
        if r["status"] != "bracketed":
            problems.append(f"threshold {r['frame']}: status {r['status']}")
    if problems:
        return problems
    p_th = [float(r["p_ld_th"]) for r in rows]
    if not all(b > a for a, b in zip(p_th, p_th[1:])):
        problems.append(f"p_th does not rise from 16x4 to 4x16: {p_th}")
    if not 3e-4 <= p_th[0] <= 3e-3:
        problems.append(f"16x4 p_th = {p_th[0]} outside [3e-4, 3e-3]")
    if not 0.025 <= p_th[-1] <= 0.10:
        problems.append(f"4x16 p_th = {p_th[-1]} outside [0.025, 0.10]")
    for r, p in zip(rows, p_th):
        if not _close(float(r["annual_p_th"]), annual_from_lifetime(p), 1e-5):
            problems.append(f"threshold {r['frame']}: annual {r['annual_p_th']} vs {annual_from_lifetime(p):.6g}")
    return problems


def check_tables(files: dict[str, bytes]) -> list[str]:
    if sorted(files) != sorted(TABLE_FILES):
        return [f"paper-tables wrote {sorted(files)}, want {sorted(TABLE_FILES)}"]
    if b"<svg" not in files["optimal_factors_vs_p.svg"][:300]:
        return ["optimal_factors_vs_p.svg is not an SVG document"]
    return (check_strengthening(files["strengthening_factors.csv"])
            + check_reliability(files["reliability_indexes.csv"])
            + check_curves(files["optimal_factors_vs_p.csv"])
            + check_thresholds(files["threshold_probabilities.csv"]))


class PaperTables:
    """``framerisk paper-tables --jobs N`` in process; one operation is one
    full regeneration.  The inputs are fixed by the study, not the seed."""

    name = "paper-tables"

    def __init__(self, seed: int, workdir: Path):
        self.outdir = workdir / f"tables-{os.getpid()}"
        self.jobs = min(2, os.cpu_count() or 1)
        self.inputs = [["paper-tables", "--outdir", str(self.outdir), "--jobs", str(self.jobs)]]
        self._first: dict[str, bytes] | None = None

    def run(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run_command(argv)
        if code != 0:
            raise RuntimeError(f"paper-tables exited with {code}")
        return code

    def check(self, index: int, output) -> list[str]:
        files = {p.name: p.read_bytes() for p in sorted(self.outdir.iterdir())}
        if self._first is None:
            self._first = files
            return check_tables(files)
        changed = sorted(k for k in set(files) | set(self._first) if files.get(k) != self._first.get(k))
        return [f"regeneration not byte-identical: {changed}"] if changed else []

    def check_round(self, outputs) -> list[str]:
        return []

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


# -- pld-sweep -----------------------------------------------------------------

SWEEP_FRAMES = ("16x4", "8x8", "4x16")
DENSE_GRID = np.linspace(0.05, 5.0, 400)


class SweepReference:
    """Reference objective of one frame split as A(lambda) + p_ld B(lambda),
    with A and B precomputed on the dense grid."""

    def __init__(self, frame: str):
        self.ref = Reference(frame_doc(frame))
        self.a = self.ref.objective(DENSE_GRID, DENSE_GRID, p_ld=0.0)
        self.b = self.ref.c_id + self.ref.damage_branch(DENSE_GRID, DENSE_GRID)

    def grid_min(self, p_ld: float) -> float:
        return float((self.a + p_ld * self.b).min())


def check_solve(ref: SweepReference, p_ld: float, c_te: float, lambda_b: float, lambda_c: float,
                beta_b: float) -> list[str]:
    want = float(ref.ref.objective(lambda_b, lambda_c, p_ld=p_ld)[0, 0])
    problems = []
    if not _close(c_te, want, 1e-9):
        problems.append(f"p_ld={p_ld:.6g}: c_te* = {c_te!r} but the reference objective at lambda* is {want!r}")
    grid_min = ref.grid_min(p_ld)
    if c_te > grid_min * (1.0 + 1e-3):
        problems.append(f"p_ld={p_ld:.6g}: c_te* = {c_te!r} above the dense-grid minimum {grid_min!r}")
    want_beta = float(ref.ref.beta_damaged("bending", lambda_b))
    if not _close(beta_b, want_beta, 1e-9, 1e-12):
        problems.append(f"p_ld={p_ld:.6g}: beta_b* = {beta_b!r} vs reference {want_beta!r}")
    return problems


# The optimizer stops at an absolute objective tolerance of 1e-8, so two
# solves at nearly equal p_ld may come out in either order by about that.
MONOTONE_SLACK = 1e-8


def check_monotone(points: list[tuple[str, float, float]]) -> list[str]:
    """(frame, p_ld, c_te*) triples: c_te* may not fall as p_ld rises."""
    problems = []
    for frame in sorted({f for f, _, _ in points}):
        series = sorted((p, c) for f, p, c in points if f == frame)
        for (p0, c0), (p1, c1) in zip(series, series[1:]):
            if c1 < c0 - MONOTONE_SLACK:
                problems.append(f"{frame}: c_te* falls from {c0!r} at p_ld={p0:.6g} to {c1!r} at p_ld={p1:.6g}")
    return problems


class PldSweep:
    """Serial ``minimize_total_cost(validate(scenario))`` at stratified
    log-uniform p_ld on three catalog frames; one operation is one solve."""

    name = "pld-sweep"

    def __init__(self, seed: int, workdir: Path, per_frame: int = 12):
        rng = np.random.default_rng(seed)
        inputs = []
        for frame in SWEEP_FRAMES:
            # one log-uniform draw in each of per_frame equal slices of [1e-6, 1]
            u = (np.arange(per_frame) + rng.random(per_frame)) / per_frame
            for log_p in -6.0 + 6.0 * u:
                scenario = fr.validate(fr.Scenario(geometry=fr.FRAME_CATALOG[frame], p_ld=float(10.0**log_p)))
                inputs.append((frame, scenario))
        self.inputs = [inputs[i] for i in rng.permutation(len(inputs))]
        self._refs: dict[str, SweepReference] = {}
        self._first: dict[int, tuple] = {}

    def run(self, inp):
        return fr.minimize_total_cost(fr.validate(inp[1]))

    @staticmethod
    def summary(result) -> tuple:
        return (result.c_te, result.factors.lambda_b, result.factors.lambda_c, result.beta_damaged.beta_b)

    def check(self, index: int, output) -> list[str]:
        got = self.summary(output)
        if index in self._first:
            return [] if got == self._first[index] else [f"solve {index} changed between rounds: {got}"]
        self._first[index] = got
        frame, scenario = self.inputs[index]
        if frame not in self._refs:
            self._refs[frame] = SweepReference(frame)
        return check_solve(self._refs[frame], scenario.p_ld, *got)

    def check_round(self, outputs) -> list[str]:
        points = [(frame, scn.p_ld, out.c_te) for (frame, scn), out in zip(self.inputs, outputs) if out is not None]
        return check_monotone(points)

    def close(self) -> None:
        pass


# -- scenario-screen -----------------------------------------------------------

SCREEN_GRID = np.linspace(0.25, 4.0, 16)
SCREEN_STORIES = range(2, 17)
SCREEN_BAYS = range(2, 17)


def screen_doc(rng: np.random.Generator, n_s: int, bays: int) -> dict:
    n_c = bays + 1
    return {
        "geometry": {"n_s": n_s, "n_c": n_c},
        "damage": {"n_rc0": int(rng.integers(1, min(3, n_c - 2) + 1)), "n_rs0": int(rng.integers(0, min(2, n_s) + 1))},
        "p_ld": float(10.0 ** rng.uniform(-6.0, 0.0)),
        "include_catenary": bool(rng.random() < 0.5),
    }


def check_screen(doc: dict, factors: tuple[float, float], samples: np.ndarray, output) -> list[str]:
    design, grid, trace_rows, beta_rows = output
    ref = Reference(doc)
    problems = []
    if not (_close(design.b_sf, ref.b_sf, 1e-12) and _close(design.r_sf, ref.r_sf, 1e-12)):
        problems.append(f"{doc}: strengthening factors ({design.b_sf}, {design.r_sf}) vs ({ref.b_sf}, {ref.r_sf})")
    for i, j in samples:
        want = float(ref.objective(SCREEN_GRID[i], SCREEN_GRID[j])[0, 0])
        if not _close(float(grid[i, j]), want, 1e-9):
            problems.append(f"{doc}: grid[{i},{j}] = {grid[i, j]!r} vs reference {want!r}")
    floor = ref.construction(SCREEN_GRID[:, None], SCREEN_GRID[None, :])
    if np.any(grid < floor * (1.0 - 1e-12)):
        problems.append(f"{doc}: grid value below the construction cost")
    branch = float(ref.damage_branch(1.0, 1.0)[0, 0])
    largest = max((row[11] for row in trace_rows), default=0.0)
    if not _close(largest, branch, 1e-12):
        problems.append(f"{doc}: largest trace expected_cost {largest!r} vs reference damage branch {branch!r}")
    betas = ref.beta_grid(*factors)
    for row in beta_rows:
        for cell, want in zip(row[2:], betas[(row[0], row[1])]):
            if (want is None) != (cell == "") or (want is not None and not _close(cell, want, 0.0, 1e-9)):
                problems.append(f"{doc}: beta {row[:2]} = {cell!r} vs reference {want!r}")
    return problems


class ScenarioScreen:
    """Seeded random scenarios through parsing, sizing, the RiskModel build,
    a 16x16 objective grid, the (1, 1) chain trace and the reliability
    grid; one operation is one scenario.  Every (stories, bays) pair of
    2..16 x 2..16 appears ``repeats`` times a round, so the round's mix of
    frame sizes is the same for every seed."""

    name = "scenario-screen"

    def __init__(self, seed: int, workdir: Path, repeats: int = 4, pairs=None):
        rng = np.random.default_rng(seed)
        pairs = pairs or [(n_s, bays) for n_s in SCREEN_STORIES for bays in SCREEN_BAYS]
        inputs = []
        for n_s, bays in pairs:
            for _ in range(repeats):
                factors = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
                inputs.append((screen_doc(rng, n_s, bays), factors))
        self.inputs = [inputs[i] for i in rng.permutation(len(inputs))]
        self.samples = rng.integers(0, len(SCREEN_GRID), size=(6, 2))
        self._first: dict[int, tuple] = {}

    def run(self, inp):
        doc, (lambda_b, lambda_c) = inp
        scenario = studies.scenario_from_dict(doc)
        design = fr.design_members(scenario)
        model = fr.RiskModel(scenario, design)
        grid = model.evaluate_grid(SCREEN_GRID, SCREEN_GRID)
        _, trace_rows = studies.trace_table(scenario, design, fr.DesignFactors(1.0, 1.0))
        _, beta_rows = studies.reliability_grid(scenario, fr.DesignFactors(lambda_b, lambda_c))
        return design, grid, trace_rows, beta_rows

    def check(self, index: int, output) -> list[str]:
        first = self._first.get(index)
        if first is not None:
            same = (output[0] == first[0] and np.array_equal(output[1], first[1])
                    and output[2] == first[2] and output[3] == first[3])
            return [] if same else [f"scenario {index} changed between rounds"]
        self._first[index] = output
        doc, factors = self.inputs[index]
        return check_screen(doc, factors, self.samples, output)

    def check_round(self, outputs) -> list[str]:
        return []

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (PaperTables, PldSweep, ScenarioScreen)}
