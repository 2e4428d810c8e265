"""Quick self-test of the benchmark: each workload at a tiny size passes its
own checks, and each output check rejects a planted wrong answer.

    python3 perfbench/selftest.py

Exits 1 if a genuine output is rejected or a planted one is accepted.  Takes
about as long as one paper-tables regeneration.
"""

from __future__ import annotations

import csv
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, problems: list[str], planted: bool) -> None:
    ok = bool(problems) == planted
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {problems[0]}" if problems and not planted else ""))
    if not ok:
        FAILURES.append(name)


def edit_csv(data: bytes, edit) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    edit(rows)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode("utf-8")


def set_cell(rows, key: tuple[str, str], column: str, value=None, delta: float = 0.0) -> None:
    col = rows[0].index(column)
    for row in rows[1:]:
        if (row[0], row[1]) == key:
            row[col] = str(value if value is not None else float(row[col]) + delta)


def paper_tables(workdir: Path) -> None:
    w = wl.PaperTables(0, workdir)
    w.run(w.inputs[0])
    expect("paper-tables: genuine regeneration", w.check(0, None), planted=False)
    files = dict(w._first)

    def planted(name, fname, edit):
        bad = dict(files, **{fname: edit_csv(files[fname], edit)})
        expect(f"paper-tables: {name}", wl.check_tables(bad), planted=True)

    planted("r_sf off by 0.02", "strengthening_factors.csv",
            lambda rows: set_cell(rows, ("8x8", "2x1"), "r_sf", delta=0.02))
    planted("published beta off by 0.03", "reliability_indexes.csv",
            lambda rows: set_cell(rows, ("apt", "bending"), "damaged", delta=0.03))

    def swap_lambda(rows):
        rows[3][2], rows[3][3] = rows[3][3], rows[3][2]

    planted("swapped lambda* in a curve row", "optimal_factors_vs_p.csv", swap_lambda)
    planted("4x16 threshold outside its bracket", "threshold_probabilities.csv",
            lambda rows: set_cell(rows, ("4x16", "bracketed"), "p_ld_th", 0.2))
    planted("frame not bracketed", "threshold_probabilities.csv",
            lambda rows: set_cell(rows, ("8x8", "bracketed"), "status", "always-strengthen"))

    def swap_order(rows):
        rows[2][2], rows[3][2] = rows[3][2], rows[2][2]

    planted("p_th not rising over the catalog", "threshold_probabilities.csv", swap_order)
    svg = w.outdir / "optimal_factors_vs_p.svg"
    svg.write_bytes(svg.read_bytes().replace(b"</svg>", b" </svg>"))
    expect("paper-tables: regeneration not byte-identical", w.check(0, None), planted=True)
    w.close()


def pld_sweep(workdir: Path) -> None:
    w = wl.PldSweep(0, workdir, per_frame=1)
    outputs = [w.run(inp) for inp in w.inputs]
    problems = [p for i, out in enumerate(outputs) for p in w.check(i, out)] + w.check_round(outputs)
    expect("pld-sweep: genuine solves", problems, planted=False)
    frame, scenario = w.inputs[0]
    ref = w._refs[frame]
    c_te, lb, lc, beta_b = w.summary(outputs[0])
    p = scenario.p_ld
    expect("pld-sweep: c_te* off by 1e-6", wl.check_solve(ref, p, c_te * (1 + 1e-6), lb, lc, beta_b), planted=True)
    expect("pld-sweep: swapped lambda*", wl.check_solve(ref, p, c_te, lc, lb, beta_b), planted=True)
    worse = float(ref.ref.objective(2.5, 2.5, p_ld=p)[0, 0])
    beta_worse = float(ref.ref.beta_damaged("bending", 2.5))
    expect("pld-sweep: consistent but not minimal", wl.check_solve(ref, p, worse, 2.5, 2.5, beta_worse), planted=True)
    expect("pld-sweep: beta_b* off by 1e-6", wl.check_solve(ref, p, c_te, lb, lc, beta_b + 1e-6), planted=True)
    points = [(frame, 1e-3, 1.2), (frame, 1e-2, 1.2 - 1e-6)]
    expect("pld-sweep: c_te* falling with p_ld", wl.check_monotone(points), planted=True)
    expect("pld-sweep: repeated solve changed", w.check(0, replace(outputs[0], c_te=c_te + 1e-12)), planted=True)


def scenario_screen(workdir: Path) -> None:
    w = wl.ScenarioScreen(0, workdir, repeats=1, pairs=[(2, 2), (8, 8), (16, 16)])
    outputs = [w.run(inp) for inp in w.inputs]
    problems = [p for i, out in enumerate(outputs) for p in w.check(i, out)]
    expect("scenario-screen: genuine scenarios", problems, planted=False)
    doc, factors = w.inputs[0]
    design, grid, trace_rows, beta_rows = outputs[0]
    i, j = w.samples[0]

    def planted(name, output):
        expect(f"scenario-screen: {name}", wl.check_screen(doc, factors, w.samples, output), planted=True)

    bumped = grid.copy()
    bumped[i, j] *= 1 + 1e-6
    planted("sampled grid point off by 1e-6", (design, bumped, trace_rows, beta_rows))
    sampled = {tuple(s) for s in w.samples.tolist()}
    k = next((a, b) for a in range(grid.shape[0]) for b in range(grid.shape[1]) if (a, b) not in sampled)
    low = grid.copy()
    low[k] = 0.5
    planted("grid value below construction", (design, low, trace_rows, beta_rows))
    top = max(range(len(trace_rows)), key=lambda r: trace_rows[r][11])
    trace_bad = [row if r != top else row[:11] + (row[11] * (1 + 1e-6),) + row[12:] for r, row in enumerate(trace_rows)]
    planted("largest trace cost off by 1e-6", (design, grid, trace_bad, beta_rows))
    beta_bad = [beta_rows[0][:4] + (beta_rows[0][4] + 1e-6,) + beta_rows[0][5:]] + beta_rows[1:]
    planted("reliability index off by 1e-6", (design, grid, trace_rows, beta_bad))
    planted("strengthening factor off by 1e-9", (replace(design, r_sf=design.r_sf * (1 + 1e-9)), grid, trace_rows, beta_rows))
    expect("scenario-screen: repeated output changed", w.check(0, (design, bumped, trace_rows, beta_rows)), planted=True)


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for test in (pld_sweep, scenario_screen, paper_tables):
            test(Path(tmp))
    print(f"{len(FAILURES)} failure(s)" + (f": {FAILURES}" if FAILURES else ""))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
