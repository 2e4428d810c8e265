"""Cold start: importing the package and running the scalar commands,
``paper-tables`` and a threshold sweep loads neither numpy nor scipy; the
first objective grid loads numpy and no scipy, because numpy is the only
runtime dependency.  Nor does a run with one worker load the process pool:
``studies`` imports ``ProcessPoolExecutor`` at its first access.

pytest itself has numpy loaded, so the import checks run in a fresh
interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import framerisk
from framerisk.optimize import START_GRID

COLD_RUN = """
import contextlib, io, json, sys
import framerisk, framerisk.cli
from framerisk.cli import run_command

def arrays():
    return sorted(m for m in sys.modules if m.split(".")[0] == "numpy" or m.startswith("scipy"))

def pools():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))

outdir = sys.argv[1]
commands = [[command] for command in ("design", "evaluate", "optimize", "threshold", "trace", "beta")] + [
    ["paper-tables", "--outdir", f"{outdir}/tables", "--jobs", "1"],
    ["sweep", "--axis", "p_ld=0.1", "--threshold", "--outdir", f"{outdir}/sweep", "--jobs", "1"],
]
codes = {}
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = run_command(argv)
scalar, pool = arrays(), pools()
framerisk.RiskModel(framerisk.Scenario()).evaluate_grid([1.0], [1.0])
print(json.dumps({"codes": codes, "scalar": scalar, "pool": pool, "grid": arrays()}))
"""


LAZY_POOL = """
import json, sys
from framerisk import studies

unloaded = "concurrent.futures" not in sys.modules
import concurrent.futures

print(json.dumps({
    "unloaded": unloaded,
    "same_class": studies.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor,
    "other_name": hasattr(studies, "no_such_name"),
}))
"""


def _fresh(*argv) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(framerisk.__file__).parents[1]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, check=True, env=env).stdout


def test_scalar_commands_load_no_array_library_and_the_grid_loads_numpy_only(tmp_path):
    run = json.loads(_fresh("-c", COLD_RUN, str(tmp_path)))
    assert len(run["codes"]) == 8 and set(run["codes"].values()) == {0}
    assert (tmp_path / "tables" / "optimal_factors_vs_p.csv").exists() and (tmp_path / "sweep" / "sweep.csv").exists()
    assert run["scalar"] == []
    assert run["pool"] == []
    assert "numpy" in run["grid"]
    assert not [m for m in run["grid"] if m.startswith("scipy")]


def test_the_process_pool_is_imported_at_its_first_access():
    assert json.loads(_fresh("-c", LAZY_POOL)) == {"unloaded": True, "same_class": True, "other_name": False}


def test_start_grid_is_the_linspace_floats():
    assert START_GRID == tuple(np.linspace(0.2, 2.5, 5).tolist())
