"""Traced runs: spans around the calls into each framerisk layer.

``Tracer.install`` wraps every public function of the package modules (and
the ``RiskModel`` build, ``evaluate``, ``evaluate_grid`` and ``trace``
methods) in every namespace that holds it, so callers pick the wrapper up
where they look the name up: ``studies.minimize_total_cost``,
``risk.costmod.bending_collapse_cost``, the package namespace the benchmark
calls through, and so on.  The simplex routine is wrapped as
``optimize.start`` where ``optimize`` looks up ``minimize``, and the
process pool of ``studies`` is replaced by one whose tasks trace themselves
in the workers and ship their spans back.  Nothing inside the package
changes on disk.

A span is (id, name, start ns, end ns, parent id), kept in an in-memory
int64 array and written out once at the end of the run.  Self time is a
span's duration minus the union of its children's intervals, so pool tasks
running in parallel under one parent are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter_ns

import numpy as np

LAYERS = (
    "model", "catalog", "mechanics", "design", "reliability", "costs",
    "risk", "optimize", "studies", "output", "cli",
)
RISK_METHODS = {"__init__": "risk.build", "evaluate": "risk.evaluate",
                "evaluate_grid": "risk.evaluate_grid", "trace": "risk.trace"}
FIELDS = 5  # id, name, start, end, parent

# The tracer of this process; pool workers find theirs here.
_ACTIVE: Tracer | None = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.stack: list[int] = []
        self.next_id = 0
        self.counts: Counter = Counter()
        # (span id, iterations, evaluations, success, objective) per start
        self.starts: list[tuple[int, int, int, bool, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.extend((sid, nid, t0, t1, parent))
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        return traced

    def clear(self) -> None:
        del self.spans[:]
        self.stack.clear()
        self.counts.clear()
        self.starts.clear()

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "framerisk" or mod_name.startswith("framerisk.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        global _ACTIVE
        modules = {layer: importlib.import_module(f"framerisk.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                self._replace_everywhere(value, self.wrap(f"{layer}.{attr}", value, self._after_hook(layer, attr)))
        risk_model = modules["risk"].RiskModel
        for attr, name in RISK_METHODS.items():
            original = getattr(risk_model, attr)
            self._patches.append((risk_model, attr, original))
            setattr(risk_model, attr, self.wrap(name, original, self._after_hook("risk", attr)))
        optimize = modules["optimize"]
        self._patches.append((optimize, "minimize", optimize.minimize))
        optimize.minimize = self.wrap("optimize.start", optimize.minimize, self._after_start)
        studies = modules["studies"]
        self._patches.append((studies, "ProcessPoolExecutor", studies.ProcessPoolExecutor))
        studies.ProcessPoolExecutor = TracingPool
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()
        _ACTIVE = None

    def _after_hook(self, layer: str, attr: str):
        counts = self.counts
        if (layer, attr) == ("risk", "evaluate"):
            def after(sid, args, kwargs, result):
                counts["risk.stage_evals"] += len(args[0].stages)
        elif (layer, attr) == ("risk", "evaluate_grid"):
            def after(sid, args, kwargs, result):
                counts["risk.grid_points"] += int(np.size(args[1])) * int(np.size(args[2]))
        elif layer == "output" and attr in ("emit_csv", "emit_svg"):
            def after(sid, args, kwargs, result):
                path = kwargs["path"] if "path" in kwargs else args[1 if attr == "emit_svg" else 0]
                counts["output.bytes"] += os.path.getsize(path)
        else:
            return None
        return after

    def _after_start(self, sid, args, kwargs, res) -> None:
        self.starts.append((sid, int(res.nit), int(res.nfev), bool(res.success), float(res.fun)))

    # -- moving spans between processes -------------------------------------

    def export(self) -> tuple:
        return bytes(self.spans), list(self.names), dict(self.counts), list(self.starts)

    def merge(self, blob: tuple, parent: int) -> None:
        """Add a worker's spans; its root spans become children of
        ``parent`` and its ids are renumbered past this tracer's."""
        raw, names, counts, starts = blob
        rows = np.frombuffer(raw, dtype=np.int64).reshape(-1, FIELDS).copy()
        if len(rows):
            ids = rows[:, 0]
            order = np.argsort(ids)
            new_ids = np.empty_like(ids)
            new_ids[order] = self.next_id + np.arange(len(ids))
            has_parent = rows[:, 4] >= 0
            parent_rows = order[np.searchsorted(ids[order], rows[has_parent, 4])]
            rows[has_parent, 4] = new_ids[parent_rows]
            rows[~has_parent, 4] = parent
            remap = {old: new for old, new in zip(ids.tolist(), new_ids.tolist())}
            name_map = np.array([self.name_id(n) for n in names], dtype=np.int64)
            rows[:, 1] = name_map[rows[:, 1]]
            rows[:, 0] = new_ids
            self.next_id += len(ids)
            self.spans.frombytes(rows.tobytes())
            self.starts.extend((remap[sid], *rest) for sid, *rest in starts)
        self.counts.update(counts)

    # -- analysis ----------------------------------------------------------

    def table(self) -> dict:
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS)
        return {"id": rows[:, 0], "name": rows[:, 1], "start": rows[:, 2], "end": rows[:, 3], "parent": rows[:, 4]}

    def save(self, path) -> None:
        t = self.table()
        starts = np.array(self.starts, dtype=float).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(self.names), starts=starts, **t)


def self_times(t: dict) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals."""
    ids, start, end, parent = t["id"], t["start"], t["end"], t["parent"]
    duration = end - start
    if len(ids) == 0:
        return duration
    order = np.argsort(ids)
    child = np.nonzero(parent >= 0)[0]
    prow = order[np.searchsorted(ids[order], parent[child])]
    o = np.lexsort((start[child], prow))
    child, prow = child[o], prow[o]
    # Offset each parent's group past the previous one, so one running
    # maximum over all children never crosses from one group into the next.
    base = int(start.min())
    shift = np.int64(int(end.max()) - base + 1)
    keyed_end = prow.astype(np.int64) * shift + (end[child] - base)
    running = np.maximum.accumulate(keyed_end)
    prev = np.empty_like(running)
    prev[0] = -1
    prev[1:] = running[:-1]
    same_group = np.zeros(len(child), dtype=bool)
    same_group[1:] = prow[1:] == prow[:-1]
    prev_end = np.where(same_group, prev - prow * shift + base, np.iinfo(np.int64).min)
    covered = np.clip(end[child] - np.maximum(start[child], prev_end), 0, None)
    coverage = np.bincount(prow, weights=covered.astype(float), minlength=len(ids))
    return duration - coverage


class TracingPool(ProcessPoolExecutor):
    """Process pool whose tasks record spans in the worker and return them
    with their result; ``map`` merges them into the parent's tracer."""

    def __init__(self, max_workers=None, **kwargs):
        super().__init__(max_workers=max_workers, initializer=_worker_init, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        tracer = _ACTIVE
        parent = tracer.stack[-1] if tracer.stack else -1
        results = super().map(_run_task, itertools.repeat(fn), *iterables, **kwargs)
        return _merged(results, tracer, parent)


def _merged(results, tracer, parent):
    for result, blob in results:
        tracer.merge(blob, parent)
        yield result


def _worker_init() -> None:
    # A forked worker inherits the parent's installed tracer and its open
    # spans; a spawned one starts from a fresh import and installs its own.
    if _ACTIVE is None:
        Tracer().install()
    _ACTIVE.clear()


def _run_task(fn, arg):
    tracer = _ACTIVE
    tracer.clear()
    result = tracer.wrap("studies.task", fn)(arg)
    return result, tracer.export()


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round counts and per-call times of each layer, by metric name."""
    t = tracer.table()
    nid = t["name"]
    name_ids = {n: i for i, n in enumerate(tracer.names)}
    layer_of = np.array([n.split(".")[0] for n in tracer.names] + ["<root>"])
    duration = (t["end"] - t["start"]).astype(float)
    selft = self_times(t).astype(float)
    prow = parent_rows(t)
    parent_nid = np.where(prow >= 0, nid[prow] if len(nid) else -1, -1)
    layer = layer_of[nid]
    parent_layer = layer_of[parent_nid]

    def sel(*span_names):
        return np.isin(nid, [name_ids.get(n, -2) for n in span_names])

    def parent_is(*span_names):
        return np.isin(parent_nid, [name_ids.get(n, -2) for n in span_names])

    def per_round(x) -> float:
        value = float(x) / rounds
        return int(value) if value == int(value) else value

    def mean(mask, scale) -> float:
        return float(duration[mask].mean()) * scale if mask.any() else 0.0

    def entry(layer_name):
        return (layer == layer_name) & (parent_layer != layer_name)

    m: dict[str, tuple[float, str]] = {}
    for key, mask in (
        ("model.validate", sel("model.validate")),
        ("studies.parse", sel("studies.scenario_from_dict")),
        ("reliability.beta", sel("reliability.beta_intact", "reliability.beta_damaged")),
        ("risk.evaluate", sel("risk.evaluate")),
        ("risk.trace", sel("risk.trace")),
    ):
        m[f"{key}_calls"] = (per_round(mask.sum()), "count")
        m[f"{key}_us"] = (mean(mask, 1e-3), "us")
    design = entry("design")
    m["design.calls"] = (per_round(design.sum()), "count")
    m["design.us"] = (mean(design, 1e-3), "us")
    for lay in ("mechanics", "costs"):
        m[f"{lay}.calls"] = (per_round(entry(lay).sum()), "count")
        m[f"{lay}.self_s"] = (float(selft[layer == lay].sum()) * 1e-9 / rounds, "s")
    build = sel("risk.build")
    m["risk.builds"] = (per_round(build.sum()), "count")
    m["risk.build_us"] = (mean(build, 1e-3), "us")
    m["risk.stage_evals"] = (per_round(tracer.counts["risk.stage_evals"]), "count")
    points = tracer.counts["risk.grid_points"]
    m["risk.grid_points"] = (per_round(points), "count")
    grid_ns = float(duration[sel("risk.evaluate_grid")].sum())
    m["risk.grid_ns_per_point"] = (grid_ns / points if points else 0.0, "ns")

    solve = sel("optimize.minimize_total_cost")
    start = sel("optimize.start")
    n_solves = int(solve.sum())
    m["optimize.solves"] = (per_round(n_solves), "count")
    m["optimize.solve_ms"] = (mean(solve, 1e-6), "ms")
    m["optimize.starts"] = (per_round(start.sum()), "count")
    m["optimize.start_ms"] = (mean(start, 1e-6), "ms")
    m["optimize.nm_self_s"] = (float(selft[start].sum()) * 1e-9 / rounds, "s")
    starts = np.array(tracer.starts, dtype=float).reshape(-1, 5)
    m["optimize.nm_iterations"] = (per_round(starts[:, 1].sum()), "count")
    evals = int((sel("risk.evaluate") & parent_is("optimize.start", "optimize.minimize_total_cost")).sum())
    m["optimize.evals"] = (per_round(evals), "count")
    m["optimize.evals_per_solve"] = (evals / n_solves if n_solves else 0.0, "count")
    n_starts = len(starts)
    converged = float(starts[:, 3].sum()) / n_starts if n_starts else 0.0
    m["optimize.converged_starts_ratio"] = (converged, "ratio")
    at_best = _starts_at_best(starts, t, prow) / n_starts if n_starts else 0.0
    m["optimize.starts_at_best_ratio"] = (at_best, "ratio")
    threshold = sel("optimize.threshold_probability")
    n_thresholds = int(threshold.sum())
    m["optimize.thresholds"] = (per_round(n_thresholds), "count")
    m["optimize.threshold_ms"] = (mean(threshold, 1e-6), "ms")
    probes = int((solve & parent_is("optimize.threshold_probability")).sum())
    m["optimize.probes_per_threshold"] = (probes / n_thresholds if n_thresholds else 0.0, "count")

    task = sel("studies.task")
    m["studies.tasks"] = (per_round(task.sum()), "count")
    m["studies.task_s_sum"] = (float(duration[task].sum()) * 1e-9 / rounds, "s")
    m["studies.task_s_max"] = (float(duration[task].max()) * 1e-9 if task.any() else 0.0, "s")
    emit = sel("output.emit_csv", "output.emit_svg")
    m["output.files"] = (per_round(emit.sum()), "count")
    m["output.bytes"] = (per_round(tracer.counts["output.bytes"]), "B")
    m["output.emit_ms"] = (mean(emit, 1e-6), "ms")
    return m


def parent_rows(t: dict) -> np.ndarray:
    """Row index of each span's parent, -1 for roots."""
    ids, parent = t["id"], t["parent"]
    out = np.full(len(ids), -1, dtype=np.int64)
    if len(ids):
        order = np.argsort(ids)
        has = parent >= 0
        out[has] = order[np.searchsorted(ids[order], parent[has])]
    return out


def _starts_at_best(starts: np.ndarray, t: dict, prow: np.ndarray) -> int:
    """Starts whose final objective is within 1e-9 (relative) of the best
    start of the same solve."""
    ids = t["id"]
    order = np.argsort(ids)
    rows = order[np.searchsorted(ids[order], starts[:, 0].astype(np.int64))]
    solve_of = prow[rows]
    fun = starts[:, 4]
    best: dict[int, float] = {}
    for s, f in zip(solve_of.tolist(), fun.tolist()):
        best[s] = min(best.get(s, f), f)
    return sum(1 for s, f in zip(solve_of.tolist(), fun.tolist()) if f <= best[s] + 1e-9 * abs(best[s]))
