"""Spans around fracmech's public functions, recorded from outside the library.

:class:`Tracer` replaces each layer module's public functions (its
``__all__``, plus ``Trajectory.eval`` and ``DenseSegment.eval``) with a
wrapper that records one span per call, everywhere a ``fracmech`` module
binds them, and puts the originals back on exit.  ``abs_power`` is left
alone: it is too cheap for a span to time.

A span is (name, start, end, parent, task).  Spans live in flat arrays in
memory and are written out once, at the end of the run.  A layer's self
time is the duration of its spans minus the part covered by their children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("specfun", "model", "integrate", "trajectory", "oscillator", "similarity", "cli")
EXCLUDED = {"abs_power"}
METHODS = (("trajectory", "Trajectory", "eval"), ("trajectory", "DenseSegment", "eval"))
TASK = "task"
# integrate and trajectory calls are reported by kind (runs, evals, actions)
COUNTED_LAYERS = ("specfun", "model", "oscillator", "similarity")


class Tracer:
    """Records spans for calls into fracmech while installed (a context manager)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {TASK: "bench"}
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._task = [-1]
        self.counters: Counter = Counter()
        self.beta_args: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.task.append(self._task[0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        nid = self._intern(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opener(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def run_task(self, task_id: int, fn, *args):
        """Call fn(*args) inside a root span tagged with task_id."""
        self._task[0] = task_id
        idx = self._open(self._intern(TASK))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._task[0] = -1

    # ------------------------------------------------------------- patching

    def _after_integrate(self, args, result) -> None:
        traj, events = result
        self.counters["steps_accepted"] += traj.accepted_steps
        self.counters["steps_rejected"] += traj.rejected_steps
        self.counters["events"] += len(events)

    def _after_beta(self, args, result) -> None:
        self.beta_args[(args[0], args[1])] += 1

    def _targets(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every traced function."""
        hooks = {"integrate": self._after_integrate, "beta": self._after_beta}
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"fracmech.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if attr in EXCLUDED or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self.layer_of[attr] = layer
                targets[id(fn)] = (fn, self.wrap(attr, fn, hooks.get(attr)))
        return targets

    def __enter__(self) -> "Tracer":
        import fracmech.cli  # noqa: F401  (every layer module must be loaded)

        targets = self._targets()
        for modname, mod in list(sys.modules.items()):
            if modname != "fracmech" and not modname.startswith("fracmech."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"fracmech.{layer}"], cls_name)
            name = f"{cls_name}.{meth}"
            self.layer_of[name] = layer
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        layers = [self.layer_of.get(n, "bench") for n in self.names]
        np.savez(path, names=np.array(self.names), layers=np.array(layers), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of one span never overlap and
    lie inside it; the sum of their durations is the covered part.
    """
    dur = end - start
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


# per-call cost metrics: mean span duration (children included) of one
# function over the workload's traced tasks, scaled to the metric's unit
PER_CALL = {
    "specfun.ln_gamma_us": ("ln_gamma", 1e6),
    "specfun.inc_beta_us": ("inc_beta", 1e6),
    "specfun.inv_inc_beta_us": ("inv_inc_beta", 1e6),
    "oscillator.hj_position_us": ("hj_position", 1e6),
    "oscillator.period_quadrature_us": ("period_quadrature", 1e6),
    "integrate.measure_period_ms": ("measure_period", 1e3),
    "similarity.kepler_check_ms": ("fractional_kepler_check", 1e3),
    "trajectory.eval_us": ("Trajectory.eval", 1e6),
    "trajectory.action_ms": ("action", 1e3),
}


def unit_of(metric: str) -> str:
    if metric == "integrate.us_per_attempt":
        return "us"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_frac", "frac")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(tr: Tracer, n_tasks: int) -> dict[str, float]:
    """Per-layer counts and self times (per traced task) and per-call costs.

    A layer or function that the workload never enters reads 0.
    """
    arr = tr.arrays()
    name_ids = {n: i for i, n in enumerate(tr.names)}
    layer_by_id = np.array([tr.layer_of.get(n, "bench") for n in tr.names] or [""])
    span_layer = layer_by_id[arr["name"]]
    dur = arr["end"] - arr["start"]
    selfs = self_times(arr["start"], arr["end"], arr["parent"])

    def ids(name: str) -> np.ndarray:
        return arr["name"] == name_ids.get(name, -1)

    def count(name: str) -> int:
        return int(np.sum(ids(name)))

    def count_under(name: str, parent_name: str) -> int:
        sel = ids(name) & (arr["parent"] >= 0)
        return int(np.sum(arr["name"][arr["parent"][sel]] == name_ids.get(parent_name, -1)))

    def mean_dur(name: str) -> float:
        sel = ids(name)
        return float(np.mean(dur[sel])) if sel.any() else 0.0

    per = 1.0 / n_tasks
    out: dict[str, float] = {}
    for lay in LAYERS[:-1]:
        if lay in COUNTED_LAYERS:
            out[f"{lay}.calls"] = per * int(np.sum(span_layer == lay))
        out[f"{lay}.self_s"] = per * float(np.sum(selfs[span_layer == lay]))
    for metric, (name, scale) in PER_CALL.items():
        out[metric] = scale * mean_dur(name)

    inv = count("inv_inc_beta")
    out["specfun.inv_inc_beta_iters"] = count_under("inc_beta", "inv_inc_beta") / inv if inv else 0.0
    distinct = len(tr.beta_args)
    out["specfun.beta_reuse"] = sum(tr.beta_args.values()) / distinct if distinct else 0.0
    out["model.hamiltonian_calls"] = per * count("hamiltonian")
    out["model.lagrangian_calls"] = per * count("lagrangian")

    runs = count("integrate")
    acc, rej = tr.counters["steps_accepted"], tr.counters["steps_rejected"]
    out["integrate.runs"] = float(runs)
    out["integrate.runs_per_task"] = per * runs
    out["integrate.steps_accepted"] = per * acc
    out["integrate.steps_rejected"] = per * rej
    out["integrate.reject_frac"] = rej / (acc + rej) if acc + rej else 0.0
    out["integrate.us_per_attempt"] = 1e6 * float(np.sum(dur[ids("integrate")])) / (acc + rej) if acc + rej else 0.0
    out["integrate.events"] = per * tr.counters["events"]
    out["integrate.segment_evals"] = per * count_under("DenseSegment.eval", "integrate")
    out["trajectory.eval_calls"] = per * count("Trajectory.eval")
    out["trajectory.action_calls"] = per * count("action")
    return out
