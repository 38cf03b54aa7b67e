"""Span recording around qtraj's public functions, installed from outside.

The package is not modified.  ``install`` wraps each traced function and
rebinds every module-level reference to it, because the modules import names
directly (``from .sde import propagate``) and patching only the defining
module would miss those callers.  A span is ``[name, start, end, parent,
attrs]`` with ``perf_counter`` times; ``parent`` indexes the enclosing span
(-1 at the top).  Runs are single-threaded (``--threads 1``), so one stack
gives the parent.

Callbacks handed to ``propagate`` (the per-save work of the ensemble and
stationary drivers) run once per save point, far too often for one span each.
They are recorded as one aggregate span per trajectory, ``<layer>.on_save``,
whose duration is the summed callback time (``end = start + busy``).  It is a
child of the ``sde.propagate`` span, so the callback time leaves the step
kernel's self time and lands in the caller's layer.

``layer_metrics`` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from time import perf_counter

import numpy as np

TASKS = (
    "master_oracle",
    "heisenberg_oracle",
    "duality",
    "ensemble",
    "equivalence",
    "ehrenfest",
    "regularity",
    "dissipativity",
    "stationary",
    "picard",
)

# estimator spans: the mean/stderr reductions over ensemble states
ESTIMATORS = (
    "ensemble.observable_mean",
    "ensemble.reconstruct_density",
    "ensemble.runner_obs_stats",
    "ensemble.runner_norm_sq_stats",
)
SOLVES = ("oracle.solve_master", "oracle.solve_heisenberg")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name, fn, attrs=None):
        """``fn`` recorded as span ``name``; ``attrs(*args, **kw)`` -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1], attrs(*args, **kwargs) if attrs else None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()

        return traced

    def wrap_propagate(self, fn):
        """``sde.propagate`` with its ``on_save`` callback timed in aggregate."""
        tracer = self

        @functools.wraps(fn)
        def traced(model, x0, grid, kind, noise, on_save):
            parent = tracer._stack[-1]
            caller = tracer.spans[parent][0].split(".")[0] if parent >= 0 else "sde"
            rec = ["sde.propagate", 0.0, 0.0, parent, {"n_steps": grid.n_steps}]
            index = len(tracer.spans)
            tracer._stack.append(index)
            tracer.spans.append(rec)
            busy = 0.0
            calls = 0

            def timed_on_save(*args):
                nonlocal busy, calls
                t0 = perf_counter()
                try:
                    return on_save(*args)
                finally:
                    busy += perf_counter() - t0
                    calls += 1

            rec[1] = perf_counter()
            try:
                return fn(model, x0, grid, kind, noise, timed_on_save)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
                tracer.spans.append(
                    [f"{caller}.on_save", rec[1], rec[1] + busy, index, {"calls": calls}]
                )

        return traced


def _rebind(original, replacement, modules) -> int:
    """Point every module attribute that is ``original`` at ``replacement``."""
    count = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def _datum_key(flow, model, datum, grid) -> str:
    mat = getattr(datum, "matrix", datum)
    h = hashlib.sha1(np.ascontiguousarray(np.asarray(mat, dtype=complex)).tobytes())
    return f"{flow}:{id(model)}:{h.hexdigest()}:{grid.t_end!r}:{grid.dt!r}:{grid.save_every}"


def install(tracer: Tracer) -> None:
    """Wrap qtraj's layer functions; every qtraj module must already be imported."""
    import qtraj.ensemble as ensemble
    import qtraj.noise as noise
    import qtraj.oracle as oracle
    import qtraj.regularity as regularity
    import qtraj.runner as runner
    import qtraj.sde as sde
    import qtraj.stationary as stationary

    modules = [m for name, m in sys.modules.items() if name == "qtraj" or name.startswith("qtraj.")]

    def ensemble_attrs(model, sampler, grid, kind, n_traj, base_seed, threads=1):
        return {
            "kind": kind,
            "seed": int(base_seed),
            "n_traj": int(n_traj),
            "state_bytes": int(n_traj) * grid.n_save * model.dim * 16,
        }

    def solve_attrs(flow):
        return lambda model, datum, grid: {"key": _datum_key(flow, model, datum, grid)}

    plain = [
        ("ensemble.run_ensemble", ensemble.run_ensemble, ensemble_attrs, modules),
        ("ensemble.weighted_equivalence_check", ensemble.weighted_equivalence_check, None, modules),
        ("ensemble.observable_mean", ensemble.observable_mean, None, modules),
        ("ensemble.reconstruct_density", ensemble.reconstruct_density, None, modules),
        ("ensemble.runner_obs_stats", runner._obs_stats, None, modules),
        ("ensemble.runner_norm_sq_stats", runner._norm_sq_stats, None, modules),
        ("regularity.regularity_trace", regularity.regularity_trace, None, modules),
        ("regularity.check_dissipativity", regularity.check_dissipativity, None, modules),
        ("oracle.solve_master", oracle.solve_master, solve_attrs("master"), modules),
        ("oracle.solve_heisenberg", oracle.solve_heisenberg, solve_attrs("heisenberg"), modules),
        ("oracle.minimal_semigroup_picard", oracle.minimal_semigroup_picard, None, modules),
        # the oracle's own references only: stationary_residual's generator call
        # belongs to the stationary layer
        ("oracle.expm", oracle.expm, None, [oracle]),
        ("oracle.lindbladian_apply", oracle.lindbladian_apply, None, [oracle]),
        ("oracle.heisenberg_apply", oracle.heisenberg_apply, None, [oracle]),
        ("stationary.estimate_stationary", stationary.estimate_stationary, None, modules),
        ("stationary.spectral_gap", stationary.spectral_gap, None, [stationary]),
        ("stationary.stationary_residual", stationary.stationary_residual, None, modules),
        ("runner.execute", runner.execute, None, modules),
    ]
    for name, fn, attrs, where in plain:
        if _rebind(fn, tracer.wrap(name, fn, attrs), where) == 0:
            raise RuntimeError(f"no reference to {name} found to trace")
    if _rebind(sde.propagate, tracer.wrap_propagate(sde.propagate), modules) == 0:
        raise RuntimeError("no reference to sde.propagate found to trace")

    normals_block = noise.NoiseStream.normals_block
    noise.NoiseStream.normals_block = tracer.wrap(
        "noise.normals_block",
        normals_block,
        lambda self, step_start, n_steps, n_channels: {"draws": int(n_steps) * int(n_channels)},
    )
    for task, fn in list(runner._TASK_FNS.items()):
        runner._TASK_FNS[task] = tracer.wrap(f"runner.task.{task}", fn)


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics (name -> value) from a recorded span list."""
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_t = dur - child
    by_name: dict[str, list] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(*names):
        return [i for name in names for i in by_name.get(name, [])]

    def total(values, *names):
        return float(sum(values[i] for i in idx(*names)))

    def attr_sum(name, key):
        return sum(spans[i][4][key] for i in idx(name))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["noise.calls"] = len(idx("noise.normals_block"))
    m["noise.s"] = total(dur, "noise.normals_block")
    m["noise.draws_per_s"] = ratio(attr_sum("noise.normals_block", "draws"), m["noise.s"])

    m["sde.trajectories"] = len(idx("sde.propagate"))
    m["sde.traj_steps"] = attr_sum("sde.propagate", "n_steps")
    m["sde.self_s"] = total(self_t, "sde.propagate")
    m["sde.traj_steps_per_s"] = ratio(m["sde.traj_steps"], m["sde.self_s"])

    runs = [spans[i][4] for i in idx("ensemble.run_ensemble")]
    distinct: dict[tuple, int] = {}
    for a in runs:
        key = (a["kind"], a["seed"])
        distinct[key] = max(distinct.get(key, 0), a["n_traj"])
    m["ensemble.calls"] = len(runs)
    m["ensemble.self_s"] = total(self_t, "ensemble.run_ensemble") + total(dur, "ensemble.on_save")
    m["ensemble.estimators_s"] = total(dur, *ESTIMATORS) + total(
        self_t, "ensemble.weighted_equivalence_check"
    )
    m["ensemble.state_mb"] = max((a["state_bytes"] for a in runs), default=0) / 1e6
    m["ensemble.useful_traj_fraction"] = ratio(
        sum(distinct.values()), sum(a["n_traj"] for a in runs)
    )

    m["regularity.trace_s"] = total(dur, "regularity.regularity_trace")
    m["regularity.dissipativity_s"] = total(dur, "regularity.check_dissipativity")

    solves = idx(*SOLVES)
    m["oracle.master_solves"] = len(idx("oracle.solve_master"))
    m["oracle.heisenberg_solves"] = len(idx("oracle.solve_heisenberg"))
    m["oracle.useful_solve_fraction"] = ratio(
        len({spans[i][4]["key"] for i in solves}), len(solves)
    )
    m["oracle.expm_calls"] = len(idx("oracle.expm"))
    m["oracle.expm_s"] = total(dur, "oracle.expm")
    gens = ("oracle.lindbladian_apply", "oracle.heisenberg_apply")
    m["oracle.generator_applies"] = len(idx(*gens))
    m["oracle.generator_s"] = total(dur, *gens)
    m["oracle.solve_self_s"] = total(self_t, *SOLVES)
    m["oracle.picard_s"] = total(dur, "oracle.minimal_semigroup_picard")

    m["stationary.self_s"] = total(self_t, "stationary.estimate_stationary") + total(
        dur, "stationary.on_save"
    )
    m["stationary.spectral_gap_s"] = total(dur, "stationary.spectral_gap")
    m["stationary.residual_s"] = total(dur, "stationary.stationary_residual")

    for task in TASKS:
        m[f"runner.task_s.{task}"] = total(dur, f"runner.task.{task}")
    m["runner.self_s"] = total(self_t, "runner.execute", *(f"runner.task.{t}" for t in TASKS))
    return m
