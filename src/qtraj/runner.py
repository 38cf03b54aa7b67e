"""Config-driven execution: run tasks, emit CSV artifacts and a manifest.

Artifact rules: comma-delimited CSV with a mandatory header row, `\\n` line
endings, floats at 17 significant digits (exact double round-trip).  Matrix
dumps are `.mat.txt`: a `# dim=<d>` header then one `i,j,re,im` line per
entry, row-major.  Given an identical config (and tool version), every
numeric artifact is byte-identical across reruns and thread counts; the
manifest is the one file excluded from that promise since it records wall
times.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import TASK_NAMES, RunConfig, build_model, initial_state
from .ensemble import (
    drive_ensemble,
    equivalence_report,
    mean_and_stderr,
    point_sampler,
    quadratic_form,
)
from .hilbert import DensityMatrix, build_fock_ops
from .linalg import operator_norm
from .oracle import (
    PropagatedFamily,
    duality_sides,
    minimal_semigroup_picard,
    solve_heisenberg,
    solve_master,
)
from .regularity import c_moment_and_tail, check_dissipativity, trace_from_moments
from .sde import TimeGrid
from .stationary import estimate_stationary

try:
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("qtraj")
except Exception:  # pragma: no cover - not installed
    VERSION = "0.0.0"


@dataclass
class RunManifest:
    config_sha256: str
    version: str
    out_dir: str
    artifacts: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    fault_counts: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, complex):
        raise TypeError("split complex values into re/im columns")
    return str(value)


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_matrix(path: str, mat: np.ndarray) -> None:
    d = mat.shape[0]
    with open(path, "w", newline="") as fh:
        fh.write(f"# dim={d}\n")
        for i in range(d):
            for j in range(mat.shape[1]):
                z = mat[i, j]
                fh.write(f"{i},{j},{format(z.real, '.17g')},{format(z.imag, '.17g')}\n")


# One (kind, seed) ensemble on the run grid: (m_effective, n_save) arrays of
# <psi, N psi>, |psi|^2, |C psi|^2 and the share of |psi|^2 on the top three
# basis indices, unfaulted trajectories in index order, plus the fault list.
_EnsembleScalars = namedtuple("_EnsembleScalars", "obs norm_sq c_moment tail faults")


class _RunContext:
    """Everything the tasks share, derived once from the config.

    Ensembles and oracle flows are computed on first use and kept for the
    rest of the run, so each is integrated or solved once.
    """

    def __init__(self, config: RunConfig, out_dir: str, threads: int):
        self.config = config
        self.out_dir = out_dir
        self.threads = threads
        self.model = build_model(config)
        self.x0 = initial_state(config, self.model.space)
        self.rho0 = DensityMatrix.from_pure(self.x0).matrix
        self.number_op = build_fock_ops(self.model.space).n.matrix
        v = config.values
        self.grid = TimeGrid(v["run.t_end"], dt=v["run.dt"], save_every=v["run.save_every"])
        self.kind = v["run.kind"]
        self.n_traj = v["run.M"]
        self.base_seed = v["run.base_seed"]
        self._ensembles: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def seed_for(self, kind: str) -> int:
        # keep the two unravelings on disjoint streams when both are run
        return self.base_seed + (1 if kind == "nonlinear" and self.kind == "both" else 0)

    def ensemble(self, kind: str) -> _EnsembleScalars:
        if kind in self._ensembles:
            return self._ensembles[kind]
        obs, norm_sq, c_moment, tail = np.zeros((4, self.n_traj, self.grid.n_save))

        def reduce(i, block):
            obs[i] = quadratic_form(block, self.number_op).real
            norm_sq[i] = (block.real**2 + block.imag**2).sum(axis=1)
            c_moment[i], tail[i] = c_moment_and_tail(block, self.model.C)

        seed, sampler = self.seed_for(kind), point_sampler(self.x0)
        fault_mask, faults, _ = drive_ensemble(
            self.model, sampler, self.grid, kind, self.n_traj, seed, reduce, self.threads
        )
        ok = ~fault_mask
        ens = _EnsembleScalars(obs[ok], norm_sq[ok], c_moment[ok], tail[ok], faults)
        self._ensembles[kind] = ens
        return ens

    @cached_property
    def master(self) -> PropagatedFamily:
        return solve_master(self.model, self.rho0, self.grid)

    @cached_property
    def heisenberg(self) -> PropagatedFamily:
        return solve_heisenberg(self.model, self.number_op, self.grid)


def _norm_sq_stats(ens: _EnsembleScalars):
    return mean_and_stderr(ens.norm_sq)


def _obs_stats(ens: _EnsembleScalars):
    return mean_and_stderr(ens.obs)


def _task_master_oracle(ctx: _RunContext) -> tuple[list, int]:
    fam = ctx.master
    n_mean = np.einsum("ij,tji->t", ctx.number_op, fam.values).real
    traces = np.einsum("tii->t", fam.values).real
    rows = [(t, n, tr) for t, n, tr in zip(fam.times, n_mean, traces)]
    _write_csv(ctx.path("master_oracle.expectations.csv"), ["t", "tr_n_rho", "trace"], rows)
    _write_matrix(ctx.path("master_oracle.rho_final.mat.txt"), fam.values[-1])
    return ["master_oracle.expectations.csv", "master_oracle.rho_final.mat.txt"], 0


def _task_heisenberg_oracle(ctx: _RunContext) -> tuple[list, int]:
    fam = ctx.heisenberg
    expect = np.einsum("tij,ji->t", fam.values, ctx.rho0).real
    norms = np.array([operator_norm(m) for m in fam.values])
    rows = list(zip(fam.times, expect, norms))
    _write_csv(
        ctx.path("heisenberg_oracle.expectations.csv"),
        ["t", "tr_obs_rho0", "operator_norm"],
        rows,
    )
    _write_matrix(ctx.path("heisenberg_oracle.obs_final.mat.txt"), fam.values[-1])
    return ["heisenberg_oracle.expectations.csv", "heisenberg_oracle.obs_final.mat.txt"], 0


def _task_duality(ctx: _RunContext) -> tuple[list, int]:
    lhs, rhs = duality_sides(ctx.master, ctx.heisenberg)
    rows = [(t, a, b, abs(a - b)) for t, a, b in zip(ctx.grid.save_times, lhs.real, rhs.real)]
    _write_csv(
        ctx.path("duality.residual.csv"),
        ["t", "master_side", "heisenberg_side", "abs_diff"],
        rows,
    )
    return ["duality.residual.csv"], 0


def _task_ensemble(ctx: _RunContext) -> tuple[list, int]:
    files = []
    faults = 0
    for kind in ["linear", "nonlinear"] if ctx.kind == "both" else [ctx.kind]:
        ens = ctx.ensemble(kind)
        faults += len(ens.faults)
        obs_mean, obs_err = _obs_stats(ens)
        nrm_mean, nrm_err = _norm_sq_stats(ens)
        rows = list(zip(ctx.grid.save_times, obs_mean, obs_err, nrm_mean, nrm_err))
        name = f"ensemble.{kind}.observable.csv"
        _write_csv(
            ctx.path(name),
            ["t", "obs_mean", "obs_stderr", "norm_sq_mean", "norm_sq_stderr"],
            rows,
        )
        files.append(name)
    return files, faults


def _task_equivalence(ctx: _RunContext) -> tuple[list, int]:
    lin, non = ctx.ensemble("linear"), ctx.ensemble("nonlinear")
    rep = equivalence_report(lin.obs[:, -1], lin.norm_sq[:, -1], non.obs[:, -1], ctx.grid.t_end)
    sides = (rep.lhs.real, rep.rhs.real, rep.gap)
    stderrs = (rep.lhs_stderr, rep.rhs_stderr, rep.combined_stderr)
    rows = [(rep.t, *sides, *stderrs, rep.m_linear, rep.m_nonlinear)]
    _write_csv(
        ctx.path("equivalence.summary.csv"),
        [
            "t",
            "linear_side",
            "nonlinear_side",
            "abs_gap",
            "lhs_stderr",
            "rhs_stderr",
            "combined_stderr",
            "m_linear",
            "m_nonlinear",
        ],
        rows,
    )
    return ["equivalence.summary.csv"], 0


def _task_ehrenfest(ctx: _RunContext) -> tuple[list, int]:
    ops = build_fock_ops(ctx.model.space)
    fam = ctx.master
    q_t = np.einsum("ij,tji->t", ops.q.matrix, fam.values).real
    p_t = np.einsum("ij,tji->t", ops.p.matrix, fam.values).real
    mass = ctx.config.values["model.mass"]
    spring = ctx.config.values["model.c"]
    times = fam.times
    h = times[1] - times[0]
    rows = []
    for i in range(1, len(times) - 1):
        dq_fd = (q_t[i + 1] - q_t[i - 1]) / (2 * h)
        dp_fd = (p_t[i + 1] - p_t[i - 1]) / (2 * h)
        p_over_m = p_t[i] / mass
        minus2cq = -2.0 * spring * q_t[i]
        rows.append(
            (times[i], dq_fd, p_over_m, dq_fd - p_over_m, dp_fd, minus2cq, dp_fd - minus2cq)
        )
    _write_csv(
        ctx.path("ehrenfest.relations.csv"),
        ["t", "dQdt_fd", "P_over_m", "P_resid", "dPdt_fd", "minus2cQ", "Q_resid"],
        rows,
    )
    return ["ehrenfest.relations.csv"], 0


def _task_regularity(ctx: _RunContext) -> tuple[list, int]:
    ens = ctx.ensemble("nonlinear" if ctx.kind in ("nonlinear", "both") else "linear")
    trace = trace_from_moments(ctx.grid.save_times, ens.c_moment, ens.tail)
    rows = list(
        zip(
            trace.times,
            trace.c_mean,
            trace.c_stderr,
            trace.tail_mass,
            trace.truncation_unreliable,
        )
    )
    _write_csv(
        ctx.path("regularity.trace.csv"),
        ["t", "c_moment_mean", "c_moment_stderr", "tail_mass", "truncation_unreliable"],
        rows,
    )
    return ["regularity.trace.csv"], len(ens.faults)


def _task_dissipativity(ctx: _RunContext) -> tuple[list, int]:
    v = ctx.config.values
    rep = check_dissipativity(
        ctx.model,
        kind=v["dissipativity.kind"],
        n_probes=v["dissipativity.probes"],
        seed=ctx.base_seed,
    )
    _write_csv(
        ctx.path("dissipativity.report.csv"),
        ["inequality_kind", "estimated_K", "max_violation", "n_probes", "interior_cutoff"],
        [
            (
                rep.inequality_kind,
                rep.estimated_K,
                rep.max_violation,
                rep.n_probes,
                rep.interior_cutoff,
            )
        ],
    )
    _write_csv(
        ctx.path("dissipativity.basis_lhs.csv"),
        ["n", "lhs"],
        list(enumerate(rep.basis_lhs)),
    )
    return ["dissipativity.report.csv", "dissipativity.basis_lhs.csv"], 0


def _task_stationary(ctx: _RunContext) -> tuple[list, int]:
    v = ctx.config.values
    m = v["stationary.M"] if v["stationary.M"] is not None else ctx.n_traj
    est = estimate_stationary(
        ctx.model,
        ctx.x0,
        burn_in=v["stationary.burn_in"],
        window=v["stationary.window"],
        sample_stride=v["stationary.stride"],
        n_traj=m,
        base_seed=ctx.base_seed,
        dt=ctx.grid.dt,
        threads=ctx.threads,
    )
    _write_csv(
        ctx.path("stationary.summary.csv"),
        [
            "builder",
            "certified",
            "residual_onenorm",
            "c_moment",
            "c_moment_stderr",
            "occupation",
            "occupation_stderr",
            "occupation_sq",
            "occupation_sq_stderr",
            "half_delta_n",
            "half_stderr_n",
            "half_delta_n2",
            "half_stderr_n2",
            "burn_in",
            "window",
            "m_effective",
        ],
        [
            (
                ctx.config.builder,
                est.certified,
                est.residual_onenorm,
                est.c_moment,
                est.c_moment_stderr,
                est.occupation,
                est.occupation_stderr,
                est.occupation_sq,
                est.occupation_sq_stderr,
                est.half_delta[0],
                est.half_stderr[0],
                est.half_delta[1],
                est.half_stderr[1],
                est.burn_in,
                est.window,
                est.m_effective,
            )
        ],
    )
    _write_matrix(ctx.path("stationary.rho_inf.mat.txt"), est.rho_inf.matrix)
    return ["stationary.summary.csv", "stationary.rho_inf.mat.txt"], len(est.faults)


def _task_picard(ctx: _RunContext) -> tuple[list, int]:
    v = ctx.config.values
    t = v["picard.t"] if v["picard.t"] is not None else v["run.t_end"]
    iterates = minimal_semigroup_picard(
        ctx.model,
        ctx.number_op,
        t,
        n_iters=v["picard.n_iters"],
        quad_points=v["picard.quad_points"],
    )
    oracle = solve_heisenberg(ctx.model, ctx.number_op, TimeGrid(t, dt=t, save_every=1))
    target = oracle.values[-1]
    rows = [(n, operator_norm(it - target)) for n, it in enumerate(iterates)]
    _write_csv(ctx.path("picard.convergence.csv"), ["n", "distance_to_oracle"], rows)
    return ["picard.convergence.csv"], 0


_TASK_FNS = {
    "master_oracle": _task_master_oracle,
    "heisenberg_oracle": _task_heisenberg_oracle,
    "duality": _task_duality,
    "ensemble": _task_ensemble,
    "equivalence": _task_equivalence,
    "ehrenfest": _task_ehrenfest,
    "regularity": _task_regularity,
    "dissipativity": _task_dissipativity,
    "stationary": _task_stationary,
    "picard": _task_picard,
}


def execute(config: RunConfig, out_dir: str | None = None, threads: int = 1) -> RunManifest:
    """Run the configured tasks in canonical order and write all artifacts.

    Task failures are caught, recorded in the manifest and do not stop later
    tasks; the caller decides the exit status from ``manifest.ok``.
    """
    out = out_dir if out_dir is not None else config.values["output.dir"]
    os.makedirs(out, exist_ok=True)
    digest = hashlib.sha256(config.canonical_text().encode()).hexdigest()
    manifest = RunManifest(config_sha256=digest, version=VERSION, out_dir=out)
    ctx = _RunContext(config, out, threads)
    for task in TASK_NAMES:
        if task not in config.tasks:
            continue
        start = time.perf_counter()
        try:
            files, faults = _TASK_FNS[task](ctx)
        except Exception as exc:
            manifest.failures[task] = f"{type(exc).__name__}: {exc}"
            manifest.timings[task] = time.perf_counter() - start
            continue
        manifest.timings[task] = time.perf_counter() - start
        manifest.artifacts.extend(files)
        manifest.fault_counts[task] = faults
    _write_manifest(manifest)
    return manifest


def _write_manifest(manifest: RunManifest) -> None:
    path = os.path.join(manifest.out_dir, "manifest.txt")
    with open(path, "w", newline="") as fh:
        fh.write(f"config_sha256: {manifest.config_sha256}\n")
        fh.write(f"version: {manifest.version}\n")
        fh.write(f"artifacts: {len(manifest.artifacts)}\n")
        for name in manifest.artifacts:
            fh.write(f"  - {name}\n")
        fh.write("timings_seconds:\n")
        for task, sec in manifest.timings.items():
            fh.write(f"  {task}: {sec:.3f}\n")
        fh.write("fault_counts:\n")
        for task, cnt in manifest.fault_counts.items():
            fh.write(f"  {task}: {cnt}\n")
        if manifest.failures:
            fh.write("failures:\n")
            for task, msg in manifest.failures.items():
                fh.write(f"  {task}: {msg}\n")
