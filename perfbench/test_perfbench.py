"""Tests of the benchmark itself: its checks, its tracer and its guards.

    python3 -m pytest perfbench -q

The check tests run each workload once (about 20 s in all), then show
that every check passes on the real artifacts and fails on a perturbed copy.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def _run_config(tmp: Path, text: str, traced: bool = False) -> tuple[Path, dict]:
    tmp.mkdir(parents=True, exist_ok=True)
    config = tmp / "run.cfg"
    config.write_text(text)
    out = tmp / "out"
    res = run.run_child(config, out, tmp, traced=traced)
    assert res["exit_code"] == 0
    return out, res


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    made = {}
    for name, wl in workloads.WORKLOADS.items():
        out, _ = _run_config(tmp_path_factory.mktemp(name), wl.config_text(SEED))
        made[name] = (out, wl.params(SEED))
    return made


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_check_passes_on_real_artifacts(artifacts, workload):
    out, params = artifacts[workload]
    assert checks.run_checks(workload, out, params) == []


def _edit_csv(column, row, fn):
    def edit(path: Path):
        lines = path.read_text().splitlines()
        j = lines[0].split(",").index(column)
        rows = [ln.split(",") for ln in lines[1:]]
        for r in rows if row is None else [rows[row]]:
            r[j] = repr(fn(float(r[j])))
        path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")

    return edit


def _swap_rows(column, a, b):
    def edit(path: Path):
        lines = path.read_text().splitlines()
        j = lines[0].split(",").index(column)
        rows = [ln.split(",") for ln in lines[1:]]
        rows[a][j], rows[b][j] = rows[b][j], rows[a][j]
        path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")

    return edit


def _edit_matrix(entries):
    """Add ``delta`` to each (i, j) entry given as {(i, j): delta}."""

    def edit(path: Path):
        mat = checks.read_matrix(path)
        for (i, j), delta in entries.items():
            mat[i, j] += delta
        d = mat.shape[0]
        rows = [f"# dim={d}"] + [
            f"{i},{j},{float(mat[i, j].real)!r},{float(mat[i, j].imag)!r}" for i in range(d) for j in range(d)
        ]
        path.write_text("\n".join(rows) + "\n")

    return edit


PERTURBATIONS = [
    # ensemble-thermal30
    ("ensemble-thermal30", "check_thermal_master_oracle", "master_oracle.expectations.csv",
     _edit_csv("tr_n_rho", 500, lambda v: v + 1e-6)),
    ("ensemble-thermal30", "check_thermal_master_oracle", "master_oracle.expectations.csv",
     _edit_csv("trace", -1, lambda v: v + 1e-8)),
    ("ensemble-thermal30", "check_thermal_master_oracle", "master_oracle.rho_final.mat.txt",
     _edit_matrix({(2, 2): 1e-6})),
    ("ensemble-thermal30", "check_nonlinear_ensemble", "ensemble.nonlinear.observable.csv",
     _edit_csv("obs_mean", 700, lambda v: v + 1.0)),
    ("ensemble-thermal30", "check_nonlinear_ensemble", "ensemble.nonlinear.observable.csv",
     _edit_csv("obs_mean", 700, lambda v: v * 0.1)),
    ("ensemble-thermal30", "check_nonlinear_ensemble", "ensemble.nonlinear.observable.csv",
     _edit_csv("norm_sq_mean", 300, lambda v: v + 1e-9)),
    ("ensemble-thermal30", "check_linear_ensemble", "ensemble.linear.observable.csv",
     _edit_csv("norm_sq_mean", 300, lambda v: 0.2)),
    ("ensemble-thermal30", "check_linear_ensemble", "ensemble.linear.observable.csv",
     _edit_csv("norm_sq_mean", 0, lambda v: v + 1e-9)),
    ("ensemble-thermal30", "check_linear_ensemble", "ensemble.linear.observable.csv",
     _edit_csv("norm_sq_mean", 600, lambda v: v * 5.0)),
    ("ensemble-thermal30", "check_equivalence", "equivalence.summary.csv",
     _edit_csv("nonlinear_side", 0, lambda v: v + 0.3)),
    ("ensemble-thermal30", "check_equivalence", "equivalence.summary.csv",
     _edit_csv("linear_side", 0, lambda v: v * 20.0)),
    ("ensemble-thermal30", "check_equivalence", "equivalence.summary.csv",
     _edit_csv("abs_gap", 0, lambda v: v * 1.01)),
    ("ensemble-thermal30", "check_regularity", "regularity.trace.csv",
     _edit_csv("c_moment_mean", -1, lambda v: v * 20.0)),
    ("ensemble-thermal30", "check_regularity", "regularity.trace.csv",
     _edit_csv("c_moment_mean", -1, lambda v: v / 20.0)),
    ("ensemble-thermal30", "check_regularity", "regularity.trace.csv",
     _edit_csv("tail_mass", 400, lambda v: 1e-3)),
    ("ensemble-thermal30", "check_dissipativity", "dissipativity.basis_lhs.csv",
     _edit_csv("lhs", 3, lambda v: v * (1 + 1e-6))),
    ("ensemble-thermal30", "check_dissipativity", "dissipativity.report.csv",
     _edit_csv("max_violation", 0, lambda v: 1.0)),
    # oracle-monitored40
    ("oracle-monitored40", "check_monitored_master_oracle", "master_oracle.expectations.csv",
     _edit_csv("tr_n_rho", 40, lambda v: v + 1e-6)),
    ("oracle-monitored40", "check_monitored_master_oracle", "master_oracle.rho_final.mat.txt",
     _edit_matrix({(0, 1): 1e-6, (1, 0): 1e-6})),
    ("oracle-monitored40", "check_monitored_master_oracle", "master_oracle.rho_final.mat.txt",
     _edit_matrix({(5, 5): -1e-3, (6, 6): 1e-3})),
    ("oracle-monitored40", "check_heisenberg_oracle", "heisenberg_oracle.expectations.csv",
     _edit_csv("tr_obs_rho0", 25, lambda v: v + 1e-6)),
    ("oracle-monitored40", "check_heisenberg_oracle", "heisenberg_oracle.expectations.csv",
     _edit_csv("operator_norm", 45, lambda v: 39.5)),
    ("oracle-monitored40", "check_duality", "duality.residual.csv",
     _edit_csv("heisenberg_side", 30, lambda v: v + 1e-6)),
    ("oracle-monitored40", "check_ehrenfest", "ehrenfest.relations.csv",
     _edit_csv("dQdt_fd", 35, lambda v: v + 1e-5)),
    ("oracle-monitored40", "check_ehrenfest", "ehrenfest.relations.csv",
     _edit_csv("dPdt_fd", 10, lambda v: v - 1e-5)),
    ("oracle-monitored40", "check_picard", "picard.convergence.csv",
     _swap_rows("distance_to_oracle", 4, 5)),
    # stationary-thermal12
    ("stationary-thermal12", "check_stationary", "stationary.summary.csv",
     _edit_csv("occupation", 0, lambda v: v + 0.5)),
    ("stationary-thermal12", "check_stationary", "stationary.summary.csv",
     _edit_csv("occupation", 0, lambda v: v * 0.3)),
    ("stationary-thermal12", "check_stationary", "stationary.summary.csv",
     _edit_csv("residual_onenorm", 0, lambda v: v * 1.01)),
    ("stationary-thermal12", "check_stationary", "stationary.rho_inf.mat.txt",
     _edit_matrix({(0, 0): -0.6, (1, 1): 0.6})),
    ("stationary-thermal12", "check_stationary", "stationary.rho_inf.mat.txt",
     _edit_matrix({(0, 0): 1e-9})),
    ("stationary-thermal12", "check_stationary", "stationary.rho_inf.mat.txt",
     _edit_matrix({(0, 11): 0.01j, (11, 0): 0.01j})),
]


@pytest.mark.parametrize(
    "workload,check,artifact,edit",
    PERTURBATIONS,
    ids=[f"{c}-{a}-{i}" for i, (_, c, a, _) in enumerate(PERTURBATIONS)],
)
def test_check_rejects_a_perturbed_artifact(artifacts, tmp_path, workload, check, artifact, edit):
    out, params = artifacts[workload]
    fn = getattr(checks, check)
    assert fn in checks.CHECKS[workload]
    assert fn(out, params) == []
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    edit(copy / artifact)
    assert fn(copy, params) != []


def test_every_check_has_a_perturbation():
    covered = {check for _, check, _, _ in PERTURBATIONS}
    assert covered == {fn.__name__ for fns in checks.CHECKS.values() for fn in fns}


def test_missing_artifact_is_a_failure_not_a_crash(artifacts, tmp_path):
    out, params = artifacts["oracle-monitored40"]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / "picard.convergence.csv").unlink()
    failures = checks.run_checks("oracle-monitored40", copy, params)
    assert len(failures) == 1 and "picard" in failures[0]


def test_benchmark_fails_loudly_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-monitored40", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "qtraj" in proc.stderr
    assert proc.stdout.strip() == ""


SMALL_THERMAL = """\
model.builder = thermal
model.dim = 8
model.rate = 1.0
model.nu = 0.5
run.base_seed = 5
run.kind = both
run.M = 8
run.t_end = 0.1
run.tasks = master_oracle, ensemble, equivalence, regularity, dissipativity
"""

SMALL_MONITORED = """\
model.builder = monitored
model.dim = 10
model.mass = 1.0
model.c = 0.5
model.alpha = 0.3
model.beta = 0.2
run.base_seed = 5
run.dt = 0.01
run.t_end = 0.2
run.initial = coherent:0.5
run.tasks = master_oracle, heisenberg_oracle, duality, ehrenfest, picard
picard.t = 0.1
picard.quad_points = 33
"""


def test_child_imports_the_checkout_copy_not_an_installed_one(tmp_path, monkeypatch):
    fake = tmp_path / "site" / "qtraj"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("raise ImportError('installed copy imported')\n")
    monkeypatch.setenv("PYTHONPATH", str(fake.parent))
    out, res = _run_config(tmp_path / "run", SMALL_THERMAL.replace("ensemble, equivalence, ", ""))
    assert res["wall_s"] > 0 and (out / "master_oracle.expectations.csv").is_file()


def test_traced_counts_match_the_config(tmp_path):
    """Totals derived from the config alone: with kind=both, the ensemble,
    equivalence and regularity tasks integrate (linear, seed) twice and
    (nonlinear, seed+1) three times, so 2 M of 5 M trajectories are distinct."""
    out, _ = _run_config(tmp_path / "ens", SMALL_THERMAL, traced=True)
    m = tracer.layer_metrics(json.loads((tmp_path / "ens" / "spans.json").read_text()))
    n_steps = 100
    assert m["ensemble.calls"] == 5
    assert m["sde.trajectories"] == 5 * 8
    assert m["sde.traj_steps"] == m["sde.trajectories"] * n_steps
    assert m["noise.calls"] == m["sde.trajectories"]
    assert m["ensemble.useful_traj_fraction"] == pytest.approx(0.4)
    assert m["ensemble.state_mb"] == pytest.approx(8 * 101 * 8 * 16 / 1e6)
    assert m["oracle.master_solves"] == 1 and m["oracle.expm_calls"] == 1
    for task in ("master_oracle", "ensemble", "equivalence", "regularity", "dissipativity"):
        assert m[f"runner.task_s.{task}"] > 0
    assert m["runner.task_s.picard"] == 0
    assert 0 < m["ensemble.self_s"] and 0 < m["sde.self_s"] and 0 < m["runner.self_s"]


def test_traced_oracle_counts_match_the_config(tmp_path):
    """master_oracle, duality and ehrenfest solve one master flow; heisenberg_oracle
    and duality one Heisenberg flow, and picard its own: 3 distinct of 6."""
    _run_config(tmp_path / "orc", SMALL_MONITORED, traced=True)
    m = tracer.layer_metrics(json.loads((tmp_path / "orc" / "spans.json").read_text()))
    assert m["oracle.master_solves"] == 3 and m["oracle.heisenberg_solves"] == 3
    assert m["oracle.useful_solve_fraction"] == pytest.approx(0.5)
    assert m["sde.trajectories"] == 0 and m["ensemble.useful_traj_fraction"] == 0
    assert m["oracle.picard_s"] > 0 and m["oracle.expm_calls"] > 6


def test_layer_metrics_self_time_excludes_children():
    spans = [
        ["runner.execute", 0.0, 10.0, -1, None],
        ["runner.task.ensemble", 1.0, 9.0, 0, None],
        ["ensemble.run_ensemble", 2.0, 8.0, 1, {"kind": "linear", "seed": 1, "n_traj": 2, "state_bytes": 64}],
        ["sde.propagate", 3.0, 5.0, 2, {"n_steps": 10}],
        ["noise.normals_block", 3.0, 3.5, 3, {"draws": 20}],
        ["ensemble.on_save", 4.0, 4.25, 3, {"calls": 11}],
    ]
    m = tracer.layer_metrics(spans)
    assert m["sde.self_s"] == pytest.approx(2.0 - 0.5 - 0.25)
    assert m["ensemble.self_s"] == pytest.approx(6.0 - 2.0 + 0.25)
    assert m["noise.draws_per_s"] == pytest.approx(40.0)
    assert m["runner.self_s"] == pytest.approx(2.0 + 2.0)
    assert m["runner.task_s.ensemble"] == pytest.approx(8.0)
    assert m["ensemble.useful_traj_fraction"] == 1.0
    assert np.isfinite(list(m.values())).all()
