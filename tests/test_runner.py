"""End-to-end runs through the CLI: artifacts, manifest, exit codes."""

import os
import tracemalloc

import numpy as np
import pytest

import qtraj.ensemble
import qtraj.runner
from qtraj.cli import main
from qtraj.config import parse_config
from qtraj.runner import execute

SMALL_RUN = """
model.builder = thermal
model.dim = 8
model.rate = 1.0
model.nu = 0.4
run.base_seed = 7
run.kind = both
run.M = 12
run.dt = 2e-3
run.t_end = 0.1
run.save_every = 10
run.tasks = master_oracle, heisenberg_oracle, duality, ensemble, regularity, dissipativity
"""


def _write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _artifact_bytes(out_dir):
    found = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.txt":  # timings make it non-reproducible
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            found[name] = fh.read()
    return found


def test_cli_run_success(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    expected = [
        "master_oracle.expectations.csv",
        "master_oracle.rho_final.mat.txt",
        "heisenberg_oracle.expectations.csv",
        "heisenberg_oracle.obs_final.mat.txt",
        "duality.residual.csv",
        "ensemble.linear.observable.csv",
        "ensemble.nonlinear.observable.csv",
        "regularity.trace.csv",
        "dissipativity.report.csv",
        "dissipativity.basis_lhs.csv",
    ]
    for name in expected:
        assert f"wrote {name}" in stdout
        assert os.path.exists(os.path.join(out, name))
    # manifest records the same list
    with open(os.path.join(out, "manifest.txt")) as fh:
        manifest = fh.read()
    assert f"artifacts: {len(expected)}" in manifest
    for name in expected:
        assert f"  - {name}" in manifest
    assert "failures" not in manifest


def test_cli_rerun_is_byte_identical_across_threads(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    out1, out4 = str(tmp_path / "o1"), str(tmp_path / "o4")
    assert main(["run", cfg, "--out", out1, "--threads", "1"]) == 0
    assert main(["run", cfg, "--out", out4, "--threads", "4"]) == 0
    b1, b4 = _artifact_bytes(out1), _artifact_bytes(out4)
    assert set(b1) == set(b4)
    for name in b1:
        assert b1[name] == b4[name], f"{name} differs between thread counts"


def test_cli_validate_only(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    out = str(tmp_path / "nothing")
    assert main(["run", cfg, "--validate-only", "--out", out]) == 0
    assert "config OK" in capsys.readouterr().out
    assert not os.path.exists(out)


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "model.builder = thermal\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "missing mandatory key" in err


def test_cli_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_bad_threads_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    assert main(["run", cfg, "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_task_failure_exits_3(tmp_path, capsys):
    # dim above the dense-gap limit with no explicit burn-in: the stationary
    # task raises, the failure lands in the manifest, exit code 3
    text = """
model.builder = thermal
model.dim = 40
model.rate = 1.0
model.nu = 0.4
run.base_seed = 0
run.M = 4
run.t_end = 0.05
run.dt = 1e-3
run.save_every = 10
run.tasks = master_oracle, stationary
stationary.window = 0.1
"""
    cfg = _write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 3
    captured = capsys.readouterr()
    assert "task stationary failed" in captured.err
    # earlier tasks still produced their artifacts
    assert os.path.exists(os.path.join(out, "master_oracle.expectations.csv"))
    with open(os.path.join(out, "manifest.txt")) as fh:
        manifest = fh.read()
    assert "failures:" in manifest and "stationary" in manifest


def test_matrix_dump_roundtrip(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    path = os.path.join(out, "master_oracle.rho_final.mat.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# dim=8"
    assert len(lines) == 1 + 64
    mat = np.zeros((8, 8), dtype=complex)
    for line in lines[1:]:
        i, j, re, im = line.split(",")
        mat[int(i), int(j)] = float(re) + 1j * float(im)
    # %.17g round-trips doubles exactly, so the parsed matrix is a valid
    # density matrix to full precision
    assert abs(np.trace(mat).real - 1.0) < 1e-12
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12


def test_execute_api_and_config_hash(tmp_path):
    cfg = parse_config(SMALL_RUN)
    out = str(tmp_path / "direct")
    manifest = execute(cfg, out_dir=out)
    assert manifest.ok
    assert len(manifest.config_sha256) == 64
    assert set(manifest.timings) == set(cfg.tasks)
    assert all(cnt == 0 for cnt in manifest.fault_counts.values())
    for name in manifest.artifacts:
        assert os.path.exists(os.path.join(out, name))


def test_csv_values_use_full_precision(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_RUN)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    with open(os.path.join(out, "ensemble.nonlinear.observable.csv")) as fh:
        header, first = fh.read().splitlines()[:2]
    assert header == "t,obs_mean,obs_stderr,norm_sq_mean,norm_sq_stderr"
    cells = first.split(",")
    assert float(cells[0]) == 0.0
    # norm_sq of the normalized start is exactly 1
    assert float(cells[3]) == 1.0


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_ensemble_is_integrated_once(tmp_path, monkeypatch):
    text = SMALL_RUN.replace(
        "run.tasks = master_oracle, heisenberg_oracle, duality, ensemble, regularity, dissipativity",
        "run.tasks = ensemble, equivalence, regularity",
    )
    calls = _counting(monkeypatch, qtraj.ensemble, "propagate")
    manifest = execute(parse_config(text), out_dir=str(tmp_path / "out"))
    assert manifest.ok
    # one kernel call per ensemble: a linear and a nonlinear block of run.M = 12
    assert len(calls) == 2
    assert [call[1].shape for call in calls] == [(12, 8), (12, 8)]
    assert sorted(call[3] for call in calls) == ["linear", "nonlinear"]


def test_each_oracle_flow_is_solved_once(tmp_path, monkeypatch):
    text = """
model.builder = monitored
model.dim = 12
model.mass = 1.0
model.c = 0.5
model.alpha = 0.3
model.beta = 0.2
run.base_seed = 0
run.dt = 0.01
run.t_end = 0.1
run.save_every = 1
run.initial = coherent:0.5
run.tasks = master_oracle, heisenberg_oracle, duality, ehrenfest
"""
    masters = _counting(monkeypatch, qtraj.runner, "solve_master")
    heisenbergs = _counting(monkeypatch, qtraj.runner, "solve_heisenberg")
    manifest = execute(parse_config(text), out_dir=str(tmp_path / "out"))
    assert manifest.ok
    assert len(masters) == 1 and len(heisenbergs) == 1


def test_oracle_flows_are_freed_after_their_last_reader(tmp_path, monkeypatch):
    text = """
model.builder = monitored
model.dim = 12
model.mass = 1.0
model.c = 0.5
model.alpha = 0.3
model.beta = 0.2
run.base_seed = 0
run.dt = 0.01
run.t_end = 0.1
run.save_every = 1
run.initial = coherent:0.5
run.tasks = master_oracle, heisenberg_oracle, duality, ehrenfest, picard
"""
    picard = qtraj.runner._TASK_FNS["picard"]

    def run(name):
        held = []

        def watched(ctx):
            held.append(sorted({"master", "heisenberg"} & set(vars(ctx))))
            return picard(ctx)

        monkeypatch.setitem(qtraj.runner._TASK_FNS, "picard", watched)
        assert execute(parse_config(text), out_dir=str(tmp_path / name)).ok
        return held, _artifact_bytes(str(tmp_path / name))

    held, freed = run("freed")
    assert held == [[]]  # picard reads neither flow
    every_task = {"master_oracle", "heisenberg_oracle", "duality", "ehrenfest", "picard"}
    monkeypatch.setattr(qtraj.runner, "_FLOW_READERS", {"master": every_task, "heisenberg": every_task})
    held, kept = run("kept")
    assert held == [["heisenberg", "master"]]
    assert freed == kept


def test_run_holds_no_state_tensor_and_equivalence_reuses_the_ensembles(tmp_path):
    m, dim, n_save = 32, 20, 1001
    text = f"""
model.builder = thermal
model.dim = {dim}
model.rate = 1.0
model.nu = 0.5
run.base_seed = 3
run.kind = both
run.M = {m}
run.dt = 1e-3
run.t_end = 1.0
run.save_every = 1
run.tasks = ensemble, equivalence, regularity
"""
    cfg = parse_config(text)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        manifest = execute(cfg, out_dir=str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert manifest.ok
    state_tensor_bytes = m * n_save * dim * 16
    assert peak < state_tensor_bytes, f"peak {peak} B >= one state tensor {state_tensor_bytes} B"

    def cells(name):
        header, *rows = (out / name).read_text().splitlines()
        return [dict(zip(header.split(","), row.split(","))) for row in rows]

    (summary,) = cells("equivalence.summary.csv")
    for side, kind in (("linear_side", "linear"), ("nonlinear_side", "nonlinear")):
        assert summary[side] == cells(f"ensemble.{kind}.observable.csv")[-1]["obs_mean"]
