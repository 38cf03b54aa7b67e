"""Benchmark for `qtraj run`: three fixed configs, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one `qtraj run` config.  Every repetition runs it in a fresh
interpreter (child.py) with one worker thread and one BLAS/OpenMP thread.
Repetitions run whole, as many as fit in S seconds at the pace of the last
one, and at least one.  The artifacts of the first are checked against closed forms computed
here (checks.py); later ones must reproduce them byte for byte.

--trace 0 prints the end-to-end metrics: set-up time of the first
repetition, wall time of the fastest repetition, largest peak RSS.
--trace 1 runs the config once untraced and once traced (tracer.py) and
prints the per-layer metrics.
The last line of standard output is the JSON result.  The package is imported
from the checkout's src/, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
CHILD_TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(config: Path, out: Path, work: Path, traced: bool) -> dict:
    """One fresh-process `qtraj run`; returns its timings and exit code."""
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(config), str(out), str(result)]
    if traced:
        cmd.append(str(work / "spans.json"))
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"qtraj child exited with {proc.returncode}")
    res = json.loads(result.read_text())
    if res["exit_code"] not in (0, 3):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"qtraj run exited with {res['exit_code']}")
    res["setup_s"] = res["setup_done"] - spawned
    res["elapsed_s"] = time.monotonic() - spawned
    return res


def failed_tasks(out: Path) -> list:
    """Task names listed under ``failures:`` in the run's manifest."""
    lines = (out / "manifest.txt").read_text().splitlines()
    if "failures:" not in lines:
        return []
    return [ln.split(":", 1)[0].strip() for ln in lines[lines.index("failures:") + 1 :]]


def artifact_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.txt"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qtraj" / "__init__.py").is_file():
        print(f"error: no qtraj package under {SRC}; run from a qtraj checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "run.cfg"
    config.write_text(wl.config_text(args.seed))

    # whole repetitions, as many as fit in --seconds by the last one's pace
    reps = []
    outs = []
    start = time.monotonic()
    while not reps or (
        not args.trace and time.monotonic() - start + reps[-1]["elapsed_s"] <= args.seconds
    ):
        out = work / f"out{len(reps)}"
        reps.append(run_child(config, out, work, traced=False))
        outs.append(out)
    if args.trace:
        out = work / "out_traced"
        traced = run_child(config, out, work, traced=True)
        outs.append(out)

    print("repetition wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in reps), file=sys.stderr)
    failures = checks.run_checks(args.workload, outs[0], wl.params(args.seed))
    first = artifact_bytes(outs[0])
    for out in outs[1:]:
        if artifact_bytes(out) != first:
            failures.append(f"{out.name}: artifacts differ from the first run's")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    failed = sum(len(failed_tasks(out)) for out in outs)
    attempted = len(wl.tasks) * len(outs)

    if args.trace:
        import tracer

        spans = json.loads((work / "spans.json").read_text())
        metrics = tracer.layer_metrics(spans)
        metrics["runner.artifact_bytes"] = sum(len(b) for b in first.values())
        metrics["trace.overhead_s"] = traced["wall_s"] - reps[0]["wall_s"]
        units = {m["name"]: m["unit"] for m in workloads.benchmark_spec()["per_layer"]}
    else:
        metrics = {
            "setup_s": reps[0]["setup_s"],
            # the host's speed shifts for tens of seconds at a time; the fastest
            # repetition tracks the program, the median how long the host was slow
            "wall_s": min(r["wall_s"] for r in reps),
            "peak_rss_mb": max(r["peak_rss_kib"] for r in reps) * 1024 / 1e6,
        }
        units = {m["name"]: m["unit"] for m in workloads.benchmark_spec()["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    if failures:
        print(f"artifacts kept in {work}", file=sys.stderr)
    else:
        if args.trace:
            (work / "spans.json").replace(RUNS / f"{args.workload}.spans.json")
        shutil.rmtree(work)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
