"""The benchmark's three `qtraj run` configs and the inputs each seed makes.

The seed is the run's ``run.base_seed``, so it selects every trajectory's
noise.  The oracle workload has no noise; there the seed picks the phase of
the coherent initial state (its modulus, and so the cost and the truncation
error, stays fixed).
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
COHERENT_MODULUS = abs(1.2 + 0.8j)


def benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


@dataclass(frozen=True)
class Workload:
    tasks: tuple
    config: dict  # config keys and values, without the seed-dependent ones
    implied: dict  # what the checks need that the config implies

    def params(self, seed: int) -> dict:
        """Parameters for the checks: config values by their short key."""
        p = {key.split(".", 1)[1]: value for key, value in self.config.items()}
        p.update(self.implied, seed=seed)
        if p["builder"] == "monitored":
            phase = 2.0 * math.pi * random.Random(seed).random()
            p["amplitude"] = COHERENT_MODULUS * cmath.exp(1j * phase)
        return p

    def config_text(self, seed: int) -> str:
        p = self.params(seed)
        initial = f"coherent:{p['amplitude']!r}" if "amplitude" in p else "fock:0"
        lines = [
            *(f"{key} = {value}" for key, value in self.config.items()),
            f"run.base_seed = {seed}",
            f"run.initial = {initial}",
            f"run.tasks = {', '.join(self.tasks)}",
        ]
        return "\n".join(lines) + "\n"


# Sizes (M, t_end) keep one repetition to a few seconds, so that a run holds
# several and the fastest of them rides out the host's slow spells (README.md).
WORKLOADS = {
    "ensemble-thermal30": Workload(
        tasks=("master_oracle", "ensemble", "equivalence", "regularity", "dissipativity"),
        config={
            "model.builder": "thermal",
            "model.dim": 30,
            "model.rate": 1.0,
            "model.nu": 0.5,
            "model.p": 4,
            "run.kind": "both",
            "run.M": 64,
            "run.dt": 0.001,
            "run.t_end": 1.0,
        },
        implied={"n_save": 1001, "probes": 32},
    ),
    "oracle-monitored40": Workload(
        tasks=("master_oracle", "heisenberg_oracle", "duality", "ehrenfest", "picard"),
        config={
            "model.builder": "monitored",
            "model.dim": 40,
            "model.mass": 1.0,
            "model.c": 0.5,
            "model.alpha": 0.3,
            "model.beta": 0.2,
            "run.dt": 0.01,
            "run.t_end": 0.5,
            "run.save_every": 1,
        },
        implied={"n_save": 51, "picard_iters": 8},
    ),
    "stationary-thermal12": Workload(
        tasks=("stationary",),
        config={
            "model.builder": "thermal",
            "model.dim": 12,
            "model.rate": 1.0,
            "model.nu": 0.5,
            "model.p": 1,
            "run.kind": "nonlinear",
            "run.dt": 0.001,
            "stationary.M": 10,
            "stationary.window": 10.0,
        },
        implied={},
    ),
}
