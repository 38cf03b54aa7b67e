"""Euler-Maruyama integration of the linear and normalized trajectory SDEs.

Two step kinds drive a pure state x in the truncated Fock space with shared
Gaussian increments eta_k (raw standard normals; sqrt(dt) is applied here):

  linear      x' = x + G x dt + sum_k L_k x sqrt(dt) eta_k
  nonlinear   y' = y + D(y) dt + sum_k (L_k y - m_k y) sqrt(dt) eta_k,
              then y' /= |y'|,
              with m_k = Re<y, L_k y> and
              D(y) = G y + sum_k (m_k L_k y - (1/2) m_k^2 y).

The linear flow keeps |x|^2 a martingale in expectation; the nonlinear flow
is its norm-preserving companion.  The weak order of the scheme is one.

``propagate`` advances a block of B trajectories as one (B, d) array.  The
operators [G, L_1..L_K] are applied through their nonzero diagonals
(``ModelSpec.op_bands``), one elementwise multiply-add per diagonal, and
every per-trajectory reduction runs along the last axis of its own row.  No
step mixes rows, so a trajectory's bits do not depend on the block it runs
in, on the block's size or on BLAS blocking.  Everything is deterministic
given (model, initial states, grid, noise): the integrator carries no hidden
state and consults each noise stream purely by step index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DT = 1e-3
MAX_SAVE_POINTS = 1001
NORM_FLOOR = 0.5
# Steps of noise fetched per stream at a time: bounds the (steps, B, K)
# increment buffer whatever the run length.
NOISE_CHUNK_STEPS = 256


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid with a save stride.

    dt must divide t_end (within 1e-9 of an integer step count) and
    save_every must divide the step count, so the final time is always a
    save point.  When save_every is omitted, the smallest stride keeping at
    most MAX_SAVE_POINTS save points (and dividing the step count) is used.
    """

    t_end: float
    dt: float = DEFAULT_DT
    save_every: int | None = None

    def __post_init__(self):
        if self.t_end <= 0 or self.dt <= 0:
            raise ValueError("t_end and dt must be positive")
        ratio = self.t_end / self.dt
        n = int(round(ratio))
        if n < 1 or abs(ratio - n) > 1e-9:
            raise ValueError(f"t_end/dt = {ratio!r} is not an integer step count")
        if self.save_every is None:
            stride = max(1, math.ceil(n / (MAX_SAVE_POINTS - 1)))
            while n % stride:
                stride += 1
            object.__setattr__(self, "save_every", stride)
        stride = self.save_every
        if not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ValueError(f"save_every must be a positive integer, got {stride!r}")
        if n % stride:
            raise ValueError(f"save_every {stride} does not divide step count {n}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def n_save(self) -> int:
        return self.n_steps // self.save_every + 1

    @property
    def save_steps(self) -> np.ndarray:
        return np.arange(0, self.n_steps + 1, self.save_every)

    @property
    def save_times(self) -> np.ndarray:
        return self.save_steps * self.dt


def _increments(noise, start: int, n_steps: int, n_rows: int, n_channels: int) -> np.ndarray:
    """Raw N(0,1) increments of steps [start, start + n_steps), shape (S, B, K)."""
    if n_channels == 0:
        return np.zeros((n_steps, n_rows, 0))
    if noise is None:
        raise ValueError("a noise stream is required when the model has noise channels")
    if len(noise) != n_rows:
        raise ValueError(f"expected {n_rows} noise streams, got {len(noise)}")
    eta = np.empty((n_steps, n_rows, n_channels))
    for r, stream in enumerate(noise):
        block = np.asarray(stream.normals_block(start, n_steps, n_channels), dtype=float)
        if block.shape != (n_steps, n_channels):
            raise ValueError(
                f"noise increments have shape {block.shape}, expected {(n_steps, n_channels)}"
            )
        eta[:, r] = block
    return eta


def propagate(model, x0: np.ndarray, grid: TimeGrid, kind: str, noise, on_save):
    """Drive a block of B trajectories from the (B, d) initial states ``x0``.

    Row r draws its increments from ``noise[r]``, a stream with a
    ``normals_block(step_start, n_steps, n_channels)`` method (``noise`` may
    be None for a model without channels).  At every save point
    ``on_save(save_index, t, states)`` gets the (B, d) states; the array is
    not mutated afterwards.

    A row whose state goes non-finite, or whose nonlinear norm falls below
    NORM_FLOOR, faults: it is recorded and zeroed, and stays zero (so it is
    finite and never faults again) without touching any other row.

    Returns (drifts, faults): each row's mean pre-normalization norm drift
    |y'| - 1 over the steps (zeros for linear runs), and the faults as
    (row, step, reason) in row order.
    """
    if kind not in ("linear", "nonlinear"):
        raise ValueError(f"kind must be 'linear' or 'nonlinear', got {kind!r}")
    d = model.dim
    x = np.array(x0, dtype=complex)
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"initial states have shape {x.shape}, expected (B, {d})")
    n_rows = x.shape[0]
    nonlinear = kind == "nonlinear"
    if nonlinear:
        nrm0 = np.sqrt(np.vecdot(x, x).real)
        if np.any(np.abs(nrm0 - 1.0) > 1e-9):
            raise ValueError(f"nonlinear runs need unit initial states, |x0| = {nrm0!r}")
    k = model.n_channels
    n_steps, stride, dt = grid.n_steps, grid.save_every, grid.dt
    offsets, bands = model.op_bands()
    # fold the step sizes in: [dt G, sqrt(dt) L_1, .., sqrt(dt) L_K]
    scale = np.full((k + 1, 1), math.sqrt(dt))
    scale[0] = dt
    bands = bands * scale
    w = int(np.abs(offsets).max())
    padded = np.zeros((n_rows, d + 2 * w), dtype=complex)
    windows = [slice(w + o, w + o + d) for o in offsets]

    drift_sum = np.zeros(n_rows)
    dead = np.zeros(n_rows, dtype=bool)
    faults = []
    on_save(0, 0.0, x)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, NOISE_CHUNK_STEPS):
            chunk = _increments(noise, start, min(NOISE_CHUNK_STEPS, n_steps - start), n_rows, k)
            for step, eta in enumerate(chunk, start):
                padded[:, w : w + d] = x
                # app[:, 0] = dt G x, app[:, k] = sqrt(dt) L_k x
                app = bands[0] * padded[:, None, windows[0]]
                for band, window in zip(bands[1:], windows[1:]):
                    app += band * padded[:, None, window]
                if nonlinear:
                    # with m = sqrt(dt) m_k the step is
                    # y + dt G y + sum_k (m + eta_k) sqrt(dt) L_k y - s y,
                    # s = sum_k (m/2 + eta_k) m
                    m = np.vecdot(x[:, None], app[:, 1:]).real
                    s = np.vecdot(0.5 * m + eta, m)
                    diffusion = ((m + eta)[:, :, None] * app[:, 1:]).sum(axis=1)
                    x = x * (1.0 - s)[:, None] + app[:, 0] + diffusion
                    nrm = np.sqrt(np.vecdot(x, x).real)
                    if faults:
                        nrm[dead] = 1.0  # dead rows stay zero
                    if not (nrm.min() >= NORM_FLOOR and nrm.max() < math.inf):
                        bad = ~((nrm >= NORM_FLOOR) & (nrm < math.inf))
                        for r in np.flatnonzero(bad):
                            reason = (
                                "non-finite state"
                                if not math.isfinite(nrm[r])
                                else f"norm collapsed below {NORM_FLOOR}: {nrm[r]:.3e}"
                            )
                            faults.append((int(r), step, reason))
                        dead |= bad
                        x[bad] = 0.0
                        nrm[bad] = 1.0
                    drift_sum += nrm - 1.0
                    x = x / nrm[:, None]
                else:
                    x = x + app[:, 0] + (eta[:, :, None] * app[:, 1:]).sum(axis=1)
                    if not math.isfinite(np.vdot(x, x).real):
                        bad = ~np.isfinite(np.vecdot(x, x).real)  # dead rows are zero
                        faults.extend((int(r), step, "non-finite state") for r in np.flatnonzero(bad))
                        dead |= bad
                        x[bad] = 0.0
                if (step + 1) % stride == 0:
                    on_save((step + 1) // stride, (step + 1) * dt, x)
    drift_sum[dead] = 0.0
    return drift_sum / n_steps, sorted(faults)
