"""Monte Carlo ensembles of trajectories and the estimators built on them.

``drive_ensemble`` integrates the trajectories, applies the fault policy and
hands each trajectory's saved states to a reduction the caller supplies;
``run_ensemble`` is the reduction that keeps them all, indexed (trajectory,
save time).  Every cross-trajectory reduction (density reconstruction,
``mean_and_stderr``) runs over a fixed pairwise tree keyed by trajectory
index, so results are bit-identical no matter how many threads computed the
trajectories or in which order they finished.

The mean dyad of linear trajectories estimates rho_t; the weighted check at
the bottom compares the linear estimator |X|^2 <Xhat, f Xhat> with the
normalized estimator <Y, f Y>, which target the same number.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityMatrix, ModelSpec, Op
from .linalg import pairwise_sum
from .noise import NoiseStream
from .sde import IntegrationFault, TimeGrid, propagate

FAULT_FRACTION_LIMIT = 0.01
NORM_SQ_FLOOR = 1e-12


class AggregateFaultError(RuntimeError):
    """Too many trajectories faulted for the ensemble to be trustworthy."""


@dataclass(frozen=True)
class ObservableEstimate:
    value: complex
    stderr: float
    m_effective: int


@dataclass(frozen=True)
class EnsembleDensity:
    rho: DensityMatrix
    t: float
    m_effective: int


@dataclass
class TrajectoryBatch:
    """Saved states of an ensemble, with faulted trajectories masked out."""

    model: ModelSpec
    kind: str
    grid: TimeGrid
    base_seed: int
    states: np.ndarray  # (n_traj, n_save, dim); faulted rows zeroed
    fault_mask: np.ndarray  # (n_traj,) bool
    faults: list  # (trajectory_index, step, reason)
    mean_prenorm_drift: float | None = None

    @property
    def n_traj(self) -> int:
        return self.states.shape[0]

    @property
    def m_effective(self) -> int:
        return int(self.n_traj - self.fault_mask.sum())

    def save_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.grid.save_times - t)))
        if abs(self.grid.save_times[idx] - t) > 1e-9:
            raise KeyError(f"t={t} is not a save time of this batch")
        return idx

    def states_at(self, t: float) -> np.ndarray:
        """States of the unfaulted trajectories at save time t, kept in
        trajectory-index order."""
        return self.states[~self.fault_mask, self.save_index(t)]


def point_sampler(vec: np.ndarray):
    """Initial sampler that ignores its seed: every trajectory starts at vec."""
    frozen = np.asarray(vec, dtype=complex).copy()
    frozen.setflags(write=False)
    return lambda seed: frozen


def drive_ensemble(
    model: ModelSpec,
    initial_sampler,
    grid: TimeGrid,
    kind: str,
    n_traj: int,
    base_seed: int,
    reduce,
    threads: int = 1,
) -> tuple[np.ndarray, list, np.ndarray]:
    """Integrate ``n_traj`` independent trajectories, reducing each as it ends.

    Trajectory i draws its noise from NoiseStream(base_seed, i) and its
    initial state from initial_sampler(i); both are pure functions, so every
    trajectory is independent of ``threads`` and of scheduling.
    ``reduce(i, block)`` gets the (n_save, dim) saved states of each
    unfaulted trajectory; under threads it runs concurrently, so it writes
    only to slots owned by i.  More than 1% faults is an AggregateFaultError.

    Returns (fault_mask, faults, drifts): faults as (index, step, reason) in
    index order, drifts each trajectory's mean pre-normalization norm drift.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    drifts = np.zeros(n_traj)
    fault_mask = np.zeros(n_traj, dtype=bool)
    faults_by_index: dict[int, tuple] = {}

    def worker(i: int) -> None:
        x0 = np.asarray(initial_sampler(i), dtype=complex)
        noise = NoiseStream(base_seed, i)
        block = np.empty((grid.n_save, model.dim), dtype=complex)

        def on_save(si, t, vec, nrm):
            block[si] = vec

        try:
            drifts[i], _ = propagate(model, x0, grid, kind, noise, on_save)
        except IntegrationFault as fault:
            fault_mask[i] = True
            faults_by_index[i] = (i, fault.step, fault.reason)
            return
        reduce(i, block)

    if threads == 1:
        for i in range(n_traj):
            worker(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(worker, range(n_traj)))

    faults = [faults_by_index[i] for i in sorted(faults_by_index)]
    if len(faults) > FAULT_FRACTION_LIMIT * n_traj:
        raise AggregateFaultError(
            f"{len(faults)} of {n_traj} trajectories faulted "
            f"(limit {FAULT_FRACTION_LIMIT:.0%}); first: {faults[0]}"
        )
    return fault_mask, faults, drifts


def run_ensemble(
    model: ModelSpec,
    initial_sampler,
    grid: TimeGrid,
    kind: str,
    n_traj: int,
    base_seed: int,
    threads: int = 1,
) -> TrajectoryBatch:
    """Simulate ``n_traj`` independent trajectories and keep every saved state.

    The (n_traj, n_save, dim) batch of ``drive_ensemble``'s trajectories;
    faulted rows stay zero.
    """
    states = np.zeros((n_traj, grid.n_save, model.dim), dtype=complex)

    def keep(i, block):
        states[i] = block

    fault_mask, faults, drifts = drive_ensemble(
        model, initial_sampler, grid, kind, n_traj, base_seed, keep, threads=threads
    )
    ok = ~fault_mask
    mean_drift = float(pairwise_sum(drifts[ok]) / ok.sum()) if kind == "nonlinear" else None
    return TrajectoryBatch(
        model=model,
        kind=kind,
        grid=grid,
        base_seed=int(base_seed),
        states=states,
        fault_mask=fault_mask,
        faults=faults,
        mean_prenorm_drift=mean_drift,
    )


def reconstruct_density(batch: TrajectoryBatch, t: float) -> EnsembleDensity:
    """Mean dyad (1/M) sum_i |psi_i><psi_i| at save time t.

    Pairwise-tree accumulation in trajectory order, then symmetrization; the
    result is positive semidefinite by construction and its trace equals the
    mean squared norm of the included states.
    """
    rows = batch.states_at(t)
    m_eff = rows.shape[0]
    if m_eff == 0:
        raise ValueError("no unfaulted trajectories to reconstruct from")
    dyads = rows[:, :, None] * rows.conj()[:, None, :]
    acc = pairwise_sum(dyads) / m_eff
    rho = 0.5 * (acc + acc.conj().T)
    mean_norm_sq = float(pairwise_sum((rows.real**2 + rows.imag**2).sum(axis=1)) / m_eff)
    dm = DensityMatrix(rho, expected_trace=mean_norm_sq)
    return EnsembleDensity(rho=dm, t=t, m_effective=m_eff)


def quadratic_form(rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<psi_i, A psi_i> for every row, as a complex vector."""
    return np.einsum("md,de,me->m", rows.conj(), a, rows, optimize=True)


def mean_and_stderr(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over axis 0 and the standard error of that mean.

    Both sums run over the fixed pairwise tree: mean = sum(v) / m and
    stderr = sqrt((sum |v - mean|^2 / (m - 1)) / m), zero when m < 2.
    """
    vals = np.asarray(vals)
    m = vals.shape[0]
    mean = pairwise_sum(vals) / m
    if m < 2:
        return mean, np.zeros(np.shape(mean))
    var = pairwise_sum(np.abs(vals - mean) ** 2) / (m - 1)
    return mean, np.sqrt(var / m)


def observable_mean(batch: TrajectoryBatch, a_obs, t: float) -> ObservableEstimate:
    """Ensemble mean of <psi, A psi> at save time t with its standard error.

    For kind=linear this estimates tr(A rho_t); for kind=nonlinear it
    estimates the same number through the normalized unraveling.
    """
    a = a_obs.matrix if isinstance(a_obs, Op) else np.asarray(a_obs, dtype=complex)
    rows = batch.states_at(t)
    if rows.shape[0] == 0:
        raise ValueError("no unfaulted trajectories to average")
    mean, stderr = mean_and_stderr(quadratic_form(rows, a))
    return ObservableEstimate(value=complex(mean), stderr=float(stderr), m_effective=rows.shape[0])


@dataclass(frozen=True)
class EquivalenceReport:
    lhs: complex
    rhs: complex
    lhs_stderr: float
    rhs_stderr: float
    combined_stderr: float
    t: float
    m_linear: int
    m_nonlinear: int

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def weighted_equivalence_check(
    model: ModelSpec,
    x0: np.ndarray,
    t: float,
    n_traj: int,
    base_seed: int,
    f_obs,
    dt: float = 1e-3,
    threads: int = 1,
) -> EquivalenceReport:
    """Compare the weighted linear estimator with the normalized one.

    lhs = mean of |X_t|^2 <Xhat, f Xhat>  (zero when |X_t|^2 < 1e-12),
    rhs = mean of <Y_t, f Y_t>,
    each over ``n_traj`` trajectories; the nonlinear side runs on base_seed+1
    so the two estimators are driven by disjoint noise.  Both target the same
    expectation, so agreement within a few combined standard errors is the
    pass condition the caller should apply.
    """
    f = f_obs.matrix if isinstance(f_obs, Op) else np.asarray(f_obs, dtype=complex)
    ratio = t / dt
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9:
        raise ValueError(f"t={t} is not a multiple of dt={dt}")
    grid = TimeGrid(t_end=t, dt=dt, save_every=n_steps)
    sampler = point_sampler(x0)
    lin = run_ensemble(model, sampler, grid, "linear", n_traj, base_seed, threads=threads)
    non = run_ensemble(model, sampler, grid, "nonlinear", n_traj, base_seed + 1, threads=threads)
    lin_rows = lin.states_at(t)
    return equivalence_report(
        quadratic_form(lin_rows, f),
        (lin_rows.real**2 + lin_rows.imag**2).sum(axis=1),
        quadratic_form(non.states_at(t), f),
        t,
    )


def equivalence_report(
    lin_vals: np.ndarray, lin_norm_sq: np.ndarray, non_vals: np.ndarray, t: float
) -> EquivalenceReport:
    """The weighted-versus-normalized comparison from per-trajectory values at t.

    ``lin_vals`` are <X, f X> and ``lin_norm_sq`` |X|^2 of the unfaulted
    linear trajectories, ``non_vals`` <Y, f Y> of the nonlinear ones.
    """
    if np.all(lin_norm_sq < NORM_SQ_FLOOR):
        raise ValueError("degenerate linear ensemble: every squared norm below 1e-12")
    # |X|^2 <Xhat, f Xhat> = <X, f X>, with the floor sending dead paths to 0.
    lhs, lhs_stderr = mean_and_stderr(np.where(lin_norm_sq >= NORM_SQ_FLOOR, lin_vals, 0.0))
    rhs, rhs_stderr = mean_and_stderr(non_vals)
    return EquivalenceReport(
        lhs=complex(lhs),
        rhs=complex(rhs),
        lhs_stderr=float(lhs_stderr),
        rhs_stderr=float(rhs_stderr),
        combined_stderr=float(np.hypot(lhs_stderr, rhs_stderr)),
        t=t,
        m_linear=len(lin_vals),
        m_nonlinear=len(non_vals),
    )
