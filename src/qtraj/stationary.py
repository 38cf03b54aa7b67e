"""Long-run estimation of stationary states by trajectory time averaging.

The estimator runs the normalized unraveling past a burn-in time and averages
dyads |Y_t><Y_t| over trajectories and over strided save times inside an
averaging window.  States on the unit sphere make the average Hermitian, PSD
and unit-trace by construction; what remains to certify numerically is
stationarity itself, measured as the trace norm of the master-equation
generator applied to the estimate.

Per-trajectory quantities (window-mean dyad, reference moment, occupation
moments per window half) are folded from the saved states that
``drive_ensemble`` hands over, one trajectory at a time, so memory stays
O(M d^2) plus one trajectory's saves; the cross-trajectory reduction is the same
index-keyed pairwise tree the ensemble module uses, so results do not depend
on the thread count.  Standard errors are batch means over trajectories:
each trajectory's window average is one batch, which sidesteps the
within-trajectory autocorrelation a naive time-series stderr would model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import drive_ensemble, mean_and_stderr, point_sampler
from .hilbert import DensityMatrix, ModelSpec, lindbladian_apply
from .linalg import dagger, pairwise_sum, trace_norm
from .oracle import GAP_DIM_LIMIT, solve_master, spectral_gap
from .sde import DEFAULT_DT, PureState, TimeGrid

DEFAULT_WINDOW = 20.0
BURNIN_GAP_MULTIPLE = 5.0
DEFAULT_STRIDE_STEPS = 10


@dataclass(frozen=True)
class StationaryEstimate:
    """Ergodic-average estimate of a stationary state with diagnostics."""

    rho_inf: DensityMatrix
    burn_in: float
    window: float
    n_traj: int
    m_effective: int
    residual_onenorm: float
    c_moment: float
    c_moment_stderr: float
    occupation: float
    occupation_stderr: float
    occupation_sq: float
    occupation_sq_stderr: float
    half_delta: np.ndarray  # |first-half minus second-half| for tr(N rho), tr(N^2 rho)
    half_stderr: np.ndarray  # combined stderr for the same pair
    certified: bool
    certified_reason: str
    faults: list

    @property
    def window_split_consistent(self) -> bool:
        """Halves agree within 3 combined standard errors for N and N^2."""
        return bool(np.all(self.half_delta <= 3.0 * self.half_stderr + 1e-30))


def _stationary_certificate(model: ModelSpec) -> tuple[bool, str]:
    """Map the model's builder metadata onto the known existence criteria."""
    from .regularity import kerr_stationary_predicate

    meta = model.meta or {}
    builder = meta.get("builder")
    if builder == "thermal":
        if meta.get("rate", 0.0) > 0:
            return True, "thermal damping with positive rate"
        return False, "thermal model with zero rate has no attractor"
    if builder == "kerr":
        alpha = meta.get("alpha", ())
        p = meta.get("p", 0)
        try:
            ok = kerr_stationary_predicate(alpha[0], alpha[1], alpha[3], alpha[4], p)
        except ValueError as exc:
            return False, f"no stationary criterion: {exc}"
        if ok:
            return True, "kerr parameter criterion holds"
        return False, "kerr parameter criterion fails"
    return False, f"no stationary criterion known for builder {builder!r}"


def estimate_stationary(
    model: ModelSpec,
    y0,
    burn_in: float | None = None,
    window: float = DEFAULT_WINDOW,
    sample_stride: float | None = None,
    n_traj: int = 256,
    base_seed: int = 0,
    dt: float = DEFAULT_DT,
    threads: int = 1,
) -> StationaryEstimate:
    """Average |Y_t><Y_t| over [burn_in, burn_in + window] across n_traj paths.

    burn_in defaults to 5 / (spectral gap) when the dimension admits the
    dense gap computation; for larger models it must be supplied.  burn_in
    and window are snapped up to whole multiples of the sample stride, which
    itself defaults to 10 dt.  Trajectory faults follow the ensemble rules
    (masked, and more than 1% is an error).
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if burn_in is None:
        if model.dim > GAP_DIM_LIMIT:
            raise ValueError(
                f"dim={model.dim} > {GAP_DIM_LIMIT}: supply burn_in explicitly "
                "(the automatic spectral-gap default needs a dense solve)"
            )
        burn_in = BURNIN_GAP_MULTIPLE / spectral_gap(model)
    if burn_in <= 0:
        raise ValueError("burn_in must be positive")
    if sample_stride is None:
        sample_stride = DEFAULT_STRIDE_STEPS * dt
    stride_steps = int(round(sample_stride / dt))
    if stride_steps < 1 or abs(stride_steps * dt - sample_stride) > 1e-9 * max(1.0, sample_stride):
        raise ValueError(f"sample_stride {sample_stride} is not a positive multiple of dt {dt}")
    stride_time = stride_steps * dt

    # snap both interval lengths up to whole strides
    n_burn = max(1, int(math.ceil(burn_in / stride_time - 1e-12)))
    n_win = max(2, int(math.ceil(window / stride_time - 1e-12)))
    burn_in = n_burn * stride_time
    window = n_win * stride_time
    t_end = (n_burn + n_win) * stride_time
    grid = TimeGrid(t_end, dt=dt, save_every=stride_steps)
    n_half = n_win // 2

    d = model.dim
    x0 = y0.vec if isinstance(y0, PureState) else np.asarray(y0, dtype=complex)
    if abs(np.linalg.norm(x0) - 1.0) > 1e-10:
        raise ValueError("y0 must be a unit vector")
    c = model.C
    levels = np.arange(d, dtype=float)
    levels_sq = levels**2

    dyads = np.zeros((n_traj, d, d), dtype=complex)
    c_means = np.zeros(n_traj)
    occ = np.zeros((n_traj, 2))  # window means of <N>, <N^2>
    occ_halves = np.zeros((n_traj, 2, 2))  # [traj, half, moment]

    def reduce(i, block):
        dyad_acc = np.zeros((d, d), dtype=complex)
        c_acc = 0.0
        occ_acc = np.zeros((2, 2))
        for j in range(1, n_win + 1):  # save n_burn + j is the j-th inside the window
            vec = block[n_burn + j]
            np.add(dyad_acc, np.multiply.outer(vec, vec.conj()), out=dyad_acc)
            cv = c @ vec
            c_acc += float(np.vdot(cv, cv).real)
            probs = vec.real**2 + vec.imag**2
            half = 0 if j <= n_half else 1
            occ_acc[half, 0] += float(probs @ levels)
            occ_acc[half, 1] += float(probs @ levels_sq)
        dyads[i] = dyad_acc / n_win
        c_means[i] = c_acc / n_win
        occ_halves[i, 0] = occ_acc[0] / n_half
        occ_halves[i, 1] = occ_acc[1] / (n_win - n_half)
        occ[i] = occ_acc.sum(axis=0) / n_win

    fault_mask, faults, _ = drive_ensemble(
        model, point_sampler(x0), grid, "nonlinear", n_traj, base_seed, reduce, threads=threads
    )
    ok = ~fault_mask
    m_eff = int(ok.sum())

    acc = pairwise_sum(dyads[ok], axis=0) / m_eff
    rho = 0.5 * (acc + dagger(acc))
    rho_inf = DensityMatrix(rho, expected_trace=1.0)

    c_moment, c_stderr = mean_and_stderr(c_means[ok])
    (occ1, occ2), (occ1_err, occ2_err) = mean_and_stderr(occ[ok])

    half_mean, half_err = mean_and_stderr(occ_halves[ok])  # [half, moment]
    half_delta = np.abs(half_mean[0] - half_mean[1])
    half_stderr = np.array([math.hypot(*half_err[:, k]) for k in range(2)])

    certified, reason = _stationary_certificate(model)
    return StationaryEstimate(
        rho_inf=rho_inf,
        burn_in=burn_in,
        window=window,
        n_traj=n_traj,
        m_effective=m_eff,
        residual_onenorm=stationary_residual(model, rho_inf),
        c_moment=c_moment,
        c_moment_stderr=c_stderr,
        occupation=occ1,
        occupation_stderr=occ1_err,
        occupation_sq=occ2,
        occupation_sq_stderr=occ2_err,
        half_delta=half_delta,
        half_stderr=half_stderr,
        certified=certified,
        certified_reason=reason,
        faults=faults,
    )


def stationary_residual(model: ModelSpec, rho) -> float:
    """Trace norm of the master-equation generator applied to rho."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return trace_norm(lindbladian_apply(model, mat))


def finite_time_drift(model: ModelSpec, rho, t: float) -> float:
    """One-norm distance moved by the exact flow over [0, t].

    A second, coarser stationarity check on a different scale than the
    infinitesimal residual: a true fixed point gives 0 at every t.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    family = solve_master(model, mat, TimeGrid(t, dt=t, save_every=1))
    return trace_norm(family.values[-1] - mat)
