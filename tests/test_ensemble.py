"""Ensemble runs: determinism, reductions, fault aggregation, equivalence."""

import numpy as np
import pytest

import qtraj.ensemble
from qtraj.ensemble import (
    AggregateFaultError,
    TrajectoryBatch,
    observable_mean,
    point_sampler,
    reconstruct_density,
    run_ensemble,
    weighted_equivalence_check,
)
from qtraj.hilbert import (
    FockSpace,
    build_fock_ops,
    build_thermal_oscillator,
    coherent_state,
    fock_state,
)
from qtraj.linalg import min_eig_hermitian
from qtraj.sde import TimeGrid


def _small_setup():
    model = build_thermal_oscillator(FockSpace(10), rate=1.0, nu=0.4)
    grid = TimeGrid(t_end=0.2, dt=2e-3, save_every=20)
    sampler = point_sampler(coherent_state(model.space, 0.6))
    return model, grid, sampler


def test_batch_is_byte_identical_across_block_splits(monkeypatch):
    model, grid, sampler = _small_setup()
    b1 = run_ensemble(model, sampler, grid, "nonlinear", 24, base_seed=5)
    for block_size in (1, 5):
        monkeypatch.setattr(qtraj.ensemble, "BLOCK_SIZE", block_size)
        split = run_ensemble(model, sampler, grid, "nonlinear", 24, base_seed=5)
        assert b1.states.tobytes() == split.states.tobytes()
        np.testing.assert_array_equal(b1.fault_mask, split.fault_mask)
        assert b1.mean_prenorm_drift == split.mean_prenorm_drift


def test_batch_reproducible_and_seed_sensitive():
    model, grid, sampler = _small_setup()
    a = run_ensemble(model, sampler, grid, "linear", 8, base_seed=1)
    b = run_ensemble(model, sampler, grid, "linear", 8, base_seed=1)
    c = run_ensemble(model, sampler, grid, "linear", 8, base_seed=2)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.states.tobytes() != c.states.tobytes()


def test_batch_time_lookup():
    model, grid, sampler = _small_setup()
    batch = run_ensemble(model, sampler, grid, "nonlinear", 4, base_seed=0)
    assert batch.save_index(0.2) == grid.n_save - 1
    assert batch.states_at(0.0).shape == (4, model.dim)
    with pytest.raises(KeyError):
        batch.save_index(0.123)
    with pytest.raises(ValueError):
        run_ensemble(model, sampler, grid, "nonlinear", 0, base_seed=0)


def test_reconstructed_density_is_positive_and_traces_norms():
    model, grid, sampler = _small_setup()
    batch = run_ensemble(model, sampler, grid, "linear", 32, base_seed=3)
    est = reconstruct_density(batch, 0.2)
    assert est.m_effective == 32
    assert min_eig_hermitian(est.rho.matrix) >= -1e-12
    rows = batch.states_at(0.2)
    mean_norm_sq = float(np.mean((np.abs(rows) ** 2).sum(axis=1)))
    assert abs(est.rho.trace - mean_norm_sq) < 1e-10


def test_observable_mean_matches_direct_average():
    model, grid, sampler = _small_setup()
    batch = run_ensemble(model, sampler, grid, "nonlinear", 16, base_seed=9)
    n_op = build_fock_ops(model.space).n.matrix
    est = observable_mean(batch, n_op, 0.2)
    rows = batch.states_at(0.2)
    direct = np.mean([np.vdot(r, n_op @ r).real for r in rows])
    assert abs(est.value.real - direct) < 1e-12
    assert est.value.imag == pytest.approx(0.0, abs=1e-12)
    assert est.stderr > 0
    assert est.m_effective == 16
    # stderr should follow the sample standard deviation
    vals = np.array([np.vdot(r, n_op @ r).real for r in rows])
    want = vals.std(ddof=1) / np.sqrt(16)
    assert est.stderr == pytest.approx(want, rel=1e-10)


class _FaultySampler:
    """Sends selected trajectories into an immediate overflow."""

    def __init__(self, good_vec, bad_ids):
        self.good = np.asarray(good_vec, complex)
        self.bad_ids = set(bad_ids)

    def __call__(self, i):
        if i in self.bad_ids:
            return self.good * 1e300
        return self.good


def test_faulted_trajectories_are_masked():
    model, grid, _ = _small_setup()
    x0 = coherent_state(model.space, 0.6)
    # linear flow scales freely, so an enormous start overflows within steps
    sampler = _FaultySampler(x0, bad_ids=())
    run_ensemble(model, sampler, grid, "linear", 8, base_seed=0)  # sanity
    sampler = _FaultySampler(x0, bad_ids=(3,))
    with pytest.raises(AggregateFaultError):
        # 1 fault of 8 trajectories is over the 1% budget
        run_ensemble(model, sampler, grid, "linear", 8, base_seed=0)


def test_fault_budget_allows_rare_faults():
    model, grid, _ = _small_setup()
    x0 = coherent_state(model.space, 0.6)
    sampler = _FaultySampler(x0, bad_ids=(7,))
    batch = run_ensemble(model, sampler, grid, "linear", 200, base_seed=0)
    assert batch.m_effective == 199
    assert batch.fault_mask[7]
    assert not batch.fault_mask[6]
    (idx, step, reason) = batch.faults[0]
    assert idx == 7 and "non-finite" in reason
    # masked rows are zeroed and excluded from estimators
    assert np.all(batch.states[7] == 0.0)
    est = observable_mean(batch, np.eye(model.dim, dtype=complex), 0.2)
    assert est.m_effective == 199
    assert np.isfinite(est.value.real)


def test_linear_norm_martingale_mean():
    # E|X_t|^2 = 1 for a normalized start, up to O(dt) bias and sampling noise
    model = build_thermal_oscillator(FockSpace(12), rate=1.0, nu=0.3)
    grid = TimeGrid(t_end=0.5, dt=1e-3, save_every=100)
    sampler = point_sampler(fock_state(model.space, 1))
    batch = run_ensemble(model, sampler, grid, "linear", 400, base_seed=17)
    rows = batch.states_at(0.5)
    norm_sq = (np.abs(rows) ** 2).sum(axis=1)
    stderr = norm_sq.std(ddof=1) / np.sqrt(len(norm_sq))
    assert abs(norm_sq.mean() - 1.0) < 4 * stderr + 5e-3


def test_weighted_equivalence_on_small_model():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.3)
    n_op = build_fock_ops(model.space).n.matrix
    rep = weighted_equivalence_check(
        model, fock_state(model.space, 1), t=0.2, n_traj=300, base_seed=21, f_obs=n_op, dt=2e-3
    )
    assert rep.m_linear == 300 and rep.m_nonlinear == 300
    assert rep.combined_stderr > 0
    assert rep.gap < 4 * rep.combined_stderr + 0.01
    with pytest.raises(ValueError, match="multiple"):
        weighted_equivalence_check(
            model, fock_state(model.space, 1), t=0.0015, n_traj=4, base_seed=0, f_obs=n_op, dt=1e-3
        )
