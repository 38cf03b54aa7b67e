"""The block step kernel: grids, exact identities, faults, block invariance."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtraj.hilbert import (
    FockSpace,
    ModelSpec,
    Op,
    build_fock_ops,
    build_kerr_oscillator,
    build_thermal_oscillator,
    coherent_state,
    fock_state,
    random_model,
)
from qtraj.noise import CoarsenedNoise, NoiseStream
from qtraj.oracle import solve_master
from qtraj.sde import TimeGrid, propagate


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_end=0.0)
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, dt=-0.1)
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, dt=0.3)  # 1/0.3 not an integer
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, dt=0.1, save_every=3)  # 3 does not divide 10
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, dt=0.1, save_every=0)


def test_time_grid_save_points():
    g = TimeGrid(t_end=1.0, dt=0.1, save_every=2)
    assert g.n_steps == 10
    assert g.n_save == 6
    np.testing.assert_array_equal(g.save_steps, [0, 2, 4, 6, 8, 10])
    np.testing.assert_allclose(g.save_times, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)


def test_time_grid_auto_stride_divides():
    # default stride keeps <= 1001 save points and divides the step count
    g = TimeGrid(t_end=5.0, dt=1e-3)
    assert g.n_steps == 5000
    assert g.n_steps % g.save_every == 0
    assert g.n_save <= 1001
    assert TimeGrid(t_end=0.5, dt=1e-3).save_every == 1


class _FixedNoise:
    """The same increments at every step."""

    def __init__(self, eta):
        self.eta = np.asarray(eta, dtype=float)

    def normals_block(self, start, n_steps, n):
        return np.tile(self.eta, (n_steps, 1))


def _run(model, x0, grid, kind, noise):
    """Saved (n_save, B, d) states, drifts and faults of one kernel call."""
    saved = []
    drifts, faults = propagate(
        model, np.atleast_2d(x0), grid, kind, noise, lambda si, t, s: saved.append(s.copy())
    )
    return np.array(saved), drifts, faults


def _one_step(model, x, dt, etas, kind):
    """One step of every row (x repeated, row r driven by etas[r])."""
    grid = TimeGrid(t_end=dt, dt=dt, save_every=1)
    noise = [_FixedNoise(e) for e in etas] if model.n_channels else None
    saved, drifts, faults = _run(model, np.tile(x, (len(etas), 1)), grid, kind, noise)
    assert faults == []
    return saved[-1], drifts


def _norm_sq(v):
    return float(np.vdot(v, v).real)


def test_linear_step_norm_identity():
    # averaging the update over +eta and -eta cancels the odd terms:
    # E|x'|^2 = |x|^2 + dt^2 |Gx|^2 exactly for a single step, so the
    # stepper's martingale defect is O(dt^2) with a computable constant
    model = build_thermal_oscillator(FockSpace(12), rate=1.0, nu=0.5)
    x = coherent_state(model.space, 0.8)
    dt = 1e-3
    eta = np.array([0.7, -1.3])
    (plus, minus), _ = _one_step(model, x, dt, [eta, -eta], "linear")
    # cross terms are odd in eta except the diffusion square, which the
    # average reproduces with eta eta^T in place of its expectation
    avg = 0.5 * (_norm_sq(plus) + _norm_sq(minus))
    gx = model.G @ x
    lx = np.stack([l @ x for l in model.L])
    base = _norm_sq(x)
    quad = _norm_sq(gx) * dt**2
    diff = float(np.einsum("i,j,ij->", eta, eta, (lx @ lx.conj().T).real)) * dt
    trace_term = 2.0 * float(np.vdot(x, gx).real) * dt
    expect = base + trace_term + diff + quad
    assert abs(avg - expect) < 1e-14 * expect


def test_linear_martingale_in_expectation_over_channels():
    # with eta drawn as every corner of {+1,-1}^K the empirical mean of
    # |x'|^2 equals |x|^2 + dt(2Re<x,Gx> + sum|L_k x|^2) + dt^2|Gx|^2
    # = |x|^2 + dt^2 |Gx|^2 by the trace identity
    model = build_thermal_oscillator(FockSpace(10), rate=0.7, nu=0.3)
    x = coherent_state(model.space, 1.1)
    dt = 2e-3
    corners = [np.array([s1, s2], float) for s1 in (1, -1) for s2 in (1, -1)]
    out, _ = _one_step(model, x, dt, corners, "linear")
    mean_sq = np.mean([_norm_sq(v) for v in out])
    gx = model.G @ x
    want = _norm_sq(x) + dt**2 * _norm_sq(gx)
    assert abs(mean_sq - want) < 1e-13


def test_nonlinear_step_properties():
    model = build_thermal_oscillator(FockSpace(12), rate=1.0, nu=0.5)
    x = coherent_state(model.space, 0.9)
    (out,), (drift,) = _one_step(model, x, 1e-3, [np.array([0.4, -0.2])], "nonlinear")
    assert abs(np.sqrt(_norm_sq(out)) - 1.0) < 1e-14
    assert drift != 0.0
    assert abs(drift) < 1e-2


def test_closed_model_phase_evolution_conserves_occupation():
    # H = beta N, no channels: Euler step rotates each component's phase;
    # renormalization leaves <N> exact up to the O(dt^2) Euler radius growth,
    # so halving dt must quarter the defect
    space = FockSpace(6)
    n_op = build_fock_ops(space).n
    model = ModelSpec(space, hamiltonian=Op(2.0 * n_op.matrix, "bN"), lindblads=())
    v = (fock_state(space, 1) + fock_state(space, 3)) / np.sqrt(2.0)
    n_before = float(np.vdot(v, n_op.matrix @ v).real)

    def defect(dt):
        (out,), _ = _one_step(model, v, dt, [np.zeros(0)], "nonlinear")
        return abs(float(np.vdot(out, n_op.matrix @ out).real) - n_before)

    d1, d2 = defect(1e-3), defect(5e-4)
    assert d1 < 1e-4
    assert abs(d1 / d2 - 4.0) < 0.05


def test_step_increment_shape_checked():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.5)
    x = fock_state(model.space, 0)
    with pytest.raises(ValueError, match="increments"):
        _one_step(model, x, 1e-3, [np.zeros(3)], "linear")
    with pytest.raises(ValueError, match="increments"):
        _one_step(model, x, 1e-3, [np.zeros(1)], "nonlinear")


def test_propagate_reproducible_and_unit_norm():
    model = build_thermal_oscillator(FockSpace(10), rate=1.0, nu=0.4)
    grid = TimeGrid(t_end=0.2, dt=1e-3, save_every=50)
    x0 = coherent_state(model.space, 0.6)
    s1, drifts, faults = _run(model, x0, grid, "nonlinear", [NoiseStream(7, 0)])
    s2, _, _ = _run(model, x0, grid, "nonlinear", [NoiseStream(7, 0)])
    assert s1.shape == (grid.n_save, 1, model.dim)
    np.testing.assert_array_equal(s1, s2)
    assert np.all(np.abs(np.linalg.norm(s1, axis=-1) - 1.0) < 1e-12)
    assert drifts.shape == (1,) and drifts[0] != 0.0
    assert faults == []


def test_linear_trajectory_tracks_norm():
    model = build_thermal_oscillator(FockSpace(10), rate=1.0, nu=0.4)
    grid = TimeGrid(t_end=0.1, dt=1e-3, save_every=20)
    saved, drifts, _ = _run(model, fock_state(model.space, 2), grid, "linear", [NoiseStream(3, 5)])
    assert np.all(drifts == 0.0)
    norms = np.linalg.norm(saved[:, 0], axis=-1)
    assert np.all(np.isfinite(norms))
    # linear flow does not preserve the norm pathwise
    assert abs(norms[-1] - 1.0) > 1e-6


def test_prenorm_drift_shrinks_with_dt():
    # mean |drift| per step ~ dt^{3/2}: halving dt must reduce it
    model = build_thermal_oscillator(FockSpace(10), rate=1.0, nu=0.5)
    x0 = coherent_state(model.space, 0.7)

    def mean_drift(dt):
        grid = TimeGrid(t_end=0.256, dt=dt, save_every=int(round(0.256 / dt)))
        factor = int(round(dt / 1e-3))
        noise = [CoarsenedNoise(NoiseStream(41, tid), factor) for tid in range(8)]
        _, drifts, _ = _run(model, np.tile(x0, (8, 1)), grid, "nonlinear", noise)
        return float(np.mean(np.abs(drifts)))

    d4 = mean_drift(4e-3)
    d2 = mean_drift(2e-3)
    assert d2 < d4


def test_propagate_validates_inputs():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.5)
    grid = TimeGrid(t_end=0.01, dt=1e-3)
    ok = fock_state(model.space, 0)[None]
    noise = [NoiseStream(0, 0)]
    with pytest.raises(ValueError, match="kind"):
        propagate(model, ok, grid, "weird", noise, lambda *a: None)
    with pytest.raises(ValueError, match="shape"):
        propagate(model, np.zeros((1, 5), complex), grid, "linear", noise, lambda *a: None)
    with pytest.raises(ValueError, match="shape"):
        propagate(model, ok[0], grid, "linear", noise, lambda *a: None)
    with pytest.raises(ValueError, match="unit"):
        propagate(model, 2.0 * ok, grid, "nonlinear", noise, lambda *a: None)
    with pytest.raises(ValueError, match="noise"):
        propagate(model, ok, grid, "linear", None, lambda *a: None)
    with pytest.raises(ValueError, match="noise streams"):
        propagate(model, ok, grid, "linear", noise * 2, lambda *a: None)


class _HugeNoise:
    """Adversarial stream driving the state toward overflow."""

    def normals_block(self, start, n_steps, n):
        return np.full((n_steps, n), 1e200)


def test_fault_on_nonfinite_state():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.5)
    grid = TimeGrid(t_end=0.01, dt=1e-3)
    for kind in ("linear", "nonlinear"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no floating-point warning escapes
            saved, _, faults = _run(model, fock_state(model.space, 1), grid, kind, [_HugeNoise()])
        ((row, step, reason),) = faults
        assert row == 0 and step is not None and reason == "non-finite state"
        # the faulted row is zero from its fault on, and nothing else goes non-finite
        assert np.all(saved[step + 1 :] == 0.0)
        assert np.all(np.isfinite(saved))


def test_fault_on_norm_collapse():
    # pure damping on e_1 with eta = 0: y' = (1 - dt/2) e_1, so an oversized
    # deterministic step shrinks the state below the floor
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.0)
    grid = TimeGrid(t_end=1.8, dt=1.8, save_every=1)
    saved, drifts, faults = _run(
        model, fock_state(model.space, 1), grid, "nonlinear", [_FixedNoise([0.0])]
    )
    ((row, step, reason),) = faults
    assert (row, step) == (0, 0) and "collapsed" in reason
    assert np.all(saved[-1] == 0.0) and drifts[0] == 0.0


def test_closed_model_needs_no_noise():
    space = FockSpace(6)
    n_op = build_fock_ops(space).n
    model = ModelSpec(space, hamiltonian=Op(n_op.matrix, "N"), lindblads=())
    grid = TimeGrid(t_end=0.05, dt=1e-3, save_every=50)
    saved, _, _ = _run(model, fock_state(space, 2), grid, "nonlinear", None)
    assert abs(np.linalg.norm(saved[-1, 0]) - 1.0) < 1e-12


def test_random_model_linear_and_nonlinear_run():
    model = random_model(6, n_lindblads=2, seed=11)
    grid = TimeGrid(t_end=0.1, dt=1e-3, save_every=100)
    for kind in ("linear", "nonlinear"):
        saved, _, _ = _run(model, fock_state(model.space, 0), grid, kind, [NoiseStream(1, 2)])
        assert np.all(np.isfinite(saved[-1]))


_BLOCK_MODELS = {
    "thermal": build_thermal_oscillator(FockSpace(30), rate=1.0, nu=0.5),
    # acceptance 04's six-channel Kerr model
    "kerr": build_kerr_oscillator(
        FockSpace(16),
        beta1=0.1,
        beta2=0.2,
        beta3=0.05,
        alpha1=0.3,
        alpha2=0.1,
        alpha3=0.2,
        alpha4=0.4,
        alpha5=0.2,
        alpha6=0.1,
        p=4,
    ),
    "random": random_model(7, 3),
}


@settings(max_examples=24, deadline=None)
@given(
    builder=st.sampled_from(sorted(_BLOCK_MODELS)),
    kind=st.sampled_from(["linear", "nonlinear"]),
    seed=st.integers(0, 2**32 - 1),
    tid=st.integers(0, 10**6),
    where=st.floats(0.0, 1.0, exclude_max=True),
    with_fault=st.booleans(),
)
def test_trajectory_bits_do_not_depend_on_its_block(builder, kind, seed, tid, where, with_fault):
    # a trajectory's saved states are the same bits alone, in a block of 7
    # and in a block of 500, at any position, next to a row that faults
    model = _BLOCK_MODELS[builder]
    grid = TimeGrid(t_end=0.05, dt=1e-3, save_every=10)
    x0 = coherent_state(model.space, 0.5)
    alone, _, faults = _run(model, x0, grid, kind, [NoiseStream(seed, tid)])
    assert faults == []
    for size in (7, 500):
        pos = int(where * size)
        noise = [NoiseStream(seed, tid + 1 + r) for r in range(size)]
        noise[pos] = NoiseStream(seed, tid)
        if with_fault:
            bad = (pos + 1) % size
            noise[bad] = _HugeNoise()
        saved, _, faults = _run(model, np.tile(x0, (size, 1)), grid, kind, noise)
        np.testing.assert_array_equal(saved[:, pos], alone[:, 0])
        if with_fault:
            assert [row for row, _, _ in faults] == [bad]


def test_weak_order_one_against_the_master_equation():
    # one fine Brownian path per trajectory drives dt, 2 dt and 4 dt through
    # CoarsenedNoise.  The weak error of E<Y, N Y> at t = 1 is c dt + O(dt^2)
    # plus a sampling error that the common paths share, so the errors must
    # shrink under refinement and their successive differences, 2 c dt and
    # c dt, must have a ratio near 2 (2^p for weak order p).  Over seeds 0-39
    # the ratio ranged over [1.43, 3.74] (median 2.06) and the errors always
    # shrank; the band keeps a margin of about 0.25 on both sides.
    model = build_thermal_oscillator(FockSpace(12), rate=1.0, nu=0.5)
    n_op = build_fock_ops(model.space).n.matrix
    x0 = fock_state(model.space, 3)
    rho1 = solve_master(model, np.outer(x0, x0.conj()), TimeGrid(1.0, dt=1.0)).values[-1]
    exact = float(np.trace(n_op @ rho1).real)
    m, fine_dt = 8000, 0.01
    errors = []
    for factor in (1, 2, 4):
        dt = factor * fine_dt
        grid = TimeGrid(t_end=1.0, dt=dt, save_every=int(round(1.0 / dt)))
        noise = [CoarsenedNoise(NoiseStream(0, i), factor) for i in range(m)]
        saved, _, faults = _run(model, np.tile(x0, (m, 1)), grid, "nonlinear", noise)
        assert faults == []
        final = saved[-1]
        errors.append(float(np.mean(np.vecdot(final, final @ n_op.T).real)) - exact)
    fine, mid, coarse = errors
    assert abs(fine) < abs(mid) < abs(coarse)
    ratio = (coarse - mid) / (mid - fine)
    assert 1.2 <= ratio <= 4.0
