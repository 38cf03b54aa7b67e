"""Ergodic averaging toward stationary states and its certificates."""

import numpy as np
import pytest

import qtraj.ensemble
from qtraj.hilbert import (
    FockSpace,
    build_kerr_oscillator,
    build_thermal_oscillator,
    fock_state,
    random_model,
    thermal_state,
)
from qtraj.stationary import (
    StationaryEstimate,
    estimate_stationary,
    finite_time_drift,
    stationary_residual,
)


def test_residual_routes():
    model = build_thermal_oscillator(FockSpace(30), rate=0.7, nu=1.2)
    # the truncated geometric state is an exact fixed point
    rho = thermal_state(model.space, 1.2)
    assert stationary_residual(model, rho) <= 1e-8
    assert finite_time_drift(model, rho, 0.5) <= 1e-7
    # the maximally mixed state is far from stationary
    mixed = np.eye(30, dtype=complex) / 30.0
    assert stationary_residual(model, mixed) > 0.1
    with pytest.raises(ValueError):
        finite_time_drift(model, rho, 0.0)


def test_pure_damping_relaxes_to_vacuum():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.0, p=1)
    est = estimate_stationary(
        model, fock_state(model.space, 2), window=4.0, n_traj=24, base_seed=3, dt=2e-3
    )
    assert isinstance(est, StationaryEstimate)
    # burn_in defaulted from the spectral gap: 5 / (rate/2) = 10
    assert abs(est.burn_in - 10.0) < 0.05
    vac_weight = est.rho_inf.matrix[0, 0].real
    assert vac_weight > 0.99
    assert est.occupation < 0.02
    assert est.residual_onenorm < 0.05
    assert est.certified
    assert "thermal" in est.certified_reason
    assert est.m_effective == 24
    # near-deterministic decay: the window still holds the exp(-t) transient
    # tail while trajectory scatter is tiny, so the half-split check must
    # flag it (its job is to catch exactly this kind of residual trend)
    assert not est.window_split_consistent


def test_thermal_estimate_matches_geometric_state():
    rate, nu = 1.0, 0.3
    model = build_thermal_oscillator(FockSpace(10), rate=rate, nu=nu, p=1)
    est = estimate_stationary(
        model, fock_state(model.space, 0), window=8.0, n_traj=48, base_seed=11, dt=2e-3
    )
    assert abs(est.occupation - nu) <= 4 * est.occupation_stderr + 0.02
    # diagonal of the estimate tracks the geometric weights
    want = np.diag(thermal_state(model.space, nu).matrix).real
    got = np.diag(est.rho_inf.matrix).real
    assert np.max(np.abs(got - want)) < 0.05
    assert est.window_split_consistent
    # c_moment with p=1 reference is tr(N^2 rho)
    want_n2 = float((want * np.arange(10.0) ** 2).sum())
    assert abs(est.c_moment - want_n2) <= 4 * est.c_moment_stderr + 0.05


def test_estimate_validation():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.1, p=1)
    x0 = fock_state(model.space, 0)
    with pytest.raises(ValueError, match="window"):
        estimate_stationary(model, x0, window=0.0, n_traj=2)
    with pytest.raises(ValueError, match="unit"):
        estimate_stationary(model, 2.0 * x0, window=1.0, n_traj=2)
    with pytest.raises(ValueError, match="n_traj"):
        estimate_stationary(model, x0, window=1.0, n_traj=0)
    with pytest.raises(ValueError, match="stride"):
        estimate_stationary(model, x0, window=1.0, n_traj=2, sample_stride=1.5e-3, dt=1e-3)
    big = build_thermal_oscillator(FockSpace(40), rate=1.0, nu=0.1)
    with pytest.raises(ValueError, match="burn_in"):
        estimate_stationary(big, fock_state(big.space, 0), window=1.0, n_traj=2)


def test_interval_snapping():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.1, p=1)
    est = estimate_stationary(
        model,
        fock_state(model.space, 0),
        burn_in=0.123,
        window=0.4567,
        n_traj=2,
        base_seed=0,
        dt=1e-3,
    )
    # snapped up to whole strides of 10 dt
    assert abs(est.burn_in - 0.13) < 1e-12
    assert abs(est.window - 0.46) < 1e-12
    assert est.n_traj == 2


def test_estimate_is_block_split_independent(monkeypatch):
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.2, p=1)
    kwargs = dict(burn_in=1.0, window=2.0, n_traj=12, base_seed=5, dt=2e-3)
    e1 = estimate_stationary(model, fock_state(model.space, 0), **kwargs)
    monkeypatch.setattr(qtraj.ensemble, "BLOCK_SIZE", 5)
    e4 = estimate_stationary(model, fock_state(model.space, 0), **kwargs)
    assert e1.rho_inf.matrix.tobytes() == e4.rho_inf.matrix.tobytes()
    assert e1.c_moment == e4.c_moment
    assert e1.occupation == e4.occupation
    np.testing.assert_array_equal(e1.half_delta, e4.half_delta)


def test_certificates_by_builder():
    kerr_ok = build_kerr_oscillator(FockSpace(8), alpha1=0.5, alpha4=1.0, p=4)
    est = estimate_stationary(
        kerr_ok, fock_state(kerr_ok.space, 0), burn_in=0.2, window=0.5, n_traj=2, dt=2e-3
    )
    assert est.certified and "criterion holds" in est.certified_reason

    kerr_bad = build_kerr_oscillator(FockSpace(8), alpha4=0.3, alpha5=0.7, p=4)
    est_bad = estimate_stationary(
        kerr_bad, fock_state(kerr_bad.space, 0), burn_in=0.05, window=0.1, n_traj=2, dt=1e-3
    )
    assert not est_bad.certified

    anon = random_model(8, seed=0)
    est_anon = estimate_stationary(
        anon, fock_state(anon.space, 0), burn_in=0.2, window=0.5, n_traj=2, dt=2e-3
    )
    assert not est_anon.certified
    assert "random" in est_anon.certified_reason
