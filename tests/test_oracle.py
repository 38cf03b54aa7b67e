"""Deterministic solvers: vectorization, duality, semigroup, iteration."""

import numpy as np
import pytest
from scipy.linalg import expm

import qtraj.oracle as oracle_mod
from qtraj.hilbert import (
    DensityMatrix,
    FockSpace,
    ModelSpec,
    Op,
    build_fock_ops,
    build_kerr_oscillator,
    build_thermal_oscillator,
    coherent_state,
    fock_state,
    heisenberg_apply,
    lindbladian_apply,
    random_model,
    thermal_state,
)
from qtraj.linalg import operator_norm, trace_norm, unvec, vec
from qtraj.oracle import (
    PicardDivergenceError,
    StepInstabilityError,
    duality_check,
    minimal_semigroup_picard,
    semigroup_check,
    solve_heisenberg,
    solve_master,
    spectral_gap,
    vectorize_heisenberg,
    vectorize_lindbladian,
)
from qtraj.sde import TimeGrid


def test_vectorizers_match_direct_application():
    model = random_model(7, n_lindblads=2, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(4):
        m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        lhs = unvec(vectorize_lindbladian(model) @ vec(m), 7)
        np.testing.assert_allclose(lhs, lindbladian_apply(model, m), atol=1e-12)
        rhs = unvec(vectorize_heisenberg(model) @ vec(m), 7)
        np.testing.assert_allclose(rhs, heisenberg_apply(model, m), atol=1e-12)


def test_heisenberg_vectorizer_is_adjoint():
    # <A, L(rho)> = <L*(A), rho> in the Hilbert-Schmidt pairing means the two
    # superoperator matrices are conjugate transposes of one another
    model = random_model(6, n_lindblads=3, seed=2)
    s_master = vectorize_lindbladian(model).toarray()
    s_heis = vectorize_heisenberg(model).toarray()
    np.testing.assert_allclose(s_heis, s_master.conj().T, atol=1e-13)


def test_closed_model_master_solution_is_unitary():
    # no channels: rho_t = e^{-iHt} rho e^{iHt}, eigenvalues frozen
    space = FockSpace(6)
    ops = build_fock_ops(space)
    h = ops.n.matrix + 0.3 * ops.q.matrix
    model = ModelSpec(space, hamiltonian=Op(h, "H"), lindblads=())
    rho0 = thermal_state(space, 0.8).matrix
    grid = TimeGrid(t_end=0.7, dt=1e-3, save_every=100)
    fam = solve_master(model, rho0, grid)
    u = expm(-1j * h * 0.7)
    np.testing.assert_allclose(fam.at_time(0.7), u @ rho0 @ u.conj().T, atol=1e-9)


def test_thermal_occupation_matches_closed_form():
    # vacuum start: tr(N rho_t) = nu (1 - e^{-rate t})
    rate, nu = 1.0, 0.5
    model = build_thermal_oscillator(FockSpace(30), rate=rate, nu=nu)
    rho0 = DensityMatrix.from_pure(fock_state(model.space, 0)).matrix
    grid = TimeGrid(t_end=2.0, dt=1e-2, save_every=20)
    fam = solve_master(model, rho0, grid)
    n_op = build_fock_ops(model.space).n.matrix
    got = np.einsum("ij,tji->t", n_op, fam.values).real
    want = nu * (1.0 - np.exp(-rate * fam.times))
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_heisenberg_preserves_identity():
    model = build_thermal_oscillator(FockSpace(12), rate=0.8, nu=0.4)
    grid = TimeGrid(t_end=1.0, dt=1e-2, save_every=25)
    fam = solve_heisenberg(model, np.eye(12, dtype=complex), grid)
    for m in fam.values:
        assert np.max(np.abs(m - np.eye(12))) < 1e-10


def test_heisenberg_contraction():
    model = random_model(8, n_lindblads=2, seed=4)
    a = build_fock_ops(model.space).q.matrix
    grid = TimeGrid(t_end=1.0, dt=1e-2, save_every=20)
    fam = solve_heisenberg(model, a, grid)
    a_norm = operator_norm(a)
    assert all(operator_norm(m) <= a_norm + 1e-9 for m in fam.values)


def test_duality_over_random_models():
    for seed in (0, 1, 2):
        model = random_model(6, n_lindblads=2, seed=seed)
        a = build_fock_ops(model.space).n.matrix
        rho0 = thermal_state(model.space, 0.5).matrix
        grid = TimeGrid(t_end=0.5, dt=1e-2, save_every=10)
        assert duality_check(model, a, rho0, grid) < 1e-10


def test_generator_convention_guard(monkeypatch):
    # a generator built under another stacking convention must not be
    # exponentiated silently
    model = random_model(6, n_lindblads=2, seed=1)
    transposed = vectorize_lindbladian(model).T.tocsr()
    monkeypatch.setattr(oracle_mod, "vectorize_lindbladian", lambda m: transposed)
    grid = TimeGrid(t_end=0.1, dt=1e-2, save_every=10)
    with pytest.raises(RuntimeError, match="operator form"):
        solve_master(model, thermal_state(model.space, 0.5).matrix, grid)


def _dense_flow(superop, start, grid):
    """Reference family: powers of the dense exponential over one save interval."""
    e_step = expm(superop.toarray() * (grid.save_every * grid.dt))
    v = vec(start)
    out = [start]
    for _ in range(1, grid.n_save):
        v = e_step @ v
        out.append(unvec(v, start.shape[0]))
    return np.array(out)


def test_sparse_action_matches_dense_exponential():
    model = build_thermal_oscillator(FockSpace(12), rate=1.0, nu=0.5)
    rho0 = thermal_state(model.space, 0.2).matrix
    grid = TimeGrid(t_end=0.5, dt=1e-2, save_every=10)
    exact = _dense_flow(vectorize_lindbladian(model), rho0, grid)
    assert np.max(np.abs(solve_master(model, rho0, grid).values - exact)) < 1e-8
    a = build_fock_ops(model.space).n.matrix
    exact_h = _dense_flow(vectorize_heisenberg(model), a, grid)
    assert np.max(np.abs(solve_heisenberg(model, a, grid).values - exact_h)) < 1e-8


def test_stiff_kerr_past_dense_limit():
    # the acceptance-04 Kerr coefficients at d=40: 2|G| + sum |L_k|^2 is ~5e4
    model = build_kerr_oscillator(
        FockSpace(40),
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
    )
    rho0 = DensityMatrix.from_pure(coherent_state(model.space, 0.5)).matrix
    grid = TimeGrid(t_end=0.05, dt=0.01, save_every=1)
    fam = solve_master(model, rho0, grid)  # raises if a density check fails
    assert fam.values.shape == (6, 40, 40)
    n_op = build_fock_ops(model.space).n.matrix
    assert duality_check(model, n_op, rho0, grid) < 1e-10


def test_oracle_ignores_numpy_global_rng():
    # past |t(A - mu I)|_1 ~ 63 the exponential action estimates norms of
    # powers with a randomized onenormest; thermal d=30 over t=1 has 84
    model = build_thermal_oscillator(FockSpace(30), rate=1.0, nu=0.5)
    rho0 = DensityMatrix.from_pure(fock_state(model.space, 1)).matrix
    grid = TimeGrid(t_end=1.0, dt=1e-3, save_every=1)
    saved = np.random.get_state()
    try:
        np.random.seed(0)
        first = solve_master(model, rho0, grid).values
        np.random.seed(1)
        second = solve_master(model, rho0, grid).values
    finally:
        np.random.set_state(saved)
    assert np.array_equal(first, second)


def test_at_time_rejects_off_grid():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.1)
    grid = TimeGrid(t_end=0.2, dt=1e-2, save_every=10)
    fam = solve_master(model, thermal_state(model.space, 0.1).matrix, grid)
    with pytest.raises(KeyError):
        fam.at_time(0.15)


def test_instability_detection_on_forged_model():
    # a "model" whose drift is not GKSL leaks trace; the solver must notice
    space = FockSpace(6)
    n_op = build_fock_ops(space).n
    bad = ModelSpec(
        space,
        hamiltonian=Op(np.zeros((6, 6), dtype=complex), "0"),
        lindblads=(),
        drift=Op(0.5 * n_op.matrix, "G"),  # positive drift: trace grows
    )
    rho0 = thermal_state(space, 0.5).matrix
    with pytest.raises(StepInstabilityError):
        solve_master(bad, rho0, TimeGrid(t_end=1.0, dt=1e-2, save_every=10))


def test_semigroup_property():
    for seed in (3, 4):
        model = random_model(7, n_lindblads=2, seed=seed)
        rho0 = thermal_state(model.space, 0.4).matrix
        rep = semigroup_check(model, rho0, t=0.3, s=0.3)
        assert rep.residual_onenorm < 1e-10
        assert rep.contraction_excess < 1e-10
    with pytest.raises(ValueError):
        semigroup_check(model, rho0, t=-0.1, s=0.2)


def test_picard_closed_model_is_exact_at_level_zero():
    # no channels: T_t(A) = e^{G* t} A e^{G t} with G = -iH, and every later
    # iterate adds nothing
    space = FockSpace(8)
    ops = build_fock_ops(space)
    model = ModelSpec(space, hamiltonian=Op(ops.n.matrix, "N"), lindblads=())
    a = ops.q.matrix
    iterates = minimal_semigroup_picard(model, a, t=0.5, n_iters=3, quad_points=33)
    grid = TimeGrid(t_end=0.5, dt=1e-3, save_every=500)
    want = solve_heisenberg(model, a, grid).at_time(0.5)
    for it in iterates:
        assert operator_norm(it - want) < 1e-9


def test_picard_converges_on_weak_damping():
    model = build_thermal_oscillator(FockSpace(8), rate=0.2, nu=0.1)
    n_op = build_fock_ops(model.space).n.matrix
    iterates = minimal_semigroup_picard(model, n_op, t=0.5, n_iters=8, quad_points=129)
    grid = TimeGrid(t_end=0.5, dt=1e-3, save_every=500)
    want = solve_heisenberg(model, n_op, grid).at_time(0.5)
    dists = [operator_norm(it - want) for it in iterates]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-6


def test_picard_guard_fires_on_unresolved_horizon():
    # strong damping at the same horizon: the iteration's transient growth
    # outruns the quadrature and the divergence guard must raise
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.5)
    n_op = build_fock_ops(model.space).n.matrix
    with pytest.raises(PicardDivergenceError):
        minimal_semigroup_picard(model, n_op, t=0.5, n_iters=24, quad_points=129)


def test_picard_argument_validation():
    model = build_thermal_oscillator(FockSpace(8), rate=0.2, nu=0.1)
    n_op = build_fock_ops(model.space).n.matrix
    with pytest.raises(ValueError):
        minimal_semigroup_picard(model, n_op, t=0.0)
    with pytest.raises(ValueError):
        minimal_semigroup_picard(model, n_op, t=0.5, n_iters=0)
    with pytest.raises(ValueError):
        minimal_semigroup_picard(model, n_op, t=0.5, quad_points=9)


def test_spectral_gap_of_thermal_model():
    # the slowest mode of the damped oscillator relaxes at rate/2
    model = build_thermal_oscillator(FockSpace(16), rate=1.0, nu=0.5)
    assert abs(spectral_gap(model) - 0.5) < 0.01
    big = build_thermal_oscillator(FockSpace(40), rate=1.0, nu=0.5)
    with pytest.raises(ValueError):
        spectral_gap(big)
