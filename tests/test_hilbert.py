"""Fock operators, states, model builders, and GKSL structure checks."""

import numpy as np
import pytest

from qtraj.hilbert import (
    DensityMatrix,
    FockSpace,
    ModelSpec,
    Op,
    build_fock_ops,
    build_kerr_oscillator,
    build_monitored_oscillator,
    build_thermal_oscillator,
    coherent_state,
    drift_from_parts,
    fock_state,
    gksl_consistency_check,
    heisenberg_apply,
    lindbladian_apply,
    random_model,
    thermal_state,
)
from qtraj.linalg import dagger, trace_norm


def test_fock_space_validation():
    with pytest.raises(ValueError):
        FockSpace(1)
    with pytest.raises(ValueError):
        FockSpace(2.5)
    assert FockSpace(2).dim == 2


def test_ladder_matrix_elements():
    ops = build_fock_ops(FockSpace(5))
    a = ops.a.matrix
    # a e_n = sqrt(n) e_{n-1}
    for n in range(1, 5):
        e = fock_state(FockSpace(5), n)
        np.testing.assert_allclose(a @ e, np.sqrt(n) * fock_state(FockSpace(5), n - 1), atol=1e-15)
    np.testing.assert_allclose(a @ fock_state(FockSpace(5), 0), 0.0, atol=0)
    np.testing.assert_array_equal(ops.adag.matrix, a.conj().T)
    np.testing.assert_allclose(ops.n.matrix, np.diag(np.arange(5.0)), atol=1e-15)


def test_quadrature_commutator_in_interior():
    # [Q, P] = i on indices untouched by the truncation edge
    d = 12
    ops = build_fock_ops(FockSpace(d))
    comm = ops.q.matrix @ ops.p.matrix - ops.p.matrix @ ops.q.matrix
    np.testing.assert_allclose(comm[: d - 1, : d - 1], 1j * np.eye(d - 1), atol=1e-13)


def test_fock_state_bounds():
    with pytest.raises(ValueError):
        fock_state(FockSpace(4), 4)
    with pytest.raises(ValueError):
        fock_state(FockSpace(4), -1)


def test_coherent_state_occupations():
    # truncated coherent state: Poisson weights, mean occupation ~ |amp|^2
    space = FockSpace(40)
    v = coherent_state(space, 1.2 + 0.8j)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-14
    n_op = build_fock_ops(space).n.matrix
    mean_n = float(np.vdot(v, n_op @ v).real)
    assert abs(mean_n - (1.2**2 + 0.8**2)) < 1e-8
    np.testing.assert_array_equal(coherent_state(space, 0), fock_state(space, 0))


def test_density_matrix_validation():
    good = np.diag([0.6, 0.4]).astype(complex)
    DensityMatrix(good)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="positive"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex))
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.zeros((2, 3), dtype=complex))
    dm = DensityMatrix(good)
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 0.9  # frozen


def test_density_matrix_from_pure():
    v = coherent_state(FockSpace(10), 0.5)
    dm = DensityMatrix.from_pure(v)
    assert abs(dm.trace - 1.0) < 1e-14
    np.testing.assert_allclose(dm.matrix, np.outer(v, v.conj()), atol=1e-15)


def test_thermal_state_geometric_weights():
    space = FockSpace(6)
    dm = thermal_state(space, 0.5)
    w = np.diag(dm.matrix).real
    # successive ratio nu/(nu+1), renormalized on the truncated basis
    np.testing.assert_allclose(w[1:] / w[:-1], 0.5 / 1.5, atol=1e-14)
    assert abs(w.sum() - 1.0) < 1e-14
    np.testing.assert_array_equal(
        thermal_state(space, 0.0).matrix, DensityMatrix.from_pure(fock_state(space, 0)).matrix
    )


def test_drift_trace_identity_holds_at_rounding_level():
    # G built from parts: 2 Re<x,Gx> + sum|L_k x|^2 cancels at rounding level,
    # and bitwise when there is a single channel (the halves sum back exactly)
    model = build_thermal_oscillator(FockSpace(20), rate=1.0, nu=0.5)
    r = model.G + dagger(model.G)
    for l in model.L:
        r = r + dagger(l) @ l
    assert np.max(np.abs(r)) < 1e-13
    single = build_thermal_oscillator(FockSpace(20), rate=1.0, nu=0.0)
    r1 = single.G + dagger(single.G) + dagger(single.L[0]) @ single.L[0]
    assert np.max(np.abs(r1)) == 0.0


def test_gksl_consistency_check_flags_bad_drift():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.2)
    rep = gksl_consistency_check(model)
    assert rep.drift_residual == 0.0
    assert rep.trace_residual < 1e-13
    assert rep.hermiticity_residual <= 1e-15
    bad = ModelSpec(
        model.space,
        hamiltonian=model.hamiltonian,
        lindblads=model.lindblads,
        drift=Op(model.G + 1e-3 * np.eye(model.dim), "G"),
        interior_cutoff=model.interior_cutoff,
    )
    rep_bad = gksl_consistency_check(bad)
    assert rep_bad.drift_residual > 5e-4
    with pytest.raises(ValueError, match="GKSL"):
        bad.validate()


def test_heisenberg_is_adjoint_of_lindbladian():
    # tr(A L(rho)) = tr(L*(A) rho) for random A, rho
    model = random_model(10, n_lindblads=3, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        rho = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        lhs = np.trace(a @ lindbladian_apply(model, rho))
        rhs = np.trace(heisenberg_apply(model, a) @ rho)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_heisenberg_apply_wraps_ops():
    model = random_model(6, seed=1)
    n_op = build_fock_ops(model.space).n
    out = heisenberg_apply(model, n_op)
    assert isinstance(out, Op)
    np.testing.assert_array_equal(out.matrix, heisenberg_apply(model, n_op.matrix))


def test_kerr_builder_drops_zero_channels():
    model = build_kerr_oscillator(FockSpace(8), beta2=1.0, alpha1=0.3, alpha4=0.2)
    assert model.n_channels == 2
    labels = [l.label for l in model.lindblads]
    assert labels == ["alpha1*a", "alpha4*a^2"]
    assert model.interior_cutoff == 3
    assert model.meta["builder"] == "kerr"
    with pytest.raises(ValueError):
        build_kerr_oscillator(FockSpace(8), beta1=1.0 + 2.0j)
    with pytest.raises(ValueError):
        build_kerr_oscillator(FockSpace(7))
    with pytest.raises(ValueError):
        build_kerr_oscillator(FockSpace(8), p=0)


def test_kerr_reference_power():
    model = build_kerr_oscillator(FockSpace(8), alpha1=1.0, p=3)
    np.testing.assert_allclose(model.C, np.diag(np.arange(8.0) ** 3), atol=1e-12)


def test_thermal_builder_channels():
    model = build_thermal_oscillator(FockSpace(10), rate=2.0, nu=0.25)
    assert model.n_channels == 2
    ops = build_fock_ops(model.space)
    np.testing.assert_allclose(model.L[0], np.sqrt(2.0 * 1.25) * ops.a.matrix, atol=1e-14)
    np.testing.assert_allclose(model.L[1], np.sqrt(2.0 * 0.25) * ops.adag.matrix, atol=1e-14)
    assert model.meta["rate"] == 2.0 and model.meta["nu"] == 0.25
    # nu = 0: pure damping, single channel
    assert build_thermal_oscillator(FockSpace(10), rate=1.0, nu=0.0).n_channels == 1
    with pytest.raises(ValueError):
        build_thermal_oscillator(FockSpace(10), rate=0.0, nu=0.5)
    with pytest.raises(ValueError):
        build_thermal_oscillator(FockSpace(10), rate=1.0, nu=-0.1)


def test_truncated_thermal_state_is_exactly_stationary():
    # detailed balance of the geometric weights survives truncation: the
    # renormalized thermal state is a true fixed point, not an approximate one
    for dim, rate, nu in ((8, 1.0, 0.5), (30, 0.7, 1.2)):
        model = build_thermal_oscillator(FockSpace(dim), rate=rate, nu=nu)
        rho = thermal_state(model.space, nu).matrix
        assert trace_norm(lindbladian_apply(model, rho)) <= 1e-8


def test_maximally_mixed_is_not_stationary():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.5)
    rho = np.eye(8, dtype=complex) / 8.0
    assert trace_norm(lindbladian_apply(model, rho)) > 0.1


def test_monitored_builder():
    model = build_monitored_oscillator(FockSpace(12), mass=1.0, c=0.5, alpha=0.3, beta=0.2)
    assert model.n_channels == 2
    assert model.interior_cutoff == 8
    ops = build_fock_ops(model.space)
    np.testing.assert_allclose(
        model.H, ops.p.matrix @ ops.p.matrix / 2.0 + 0.5 * ops.q.matrix @ ops.q.matrix, atol=1e-14
    )
    np.testing.assert_allclose(
        model.C, ops.p.matrix @ ops.p.matrix + ops.q.matrix @ ops.q.matrix, atol=1e-14
    )
    # zero couplings drop channels
    assert build_monitored_oscillator(FockSpace(8), mass=1.0, c=0.5, beta=0.1).n_channels == 1
    with pytest.raises(ValueError):
        build_monitored_oscillator(FockSpace(8), mass=0.0, c=0.5)
    with pytest.raises(ValueError):
        build_monitored_oscillator(FockSpace(6), mass=1.0, c=0.5)


def test_random_model_is_valid_and_seeded():
    m1 = random_model(9, n_lindblads=2, seed=3)
    m2 = random_model(9, n_lindblads=2, seed=3)
    np.testing.assert_array_equal(m1.H, m2.H)
    np.testing.assert_array_equal(m1.L[0], m2.L[0])
    assert not np.array_equal(m1.H, random_model(9, seed=4).H)
    rep = gksl_consistency_check(m1)
    assert rep.drift_residual == 0.0 and rep.hermiticity_residual == 0.0
    assert rep.trace_residual < 1e-14


def test_model_spec_dimension_mismatch():
    space = FockSpace(4)
    with pytest.raises(ValueError, match="dim"):
        ModelSpec(space, hamiltonian=Op(np.eye(5, dtype=complex), "H"), lindblads=())


def test_op_bands_layout():
    model = build_thermal_oscillator(FockSpace(8), rate=1.0, nu=0.3)
    offsets, bands = model.op_bands()
    assert list(offsets) == [-1, 0, 1]
    assert bands.shape == (3, 3, 8)
    # bands[j, k, i] is entry (i, i + offsets[j]) of [G, L_1, L_2][k]
    stack = np.zeros((3, 8, 8), dtype=complex)
    for j, o in enumerate(offsets):
        for i in range(max(0, -o), min(8, 8 - o)):
            stack[:, i, i + o] = bands[j, :, i]
    np.testing.assert_array_equal(stack[0], model.G)
    np.testing.assert_array_equal(stack[1], model.L[0])
    np.testing.assert_array_equal(stack[2], model.L[1])
    assert model.op_bands()[1] is bands  # cached
