"""Deterministic master-equation oracles for verifying stochastic estimates.

The master equation  d rho/dt = G rho + rho G* + sum_k L_k rho L_k*  and its
adjoint  d A/dt = A G + G* A + sum_k L_k* A L_k  are solved on the full
density-matrix space by one route: the action of the exponential of the
sparse vectorized generator (column stacking, vec(AXB) = kron(B.T, A) vec(X))
on the vectorized initial datum, evaluated at every save time at once by the
truncated-Taylor method of Al-Mohy and Higham (SIAM J. Sci. Comput. 33, 2011)
that scipy ships as ``expm_multiply``.  No dense dim^2 x dim^2 matrix is built
except by ``spectral_gap``, which densifies at dim <= GAP_DIM_LIMIT.

Also here: the iterated construction of the minimal adjoint semigroup,

    T(n+1)_t(A) = e^{G* t} A e^{G t}
                  + sum_k int_0^t e^{G*(t-s)} L_k* T(n)_s(A) L_k e^{G(t-s)} ds,

evaluated on a fixed node grid with an order-4 composite rule (Simpson,
with a 3/8 tail at odd nodes) kept as one running sum per level, and the
duality / semigroup-property checks built from the two solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .hilbert import DensityMatrix, ModelSpec, Op, heisenberg_apply, lindbladian_apply
from .linalg import dagger, hermiticity_residual, operator_norm, trace_norm, vec
from .sde import TimeGrid

GAP_DIM_LIMIT = 32
MIN_QUAD_POINTS = 33


class StepInstabilityError(RuntimeError):
    """Propagation produced a state outside its validity envelope."""

    def __init__(self, message: str, time: float):
        self.time = time
        super().__init__(f"{message} at t={time:.6g}")


class PicardDivergenceError(RuntimeError):
    """Iterate distances grew twice in a row: quadrature cannot be trusted."""


@dataclass(frozen=True)
class PropagatedFamily:
    """Operators saved along a time grid (densities or observables)."""

    times: np.ndarray
    values: np.ndarray  # (n_save, dim, dim)

    def at_time(self, t: float) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9:
            raise KeyError(f"t={t} is not a save time")
        return self.values[idx]


@dataclass(frozen=True)
class SemigroupReport:
    residual_onenorm: float
    contraction_excess: float


def vectorize_lindbladian(model: ModelSpec):
    """Master-equation generator as a sparse dim^2 x dim^2 CSR matrix."""
    # scipy.sparse is imported here, not at module load: runs without an
    # oracle task then never pay for it in start-up time
    import scipy.sparse as sp

    eye = sp.eye_array(model.dim, format="csr")
    s = sp.kron(eye, model.G, format="csr") + sp.kron(model.G.conj(), eye, format="csr")
    for l in model.L:
        s = s + sp.kron(l.conj(), l, format="csr")
    return s


def vectorize_heisenberg(model: ModelSpec):
    """Adjoint (observable-side) generator as a sparse CSR matrix: the
    conjugate transpose of the master-equation generator's, since
    tr(A* L(X)) = tr(L*(A)* X)."""
    return vectorize_lindbladian(model).conj().T.tocsr()


def _propagate_family(gen, start: np.ndarray, grid: TimeGrid, apply_gen, check):
    """Shared solve: exp(t S) vec(start) at every save time, then the checks.

    The operator-form generator ``apply_gen`` is applied once, to the initial
    datum, to confirm that the sparse generator S (``gen``) shares its
    column-stacking convention.
    """
    # imported here, not at module load: see vectorize_lindbladian
    from scipy.sparse.linalg import expm_multiply

    d = start.shape[0]
    n_save = grid.n_save
    check(start, 0.0)
    v = vec(start)
    mismatch = float(np.max(np.abs(gen @ v - vec(apply_gen(start)))))
    if mismatch > 1e-10 * float(np.max(abs(gen) @ np.abs(v))):
        raise RuntimeError(f"sparse generator disagrees with the operator form by {mismatch:.3e}")
    # expm_multiply's norm estimates draw from numpy's global RNG; a caller's
    # stream must not depend on whether an oracle ran in between
    rng_state = np.random.get_state()
    try:
        flat = expm_multiply(
            gen, v, start=0.0, stop=float(grid.save_times[-1]), num=n_save, endpoint=True
        )
    finally:
        np.random.set_state(rng_state)
    # row i of flat is vec(X_i); unvec is the Fortran-order reshape
    out = np.ascontiguousarray(flat.reshape(n_save, d, d).transpose(0, 2, 1))
    out[0] = start  # the saved datum is the datum itself, signed zeros included
    for i in range(1, n_save):
        check(out[i], grid.save_times[i])
    out.setflags(write=False)
    return PropagatedFamily(times=grid.save_times, values=out)


def solve_master(model: ModelSpec, rho0, grid: TimeGrid) -> PropagatedFamily:
    """Density matrices rho_t at every save time of ``grid``.

    Raises StepInstabilityError if any saved state stops looking like a
    density matrix at the 1e-7 level (hermiticity, positivity, trace drift).
    """
    rho = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    tr0 = float(rho.trace().real)

    def check(m, t):
        if not np.all(np.isfinite(m.view(float))):
            raise StepInstabilityError("non-finite density matrix", t)
        if hermiticity_residual(m) > 1e-7:
            raise StepInstabilityError("density matrix lost hermiticity beyond 1e-7", t)
        if abs(float(m.trace().real) - tr0) > 1e-7:
            raise StepInstabilityError("density matrix trace drifted beyond 1e-7", t)
        lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        if lo < -1e-7:
            raise StepInstabilityError(f"density matrix min eigenvalue {lo:.3e}", t)

    return _propagate_family(
        vectorize_lindbladian(model), rho, grid, lambda m: lindbladian_apply(model, m), check
    )


def solve_heisenberg(model: ModelSpec, a_obs, grid: TimeGrid) -> PropagatedFamily:
    """Heisenberg evolutes T_t(A) at every save time of ``grid``.

    Verifies the norm contraction |T_t(A)| <= |A| + 1e-7 at each save.
    """
    a = a_obs.matrix if isinstance(a_obs, Op) else np.asarray(a_obs, dtype=complex)
    a_norm = operator_norm(a)

    def check(m, t):
        if not np.all(np.isfinite(m.view(float))):
            raise StepInstabilityError("non-finite observable", t)
        if operator_norm(m) > a_norm + 1e-7:
            raise StepInstabilityError("Heisenberg contraction violated beyond 1e-7", t)

    return _propagate_family(
        vectorize_heisenberg(model), a, grid, lambda m: heisenberg_apply(model, m), check
    )


def duality_sides(fam_rho: PropagatedFamily, fam_obs: PropagatedFamily) -> tuple:
    """tr(A rho_t) and tr(T_t(A) rho_0) at every save time, where rho_0 and A
    are the initial data of the master and Heisenberg families."""
    a, rho = fam_obs.values[0], fam_rho.values[0]
    return np.einsum("ij,tji->t", a, fam_rho.values), np.einsum("tij,ji->t", fam_obs.values, rho)


def duality_check(model: ModelSpec, a_obs, rho0, grid: TimeGrid) -> float:
    """max_t |tr(A rho_t) - tr(T_t(A) rho_0)| over the grid's save times."""
    a = a_obs.matrix if isinstance(a_obs, Op) else np.asarray(a_obs, dtype=complex)
    rho = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    lhs, rhs = duality_sides(solve_master(model, rho, grid), solve_heisenberg(model, a, grid))
    return float(np.max(np.abs(lhs - rhs)))


def semigroup_check(model: ModelSpec, rho0, t: float, s: float) -> SemigroupReport:
    """Trace-norm gap between rho_{t+s}(x) and rho_t(rho_s(x)), plus the
    worst excess of |rho_u(x)|_1 over |x|_1 across u in {s, t+s}."""
    if t < 0 or s < 0:
        raise ValueError("t and s must be nonnegative")
    rho = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    base_onenorm = trace_norm(rho)

    def flow(x, u):
        if u == 0:
            return x
        return solve_master(model, x, TimeGrid(u, dt=u, save_every=1)).values[-1]

    rho_s = flow(rho, s)
    rho_ts_direct = flow(rho, t + s)
    rho_ts_composed = flow(rho_s, t)
    residual = trace_norm(rho_ts_direct - rho_ts_composed)
    excess = max(
        trace_norm(rho_s) - base_onenorm,
        trace_norm(rho_ts_direct) - base_onenorm,
        0.0,
    )
    return SemigroupReport(residual_onenorm=residual, contraction_excess=excess)


def minimal_semigroup_picard(
    model: ModelSpec, a_obs, t: float, n_iters: int = 8, quad_points: int = 129
) -> list[np.ndarray]:
    """Iterates T(0)_t(A) .. T(n_iters)_t(A) of the minimal-semigroup scheme.

    The recursion starts from T(-1) = 0, so T(0)_t(A) = e^{G* t} A e^{G t};
    each level re-evaluates the defining integral at every node j h by an
    order-4 rule: composite Simpson at even j, Simpson then the 3/8 rule on
    the last three intervals at odd j >= 3, and the left-edge rule
    h (5 f0 + 8 f1 - f2) / 12 at j = 1.  With c_k(X) = e^{G* k h} X e^{G k h}
    and e^{G(a+b)} = e^{Ga} e^{Gb}, the integral at node j is c_2 (or c_3)
    of a running sum two (or three) nodes back plus the last panel, so one
    level costs O(q) products rather than O(q^2).
    Raises PicardDivergenceError when successive iterate distances grow twice
    in a row (the signature of an unresolved quadrature).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if quad_points < MIN_QUAD_POINTS:
        raise ValueError(f"quad_points must be >= {MIN_QUAD_POINTS}")
    q = int(quad_points)
    if q % 2 == 0:
        q += 1
    a = a_obs.matrix if isinstance(a_obs, Op) else np.asarray(a_obs, dtype=complex)
    d = model.dim
    h = t / (q - 1)
    g = model.G
    # Level 0 at all nodes, one expm per node.
    base = np.empty((q, d, d), dtype=complex)
    for j in range(q):
        e = expm(g * (j * h))
        base[j] = dagger(e) @ a @ e
    steps = {k: expm(g * (k * h)) for k in (-1, 1, 2, 3)}

    def c(k, x):
        return dagger(steps[k]) @ x @ steps[k]

    l_stack = np.stack(model.L) if model.L else np.zeros((0, d, d), dtype=complex)
    l_dag = l_stack.conj().transpose(0, 2, 1)
    iterates = [base[q - 1].copy()]
    current = base
    prev_dist = None
    grew = 0
    for _ in range(n_iters):
        f = np.zeros((q, d, d), dtype=complex)
        for k in range(l_stack.shape[0]):
            f += np.matmul(l_dag[k], np.matmul(current, l_stack[k]))
        nxt = base.copy()
        nxt[1] += (h / 12.0) * (5.0 * c(1, f[0]) + 8.0 * f[1] - c(-1, f[2]))
        # s is the Simpson integral at node j - 2; nodes j + 1 and j both
        # extend it, by a 3/8 tail and by one more Simpson panel
        s = np.zeros((d, d), dtype=complex)
        for j in range(2, q, 2):
            if j + 1 < q:
                nxt[j + 1] += (
                    c(3, s + (3.0 * h / 8.0) * f[j - 2])
                    + (9.0 * h / 8.0) * (c(2, f[j - 1]) + c(1, f[j]))
                    + (3.0 * h / 8.0) * f[j + 1]
                )
            s = (
                c(2, s + (h / 3.0) * f[j - 2])
                + (4.0 * h / 3.0) * c(1, f[j - 1])
                + (h / 3.0) * f[j]
            )
            nxt[j] += s
        dist = operator_norm(nxt[q - 1] - current[q - 1])
        if prev_dist is not None and dist > prev_dist:
            grew += 1
            if grew >= 2:
                raise PicardDivergenceError(
                    f"iterate distances grew twice in a row ({prev_dist:.3e} -> {dist:.3e})"
                )
        else:
            grew = 0
        prev_dist = dist
        current = nxt
        iterates.append(current[q - 1].copy())
    return iterates


def spectral_gap(model: ModelSpec, tol: float = 1e-10) -> float:
    """Slowest nonzero relaxation rate of the vectorized generator.

    A dense eigensolve, so only attempted at dim <= GAP_DIM_LIMIT.
    """
    if model.dim > GAP_DIM_LIMIT:
        raise ValueError(f"spectral gap needs dim <= {GAP_DIM_LIMIT}")
    lam = np.linalg.eigvals(vectorize_lindbladian(model).toarray())
    decaying = -lam.real[lam.real < -tol]
    if decaying.size == 0:
        raise ValueError("generator has no decaying modes; no spectral gap")
    return float(decaying.min())
