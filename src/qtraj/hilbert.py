"""Truncated Fock spaces, open-system model specifications, and generators.

A model is the data (H, {L_k}) of a quantum master equation in GKSL form on
a finite Fock basis, together with the derived drift

    G = -i H - (1/2) sum_k L_k* L_k,

a nonnegative reference operator C used by regularity and dissipativity
diagnostics, and an interior cutoff: the largest basis index whose matrix
elements are unaffected by the truncation edge.  Everything is dense; desk
scale here is dim <= a few hundred.

The builders construct G from the parts, which makes the trace identity

    2 Re<x, G x> + sum_k |L_k x|^2 = 0

hold at rounding level for every state, not only far from the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    dagger,
    hermiticity_residual,
    min_eig_hermitian,
    operator_norm,
)

HERMITICITY_TOL = 1e-12
DRIFT_TOL = 1e-12
TRACE_COND_TOL = 1e-10
C_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class FockSpace:
    """Truncated bosonic Fock space with basis e_0 .. e_{dim-1}."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"FockSpace dim must be an integer >= 2, got {self.dim!r}")


@dataclass(frozen=True)
class Op:
    """A labelled operator matrix on a truncated Fock space."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"Op matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class FockOps(NamedTuple):
    a: Op
    adag: Op
    n: Op
    q: Op
    p: Op


def build_fock_ops(space: FockSpace) -> FockOps:
    """Ladder, number, and quadrature operators on the truncated basis.

    a e_n = sqrt(n) e_{n-1}, adag e_n = sqrt(n+1) e_{n+1} (dropped at the
    edge), n = adag a, q = (adag + a)/sqrt(2), p = i (adag - a)/sqrt(2).
    """
    d = space.dim
    root = np.sqrt(np.arange(1.0, d))
    a = np.zeros((d, d), dtype=complex)
    a[np.arange(d - 1), np.arange(1, d)] = root
    adag = a.conj().T
    n = adag @ a
    q = (adag + a) / np.sqrt(2.0)
    p = 1j * (adag - a) / np.sqrt(2.0)
    return FockOps(
        a=Op(a, "a"),
        adag=Op(adag, "adag"),
        n=Op(n, "n"),
        q=Op(q, "q"),
        p=Op(p, "p"),
    )


def fock_state(space: FockSpace, index: int) -> np.ndarray:
    """Basis vector e_index as a complex array."""
    if not 0 <= index < space.dim:
        raise ValueError(f"basis index {index} outside [0, {space.dim})")
    v = np.zeros(space.dim, dtype=complex)
    v[index] = 1.0
    return v


def coherent_state(space: FockSpace, amplitude: complex) -> np.ndarray:
    """Normalized truncation of the coherent state with the given amplitude."""
    if amplitude == 0:
        return fock_state(space, 0)
    k = np.arange(space.dim)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1.0, space.dim))]))
    v = np.exp(k * np.log(complex(amplitude)) - 0.5 * log_fact)
    return v / np.linalg.norm(v)


class DensityMatrix:
    """A validated density matrix: Hermitian, positive semidefinite, unit trace.

    Tolerances are arguments so that numerically propagated states (which are
    exact only up to integrator error) can be admitted with a looser band.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        expected_trace: float = 1.0,
        hermiticity_tol: float = 1e-10,
        eig_floor: float = -1e-8,
        trace_tol: float = 1e-8,
    ):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        herm = hermiticity_residual(m)
        if herm > hermiticity_tol:
            raise ValueError(f"density matrix not Hermitian: residual {herm:.3e}")
        lo = min_eig_hermitian(m)
        if lo < eig_floor:
            raise ValueError(f"density matrix not positive: min eigenvalue {lo:.3e}")
        tr = m.trace()
        if abs(tr - expected_trace) > trace_tol:
            raise ValueError(f"trace {tr:.12g} differs from expected {expected_trace:.12g}")
        m = m.copy()
        m.setflags(write=False)
        self.matrix = m
        self.expected_trace = float(expected_trace)

    @classmethod
    def from_pure(cls, vec: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex)
        return cls(np.outer(v, v.conj()), expected_trace=float(np.vdot(v, v).real))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


def thermal_state(space: FockSpace, nu: float) -> DensityMatrix:
    """Geometric (thermal) diagonal state with mean occupation ``nu`` before
    truncation, normalized on the truncated basis."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if nu == 0:
        return DensityMatrix.from_pure(fock_state(space, 0))
    r = nu / (nu + 1.0)
    w = r ** np.arange(space.dim)
    w = w / w.sum()
    return DensityMatrix(np.diag(w.astype(complex)))


class ModelSpec:
    """An open-system model: Hamiltonian, jump operators, drift, reference.

    Builders guarantee the GKSL invariants (see ``validate``); a manually
    assembled instance can carry arbitrary matrices so that consistency
    checking has something to report on.
    """

    def __init__(
        self,
        space: FockSpace,
        hamiltonian: Op,
        lindblads: tuple[Op, ...],
        drift: Op | None = None,
        reference: Op | None = None,
        interior_cutoff: int | None = None,
        meta: dict | None = None,
    ):
        self.space = space
        self.hamiltonian = hamiltonian
        self.lindblads = tuple(lindblads)
        if drift is None:
            drift = Op(drift_from_parts(hamiltonian.matrix, [l.matrix for l in self.lindblads]), "G")
        self.drift = drift
        if reference is None:
            reference = build_fock_ops(space).n
        self.reference = reference
        if interior_cutoff is None:
            interior_cutoff = space.dim - 1
        self.interior_cutoff = int(interior_cutoff)
        self.meta = dict(meta or {})
        for op in (self.hamiltonian, *self.lindblads, self.drift, self.reference):
            if op.dim != space.dim:
                raise ValueError(f"operator {op.label!r} has dim {op.dim}, space has {space.dim}")
        if not 0 <= self.interior_cutoff < space.dim:
            raise ValueError(f"interior_cutoff {self.interior_cutoff} outside [0, {space.dim})")
        self._band_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def H(self) -> np.ndarray:
        return self.hamiltonian.matrix

    @property
    def G(self) -> np.ndarray:
        return self.drift.matrix

    @property
    def C(self) -> np.ndarray:
        return self.reference.matrix

    @property
    def L(self) -> tuple[np.ndarray, ...]:
        return tuple(l.matrix for l in self.lindblads)

    @property
    def n_channels(self) -> int:
        return len(self.lindblads)

    def op_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """The stack [G, L_1, .., L_K] as its nonzero diagonals. Cached.

        Returns (offsets, bands) with bands of shape (n_offsets, K+1, dim):
        bands[j, k, i] is entry (i, i + offsets[j]) of operator k, zero where
        that column is outside the basis, so that
        (A_k x)_i = sum_j bands[j, k, i] x_{i + offsets[j]}.  Offset 0 is
        always present; a dense operator has all 2 dim - 1.
        """
        if self._band_cache is None:
            stack = np.stack([self.G, *self.L])
            d = self.dim
            offsets = [
                o for o in range(1 - d, d) if o == 0 or np.any(np.diagonal(stack, o, 1, 2))
            ]
            bands = np.zeros((len(offsets), stack.shape[0], d), dtype=complex)
            for j, o in enumerate(offsets):
                rows = slice(0, d - o) if o >= 0 else slice(-o, d)
                bands[j, :, rows] = np.diagonal(stack, o, 1, 2)
            bands.setflags(write=False)
            self._band_cache = (np.array(offsets), bands)
        return self._band_cache

    def validate(self) -> None:
        """Raise if the GKSL structural invariants fail (builders call this)."""
        problems = []
        rep = gksl_consistency_check(self)
        if rep.hermiticity_residual > HERMITICITY_TOL:
            problems.append(f"H not Hermitian: {rep.hermiticity_residual:.3e}")
        if rep.drift_residual > DRIFT_TOL:
            problems.append(f"drift differs from -iH - (1/2) sum L*L: {rep.drift_residual:.3e}")
        if rep.trace_residual > TRACE_COND_TOL:
            problems.append(f"interior trace condition violated: {rep.trace_residual:.3e}")
        c = self.C
        c_herm = hermiticity_residual(c)
        if c_herm > HERMITICITY_TOL:
            problems.append(f"reference operator not Hermitian: {c_herm:.3e}")
        else:
            c_min = min_eig_hermitian(c)
            if c_min < C_EIG_FLOOR:
                problems.append(f"reference operator not nonnegative: min eig {c_min:.3e}")
        if problems:
            raise ValueError("model fails GKSL invariants: " + "; ".join(problems))


def drift_from_parts(h: np.ndarray, lindblads) -> np.ndarray:
    """G = -iH - (1/2) sum_k L_k* L_k."""
    g = -1j * h
    for l in lindblads:
        g = g - 0.5 * (dagger(l) @ l)
    return g


@dataclass(frozen=True)
class GKSLReport:
    drift_residual: float
    trace_residual: float
    hermiticity_residual: float


def gksl_consistency_check(model: ModelSpec) -> GKSLReport:
    """Measure how far a model is from exact GKSL structure.

    drift_residual: entrywise gap between G and its formula from (H, {L_k}).
    trace_residual: operator norm of (G + G* + sum L*L) on the interior
        block, i.e. the worst trace-condition violation over interior states.
    hermiticity_residual: entrywise |H - H*|.
    """
    g_ref = drift_from_parts(model.H, model.L)
    drift_res = float(np.max(np.abs(model.G - g_ref))) if model.G.size else 0.0
    r = model.G + dagger(model.G)
    for l in model.L:
        r = r + dagger(l) @ l
    c = model.interior_cutoff
    trace_res = operator_norm(r[: c + 1, : c + 1])
    return GKSLReport(
        drift_residual=drift_res,
        trace_residual=trace_res,
        hermiticity_residual=hermiticity_residual(model.H),
    )


def lindbladian_apply(model: ModelSpec, rho: np.ndarray) -> np.ndarray:
    """Master-equation generator: G rho + rho G* + sum_k L_k rho L_k*."""
    out = model.G @ rho + rho @ dagger(model.G)
    for l in model.L:
        out = out + l @ rho @ dagger(l)
    return out


def heisenberg_apply(model: ModelSpec, a_obs) -> np.ndarray | Op:
    """Adjoint generator: A G + G* A + sum_k L_k* A L_k.

    Accepts an Op or a raw matrix and returns the matching kind.
    """
    wrapped = isinstance(a_obs, Op)
    a = a_obs.matrix if wrapped else np.asarray(a_obs, dtype=complex)
    out = a @ model.G + dagger(model.G) @ a
    for l in model.L:
        out = out + dagger(l) @ a @ l
    if wrapped:
        return Op(out, f"L({a_obs.label})")
    return out


def _require_real(value, name: str) -> float:
    if isinstance(value, complex) and value.imag != 0:
        raise ValueError(f"{name} must be real, got {value!r}")
    return float(np.real(value))


def build_kerr_oscillator(
    space: FockSpace,
    beta1: float = 0.0,
    beta2: float = 0.0,
    beta3: float = 0.0,
    alpha1: complex = 0.0,
    alpha2: complex = 0.0,
    alpha3: complex = 0.0,
    alpha4: complex = 0.0,
    alpha5: complex = 0.0,
    alpha6: complex = 0.0,
    p: int = 4,
) -> ModelSpec:
    """Driven Kerr oscillator with up to six noise channels.

    H = i b1 (adag - a) + b2 n + b3 adag^2 a^2, jump operators
    (a1 a, a2 adag, a3 n, a4 a^2, a5 adag^2, a6 n^2) with zero-coefficient
    channels dropped, reference C = n^p.  The two-step shifts put the
    interior cutoff at dim - 5.
    """
    if space.dim < 8:
        raise ValueError(f"kerr oscillator needs dim >= 8, got {space.dim}")
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"p must be a positive integer, got {p!r}")
    b1 = _require_real(beta1, "beta1")
    b2 = _require_real(beta2, "beta2")
    b3 = _require_real(beta3, "beta3")
    ops = build_fock_ops(space)
    a, adag, n = ops.a.matrix, ops.adag.matrix, ops.n.matrix
    h = 1j * b1 * (adag - a) + b2 * n + b3 * (adag @ adag @ a @ a)
    channels = [
        (alpha1, a, "a"),
        (alpha2, adag, "adag"),
        (alpha3, n, "n"),
        (alpha4, a @ a, "a^2"),
        (alpha5, adag @ adag, "adag^2"),
        (alpha6, n @ n, "n^2"),
    ]
    lindblads = tuple(
        Op(coeff * mat, f"alpha{i + 1}*{lab}")
        for i, (coeff, mat, lab) in enumerate(channels)
        if coeff != 0
    )
    c_ref = Op(np.linalg.matrix_power(n, p), f"n^{p}")
    model = ModelSpec(
        space,
        hamiltonian=Op(h, "H_kerr"),
        lindblads=lindblads,
        reference=c_ref,
        interior_cutoff=space.dim - 5,
        meta={
            "builder": "kerr",
            "beta": (b1, b2, b3),
            "alpha": tuple(complex(x) for x in (alpha1, alpha2, alpha3, alpha4, alpha5, alpha6)),
            "p": int(p),
        },
    )
    model.validate()
    return model


def build_thermal_oscillator(space: FockSpace, rate: float, nu: float, p: int = 4) -> ModelSpec:
    """Damped oscillator coupled to a thermal bath.

    Kerr family member with alpha1 = sqrt(rate (nu+1)), alpha2 = sqrt(rate nu);
    relaxation rate ``rate`` and stationary mean occupation ``nu``.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    model = build_kerr_oscillator(
        space,
        alpha1=np.sqrt(rate * (nu + 1.0)),
        alpha2=np.sqrt(rate * nu),
        p=p,
    )
    model.meta.update({"builder": "thermal", "rate": float(rate), "nu": float(nu)})
    return model


def build_monitored_oscillator(
    space: FockSpace, mass: float, c: float, alpha: float = 0.0, beta: float = 0.0
) -> ModelSpec:
    """Harmonic oscillator under continuous position/momentum monitoring.

    H = P^2/(2 mass) + c Q^2, jump operators alpha Q and beta P (zeros
    dropped), reference C = P^2 + Q^2.  Q and P shift the basis index by one,
    their squares by two, so the interior cutoff sits at dim - 4.
    """
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if space.dim < 8:
        raise ValueError(f"monitored oscillator needs dim >= 8, got {space.dim}")
    ops = build_fock_ops(space)
    q, p_op = ops.q.matrix, ops.p.matrix
    h = (p_op @ p_op) / (2.0 * mass) + c * (q @ q)
    channels = [(alpha, q, "q"), (beta, p_op, "p")]
    lindblads = tuple(
        Op(coeff * mat, f"{name}{lab}")
        for (coeff, mat, lab), name in zip(channels, ("alpha*", "beta*"))
        if coeff != 0
    )
    model = ModelSpec(
        space,
        hamiltonian=Op(h, "H_osc"),
        lindblads=lindblads,
        reference=Op(p_op @ p_op + q @ q, "p^2+q^2"),
        interior_cutoff=space.dim - 4,
        meta={
            "builder": "monitored",
            "mass": float(mass),
            "c": float(c),
            "alpha": float(alpha),
            "beta": float(beta),
        },
    )
    model.validate()
    return model


def random_model(dim: int, n_lindblads: int = 2, seed: int = 0, rate_scale: float = 1.0) -> ModelSpec:
    """A generic dense GKSL model for exactness and duality tests.

    Matrix entries are O(1/sqrt(dim)) so generator norms stay O(1) as dim
    varies.  Dense matrices have no truncation structure, hence the interior
    cutoff covers the whole basis.
    """
    rng = np.random.default_rng(seed)
    d = int(dim)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (m + m.conj().T) / (2.0 * np.sqrt(d))
    lindblads = []
    for k in range(n_lindblads):
        l = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0 * d)
        lindblads.append(Op(rate_scale * l, f"L{k}"))
    model = ModelSpec(
        FockSpace(d),
        hamiltonian=Op(h, "H_random"),
        lindblads=tuple(lindblads),
        interior_cutoff=d - 1,
        meta={"builder": "random", "seed": int(seed)},
    )
    model.validate()
    return model
