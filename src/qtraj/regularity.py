"""Regular initial mixtures, trace-identity checks, and Lyapunov diagnostics.

A mixture rho = sum_n w_n |u_n><u_n| with sum_n w_n |C u_n|^2 finite can be
sampled exactly: draw index n with probability w_n / tr(rho) and emit
sqrt(tr(rho)) u_n.  The dyad mean of the samples reconstructs rho and the
sampling identity  tr(A rho B) = E <B* xi, A xi>  holds exactly for finite
mixtures, which is what ``verify_trace_identity`` measures.

The dissipativity checks probe one of three operator inequalities through
the scalar function

    lhs(x) = 2 Re<C^2 x, G x> + sum_k |C L_k x|^2,

whose growth (or boundedness) relative to a reference quadratic decides
whether the reference moment E|C psi|^2 stays controlled along trajectories.
For the Kerr family with jump weights alpha4 (two-photon absorption) and
alpha5 (two-photon emission), lhs(e_n) grows like
4 p (|alpha5|^2 - |alpha4|^2) n^(2p+1), which is what the basis scan here
exposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .ensemble import mean_and_stderr
from .hilbert import ModelSpec, Op
from .linalg import pairwise_sum
from .noise import SAMPLER_DOMAIN, counter_uniforms, sampler_uniform

DISSIPATIVITY_KINDS = ("nonexplosion", "affine", "damped")
TAIL_MASS_LIMIT = 1e-6
TAIL_INDEX_COUNT = 3


@dataclass(frozen=True)
class CRegularDecomposition:
    """Weighted pure decomposition of a mixed state, with a reference C."""

    weights: np.ndarray
    vectors: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.vectors, dtype=complex)
        c = np.asarray(self.reference, dtype=complex)
        if w.ndim != 1 or v.ndim != 2 or w.shape[0] != v.shape[0]:
            raise ValueError("need weights (m,) and vectors (m, dim)")
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
        norms = np.linalg.norm(v, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise ValueError("decomposition vectors must be unit norm")
        if c.shape != (v.shape[1], v.shape[1]):
            raise ValueError("reference operator shape mismatch")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "reference", c)

    @property
    def trace(self) -> float:
        return float(self.weights.sum())

    @property
    def c_moment(self) -> float:
        """sum_n w_n |C u_n|^2, the moment that defines C-regularity."""
        cu = self.vectors @ self.reference.T
        return float((self.weights * (cu.real**2 + cu.imag**2).sum(axis=1)).sum())

    def density(self) -> np.ndarray:
        return np.einsum("n,nd,ne->de", self.weights, self.vectors, self.vectors.conj())


def sample_c_regular(decomp: CRegularDecomposition, seed: int) -> np.ndarray:
    """One exact draw: sqrt(tr) u_n with P(n) = w_n / tr.

    Pure function of (decomp, seed); the mean dyad over seeds reconstructs
    the mixture with no bias beyond Monte Carlo error.
    """
    u = sampler_uniform(seed)
    cdf = np.cumsum(decomp.weights) / decomp.trace
    n = int(np.searchsorted(cdf, u, side="right"))
    n = min(n, decomp.weights.shape[0] - 1)
    return math.sqrt(decomp.trace) * decomp.vectors[n]


def mixture_sampler(decomp: CRegularDecomposition):
    """Adapter for run_ensemble: trajectory i starts at sample_c_regular(.., i)."""
    return lambda seed: sample_c_regular(decomp, seed)


def verify_trace_identity(decomp: CRegularDecomposition, a_op, b_op) -> float:
    """|tr(A rho B) - sum_n w_n <B* u_n, A u_n>| for the exact mixture."""
    a = a_op.matrix if isinstance(a_op, Op) else np.asarray(a_op, dtype=complex)
    b = b_op.matrix if isinstance(b_op, Op) else np.asarray(b_op, dtype=complex)
    rho = decomp.density()
    lhs = complex(np.trace(a @ rho @ b))
    au = decomp.vectors @ a.T
    bdag_u = decomp.vectors @ b.conj()
    rhs = complex(np.sum(decomp.weights * np.sum(bdag_u.conj() * au, axis=1)))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class RegularityTrace:
    """Reference-moment history of an ensemble."""

    times: np.ndarray
    c_mean: np.ndarray
    c_stderr: np.ndarray
    tail_mass: np.ndarray
    truncation_unreliable: np.ndarray  # bool per save time

    @property
    def any_unreliable(self) -> bool:
        return bool(self.truncation_unreliable.any())


def c_moment_and_tail(states: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|C psi|^2 and the share of |psi|^2 on the top three basis indices,
    for every state of a (..., dim) stack."""
    cpsi = np.matmul(states, c.T)
    c_vals = (cpsi.real**2 + cpsi.imag**2).sum(axis=-1)
    probs = states.real**2 + states.imag**2
    norm_sq = probs.sum(axis=-1)
    top = probs[..., -TAIL_INDEX_COUNT:].sum(axis=-1)
    return c_vals, top / np.where(norm_sq > 0, norm_sq, 1.0)  # a zero state has top = 0


def trace_from_moments(times: np.ndarray, c_vals: np.ndarray, tail: np.ndarray) -> RegularityTrace:
    """Reduce per-trajectory (m, n_save) values of ``c_moment_and_tail`` over
    the trajectories; times with mean tail share above 1e-6 are flagged as
    truncation-unreliable."""
    m = c_vals.shape[0]
    if m == 0:
        raise ValueError("no unfaulted trajectories")
    c_mean, c_stderr = mean_and_stderr(c_vals)
    tail_mass = pairwise_sum(tail, axis=0) / m
    return RegularityTrace(
        times=times,
        c_mean=c_mean,
        c_stderr=c_stderr,
        tail_mass=tail_mass,
        truncation_unreliable=tail_mass > TAIL_MASS_LIMIT,
    )


def regularity_trace(batch, c_op=None) -> RegularityTrace:
    """E|C psi|^2 with stderr at every save time, plus the mean probability
    mass on the top three basis indices; times with tail mass above 1e-6 are
    flagged as truncation-unreliable."""
    model = batch.model
    c = model.C if c_op is None else (c_op.matrix if isinstance(c_op, Op) else np.asarray(c_op))
    states = batch.states[~batch.fault_mask]  # (m, n_save, dim)
    return trace_from_moments(batch.grid.save_times, *c_moment_and_tail(states, c))


@dataclass(frozen=True)
class LyapunovReport:
    inequality_kind: str
    estimated_K: float
    max_violation: float
    n_probes: int
    interior_cutoff: int
    basis_lhs: np.ndarray  # lhs(e_n) for n = 0 .. interior_cutoff
    d_op_label: str | None = None


def _random_interior_probes(dim: int, cutoff: int, n_probes: int, seed: int) -> np.ndarray:
    """Unit vectors supported on indices <= cutoff, from the counter RNG."""
    count = 2 * (cutoff + 1) * n_probes
    u = counter_uniforms(
        np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
        SAMPLER_DOMAIN + np.uint64(1),
        np.uint64(0),
        count,
    )
    z = ndtri(u).reshape(n_probes, 2, cutoff + 1)
    probes = np.zeros((n_probes, dim), dtype=complex)
    probes[:, : cutoff + 1] = z[:, 0] + 1j * z[:, 1]
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    return probes


def dissipativity_lhs(model: ModelSpec, x: np.ndarray, c_op=None) -> float:
    """2 Re<C^2 x, G x> + sum_k |C L_k x|^2 for one state."""
    c = model.C if c_op is None else (c_op.matrix if isinstance(c_op, Op) else np.asarray(c_op))
    csq = c @ c
    val = 2.0 * np.vdot(csq @ x, model.G @ x).real
    for l in model.L:
        clx = c @ (l @ x)
        val += float(np.vdot(clx, clx).real)
    return float(val)


def check_dissipativity(
    model: ModelSpec,
    kind: str = "affine",
    c_op=None,
    d_op=None,
    n_probes: int = 32,
    seed: int = 0,
    supplied_K: float | None = None,
) -> LyapunovReport:
    """Probe one of the Lyapunov-type inequalities on interior states.

    Probes are all interior basis vectors plus ``n_probes`` random unit
    vectors supported on the interior.  Kinds:

      nonexplosion  lhs <= K (<x, C^2 x> + |x|^2)
      affine        lhs <= K (|x|^2 + |C x|^2 + 1)
      damped        lhs <= -|D x|^2 + K (1 + |x|^2)   (needs d_op)

    estimated_K is the smallest constant making the inequality hold on the
    probe set; max_violation is measured against supplied_K when given,
    otherwise against estimated_K (and is then <= 0 by construction).
    """
    if kind not in DISSIPATIVITY_KINDS:
        raise ValueError(f"kind must be one of {DISSIPATIVITY_KINDS}, got {kind!r}")
    if kind == "damped" and d_op is None:
        raise ValueError("kind='damped' needs the dissipation operator d_op")
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    c = model.C if c_op is None else (c_op.matrix if isinstance(c_op, Op) else np.asarray(c_op))
    d = model.dim
    cutoff = model.interior_cutoff
    basis = np.eye(d, dtype=complex)[: cutoff + 1]
    random_probes = _random_interior_probes(d, cutoff, n_probes, seed)
    probes = np.concatenate([basis, random_probes], axis=0)

    csq = c @ c
    gx = probes @ model.G.T
    csqx = probes @ csq.T
    lhs = 2.0 * np.sum(csqx.conj() * gx, axis=1).real
    for l in model.L:
        clx = probes @ (c @ l).T
        lhs = lhs + (clx.real**2 + clx.imag**2).sum(axis=1)

    norm_sq = (probes.real**2 + probes.imag**2).sum(axis=1)
    cx = probes @ c.T
    c_norm_sq = (cx.real**2 + cx.imag**2).sum(axis=1)
    if kind == "nonexplosion":
        csq_expect = np.sum(csqx.conj() * probes, axis=1).real
        rhs = csq_expect + norm_sq
        shift = np.zeros_like(lhs)
    elif kind == "affine":
        rhs = norm_sq + c_norm_sq + 1.0
        shift = np.zeros_like(lhs)
    else:
        d_mat = d_op.matrix if isinstance(d_op, Op) else np.asarray(d_op, dtype=complex)
        dx = probes @ d_mat.T
        shift = (dx.real**2 + dx.imag**2).sum(axis=1)
        rhs = 1.0 + norm_sq
    estimated = float(np.max((lhs + shift) / rhs))
    k_ref = estimated if supplied_K is None else float(supplied_K)
    violation = float(np.max(lhs + shift - k_ref * rhs))
    return LyapunovReport(
        inequality_kind=kind,
        estimated_K=estimated,
        max_violation=violation,
        n_probes=probes.shape[0],
        interior_cutoff=cutoff,
        basis_lhs=lhs[: cutoff + 1].copy(),
        d_op_label=(d_op.label if isinstance(d_op, Op) else ("D" if d_op is not None else None)),
    )


def kerr_regularity_predicate(alpha4: complex, alpha5: complex) -> bool:
    """Reference moments stay finite iff two-photon absorption dominates."""
    return abs(alpha4) >= abs(alpha5)


def kerr_stationary_predicate(
    alpha1: complex, alpha2: complex, alpha4: complex, alpha5: complex, p: int
) -> bool:
    """Existence of a stationary state for the Kerr family.

    Holds when |alpha4| > |alpha5|, or at equality when
    |alpha2|^2 - |alpha1|^2 + 4 (2p + 1) |alpha4|^2 < 0.  The criterion is
    formulated for reference exponents p >= 4 only.
    """
    if not isinstance(p, (int, np.integer)) or p < 4:
        raise ValueError(f"the stationary criterion needs integer p >= 4, got {p!r}")
    a4, a5 = abs(alpha4), abs(alpha5)
    if a4 > a5:
        return True
    if a4 == a5:
        return abs(alpha2) ** 2 - abs(alpha1) ** 2 + 4.0 * (2 * p + 1) * a4**2 < 0
    return False
