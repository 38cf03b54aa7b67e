"""Checks of a run's artifacts against references computed here.

Nothing here imports qtraj.  The references are closed forms of the models
(the thermal oscillator relaxing from the vacuum stays geometric with mean
nu (1 - e^{-rate t}); the monitored harmonic oscillator's <Q>, <P> follow
the classical orbit and <N> grows linearly), operators built here with
numpy, and properties the method must have (unit norm, martingale norm,
hermiticity, positivity, contraction, duality, monotone Picard distances).

Light-tailed estimators get two-sided bands ``K * stderr + floor``.  The
heavy-tailed ones (the linear estimator, the moment <n^8>) get a ratio floor
below, because missing the tail leaves the mean low with a small stderr, and
``K * stderr`` above, because an overshoot needs an outlier, which inflates
the stderr with it.  The constants were set from the spread of each
estimator over many seeds; README.md gives the figures.  Each check returns
a list of failure messages (empty when it passes); ``run_checks`` runs every
check of a workload.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# -- statistical bands (see README.md, "Output checks") ----------------------
# skewed estimators: mean >= LOW * exact - floor and mean - exact <= K * stderr + floor
HEAVY_TAIL_K = 6.0
NONLINEAR_N_LOW = 0.25  # nonlinear <N>(t) at every save time, and at t_end in the equivalence
NONLINEAR_N_FLOOR = 2e-3  # the O(dt) weak error of the first steps, where the stderr is ~0
LINEAR_NORM_LOW = 0.35  # linear |X|^2 martingale at 1, at every save time
EQUIVALENCE_LINEAR_LOW = 0.15  # linear side of the equivalence at t_end
MOMENT_LOW = 0.1  # <n^8> of the nonlinear ensemble at t_end
# equivalence gap against the combined stderr
EQUIVALENCE_GAP_K = 10.0
EQUIVALENCE_FLOOR = 2e-3
# stationary: occupation >= LOW * nu_d and occupation - nu_d <= K * stderr,
# and trace distance to the geometric state
STATIONARY_OCC_LOW = 0.4
STATIONARY_TRACE_DISTANCE = 0.6


def read_csv(path: Path) -> dict:
    """Columns by header name, as float arrays (strings where not numeric)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = {}
    for j, name in enumerate(rows[0]):
        vals = [r[j] for r in rows[1:]]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = vals
    return cols


def read_matrix(path: Path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    d = int(lines[0].split("=", 1)[1])
    mat = np.full((d, d), np.nan, dtype=complex)
    for line in lines[1:]:
        i, j, re, im = line.split(",")
        mat[int(i), int(j)] = complex(float(re), float(im))
    return mat


def ladder(d: int):
    """Annihilation, number, position and momentum on d Fock levels."""
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    ad = a.conj().T
    return a, ad @ a, (a + ad) / math.sqrt(2.0), 1j * (ad - a) / math.sqrt(2.0)


def geometric_weights(nbar: float, d: int) -> np.ndarray:
    """Populations of the geometric state of mean nbar, cut at d levels and
    renormalized (the exact stationary state of the truncated thermal model)."""
    r = nbar / (nbar + 1.0)
    w = r ** np.arange(d)
    return w / w.sum()


def thermal_occupation(p: dict, t):
    return p["nu"] * (1.0 - np.exp(-p["rate"] * np.asarray(t, dtype=float)))


def _fail(cond: bool, msg: str) -> list:
    return [] if cond else [msg]


def _worst(excess: np.ndarray, t: np.ndarray) -> str:
    i = int(np.argmax(excess))
    return f"at t={t[i]:.6g} (excess {excess[i]:.3e})"


def _heavy_tail_excess(mean, stderr, exact, low, floor=0.0):
    """Positive where ``mean`` leaves [low * exact - floor, exact + K * stderr + floor]."""
    mean, stderr, exact = (np.asarray(x, dtype=float) for x in (mean, stderr, exact))
    return np.maximum(low * exact - mean, mean - exact - HEAVY_TAIL_K * stderr) - floor


def _save_times(p: dict) -> np.ndarray:
    return np.linspace(0.0, p["t_end"], p["n_save"])


def _times_match(cols: dict, p: dict, name: str) -> list:
    t = cols["t"]
    ok = t.shape == (p["n_save"],) and np.allclose(t, _save_times(p), rtol=0, atol=1e-12)
    return _fail(ok, f"{name}: save times are not the {p['n_save']}-point grid")


# -- ensemble-thermal30 -------------------------------------------------------


def check_thermal_master_oracle(out: Path, p: dict) -> list:
    cols = read_csv(out / "master_oracle.expectations.csv")
    errs = _times_match(cols, p, "master_oracle")
    if errs:
        return errs
    dev = np.abs(cols["tr_n_rho"] - thermal_occupation(p, cols["t"]))
    errs += _fail(dev.max() <= 1e-9, f"master_oracle: tr(N rho) off nu(1-e^-t) by {dev.max():.3e}")
    tr = np.abs(cols["trace"] - 1.0).max()
    errs += _fail(tr <= 1e-10, f"master_oracle: trace off 1 by {tr:.3e}")
    rho = read_matrix(out / "master_oracle.rho_final.mat.txt")
    geo = np.diag(geometric_weights(float(thermal_occupation(p, p["t_end"])), p["dim"]))
    gap = np.abs(rho - geo).max()
    errs += _fail(gap <= 1e-9, f"master_oracle: rho_final off the geometric state by {gap:.3e}")
    return errs


def check_nonlinear_ensemble(out: Path, p: dict) -> list:
    cols = read_csv(out / "ensemble.nonlinear.observable.csv")
    errs = _times_match(cols, p, "ensemble.nonlinear")
    if errs:
        return errs
    t = cols["t"]
    excess = _heavy_tail_excess(
        cols["obs_mean"], cols["obs_stderr"], thermal_occupation(p, t), NONLINEAR_N_LOW, NONLINEAR_N_FLOOR
    )
    errs += _fail(excess.max() <= 0, f"ensemble.nonlinear: <N> outside band {_worst(excess, t)}")
    nrm = max(np.abs(cols["norm_sq_mean"] - 1.0).max(), cols["norm_sq_stderr"].max())
    errs += _fail(nrm <= 1e-12, f"ensemble.nonlinear: |psi|^2 off 1 by {nrm:.3e}")
    return errs


def check_linear_ensemble(out: Path, p: dict) -> list:
    cols = read_csv(out / "ensemble.linear.observable.csv")
    errs = _times_match(cols, p, "ensemble.linear")
    if errs:
        return errs
    t = cols["t"]
    excess = _heavy_tail_excess(cols["norm_sq_mean"], cols["norm_sq_stderr"], 1.0, LINEAR_NORM_LOW)
    excess[0] = abs(cols["norm_sq_mean"][0] - 1.0) - 1e-12
    errs += _fail(excess.max() <= 0, f"ensemble.linear: E|X|^2 leaves 1 {_worst(excess, t)}")
    return errs


def check_equivalence(out: Path, p: dict) -> list:
    cols = read_csv(out / "equivalence.summary.csv")
    exact = float(thermal_occupation(p, p["t_end"]))
    errs = _fail(
        cols["m_linear"][0] == p["M"] and cols["m_nonlinear"][0] == p["M"],
        "equivalence: ensemble sizes are not M",
    )
    excess = _heavy_tail_excess(cols["linear_side"][0], cols["lhs_stderr"][0], exact, EQUIVALENCE_LINEAR_LOW)
    errs += _fail(excess <= 0, f"equivalence: linear side {cols['linear_side'][0]:.6f} outside band of {exact:.6f}")
    excess = _heavy_tail_excess(
        cols["nonlinear_side"][0], cols["rhs_stderr"][0], exact, NONLINEAR_N_LOW, NONLINEAR_N_FLOOR
    )
    errs += _fail(excess <= 0,
                  f"equivalence: nonlinear side {cols['nonlinear_side'][0]:.6f} outside band of {exact:.6f}")
    # both sides re-estimate the ensembles of the ensemble task at t_end
    for side, kind in (("linear_side", "linear"), ("nonlinear_side", "nonlinear")):
        ens = read_csv(out / f"ensemble.{kind}.observable.csv")["obs_mean"][-1]
        errs += _fail(abs(cols[side][0] - ens) <= 1e-12 * max(1.0, abs(ens)),
                      f"equivalence: {side} differs from the {kind} ensemble's <N>(t_end)")
    gap, comb = cols["abs_gap"][0], cols["combined_stderr"][0]
    recomputed = abs(cols["linear_side"][0] - cols["nonlinear_side"][0])
    errs += _fail(abs(gap - recomputed) <= 1e-12, "equivalence: abs_gap is not |lhs - rhs|")
    errs += _fail(
        abs(comb - math.hypot(cols["lhs_stderr"][0], cols["rhs_stderr"][0])) <= 1e-12 * max(comb, 1),
        "equivalence: combined_stderr is not the root sum of squares",
    )
    errs += _fail(
        gap <= EQUIVALENCE_GAP_K * comb + EQUIVALENCE_FLOOR,
        f"equivalence: gap {gap:.3e} > {EQUIVALENCE_GAP_K} combined stderr",
    )
    return errs


def check_regularity(out: Path, p: dict) -> list:
    cols = read_csv(out / "regularity.trace.csv")
    errs = _times_match(cols, p, "regularity")
    if errs:
        return errs
    levels = np.arange(p["dim"], dtype=float)
    nbar = float(thermal_occupation(p, p["t_end"]))
    exact = float(geometric_weights(nbar, p["dim"]) @ levels ** (2 * p["p"]))
    mean, stderr = cols["c_moment_mean"][-1], cols["c_moment_stderr"][-1]
    errs += _fail(
        _heavy_tail_excess(mean, stderr, exact, MOMENT_LOW) <= 0,
        f"regularity: <n^{2 * p['p']}>(t_end) = {mean:.6g} +- {stderr:.3g} outside band of "
        f"the geometric {exact:.6g}",
    )
    errs += _fail(cols["c_moment_mean"][0] == 0.0, "regularity: moment at t=0 is not 0 (vacuum)")
    errs += _fail(
        bool(np.all(cols["truncation_unreliable"] == 0)) and cols["tail_mass"].max() <= 1e-6,
        f"regularity: tail mass {cols['tail_mass'].max():.3e} flags the truncation",
    )
    return errs


def check_dissipativity(out: Path, p: dict) -> list:
    """Affine probe on the thermal model: on basis states the probed function
    has the closed form rate(nu+1) n [(n-1)^2p - n^2p] + rate nu (n+1) [(n+1)^2p - n^2p]."""
    rep = read_csv(out / "dissipativity.report.csv")
    basis = read_csv(out / "dissipativity.basis_lhs.csv")
    q = 2 * p["p"]
    n = basis["n"]
    exact = p["rate"] * (p["nu"] + 1) * n * ((n - 1) ** q - n**q) + p["rate"] * p["nu"] * (n + 1) * (
        (n + 1) ** q - n**q
    )
    cutoff = p["dim"] - 5
    errs = _fail(
        n.shape == (cutoff + 1,) and rep["interior_cutoff"][0] == cutoff,
        f"dissipativity: basis scan does not cover 0..{cutoff}",
    )
    if errs:
        return errs
    dev = np.abs(basis["lhs"] - exact) / np.maximum(1.0, np.abs(exact))
    errs += _fail(dev.max() <= 1e-9, f"dissipativity: basis lhs off the closed form by {dev.max():.3e}")
    errs += _fail(rep["max_violation"][0] <= 1e-9 * max(1.0, rep["estimated_K"][0]),
                  "dissipativity: violation against its own K")
    errs += _fail(rep["n_probes"][0] == cutoff + 1 + p["probes"], "dissipativity: probe count")
    return errs


# -- oracle-monitored40 -------------------------------------------------------


def _orbit(p: dict, t):
    """<Q>(t), <P>(t) of H = P^2/(2m) + c Q^2 from the coherent state.

    Linear jump operators only dephase, so the means follow the classical
    orbit at omega = sqrt(2c/m)."""
    m, c, amp = p["mass"], p["c"], p["amplitude"]
    w = math.sqrt(2.0 * c / m)
    q0, p0 = math.sqrt(2.0) * amp.real, math.sqrt(2.0) * amp.imag
    t = np.asarray(t, dtype=float)
    q = q0 * np.cos(w * t) + p0 / (m * w) * np.sin(w * t)
    pm = p0 * np.cos(w * t) - m * w * q0 * np.sin(w * t)
    return q, pm, w


def _monitored_occupation(p: dict, t):
    """<N>(t) = |amplitude|^2 + (alpha^2 + beta^2) t / 2 when H = N + 1/2 (m = 2c = 1);
    each Hermitian jump alpha Q, beta P heats at alpha^2/2, beta^2/2."""
    return abs(p["amplitude"]) ** 2 + 0.5 * (p["alpha"] ** 2 + p["beta"] ** 2) * np.asarray(t)


def check_monitored_master_oracle(out: Path, p: dict) -> list:
    cols = read_csv(out / "master_oracle.expectations.csv")
    errs = _times_match(cols, p, "master_oracle")
    if errs:
        return errs
    dev = np.abs(cols["tr_n_rho"] - _monitored_occupation(p, cols["t"])).max()
    errs += _fail(dev <= 1e-8, f"master_oracle: <N>(t) off the linear heating law by {dev:.3e}")
    tr = np.abs(cols["trace"] - 1.0).max()
    errs += _fail(tr <= 1e-9, f"master_oracle: trace off 1 by {tr:.3e}")
    rho = read_matrix(out / "master_oracle.rho_final.mat.txt")
    herm = np.abs(rho - rho.conj().T).max()
    errs += _fail(herm <= 1e-10, f"master_oracle: rho_final not Hermitian ({herm:.3e})")
    if herm <= 1e-10:
        lo = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
        errs += _fail(lo >= -1e-9, f"master_oracle: rho_final has eigenvalue {lo:.3e}")
    _, _, q_op, p_op = ladder(p["dim"])
    q_cf, p_cf, _ = _orbit(p, p["t_end"])
    dq = abs(np.trace(q_op @ rho).real - q_cf)
    dp = abs(np.trace(p_op @ rho).real - p_cf)
    errs += _fail(max(dq, dp) <= 1e-9, f"master_oracle: <Q>,<P> off the orbit by {dq:.3e}, {dp:.3e}")
    return errs


def check_heisenberg_oracle(out: Path, p: dict) -> list:
    cols = read_csv(out / "heisenberg_oracle.expectations.csv")
    errs = _times_match(cols, p, "heisenberg_oracle")
    if errs:
        return errs
    dev = np.abs(cols["tr_obs_rho0"] - _monitored_occupation(p, cols["t"])).max()
    errs += _fail(dev <= 1e-8, f"heisenberg_oracle: tr(T_t(N) rho0) off the heating law by {dev:.3e}")
    n_norm = p["dim"] - 1.0
    excess = (cols["operator_norm"] - n_norm).max()
    errs += _fail(excess <= 1e-9, f"heisenberg_oracle: |T_t(N)| exceeds |N| by {excess:.3e}")
    obs = read_matrix(out / "heisenberg_oracle.obs_final.mat.txt")
    norm = np.linalg.norm(obs, 2)
    errs += _fail(abs(norm - cols["operator_norm"][-1]) <= 1e-9 * n_norm,
                  "heisenberg_oracle: obs_final norm disagrees with the table")
    return errs


def check_duality(out: Path, p: dict) -> list:
    cols = read_csv(out / "duality.residual.csv")
    errs = _times_match(cols, p, "duality")
    if errs:
        return errs
    gap = np.abs(cols["master_side"] - cols["heisenberg_side"])
    errs += _fail(gap.max() <= 1e-7, f"duality: gap {gap.max():.3e} > 1e-7")
    errs += _fail(np.abs(gap - cols["abs_diff"]).max() <= 1e-12, "duality: abs_diff is not the gap")
    dev = np.abs(cols["master_side"] - _monitored_occupation(p, cols["t"])).max()
    errs += _fail(dev <= 1e-8, f"duality: master side off the heating law by {dev:.3e}")
    return errs


def check_ehrenfest(out: Path, p: dict) -> list:
    """Central differences of the orbit are exact up to sin(wh)/(wh)."""
    cols = read_csv(out / "ehrenfest.relations.csv")
    t = cols["t"]
    h = p["dt"]
    errs = _fail(
        t.shape == (p["n_save"] - 2,) and np.allclose(t, _save_times(p)[1:-1], atol=1e-12),
        "ehrenfest: rows are not the interior save times",
    )
    if errs:
        return errs
    q, pm, w = _orbit(p, t)
    shrink = math.sin(w * h) / (w * h)
    dev_q = np.abs(cols["dQdt_fd"] - shrink * pm / p["mass"]).max()
    dev_p = np.abs(cols["dPdt_fd"] + shrink * 2.0 * p["c"] * q).max()
    errs += _fail(max(dev_q, dev_p) <= 1e-6,
                  f"ehrenfest: differences off the orbit by {dev_q:.3e}, {dev_p:.3e}")
    resid_q = np.abs(cols["P_resid"] - (cols["dQdt_fd"] - cols["P_over_m"])).max()
    resid_p = np.abs(cols["Q_resid"] - (cols["dPdt_fd"] - cols["minus2cQ"])).max()
    errs += _fail(max(resid_q, resid_p) <= 1e-12, "ehrenfest: residual columns inconsistent")
    return errs


def check_picard(out: Path, p: dict) -> list:
    cols = read_csv(out / "picard.convergence.csv")
    dist = cols["distance_to_oracle"]
    errs = _fail(dist.shape == (p["picard_iters"] + 1,), "picard: wrong number of iterates")
    if errs:
        return errs
    errs += _fail(bool(np.all(np.diff(dist[1:]) < 0)),
                  f"picard: distances not falling from n=1: {np.array2string(dist, precision=3)}")
    return errs


# -- stationary-thermal12 -----------------------------------------------------


def check_stationary(out: Path, p: dict) -> list:
    s = read_csv(out / "stationary.summary.csv")
    rho = read_matrix(out / "stationary.rho_inf.mat.txt")
    d = p["dim"]
    w = geometric_weights(p["nu"], d)
    occ_exact = float(w @ np.arange(d))
    errs = _fail(s["certified"][0] == 1 and s["m_effective"][0] == p["M"],
                 "stationary: not certified or trajectories lost")
    # burn-in defaults to 5 / gap, the thermal gap being rate / 2
    errs += _fail(abs(s["burn_in"][0] - 10.0 / p["rate"]) <= 0.011,
                  f"stationary: burn-in {s['burn_in'][0]} is not 5 / (rate / 2)")
    errs += _fail(abs(s["window"][0] - p["window"]) <= 0.011, "stationary: window length")
    occ, occ_err = s["occupation"][0], s["occupation_stderr"][0]
    errs += _fail(
        _heavy_tail_excess(occ, occ_err, occ_exact, STATIONARY_OCC_LOW) <= 0,
        f"stationary: occupation {occ:.5f} +- {occ_err:.3g} outside band of {occ_exact:.5f}",
    )
    herm = np.abs(rho - rho.conj().T).max()
    tr = abs(np.trace(rho).real - 1.0)
    errs += _fail(herm <= 1e-12 and tr <= 1e-12, f"stationary: rho_inf hermiticity {herm:.3e}, trace {tr:.3e}")
    if herm <= 1e-12:
        eig = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        errs += _fail(eig[0] >= -1e-12, f"stationary: rho_inf eigenvalue {eig[0]:.3e}")
        dist = np.abs(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T) - np.diag(w))).sum()
        errs += _fail(dist <= STATIONARY_TRACE_DISTANCE,
                      f"stationary: trace distance {dist:.3e} to the geometric state")
        occ_rho = float(np.diag(rho).real @ np.arange(d))
        errs += _fail(abs(occ_rho - s["occupation"][0]) <= 1e-9, "stationary: occupation is not tr(N rho_inf)")
        errs += _fail(
            abs(_thermal_residual(p, rho) - s["residual_onenorm"][0]) <= 1e-9,
            "stationary: residual_onenorm is not |L(rho_inf)|_1",
        )
    return errs


def _thermal_residual(p: dict, rho: np.ndarray) -> float:
    """Trace norm of the thermal generator applied to rho, built here."""
    a, _, _, _ = ladder(p["dim"])
    ops = [math.sqrt(p["rate"] * (p["nu"] + 1.0)) * a, math.sqrt(p["rate"] * p["nu"]) * a.conj().T]
    out = np.zeros_like(rho)
    for l in ops:
        ll = l.conj().T @ l
        out += l @ rho @ l.conj().T - 0.5 * (ll @ rho + rho @ ll)
    return float(np.abs(np.linalg.eigvalsh(0.5 * (out + out.conj().T))).sum())


CHECKS = {
    "ensemble-thermal30": (
        check_thermal_master_oracle,
        check_nonlinear_ensemble,
        check_linear_ensemble,
        check_equivalence,
        check_regularity,
        check_dissipativity,
    ),
    "oracle-monitored40": (
        check_monitored_master_oracle,
        check_heisenberg_oracle,
        check_duality,
        check_ehrenfest,
        check_picard,
    ),
    "stationary-thermal12": (check_stationary,),
}


def run_checks(workload: str, out: Path, params: dict) -> list:
    """Every failure message of every check of ``workload``."""
    failures = []
    for check in CHECKS[workload]:
        try:
            failures += check(out, params)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failures.append(f"{check.__name__}: unreadable artifact: {type(exc).__name__}: {exc}")
    return failures
