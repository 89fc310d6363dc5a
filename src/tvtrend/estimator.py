"""Penalized least squares with an l1 penalty on k-th order differences.

Solves  f_hat = argmin ||y - f||_n^2 + 2 lambda ||Delta(k) f||_1  and refuses
to declare convergence on iteration counts alone: a solution is accepted only
with a verified subgradient certificate

    2 (f_hat - y)/n + 2 lambda Delta(k)' u = 0,   u in the l1 subdifferential,

whose residual, box excess and sign mismatch are folded into
``FitResult.kkt_residual``.  The default algorithm is ADMM on the analysis
form with a banded Cholesky factorization of (2/n) I + rho D'D, over-relaxed
updates and residual-balanced rho, plus an exact active-set polish once the
support settles.  An independent taut-string dynamic program is available for
k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .diffops import build_delta, difference_coefficients, dual_witness, polynomial_basis

ALGORITHMS = ("admm", "dp_k1")


@dataclass(frozen=True)
class FitConfig:
    lam: float
    k: int
    tol_kkt: float = 1e-8
    max_iter: int = 50_000
    algorithm: str = "admm"
    rho: float = 1.0
    over_relaxation: float = 1.8

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.tol_kkt <= 0:
            raise ValueError("tol_kkt must be positive")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")


@dataclass(frozen=True)
class FitResult:
    f_hat: np.ndarray
    objective: float
    kkt_residual: float
    dual: np.ndarray
    iters: int
    converged: bool
    lam: float
    k: int


def objective(f, y, lam, k):
    """||y - f||_n^2 + 2 lambda ||Delta(k) f||_1."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    if f.shape != y.shape:
        raise ValueError(f"shape mismatch: f {f.shape} vs y {y.shape}")
    n = len(y)
    r = y - f
    return float(r @ r) / n + 2.0 * lam * float(np.sum(np.abs(np.diff(f, k))))


def polynomial_fit(y, k):
    """Least-squares projection onto degree < k discrete polynomials."""
    y = np.asarray(y, dtype=float)
    Q = polynomial_basis(len(y), k)
    return Q @ (Q.T @ y)


def lambda_max(y, k):
    """Smallest lambda at which the fit collapses to the polynomial fit,
    max_j |(Delta^+' (y - poly fit))_j| / n."""
    y = np.asarray(y, dtype=float)
    resid = y - polynomial_fit(y, k)
    return float(np.max(np.abs(dual_witness(resid, k)))) / len(y)


def _certificate(y, f_hat, lam, k, tol_kkt):
    """Dual vector and KKT residual for a candidate minimizer.

    The dual is the unique solution of D' u = (y - f_hat) / (n lambda); the
    returned residual is the max of the stationarity residual (inf-norm of
    the gradient inclusion), the box excess max(0, |u|_inf - 1) and the sign
    mismatch on clearly-active rows.
    """
    n = len(y)
    op = build_delta(n, k)
    h = (y - f_hat) / (n * lam)
    u = dual_witness(h, k)
    stat = 2.0 * (f_hat - y) / n + 2.0 * lam * op.apply_transpose(u)
    stat_res = float(np.max(np.abs(stat)))
    box = max(0.0, float(np.max(np.abs(u))) - 1.0)
    d = op.apply(f_hat)
    strong = np.abs(d) > 10.0 * tol_kkt
    sign_mis = float(np.max(np.abs(u[strong] - np.sign(d[strong])), initial=0.0))
    return u, max(stat_res, box, sign_mis)


def _ff_columns(n, k, rows):
    """Falling-factorial columns phi_j for 1-based rows j (Delta phi_j = e_j)."""
    cols = np.zeros((n, len(rows)))
    i = np.arange(1, n + 1)
    for idx, j in enumerate(rows):
        mask = i >= j
        vals = np.ones(n)
        for r in range(1, k):
            vals = vals * (i - j + r) / r
        cols[mask, idx] = vals[mask]
    return cols


def _restricted_solve(y, k, lam, active, signs):
    """Exact minimizer over signals whose differences vanish off ``active``,
    with the penalty linearized at the given signs.

    Parametrizes f = P a + sum psi_j b_j with psi_j the dictionary columns
    anti-projected against the orthonormal polynomial block (same
    differences, far better conditioning), unit-rescaled, solved by QR with
    two rounds of iterative refinement on the stationarity equations.
    Returns (f_hat, b) with b the differences at the active rows.
    """
    n = len(y)
    P = polynomial_basis(n, k)
    if len(active):
        Phi = _ff_columns(n, k, active)
        Phi -= P @ (P.T @ Phi)
        scales = np.linalg.norm(Phi, axis=0)
        X = np.concatenate([P, Phi / scales], axis=1)
        c = np.concatenate([np.zeros(k), signs / scales])
    else:
        X = P
        scales = np.zeros(0)
        c = np.zeros(k)
    Q, R = np.linalg.qr(X)
    target = n * lam * c
    theta = np.zeros(X.shape[1])
    for _ in range(3):
        defect = X.T @ (y - X @ theta) - target
        delta = scipy.linalg.solve_triangular(
            R, scipy.linalg.solve_triangular(R.T, defect, lower=True))
        theta += delta
        if np.max(np.abs(defect)) <= 1e-14 * max(1.0, n * lam, float(np.max(np.abs(y)))):
            break
    f_hat = X @ theta
    b = theta[k:] / scales if len(active) else np.zeros(0)
    return f_hat, b


_POLISH_MAX_ACTIVE = 1500


def _polish(y, k, lam, active, signs, tol_kkt, rounds=60):
    """Active-set refinement: drop sign-inconsistent rows, add rows whose
    dual exceeds the box, accept only on a verified certificate."""
    n = len(y)
    active = np.asarray(sorted(active), dtype=int)
    signs = np.asarray(signs, dtype=float)
    if len(active) > _POLISH_MAX_ACTIVE:
        return None
    for _ in range(rounds):
        f_hat, b = _restricted_solve(y, k, lam, active, signs)
        keep = (b * signs > 0) if len(active) else np.zeros(0, dtype=bool)
        if len(active) and not np.all(keep):
            active, signs = active[keep], signs[keep]
            continue
        u, kkt = _certificate(y, f_hat, lam, k, tol_kkt)
        if kkt <= tol_kkt:
            return f_hat, u, kkt
        over = np.abs(u) > 1.0 + 1e-12
        over[[t - k - 1 for t in active]] = False
        if not np.any(over):
            return None
        worst = int(np.argmax(np.abs(u) * over))
        j = worst + k + 1
        pos = int(np.searchsorted(active, j))
        active = np.insert(active, pos, j)
        signs = np.insert(signs, pos, np.sign(u[worst]))
    return None


def _admm_system_banded(n, k, rho):
    """(2/n) I + rho D'D in upper banded (cholesky_banded) format.

    Row r of D carries the stencil c on columns r..r+k, so the d-th
    superdiagonal of D'D collects c_l c_{l+d} over the m = n - k rows.
    """
    c = difference_coefficients(k)
    m = n - k
    ab = np.zeros((k + 1, n))
    for d in range(k + 1):
        for l in range(k + 1 - d):
            ab[k - d, l + d:l + d + m] += c[l] * c[l + d]
    ab *= rho
    ab[k] += 2.0 / n
    return ab


def _fit_admm(y, cfg):
    n = len(y)
    k = cfg.k
    op = build_delta(n, k)
    rho = cfg.rho
    alpha = cfg.over_relaxation

    def factor(rho):
        return scipy.linalg.cholesky_banded(_admm_system_banded(n, k, rho), lower=False)

    chol = factor(rho)
    f = y.copy()
    z = op.apply(f)
    w = np.zeros(op.m)
    thresh_scale = math.sqrt(op.m)
    best = None
    last_polish_iter = -1
    for it in range(1, cfg.max_iter + 1):
        rhs = (2.0 / n) * y + rho * op.apply_transpose(z - w)
        f = scipy.linalg.cho_solve_banded((chol, False), rhs)
        Df = op.apply(f)
        Df_rel = alpha * Df + (1.0 - alpha) * z
        z_old = z
        v = Df_rel + w
        z = np.sign(v) * np.maximum(np.abs(v) - 2.0 * cfg.lam / rho, 0.0)
        w = w + Df_rel - z
        r_norm = np.linalg.norm(Df - z)
        s_norm = rho * np.linalg.norm(op.apply_transpose(z - z_old))
        scale = max(np.linalg.norm(Df), np.linalg.norm(z), 1e-12)
        settled = r_norm <= 1e-7 * thresh_scale * scale and s_norm <= 1e-7 * thresh_scale * scale
        if settled or (it % 250 == 0 and it > last_polish_iter):
            last_polish_iter = it
            supp = np.nonzero(z)[0]
            polished = _polish(y, k, cfg.lam, supp + k + 1, np.sign(z[supp]), cfg.tol_kkt)
            if polished is not None:
                f_hat, u, kkt = polished
                return FitResult(f_hat=f_hat, objective=objective(f_hat, y, cfg.lam, k),
                                 kkt_residual=kkt, dual=u, iters=it, converged=True,
                                 lam=cfg.lam, k=k)
            u, kkt = _certificate(y, f, cfg.lam, k, cfg.tol_kkt)
            if best is None or kkt < best[2]:
                best = (f.copy(), u, kkt, it)
            if kkt <= cfg.tol_kkt:
                return FitResult(f_hat=f, objective=objective(f, y, cfg.lam, k),
                                 kkt_residual=kkt, dual=u, iters=it, converged=True,
                                 lam=cfg.lam, k=k)
        if it % 10 == 0:
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                w /= 2.0
                chol = factor(rho)
            elif s_norm > 10.0 * r_norm:
                rho /= 2.0
                w *= 2.0
                chol = factor(rho)
    if best is None:
        u, kkt = _certificate(y, f, cfg.lam, k, cfg.tol_kkt)
        best = (f, u, kkt, cfg.max_iter)
    f_hat, u, kkt, it = best
    return FitResult(f_hat=f_hat, objective=objective(f_hat, y, cfg.lam, k),
                     kkt_residual=kkt, dual=u, iters=cfg.max_iter, converged=False,
                     lam=cfg.lam, k=k)


def tv1d_exact(y, lam):
    """Exact minimizer of 0.5 ||y - x||_2^2 + lam sum |x_{i+1} - x_i|.

    Direct taut-string dynamic program, one forward sweep with jump
    backtracking; O(n) in practice.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    x = np.empty(n)
    if n == 0:
        return x
    if n == 1 or lam <= 0:
        return y.copy()
    k = k0 = kminus = kplus = 0
    vmin = y[0] - lam
    vmax = y[0] + lam
    umin = lam
    umax = -lam
    while True:
        if k == n - 1:
            if umin < 0.0:
                x[k0:kminus + 1] = vmin
                k = k0 = kminus = kminus + 1
                vmin = y[k]
                umin = lam
                umax = y[k] + lam - vmax
            elif umax > 0.0:
                x[k0:kplus + 1] = vmax
                k = k0 = kplus = kplus + 1
                vmax = y[k]
                umax = -lam
                umin = y[k] - lam - vmin
            else:
                x[k0:n] = vmin + umin / (k - k0 + 1)
                return x
        elif y[k + 1] + umin < vmin - lam:
            x[k0:kminus + 1] = vmin
            k = k0 = kminus = kplus = kminus + 1
            vmin = y[k]
            vmax = y[k] + 2.0 * lam
            umin = lam
            umax = -lam
        elif y[k + 1] + umax > vmax + lam:
            x[k0:kplus + 1] = vmax
            k = k0 = kminus = kplus = kplus + 1
            vmin = y[k] - 2.0 * lam
            vmax = y[k]
            umin = lam
            umax = -lam
        else:
            k += 1
            umin += y[k] - vmin
            umax += y[k] - vmax
            if umin >= lam:
                vmin += (umin - lam) / (k - k0 + 1)
                umin = lam
                kminus = k
            if umax <= -lam:
                vmax += (umax + lam) / (k - k0 + 1)
                umax = -lam
                kplus = k


def _fit_dp_k1(y, cfg):
    if cfg.k != 1:
        raise ValueError("dp_k1 requires k = 1")
    n = len(y)
    f_hat = tv1d_exact(y, n * cfg.lam)
    u, kkt = _certificate(y, f_hat, cfg.lam, 1, cfg.tol_kkt)
    return FitResult(f_hat=f_hat, objective=objective(f_hat, y, cfg.lam, 1),
                     kkt_residual=kkt, dual=u, iters=n, converged=kkt <= cfg.tol_kkt,
                     lam=cfg.lam, k=1)


def fit(y, cfg):
    """Solve the penalized problem; the result is flagged converged only when
    the KKT certificate meets ``cfg.tol_kkt``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be one-dimensional")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    n = len(y)
    if n < cfg.k + 1:
        raise ValueError(f"need n >= k + 1 = {cfg.k + 1}, got n = {n}")
    if cfg.lam == 0.0:
        return FitResult(f_hat=y.copy(), objective=0.0, kkt_residual=0.0,
                         dual=np.zeros(n - cfg.k), iters=0, converged=True,
                         lam=0.0, k=cfg.k)
    if cfg.algorithm == "dp_k1":
        return _fit_dp_k1(y, cfg)
    return _fit_admm(y, cfg)


def check_basic_inequality(result, y, f0, f):
    """Margin (LHS - RHS) of the optimality consequence

        ||fh - f0||_n^2 + ||fh - f||_n^2
            <= ||f - f0||_n^2 + 2 eps'(fh - f)/n + 2 lambda (l1(Df) - l1(Dfh)),

    with eps = y - f0.  Nonpositive (up to solver tolerance) at a true
    minimizer, for every comparator f; a positive margin certifies
    non-optimality.
    """
    y = np.asarray(y, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    f = np.asarray(f, dtype=float)
    fh = result.f_hat
    n = len(y)
    k, lam = result.k, result.lam
    eps = y - f0

    def nsq(v):
        return float(v @ v) / n

    lhs = nsq(fh - f0) + nsq(fh - f)
    rhs = (nsq(f - f0) + 2.0 * float(eps @ (fh - f)) / n
           + 2.0 * lam * (np.sum(np.abs(np.diff(f, k))) - np.sum(np.abs(np.diff(fh, k)))))
    return lhs - rhs
