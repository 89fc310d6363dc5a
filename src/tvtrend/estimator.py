"""Penalized least squares with an l1 penalty on k-th order differences.

Solves  f_hat = argmin ||y - f||_n^2 + 2 lambda ||Delta(k) f||_1  and refuses
to declare convergence on iteration counts alone: a solution is accepted only
with a verified subgradient certificate

    2 (f_hat - y)/n + 2 lambda Delta(k)' u = 0,   u in the l1 subdifferential,

whose residual, box excess and sign mismatch are folded into
``FitResult.kkt_residual``.

``fit`` is the one driver: candidates are accepted there and nowhere else.  At
lambda = 0 the fit is y.  ``dp_k1`` (k = 1) certifies Condat's direct taut
string ``tv1d_exact``.  ``admm`` returns the polynomial fit, the minimizer
when lambda >= lambda_max, certified or not: only float64 rounding can fail
its certificate.  Otherwise ``_admm_iterates`` yields ADMM iterates at each
polish trigger: settled residuals, every 250th iteration, and the first
iteration of each run in which z does not move.  The driver polishes each new
(support, signs) by an exact active-set refinement and returns the first face
that satisfies KKT in exact arithmetic, flagged converged when its
certificate meets the tolerance.  It keeps the best uncertified iterate for
when every polish gives up and ``max_iter`` runs out.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .diffops import (_cached_polynomial_basis, build_delta, difference_coefficients, dual_witness,
                      falling_factorial_columns)

ALGORITHMS = ("admm", "dp_k1")

# ADMM starts from penalty RHO_INIT (then balanced against the residuals) and
# over-relaxes each update by OVER_RELAXATION; the polish gives up after
# POLISH_ROUNDS restricted solves.
RHO_INIT = 1.0
OVER_RELAXATION = 1.8
POLISH_ROUNDS = 60

# Fetched once: the scipy wrappers cholesky_banded / cho_solve_banded /
# solve_triangular validate their inputs and look these up again on every call
# of the ADMM loop and the restricted solve.
_PBTRF, _PBTRS, _TRTRS = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs", "trtrs"),
                                                       dtype=np.float64)


@dataclass(frozen=True)
class FitConfig:
    lam: float
    k: int
    tol_kkt: float = 1e-8
    max_iter: int = 50_000
    algorithm: str = "admm"

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError("lambda must be finite")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if not (math.isfinite(self.tol_kkt) and self.tol_kkt > 0):
            raise ValueError("tol_kkt must be finite and positive")
        if not isinstance(self.k, numbers.Integral) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.algorithm == "dp_k1" and self.k != 1:
            raise ValueError(f"algorithm dp_k1 requires k = 1, got k = {self.k}")


@dataclass(frozen=True)
class FitResult:
    """``converged`` means ``kkt_residual`` met ``tol_kkt``.  ``iters`` is 0
    at lambda = 0 and for the polynomial fit at lambda >= lambda_max, n for
    ``dp_k1``, the ADMM iteration whose polish trigger returned the fit (the
    iterate or its polished face), and ``max_iter`` when every polish gave up.
    An uncertified fit may therefore stop at 0 or at a trigger iteration: the
    polynomial fit or polished face it returns satisfies KKT in exact
    arithmetic, and only float64 rounding keeps the residual above
    ``tol_kkt``."""

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
    Q = _cached_polynomial_basis(len(y), k)
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
    P = _cached_polynomial_basis(n, k)
    if len(active):
        Phi = falling_factorial_columns(n, k, active)
        Phi -= P @ (P.T @ Phi)
        scales = np.linalg.norm(Phi, axis=0)
        X = np.concatenate([P, Phi / scales], axis=1)
        c = np.concatenate([np.zeros(k), signs / scales])
    else:
        X = P
        scales = np.zeros(0)
        c = np.zeros(k)
    # R is C-ordered, so R' is Fortran-ordered and LAPACK reads it in place.
    # These are the trtrs calls solve_triangular(R', ., lower=True) and
    # solve_triangular(R, .) make, so the bits are theirs.
    Rt = np.linalg.qr(X, mode="r").T
    target = n * lam * c
    theta = np.zeros(X.shape[1])
    for _ in range(3):
        defect = X.T @ (y - X @ theta) - target
        half, info = _TRTRS(Rt, defect, lower=1)
        delta, info_t = _TRTRS(Rt, half, lower=1, trans=1)
        if max(info, info_t) > 0:
            raise np.linalg.LinAlgError("singular R in the restricted solve")
        theta += delta
        if np.max(np.abs(defect)) <= 1e-14 * max(1.0, n * lam, float(np.max(np.abs(y)))):
            break
    f_hat = X @ theta
    b = theta[k:] / scales if len(active) else np.zeros(0)
    return f_hat, b


_POLISH_MAX_ACTIVE = 1500


def _polish(y, k, lam, active, signs, tol_kkt):
    """Active-set refinement: drop sign-inconsistent rows, else add the worst
    row of each run of consecutive rows whose dual exceeds the box.

    Returns (f_hat, u, kkt) at the first certified face, and at the first
    sign-consistent face with no off-support |u| > 1 + 1e-12 even when its
    certificate fails: that face satisfies KKT in exact arithmetic, so only
    float64 rounding can fail it.  A round is a pure function of its (active,
    signs) state, so a state seen before starts a cycle that could only run
    out the rounds: it returns None at once."""
    active = np.sort(np.asarray(active, dtype=int))
    signs = np.asarray(signs, dtype=float)
    if len(active) > _POLISH_MAX_ACTIVE:
        return None
    seen = set()
    for _ in range(POLISH_ROUNDS):
        state = (active.tobytes(), signs.tobytes())
        if state in seen:
            return None
        seen.add(state)
        f_hat, b = _restricted_solve(y, k, lam, active, signs)
        keep = b * signs > 0
        if not np.all(keep):
            active, signs = active[keep], signs[keep]
            continue
        u, kkt = _certificate(y, f_hat, lam, k, tol_kkt)
        if kkt <= tol_kkt:
            return f_hat, u, kkt
        mag = np.abs(u)
        over = mag > 1.0 + 1e-12
        over[active - k - 1] = False
        if not np.any(over):
            return f_hat, u, kkt
        # The worst row of each maximal run of consecutive violators.
        edges = np.flatnonzero(np.diff(over, prepend=False, append=False))
        worst = np.array([a + int(np.argmax(mag[a:b])) for a, b in zip(edges[::2], edges[1::2])])
        j = worst + k + 1
        pos = np.searchsorted(active, j)
        active = np.insert(active, pos, j)
        signs = np.insert(signs, pos, np.sign(u[worst]))
    return None


@lru_cache(maxsize=32)
def _cached_gram_bands(n, k):
    """Read-only D'D in upper banded (cholesky_banded) format, built once per
    (n, k).

    Row r of D carries the stencil c on columns r..r+k, so the d-th
    superdiagonal of D'D collects c_l c_{l+d} over the m = n - k rows.
    """
    c = difference_coefficients(k)
    m = n - k
    ab = np.zeros((k + 1, n))
    for d in range(k + 1):
        for l in range(k + 1 - d):
            ab[k - d, l + d:l + d + m] += c[l] * c[l + d]
    ab.setflags(write=False)
    return ab


def _admm_system_banded(n, k, rho):
    """(2/n) I + rho D'D in upper banded (cholesky_banded) format."""
    ab = _cached_gram_bands(n, k) * rho
    ab[k] += 2.0 / n
    return ab


def _diff_plan(src, k, out, rows):
    """``(minuend, subtrahend, out)`` views whose subtractions, run in order,
    leave ``np.diff(src, k)`` in ``out``: the same k differences in the same
    order, the intermediate ones held in the two scratch rows."""
    plan = []
    for j in range(1, k + 1):
        dst = out if j == k else rows[j % 2, :len(src) - 1]
        plan.append((src[1:], src[:-1], dst))
        src = dst
    return plan


def _admm_iterates(y, cfg):
    """ADMM on the analysis form, as iterates for ``fit``: a banded Cholesky
    factorization of (2/n) I + rho D'D, over-relaxed updates and residual
    balancing of rho.  Yields fresh (it, f, z) at each polish trigger and
    (max_iter, f, None) at the end.  The triggers are settled residuals, every
    250th iteration, and the first iteration of each run with dual residual
    s = 0: z did not move, since D' is injective.  rho doubles while s = 0, so
    a frozen z (the empty support, often from iteration 2) would otherwise
    wait for the 250th iteration; a run of frozen iterations yields once.

    Every array an iteration touches is allocated once per fit and written
    with ``out=``; each step keeps the operands and order of the plain
    expressions in the comments, so the iterates are those bits."""
    n, k = len(y), cfg.k
    m = n - k
    rho, alpha = RHO_INIT, OVER_RELAXATION
    two_y = (2.0 / n) * y
    # D' q = (-1)^k diff(q zero-padded by k on both sides, k); only the slice
    # pad[k:k + m] is ever written, so the padding stays zero.
    pad = np.zeros(m + 2 * k)
    body = pad[k:k + m]
    sign_t = (-1.0) ** k

    def factor(rho):
        chol, info = _PBTRF(_admm_system_banded(n, k, rho), lower=0)
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
        return chol

    chol = factor(rho)
    f = y.copy()                        # also the right-hand side: pbtrs solves in place
    z, z_old = np.diff(f, k), np.empty(m)
    w = np.zeros(m)
    Df, Df_rel, v, t, r = (np.empty(m) for _ in range(5))
    Dt = np.empty(n)                    # np.diff(pad, k) = (-1)^k D' q
    rows = np.empty((2, n + k - 1))
    transpose = _diff_plan(pad, k, Dt, rows)
    forward = _diff_plan(f, k, Df, rows)
    thresh_scale = math.sqrt(m)
    was_stuck = False
    for it in range(1, cfg.max_iter + 1):
        # f = solve(chol, two_y + (sign_t * rho) * np.diff(pad, k)), pad holding z - w
        np.subtract(z, w, out=body)
        for a, b, out in transpose:
            np.subtract(a, b, out=out)
        np.multiply(Dt, sign_t * rho, out=f)
        np.add(two_y, f, out=f)
        _PBTRS(chol, f, lower=0, overwrite_b=1)
        for a, b, out in forward:       # Df = np.diff(f, k)
            np.subtract(a, b, out=out)
        np.multiply(Df, alpha, out=Df_rel)  # Df_rel = alpha * Df + (1 - alpha) * z
        np.multiply(z, 1.0 - alpha, out=t)
        np.add(Df_rel, t, out=Df_rel)
        np.add(Df_rel, w, out=v)        # v = Df_rel + w
        z_old, z = z, z_old
        # z = np.sign(v) * np.maximum(np.abs(v) - 2 lam / rho, 0.0); a v - clip(v)
        # form would flip the sign of zeros
        np.abs(v, out=t)
        np.subtract(t, 2.0 * cfg.lam / rho, out=t)
        np.maximum(t, 0.0, out=t)
        np.sign(v, out=v)
        np.multiply(v, t, out=z)
        w += Df_rel
        w -= z
        np.subtract(Df, z, out=r)
        r_norm = math.sqrt(r.dot(r))
        np.subtract(z, z_old, out=body)  # s = np.diff(pad, k), pad holding z - z_old
        for a, b, out in transpose:
            np.subtract(a, b, out=out)
        s_norm = rho * math.sqrt(Dt.dot(Dt))
        scale = max(math.sqrt(Df.dot(Df)), math.sqrt(z.dot(z)), 1e-12)
        settled = r_norm <= 1e-7 * thresh_scale * scale and s_norm <= 1e-7 * thresh_scale * scale
        stuck = s_norm == 0.0
        if settled or it % 250 == 0 or (stuck and not was_stuck):
            yield it, f.copy(), z.copy()
        was_stuck = stuck
        if it % 10 == 0 and (r_norm > 10.0 * s_norm or s_norm > 10.0 * r_norm):
            step = 2.0 if r_norm > s_norm else 0.5    # a power of two: scales exactly
            rho *= step
            w /= step
            chol = factor(rho)
    yield cfg.max_iter, f, None


def tv1d_exact(y, lam):
    """Exact minimizer of 0.5 ||y - x||_2^2 + lam sum |x_{i+1} - x_i|.

    Condat's direct algorithm (IEEE SPL 2013, "A direct algorithm for 1-D
    total variation denoising"): one forward sweep over the taut string with
    jump backtracking, O(n) in practice.  The sweep runs on Python floats
    read once from y: they are IEEE doubles like numpy's float64 scalars, so
    every operation rounds as it would on those, without the interpreter
    overhead of numpy scalar indexing and arithmetic.  Each finished segment
    is written into the output by one slice assignment.
    """
    y = np.asarray(y, dtype=float)
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    n = len(y)
    x = np.empty(n)
    if n == 0:
        return x
    if n == 1 or lam <= 0:
        return y.copy()
    ys = y.tolist()
    k = k0 = kminus = kplus = 0
    vmin = ys[0] - lam
    vmax = ys[0] + lam
    umin = lam
    umax = -lam
    while True:
        if k == n - 1:
            if umin < 0.0:
                x[k0:kminus + 1] = vmin
                k = k0 = kminus = kminus + 1
                vmin = ys[k]
                umin = lam
                umax = ys[k] + lam - vmax
            elif umax > 0.0:
                x[k0:kplus + 1] = vmax
                k = k0 = kplus = kplus + 1
                vmax = ys[k]
                umax = -lam
                umin = ys[k] - lam - vmin
            else:
                x[k0:n] = vmin + umin / (k - k0 + 1)
                return x
            continue
        y_next = ys[k + 1]
        if y_next + umin < vmin - lam:
            x[k0:kminus + 1] = vmin
            k = k0 = kminus = kplus = kminus + 1
            vmin = ys[k]
            vmax = ys[k] + 2.0 * lam
            umin = lam
            umax = -lam
        elif y_next + umax > vmax + lam:
            x[k0:kplus + 1] = vmax
            k = k0 = kminus = kplus = kplus + 1
            vmin = ys[k] - 2.0 * lam
            vmax = ys[k]
            umin = lam
            umax = -lam
        else:
            k += 1
            umin += y_next - vmin
            umax += y_next - vmax
            if umin >= lam:
                vmin += (umin - lam) / (k - k0 + 1)
                umin = lam
                kminus = k
            if umax <= -lam:
                vmax += (umax + lam) / (k - k0 + 1)
                umax = -lam
                kplus = k


def _result(y, cfg, f_hat, dual, kkt, iters, converged):
    """The one constructor of ``FitResult``; the objective is recomputed."""
    return FitResult(f_hat=f_hat, objective=objective(f_hat, y, cfg.lam, cfg.k),
                     kkt_residual=kkt, dual=dual, iters=iters, converged=converged,
                     lam=cfg.lam, k=cfg.k)


def fit(y, cfg):
    """Solve the penalized problem; the result is flagged converged only when
    the KKT certificate meets ``cfg.tol_kkt``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be one-dimensional")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    n, k, lam, tol = len(y), cfg.k, cfg.lam, cfg.tol_kkt
    if n < k + 1:
        raise ValueError(f"need n >= k + 1 = {k + 1}, got n = {n}")
    if lam == 0.0:
        return _result(y, cfg, y.copy(), np.zeros(n - k), 0.0, 0, True)
    if cfg.algorithm == "dp_k1":
        f_hat = tv1d_exact(y, n * lam)
        u, kkt = _certificate(y, f_hat, lam, k, tol)
        return _result(y, cfg, f_hat, u, kkt, n, kkt <= tol)
    if lam >= lambda_max(y, k):
        # The minimizer is the polynomial fit, so a candidate that fails its
        # certificate fails on float64 rounding alone and is returned as it is.
        f_hat = _restricted_solve(y, k, lam, [], [])[0]
        u, kkt = _certificate(y, f_hat, lam, k, tol)
        return _result(y, cfg, f_hat, u, kkt, 0, kkt <= tol)
    best = None                     # (f, u, kkt) of the lowest uncertified residual
    polished = (None, None)         # the last polished (support, signs)
    for it, f, z in _admm_iterates(y, cfg):
        if z is None:
            break
        supp = np.nonzero(z)[0]
        signs = np.sign(z[supp])
        # _polish is a pure function of its arguments and every earlier call
        # returned None, so a repeated (support, signs) is skipped.
        if not (np.array_equal(supp, polished[0]) and np.array_equal(signs, polished[1])):
            hit = _polish(y, k, lam, supp + k + 1, signs, tol)
            if hit is not None:
                f_hat, u, kkt = hit
                return _result(y, cfg, f_hat, u, kkt, it, kkt <= tol)
            polished = (supp, signs)
        u, kkt = _certificate(y, f, lam, k, tol)
        if kkt <= tol:
            return _result(y, cfg, f, u, kkt, it, True)
        if best is None or kkt < best[2]:
            best = (f, u, kkt)
    if best is None:
        # No trigger was reached: report the last iterate.
        best = (f, *_certificate(y, f, lam, k, tol))
    return _result(y, cfg, *best, cfg.max_iter, False)


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
