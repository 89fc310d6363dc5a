"""Reference computations that the benchmark checks tvtrend's outputs against.

Everything here is written from the definitions, not from tvtrend's code:
the trend-filtering dual by repeated suffix sums, the Monte-Carlo events from
per-block ``numpy.linalg.pinv`` and per-block polynomial bases, and the
effective sparsity from ``scipy.optimize.lsq_linear(method="bvls")``.  The
only things taken from the package are the shipped constants (c_k, C_k) and
its ``ActiveSet`` record, which the checks read as plain data.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize

# relative agreement demanded of two computations of one float
REL_TOL = 1e-9
# relative agreement demanded between the direct oracle and the bvls value;
# correct instances agree to 1e-9, the known underestimates miss by 3-67%
SPARSITY_REL_TOL = 1e-6


def stencil(k):
    """Coefficients c_l of (Delta^k f)_j = sum_l c_l f_{j-l}."""
    return [(-1) ** l * math.comb(k, l) for l in range(k + 1)]


def delta_transpose(u, k):
    """Delta^k' u by scattering the stencil of every row."""
    out = np.zeros(len(u) + k)
    for l, c in enumerate(stencil(k)):
        out[k - l: k - l + len(u)] += c * u
    return out


def suffix_dual(h, k):
    """The u with Delta^k' u = h for h orthogonal to degree < k polynomials:
    k repeated suffix sums of h, dropping the first k entries."""
    u = np.asarray(h, dtype=float)
    for _ in range(k):
        u = np.cumsum(u[::-1])[::-1]
    return u[k:]


def cumsum_k(d, k):
    """Signal whose k-th differences at rows j >= k+1 (1-based) equal d[j-1]."""
    f = np.asarray(d, dtype=float)
    for _ in range(k):
        f = np.cumsum(f)
    return f


def polynomial_projection(y, k):
    """Least-squares projection of y onto degree < k polynomials."""
    x = np.linspace(-1.0, 1.0, len(y))
    V = np.polynomial.legendre.legvander(x, k - 1)
    Q, _ = np.linalg.qr(V)
    return Q @ (Q.T @ y)


def lambda_max(y, k):
    """Smallest lambda whose fit is the polynomial projection of y."""
    return float(np.max(np.abs(suffix_dual(y - polynomial_projection(y, k), k)))) / len(y)


def kkt(y, f_hat, lam, k, tol):
    """Optimality of f_hat for ||y - f||_n^2 + 2 lam ||Delta^k f||_1.

    Returns (ok, worst) where worst is the largest of the stationarity
    residual 2 (f_hat - y)/n + 2 lam Delta' u, the box excess |u|_inf - 1 and
    the sign mismatch u_j - sign((Delta^k f_hat)_j) on the differences
    clearly away from zero, |(Delta^k f_hat)_j| > 10 tol, the threshold
    tvtrend's certificate documents: a certified ADMM iterate may keep
    differences below it whose sign disagrees with u.
    """
    n = len(y)
    u = suffix_dual((y - f_hat) / (n * lam), k)
    stat = float(np.max(np.abs(2.0 * (f_hat - y) / n + 2.0 * lam * delta_transpose(u, k))))
    box = max(0.0, float(np.max(np.abs(u))) - 1.0)
    d = np.diff(f_hat, k)
    strong = np.abs(d) > 10.0 * tol
    sign = float(np.max(np.abs(u[strong] - np.sign(d[strong])), initial=0.0))
    worst = max(stat, box, sign)
    return worst <= tol, worst


def close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Monte-Carlo trials
# ---------------------------------------------------------------------------

def equispaced_jumps(n, k, s0):
    """Jump rows of the equispaced layout: k + round(i (n+1-k) / (s0+1))."""
    span = n + 1 - k
    return [k + round(i * span / (s0 + 1)) for i in range(1, s0 + 1)]


def blocks(n, t):
    """1-based coordinate ranges [a, b] of the segments that remain once the
    active rows t and their k-1 mock rows are removed from Delta^k:
    [1, t_1 - 1], [t_1, t_2 - 1], ..., [t_s, n]."""
    edges = [1] + list(t) + [n + 1]
    return [(edges[i], edges[i + 1] - 1) for i in range(len(edges) - 1)]


def lambda0(u, n, free_rows):
    return math.sqrt((2.0 * math.log(2.0 * free_rows) + 2.0 * u) / n)


def lambda_threshold(n, k, n_max, u, s, c_k):
    return c_k * n ** (k - 1) * (n_max / (2.0 * n)) ** ((2 * k - 1) / 2.0) * lambda0(u, n, n - k - s)


def segment_lengths(n, k, t):
    edges = [k] + list(t) + [n + 1]
    return [edges[i + 1] - edges[i] for i in range(len(edges) - 1)]


def gamma_closed_form(n, k, t, signs, C_k):
    """n C_k sum_i (1 + log n_i) / d_i^{2k-1} with d_i = n_i on sign-flip
    and boundary segments and d_i = n_max elsewhere."""
    lengths = segment_lengths(n, k, t)
    n_max = max(lengths)
    total = 0.0
    for i, n_i in enumerate(lengths):
        flip = i == 0 or i == len(lengths) - 1 or signs[i - 1] != signs[i]
        total += (1.0 + math.log(n_i)) / (n_i if flip else n_max) ** (2 * k - 1)
    return n * C_k * total


class TrialReference:
    """Independent recomputation of one Monte-Carlo configuration.

    Built from (n, k, s0, jump_delta, u, v, seed) and the shipped constants:
    the signal from its jump rows, the threshold lambda, the adaptive bound
    at the oracle, the event-U dictionary as per-block ``numpy.linalg.pinv``
    columns and the event-V basis as per-block orthonormal polynomials.
    """

    def __init__(self, cfg, c_k, C_k):
        n, k, s0 = cfg.n, cfg.k, cfg.s0
        self.cfg = cfg
        self.t = equispaced_jumps(n, k, s0)
        self.signs = [(-1) ** i for i in range(s0)]
        d = np.zeros(n)
        for row, sg in zip(self.t, self.signs):
            d[row - 1] = cfg.jump_delta * float(n) ** (-(k - 1)) * sg
        self.f0 = cumsum_k(d, k)
        n_max = max(segment_lengths(n, k, self.t))
        self.lam = lambda_threshold(n, k, n_max, cfg.u, s0, c_k)
        gamma = gamma_closed_form(n, k, self.t, self.signs, C_k)
        self.bound = (math.sqrt(k * (s0 + 1) / n) + math.sqrt(2.0 * cfg.v / n)
                      + self.lam * math.sqrt(gamma)) ** 2
        self.lam0 = lambda0(cfg.u, n, n - k - s0)
        self.v_radius = math.sqrt(k * (s0 + 1)) + math.sqrt(2.0 * cfg.v)
        self.blocks = []
        pinvs = {}
        for a, b in blocks(n, self.t):
            nb = b - a + 1
            if nb not in pinvs:
                P = np.linalg.pinv(np.diff(np.eye(nb), k, axis=0))
                x = np.linspace(-1.0, 1.0, nb)
                Q, _ = np.linalg.qr(np.polynomial.legendre.legvander(x, min(k, nb) - 1))
                pinvs[nb] = (P / np.linalg.norm(P, axis=0), Q)
            self.blocks.append((a - 1, b, *pinvs[nb]))

    def noise(self, trial):
        gen = np.random.Generator(np.random.Philox(key=np.uint64(self.cfg.seed)).jumped(trial))
        return gen.standard_normal(self.cfg.n)

    def events(self, eps):
        """(event U held, event V held, distance of each statistic to its
        threshold relative to the threshold)."""
        n = self.cfg.n
        corr, proj = 0.0, 0.0
        for lo, hi, P_unit, Q in self.blocks:
            e = eps[lo:hi]
            if P_unit.shape[1]:
                corr = max(corr, float(np.max(np.abs(e @ P_unit))) / math.sqrt(n))
            proj += float(np.sum((Q.T @ e) ** 2))
        proj = math.sqrt(proj)
        margin = min(abs(corr - self.lam0) / self.lam0, abs(proj - self.v_radius) / self.v_radius)
        return corr <= self.lam0, proj <= self.v_radius, margin


def rate_floor(total, p0, z=1.96):
    """Lowest acceptable observed rate for a target p0 over ``total`` trials:
    p0 less the Wilson margin z sqrt(p0 (1 - p0) / total)."""
    return p0 - z * math.sqrt(p0 * (1.0 - p0) / total)


# ---------------------------------------------------------------------------
# effective sparsity
# ---------------------------------------------------------------------------

def sparsity_weights(n, k, t, u, lam):
    """w_j = ||psi_j^{-S}||_n lambda0(u) / lambda at the free rows (0-based
    positions j - k - 1), from per-block pseudo-inverse column lengths."""
    w = np.zeros(n - k)
    l0 = lambda0(u, n, n - k - len(t))
    for a, b in blocks(n, t):
        nb = b - a + 1
        if nb <= k:
            continue
        sq = np.sum(np.linalg.pinv(np.diff(np.eye(nb), k, axis=0)) ** 2, axis=0)
        rows = np.arange(a - 1 + k + 1, b + 1)
        w[rows - k - 1] = np.sqrt(sq / n) * l0 / lam
    return w


def sparsity_reference(n, k, t, signs, w):
    """Effective sparsity by bvls on the dual box-constrained least squares

        Gamma = max(0, min sqrt(n) ||D_S' q_S - D_off' xi||_2 : |xi_j| <= 1 - w_j)^2,

    confirmed by the primal objective at f = sqrt(n) r / ||r|| with
    r = D_S' q_S - D_off' xi* (weak duality makes it a lower bound; equality
    proves xi* optimal).  Returns (gamma_sq, primal_matches).
    """
    D = np.diff(np.eye(n), k, axis=0)
    active = [j - k - 1 for j in t]
    off = np.setdiff1d(np.arange(n - k), active)
    c = D[active].T @ np.asarray(signs, dtype=float) if len(t) else np.zeros(n)
    caps = 1.0 - w[off]
    A = D[off].T
    res = scipy.optimize.lsq_linear(A, c, bounds=(-caps, caps), method="bvls", tol=1e-14)
    r = c - A @ res.x
    dual = math.sqrt(n) * float(np.linalg.norm(r))
    if dual <= 1e-12:
        return 0.0, True
    f = math.sqrt(n) * r / np.linalg.norm(r)
    df = D @ f
    primal = float(np.asarray(signs, dtype=float) @ df[active]) - float(caps @ np.abs(df[off]))
    # bvls stops with a relative duality gap of about 1e-8, far inside the
    # 1e-6 agreement demanded of the oracle
    return dual ** 2, abs(primal - dual) <= 1e-7 * dual
