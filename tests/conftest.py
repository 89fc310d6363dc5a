import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from tvtrend import estimator as est
from tvtrend.constants import minimum_segment_length
from tvtrend.diffops import ActiveSet, build_delta, polynomial_basis


def dense_delta(n, k):
    """Independent dense construction of the difference operator."""
    return np.diff(np.eye(n), k, axis=0)


def dense_pinv(n, k):
    """Reference pseudo-inverse via SVD (numpy.linalg.pinv oracle)."""
    return np.linalg.pinv(dense_delta(n, k))


def boundary_rows(n, k):
    """The k x n block completing Delta(k) to an invertible map: row i takes
    the (i-1)-th order difference of the first i entries.  The inverse of the
    stacked matrix has the falling-factorial columns phi_j, j > k, as its last
    n - k columns."""
    A = np.zeros((k, n))
    for i in range(1, k + 1):
        for j in range(1, i + 1):
            A[i - 1, j - 1] = (-1) ** (i + j) * math.comb(i - 1, j - 1)
    return A


def block_polynomial_basis(S):
    """Orthonormal basis (n x k(s+1)) of the augmented null space: the degree
    < k polynomials on each block of the active set, from a QR of monomials
    in a centred coordinate."""
    pieces = []
    for a, b, nb in S.blocks():
        p = min(S.k, nb)
        x = np.linspace(-1.0, 1.0, nb) if nb > 1 else np.zeros(1)
        block = np.zeros((S.n, p))
        block[a - 1:b] = np.linalg.qr(np.vander(x, p, increasing=True))[0]
        pieces.append(block)
    return np.concatenate(pieces, axis=1)


def block_dictionary_reference(S):
    """Dense Psi^{-S}: each block's SVD pseudo-inverse columns embedded at the
    block coordinates.  Returns (rows, columns), rows the surviving 1-based
    row indices in ascending order."""
    rows, cols = [], []
    for a, b, nb in S.blocks():
        if nb <= S.k:
            continue
        block = np.zeros((S.n, nb - S.k))
        block[a - 1:b] = dense_pinv(nb, S.k)
        rows.extend(range(a + S.k, b + 1))
        cols.append(block)
    columns = np.concatenate(cols, axis=1) if cols else np.zeros((S.n, 0))
    return np.array(rows, dtype=int), columns


def tv_dual_reference(y, lam, k):
    """Reference minimizer through the box-constrained dual:

        f_hat = y - n lam D' u,  u = argmin_{|u| <= 1} ||y - n lam D' u||_2.

    Independent of both the ADMM path and the taut-string program.
    """
    n = len(y)
    op = build_delta(n, k)
    A = n * lam * op.apply_transpose(np.eye(op.m))
    res = scipy.optimize.lsq_linear(A, y, bounds=(-1.0, 1.0), method="bvls", tol=1e-14)
    return y - A @ res.x


def admm_reference(y, cfg):
    """The ADMM loop written plainly: scipy's banded Cholesky wrappers,
    ``apply_transpose``, ``np.linalg.norm`` and a polish at every trigger.

    ``estimator.fit`` must reproduce it bit for bit below lambda_max.
    """
    n = len(y)
    k = cfg.k
    op = build_delta(n, k)
    rho = cfg.rho
    alpha = cfg.over_relaxation

    def factor(rho):
        return scipy.linalg.cholesky_banded(est._admm_system_banded(n, k, rho), lower=False)

    chol = factor(rho)
    f = y.copy()
    z = op.apply(f)
    w = np.zeros(op.m)
    thresh_scale = math.sqrt(op.m)
    best = None
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
        if settled or it % 250 == 0:
            supp = np.nonzero(z)[0]
            polished = est._polish(y, k, cfg.lam, supp + k + 1, np.sign(z[supp]), cfg.tol_kkt)
            if polished is not None:
                f_hat, u, kkt = polished
                return est.FitResult(f_hat=f_hat, objective=est.objective(f_hat, y, cfg.lam, k),
                                     kkt_residual=kkt, dual=u, iters=it, converged=True,
                                     lam=cfg.lam, k=k)
            u, kkt = est._certificate(y, f, cfg.lam, k, cfg.tol_kkt)
            if best is None or kkt < best[2]:
                best = (f.copy(), u, kkt, it)
            if kkt <= cfg.tol_kkt:
                return est.FitResult(f_hat=f, objective=est.objective(f, y, cfg.lam, k),
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
        u, kkt = est._certificate(y, f, cfg.lam, k, cfg.tol_kkt)
        best = (f, u, kkt, cfg.max_iter)
    f_hat, u, kkt, _ = best
    return est.FitResult(f_hat=f_hat, objective=est.objective(f_hat, y, cfg.lam, k),
                         kkt_residual=kkt, dual=u, iters=cfg.max_iter, converged=False,
                         lam=cfg.lam, k=k)


def ff_columns_reference(n, k, rows):
    """Falling-factorial columns filled one column at a time; the vectorized
    ``diffops.falling_factorial_columns`` must agree bit for bit."""
    cols = np.zeros((n, len(rows)))
    i = np.arange(1, n + 1)
    for idx, j in enumerate(rows):
        mask = i >= j
        vals = np.ones(n)
        for r in range(1, k):
            vals = vals * (i - j + r) / r
        cols[mask, idx] = vals[mask]
    return cols


def restricted_solve_reference(y, k, lam, active, signs):
    """``estimator._restricted_solve`` with a fresh polynomial basis, the
    column-by-column falling-factorial block and a full QR.  The estimator
    must agree bit for bit.

    Parametrizes f = P a + sum psi_j b_j with psi_j the dictionary columns
    anti-projected against the orthonormal polynomial block (same
    differences, far better conditioning), unit-rescaled, solved by QR with
    two rounds of iterative refinement on the stationarity equations.
    Returns (f_hat, b) with b the differences at the active rows.
    """
    n = len(y)
    P = polynomial_basis(n, k)
    if len(active):
        Phi = ff_columns_reference(n, k, active)
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


def tv1d_reference(y, lam):
    """Condat's direct taut-string algorithm on numpy scalars: the loop that
    ``estimator.tv1d_exact`` runs on Python floats.  The two must agree bit
    for bit.
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


def sparsity_dual_reference(S, weights=None):
    """Effective sparsity via the dual box-constrained least-squares form:

        Gamma = max(0, min { sqrt(n) ||D_S' q_S - D_off' xi||_2 :
                             |xi_j| <= 1 - w_j }),

    the exact value of the concave maximization (minimax equality).
    """
    n, k = S.n, S.k
    op = build_delta(n, k)
    D = op.to_dense()
    active = [t - k - 1 for t in S.t]
    off = np.setdiff1d(np.arange(op.m), active)
    c = D[active].T @ np.asarray(S.q_S, dtype=float) if active else np.zeros(n)
    caps = np.ones(len(off))
    if weights is not None:
        caps = 1.0 - weights.w[off]
    A = D[off].T
    res = scipy.optimize.lsq_linear(A, c, bounds=(-caps, caps), method="bvls", tol=1e-14)
    val = math.sqrt(n) * np.linalg.norm(A @ res.x - c)
    return max(0.0, val) ** 2


def random_active_set(rng, k, max_s=3, max_mult=4, n_pad=0):
    """Random active set with segment lengths in [k(k+2), max_mult*k(k+2))."""
    min_len = minimum_segment_length(k)
    s = int(rng.integers(0, max_s + 1))
    lengths = min_len + rng.integers(0, (max_mult - 1) * min_len + 1, size=s + 1)
    n = int(np.sum(lengths)) + k - 1 + int(rng.integers(0, n_pad + 1))
    t, pos = [], k
    for i in range(s):
        pos += int(lengths[i])
        t.append(pos)
    signs = tuple(int(v) for v in rng.choice([-1, 1], size=s))
    return ActiveSet(n=n, k=k, t=tuple(t), q_S=signs)


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
