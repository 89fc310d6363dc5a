import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from tvtrend import estimator as est
from tvtrend.constants import minimum_segment_length
from tvtrend.diffops import ActiveSet, build_delta


def dense_delta(n, k):
    """Independent dense construction of the difference operator."""
    return np.diff(np.eye(n), k, axis=0)


def dense_pinv(n, k):
    """Reference pseudo-inverse via SVD (numpy.linalg.pinv oracle)."""
    return np.linalg.pinv(dense_delta(n, k))


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
