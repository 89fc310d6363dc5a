import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from tvtrend import estimator as est
from tvtrend import experiments
from tvtrend.constants import minimum_segment_length
from tvtrend.diffops import ActiveSet, build_delta, difference_coefficients, polynomial_basis
from tvtrend.interpolants import MatchingSystemError, n_subintervals, noisy_exponent


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


def recipe_input(k, n=4096, frac=0.3):
    """The signal of ExperimentConfig(n, k, s0=8, seed=7), the noise of trial
    0 and lambda = frac lambda_max, with a default FitConfig."""
    cfg = experiments.ExperimentConfig(n=n, k=k, s0=8, replications=1, seed=7)
    f0, _ = experiments.generate_signal(cfg)
    y = f0 + experiments.trial_rng(7, 0).standard_normal(cfg.n)
    return y, est.FitConfig(lam=frac * est.lambda_max(y, k), k=k)


def jump_signal(rng, n, k, jumps):
    """Unit noise on a piecewise polynomial of degree k - 1 with ``jumps``
    jumps of alternating sign and size U(0.5, 1.5) 10 n^{-(k-1)} in its
    (k-1)-th difference, at rows at least k (k + 2) apart."""
    gap = k * (k + 2)
    cuts = np.sort(rng.integers(0, n + 2 - k - (jumps + 1) * gap, size=jumps))
    rows = k + gap * np.arange(1, jumps + 1) + cuts
    d = np.zeros(n)
    d[rows - 1] = (10.0 * float(n) ** (-(k - 1)) * (-1.0) ** np.arange(jumps)
                   * rng.uniform(0.5, 1.5, size=jumps))
    for _ in range(k):
        d = np.cumsum(d)
    return d + rng.standard_normal(n)


def battery_inputs():
    """32 seeded inputs: n in {512, 2048}, k = 1..4, 1-8 jumps, lambda in
    U(0.05, 0.5) lambda_max, at most 2000 ADMM iterations."""
    rng = np.random.default_rng(20261019)
    cases = []
    for _ in range(32):
        n, k = int(rng.choice([512, 2048])), int(rng.integers(1, 5))
        y = jump_signal(rng, n, k, int(rng.integers(1, 9)))
        cases.append((y, est.FitConfig(lam=float(rng.uniform(0.05, 0.5)) * est.lambda_max(y, k),
                                       k=k, max_iter=2000)))
    return cases


def n4096_inputs():
    """24 seeded inputs at n = 4096: k = 1..4, 4 or 16 jumps, three draws
    each, lambda in U(0.05, 0.5) lambda_max, at most 1000 ADMM iterations."""
    rng = np.random.default_rng(20261020)
    inputs = []
    for k in (1, 2, 3, 4):
        for jumps in (4, 16):
            for _ in range(3):
                y = jump_signal(rng, 4096, k, jumps)
                lam = float(rng.uniform(0.05, 0.5)) * est.lambda_max(y, k)
                inputs.append((y, est.FitConfig(lam=lam, k=k, max_iter=1000)))
    return inputs


# The draws of the benchmark's fit-n4096 slots (k, jumps, draw) that its
# batch passes over and that now certify in 0.01-0.11 s each.  (3, 4, 1) is
# left out here too: it runs all 50 000 ADMM iterations (about 9 s).
LEFT_OUT_DRAWS = ((2, 4, 0), (2, 4, 1), (3, 16, 2))


def left_out_input(k, jumps, draw):
    """The benchmark's fit-n4096 input of slot (k, jumps, draw), rebuilt from
    its recipe: a piecewise polynomial of degree k - 1 with ``jumps`` jumps
    of alternating sign, random overall sign and size U(0.5, 1.5) 10 n^{-(k-1)}
    in its (k-1)-th difference, at rows at least k (k + 2) apart; unit noise;
    lambda in U(0.05, 0.5) times the lambda_max of a Legendre-QR polynomial
    projection and repeated suffix sums.  Returns (y, FitConfig)."""
    n = 4096
    rng = np.random.default_rng([4096, k, jumps, draw])
    gap = k * (k + 2)
    cuts = np.sort(rng.integers(0, n + 2 - k - (jumps + 1) * gap, size=jumps))
    rows = k + gap * np.arange(1, jumps + 1) + cuts
    signs = (-1.0) ** np.arange(jumps) * rng.choice([-1.0, 1.0])
    d = np.zeros(n)
    d[rows - 1] = 10.0 * float(n) ** (-(k - 1)) * signs * rng.uniform(0.5, 1.5, size=jumps)
    for _ in range(k):
        d = np.cumsum(d)
    y = d + rng.standard_normal(n)
    Q = np.linalg.qr(np.polynomial.legendre.legvander(np.linspace(-1.0, 1.0, n), k - 1))[0]
    u = y - Q @ (Q.T @ y)
    for _ in range(k):
        u = np.cumsum(u[::-1])[::-1]
    lam = float(rng.uniform(0.05, 0.5)) * (float(np.max(np.abs(u[k:]))) / n)
    return y, est.FitConfig(lam=lam, k=k)


def left_out_inputs():
    return [left_out_input(*draw) for draw in LEFT_OUT_DRAWS]


def admm_reference(y, cfg, frozen_trigger=False):
    """The ADMM loop written plainly: ``scipy.linalg.solveh_banded`` on the
    banded system for every f-update, ``apply_transpose``,
    ``np.linalg.norm`` and a polish at every trigger.

    The triggers are settled residuals and every 250th iteration; with
    ``frozen_trigger`` also the first iteration of each run in which z equals
    the previous z.  The first face a polish returns is the fit; no raw
    iterate is accepted, and when every polish gives up the fit is the final
    iterate, with its own certificate, at ``max_iter``.  ``estimator.fit``
    must reproduce the loop with it bit for bit below lambda_max; without it,
    the same f_hat, dual, residual and ``converged`` whenever a fit
    certifies, at an ``iters`` no later.
    """
    n = len(y)
    k = cfg.k
    op = build_delta(n, k)
    rho = est.RHO_INIT
    alpha = est.OVER_RELAXATION
    f = y.copy()
    z = op.apply(f)
    w = np.zeros(op.m)
    thresh_scale = math.sqrt(op.m)
    was_frozen = False
    for it in range(1, cfg.max_iter + 1):
        rhs = (2.0 / n) * y + rho * op.apply_transpose(z - w)
        f = scipy.linalg.solveh_banded(est._admm_system_banded(n, k, rho), rhs)
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
        frozen = frozen_trigger and np.array_equal(z, z_old)
        if settled or it % 250 == 0 or (frozen and not was_frozen):
            supp = np.nonzero(z)[0]
            polished = est._polish(y, k, cfg.lam, supp + k + 1, np.sign(z[supp]), cfg.tol_kkt)
            if polished is not None:
                f_hat, u, kkt = polished
                return est.FitResult(f_hat=f_hat, objective=est.objective(f_hat, y, cfg.lam, k),
                                     kkt_residual=kkt, dual=u, iters=it,
                                     converged=kkt <= cfg.tol_kkt, lam=cfg.lam, k=k)
        was_frozen = frozen
        if it % 10 == 0:
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                w /= 2.0
            elif s_norm > 10.0 * r_norm:
                rho /= 2.0
                w *= 2.0
    u, kkt = est._certificate(y, f, cfg.lam, k, cfg.tol_kkt)
    return est.FitResult(f_hat=f, objective=est.objective(f, y, cfg.lam, k),
                         kkt_residual=kkt, dual=u, iters=cfg.max_iter,
                         converged=kkt <= cfg.tol_kkt, lam=cfg.lam, k=k)


def admm_system_banded_reference(n, k, rho):
    """(2/n) I + rho D'D in upper banded format, built from scratch on every
    call; ``estimator._admm_system_banded`` must agree bit for bit."""
    c = difference_coefficients(k)
    m = n - k
    ab = np.zeros((k + 1, n))
    for d in range(k + 1):
        for l in range(k + 1 - d):
            ab[k - d, l + d:l + d + m] += c[l] * c[l + d]
    ab *= rho
    ab[k] += 2.0 / n
    return ab


def admm_iterates_reference(y, cfg, frozen_trigger=False):
    """The ADMM iterate generator written with fresh arrays and ``np.diff``
    on every step, yielding at settled residuals and every 250th iteration,
    and with ``frozen_trigger`` also at the first iteration of each run in
    which z equals the previous z.  Each f-update is
    ``scipy.linalg.solveh_banded`` on the banded system; a factorization it
    refuses raises with the estimator's wording ("237-th leading minor"
    where scipy writes "237th").  ``estimator._admm_iterates`` must yield
    the same bits as with it, and a superset of the yields without it."""
    n, k = len(y), cfg.k
    m = n - k
    rho, alpha = est.RHO_INIT, est.OVER_RELAXATION
    two_y = (2.0 / n) * y
    # D' q = (-1)^k diff(q zero-padded by k on both sides, k); only the slice
    # pad[k:k + m] is ever written, so the padding stays zero.
    pad = np.zeros(m + 2 * k)
    body = pad[k:k + m]
    sign_t = (-1.0) ** k
    f = y.copy()
    z = np.diff(f, k)
    w = np.zeros(m)
    thresh_scale = math.sqrt(m)
    was_frozen = False
    for it in range(1, cfg.max_iter + 1):
        np.subtract(z, w, out=body)
        rhs = two_y + (sign_t * rho) * np.diff(pad, k)
        try:
            f = scipy.linalg.solveh_banded(admm_system_banded_reference(n, k, rho), rhs)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(str(exc).replace("th leading", "-th leading")) from None
        Df = np.diff(f, k)
        Df_rel = alpha * Df + (1.0 - alpha) * z
        z_old = z
        v = Df_rel + w
        z = np.sign(v) * np.maximum(np.abs(v) - 2.0 * cfg.lam / rho, 0.0)
        w += Df_rel
        w -= z
        r = Df - z
        r_norm = math.sqrt(r @ r)
        np.subtract(z, z_old, out=body)
        s = np.diff(pad, k)
        s_norm = rho * math.sqrt(s @ s)
        scale = max(math.sqrt(Df @ Df), math.sqrt(z @ z), 1e-12)
        settled = r_norm <= 1e-7 * thresh_scale * scale and s_norm <= 1e-7 * thresh_scale * scale
        frozen = frozen_trigger and np.array_equal(z, z_old)
        if settled or it % 250 == 0 or (frozen and not was_frozen):
            yield it, f, z
        was_frozen = frozen
        if it % 10 == 0 and (r_norm > 10.0 * s_norm or s_norm > 10.0 * r_norm):
            step = 2.0 if r_norm > s_norm else 0.5    # a power of two: scales exactly
            rho *= step
            w /= step
    yield cfg.max_iter, f, None


def polish_reference(y, k, lam, active, signs, tol_kkt):
    """The one-worst-row polish: each round adds only the single worst
    violating row, and a face left with no violator gives up (None) whatever
    its certificate, so ``fit`` goes on to the next trigger.  Wherever ``fit``
    certifies with it, ``fit`` with ``estimator._polish`` must return the same
    f_hat, dual and residual bits."""
    active = np.sort(np.asarray(active, dtype=int))
    signs = np.asarray(signs, dtype=float)
    if len(active) > est._POLISH_MAX_ACTIVE:
        return None
    seen = set()
    for _ in range(est.POLISH_ROUNDS):
        state = (active.tobytes(), signs.tobytes())
        if state in seen:
            return None
        seen.add(state)
        f_hat, b = est._restricted_solve(y, k, lam, active, signs)
        keep = b * signs > 0
        if not np.all(keep):
            active, signs = active[keep], signs[keep]
            continue
        u, kkt = est._certificate(y, f_hat, lam, k, tol_kkt)
        if kkt <= tol_kkt:
            return f_hat, u, kkt
        over = np.abs(u) > 1.0 + 1e-12
        over[active - k - 1] = False
        if not np.any(over):
            return None
        worst = int(np.argmax(np.abs(u) * over))
        j = worst + k + 1
        pos = int(np.searchsorted(active, j))
        active = np.insert(active, pos, j)
        signs = np.insert(signs, pos, np.sign(u[worst]))
    return None


def polish_exact_reference(y, k, lam, active, signs, tol_kkt):
    """``estimator._polish`` with every face solved exactly by
    ``_restricted_solve`` and none screened.  Wherever the screen's error
    estimates hold, ``fit`` with ``estimator._polish`` returns the same bits
    as ``fit`` with this polish.

    Active-set refinement: drop sign-inconsistent rows, else add the worst
    row of each run of consecutive rows whose dual exceeds the box.

    Returns (f_hat, u, kkt) at the first certified face, and at the first
    sign-consistent face with no off-support |u| > 1 + 1e-12 even when its
    certificate fails: that face satisfies KKT in exact arithmetic, so only
    float64 rounding can fail it.  A round is a pure function of its (active,
    signs) state, so a state seen before starts a cycle that could only run
    out the rounds: it returns None at once."""
    active = np.sort(np.asarray(active, dtype=int))
    signs = np.asarray(signs, dtype=float)
    if len(active) > est._POLISH_MAX_ACTIVE:
        return None
    seen = set()
    for _ in range(est.POLISH_ROUNDS):
        state = (active.tobytes(), signs.tobytes())
        if state in seen:
            return None
        seen.add(state)
        f_hat, b = est._restricted_solve(y, k, lam, active, signs)
        keep = b * signs > 0
        if not np.all(keep):
            active, signs = active[keep], signs[keep]
            continue
        u, kkt = est._certificate(y, f_hat, lam, k, tol_kkt)
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


class PolishLog:
    """Every face a polish solves, in order: ("screen", state) for each call
    of ``_FaceColumns.solve`` and ("qr", state) for each call of
    ``_restricted_solve``, with state = (active rows, signs) as tuples.

    A polish round screens its face, solves it by QR (the starting face), or
    both on one state (where the screen stops); ``rounds`` counts each round
    once, so it also counts the rounds of ``polish_exact_reference``."""

    def __init__(self, monkeypatch):
        self.faces = []
        qr, screen = est._restricted_solve, est._FaceColumns.solve

        def logged_qr(y, k, lam, active, signs):
            self.faces.append(("qr", self.state(active, signs)))
            return qr(y, k, lam, active, signs)

        def logged_screen(columns, active, signs):
            self.faces.append(("screen", self.state(active, signs)))
            return screen(columns, active, signs)

        monkeypatch.setattr(est, "_restricted_solve", logged_qr)
        monkeypatch.setattr(est._FaceColumns, "solve", logged_screen)

    @staticmethod
    def state(active, signs):
        return tuple(int(j) for j in active), tuple(float(s) for s in signs)

    def rounds(self):
        """The state of each round, in order."""
        return [state for i, (kind, state) in enumerate(self.faces)
                if not (kind == "qr" and i and self.faces[i - 1] == ("screen", state))]

    def qr_faces(self):
        return sum(kind == "qr" for kind, _ in self.faces)

    def clear(self):
        self.faces.clear()


def screen_violators_reference(u, u_err, active, signs, k, tol_kkt):
    """The screen's decision on a sign-consistent face, as the exact path
    reads it: mask the off-support rows past the box with ``_runs`` and add
    the worst row of each run with ``_add_worst_rows``, after stopping where
    no row is clearly past 1 + tol_kkt, a row is within the error of
    1 + 1e-12, or a runner-up is within the error of its run's worst row."""
    err = est._SCREEN_MARGIN * u_err
    mag = np.abs(u)
    off = np.ones(len(u), dtype=bool)
    off[active - k - 1] = False
    near = mag[off & (mag > 1.0 + 1e-12 - err)]
    if not np.any(near > 1.0 + tol_kkt + err) or np.any(near <= 1.0 + 1e-12 + err):
        return None
    runs = est._runs(off & (mag > 1.0 + 1e-12))
    if any(np.count_nonzero(mag[run] >= np.max(mag[run]) - err) > 1 for run in runs):
        return None
    return est._add_worst_rows(active, signs, runs, u, k)


def screened_step_image(columns, active, signs):
    """X step for the face ``columns.solve(active, signs)`` just solved: its
    normal equations and refinement step, with the LAPACK calls of
    ``_FaceColumns.solve`` on the same cached entries, so the same bits."""
    y, k, lam = columns.y, columns.k, columns.lam
    n, m = len(y), k + len(columns.rows)
    pos = [columns.slot[int(j)] for j in active]
    X = columns.X[:, :m]
    target = np.zeros(m)
    target[pos] = n * lam * np.asarray(signs) / columns.scales[pos]
    chol, info = est._POTRF(columns.gram[:m, :m], lower=0)
    assert info == 0
    theta = est._POTRS(chol, columns.Xy[:m] - target)[0]
    step = est._POTRS(chol, X.T @ (y - X @ theta) - target)[0]
    return X @ step


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


def tv1d_reference(y, lam, events=None):
    """Condat's direct taut-string algorithm on numpy scalars: the loop that
    ``estimator.tv1d_exact`` runs on Python floats.  The two must agree bit
    for bit.  A list passed as ``events`` receives one (kind, k) per restart:
    "jump-" / "jump+" for a jump found at sample k + 1, "last-" / "last+"
    for a backtrack at the last sample, k = n - 1.
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
            if events is not None and (umin < 0.0 or umax > 0.0):
                events.append(("last-" if umin < 0.0 else "last+", k))
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
            if events is not None:
                events.append(("jump-", k))
            x[k0:kminus + 1] = vmin
            k = k0 = kminus = kplus = kminus + 1
            vmin = y[k]
            vmax = y[k] + 2.0 * lam
            umin = lam
            umax = -lam
        elif y[k + 1] + umax > vmax + lam:
            if events is not None:
                events.append(("jump+", k))
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

    the exact value of the concave maximization (minimax equality).  A cap
    of 0 fixes xi_j = 0, so its column is left out (bvls needs lb < ub).
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
    A = D[off[caps > 0]].T
    caps = caps[caps > 0]
    if not len(caps):
        return n * float(c @ c)
    res = scipy.optimize.lsq_linear(A, c, bounds=(-caps, caps), method="bvls", tol=1e-14)
    val = math.sqrt(n) * np.linalg.norm(A @ res.x - c)
    return max(0.0, val) ** 2


# The interpolant construction as it stood with two matching solvers and a
# separate two-piece evaluator: ``interpolants`` must reproduce its
# profiles, q and caps bit for bit.


@dataclass(frozen=True)
class MatchingCoefficientsReference:
    """Solution of the discrete matching system for one half-profile.

    The profile decreases from +1 at 0 to -1 at 2M and is antisymmetric
    about M.  ``junctions`` are the interior junction points of the half
    domain [0, M].  Pieces, left to right:

    * boundary layer ``1 - a0_bar (j / junctions[0])**exponent``,
    * degree-k polynomials in the centered variable (j - jc) / junctions[0]
      (coefficient rows of ``interior``), and
    * the odd center piece ``sum_r center[r] ((M - j) / Dc)**r``.
    """

    k: int
    exponent: float
    M: int
    junctions: tuple
    a0_bar: float
    interior: np.ndarray
    interior_centers: tuple
    center: dict

    @property
    def Dc(self):
        return self.M - self.junctions[-1] if self.junctions else self.M

    def half_values(self, j):
        """Profile values on [0, M] (scalar or array of offsets)."""
        j = np.asarray(j, dtype=float)
        out = np.empty_like(j)
        if not self.junctions:
            out[...] = 1.0 - self.a0_bar * (j / self.M) ** self.exponent
            return out
        d = self.junctions[0]
        edges = list(self.junctions) + [self.M]
        piece = np.searchsorted(np.asarray(edges), j, side="left")
        sel = piece == 0
        out[sel] = 1.0 - self.a0_bar * (j[sel] / d) ** self.exponent
        for l in range(len(self.interior_centers)):
            sel = piece == l + 1
            u = (j[sel] - self.interior_centers[l]) / d
            out[sel] = sum(c * u ** r for r, c in enumerate(self.interior[l]))
        sel = piece >= len(edges) - 1
        v = (self.M - j[sel]) / self.Dc
        out[sel] = sum(c * v ** r for r, c in self.center.items())
        return out

    def values(self, j):
        """Full profile on [0, 2M]: antisymmetric extension of half_values."""
        j = np.asarray(j, dtype=float)
        folded = np.minimum(j, 2 * self.M - j)
        sign = np.where(j <= self.M, 1.0, -1.0)
        return sign * self.half_values(folded)


def solve_matching_reference(k, junctions, M, exponent):
    """Assemble and solve the matching system for arbitrary junction points.

    Equations are taken in scaled difference form (the l-th forward
    difference of the piece mismatch at each junction, scaled by d^l), which
    is row-equivalent to requiring agreement on k consecutive points but
    stays well-conditioned for large segments.
    """
    junctions = tuple(int(j) for j in junctions)
    if not junctions:
        return MatchingCoefficientsReference(k=k, exponent=exponent, M=int(M), junctions=(),
                                    a0_bar=1.0, interior=np.zeros((0, k + 1)),
                                    interior_centers=(), center={})
    d = junctions[0]
    odd_powers = tuple(range(1, (k - 1 if k % 2 == 0 else k) + 1, 2))
    n_int = len(junctions) - 1
    centers = tuple((junctions[i] + junctions[i + 1]) / 2.0 for i in range(n_int))
    Dc = M - junctions[-1]
    nunk = 1 + n_int * (k + 1) + len(odd_powers)

    def piece_values(piece, js):
        js = np.asarray(js, dtype=float)
        if piece == 0:
            return -((js / d) ** exponent)[:, None], np.ones_like(js)
        if piece <= n_int:
            u = (js - centers[piece - 1]) / d
            return np.column_stack([u ** r for r in range(k + 1)]), np.zeros_like(js)
        v = (M - js) / Dc
        return np.column_stack([v ** r for r in odd_powers]), np.zeros_like(js)

    def cols(piece):
        if piece == 0:
            return slice(0, 1)
        if piece <= n_int:
            return slice(1 + (piece - 1) * (k + 1), 1 + piece * (k + 1))
        return slice(1 + n_int * (k + 1), nunk)

    A = np.zeros((k * len(junctions), nunk))
    b = np.zeros(k * len(junctions))
    row = 0
    for idx, jl in enumerate(junctions):
        left = idx
        right = idx + 1 if idx + 1 <= n_int else n_int + 1
        js = np.arange(jl, jl + k)
        CL, kL = piece_values(left, js)
        CR, kR = piece_values(right, js)
        for l in range(k):
            w = np.array([(-1) ** (l - i) * math.comb(l, i) for i in range(l + 1)])
            scale = float(d) ** l
            A[row, cols(left)] = scale * (w @ CL[: l + 1])
            A[row, cols(right)] -= scale * (w @ CR[: l + 1])
            b[row] = -scale * (w @ (kL - kR)[: l + 1])
            row += 1
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise MatchingSystemError(f"singular matching system (k={k}, junctions={junctions})") from exc
    if not np.all(np.isfinite(sol)):
        raise MatchingSystemError(f"non-finite matching solution (k={k}, junctions={junctions})")
    interior = sol[1: 1 + n_int * (k + 1)].reshape(n_int, k + 1)
    center = dict(zip(odd_powers, sol[1 + n_int * (k + 1):]))
    return MatchingCoefficientsReference(k=k, exponent=exponent, M=int(M), junctions=junctions,
                                a0_bar=float(sol[0]), interior=interior,
                                interior_centers=centers, center=center)


def two_piece_values_reference(nseg, exponent, j):
    j = np.asarray(j, dtype=float)
    half = j <= nseg / 2
    with np.errstate(invalid="ignore"):
        left = 1.0 - (2.0 * j / nseg) ** exponent
        right = -1.0 + (2.0 * (nseg - j) / nseg) ** exponent
    return np.where(half, left, right)


def sign_change_profile_reference(k, nseg, exponent=None):
    """Values v[0..nseg] of the monotone profile from +1 to -1 over nseg steps.

    nseg must be even for k >= 2 (odd segment lengths are handled one level
    up by the parity trick).  Junctions fall at floor(l * nseg / N).
    """
    if exponent is None:
        exponent = noisy_exponent(k)
    j = np.arange(nseg + 1, dtype=float)
    if k <= 2:
        return two_piece_values_reference(nseg, exponent, j)
    if nseg % 2:
        raise ValueError(f"segment length {nseg} must be even for k={k}")
    N = n_subintervals(k)
    M = nseg // 2
    junctions = [max(1, math.floor(l * nseg / N)) for l in range(1, N // 2)]
    if junctions[0] < k or (len(junctions) > 1 and junctions[-1] >= M):
        # too short for the junction construction; fall back to the two-piece
        # polynomial shape (only reachable below the minimum-length condition)
        return two_piece_values_reference(nseg, min(exponent, float(k)), j)
    coeffs = solve_matching_reference(k, junctions, M, exponent)
    return coeffs.values(j)


def fill_segment_reference(q, S, i, values):
    """Write profile values (offsets 0..n_i) into the open segment interior."""
    t_prev = S.t_full[i - 1]
    n_i = S.seg_lengths[i - 1]
    for off in range(1, n_i):
        j = t_prev + off
        q[j - S.k - 1] = values[off]


def segment_values_reference(S, i, exponent, mode):
    """Values at offsets 0..n_i for segment i (1-based), per segment type."""
    k = S.k
    n_i = S.seg_lengths[i - 1]
    left = S.anchor_value(i - 1)
    right = S.anchor_value(i)
    if S.s == 0:
        return np.zeros(n_i + 1)
    if 2 <= i <= S.s and left * right > 0:
        if mode == "noiseless":
            return np.full(n_i + 1, left)
        j = np.arange(n_i + 1, dtype=float)
        return left * (1.0 - (4.0 * j * (n_i - j) / (n_i * S.n_max)) ** noisy_exponent(k))
    # sign change or boundary: reduce to the +1 -> -1 profile
    if i == 1:
        # left boundary: interpolate 0 -> right, using the lower half of the
        # sign-change profile (affine image (1 - v)/2)
        def mapped(v):
            return right * (1.0 - v) / 2.0
    elif i == S.s + 1:
        def mapped(v):
            return left * (1.0 + v) / 2.0
    else:
        def mapped(v):
            return left * v

    if k == 1:
        prof = sign_change_profile_reference(k, n_i, exponent)
        return mapped(prof)
    # parity trick: absorb one step so the profile length is even
    if n_i % 2:
        reduced = sign_change_profile_reference(k, n_i - 1, exponent)
        vals = np.empty(n_i + 1)
        if i == S.s + 1:
            # absorb at the outer (zero) anchor: profile occupies offsets 0..n_i-1
            vals[: n_i] = mapped(reduced)
            vals[n_i] = 0.0
        else:
            # absorb at the left end (a mock row for interior segments)
            vals[0] = mapped(reduced[0])
            vals[1:] = mapped(reduced)
        return vals
    return mapped(sign_change_profile_reference(k, n_i, exponent))


def build_reference(S, exponent_rule, mode, weights=None):
    """The interpolating vector's (q, caps), filled one entry at a time from
    the reference profiles, without the feasibility check."""
    k = S.k
    m = S.n - k
    q = np.zeros(m)
    for i in range(1, S.s + 2):
        vals = segment_values_reference(S, i, exponent_rule, mode)
        fill_segment_reference(q, S, i, vals)
    for i, ti in enumerate(S.t):
        q[ti - k - 1] = float(S.q_S[i])

    caps = np.ones(m)
    for ti in S.t:
        caps[ti - k - 1] = np.inf
    if weights is not None:
        w = np.asarray(getattr(weights, "w", weights), dtype=float)
        if w.shape != (m,):
            raise ValueError(f"weights must align with the {m} rows")
        caps = np.where(np.isinf(caps), caps, caps - w)
    return q, caps


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


def sample_sandwich_instance(rng):
    """n <= 64, k <= 3, s <= 3, segment lengths >= k(k+2)."""
    k = int(rng.integers(1, 4))
    ml = minimum_segment_length(k)
    s_cap = (64 - k + 1) // ml - 1
    s = int(rng.integers(0, min(3, s_cap) + 1))
    budget = 64 - (k - 1) - (s + 1) * ml
    extra = rng.multinomial(int(rng.integers(0, budget + 1)), np.ones(s + 1) / (s + 1))
    lengths = ml + extra
    t, pos = [], k
    for i in range(s):
        pos += int(lengths[i])
        t.append(pos)
    n = int(np.sum(lengths)) + k - 1
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
