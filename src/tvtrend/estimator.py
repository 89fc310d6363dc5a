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
its certificate.  Otherwise ``fit`` is one loop over the candidate supports
of ``_candidates``, in order:

1. the closed-form candidate, ADMM's first iterate when it is the empty
   support, before any ADMM buffer or banded factor is built;
2. the trigger candidates of ``_admm_iterates``: settled residuals, every
   250th iteration, and the first iteration of each run in which z does not
   move.

Each candidate is polished by an active-set refinement, and the first face a
polish returns is the fit: it satisfies KKT in exact arithmetic and is flagged
converged when its certificate meets the tolerance.  ADMM only proposes
supports; no raw iterate ends a fit before ``max_iter``.  A polish gives up at
a (support, signs) state its fit has seen before; when every polish gives up,
the fit is ADMM's final iterate, with its own certificate.  The refinement
screens every face it passes through, its starting face included, on cached
columns (normal equations and one refinement step) and solves exactly, by QR,
only the faces where the screen stops; a polish whose screen stops only at its
last face solves one QR face, and every face it returns is such an exact face.
A screened face forms its dual only where the decision needs it: not where it
drops a sign-inconsistent row; then by k suffix sums of the residual its solve
took.  Its dual's error is bounded in O(|A|) from per-(n, k) constants
(``_cached_face_constants``) instead of a second pass over n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from ._checks import integer, real, shape, signal
from ._lapack import dgeqrf as _GEQRF, dgeqrf_lwork as _GEQRF_LWORK
from ._lapack import dpbtrf as _PBTRF, dpbtrs as _PBTRS, dpotrf as _POTRF, dpotrs as _POTRS
from ._lapack import dpttrf as _PTTRF, dpttrs as _PTTRS, dtrtrs as _TRTRS
from .diffops import (_cached_pinv_sqnorms, _cached_polynomial_basis, build_delta,
                      difference_coefficients, dual_witness, falling_factorial_columns)

ALGORITHMS = ("admm", "dp_k1")

# ADMM starts from penalty RHO_INIT (then balanced against the residuals) and
# over-relaxes each update by OVER_RELAXATION.
RHO_INIT = 1.0
OVER_RELAXATION = 1.8

# The LAPACK routines are called directly (``_lapack``): the scipy wrappers
# solveh_banded / solve_triangular and numpy's qr validate their inputs and
# look them up again on every call of the ADMM loop and the restricted solve.
# The ADMM f-update solves its banded system as solveh_banded does: by the
# tridiagonal L D L' routines pttrf / pttrs at k = 1, by a banded Cholesky
# factor (pbtrf / pbtrs) at k >= 2.


@dataclass(frozen=True)
class FitConfig:
    lam: float
    k: int
    tol_kkt: float = 1e-8
    max_iter: int = 50_000
    algorithm: str = "admm"

    def __post_init__(self):
        real("lambda", self.lam, ValueError, "nonnegative")
        real("tol_kkt", self.tol_kkt, ValueError, "positive")
        integer("k", self.k, ValueError, 1)
        integer("max_iter", self.max_iter, ValueError, 1)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.algorithm == "dp_k1" and self.k != 1:
            raise ValueError(f"algorithm dp_k1 requires k = 1, got k = {self.k}")


@dataclass(frozen=True)
class FitResult:
    """``converged`` is the decision of the certificate (``_certificate``)
    whose residual is ``kkt_residual``: every exit of ``fit`` reports it
    unchanged, and nothing else in the estimator decides convergence.

    ``iters`` is 0 at lambda = 0 and for the polynomial fit at lambda >=
    lambda_max, and n for ``dp_k1``.  Otherwise it is the ADMM iteration of
    the candidate whose polished face is the fit: 1 for the closed-form
    candidate (ADMM is not run), else the trigger iteration.  It is
    ``max_iter`` when every polish gave up, at a state seen before, and the
    fit is ADMM's final iterate.  An uncertified fit may therefore stop
    before ``max_iter`` only at 0, 1 or a trigger iteration: the polynomial
    fit or polished face it returns satisfies KKT in exact arithmetic, and
    only float64 rounding keeps the residual above ``tol_kkt``.

    A settled trigger fires where float64 residuals cross a threshold, so it
    depends on the last bits of the iterates: ``iters`` (printed by ``solve
    --report``) is not stable under a change of rounding in the f-update
    solve, even where f_hat, dual and residual keep their bytes."""

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
    """Least-squares projection onto degree < k discrete polynomials; y and
    (n, k) follow the input rules of ``fit``."""
    y = signal(y)
    return _projection(y, shape(len(y), k, ValueError)[1])


def lambda_max(y, k):
    """Smallest lambda at which the fit collapses to the polynomial fit,
    max_j |(Delta^+' (y - poly fit))_j| / n; y and (n, k) follow the input
    rules of ``fit``."""
    y = signal(y)
    return _lambda_max_of(_polynomial_witness(y, shape(len(y), k, ValueError)[1]), len(y))


def _projection(y, k):
    """``polynomial_fit`` of a checked y and k."""
    Q = _cached_polynomial_basis(len(y), k)
    return Q @ (Q.T @ y)


def _polynomial_witness(y, k):
    """``dual_witness`` of the residual off the polynomial fit: its largest
    |entry| is n lambda_max, and over n lambda it is the dual of the empty
    face.  y and k are checked (``fit``)."""
    return dual_witness(y - _projection(y, k), k)


def _lambda_max_of(witness, n):
    """lambda_max of a signal of length n from its ``_polynomial_witness``."""
    return float(np.max(np.abs(witness))) / n


def _certificate(y, f_hat, lam, k, tol_kkt):
    """Dual vector, KKT residual and the decision on a candidate minimizer:
    (u, kkt, converged).

    The dual is the unique solution of D' u = (y - f_hat) / (n lambda); the
    residual is the max of the stationarity residual (inf-norm of the
    gradient inclusion), the box excess max(0, |u|_inf - 1) and the sign
    mismatch on clearly-active rows.  ``converged`` is the one convergence
    rule of the estimator: every exit of ``fit`` reports it as it is.
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
    kkt = max(stat_res, box, sign_mis)
    return u, kkt, kkt <= tol_kkt


def _restricted_solve(y, k, lam, active, signs):
    """Exact minimizer over signals whose differences vanish off ``active``,
    with the penalty linearized at the given signs.

    Parametrizes f = P a + sum psi_j b_j with psi_j the dictionary columns
    anti-projected against the orthonormal polynomial block (same
    differences, far better conditioning), unit-rescaled, solved by QR with
    two rounds of iterative refinement on the stationarity equations.
    Returns (f_hat, b) with b the differences at the active rows.
    """
    n, a = len(y), len(active)
    const = _cached_face_constants(n, k)
    P = const.P
    # Phi is projected as its own C-ordered block, and X keeps C order for
    # the refinement products: the operand layouts of the earlier bits.
    Phi = np.empty((n, a))
    for c, r in enumerate(active):
        Phi[:, c] = _ramp_column(const.ramp, n, r)
    Phi -= P @ (P.T @ Phi)
    scales = np.linalg.norm(Phi, axis=0)
    X = np.empty((n, k + a))
    X[:, :k] = P
    np.divide(Phi, scales, out=X[:, k:])
    c = np.zeros(k + a)
    c[k:] = signs / scales
    # numpy's qr(X, mode="r") is this geqrf call with the workspace it asks
    # for (past the crossover, the block size sets the bits).  R' is read in
    # place, its lower triangle only, by the trtrs calls that
    # solve_triangular(R', ., lower=True) and solve_triangular(R, .) make.
    qr, _, _, info = _GEQRF(X, lwork=int(_GEQRF_LWORK(n, k + a)[0]))
    if info:
        raise np.linalg.LinAlgError("geqrf failed in the restricted solve")
    Rt = np.ascontiguousarray(qr[:k + a]).T
    target = n * lam * c
    theta = np.zeros(k + a)
    for _ in range(3):
        defect = X.T @ (y - X @ theta) - target
        half, info = _TRTRS(Rt, defect, lower=1)
        delta, info_t = _TRTRS(Rt, half, lower=1, trans=1)
        if max(info, info_t) > 0:
            raise np.linalg.LinAlgError("singular R in the restricted solve")
        theta += delta
        if np.max(np.abs(defect)) <= 1e-14 * max(1.0, n * lam, float(np.max(np.abs(y)))):
            break
    return X @ theta, theta[k:] / scales


def _ramp_column(ramp, n, r):
    """The falling-factorial column phi_r of the 1-based row r, as a view of
    ``ramp`` (n zeros, then phi_1): phi_1 moved down to row r, the n entries
    from n - r + 1 on; the bits of ``falling_factorial_columns``."""
    return ramp[n - r + 1:2 * n - r + 1]


class _FaceConstants(NamedTuple):
    P: np.ndarray           # the orthonormal polynomial block
    ramp: np.ndarray        # n zeros, then phi_1 (``_ramp_column``)
    phi_norms: np.ndarray   # ||phi_j|| is phi_norms[n - j]
    gram_P: np.ndarray      # P'P
    P_phi: np.ndarray       # P'phi_j is P_phi[j - k - 1], dual_witness of P
    gain_P: tuple           # c_l, the largest |u| that dual_witness makes of P_l
    gain_psi: float         # c_psi, the largest column norm of Delta(k)^+


@lru_cache(maxsize=32)
def _cached_face_constants(n, k):
    """Read-only per-(n, k) constants of the polish faces.

    ``dual_witness`` of v orthogonal to P has entries <v, psi_j>, psi_j the
    columns of Delta(k)^+, so by Cauchy-Schwarz the image of
    X step = P step_P + v is at most sum_l c_l |step_l| + c_psi ||v||."""
    P = _cached_polynomial_basis(n, k)
    ramp = falling_factorial_columns(n, k, [1])[:, 0]
    P_phi = dual_witness(P, k)
    const = _FaceConstants(
        P=P, ramp=np.concatenate([np.zeros(n), ramp]), phi_norms=np.sqrt(np.cumsum(ramp ** 2)),
        gram_P=P.T @ P, P_phi=P_phi, gain_P=tuple(np.max(np.abs(P_phi), axis=0).tolist()),
        gain_psi=math.sqrt(float(np.max(_cached_pinv_sqnorms(n, k)))))
    for array in const[:-2]:
        array.setflags(write=False)
    return const


# An off-support dual entry with |u| above _BOX_EDGE violates the box |u| <= 1:
# the polish adds such rows, and returns a sign-consistent face with none.
_BOX_EDGE = 1.0 + 1e-12

# A screened decision is taken only where its quantity clears the threshold by
# _SCREEN_MARGIN times the screen's error estimate: the change one refinement
# step made, plus what rounding could move.  Otherwise the face is solved
# exactly.
_SCREEN_MARGIN = 64.0
_EPS = float(np.finfo(float).eps)

# A column that loses more than four of its sixteen digits to the
# anti-projection (rows near the left end, at high k) is rounded differently
# by the screen and by ``_restricted_solve``; a face with one is not screened.
_MAX_CANCELLATION = 1e4


class _FaceColumns:
    """The columns X = [P, psi_A] of ``_restricted_solve`` for the rows of the
    faces one polish passes through, and their Gram entries.

    A row's unit-scaled, anti-projected falling-factorial column (P'phi_r
    read from a per-(n, k) table), its Gram entries against P, the other
    cached columns and y, and its cancellation test are computed once, when
    the row joins; when it leaves, the last column takes its place.  The
    buffers grow by doubling, so memory stays O(n |A|).  A face costs two
    products with X (a residual and its correlation with X, for one
    refinement step), O(|A|^2) small work and no QR; its dual, k suffix sums
    more.  The per-(n, k) constants come from ``_cached_face_constants``;
    ``witness`` is ``_polynomial_witness(y, k)``, as ``fit`` takes it."""

    def __init__(self, y, k, lam, witness):
        const = self.const = _cached_face_constants(len(y), k)
        self.y, self.k, self.nlam, self.witness = y, k, len(y) * lam, witness
        self.h = y / self.nlam
        self.round_err = math.sqrt(len(y)) * _EPS * float(np.linalg.norm(self.h))
        self.rows = []                  # the row of column k + i is rows[i]
        self.slot = {}                  # row -> its column
        self.cancelled = set()          # the cached rows whose column is too cancelled
        self.X, self.gram, self.Xy, self.scales = self._buffers(2 * k + 16)
        self.X[:, :k] = const.P
        self.gram[:k, :k] = const.gram_P
        self.Xy[:k] = const.P.T @ self.h

    def _buffers(self, cap):
        return (np.empty((len(self.y), cap), order="F"), np.empty((cap, cap)),
                np.empty(cap), np.empty(cap))

    def _move_to(self, active):
        """Cache the columns of ``active``, no others; their positions."""
        k, y = self.k, self.y
        rows = active.tolist()
        wanted = set(rows)
        X, gram = self.X, self.gram
        for r in [r for r in self.rows if r not in wanted]:
            c, last = self.slot.pop(r), k + len(self.rows) - 1
            self.cancelled.discard(r)
            moved = self.rows.pop()
            if c != last:
                X[:, c] = X[:, last]
                gram[c, :last + 1] = gram[last, :last + 1]
                gram[:last + 1, c] = gram[:last + 1, last]
                self.Xy[c], self.scales[c] = self.Xy[last], self.scales[last]
                self.rows[c - k] = moved
                self.slot[moved] = c
        new = [r for r in rows if r not in self.slot]
        if new:
            m = k + len(self.rows)
            end = m + len(new)
            if end > len(self.Xy):
                grown = self._buffers(max(2 * len(self.Xy), end))
                grown[0][:, :m] = X[:, :m]
                grown[1][:m, :m] = gram[:m, :m]
                grown[2][:m], grown[3][:m] = self.Xy[:m], self.scales[:m]
                self.X, self.gram, self.Xy, self.scales = grown
                X, gram = self.X, self.gram
            const, n, P = self.const, len(y), X[:, :k]
            for c, r in enumerate(new, m):
                # psi_r = phi_r - P (P'phi_r), unit-scaled
                column = X[:, c]
                np.matmul(P, const.P_phi[r - k - 1], out=column)
                np.subtract(_ramp_column(const.ramp, n, r), column, out=column)
                scale = self.scales[c] = math.sqrt(column @ column)
                column *= 1.0 / scale
                if const.phi_norms[n - r] > _MAX_CANCELLATION * scale:
                    self.cancelled.add(r)
                self.slot[r] = c
            block = X[:, m:end]
            cross = X[:, :end].T @ block
            gram[:end, m:end] = cross
            gram[m:end, :end] = cross.T
            self.Xy[m:end] = block.T @ self.h
            self.rows += new
        return [self.slot[r] for r in rows]

    def solve(self, active, signs):
        """Screened face: (b, b_err, dual), lists of the differences at the
        active rows after the refinement step and of an error estimate for
        each, and ``dual()``, which returns (u, u_err): the dual of the
        residual the step was taken on, and a bound on its error, which the
        step's image in u dominates.  The face is solved for y / (n lambda),
        so that residual is the dual's input as it stands: the dual costs k
        suffix sums over n (none for the empty face: the witness) and no
        product with X, formed only when called, before the next
        ``solve``.  No face forms its fit.  None when a column is too
        cancelled or the Gram matrix does not factor."""
        pos = self._move_to(active)
        if self.cancelled:
            return None
        y, k, nlam = self.y, self.k, self.nlam
        m = k + len(self.rows)
        X, scales = self.X[:, :m], self.scales.tolist()
        target = [0.0] * m
        for c, sign in zip(pos, signs.tolist()):
            target[c] = sign / scales[c]
        target = np.array(target)
        chol, info = _POTRF(self.gram[:m, :m], lower=0)
        if info:
            return None
        theta = _POTRS(chol, self.Xy[:m] - target)[0]
        r = self.h - X @ theta
        step = _POTRS(chol, X.T @ r - target)[0]
        # Rounding leaves a defect of about sqrt(n) eps |h| in X'(h - X theta);
        # it moves theta by up to that over the smallest eigenvalue of the
        # Gram matrix, about the square of the smallest Cholesky pivot.
        floor = self.round_err / min(chol.diagonal().tolist()) ** 2
        theta, steps = theta.tolist(), step.tolist()

        def dual():
            # A bound on the step's image in u (``_cached_face_constants``), with
            # ||psi_A step_A||^2 read off the cached Gram entries (each rounded
            # by up to n ulps), plus n ulps for the rounding of the suffix sums.
            n, s = len(y), step[k:]
            sq = s @ self.gram[k:m, k:m] @ s + n * _EPS * sum(map(abs, steps[k:])) ** 2
            image = sum(g * abs(t) for g, t in zip(self.const.gain_P, steps)) + (
                self.const.gain_psi * math.sqrt(max(sq, 0.0)))
            u = dual_witness(r, k) if pos else self.witness / nlam
            return u, image + n * _EPS

        return ([nlam * (theta[c] + steps[c]) / scales[c] for c in pos],
                [nlam * (abs(steps[c]) + floor) / scales[c] for c in pos], dual)


def _runs(over):
    """The maximal runs of consecutive rows flagged ``over``."""
    rows = np.flatnonzero(over)
    return np.split(rows, np.flatnonzero(np.diff(rows) > 1) + 1)


def _add_worst_rows(active, signs, runs, u, k):
    """Add the row of largest |u| in each run, with the sign of its u."""
    worst = np.array([run[np.argmax(np.abs(u[run]))] for run in runs])
    return _add_rows(active, signs, worst, u, k)


def _add_rows(active, signs, worst, u, k):
    """Insert the active rows of the dual rows ``worst``, with the signs of
    their u."""
    grown = sorted(zip(active.tolist() + [j + k + 1 for j in worst.tolist()],
                       signs.tolist() + [math.copysign(1.0, x) for x in u[worst].tolist()]))
    return np.array([j for j, _ in grown]), np.array([s for _, s in grown])


def _screen(face, active, signs, k, tol_kkt):
    """The next (active, signs) of the polish, decided on a screened face, or
    None where the polish must solve the face exactly: where the face may be
    its last (sign-consistent with no dual clearly beyond the box off the
    support), or where a decision lies within the screen's error of its
    threshold.  The signs of b are decided first, in Python on |A| entries;
    the face's dual is formed only when they are all kept, and then read in
    a fixed number of passes: over u for the off-support rows past the box,
    and over those rows for their runs and peaks."""
    if face is None:
        return None
    b, b_err, dual = face
    if any(abs(x) <= _SCREEN_MARGIN * e for x, e in zip(b, b_err)):
        return None
    keep = [i for i, (x, t) in enumerate(zip(b, signs.tolist())) if x * t > 0]
    if len(keep) < len(b):
        return active[keep], signs[keep]
    u, u_err = dual()
    err = _SCREEN_MARGIN * u_err
    # The off-support rows that may be violators on the exact face, in one
    # pass over u.  Stop where none is clearly past 1 + tol_kkt (the exact
    # face may certify) or one is within the error of _BOX_EDGE (it may or
    # may not be a violator); otherwise they are exactly the exact face's
    # violators.
    mag = abs(u)
    for j in active.tolist():
        mag[j - k - 1] = -np.inf
    rows = (mag > _BOX_EDGE - err).nonzero()[0]
    if not len(rows):
        return None
    # Each run of consecutive rows, its largest |u| and the rows within the
    # error of it: a runner-up there could be the worst.
    near = mag[rows]
    cuts = [0, *((rows[1:] - rows[:-1] > 1).nonzero()[0] + 1).tolist(), len(rows)]
    peak = np.maximum.reduceat(near, cuts[:-1])
    if peak.max() <= 1.0 + tol_kkt + err or near.min() <= _BOX_EDGE + err:
        return None
    top = near >= (peak - err).repeat([end - start for start, end in zip(cuts, cuts[1:])])
    if np.count_nonzero(top) > len(peak):
        return None
    return _add_rows(active, signs, rows[top], u, k)


def _polish(y, k, lam, active, signs, tol_kkt, witness, seen):
    """Active-set refinement: drop sign-inconsistent rows, else add the worst
    row of each run of consecutive rows whose dual exceeds the box.

    Returns the fit and ``_certificate`` of a face, (f_hat, u, kkt,
    converged): at the first certified face, and at the first
    sign-consistent face with no off-support |u| > ``_BOX_EDGE`` even when its
    certificate fails: that face satisfies KKT in exact arithmetic, so only
    float64 rounding can fail it.  ``seen`` holds the (active, signs) states,
    as bytes, that the fit's polishes have passed through.  A round is a pure
    function of its state, so the polish returns None at a state moved to in
    ``seen``, and adds any other: the set grows every round, so the polish
    ends.  ``witness`` is ``_polynomial_witness(y, k)``.

    Every face, the starting one included, is first screened: solved from
    columns cached for this polish (``_FaceColumns``), with each decision
    taken only where it clears its threshold by a margin over the screen's
    error estimate.  Only where the screen stops (at the face that may be
    the last, or at a decision too close to call) is the face solved
    exactly, by ``_restricted_solve``; the rules above are applied to that
    exact face, and the polish goes on from there if it overturns the
    screen.  So a polish whose screen stops only at its last face solves one
    QR face, every face the polish returns is ``_restricted_solve`` and
    ``_certificate`` of its (active, signs), and wherever the error
    estimates hold, the polish visits the states it would visit solving
    every face exactly.  At n = 4096 a screened face takes about 0.09 ms, a
    QR face and its certificate 0.34 ms (``scripts/bench_layers.py``)."""
    active = np.sort(np.asarray(active, dtype=int))
    signs = np.asarray(signs, dtype=float)
    columns = _FaceColumns(y, k, lam, witness)
    while True:
        moved = _screen(columns.solve(active, signs), active, signs, k, tol_kkt)
        if moved is None:
            f_hat, b = _restricted_solve(y, k, lam, active, signs)
            keep = b * signs > 0
            if np.all(keep):
                u, kkt, converged = _certificate(y, f_hat, lam, k, tol_kkt)
                over = np.abs(u) > _BOX_EDGE
                over[active - k - 1] = False
                if converged or not np.any(over):
                    return f_hat, u, kkt, converged
                moved = _add_worst_rows(active, signs, _runs(over), u, k)
            else:
                moved = active[keep], signs[keep]
        active, signs = moved
        state = (active.tobytes(), signs.tobytes())
        if state in seen:
            return None
        seen.add(state)


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


def _admm_factor(n, k, rho):
    """Factor ``_admm_system_banded(n, k, rho)`` and return the solve that
    overwrites a float64 right-hand side with the solution, bit for bit what
    ``scipy.linalg.solveh_banded`` returns.  At k = 1 the system is
    tridiagonal: pttrf factors it as L D L' and pttrs solves with the
    divisions off the recurrences' dependency chain, where a banded Cholesky
    solve divides at every step of both.  At k >= 2 it is the upper banded
    Cholesky factor (pbtrf / pbtrs)."""
    ab = _admm_system_banded(n, k, rho)
    if k == 1:
        d, e, info = _PTTRF(ab[1], ab[0, 1:])
        solve = partial(_PTTRS, d, e, overwrite_b=1)
    else:
        chol, info = _PBTRF(ab, lower=0)
        solve = partial(_PBTRS, chol, lower=0, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return solve


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
    """ADMM on the analysis form, as iterates for ``fit``: f-updates that
    solve (2/n) I + rho D'D through ``_admm_factor`` (tridiagonal L D L' at
    k = 1, banded Cholesky at k >= 2), over-relaxed updates and residual
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
    solve = _admm_factor(n, k, rho)
    f = y.copy()                        # also the right-hand side: solved in place
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
        # f = solveh_banded(_admm_system_banded(n, k, rho),
        #                  two_y + (sign_t * rho) * np.diff(pad, k)), pad holding z - w
        np.subtract(z, w, out=body)
        for a, b, out in transpose:
            np.subtract(a, b, out=out)
        np.multiply(Dt, sign_t * rho, out=f)
        np.add(two_y, f, out=f)
        solve(f)
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
            solve = _admm_factor(n, k, rho)
    yield cfg.max_iter, f, None


def _candidates(y, cfg):
    """The candidate supports of ``fit``, as ADMM iterates (it, f, z), ended
    by (max_iter, f, None).  From z = Delta(k) y and w = 0, ADMM's first
    f-update returns y, so its first z is soft(Delta(k) y, 2 lam / RHO_INIT):
    when that is the empty support it comes first, at iteration 1, and ADMM
    is built only if the stream goes on past it."""
    if np.max(np.abs(np.diff(y, cfg.k))) <= 2.0 * cfg.lam / RHO_INIT:
        yield 1, y, np.zeros(len(y) - cfg.k)
    yield from _admm_iterates(y, cfg)


def tv1d_exact(y, lam):
    """Exact minimizer of 0.5 ||y - x||_2^2 + lam sum |x_{i+1} - x_i|.

    Condat's direct algorithm (IEEE SPL 2013, "A direct algorithm for 1-D
    total variation denoising"): one forward sweep over the taut string with
    jump backtracking, O(n) in practice.  The sweep runs on Python floats
    read once from y: they are IEEE doubles like numpy's float64 scalars, so
    every operation rounds as it would on those, without the interpreter
    overhead of numpy scalar indexing and arithmetic.

    Each stretch of the sweep between two backtracks is one ``for`` loop over
    the samples.  A jump backtracks when the segment it closes ended before
    the current sample (at kminus or kplus): the loop breaks and the next one
    starts after the new segment start.  A jump whose new segment starts at
    the current sample stays in the loop.  When a loop reaches the last
    sample, the sweep closes the last segment or backtracks.  The tube
    bounds vmin - lam and vmax + lam, the segment length offset 1 - k0 and
    -lam are held in locals, refreshed only where vmin, vmax or the segment
    start k0 change, so a sample costs a list read, two comparisons and two
    updates.  Each finished segment is written into the output by one slice
    assignment.  Every float operation, and its order, is that of the plain
    loop on numpy scalars (``tests/conftest.tv1d_reference``), so the output
    is bitwise the same.
    """
    y = signal(y)
    lam = float(real("lambda", lam, ValueError, "nonnegative"))
    n = len(y)
    if n <= 1 or lam == 0:
        return y.copy()
    x = np.empty(n)
    ys = y.tolist()
    neg_lam = -lam
    k = k0 = kminus = kplus = 0
    vmin = ys[0] - lam
    vmax = ys[0] + lam
    umin = lam
    umax = neg_lam
    lo = vmin - lam
    hi = vmax + lam
    while True:
        off = 1 - k0
        for k in range(k + 1, n):
            y_next = ys[k]
            if y_next + umin < lo:
                x[k0:kminus + 1] = vmin
                k0 = kminus = kplus = kminus + 1
                vmin = ys[k0]
                vmax = ys[k0] + 2.0 * lam
            elif y_next + umax > hi:
                x[k0:kplus + 1] = vmax
                k0 = kminus = kplus = kplus + 1
                vmin = ys[k0] - 2.0 * lam
                vmax = ys[k0]
            else:
                umin += y_next - vmin
                umax += y_next - vmax
                if umin >= lam:
                    vmin += (umin - lam) / (k + off)
                    umin = lam
                    kminus = k
                    lo = vmin - lam
                if umax <= neg_lam:
                    vmax += (umax + lam) / (k + off)
                    umax = neg_lam
                    kplus = k
                    hi = vmax + lam
                continue
            umin = lam
            umax = neg_lam
            lo = vmin - lam
            hi = vmax + lam
            if k0 < k:
                # The new segment starts before sample k: scan again after k0.
                k = k0
                break
            off = 1 - k0
        else:
            # The stretch reached the last sample, k = n - 1.
            if umin < 0.0:
                x[k0:kminus + 1] = vmin
                k = k0 = kminus = kminus + 1
                vmin = ys[k]
                umin = lam
                umax = ys[k] + lam - vmax
                lo = vmin - lam
            elif umax > 0.0:
                x[k0:kplus + 1] = vmax
                k = k0 = kplus = kplus + 1
                vmax = ys[k]
                umax = neg_lam
                umin = ys[k] - lam - vmin
                hi = vmax + lam
            else:
                x[k0:n] = vmin + umin / (k - k0 + 1)
                return x


def _result(y, cfg, f_hat, dual, kkt, converged, iters):
    """The one constructor of ``FitResult``, from a fit and its
    ``_certificate``; the objective is recomputed."""
    return FitResult(f_hat=f_hat, objective=objective(f_hat, y, cfg.lam, cfg.k),
                     kkt_residual=kkt, dual=dual, iters=iters, converged=converged,
                     lam=cfg.lam, k=cfg.k)


def fit(y, cfg):
    """Solve the penalized problem; the result is flagged converged only when
    the KKT certificate meets ``cfg.tol_kkt``.  Its polishes share one set
    of the states they have passed through (``_polish``): a polish is a pure
    function of its state and every earlier one gave up, so a candidate at a
    state in the set is skipped."""
    y = signal(y)
    n, k, lam, tol = len(y), cfg.k, cfg.lam, cfg.tol_kkt
    shape(n, k, ValueError)
    if lam == 0.0:
        return _result(y, cfg, y.copy(), np.zeros(n - k), 0.0, True, iters=0)
    if cfg.algorithm == "dp_k1":
        f_hat, iters = tv1d_exact(y, n * lam), n
    elif lam >= _lambda_max_of(witness := _polynomial_witness(y, k), n):
        # The minimizer is the polynomial fit, so a candidate that fails its
        # certificate fails on float64 rounding alone and is returned as it is.
        f_hat, iters = _restricted_solve(y, k, lam, [], [])[0], 0
    else:
        seen = set()                # the states the polishes have passed through
        for iters, f_hat, z in _candidates(y, cfg):
            if z is None:           # every polish gave up: ADMM's final iterate
                break               # at iteration max_iter
            supp = np.nonzero(z)[0]
            active, signs = supp + k + 1, np.sign(z[supp])
            state = (active.tobytes(), signs.tobytes())
            if state in seen:
                continue
            seen.add(state)
            hit = _polish(y, k, lam, active, signs, tol, witness, seen)
            if hit is not None:
                return _result(y, cfg, *hit, iters=iters)
    # The unpolished fits, each with its own certificate.
    return _result(y, cfg, f_hat, *_certificate(y, f_hat, lam, k, tol), iters=iters)


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
