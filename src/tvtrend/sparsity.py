"""Effective sparsity: weights, direct oracle, interpolant and closed-form bounds.

The noisy effective sparsity of an active set with signs q_S is the squared
positive part of

    max { q_S' (Df)_S - sum_{j off S} (1 - w_j) |(Df)_j| : ||f||_n = 1 },

with weights w_j = ||psi_j^{-S}||_n lambda0(u) / lambda built from the
dictionary column lengths (zero at active and mock rows).  Three routes to
it live here: the exact value from the box-constrained least-squares dual;
the energy n ||D' q||_2^2 of a feasible interpolating vector (always an
upper bound); and the closed-form segment-sum bound with the shipped
constants.

The dual has one solver per order.  At k = 1 it is a string pinned to q_S
at the active rows and to 0 past both ends, kept inside the tube
|xi_j| <= 1 - w_j, and the taut string through that tube is found by an
O(n) funnel sweep with no matrix at all.  At k >= 2 it is solved by
bounded-variable least squares on the dense D, one Householder QR solve per
face, for n up to ``DENSE_CAP_DEFAULT``.  Both end in the same certificate:
the primal value at the recovered maximizer, the dual value and their gap.
The empty active set needs neither: its value is 0 at every k and n, and
the oracle returns that certificate without building D.  The weights reuse
the per-(n, k) column lengths that ``diffops`` caches.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._lapack import dgels as _GELS
from .constants import ck_sparsity
from .diffops import ActiveSet, block_column_sqnorms, build_delta
from .interpolants import _require_feasible, delta_k_energy, feasibility_caps
from .theory import lambda0


class NegativeCapError(ValueError):
    """Some caps 1 - w_j are negative, so the dual box is empty (the tuning
    parameter is too small); ``rows`` lists (row, cap), most negative first."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows or []


@dataclass(frozen=True)
class Weights:
    """Entrywise weights on the rows [k+1, n]; zero at active and mock rows."""

    S: ActiveSet
    u: float
    lam: float
    lam0: float
    w: np.ndarray


def compute_weights(S, u, lam):
    """Weights w_j = ||psi_j^{-S}||_n lambda0(u) / lambda for the free rows."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    m = S.n - S.k
    rows, sqn = block_column_sqnorms(S)
    l0 = lambda0(u, S.n, S.n - S.k - S.s)
    w = np.zeros(m)
    w[rows - S.k - 1] = np.sqrt(sqn / S.n) * l0 / lam
    return Weights(S=S, u=u, lam=lam, lam0=l0, w=w)


def effective_sparsity_via_interpolant(vec, weights=None):
    """Upper bound n ||D' q||_2^2 from a feasible interpolating vector.

    Feasibility (|q_j| <= caps entrywise off the active rows, up to
    ``FEASIBILITY_TOL``, the caps 1 - w_j when ``weights`` is given) is
    re-checked; an infeasible vector raises with the violating rows listed.
    ``weights`` built for another active set than ``vec.S`` raise ``ValueError``.
    """
    caps = vec.caps if weights is None else feasibility_caps(vec.S, weights)
    _require_feasible(vec.q, caps, vec.k)
    return delta_k_energy(vec)


def _face_solve(A_free, rhs):
    """Least-squares solution of A_free z = rhs by one unpivoted Householder
    QR (LAPACK dgels; Golub & Van Loan, Matrix Computations, 5.3).  Both
    arguments are overwritten.  A face has full column rank, so a zero
    diagonal in R is a failure, not a rank to detect."""
    _, x, info = _GELS(A_free, rhs, overwrite_a=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"face of {A_free.shape[1]} columns is rank deficient (R[{info}, {info}] = 0)")
    return x[:A_free.shape[1]]


def _box_least_squares(A, b, caps):
    """Exact minimizer of ||b - A xi||_2 over |xi_j| <= caps_j.

    Bounded-variable least squares (Stark & Parker 1995).  Each face, the
    free coordinates with the others held at their bounds, is solved exactly
    by one Householder QR least-squares solve (``_face_solve``).  The free
    coordinates step from the current point toward the face solution and
    stop at the first coordinate that meets its bound, which is bound; once
    the face solution is feasible, the bound coordinate whose optimality
    condition is most violated is released.  The start binds every
    coordinate the face solution leaves the box by at once, which saves
    about one face solve per bound coordinate.  A has independent columns,
    so the minimizer is unique.  Coordinate descent is no substitute: D'D
    has condition number about n^{2k} and the sweeps stall at k = 3.
    """
    m = A.shape[1]
    At = A.T  # rows of At are the columns of A: A[:, free] as At[free].T, Fortran order
    xi = np.zeros(m)
    at = np.zeros(m)  # +1 / -1 at the upper / lower bound, 0 free

    def settle(clip):
        while True:
            free = np.nonzero(at == 0)[0]
            rhs = b - A @ np.where(at == 0, 0.0, xi)
            z = _face_solve(At[free].T, rhs)
            hit = np.nonzero(np.abs(z) > caps[free])[0]
            if not len(hit):
                xi[free] = z
                return
            if not clip:
                x0 = xi[free]
                edge = np.sign(z[hit]) * caps[free[hit]]
                steps = (edge - x0[hit]) / (z[hit] - x0[hit])
                i = int(np.argmin(steps))
                xi[free] = x0 + steps[i] * (z - x0)
                hit = hit[i:i + 1]
            at[free[hit]] = np.sign(z[hit])
            xi[free[hit]] = at[free[hit]] * caps[free[hit]]

    settle(clip=True)
    for _ in range(4 * m + 4):  # safety bound; the caller certifies the result
        r = b - A @ xi
        g = A.T @ r  # g_j > 0: the residual shrinks as xi_j grows
        slack = np.where(at != 0, caps * np.abs(g) - xi * g, 0.0)
        if not np.any(slack > 1e-12 * (r @ r)):
            break
        at[int(np.argmax(slack))] = 0.0
        settle(clip=False)
    return xi


def _taut_string(lo, hi):
    """Values at x = 0..len(lo)-1 of the shortest path through the vertical
    gates [lo[x], hi[x]], the first and last gates being points.

    The path is the taut string through the tube, which also minimizes
    sum_x (v_{x+1} - v_x)^2 over the tube (every convex function of the
    increments; Davies & Kovac, AoS 2001; Barbero & Sra, JMLR 2018).  One
    funnel sweep (Lee & Preparata 1984) finds it in O(len): the apex is the
    last vertex fixed; the upper chain, convex, is the shortest path from it
    to the latest ceiling point, and the lower chain, concave, to the latest
    floor point.  A new point first drops the tail of its own chain that it
    sees past; if that empties the chain down to the apex, the apex moves
    along the other chain past every vertex the point lies beyond.  A point
    gate (a pin, or a cap of 0) fixes the path up to it.
    """
    # The two sides are written out in full: this loop is the whole cost.
    xs, ys = [0], [lo[0]]
    upper, lower = deque([(0, lo[0])]), deque([(0, lo[0])])
    for x in range(1, len(lo)):
        y = hi[x]
        while len(upper) > 1:
            (ax, ay), (bx, by) = upper[-2], upper[-1]
            if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                break
            upper.pop()
        if len(upper) == 1:
            while len(lower) > 1:
                (ax, ay), (bx, by) = lower[0], lower[1]
                if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                    break
                lower.popleft()
                xs.append(bx)
                ys.append(by)
            upper[0] = lower[0]
        upper.append((x, y))
        if lo[x] == y:
            for vx, vy in list(upper)[1:]:
                xs.append(vx)
                ys.append(vy)
            upper, lower = deque([(x, y)]), deque([(x, y)])
            continue
        y = lo[x]
        while len(lower) > 1:
            (ax, ay), (bx, by) = lower[-2], lower[-1]
            if (bx - ax) * (y - ay) < (by - ay) * (x - ax):
                break
            lower.pop()
        if len(lower) == 1:
            while len(upper) > 1:
                (ax, ay), (bx, by) = upper[0], upper[1]
                if (bx - ax) * (y - ay) < (by - ay) * (x - ax):
                    break
                upper.popleft()
                xs.append(bx)
                ys.append(by)
            lower[0] = upper[0]
        lower.append((x, y))
    return np.interp(np.arange(len(lo)), xs, ys)


@dataclass(frozen=True)
class DirectSparsityResult:
    """Effective sparsity with its primal-dual certificate.

    ``max_value`` is the objective at ``maximizer`` (a primal lower bound on
    the maximum), ``dual_value`` = sqrt(n) ||D_S' q_S - D_off' xi||_2 an upper
    bound from the box-feasible xi, and ``gap`` their difference.
    """

    gamma_sq: float
    max_value: float
    dual_value: float
    gap: float
    reliable: bool
    maximizer: np.ndarray


def effective_sparsity_direct(S, weights=None, seed=0):
    """Exact effective sparsity through the box-constrained dual

        max { q_S' (Df)_S - sum_{j off S} c_j |(Df)_j| : ||f||_n = 1 }
          = min { sqrt(n) ||D_S' q_S - D_off' xi||_2 : |xi_j| <= c_j },

    c_j = 1 - w_j (1 without weights); ``weights`` built for another active
    set raise ``ValueError``.  Any c_j < 0 leaves the box empty and raises
    ``NegativeCapError`` naming the rows and lambda.  An empty active set
    then returns the zero certificate at every k and n, with no D built:
    D_S' q_S = 0, so xi = 0 attains the dual value 0 and any constant f
    (the maximizer, all ones) the primal value 0.  Otherwise the dual is
    solved exactly, by one solver per order:

    * k = 1: with xi~ = q_S on S and -xi off S, the dual minimizes
      ||D' xi~||_2^2 = xi~_1^2 + sum (xi~_{j+1} - xi~_j)^2 + xi~_m^2,
      a string pinned to q_S at the active rows and to 0 past both ends
      inside the tube |xi~_j| <= c_j: the taut string (``_taut_string``),
      O(n) time and memory, no dense D and no size cap;
    * k >= 2: bounded-variable least squares on the dense D, one
      Householder QR solve per face; D comes from ``DiffOperator.to_dense``,
      so a non-empty active set with n above ``DENSE_CAP_DEFAULT`` (4096)
      raises ``DenseCapExceededError`` before anything is allocated.

    Both share one certificate: the maximizer is f = sqrt(n) r / ||r||_2
    with r = D_S' q_S - D_off' xi, and the result carries the primal value
    at f, the dual value and their gap: ``reliable`` means
    |gap| <= 1e-6 dual + 1e-12 (a negative gap beyond that breaks weak
    duality).  ``gamma_sq`` is the squared positive part of the primal
    value.  ``seed`` is accepted and ignored; the computation is
    deterministic.
    """
    n, k = S.n, S.k
    op = build_delta(n, k)
    off = np.ones(op.m, dtype=bool)
    off[S.indices] = False
    caps = feasibility_caps(S, weights)[off]
    neg = np.nonzero(caps < 0)[0]
    if len(neg):
        rows = np.nonzero(off)[0] + k + 1
        bad = [(int(rows[i]), float(caps[i])) for i in neg[np.argsort(caps[neg])]]
        worst = ", ".join(f"row {j}: cap={c:.6f}" for j, c in bad[:5])
        raise NegativeCapError(
            f"{len(bad)} caps 1 - w_j are negative at lambda={weights.lam:.6g} "
            f"(lambda too small?): {worst}", rows=bad)
    if not S.s:
        return DirectSparsityResult(gamma_sq=0.0, max_value=0.0, dual_value=0.0, gap=0.0,
                                    reliable=True, maximizer=np.ones(n))
    if k == 1:
        # the string v at x = 0..m+1, row j at x = j - 1: pinned to 0 past
        # both ends and to q_S on S, boxed by the caps off S; D'v = v[:-1] - v[1:]
        hi = np.zeros(op.m + 2)
        hi[1:-1][S.indices] = S.q_S
        c = hi[:-1] - hi[1:]
        lo = hi.copy()
        lo[1:-1][off] = -caps
        hi[1:-1][off] = caps
        # clipped so xi stays in the box when rounding leaves it by an ulp
        v = np.clip(_taut_string(lo.tolist(), hi.tolist()), lo, hi)
        r = v[:-1] - v[1:]

        def d_off(f):
            return (f[1:] - f[:-1])[off]
    else:
        D = op.to_dense()
        c = D[~off].T @ np.asarray(S.q_S, dtype=float)
        A = D[off].T
        r = c - A @ _box_least_squares(A, c, caps)

        def d_off(f):
            return A.T @ f
    norm_r = float(np.linalg.norm(r))
    f = math.sqrt(n) * r / norm_r
    primal = float(f @ c - caps @ np.abs(d_off(f)))
    dual = math.sqrt(n) * norm_r
    gap = dual - primal
    tol = 1e-6 * dual + 1e-12
    return DirectSparsityResult(
        gamma_sq=max(primal, 0.0) ** 2,
        max_value=primal,
        dual_value=dual,
        gap=gap,
        reliable=bool(-tol <= gap <= tol),
        maximizer=f,
    )


def gamma_closed_form(S, C_k=None):
    """Closed-form effective-sparsity bound

        n C_k ( sum_{sign-flip segments} (1 + log n_i) / n_i^{2k-1}
              + sum_{other segments}     (1 + log n_i) / n_max^{2k-1} ).
    """
    k = S.k
    if C_k is None:
        C_k = ck_sparsity(k)
    flip = S.sign_flip_segments
    total = 0.0
    for i, n_i in enumerate(S.seg_lengths, start=1):
        if i in flip:
            total += (1.0 + math.log(n_i)) / n_i ** (2 * k - 1)
        else:
            total += (1.0 + math.log(n_i)) / S.n_max ** (2 * k - 1)
    return S.n * C_k * total
