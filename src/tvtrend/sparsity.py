"""Effective sparsity: weights, direct oracle, interpolant and closed-form bounds.

The noisy effective sparsity of an active set with signs q_S is the squared
positive part of

    max { q_S' (Df)_S - sum_{j off S} (1 - w_j) |(Df)_j| : ||f||_n = 1 },

with weights w_j = ||psi_j^{-S}||_n lambda0(u) / lambda built from the
dictionary column lengths (zero at active and mock rows).  Three routes to
it live here: the exact value from the box-constrained least-squares dual,
certified by the primal value at the recovered maximizer, the dual value and
their gap, for n up to ``DENSE_CAP_DEFAULT``; the energy n ||D' q||_2^2 of a
feasible interpolating vector (always an upper bound); and the closed-form
segment-sum bound with the shipped constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ck_sparsity
from .diffops import ActiveSet, block_column_sqnorms, build_delta
from .interpolants import InterpolatingVector, _require_feasible, delta_k_energy
from .theory import lambda0


@dataclass(frozen=True)
class Weights:
    """Entrywise weights on the rows [k+1, n]; zero at active and mock rows."""

    S: ActiveSet
    u: float
    lam: float
    lam0: float
    w: np.ndarray
    free_mask: np.ndarray

    @property
    def caps(self):
        return 1.0 - self.w


def compute_weights(S, u, lam):
    """Weights w_j = ||psi_j^{-S}||_n lambda0(u) / lambda for the free rows."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    m = S.n - S.k
    rows, sqn = block_column_sqnorms(S)
    l0 = lambda0(u, S.n, S.n - S.k - S.s)
    w = np.zeros(m)
    w[rows - S.k - 1] = np.sqrt(sqn / S.n) * l0 / lam
    free = np.zeros(m, dtype=bool)
    free[rows - S.k - 1] = True
    return Weights(S=S, u=u, lam=lam, lam0=l0, w=w, free_mask=free)


def effective_sparsity_via_interpolant(vec, weights=None, feasibility_tol=1e-9):
    """Upper bound n ||D' q||_2^2 from a feasible interpolating vector.

    Feasibility (|q_j| <= caps entrywise off the active rows) is re-checked;
    an infeasible vector raises with the violating rows listed.
    """
    caps = vec.caps
    if weights is not None:
        caps = np.where(np.isinf(vec.caps), np.inf, 1.0 - weights.w)
        vec = InterpolatingVector(S=vec.S, mode=vec.mode, q=vec.q, caps=caps)
    _require_feasible(vec, feasibility_tol)
    return delta_k_energy(vec)


def _box_least_squares(A, b, caps):
    """Exact minimizer of ||b - A xi||_2 over |xi_j| <= caps_j.

    Bounded-variable least squares (Stark & Parker 1995).  Each face, the
    free coordinates with the others held at their bounds, is solved exactly
    with lstsq.  The free coordinates step from the current point toward the
    face solution and stop at the first coordinate that meets its bound,
    which is bound; once the face solution is feasible, the bound coordinate
    whose optimality condition is most violated is released.  The start
    binds every coordinate the face solution leaves the box by at once,
    which saves about one lstsq per bound coordinate.  A has independent
    columns, so the minimizer is unique.  Coordinate descent is no
    substitute: D'D has condition number about n^{2k} and the sweeps stall
    at k = 3.
    """
    m = A.shape[1]
    xi = np.zeros(m)
    at = np.zeros(m)  # +1 / -1 at the upper / lower bound, 0 free

    def settle(clip):
        while True:
            free = np.nonzero(at == 0)[0]
            rhs = b - A @ np.where(at == 0, 0.0, xi)
            z = np.linalg.lstsq(A[:, free], rhs, rcond=None)[0]
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

    c_j = 1 - w_j (1 without weights).  The dual is solved exactly, the
    maximizer is f = sqrt(n) r / ||r||_2 with r = D_S' q_S - D_off' xi, and
    the result is certified by the primal value at f, the dual value and
    their gap: ``reliable`` means gap <= 1e-6 dual + 1e-12.  ``gamma_sq`` is
    the squared positive part of the primal value.  ``seed`` is accepted and
    ignored; the computation is deterministic.

    D is dense (``DiffOperator.to_dense``), so n above ``DENSE_CAP_DEFAULT``
    (4096) raises ``DenseCapExceededError`` before anything is allocated.
    """
    n, k = S.n, S.k
    op = build_delta(n, k)
    D = op.to_dense()
    active_pos = np.array([t - k - 1 for t in S.t], dtype=int)
    off_pos = np.setdiff1d(np.arange(op.m), active_pos)
    caps = np.ones(len(off_pos)) if weights is None else 1.0 - weights.w[off_pos]
    c = D[active_pos].T @ np.asarray(S.q_S, dtype=float)
    A = D[off_pos].T
    r = c - A @ _box_least_squares(A, c, caps)
    norm_r = float(np.linalg.norm(r))
    # r = 0 only for an empty active set; a constant attains the value 0 there
    f = math.sqrt(n) * r / norm_r if norm_r > 0 else np.ones(n)
    primal = float(f @ c - caps @ np.abs(A.T @ f))
    dual = math.sqrt(n) * norm_r
    gap = dual - primal
    return DirectSparsityResult(
        gamma_sq=max(primal, 0.0) ** 2,
        max_value=primal,
        dual_value=dual,
        gap=gap,
        reliable=bool(gap <= 1e-6 * dual + 1e-12),
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
