"""Interpolating vectors for sign patterns of k-th order differences.

An interpolating vector q lives on the row index set [k+1, n] of the
difference operator, hits the prescribed signs exactly at the active rows,
and stays inside entrywise caps elsewhere (|q_j| <= 1, or 1 - w_j in the
noisy mode).  The quantity n ||Delta(k)' q||_2^2 then upper-bounds the
effective sparsity of the active set.

Construction: on each segment between consecutive active rows the vector
follows a monotone profile.  Sign-change and boundary segments split into
N sub-intervals (N = 2 for k in {1, 2}, k+1 for odd k >= 3, k+2 for even
k >= 4); the outermost sub-interval carries a power-law boundary layer with
exponent (2k-1)/2 in the noisy mode (k in the noiseless mode), the central
sub-intervals carry an odd polynomial, and interior sub-intervals (k = 4)
carry a degree-k polynomial.  One matching system pins the free
coefficients: at every junction the adjacent pieces agree under k row
functionals of orders 0..k-1.  The discrete profile takes scaled forward
differences on the grid, which is agreement on k consecutive grid points
("discrete derivatives matching"); the continuous profile, its
large-segment limit, takes derivatives instead.  Both solve to one
``MatchingCoefficients`` type with one piecewise evaluator, and
``continuous_normalization`` rewrites a solution in the unit variable.
Without junctions (k <= 2, or a segment too short for them) the profile is
the two-piece power law.  Segments without a sign change use the shallow
profile 1 - (4 j (n_i - j) / (n_i n_max))^{(2k-1)/2}.

The sign-change profile depends only on (k, segment length, exponent), so
it is solved once per key and kept read-only in a bounded LRU cache
(``_cached_profile``).  Weights
built for another active set are refused with ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import minimum_segment_length
from .diffops import ActiveSet, build_delta
from .theory import short_segments

# |q_j| may exceed its cap 1 - w_j by this much before the build rejects it.
FEASIBILITY_TOL = 1e-12
# Largest step against the segment's direction that still counts as monotone.
MONOTONE_TOL = 1e-10


class MatchingSystemError(RuntimeError):
    """The derivative-matching linear system is singular (should not occur)."""


class SegmentLengthError(ValueError):
    """A sign-flip segment violates the minimum-length condition."""


class InfeasibleInterpolantError(ValueError):
    """Entries of q exceed their caps 1 - w_j (the tuning parameter is too small)."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


def n_subintervals(k):
    """Number of profile sub-intervals: 2 for k <= 2, else k+1 (odd) / k+2 (even)."""
    if k <= 2:
        return 2
    return k + 1 if k % 2 else k + 2


def noisy_exponent(k):
    return (2 * k - 1) / 2


def _falling(a, l):
    """Falling factorial a (a-1) ... (a-l+1); zero for integer a < l."""
    c = 1.0
    for i in range(l):
        c *= a - i
    return c


# ---------------------------------------------------------------------------
# derivative matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchingCoefficients:
    """Solution of the matching system for one half-profile.

    The profile decreases from +1 at 0 to -1 at 2M and is antisymmetric
    about M.  ``junctions`` are the interior junction points of the half
    domain [0, M].  Pieces, left to right:

    * boundary layer ``1 - a0_bar (j / junctions[0])**exponent``,
    * degree-k polynomials in the centered variable (j - jc) / junctions[0]
      (coefficient rows of ``interior``), and
    * the odd center piece ``sum_r center[r] ((M - j) / Dc)**r``.

    Without junctions the boundary layer spans the half domain with
    ``a0_bar = 1`` and ``M`` in place of ``junctions[0]``: the two-piece
    profile.
    """

    k: int
    exponent: float
    M: float
    junctions: tuple
    a0_bar: float
    interior: np.ndarray
    interior_centers: tuple
    center: dict

    @property
    def d(self):
        """Length of the boundary-layer piece."""
        return self.junctions[0] if self.junctions else self.M

    @property
    def Dc(self):
        return self.M - self.junctions[-1] if self.junctions else self.M

    def values(self, j):
        """Profile values at offsets j in [0, 2M]: the pieces on [0, M],
        extended antisymmetrically about M."""
        j = np.asarray(j, dtype=float)
        folded = np.minimum(j, 2 * self.M - j)
        out = np.empty_like(folded)
        piece = np.searchsorted(np.asarray(self.junctions + (self.M,)), folded, side="left")
        sel = piece == 0
        out[sel] = 1.0 - self.a0_bar * (folded[sel] / self.d) ** self.exponent
        for l, jc in enumerate(self.interior_centers):
            sel = piece == l + 1
            u = (folded[sel] - jc) / self.d
            out[sel] = sum(c * u ** r for r, c in enumerate(self.interior[l]))
        sel = piece > len(self.interior_centers)
        v = (self.M - folded[sel]) / self.Dc
        out[sel] = sum(c * v ** r for r, c in self.center.items())
        return np.where(j <= self.M, 1.0, -1.0) * out

    def continuous_normalization(self):
        """The profile in the unit variable x = j / (2M), for equal
        sub-intervals of length d on [0, M]; unequal ones raise ValueError."""
        lengths = np.diff((0,) + self.junctions + (self.M,))
        if np.any(lengths != self.d):
            raise ValueError(f"unequal sub-intervals {tuple(lengths.tolist())} of the half "
                             f"domain [0, {self.M}]: no breakpoints l/N in x")
        N = round(2 * self.M / self.d)
        polys = []
        for l in range(len(self.interior_centers)):
            # substitute u = (2M x - jc)/d into sum c_r u^r
            comp = np.polynomial.Polynomial([-self.interior_centers[l] / self.d, 2 * self.M / self.d])
            pol = sum(c * comp ** r for r, c in enumerate(self.interior[l]))
            polys.append(np.asarray(pol.coef, dtype=float))
        scale = 2 * self.M / self.Dc
        return ContinuousProfile(solution=self, N=N, a0=self.a0_bar * N ** self.exponent,
                                 interior=polys,
                                 center={r: c * scale ** r for r, c in self.center.items()})


@dataclass(frozen=True)
class ContinuousProfile:
    """A matching solution in the unit variable x = j / (2M), so q(0) = 1
    and q(1) = -1: boundary layer ``1 - a0 x**exponent`` on [0, 1/N],
    interior pieces as ascending plain-x polynomials, the center piece in
    powers of (1/2 - x), mirrored antisymmetrically.  Calls evaluate
    through ``solution.values``."""

    solution: MatchingCoefficients
    N: int
    a0: float
    interior: list
    center: dict

    @property
    def breakpoints(self):
        return tuple(l / self.N for l in range(self.N + 1))

    def __call__(self, x):
        return self.solution.values(2 * self.solution.M * np.asarray(x, dtype=float))


def _solve_matching(k, junctions, M, exponent, derivatives=False):
    """Assemble and solve the matching system for arbitrary junction points.

    Each junction gives k rows, one per order l < k, equating a row
    functional of the two pieces that meet there.  The discrete functional
    is the l-th forward difference on the grid points jl..jl+l scaled by
    d^l, which is row-equivalent to agreement on k consecutive points but
    stays well-conditioned for large segments.  With ``derivatives`` it is
    the l-th derivative at jl scaled by d^l: the continuous profile.
    """
    junctions = tuple(junctions)
    if not junctions:
        return MatchingCoefficients(k=k, exponent=exponent, M=M, junctions=(),
                                    a0_bar=1.0, interior=np.zeros((0, k + 1)),
                                    interior_centers=(), center={})
    d = junctions[0]
    odd_powers = tuple(range(1, (k - 1 if k % 2 == 0 else k) + 1, 2))
    n_int = len(junctions) - 1
    centers = tuple((junctions[i] + junctions[i + 1]) / 2.0 for i in range(n_int))
    Dc = M - junctions[-1]
    # piece p owns the unknowns bounds[p]:bounds[p + 1]; piece 0 is the
    # boundary layer, 1..n_int the interior pieces, n_int + 1 the center
    bounds = np.cumsum([0, 1] + [k + 1] * n_int + [len(odd_powers)])

    def basis(piece, x, l):
        """d^l times the l-th derivative at the points x of the function each
        unknown of ``piece`` multiplies, and of the piece's constant term."""
        if piece == 0:
            return (-(_falling(exponent, l) * (x / d) ** (exponent - l))[:, None],
                    np.full_like(x, l == 0))
        if piece <= n_int:
            u = (x - centers[piece - 1]) / d
            return (np.column_stack([_falling(r, l) * u ** max(r - l, 0) for r in range(k + 1)]),
                    np.zeros_like(x))
        v = (M - x) / Dc
        return (np.column_stack([_falling(r, l) * (-d / Dc) ** l * v ** max(r - l, 0)
                                 for r in odd_powers]),
                np.zeros_like(x))

    def functional(piece, jl):
        """Rows l = 0..k-1 of the matching functional at junction jl, with
        their constant terms."""
        if derivatives:
            rows = [basis(piece, np.array([float(jl)]), l) for l in range(k)]
            return np.vstack([C for C, _ in rows]), np.concatenate([c for _, c in rows])
        C, c = basis(piece, np.arange(jl, jl + k, dtype=float), 0)
        F = np.empty((k, C.shape[1]))
        f = np.empty(k)
        for l in range(k):
            w = np.array([(-1) ** (l - i) * math.comb(l, i) for i in range(l + 1)])
            scale = float(d) ** l
            F[l] = scale * (w @ C[: l + 1])
            f[l] = scale * (w @ c[: l + 1])
        return F, f

    A = np.zeros((k * len(junctions), bounds[-1]))
    b = np.zeros(k * len(junctions))
    for idx, jl in enumerate(junctions):
        rows = slice(k * idx, k * (idx + 1))
        FL, fL = functional(idx, jl)
        FR, fR = functional(idx + 1, jl)
        A[rows, bounds[idx]:bounds[idx + 1]] = FL
        A[rows, bounds[idx + 1]:bounds[idx + 2]] -= FR
        b[rows] = -(fL - fR)
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise MatchingSystemError(f"singular matching system (k={k}, junctions={junctions})") from exc
    if not np.all(np.isfinite(sol)):
        raise MatchingSystemError(f"non-finite matching solution (k={k}, junctions={junctions})")
    return MatchingCoefficients(k=k, exponent=exponent, M=M, junctions=junctions,
                                a0_bar=float(sol[0]),
                                interior=sol[1:bounds[-2]].reshape(n_int, k + 1),
                                interior_centers=centers,
                                center=dict(zip(odd_powers, sol[bounds[-2]:])))


def solve_matching_coefficients(k, d, exponent=None):
    """Matching coefficients for the canonical geometry with sub-interval
    length d (junctions at d, 2d, ...; half-width M = N d / 2).

    For k = 3 this reproduces the closed-form three-point construction (see
    ``k3_matching_closed_form``); coefficients converge to the continuous
    profile's as d grows.
    """
    k = int(k)
    d = int(d)
    if d < k:
        raise ValueError(f"sub-interval length d={d} must be at least k={k}")
    if exponent is None:
        exponent = noisy_exponent(k)
    N = n_subintervals(k)
    M = N * d // 2
    junctions = tuple(l * d for l in range(1, N // 2))
    return _solve_matching(k, junctions, M, exponent)


def k3_matching_closed_form(d):
    """Closed-form matching coefficients for k = 3 with sub-interval length d.

    Returns (a0_bar, a1_bar, a3_bar) together with the intermediate ratios
    (alpha1, gamma1, alpha2, gamma2) of divided differences of j^{5/2} and
    j^3 at the junction.
    """
    d = float(d)
    alpha1 = ((d + 1) ** 2.5 - d ** 2.5) / d ** 1.5
    gamma1 = (d ** 3 - (d - 1) ** 3) / d ** 2
    alpha2 = (((d + 2) ** 2.5 - (d + 1) ** 2.5) - ((d + 1) ** 2.5 - d ** 2.5)) / d ** 0.5
    gamma2 = ((d ** 3 - (d - 1) ** 3) - ((d - 1) ** 3 - (d - 2) ** 3)) / d
    den = gamma2 - alpha2 + (gamma1 * alpha2 + alpha1 * gamma2)
    a0_bar = gamma2 / den
    a3_bar = alpha2 / den
    a1_bar = (gamma1 * alpha2 + alpha1 * gamma2) / den
    return {"a0_bar": a0_bar, "a1_bar": a1_bar, "a3_bar": a3_bar,
            "alpha1": alpha1, "gamma1": gamma1, "alpha2": alpha2, "gamma2": gamma2}


# ---------------------------------------------------------------------------
# continuous profiles
# ---------------------------------------------------------------------------


def continuous_profile(k, exponent=None, N=None):
    """The N-piece continuous profile: the matching system with derivatives
    (value and k-1 derivatives at each breakpoint), solved on unit
    sub-intervals and returned in the unit variable.

    Default N is the canonical split k+2 (k even) / k+1 (k odd).  The
    discrete construction ships the simpler two-piece profile for k <= 2;
    pass N=2 to reproduce it.
    """
    if exponent is None:
        exponent = noisy_exponent(k)
    if N is None:
        N = k + 2 if k % 2 == 0 else k + 1
    solution = _solve_matching(k, range(1, N // 2), N // 2, exponent, derivatives=True)
    return solution.continuous_normalization()


def threshold_constant_asymptotic(k, exponent=None):
    """Large-segment limit 2 / a0_bar of the tuning threshold constant, where
    a0_bar is the drop over the first sub-interval of the profile the
    discrete construction actually ships (two-piece for k <= 2, canonical
    N-piece otherwise)."""
    return 2.0 / continuous_profile(k, exponent, N=n_subintervals(k)).solution.a0_bar


# ---------------------------------------------------------------------------
# segment profiles and the interpolating vector
# ---------------------------------------------------------------------------


def sign_change_profile(k, nseg, exponent=None):
    """Values v[0..nseg] of the monotone profile from +1 to -1 over nseg steps.

    nseg must be even for k >= 3 (odd segment lengths are handled one level
    up by the parity trick).  Junctions fall at floor(l * nseg / N); for
    k <= 2 there are none and any nseg gives the two-piece profile.  Built
    once per (k, nseg, exponent) (``_cached_profile``) and returned
    read-only.
    """
    return _cached_profile(k, nseg, noisy_exponent(k) if exponent is None else exponent)


@lru_cache(maxsize=512)
def _cached_profile(k, nseg, exponent):
    """``sign_change_profile`` for a given exponent.  Active sets of one n
    share most segment lengths, so the interpolants of a batch solve each
    matching system once; the arrays are read-only so no caller can change
    what the cache holds."""
    if nseg < 1:
        raise ValueError(f"segment length {nseg} must be at least 1")
    if k > 2 and nseg % 2:
        raise ValueError(f"segment length {nseg} must be even for k={k}")
    N = n_subintervals(k)
    junctions = [max(1, math.floor(l * nseg / N)) for l in range(1, N // 2)]
    if junctions and (junctions[0] < k or (len(junctions) > 1 and junctions[-1] >= nseg / 2)):
        # too short for the junction construction; fall back to the two-piece
        # polynomial shape (only reachable below the minimum-length condition)
        junctions, exponent = [], min(exponent, float(k))
    out = _solve_matching(k, junctions, nseg / 2, exponent).values(np.arange(nseg + 1))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class InterpolatingVector:
    """A vector on the rows [k+1, n] interpolating the active-set signs.

    ``caps`` holds the entrywise caps of ``feasibility_caps`` (+inf at the
    active rows, where q equals the sign).  ``slack`` is caps - |q|.
    """

    S: ActiveSet
    mode: str
    q: np.ndarray
    caps: np.ndarray

    @property
    def k(self):
        return self.S.k

    @property
    def n(self):
        return self.S.n

    @property
    def row_indices(self):
        return np.arange(self.k + 1, self.n + 1)

    @property
    def slack(self):
        return self.caps - np.abs(self.q)


def _segment_values(S, i, exponent, mode):
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
        return mapped(sign_change_profile(k, n_i, exponent))
    # parity trick: absorb one step so the profile length is even
    if n_i % 2:
        reduced = sign_change_profile(k, n_i - 1, exponent)
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
    return mapped(sign_change_profile(k, n_i, exponent))


def _build(S, exponent_rule, mode, weights=None):
    k = S.k
    q = np.zeros(S.n - k)
    for i, n_i in enumerate(S.seg_lengths, start=1):
        if n_i > 1:     # a segment of length 1 has no interior row
            start = S.t_full[i - 1] - k
            q[start:start + n_i - 1] = _segment_values(S, i, exponent_rule, mode)[1:n_i]
    q[S.indices] = S.q_S
    caps = feasibility_caps(S, weights)
    if weights is not None:
        _require_feasible(q, caps, k)
    return InterpolatingVector(S=S, mode=mode, q=q, caps=caps)


def feasibility_caps(S, weights=None):
    """Caps on the rows [k+1, n]: +inf at the active rows, 1 - w_j elsewhere (1
    without ``weights``).  ``weights`` built for another active set raise
    ``ValueError``: of the same (n, k), they have the right shape, wrong caps."""
    m = S.n - S.k
    if weights is None:
        caps = np.ones(m)
    elif weights.S != S:
        raise ValueError("weights were computed for another active set; "
                         "compute_weights(S, u, lam) builds them for S")
    elif weights.w.shape != (m,):
        raise ValueError(f"weights must align with the {m} rows")
    else:
        caps = 1.0 - weights.w
    caps[S.indices] = np.inf
    return caps


def _require_feasible(q, caps, k):
    """Raise ``InfeasibleInterpolantError`` if |q_j| exceeds cap_j +
    ``FEASIBILITY_TOL`` anywhere; ``violations`` lists (row, |q|, cap),
    least slack first."""
    rows = np.nonzero(np.abs(q) > caps + FEASIBILITY_TOL)[0]
    if not len(rows):
        return
    viol = [(int(r + k + 1), float(abs(q[r])), float(caps[r])) for r in rows]
    viol.sort(key=lambda v: v[2] - v[1])
    worst = ", ".join(f"row {j}: |q|={a:.6f} > cap={c:.6f}" for j, a, c in viol[:5])
    raise InfeasibleInterpolantError(
        f"{len(viol)} entries exceed their caps (lambda too small?): {worst}",
        violations=viol,
    )


def build_noiseless(S):
    """Piecewise degree-k monotone interpolation of the signs, |q_j| <= 1.

    Constant on segments without a sign change; zero anchors at both ends.
    """
    return _build(S, float(S.k), "noiseless")


def build_noisy(S, weights=None):
    """Noisy-mode interpolating vector with (2k-1)/2 boundary layers.

    Sign-flip segments must satisfy the minimum-length condition
    n_i >= k(k+2).  When ``weights`` is given the caps 1 - w_j are enforced
    entrywise, up to ``FEASIBILITY_TOL``, and violations raise
    ``InfeasibleInterpolantError`` listing the worst rows; ``weights`` built
    for another active set raise ``ValueError``.
    """
    short = short_segments(S)
    if short:
        raise SegmentLengthError(f"segment {short[0]} has length {S.seg_lengths[short[0] - 1]}"
                                 f" < k(k+2) = {minimum_segment_length(S.k)}")
    return _build(S, noisy_exponent(S.k), "noisy", weights=weights)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentMonotonicity:
    segment: int
    monotone: bool
    direction: float
    max_violation: float


def check_monotone(vec):
    """Monotonicity report for every sign-flip segment (boundaries included),
    monotone meaning no step against the direction above ``MONOTONE_TOL``.

    The checked sequence runs from anchor to anchor, so boundary segments
    include their virtual zero endpoint.
    """
    S = vec.S
    reports = []
    for i in sorted(S.sign_flip_segments):
        t_prev, t_next = S.t_full[i - 1], S.t_full[i]
        d = np.diff(np.concatenate([[S.anchor_value(i - 1)], vec.q[t_prev - S.k:t_next - S.k - 1],
                                    [S.anchor_value(i)]]))
        direction = np.sign(S.anchor_value(i) - S.anchor_value(i - 1)) or 1.0
        violation = float(np.max(-direction * d, initial=0.0))
        reports.append(SegmentMonotonicity(segment=i, monotone=violation <= MONOTONE_TOL,
                                           direction=float(direction),
                                           max_violation=violation))
    return reports


def delta_k_energy(vec):
    """n ||Delta(k)' q||_2^2, the effective-sparsity bound of the vector."""
    op = build_delta(vec.n, vec.k)
    g = op.apply_transpose(vec.q)
    return vec.n * float(g @ g)


def junction_residuals(vec):
    """Max |k-th difference of q| near each active row, with its scale.

    Returns a list of (active index t_i, residual, scale) where scale is
    min(n_i, n_{i+1})^{-(2k-1)/2}; gluing the per-segment profiles leaves
    k-th differences of at most a constant times the scale.
    """
    S, k = vec.S, vec.k
    if S.s == 0 or len(vec.q) <= k:
        return []
    dq = np.abs(np.diff(vec.q, k))
    out = []
    for i, ti in enumerate(S.t, start=1):
        lo = max(ti - k - (k + 1) - 1, 0)
        hi = min(ti - 1, len(dq))
        if lo >= hi:
            continue
        res = float(np.max(dq[lo:hi]))
        scale = min(S.seg_lengths[i - 1], S.seg_lengths[i]) ** (-(2 * k - 1) / 2)
        out.append((ti, res, scale))
    return out


def _uniform_sum_moments(k, mmax):
    """Raw moments of the sum of k iid uniform(0,1) variables."""
    mom = np.zeros(mmax + 1)
    mom[0] = 1.0
    for _ in range(k):
        new = np.empty(mmax + 1)
        for m in range(mmax + 1):
            new[m] = sum(math.comb(m, i) * mom[i] / (m - i + 1) for i in range(m + 1))
        mom = new
    return mom


def halfpower_diffs(k, d):
    """k-th differences of the sequence q_j = j^{(2k-1)/2}, j = k..d.

    Direct differencing in double precision loses the signal for large j
    (the differences shrink like j^{-1/2} while the values grow like j^k
    times that).  The window starting at x is instead evaluated through the
    B-spline integral representation of finite differences,

        diff(x) = p (p-1) ... (p-k+1) * E[(x + U_1 + ... + U_k)^{-1/2}],

    expanded as a binomial series in (u / x), which converges at machine
    precision for x >= 8k; small x falls back to direct differencing where
    double precision is exact enough.
    """
    p = (2 * k - 1) / 2
    L = d - k + 1
    if L <= k:
        return np.zeros(0)
    xs = np.arange(k, d - k + 1, dtype=float)
    out = np.empty(len(xs))
    switch = 8 * k
    small = xs < switch
    if np.any(small):
        top = min(d, switch + 2 * k)
        j = np.arange(k, top + 1, dtype=float)
        direct = np.diff(j ** p, k)
        out[small] = direct[: int(np.sum(small))]
    big = ~small
    if np.any(big):
        x = xs[big]
        gamma = _falling(p, k)
        nterms = 24
        mom = _uniform_sum_moments(k, nterms)
        # (x + u)^{-1/2} = x^{-1/2} sum_m binom(-1/2, m) (u/x)^m
        acc = np.zeros_like(x)
        coef = 1.0
        for m in range(nterms + 1):
            if m > 0:
                coef *= -(0.5 + m - 1) / m
            acc += coef * mom[m] * x ** (-m)
        out[big] = gamma * acc / np.sqrt(x)
    return out


def halfpower_energy(k, d):
    """||Delta(k) q||_2^2 for the sequence q_j = j^{(2k-1)/2}, j = k..d.

    Grows like 1 + log d; the basis of the logarithmic factor in the noisy
    effective-sparsity bounds.
    """
    dq = halfpower_diffs(k, d)
    return float(dq @ dq)


def halfpower_energy_sweep(k, ds):
    """Energies at the sorted cutoffs ``ds``, sharing one difference pass."""
    ds = sorted(int(d) for d in ds)
    dq = halfpower_diffs(k, ds[-1])
    csum = np.concatenate([[0.0], np.cumsum(dq * dq)])
    return {d: float(csum[max(d - 2 * k + 1, 0)]) for d in ds}
