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
carry a degree-k polynomial.  Free coefficients are pinned by requiring
adjacent pieces to agree on k consecutive grid points at every junction
("discrete derivatives matching").  Segments without a sign change use the
shallow profile 1 - (4 j (n_i - j) / (n_i n_max))^{(2k-1)/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import minimum_segment_length
from .diffops import build_delta


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


# ---------------------------------------------------------------------------
# discrete derivative matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchingCoefficients:
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

    def continuous_normalization(self):
        """Coefficients in the unit variable x = j / (2M), for comparison with
        the continuous profile: boundary ``1 - a0 x**exponent``, interior
        pieces as ascending plain-x polynomials, center in powers of (1/2 - x).
        """
        N = round(2 * self.M / self.junctions[0]) if self.junctions else 2
        out = {"a0": self.a0_bar * N ** self.exponent if self.junctions
               else self.a0_bar * 2 ** self.exponent}
        polys = []
        d = self.junctions[0] if self.junctions else self.M
        for l in range(len(self.interior_centers)):
            # substitute u = (2M x - jc)/d into sum c_r u^r
            comp = np.polynomial.Polynomial([-self.interior_centers[l] / d, 2 * self.M / d])
            pol = sum(c * comp ** r for r, c in enumerate(self.interior[l]))
            polys.append(np.asarray(pol.coef, dtype=float))
        out["interior"] = polys
        scale = 2 * self.M / self.Dc
        out["center"] = {r: c * scale ** r for r, c in self.center.items()}
        return out


def _solve_matching(k, junctions, M, exponent):
    """Assemble and solve the matching system for arbitrary junction points.

    Equations are taken in scaled difference form (the l-th forward
    difference of the piece mismatch at each junction, scaled by d^l), which
    is row-equivalent to requiring agreement on k consecutive points but
    stays well-conditioned for large segments.
    """
    junctions = tuple(int(j) for j in junctions)
    if not junctions:
        return MatchingCoefficients(k=k, exponent=exponent, M=int(M), junctions=(),
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
    return MatchingCoefficients(k=k, exponent=exponent, M=int(M), junctions=junctions,
                                a0_bar=float(sol[0]), interior=interior,
                                interior_centers=centers, center=center)


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


@dataclass(frozen=True)
class ContinuousProfile:
    """Continuous antisymmetric profile q: [0, 1] -> [-1, 1], q(0) = 1.

    Piecewise: boundary layer 1 - a0 x**exponent on [0, 1/N], degree-k
    polynomials on interior sub-intervals, an odd polynomial in (1/2 - x)
    around the center, mirrored antisymmetrically.  Has k-1 continuous
    derivatives at the breakpoints by construction.
    """

    k: int
    exponent: float
    N: int
    a0: float
    interior: tuple          # ascending plain-x coefficient tuples
    center: dict             # odd power -> coefficient, in (1/2 - x)

    @property
    def breakpoints(self):
        return tuple(l / self.N for l in range(self.N + 1))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xf = np.minimum(x, 1.0 - x)
        sign = np.where(x <= 0.5, 1.0, -1.0)
        out = np.empty_like(xf)
        edges = [l / self.N for l in range(1, self.N // 2)] + [0.5]
        piece = np.searchsorted(np.asarray(edges), xf, side="left")
        sel = piece == 0
        out[sel] = 1.0 - self.a0 * xf[sel] ** self.exponent
        for l, coeffs in enumerate(self.interior):
            sel = piece == l + 1
            out[sel] = sum(c * xf[sel] ** r for r, c in enumerate(coeffs))
        sel = piece >= len(edges) - 1 if len(edges) > 1 else piece >= 1
        v = 0.5 - xf[sel]
        out[sel] = sum(c * v ** r for r, c in self.center.items())
        return sign * out


def continuous_profile(k, exponent=None, N=None):
    """Solve the continuous matching system (value and k-1 derivatives at
    each breakpoint) for the N-piece profile.

    Default N is the canonical split k+2 (k even) / k+1 (k odd).  The
    discrete construction ships the simpler two-piece profile for k <= 2;
    pass N=2 to reproduce it.
    """
    if exponent is None:
        exponent = noisy_exponent(k)
    if N is None:
        N = k + 2 if k % 2 == 0 else k + 1
    njunc = N // 2 - 1
    if njunc == 0:
        return ContinuousProfile(k=k, exponent=exponent, N=N,
                                 a0=2.0 ** exponent, interior=(), center={})
    odd_powers = tuple(range(1, (k - 1 if k % 2 == 0 else k) + 1, 2))
    n_int = njunc - 1
    nunk = 1 + n_int * (k + 1) + len(odd_powers)

    def deriv_row(piece, l, x):
        if piece == 0:
            c = 1.0
            for i in range(l):
                c *= exponent - i
            return np.array([-c * x ** (exponent - l)]), (1.0 if l == 0 else 0.0)
        if piece <= n_int:
            coefs = []
            for r in range(k + 1):
                if r < l:
                    coefs.append(0.0)
                else:
                    c = 1.0
                    for i in range(l):
                        c *= r - i
                    coefs.append(c * x ** (r - l))
            return np.array(coefs), 0.0
        coefs = []
        for r in odd_powers:
            if r < l:
                coefs.append(0.0)
            else:
                c = 1.0
                for i in range(l):
                    c *= r - i
                coefs.append(c * (-1) ** l * (0.5 - x) ** (r - l))
        return np.array(coefs), 0.0

    def cols(piece):
        if piece == 0:
            return slice(0, 1)
        if piece <= n_int:
            return slice(1 + (piece - 1) * (k + 1), 1 + piece * (k + 1))
        return slice(1 + n_int * (k + 1), nunk)

    A = np.zeros((k * njunc, nunk))
    b = np.zeros(k * njunc)
    row = 0
    for j in range(1, njunc + 1):
        x = j / N
        left = j - 1
        right = j if j <= n_int else n_int + 1
        for l in range(k):
            cl, kl = deriv_row(left, l, x)
            cr, kr = deriv_row(right, l, x)
            A[row, cols(left)] = cl
            A[row, cols(right)] -= cr
            b[row] = kr - kl
            row += 1
    sol = np.linalg.solve(A, b)
    interior = tuple(tuple(sol[1 + i * (k + 1): 1 + (i + 1) * (k + 1)]) for i in range(n_int))
    center = dict(zip(odd_powers, sol[1 + n_int * (k + 1):]))
    return ContinuousProfile(k=k, exponent=exponent, N=N, a0=float(sol[0]),
                             interior=interior, center=center)


def threshold_constant_asymptotic(k, exponent=None):
    """Large-segment limit 2 / a0_bar of the tuning threshold constant, where
    a0_bar is the drop over the first sub-interval of the profile the
    discrete construction actually ships (two-piece for k <= 2, canonical
    N-piece otherwise)."""
    prof = continuous_profile(k, exponent, N=n_subintervals(k))
    a0_bar = prof.a0 / prof.N ** prof.exponent
    return 2.0 / a0_bar


# ---------------------------------------------------------------------------
# segment profiles and the interpolating vector
# ---------------------------------------------------------------------------


def _two_piece_values(nseg, exponent, j):
    j = np.asarray(j, dtype=float)
    half = j <= nseg / 2
    with np.errstate(invalid="ignore"):
        left = 1.0 - (2.0 * j / nseg) ** exponent
        right = -1.0 + (2.0 * (nseg - j) / nseg) ** exponent
    return np.where(half, left, right)


def sign_change_profile(k, nseg, exponent=None):
    """Values v[0..nseg] of the monotone profile from +1 to -1 over nseg steps.

    nseg must be even for k >= 2 (odd segment lengths are handled one level
    up by the parity trick).  Junctions fall at floor(l * nseg / N).
    """
    if exponent is None:
        exponent = noisy_exponent(k)
    j = np.arange(nseg + 1, dtype=float)
    if k <= 2:
        return _two_piece_values(nseg, exponent, j)
    if nseg % 2:
        raise ValueError(f"segment length {nseg} must be even for k={k}")
    N = n_subintervals(k)
    M = nseg // 2
    junctions = [max(1, math.floor(l * nseg / N)) for l in range(1, N // 2)]
    if junctions[0] < k or (len(junctions) > 1 and junctions[-1] >= M):
        # too short for the junction construction; fall back to the two-piece
        # polynomial shape (only reachable below the minimum-length condition)
        return _two_piece_values(nseg, min(exponent, float(k)), j)
    coeffs = _solve_matching(k, junctions, M, exponent)
    return coeffs.values(j)


@dataclass(frozen=True)
class InterpolatingVector:
    """A vector on the rows [k+1, n] interpolating the active-set signs.

    ``caps`` holds the entrywise feasibility caps: +inf at active rows
    (where q equals the sign exactly), 1 elsewhere, shrunk to 1 - w_j when
    weights were supplied.  ``slack`` is caps - |q|.
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

    def position(self, j):
        return int(j) - self.k - 1


def _fill_segment(q, S, i, values):
    """Write profile values (offsets 0..n_i) into the open segment interior."""
    t_prev = S.t_full[i - 1]
    n_i = S.seg_lengths[i - 1]
    for off in range(1, n_i):
        j = t_prev + off
        q[j - S.k - 1] = values[off]


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
        prof = sign_change_profile(k, n_i, exponent)
        return mapped(prof)
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


def _build(S, exponent_rule, mode, weights=None, feasibility_tol=1e-12):
    k = S.k
    m = S.n - k
    q = np.zeros(m)
    for i in range(1, S.s + 2):
        vals = _segment_values(S, i, exponent_rule, mode)
        _fill_segment(q, S, i, vals)
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
    vec = InterpolatingVector(S=S, mode=mode, q=q, caps=caps)
    if weights is not None:
        _require_feasible(vec, feasibility_tol)
    return vec


def _require_feasible(vec, tol):
    """Raise ``InfeasibleInterpolantError`` if |q_j| exceeds cap_j + tol
    anywhere; ``violations`` lists (row, |q|, cap), least slack first."""
    rows = np.nonzero(np.abs(vec.q) > vec.caps + tol)[0]
    if not len(rows):
        return
    viol = [(int(r + vec.k + 1), float(abs(vec.q[r])), float(vec.caps[r])) for r in rows]
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


def build_noisy(S, weights=None, feasibility_tol=1e-12):
    """Noisy-mode interpolating vector with (2k-1)/2 boundary layers.

    Sign-flip segments must satisfy the minimum-length condition
    n_i >= k(k+2).  When ``weights`` is given the caps 1 - w_j are enforced
    entrywise and violations raise ``InfeasibleInterpolantError`` listing the
    worst rows.
    """
    min_len = minimum_segment_length(S.k)
    for i in sorted(S.sign_flip_segments):
        if S.seg_lengths[i - 1] < min_len and S.s > 0:
            raise SegmentLengthError(
                f"segment {i} has length {S.seg_lengths[i - 1]} < k(k+2) = {min_len}"
            )
    return _build(S, noisy_exponent(S.k), "noisy", weights=weights,
                  feasibility_tol=feasibility_tol)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentMonotonicity:
    segment: int
    monotone: bool
    direction: float
    max_violation: float


def check_monotone(vec, tol=1e-10):
    """Monotonicity report for every sign-flip segment (boundaries included).

    The checked sequence runs from anchor to anchor, so boundary segments
    include their virtual zero endpoint.
    """
    S = vec.S
    reports = []
    for i in sorted(S.sign_flip_segments):
        t_prev, t_next = S.t_full[i - 1], S.t_full[i]
        seq = [S.anchor_value(i - 1)]
        for j in range(t_prev + 1, t_next):
            if S.k + 1 <= j <= S.n:
                seq.append(vec.q[j - S.k - 1])
        seq.append(S.anchor_value(i))
        d = np.diff(seq)
        direction = np.sign(S.anchor_value(i) - S.anchor_value(i - 1)) or 1.0
        violation = float(np.max(-direction * d, initial=0.0))
        reports.append(SegmentMonotonicity(segment=i, monotone=violation <= tol,
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
        gamma = 1.0
        for i in range(k):
            gamma *= p - i
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
