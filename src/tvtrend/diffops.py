"""Discrete difference operators, falling-factorial columns and the
lengths of their pseudo-inverse dictionaries.

Conventions
-----------
The k-th order difference operator maps ``f`` in R^n to the vector of k-th
order differences indexed by rows ``j`` in ``[k+1, n]`` (1-based):

    (Delta(k) f)_j = sum_{l=0}^{k} (-1)^l C(k, l) f_{j-l},

which for k = 1 is ``f_j - f_{j-1}``, i.e. exactly ``numpy.diff(f, k)``.
Some texts display the first-order operator with rows ``(1, -1, 0, ...)``;
that differs from the convention here by a global sign, which is immaterial
for every l1 functional and norm used in this package.

Throughout the package ``||v||_n^2`` means ``||v||_2^2 / n``.

Per-shape arrays are built once: ``_cached_polynomial_basis`` and
``_cached_pinv_sqnorms`` keep read-only arrays per (n, k) in bounded LRU
caches, so a batch of active sets pays for each block length once.
``polynomial_basis`` calls LAPACK directly; see its docstring for the two
ways that can go wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._lapack import dgeqrf, dorgqr

DENSE_CAP_DEFAULT = 4096


class InvalidOrderError(ValueError):
    """Difference order outside [1, n-1]."""


class DenseCapExceededError(RuntimeError):
    """Dense materialization refused; use the norm bounds instead."""


class UnsupportedOrderError(ValueError):
    """No closed-form column length for this order."""


class SegmentTooShortError(ValueError):
    """A segment of the active set cannot host the mock variables."""


def difference_coefficients(k):
    """Row pattern ((-1)^l C(k, l))_{l=0..k} of the k-th order operator."""
    return np.array([(-1) ** l * math.comb(k, l) for l in range(k + 1)], dtype=float)


@dataclass(frozen=True)
class DiffOperator:
    """Banded k-th order difference operator on R^n.

    Immutable; all methods are pure.  ``m = n - k`` rows, indexed by
    ``[k+1, n]`` (1-based).
    """

    n: int
    k: int

    def __post_init__(self):
        # A numpy integer is stored as int; a float or bool (not an int by
        # type) is refused, not truncated.
        for name, what in (("n", "signal length"), ("k", "difference order")):
            value = getattr(self, name)
            if type(value) is int:
                continue
            if not isinstance(value, np.integer):
                raise InvalidOrderError(f"{what} {name}={value!r} must be an integer")
            object.__setattr__(self, name, int(value))
        if self.n < 2:
            raise InvalidOrderError(f"signal length n={self.n} must be an integer >= 2")
        if not 1 <= self.k <= self.n - 1:
            raise InvalidOrderError(
                f"difference order k={self.k} outside [1, {self.n - 1}] for n={self.n}"
            )

    @property
    def m(self):
        return self.n - self.k

    def apply(self, f):
        """Delta(k) f, i.e. the k-th order differences of f (length n - k)."""
        f = np.asarray(f, dtype=float)
        if f.shape[0] != self.n:
            raise ValueError(f"expected leading dimension {self.n}, got {f.shape[0]}")
        return np.diff(f, self.k, axis=0)

    def apply_transpose(self, q):
        """Delta(k)' q for q indexed by the rows (length n - k)."""
        q = np.asarray(q, dtype=float)
        if q.shape[0] != self.m:
            raise ValueError(f"expected leading dimension {self.m}, got {q.shape[0]}")
        pad = np.zeros((self.k,) + q.shape[1:])
        z = np.concatenate([pad, q, pad], axis=0)
        return (-1) ** self.k * np.diff(z, self.k, axis=0)

    def to_dense(self, cap=DENSE_CAP_DEFAULT):
        if self.n > cap:
            raise DenseCapExceededError(
                f"n={self.n} exceeds the dense cap {cap}; "
                "use the banded methods or the column-length bounds instead"
            )
        return np.diff(np.eye(self.n), self.k, axis=0)


def build_delta(n, k):
    """Construct the k-th order difference operator for signals of length n."""
    return DiffOperator(n, k)


def polynomial_basis(n, k):
    """Orthonormal basis (n x k) of degree < k discrete polynomials.

    The Q factor of the Vandermonde matrix in x in [-1, 1] by LAPACK dgeqrf
    and dorgqr, the two calls ``np.linalg.qr`` makes, at less than half its
    overhead for these thin matrices; Q equals numpy's bit for bit.  It is
    returned C-contiguous, as numpy returns it: the Fortran-ordered Q of
    dorgqr changes the rounding of later products with it (43 of the 59
    pinned fit digests).  The routines come from ``_lapack``, which loads
    scipy's LAPACK extension without the ``scipy.linalg`` package.
    """
    i = np.arange(n, dtype=float)
    x = (2 * i - (n - 1)) / max(n - 1, 1)
    V = np.empty((n, k), order="F")
    for p in range(k):
        V[:, p] = x ** p
    qr, tau, _, _ = dgeqrf(V, overwrite_a=True)
    Q, _, _ = dorgqr(qr, tau, overwrite_a=True)
    return np.ascontiguousarray(Q)


def falling_factorial_columns(n, k, rows):
    """Falling-factorial columns phi_j for 1-based rows j in [1, n]
    (Delta phi_j = e_j): C(i - j + k - 1, k - 1) for i >= j, as the running
    product prod_r (i - j + r) / r, and 0 above row j.  The product depends
    on i - j alone, so it is taken once, for i - j = 0..n-1, and each column
    is that ramp moved down to row j."""
    rows = [int(j) for j in rows]
    if rows and min(rows) < 1:
        raise ValueError(f"rows must be 1-based, got {min(rows)}")
    shift = np.arange(n)
    ramp = np.ones(n)
    for r in range(1, k):
        ramp *= shift + r
        ramp /= r
    cols = np.zeros((n, len(rows)))
    for c, j in enumerate(rows):
        cols[j - 1:, c] = ramp[:max(n - j + 1, 0)]
    return cols


@lru_cache(maxsize=32)
def _cached_polynomial_basis(n, k):
    """Read-only ``polynomial_basis(n, k)``, built once per (n, k)."""
    out = polynomial_basis(n, k)
    out.setflags(write=False)
    return out


def dual_witness(h, k):
    """The unique u with Delta(k)' u = h (when h is orthogonal to degree < k
    polynomials), without a linear solve; columnwise for a 2-D h.

    u_j equals the inner product of h with the falling-factorial column at
    row j, which telescopes into k repeated suffix sums of h; exact up to
    rounding of additions, immune to the n^{2k} conditioning of the Gram
    system.
    """
    z = np.asarray(h, dtype=float)
    for _ in range(k):
        z = z[::-1].cumsum(axis=0)[::-1]
    return z[k:]


def pinv_column_sqnorms(n, k):
    """Squared column lengths of Delta(k)^+, in O(nk).

    Column j is the falling-factorial column phi_j with its polynomial part
    projected out, so ||psi_j||^2 = ||phi_j||^2 - ||Q' phi_j||^2 for an
    orthonormal polynomial basis Q: ||phi_j||^2 is a cumulative sum of
    squared binomials C(t+k-1, k-1)^2 and Q' phi_j is ``dual_witness`` of
    each column of Q.  Both are taken on the right half of the index set,
    where the falling-factorial columns have comparable size to their
    anti-projections (no cancellation), and mirrored by the reversal
    symmetry ||psi_j|| = ||psi_{n+k+1-j}||.
    """
    m = DiffOperator(n, k).m
    half0 = (m - 1) // 2
    binom = np.ones(m - half0)
    for _ in range(k - 1):
        binom = binom.cumsum()
    proj = dual_witness(polynomial_basis(n, k)[half0:], k)
    right = np.cumsum(binom ** 2)[::-1] - np.sum(proj ** 2, axis=1)
    out = np.empty(m)
    out[half0:] = right
    out[:half0] = right[::-1][:half0]
    return out


@lru_cache(maxsize=4096)
def _cached_pinv_sqnorms(n, k):
    out = pinv_column_sqnorms(n, k)
    out.setflags(write=False)
    return out


def column_norm_exact(n, k, j):
    """Closed-form squared length of column j of Delta(k)^+, k in {1, 2, 3}.

    ``j`` is the 1-based row index in [k+1, n]; scalar or array.
    """
    j = np.asarray(j, dtype=float)
    if np.any(j < k + 1) or np.any(j > n):
        raise ValueError(f"column index must lie in [{k + 1}, {n}]")
    n = float(n)
    if k == 1:
        return (j - 1) * (n - j + 1) / n
    if k == 2:
        return (
            (n - j + 1) * (n - j + 2) * (j - 2) * (j - 1)
            * (2 * j * (n - j + 3) - 3 * (n + 1))
        ) / (6 * n * (n + 1) * (n - 1))
    if k == 3:
        lead = (j - 3) * (j - 2) * (j - 1) * (n + 3 - j) * (n + 2 - j) * (n + 1 - j)
        tail = 10 * (n + 1) * (n + 2) + 3 * j * (n + 4 - j) * (j * (n + 4 - j) - 4 * n - 5)
        return lead * tail / (60 * (n + 2) * (n + 1) * n * (n - 1) * (n - 2))
    raise UnsupportedOrderError(
        f"no closed form for k={k}; use column_norm_bound or pinv_column_sqnorms"
    )


def column_norm_bound(n, k, j):
    """Upper bound min((j-k)^{2k-1}, (n+1-j)^{2k-1}) on the squared length.

    Valid for j in [k+1, n-1]; always dominates the exact value.
    """
    j = np.asarray(j, dtype=float)
    if np.any(j < k + 1) or np.any(j > n - 1):
        raise ValueError(f"column index must lie in [{k + 1}, {n - 1}]")
    return np.minimum((j - k) ** (2 * k - 1), (n + 1 - j) ** (2 * k - 1))


@dataclass(frozen=True)
class ActiveSet:
    """An active set S = {t_1 < ... < t_s} of rows of Delta(k), with signs.

    Sentinels t_0 = k and t_{s+1} = n+1 bound the s+1 segments; segment i has
    length n_i = t_i - t_{i-1}.  ``sign_flip_segments`` collects the segment
    indices whose endpoint signs differ, plus the two boundary segments.
    """

    n: int
    k: int
    t: tuple
    q_S: tuple

    def __post_init__(self):
        # Entries are stored as int; a float or bool entry is refused, not
        # truncated (numpy integers pass), as DiffOperator refuses n and k.
        for name in ("t", "q_S"):
            values = tuple(getattr(self, name))
            bad = [v for v in values if type(v) is not int and not isinstance(v, np.integer)]
            if bad:
                raise ValueError(f"{name} entries must be integers, got {bad[0]!r}")
            object.__setattr__(self, name, tuple(int(v) for v in values))
        DiffOperator(self.n, self.k)
        if len(self.t) != len(self.q_S):
            raise ValueError("t and q_S must have equal length")
        if any(abs(q) != 1 for q in self.q_S):
            raise ValueError("signs must be +1 or -1")
        if list(self.t) != sorted(set(self.t)):
            raise ValueError("jump locations must be strictly increasing")
        if self.t and (self.t[0] < self.k + 1 or self.t[-1] > self.n):
            raise ValueError(f"jump locations must lie in [{self.k + 1}, {self.n}]")

    @property
    def s(self):
        return len(self.t)

    # Computed once per instance; equality and hashing use the fields alone.
    @cached_property
    def t_full(self):
        """(t_0, t_1, ..., t_s, t_{s+1}) with sentinels k and n+1."""
        return (self.k,) + self.t + (self.n + 1,)

    @cached_property
    def indices(self):
        """0-based positions of the rows t_i in a vector on the rows [k+1, n]; read-only."""
        out = np.array(self.t, dtype=int) - self.k - 1
        out.setflags(write=False)
        return out

    @cached_property
    def seg_lengths(self):
        tf = self.t_full
        return tuple(tf[i] - tf[i - 1] for i in range(1, self.s + 2))

    @cached_property
    def n_max(self):
        return max(self.seg_lengths)

    @cached_property
    def sign_flip_segments(self):
        """Segment indices in [1, s+1]: sign changes plus both boundaries."""
        out = {1, self.s + 1}
        for i in range(2, self.s + 1):
            if self.q_S[i - 1] * self.q_S[i - 2] == -1:
                out.add(i)
        return frozenset(out)

    def anchor_value(self, i):
        """Value interpolated at t_i: the sign for 1 <= i <= s, else 0."""
        if 1 <= i <= self.s:
            return float(self.q_S[i - 1])
        return 0.0

    def validate_segments(self):
        """Mock rows must stay below the next active row and inside [k+1, n]."""
        tf = self.t_full
        for i in range(1, self.s + 1):
            if self.t[i - 1] + self.k - 1 > self.n:
                raise SegmentTooShortError(
                    f"segment {i + 1} (after t_{i}={self.t[i - 1]}) cannot host "
                    f"{self.k - 1} mock rows within n={self.n}"
                )
            if i < self.s and self.t[i - 1] + self.k - 1 >= self.t[i]:
                raise SegmentTooShortError(
                    f"segment {i + 1} has length {tf[i + 1] - tf[i]} < {self.k}; "
                    "mock rows would swallow the next active row"
                )

    def blocks(self):
        """Per-segment (first_coord, last_coord, block_length) 1-based triples.

        Removing the active and mock rows splits Delta(k) into s+1 banded
        blocks; block i acts on the coordinates returned here and is a copy
        of Delta(k) at the block length.
        """
        self.validate_segments()
        tf = self.t_full
        out = []
        for i in range(1, self.s + 2):
            a = 1 if i == 1 else tf[i - 1]
            b = self.n if i == self.s + 1 else tf[i] - 1
            out.append((a, b, b - a + 1))
        return out


def block_column_sqnorms(S):
    """Squared lengths of the Psi^{-S} columns, keyed by surviving row index.

    Block by block from the per-block pseudo-inverse column lengths; the
    rows ascend and no dense columns are formed.  Returns (rows, sqnorms)
    as arrays.
    """
    rows, sqn = [np.zeros(0, dtype=int)], [np.zeros(0)]
    for a, b, nb in S.blocks():
        if nb > S.k:
            rows.append(np.arange(a + S.k, b + 1))
            sqn.append(_cached_pinv_sqnorms(nb, S.k))
    return np.concatenate(rows), np.concatenate(sqn)
