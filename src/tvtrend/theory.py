"""Closed-form tuning rules and oracle-inequality bound evaluators.

All rates are stated in the normalization ``||v||_n^2 = ||v||_2^2 / n``
(note the division by n), and all logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ck_certified, minimum_segment_length
from .diffops import build_delta

LAMBDA_RULES = ("threshold", "equal_segment", "fixed")


def lambda0(u, n, m_minus_s):
    """Universal noise level sqrt((2 log(2(m-s)) + 2u) / n).

    ``m_minus_s`` is the number of inactive rows; for the difference
    operator with s active rows it equals n - k - s.
    """
    if not (math.isfinite(u) and u > 0):
        raise ValueError(f"confidence parameter u must be finite and positive, got {u}")
    if m_minus_s < 1:
        raise ValueError("need at least one inactive row")
    return math.sqrt((2.0 * math.log(2.0 * m_minus_s) + 2.0 * u) / n)


def lambda_threshold(n, k, n_max, u, s=0, strengthened=True, c_k=None):
    """Minimal admissible tuning parameter.

    Base requirement: n^{k-1} (n_max / 2n)^{(2k-1)/2} lambda0(u).  The
    strengthened form multiplies by c_k (default: the shipped certified
    constant) so the noisy interpolating vector is feasible.
    """
    base = n ** (k - 1) * (n_max / (2.0 * n)) ** ((2 * k - 1) / 2.0) * lambda0(u, n, n - k - s)
    if not strengthened:
        return base
    if c_k is None:
        c_k = ck_certified(k)
    return c_k * base


def n_max_cap(lam, u, n, k, s=0, c_k=None):
    """Largest segment length for which a fixed lambda meets the threshold.

    Exact algebraic inverse of ``lambda_threshold``:
    n_max = 2 (sqrt(n) lambda / (c_k lambda0(u)))^{2/(2k-1)}.
    """
    if c_k is None:
        c_k = ck_certified(k)
    return 2.0 * (math.sqrt(n) * lam / (c_k * lambda0(u, n, n - k - s))) ** (2.0 / (2 * k - 1))


@dataclass(frozen=True)
class BoundBreakdown:
    """An oracle-inequality right-hand side with its labeled parts."""

    approximation_error: float
    penalty_term: float
    estimation_term: float
    warnings: tuple = ()

    @property
    def total(self):
        return self.approximation_error + self.penalty_term + self.estimation_term


def _nnorm_sq(v, n):
    v = np.asarray(v, dtype=float)
    return float(v @ v) / n


def estimation_term(n, k, s, v, lam_gamma=0.0):
    """(sqrt(k(s+1)/n) + sqrt(2v/n) + lam_gamma)^2, the estimation term of the oracle
    bounds: ``lam_gamma`` is lambda Gamma_S in the adaptive one, 0 in the other."""
    return (math.sqrt(k * (s + 1) / n) + math.sqrt(2.0 * v / n) + lam_gamma) ** 2


def short_segments(S):
    """Sign-flip segments of S (1-based, ascending) shorter than k(k+2); none if s = 0."""
    min_len = minimum_segment_length(S.k)
    return [i for i in sorted(S.sign_flip_segments) if S.s and S.seg_lengths[i - 1] < min_len]


def bound_preconditions(S, lam, threshold):
    """Warnings for the preconditions of the adaptive bound that fail: lam below
    the strengthened ``threshold``, and each of the ``short_segments`` of S."""
    warnings = ([f"lambda={lam:.6g} below the strengthened threshold {threshold:.6g}"]
                if lam < threshold * (1 - 1e-12) else [])
    min_len = minimum_segment_length(S.k)
    return warnings + [f"segment {i} shorter than k(k+2) = {min_len}" for i in short_segments(S)]


def adaptive_bound_rhs(f, f0, S, lam, u, v, gamma_S):
    """Adaptive oracle bound: approximation error + 4 lambda l1(off-S
    differences) + (sqrt(k(s+1)/n) + sqrt(2v/n) + lambda Gamma_S)^2.

    Holds with probability at least 1 - e^{-u} - e^{-v} when lambda meets the
    strengthened threshold and the sign-flip segments are long enough;
    violations of those preconditions are reported as warnings
    (``bound_preconditions``), the value is still computed.
    """
    f = np.asarray(f, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    n, k = S.n, S.k
    d_off = np.delete(build_delta(n, k).apply(f), S.indices)
    return BoundBreakdown(
        approximation_error=_nnorm_sq(f - f0, n),
        penalty_term=4.0 * lam * float(np.sum(np.abs(d_off))),
        estimation_term=estimation_term(n, k, S.s, v, lam * gamma_S),
        warnings=tuple(bound_preconditions(S, lam, lambda_threshold(n, k, S.n_max, u, s=S.s))),
    )


def nonadaptive_bound_rhs(f, f0, lam, u, v, k, s):
    """Non-adaptive oracle bound: approximation error + 4 lambda l1(all
    differences) + (sqrt(k(s+1)/n) + sqrt(2v/n))^2."""
    f = np.asarray(f, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    n = len(f)
    return BoundBreakdown(
        approximation_error=_nnorm_sq(f - f0, n),
        penalty_term=4.0 * lam * float(np.sum(np.abs(build_delta(n, k).apply(f)))),
        estimation_term=estimation_term(n, k, s, v),
    )


def equal_segment_lambda(n, k, s, scale=1.0):
    """Tuning rule n^{k-1} (1/(s+1))^{(2k-1)/2} sqrt(log n / n) for active
    sets with roughly equal segment lengths."""
    return scale * n ** (k - 1) * (1.0 / (s + 1)) ** ((2 * k - 1) / 2.0) * math.sqrt(math.log(n) / n)


def tuning_lambda(rule, n, k, s, n_max, u, scale=1.0, value=None):
    """The tuning parameter of ``rule`` in ``LAMBDA_RULES``: ``value * scale``,
    ``equal_segment_lambda(n, k, s, scale)`` or ``scale`` times the
    strengthened ``lambda_threshold(n, k, n_max, u, s)``."""
    if rule == "fixed":
        return value * scale
    if rule == "equal_segment":
        return equal_segment_lambda(n, k, s, scale=scale)
    if rule == "threshold":
        return scale * lambda_threshold(n, k, n_max, u, s=s)
    raise ValueError(f"lambda rule must be one of {LAMBDA_RULES}, got {rule!r}")


def adaptive_rate(n, s):
    """Target rate shape (s+1)/n * log(n/(s+1)) * log n of the adaptive bound
    under equal segments and the equal-segment tuning rule."""
    return (s + 1) / n * math.log(n / (s + 1)) * math.log(n)


def minimax_tradeoff_bound(n, k, v=math.log(20.0)):
    """Value of the non-adaptive bound optimized over the sparsity level.

    Balancing lambda / n^{k-1} against s/n with the equal-segment rule gives
    s* = (n log n)^{1/(2k+1)} and a bound of order
    n^{-2k/(2k+1)} log^{1/(2k+1)} n (for comparators with bounded scaled
    total variation, n^{k-1} ||Delta(k) f||_1 <= 1).
    """
    s_star = max(1, round((n * math.log(n)) ** (1.0 / (2 * k + 1))))
    lam = equal_segment_lambda(n, k, s_star)
    penalty = 4.0 * lam / n ** (k - 1)
    return penalty + estimation_term(n, k, s_star, v)
