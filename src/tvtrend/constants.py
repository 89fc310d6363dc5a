"""Shipped numeric constants for the tuning-parameter and sparsity bounds.

Two families of constants appear in the theory:

* ``c_k`` scales the tuning-parameter threshold so that the noisy
  interpolating vector stays inside its entrywise caps ``1 - w_j``.
* ``C_k`` scales the closed-form effective-sparsity bound so that it
  dominates the energy of the constructed interpolating vectors.

The ``*_ASYMPTOTIC`` values are the large-segment limits implied by the
continuous profiles (2 / the drop of the profile over its first
sub-interval).  The ``*_CERTIFIED`` values were obtained by maximizing the
realized constraint ratios over randomized active sets at finite segment
lengths (n_i down to the minimum k(k+2), n up to 2500) and adding a small
safety margin; see scripts/calibrate_constants.py.  They are empirical
defaults, not exact quantities.
"""

import math

from ._checks import integer

# The default of both confidence parameters u and v of the bounds: events U
# and V each fail with probability at most e^{-u} = e^{-v} = 5%.
UV_DEFAULT = math.log(20.0)

# Large-segment limits of the threshold constants: 2 / a0_bar, where a0_bar
# is the drop of the continuous profile over its first sub-interval.
CK_ASYMPTOTIC = {
    1: 2.0,
    2: 2.0,
    3: 19.0 / 2.0,
    4: 2.0 * 6.0 ** 3.5 / 18.618995346903232,
}

# Finite-length certified threshold constants (calibrated; see module doc).
# Family maxima of the realized requirement are 1.9944 / 1.9915 / 1.6736 /
# 1.2136 for k = 1..4 over 341-400 adversarial and random active sets per
# order (``python scripts/calibrate_constants.py`` at its defaults, seed
# 20250809 and count 400, as for the maxima below); for k <= 2 the
# two-piece profiles make 2.0 an exact upper bound.
# The certified values for k >= 3 sit far below the asymptotic ones because
# the weights use exact dictionary column lengths rather than the
# worst-case length bound.
CK_CERTIFIED = {
    1: 2.00,
    2: 2.00,
    3: 1.80,
    4: 1.40,
}

# Closed-form effective-sparsity constants: smallest C_k for which the
# closed-form bound dominates the constructed interpolant energies over the
# calibration family (maxima 1.9438 / 43.34 / 1839.9 / 572314), plus margin.
# At k = 4 the margin is 1.3%, below the script's rule of family maximum
# plus 5% (600930).
# The rapid growth in k reflects the squared size of the boundary-layer
# profile coefficients and their junction residuals.
CK_SPARSITY = {
    1: 2.2,
    2: 50.0,
    3: 2200.0,
    4: 580000.0,
}

# Junction-residual constants: |Delta(k) q| at the O(k) entries around a
# segment boundary is at most JOIN_CONST[k] * n_i^{-(2k-1)/2} (family
# maxima 1.994 / 14.16 / 80.74 / 1340.2, plus margin).
JOIN_CONST = {
    1: 2.5,
    2: 18.0,
    3: 95.0,
    4: 1900.0,
}


def ck_asymptotic(k):
    return CK_ASYMPTOTIC[integer("k of the shipped constants", k, ValueError, 1, 4)]


def ck_certified(k):
    return CK_CERTIFIED[integer("k of the shipped constants", k, ValueError, 1, 4)]


def ck_sparsity(k):
    return CK_SPARSITY[integer("k of the shipped constants", k, ValueError, 1, 4)]


def minimum_segment_length(k):
    """Minimum length k(k+2) required of sign-flip segments."""
    return k * (k + 2)


assert math.isclose(CK_ASYMPTOTIC[4], 56.83, rel_tol=2e-4)
