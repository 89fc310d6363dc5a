"""The input rules of tvtrend's entry points, each defined once.

Each checker returns the value it accepts and raises the exception type its
caller passes, so every entry point keeps its own.  A bool is not a number
here: ``True`` and ``np.True_`` are refused wherever one is due.  The module
imports nothing from tvtrend, so ``diffops``, the lowest layer, can use it.
"""

import math
import numbers

import numpy as np


def integer(name, value, error, low=None, high=None):
    """``value`` as an int, unless it is not an integer or lies outside
    [low, high] (a bound left None is open); numpy integers pass."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        where = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {where}, got {value}")
    return value


def real(name, value, error, sign=None, optional=False):
    """``value``, unless it is not a finite real number (an integer beyond
    the float range is not) or breaks ``sign``: "positive", "nonnegative" or
    None (either).  None passes when ``optional``."""
    if value is None and optional:
        return value
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise error(f"{name} must be finite, got a number beyond the float range") from None
    if not finite or (sign == "positive" and value <= 0) or (
            sign == "nonnegative" and value < 0):
        raise error(f"{name} must be finite" + (f" and {sign}" if sign else "") + f", got {value}")
    return value


def flag(name, value, error):
    """``value``, unless it is not a bool."""
    if not isinstance(value, bool):
        raise error(f"{name} must be true or false, got {value!r}")
    return value


def shape(n, k, error):
    """(n, k) as ints: a signal length n >= 2 and a difference order k in
    [1, n - 1], the shapes on which the k-th difference operator has rows."""
    n = integer("signal length n", n, error, 2)
    k = integer("difference order k", k, error, 1)
    if k > n - 1:
        raise error(f"difference order k={k} needs n >= k + 1 = {k + 1}, got n = {n}")
    return n, k


def signal(y):
    """``y`` as a float array, unless it is not one-dimensional or not
    finite (``ValueError``)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be one-dimensional")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    return y
