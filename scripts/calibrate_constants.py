#!/usr/bin/env python3
"""Calibrate the shipped constants in tvtrend.constants.

For each order k in 1..4, over a randomized family of active sets (segment
lengths from the minimum k(k+2) up to ~60x that, up to 5 active rows,
n up to ~2500), compute:

* c_k (certified): the smallest threshold multiplier for which the noisy
  interpolating vector satisfies |q_j| <= 1 - w_j entrywise, maximized over
  the family.  The weights scale like 1/lambda, so the per-instance
  requirement is max_j ||psi_j||_n / ((1 - |q_j|) base), with
  base = n^{k-1} (n_max / 2n)^{(2k-1)/2}; no confidence parameter enters.
* C_k (sparsity): the smallest constant making the closed-form segment-sum
  bound dominate the interpolant energy n ||D' q||_2^2, maximized over the
  family (the construction does not depend on lambda).
* the junction-residual constants.

Prints suggested values (family max plus a safety margin) next to the
currently shipped ones.  Run time: a few minutes.
"""

import argparse
import math
import sys

import numpy as np

from tvtrend import constants
from tvtrend.diffops import ActiveSet, block_column_sqnorms
from tvtrend.interpolants import build_noisy, delta_k_energy, junction_residuals
from tvtrend.sparsity import gamma_closed_form


def family(rng, k, count):
    """Randomized active sets, including adversarial minimum-length ones."""
    min_len = constants.minimum_segment_length(k)
    sets = []
    for i in range(count):
        s = int(rng.integers(0, 6))
        if i % 7 == 0:
            lengths = np.full(s + 1, min_len)
        elif i % 7 == 1:
            lengths = np.concatenate([[min_len], min_len * rng.integers(20, 60, size=s)]) \
                if s else np.array([min_len * 40])
        else:
            lengths = (min_len * np.exp(rng.uniform(0, math.log(60), size=s + 1))).astype(int)
            lengths = np.maximum(lengths, min_len)
        # parity stress: force odd lengths half the time
        if i % 2:
            lengths = lengths + (1 - lengths % 2)
        if int(np.sum(lengths)) + k - 1 > 2500:
            continue
        signs = rng.choice([-1, 1], size=s)
        try:
            sets.append(ActiveSet.from_lengths(k, lengths, signs))
        except ValueError:
            continue
    return sets


def required_ck(S):
    k = S.k
    base = S.n ** (k - 1) * (S.n_max / (2.0 * S.n)) ** ((2 * k - 1) / 2.0)
    vec = build_noisy(S)
    rows, sqn = block_column_sqnorms(S)
    c_req = 0.0
    for j, q2 in zip(rows, sqn):
        pos = j - k - 1
        head = 1.0 - abs(vec.q[pos])
        if head <= 0:
            return math.inf, vec
        c_req = max(c_req, math.sqrt(q2 / S.n) / (head * base))
    return c_req, vec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=400)
    ap.add_argument("--seed", type=int, default=20250809)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    print(f"{'k':>2} {'c_req max':>12} {'shipped c_k':>12} {'C_req max':>12} "
          f"{'shipped C_k':>12} {'join max':>10} {'shipped':>9}")
    for k in (1, 2, 3, 4):
        sets = family(rng, k, args.count)
        worst_c, worst_C, worst_join = 0.0, 0.0, 0.0
        argmax_c = None
        for S in sets:
            c_req, vec = required_ck(S)
            if c_req > worst_c:
                worst_c, argmax_c = c_req, S
            energy = delta_k_energy(vec)
            denom = gamma_closed_form(S, C_k=1.0)
            if denom > 0:
                worst_C = max(worst_C, energy / denom)
            for _t, res, scale in junction_residuals(vec):
                worst_join = max(worst_join, res / scale)
        print(f"{k:>2} {worst_c:>12.4f} {constants.CK_CERTIFIED[k]:>12.4f} "
              f"{worst_C:>12.4f} {constants.CK_SPARSITY[k]:>12.4f} "
              f"{worst_join:>10.3f} {constants.JOIN_CONST[k]:>9.1f}")
        if argmax_c is not None:
            print(f"   worst-c instance: n={argmax_c.n} t={argmax_c.t} q={argmax_c.q_S}")
        print(f"   asymptotic c_k = {constants.CK_ASYMPTOTIC[k]:.4f}; "
              f"suggest c_k >= {1.02 * worst_c:.4f}, C_k >= {1.05 * worst_C:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
