"""Desk-scale verification suites behind the ``verify`` CLI subcommand.

Each suite runs a battery of numeric checks and returns a JSON-serializable
report: ``{"suite": ..., "passed": bool, "checks": [...]}``.  A failing
check carries the offending instance so it can be replayed.
"""

from __future__ import annotations

import math

import numpy as np

from . import interpolants as itp
from .constants import minimum_segment_length
from .diffops import ActiveSet, build_delta, column_norm_bound, column_norm_exact
from .sparsity import (compute_weights, effective_sparsity_direct,
                       effective_sparsity_via_interpolant, gamma_closed_form)
from .theory import lambda_threshold

SUITES = ("norms", "interpolants", "sparsity", "lemma35", "lemma36")


def _check(name, passed, detail=None):
    out = {"name": name, "passed": bool(passed)}
    if detail is not None:
        out["detail"] = detail
    return out


def _report(suite, checks):
    return {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks}


def random_active_set(rng, k, n_lo=None, n_hi=400, max_s=3, min_len=None):
    """Random feasible active set: segment lengths at least min_len."""
    min_len = min_len or minimum_segment_length(k)
    s = int(rng.integers(0, max_s + 1))
    lengths = min_len + rng.integers(0, 3 * min_len, size=s + 1)
    need = int(np.sum(lengths))
    n = max(n_lo or 0, need + k - 1 + int(rng.integers(0, min_len)))
    n = min(n, n_hi) if n_hi else n
    if n < need + k - 1:
        n = need + k - 1
    t = []
    pos = k
    for i in range(s):
        pos += int(lengths[i])
        t.append(pos)
    signs = rng.choice([-1, 1], size=s)
    return ActiveSet(n=n, k=k, t=tuple(t), q_S=tuple(int(v) for v in signs))


def suite_norms():
    checks = []
    for k, ns in ((2, (10, 37, 100)), (3, (12, 50))):
        worst = 0.0
        for n in ns:
            P = np.linalg.pinv(build_delta(n, k).to_dense())
            dense = np.sum(P ** 2, axis=0)
            exact = column_norm_exact(n, k, np.arange(k + 1, n + 1))
            worst = max(worst, float(np.max(np.abs(dense - exact) / np.maximum(exact, 1e-30))))
        checks.append(_check(f"closed_form_k{k}_vs_dense", worst <= 1e-8,
                             {"worst_rel_err": worst, "n_values": list(ns)}))
    n = 60
    for k in (1, 2, 3, 4):
        P = np.linalg.pinv(build_delta(n, k).to_dense())
        dense = np.sum(P ** 2, axis=0)
        j = np.arange(k + 1, n)
        bound = column_norm_bound(n, k, j)
        ok_bound = bool(np.all(bound >= dense[: n - k - 1] * (1 - 1e-12)))
        sym = dense - dense[::-1]
        ok_sym = float(np.max(np.abs(sym) / np.maximum(dense, 1.0))) <= 1e-10
        checks.append(_check(f"bound_dominates_k{k}", ok_bound))
        checks.append(_check(f"column_symmetry_k{k}", ok_sym))
    return _report("norms", checks)


def suite_interpolants(instances=40, seed=20250809):
    rng = np.random.default_rng(seed)
    checks = []
    for k in (1, 2, 3, 4):
        bad = []
        for i in range(instances):
            S = random_active_set(rng, k)
            lam = lambda_threshold(S.n, k, S.n_max, math.log(20.0), s=S.s)
            w = compute_weights(S, math.log(20.0), lam)
            try:
                vec = itp.build_noisy(S, weights=w)
            except itp.InfeasibleInterpolantError as exc:
                bad.append({"instance": i, "S": {"n": S.n, "t": S.t, "q": S.q_S},
                            "violations": exc.violations[:3]})
                continue
            interp_ok = bool(np.all(vec.q[S.indices] == S.q_S))
            mono = all(r.monotone for r in itp.check_monotone(vec))
            if not (interp_ok and mono):
                bad.append({"instance": i, "S": {"n": S.n, "t": S.t, "q": S.q_S},
                            "interp_ok": interp_ok, "monotone": mono})
        checks.append(_check(f"noisy_feasible_monotone_k{k}", not bad,
                             {"instances": instances, "failures": bad[:3]}))
        S = random_active_set(rng, k)
        vec = itp.build_noiseless(S)
        checks.append(_check(f"noiseless_caps_k{k}",
                             bool(np.all(np.abs(np.delete(vec.q, S.indices)) <= 1 + 1e-12))))
    return _report("interpolants", checks)


def suite_sparsity(instances=12, seed=20250810):
    rng = np.random.default_rng(seed)
    checks = []
    bad, worst_gap = [], 0.0
    for i in range(instances):
        k = int(rng.integers(1, 4))
        S = random_active_set(rng, k, n_hi=None, max_s=2)
        lam = lambda_threshold(S.n, S.k, S.n_max, math.log(20.0), s=S.s)
        w = compute_weights(S, math.log(20.0), lam)
        vec = itp.build_noisy(S, weights=w)
        energy = effective_sparsity_via_interpolant(vec, weights=w)
        direct = effective_sparsity_direct(S, weights=w)
        closed = gamma_closed_form(S)
        worst_gap = max(worst_gap, direct.gap)
        if not (direct.reliable and direct.gamma_sq <= energy * (1 + 1e-6)
                and energy <= closed * (1 + 1e-12)):
            bad.append({"instance": i, "k": k, "n": S.n, "t": S.t,
                        "direct": direct.gamma_sq, "gap": direct.gap,
                        "energy": energy, "closed": closed})
    checks.append(_check("sandwich_direct_le_energy_le_closed", not bad,
                         {"instances": instances, "worst_gap": worst_gap,
                          "failures": bad[:3]}))
    return _report("sparsity", checks)


def suite_lemma35():
    """Half-integer power sequences have log-growth k-th difference energy."""
    checks = []
    for k in (1, 2, 3, 4):
        ds = np.unique(np.geomspace(2 * k + 2, 1e5, 18).astype(int))
        sweep = itp.halfpower_energy_sweep(k, ds)
        energies = np.array([sweep[int(d)] for d in ds])
        slope = float(np.polyfit(np.log(ds), np.log(energies), 1)[0])
        b_tail = (itp.halfpower_energy(k, 100000) - itp.halfpower_energy(k, 10000)) / math.log(10)
        checks.append(_check(f"log_growth_k{k}", slope <= 1.05,
                             {"loglog_slope": slope, "tail_coeff_per_log": b_tail}))
    return _report("lemma35", checks)


def suite_lemma36():
    checks = []
    worst = 0.0
    for d in range(4, 101):
        cf = itp.k3_matching_closed_form(d)
        q = lambda j: 1.0 - cf["a0_bar"] * j ** 2.5 / d ** 2.5
        p = lambda j: -cf["a3_bar"] * (2.0 * d - j) ** 3 / d ** 3 + cf["a1_bar"] * (2.0 * d - j) / d
        for l in range(3):
            qq = np.diff([q(d + i) for i in range(l + 1)], l)[-1] if l else q(d)
            pp = np.diff([p(d + i) for i in range(l + 1)], l)[-1] if l else p(d)
            worst = max(worst, abs(qq - pp))
        mc = itp.solve_matching_coefficients(3, d)
        worst_solver = max(abs(mc.a0_bar - cf["a0_bar"]),
                           abs(mc.center[1] - cf["a1_bar"]),
                           abs(-mc.center[3] - cf["a3_bar"]))
        worst = max(worst, worst_solver)
    checks.append(_check("k3_exact_matching_d4_100", worst <= 1e-9, {"worst": worst}))

    mc = itp.solve_matching_coefficients(3, 10_000)
    lims = {"a0": 4 / 19, "a1": 35 / 38, "a3": 5 / 38}
    rel = max(abs(mc.a0_bar - lims["a0"]) / lims["a0"],
              abs(mc.center[1] - lims["a1"]) / lims["a1"],
              abs(-mc.center[3] - lims["a3"]) / lims["a3"])
    checks.append(_check("k3_limits_half_percent", rel <= 5e-3, {"rel_err": rel}))

    mc4 = itp.solve_matching_coefficients(4, 1000)
    cont = mc4.continuous_normalization()
    printed_poly = (1.05, -1.10, 10.16, -46.19, 44.34)
    rel4 = [abs(cont.a0 - 18.62) / 18.62]
    rel4 += [abs(c - p) / abs(p) for c, p in zip(cont.interior[0], printed_poly)]
    rel4 += [abs(cont.center[1] - 4.23) / 4.23, abs(cont.center[3] + 12.93) / 12.93]
    checks.append(_check("k4_coefficients_one_percent", max(rel4) <= 1e-2,
                         {"max_rel_err": max(rel4)}))
    return _report("lemma36", checks)


def run_suite(name, **kwargs):
    fn = {
        "norms": suite_norms,
        "interpolants": suite_interpolants,
        "sparsity": suite_sparsity,
        "lemma35": suite_lemma35,
        "lemma36": suite_lemma36,
    }.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return fn(**kwargs)
