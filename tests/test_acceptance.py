"""Acceptance gate: one test per shipped contract, each printing a summary
line (collected in the terminal summary).  Budgets are wall-clock seconds.

Run with:  pytest tests/test_acceptance.py -v
"""

import math
import time

import numpy as np
import pytest

import conftest
from conftest import dense_pinv, sample_sandwich_instance, sparsity_dual_reference
from tvtrend import diffops as dop
from tvtrend import estimator as est
from tvtrend import experiments as exp
from tvtrend import interpolants as itp
from tvtrend import sparsity as sp
from tvtrend import theory
from tvtrend.constants import minimum_segment_length

U = V = math.log(20.0)


def record(name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed <= budget else "FAIL"
    line = f"ACCEPTANCE {name}: {status} [{elapsed:.1f}s/{budget:.0f}s] {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line
    assert elapsed <= budget, line


def test_closed_form_column_norms():
    t0 = time.time()
    worst = 0.0
    for k, ns in ((2, (10, 37, 100)), (3, (12, 50))):
        for n in ns:
            dense = np.sum(dense_pinv(n, k) ** 2, axis=0)
            exact = dop.column_norm_exact(n, k, np.arange(k + 1, n + 1))
            worst = max(worst, float(np.max(np.abs(dense - exact) / exact)))
    record("norm-closed-forms", worst <= 1e-8,
           f"worst rel err {worst:.2e} (k=2 @ n=10,37,100; k=3 @ n=12,50)",
           time.time() - t0, 10.0)


def test_length_bound_and_symmetry():
    t0 = time.time()
    ok_bound, ok_sym, worst_sym = True, True, 0.0
    n = 60
    for k in (1, 2, 3, 4):
        sq = np.sum(dense_pinv(n, k) ** 2, axis=0)
        j = np.arange(k + 1, n)
        bound = dop.column_norm_bound(n, k, j)
        ok_bound &= bool(np.all(bound >= sq[: n - k - 1] * (1 - 1e-12)))
        rel = np.max(np.abs(sq - sq[::-1]) / np.maximum(sq, 1.0))
        worst_sym = max(worst_sym, float(rel))
        ok_sym &= rel <= 1e-10
    record("length-bound-symmetry", ok_bound and ok_sym,
           f"bound dominates; symmetry worst rel {worst_sym:.2e} (k=1..4, n=60)",
           time.time() - t0, 5.0)


def test_solver_correctness():
    t0 = time.time()
    rng = np.random.default_rng(31415)
    # k = 1: exact dynamic-programming oracle, 100 instances at n = 200
    worst_sup = 0.0
    for _ in range(100):
        f0 = np.repeat(rng.standard_normal(4) * 2.0, 50)
        y = f0 + rng.standard_normal(200)
        lam = (0.02 + 0.6 * rng.random()) * est.lambda_max(y, 1)
        r_ad = est.fit(y, est.FitConfig(lam=lam, k=1))
        r_dp = est.fit(y, est.FitConfig(lam=lam, k=1, algorithm="dp_k1"))
        assert r_ad.converged and r_dp.converged
        worst_sup = max(worst_sup, float(np.max(np.abs(r_ad.f_hat - r_dp.f_hat))))
    # k = 2..4: certificates plus the optimality consequence against
    # 20 random comparators per instance
    worst_kkt, worst_margin = 0.0, -np.inf
    for k in (2, 3, 4):
        for _ in range(6):
            rows = np.sort(rng.choice(np.arange(k + 1, 201), 3, replace=False))
            mags = 8.0 * 200.0 ** (-(k - 1)) * rng.standard_normal(3)
            f0 = dop.falling_factorial_columns(200, k, [int(r) for r in rows]) @ mags
            y = f0 + rng.standard_normal(200)
            lam = (0.05 + 0.4 * rng.random()) * est.lambda_max(y, k)
            res = est.fit(y, est.FitConfig(lam=lam, k=k))
            assert res.converged
            worst_kkt = max(worst_kkt, res.kkt_residual)
            for _ in range(20):
                comp = f0 + rng.standard_normal(200)
                worst_margin = max(worst_margin,
                                   est.check_basic_inequality(res, y, f0, comp))
    passed = worst_sup <= 1e-9 and worst_kkt <= 1e-8 and worst_margin <= 1e-8
    record("solver-correctness", passed,
           f"dp-vs-admm sup {worst_sup:.2e}; kkt {worst_kkt:.2e}; "
           f"basic-inequality margin {worst_margin:.2e}",
           time.time() - t0, 60.0)


def test_derivative_matching():
    t0 = time.time()
    worst_match = 0.0
    for d in range(4, 101):
        cf = itp.k3_matching_closed_form(d)
        q = lambda j: 1.0 - cf["a0_bar"] * j ** 2.5 / d ** 2.5
        p = lambda j: (-cf["a3_bar"] * (2 * d - j) ** 3 / d ** 3
                       + cf["a1_bar"] * (2 * d - j) / d)
        for l in range(3):
            dq = np.diff([q(d + i) for i in range(l + 1)], l)[-1] if l else q(d)
            dp_ = np.diff([p(d + i) for i in range(l + 1)], l)[-1] if l else p(d)
            worst_match = max(worst_match, abs(dq - dp_))
        mc = itp.solve_matching_coefficients(3, d)
        worst_match = max(worst_match, abs(mc.a0_bar - cf["a0_bar"]),
                          abs(mc.center[1] - cf["a1_bar"]),
                          abs(-mc.center[3] - cf["a3_bar"]))
    mc = itp.solve_matching_coefficients(3, 10_000)
    rel3 = max(abs(mc.a0_bar - 4 / 19) * 19 / 4,
               abs(mc.center[1] - 35 / 38) * 38 / 35,
               abs(-mc.center[3] - 5 / 38) * 38 / 5)
    cont = itp.solve_matching_coefficients(4, 1000).continuous_normalization()
    printed = [18.62, 1.05, -1.10, 10.16, -46.19, 44.34, 4.23, -12.93]
    got = ([cont.a0] + list(cont.interior[0])
           + [cont.center[1], cont.center[3]])
    rel4 = max(abs(g - p) / abs(p) for g, p in zip(got, printed))
    passed = worst_match <= 1e-9 and rel3 <= 5e-3 and rel4 <= 1e-2
    record("derivative-matching", passed,
           f"third-order exact to {worst_match:.1e}; limits rel {rel3:.2e}; "
           f"fourth-order printed-constant rel {rel4:.2e}",
           time.time() - t0, 10.0)


def test_halfpower_energy_growth():
    t0 = time.time()
    worst_slope = -np.inf
    for k in (1, 2, 3, 4):
        ds = np.unique(np.geomspace(2 * k + 2, 1e5, 16).astype(int))
        sweep = itp.halfpower_energy_sweep(k, ds)
        es = np.array([sweep[int(d)] for d in sorted(sweep)])
        slope = float(np.polyfit(np.log(sorted(sweep)), np.log(es), 1)[0])
        worst_slope = max(worst_slope, slope)
    record("power-sequence-energy", worst_slope <= 1.05,
           f"worst log-log slope {worst_slope:.3f} over d in [2k, 1e5], k <= 4",
           time.time() - t0, 10.0)


def test_effective_sparsity_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(111)
    n_total, failures = 0, []
    while n_total < 200:
        S = sample_sandwich_instance(rng)
        lam = theory.lambda_threshold(S.n, S.k, S.n_max, U, s=S.s)
        w = sp.compute_weights(S, U, lam)
        vec = itp.build_noisy(S, weights=w)
        energy = sp.effective_sparsity_via_interpolant(vec, weights=w)
        closed = sp.gamma_closed_form(S)
        res = sp.effective_sparsity_direct(S, weights=w)
        ref = sparsity_dual_reference(S, weights=w)
        n_total += 1
        if not (res.reliable
                and abs(res.gamma_sq - ref) <= 1e-6 * ref + 1e-12
                and res.gamma_sq <= energy * (1 + 1e-9) + 1e-12
                and energy <= closed * (1 + 1e-12)):
            failures.append((S.n, S.k, S.t, res.gamma_sq, res.gap, ref, energy, closed))
    passed = not failures
    record("sparsity-sandwich", passed,
           f"{n_total} instances; failures {len(failures)} "
           "(uncertified, off bvls or outside the sandwich)",
           time.time() - t0, 300.0)


def test_interpolant_feasibility_and_monotonicity():
    t0 = time.time()
    bad_feas, bad_mono = [], []
    for k in (1, 2, 3, 4):
        rng = np.random.default_rng(5000 + k)
        ml = minimum_segment_length(k)
        for i in range(500):
            s = int(rng.integers(0, 5))
            lengths = ml + rng.integers(0, 5 * ml, size=s + 1)
            n = int(np.sum(lengths)) + k - 1
            t, pos = [], k
            for j in range(s):
                pos += int(lengths[j])
                t.append(pos)
            S = dop.ActiveSet(n=n, k=k, t=tuple(t),
                              q_S=tuple(int(v) for v in rng.choice([-1, 1], size=s)))
            lam = theory.lambda_threshold(n, k, S.n_max, U, s=s)
            w = sp.compute_weights(S, U, lam)
            try:
                vec = itp.build_noisy(S, weights=w)
            except itp.InfeasibleInterpolantError as exc:
                bad_feas.append((k, i, exc.violations[:2]))
                continue
            if not all(r.monotone for r in itp.check_monotone(vec)):
                bad_mono.append((k, i))
    passed = not bad_feas and not bad_mono
    record("interpolant-feasibility", passed,
           f"500 instances per order; cap violations {len(bad_feas)}, "
           f"monotonicity failures {len(bad_mono)}",
           time.time() - t0, 120.0)


def test_oracle_inequality_coverage():
    t0 = time.time()
    margin_cov = exp.wilson_margin(500, 0.90)
    results = []
    passed = True
    for k in (1, 2):
        for s0 in (0, 2):
            cfg = exp.ExperimentConfig(n=256, k=k, s0=s0, replications=500,
                                       seed=20250809, u=U, v=V)
            _, summary = exp.run_monte_carlo(cfg)
            cov = summary["coverage"]["rate"]
            eu, ev = summary["event_u"]["rate"], summary["event_v"]["rate"]
            tu, tv = summary["event_u"]["target"], summary["event_v"]["target"]
            ok = (summary["n_nonconverged"] == 0
                  and cov >= 0.90 - margin_cov
                  and eu >= tu - exp.wilson_margin(500, tu)
                  and ev >= tv - exp.wilson_margin(500, tv))
            passed &= ok
            results.append(f"k={k},s0={s0}: cov={cov:.3f},U={eu:.3f},V={ev:.3f}")
    record("oracle-inequality-coverage", passed, "; ".join(results),
           time.time() - t0, 600.0)


def test_rate_shape():
    t0 = time.time()
    # the first-order solver equivalence is certified by the solver
    # criterion, so the sweep may use the fast exact program
    cfg = exp.ExperimentConfig(n=256, k=1, s0=1, replications=100, seed=424242,
                               algorithm="dp_k1", lambda_rule="equal_segment")
    medians, slope = exp.rate_sweep(cfg, [2 ** p for p in range(8, 13)], trials=100)
    passed = -1.25 <= slope <= -0.8
    record("rate-shape", passed,
           f"log-log slope {slope:.3f} in [-1.25, -0.8]; medians "
           + ", ".join(f"n=2^{p}:{medians[2 ** p]:.4f}" for p in range(8, 13)),
           time.time() - t0, 900.0)


def test_reproducibility(tmp_path):
    t0 = time.time()
    cfg = exp.ExperimentConfig(n=256, k=1, s0=2, replications=50, seed=8675309)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    exp.run_monte_carlo(cfg, csv_path=pa, json_path=ja)
    exp.run_monte_carlo(cfg, csv_path=pb, json_path=jb)
    same = pa.read_bytes() == pb.read_bytes() and ja.read_bytes() == jb.read_bytes()
    record("reproducibility", same,
           f"two runs byte-identical ({len(pa.read_bytes())} CSV bytes)",
           time.time() - t0, 60.0)
