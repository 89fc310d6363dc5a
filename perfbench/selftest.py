"""Self-test of the benchmark's checks: each accepts a genuine output and
rejects a deliberately wrong one.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits 1 if any check fails to tell the two
apart.  The wrong outputs are:

* a fitted signal perturbed by 1e-6 (one coordinate, and all of them),
  which must fail the KKT check;
* an effective sparsity 1% below the direct oracle's value, which must fail
  the bvls comparison;
* a Monte-Carlo trial record with its event-U indicator flipped, which must
  fail the recomputation of the events.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["TVTREND_THREADS"] = "1"

import dataclasses  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tvtrend import estimator  # noqa: E402

failures = []


def expect(label, accepted, want):
    verdict = "accepted" if accepted else "rejected"
    good = accepted == want
    print(f"{'PASS' if good else 'FAIL'}  {label}: {verdict}")
    if not good:
        failures.append(label)


def kkt_cases():
    for k, jumps in ((1, 16), (2, 16), (3, 16)):
        y, lam = workloads.fit_input(k, jumps, workloads.fit_draws(k, jumps)[0])
        f_hat = estimator.fit(y, estimator.FitConfig(lam=lam, k=k)).f_hat
        tol = workloads.FIT_TOL
        expect(f"k={k} certified fit passes the KKT check",
               checks.kkt(y, f_hat, lam, k, tol)[0], True)
        bumped = f_hat.copy()
        bumped[len(y) // 2] += 1e-6
        expect(f"k={k} fit with one coordinate moved by 1e-6 fails the KKT check",
               checks.kkt(y, bumped, lam, k, tol)[0], False)
        expect(f"k={k} fit shifted by 1e-6 fails the KKT check",
               checks.kkt(y, f_hat + 1e-6, lam, k, tol)[0], False)


def sparsity_case():
    pool = workloads.sparsity_pool()
    number = next(i for i, inst in enumerate(pool)
                  if len(inst[2]) >= 2 and i not in workloads.SPARSITY_FAULTS)
    op = workloads.sparsity_op(number, pool[number])
    out = op.run()
    expect(f"sparsity instance #{number} passes its checks",
           op.check(out, None) == workloads.OK, True)
    low = dataclasses.replace(out[-1], gamma_sq=0.99 * out[-1].gamma_sq)
    expect(f"sparsity instance #{number} 1% low fails the bvls comparison",
           op.check(out[:-1] + (low,), None) == workloads.OK, False)


def monte_carlo_case():
    w = workloads.make("mc-n256", 1, ROOT)
    w.setup()
    for op in w.round(0):
        rec = op.run()
        expect(f"mc-n256 config {op.group} trial {op.trial} passes its checks",
               op.check(rec, None) == workloads.OK, True)
        expect(f"mc-n256 config {op.group} trial {op.trial} passes the recomputation",
               w.recheck(op.group, op.trial, rec) is None, True)
        flipped = dataclasses.replace(rec, event_u_held=not rec.event_u_held)
        expect(f"mc-n256 config {op.group} trial {op.trial} with event U flipped "
               "fails the recomputation",
               w.recheck(op.group, op.trial, flipped) is None, False)


if __name__ == "__main__":
    kkt_cases()
    sparsity_case()
    monte_carlo_case()
    print(f"{len(failures)} self-test failures")
    sys.exit(1 if failures else 0)
