"""tvtrend benchmark: one workload per process.

    python3 perfbench/run.py --workload fit-n4096 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The lines
before it print the same figures by name and unit; the full record of the
run (per-operation statuses and times, and the spans of a traced run) goes
to perfbench/results/.  See perfbench/README.md.
"""

import os

# BLAS threads are fixed before numpy can be imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["TVTREND_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("fit-n4096", "mc-n256", "mc-n4096", "sparsity-n64")
IMPORT_SAMPLES = 4   # fresh interpreters timed importing tvtrend, besides this one
SETUP_REPEATS = 3    # program set-ups per run; setup_s takes the median
IMPORT_PROBE = ("import time; t = time.perf_counter(); import tvtrend; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_seconds():
    """Wall time of `import tvtrend` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def measure(workload, seconds):
    """Attempt whole rounds: a fixed number on a workload that sets
    ``round_seconds``, otherwise until about ``seconds`` of operation time
    have passed (the round count whose total is nearest).  Each output is
    checked as soon as its operation returns, outside the timed span, and
    then dropped.  Returns [op, status, seconds] per operation and the total
    time spent in operations."""
    fixed = None
    if workload.round_seconds:
        fixed = max(1, round(seconds / workload.round_seconds))
    done, busy, r = [], 0.0, 0
    while True:
        for op in workload.round(r):
            t0 = time.perf_counter()
            out = err = None
            try:
                out = op.run()
            except Exception as exc:  # a refusal by the program is a result to count
                err = exc
            dt = time.perf_counter() - t0
            done.append([op, op.check(out, err), dt])
            busy += dt
        r += 1
        if r == fixed if fixed else busy + busy / r / 2 >= seconds:
            return done, busy


def group_p50(records):
    """Mean over the workload's configurations of each one's median
    operation time (the plain median when there is one configuration)."""
    groups = {}
    for op, _, dt in records:
        groups.setdefault(op.group, []).append(dt)
    return statistics.fmean(statistics.median(g) for g in groups.values())


def layer_metrics(tracer, attempted, setups, op_p50):
    def per_op(name, field="self_time"):
        return getattr(tracer.stat(name), field) / attempted

    def per_setup(name, field="self_time"):
        return getattr(tracer.stat(name), field) / setups

    dictionary_calls = tracer.stat("diffops.block_dictionary").calls
    return {
        "estimator.fit.self_s": (per_op("estimator.fit"), "s/op"),
        "estimator.fit.total_s": (per_op("estimator.fit", "total"), "s/op"),
        "estimator.fit.iters": (tracer.fit_iters / max(tracer.fit_returned, 1), "count/op"),
        "estimator.fit.kkt_max": (tracer.fit_kkt_max, "residual"),
        "experiments.prepare.self_s": (per_setup("experiments.prepare"), "s"),
        "experiments.prepare.total_s": (per_setup("experiments.prepare", "total"), "s"),
        "experiments.run_trial.self_s": (per_op("experiments.run_trial"), "s/op"),
        "experiments.run_trial.total_s": (per_op("experiments.run_trial", "total"), "s/op"),
        "experiments.bound_rhs.calls": (per_op("experiments.bound_rhs", "calls"), "count/op"),
        "experiments.bound_rhs.self_s": (per_op("experiments.bound_rhs"), "s/op"),
        "theory.adaptive_bound_rhs.self_s": (per_op("theory.adaptive_bound_rhs"), "s/op"),
        "diffops.block_dictionary.self_s": (per_setup("diffops.block_dictionary"), "s"),
        "diffops.block_dictionary.total_s": (per_setup("diffops.block_dictionary", "total"), "s"),
        "diffops.block_dictionary.bytes": (tracer.dictionary_bytes / max(dictionary_calls, 1), "B"),
        "diffops.augmented_nullspace_basis.self_s": (per_setup("diffops.augmented_nullspace_basis"), "s"),
        "sparsity.effective_sparsity_direct.self_s": (per_op("sparsity.effective_sparsity_direct"), "s/op"),
        "sparsity.compute_weights.self_s": (per_op("sparsity.compute_weights"), "s/op"),
        "sparsity.effective_sparsity_via_interpolant.self_s":
            (per_op("sparsity.effective_sparsity_via_interpolant"), "s/op"),
        "sparsity.gamma_closed_form.self_s": (per_op("sparsity.gamma_closed_form"), "s/op"),
        "interpolants.build_noisy.self_s": (per_op("interpolants.build_noisy"), "s/op"),
        "trace.op_p50_s": (op_p50, "s"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tvtrend", "__init__.py")):
        print(f"error: no tvtrend sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import tvtrend  # noqa: F401
    imports = [time.perf_counter() - t0] + import_seconds()

    import workloads
    from tracing import Tracer

    workload = workloads.make(args.workload, args.seed, ROOT)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    records, busy = measure(workload, args.seconds)
    if tracer is not None:
        tracer.uninstall()

    problems, wrong = workload.finish()
    for record in records:
        if record[0] in wrong:
            record[1] = workloads.WRONG
    statuses = [status for _, status, _ in records]
    attempted = len(records)
    passed = statuses.count(workloads.OK)
    durations = [dt for *_, dt in records]
    op_p50 = group_p50(records)
    correct = not problems and workloads.WRONG not in statuses

    if args.trace:
        metrics = layer_metrics(tracer, attempted, SETUP_REPEATS, op_p50)
    else:
        metrics = {
            "ops_per_s": (passed / busy, "op/s"),
            "op_p50_s": (op_p50, "s"),
            "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"time in operations {busy:.3f} s")
    counts = {s: statuses.count(s) for s in sorted(set(statuses))}
    print(f"operations: attempted {attempted}, failed {attempted - passed}  {counts}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for op, status, _ in records:
        if status == workloads.WRONG:
            print(f"WRONG OUTPUT: {op.label}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    extra = {}
    if attempted >= 100:
        extra["op_p90_s"] = statistics.quantiles(durations, n=10, method="inclusive")[8]
        print(f"  op_p90_s = {extra['op_p90_s']!r} s  ({attempted} operations)")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, busy_s=busy, import_s=imports, setup_program_s=setups,
                       problems=problems, extra=extra,
                       operations=[[op.label, status, dt] for op, status, dt in records]),
                  fh, indent=1)
    if tracer is not None:
        base = tracer.spans[0][1] if tracer.spans else 0.0
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"functions": {k: [v.calls, v.total, v.self_time]
                                     for k, v in sorted(tracer.stats.items()) if v.calls},
                       "spans": [[n, s - base, e - base, p] for n, s, e, p in tracer.spans]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
