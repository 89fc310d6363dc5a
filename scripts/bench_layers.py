#!/usr/bin/env python3
"""Time the layers of a certified fit and of a trial's set-up on two checkouts,
in alternated processes.

    python3 scripts/bench_layers.py --parent HEAD~1 --change . \\
        --processes 5 --out BENCH.json

The fit inputs are the 24 fits of the benchmark's fit-n4096 workload
(``perfbench/workloads.py``: ``fit_input`` and ``fit_draws``, imported, not
changed).  Each process imports one checkout's ``src/``, runs the batch once
through ``estimator.fit`` while it records the calls of the layers below,
then times each recorded call again, warm, ``--repeats`` times:

- ``fit``: ``estimator.fit`` of each input;
- ``polish``: each ``_polish`` call of those fits, replayed with a copy of
  the fit's state set as it was at the call (the polish adds to it);
- ``screened_face``: each face a polish screens, ``_FaceColumns.solve`` and
  ``_screen`` together, replayed in order on fresh cached columns for each
  polish (the columns are set up outside the timed spans);
- ``restricted_solve`` and ``certificate``: each ``_restricted_solve`` and
  ``_certificate`` call of those fits.

After the batch it times the Monte-Carlo side, on inputs of its own:

- ``prepare_mc_n256`` and ``prepare_mc_n4096``: ``experiments.prepare`` of
  each config of the mc-n256 and mc-n4096 workloads (``workloads.make``);
- ``fit_k1_coverage`` and ``fit_k2_coverage``: ``estimator.fit`` of the
  first ``COVERAGE_TRIALS`` trials of ``configs/k1_coverage.json`` and
  ``configs/k2_coverage.json``, each the config's signal plus the noise of
  ``experiments.trial_rng``, at the config's lambda.

A layer's warm figure is the mean over its calls of each call's median time
(for ``screened_face``, the mean per face); its cold figure is its first
call in the process: during the recording pass for the fit-n4096 layers,
before any warm call for the others (each ``prepare`` layer before the
coverage fits build their inputs, so its shapes are new to the caches).

Each checkout's ``src/`` and ``perfbench/`` are copied or extracted as
``bench_pairs.py`` does.  Process i runs the parent first when i is even and
the change first when it is odd, with one OpenBLAS thread.  For each layer it
prints and records both sides' median and inclusive quartiles over the
processes, the change against the parent, and the processes the change wins,
under the key ``layers`` of the ``--out`` JSON, keeping the file's other keys.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402

SIDES = bench_pairs.SIDES
LAYERS = ("fit", "polish", "screened_face", "restricted_solve", "certificate",
          "prepare_mc_n256", "prepare_mc_n4096", "fit_k1_coverage", "fit_k2_coverage")
COVERAGE_TRIALS = 200


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent",
                   help="checkout of the parent commit, or a git revision of --change's repository")
    p.add_argument("--change", help="checkout of the change")
    p.add_argument("--processes", type=int, default=5, help="processes per side")
    p.add_argument("--repeats", type=int, default=7, help="warm repeats of each call")
    p.add_argument("--out", help="JSON file to write or update")
    p.add_argument("--measure", metavar="ROOT", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure is None:
        if not (args.parent and args.change and args.out):
            p.error("--parent, --change and --out are required")
        if args.processes < 2:
            p.error("--processes must be >= 2 (quartiles need two runs a side)")
        args.parent_commit = None
        if not bench_pairs.has_runner(args.parent):
            args.parent_commit = bench_pairs.git(args.change, "rev-parse", "--verify", "--quiet",
                                                 f"{args.parent}^{{commit}}").strip().decode()
            if not args.parent_commit:
                p.error(f"--parent {args.parent}: neither a checkout nor a revision")
    return args


def _timed(call):
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def _fresh(args):
    """``args`` with a copy of each set: ``_polish`` adds the states it moves
    to to the fit's state set, so a replay with the set itself would give up
    at its first move."""
    return tuple(set(a) if isinstance(a, set) else a for a in args)


def workload_configs(workloads, name, root):
    """The configs a Monte-Carlo workload runs (their seeds drawn from seed
    0), without the reference recomputation its checks build."""
    reference = workloads.checks.TrialReference
    workloads.checks.TrialReference = lambda *args: None
    try:
        return workloads.make(name, 0, root).configs
    finally:
        workloads.checks.TrialReference = reference


def measure(root, repeats):
    """The layers of the fit-n4096 batch and of the Monte-Carlo set-up and
    fits in this process, from ``root``: {layer: {"calls", "cold_s",
    "warm_s"}}."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import numpy as np
    from tvtrend import estimator as est
    from tvtrend import experiments as exp
    import workloads

    fits = []
    for k in (1, 2, 3, 4):
        for jumps in workloads.FIT_JUMPS:
            for draw in workloads.fit_draws(k, jumps):
                y, lam = workloads.fit_input(k, jumps, draw)
                fits.append((y, est.FitConfig(lam=lam, k=k, tol_kkt=workloads.FIT_TOL)))

    def fit(y, cfg):
        try:
            est.fit(y, cfg)
        except np.linalg.LinAlgError:
            pass

    calls = {layer: [] for layer in LAYERS}
    faces, cold, started = [], {}, []   # the (active, signs) each polish screens
    originals = {"_polish": est._polish, "_restricted_solve": est._restricted_solve,
                 "_certificate": est._certificate, "_screen": est._screen,
                 "solve": est._FaceColumns.solve}

    def recording(name, layer):
        def call(*args):
            calls[layer].append(_fresh(args))
            if layer == "polish":
                faces.append([])
            t0 = time.perf_counter()
            out = originals[name](*args)
            cold.setdefault(layer, time.perf_counter() - t0)
            return out
        return call

    def solve(columns, active, signs):
        faces[-1].append((active, signs))
        started.append(time.perf_counter())
        return originals["solve"](columns, active, signs)

    def screen(*args):
        out = originals["_screen"](*args)
        cold.setdefault("screened_face", time.perf_counter() - started[0])
        return out

    for name in ("_polish", "_restricted_solve", "_certificate"):
        setattr(est, name, recording(name, name.lstrip("_")))
    est._screen, est._FaceColumns.solve = screen, solve
    for y, cfg in fits:
        t0 = time.perf_counter()
        fit(y, cfg)
        cold.setdefault("fit", time.perf_counter() - t0)
    for name, func in originals.items():
        setattr(est._FaceColumns if name == "solve" else est, name, func)

    prepares = {f"prepare_{name.replace('-', '_')}": workload_configs(workloads, name, root)
                for name in ("mc-n256", "mc-n4096")}
    for layer, configs in prepares.items():
        cold[layer] = _timed(lambda: exp.prepare(configs[0]))
    coverage = {}
    for name in ("k1_coverage", "k2_coverage"):
        cfg = workloads.shipped_config(root, f"{name}.json")
        prep = exp.prepare(cfg)
        coverage[f"fit_{name}"] = [
            (prep.f0 + exp.trial_rng(cfg.seed, trial).standard_normal(cfg.n), prep.fit_cfg)
            for trial in range(COVERAGE_TRIALS)]
    for layer, inputs in coverage.items():
        cold[layer] = _timed(lambda: fit(*inputs[0]))

    def face_pass():
        """The time of each screened face in one replay of them all."""
        out = []
        for args, screened in zip(calls["polish"], faces):
            y, k, lam, _, _, tol = args[:6]
            columns = est._FaceColumns(y, k, lam, args[6])
            for active, signs in screened:
                t0 = time.perf_counter()
                est._screen(columns.solve(active, signs), active, signs, k, tol)
                out.append(time.perf_counter() - t0)
        return out

    runs = {"fit": [lambda f=f: fit(*f) for f in fits],
            "polish": [lambda a=a: est._polish(*_fresh(a)) for a in calls["polish"]],
            "restricted_solve": [lambda a=a: est._restricted_solve(*a)
                                 for a in calls["restricted_solve"]],
            "certificate": [lambda a=a: est._certificate(*a) for a in calls["certificate"]],
            **{layer: [lambda c=c: exp.prepare(c) for c in configs]
               for layer, configs in prepares.items()},
            **{layer: [lambda f=f: fit(*f) for f in inputs] for layer, inputs in coverage.items()}}
    warm = {layer: [statistics.median(_timed(run) for _ in range(repeats)) for run in todo]
            for layer, todo in runs.items()}
    warm["screened_face"] = [statistics.median(times)
                             for times in zip(*(face_pass() for _ in range(repeats)))]
    return {layer: {"calls": len(warm[layer]), "cold_s": cold[layer],
                    "warm_s": statistics.fmean(warm[layer])} for layer in LAYERS}


def run_process(root, repeats):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure", root,
                           "--repeats", str(repeats)], cwd=root, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs):
    """Per layer: each side's summary of the warm and the cold figure over
    its processes, the change's warm median against the parent's, and the
    processes whose warm figure the change beats (runs: side -> list of
    ``measure`` outputs, in process order)."""
    out = {}
    for layer in LAYERS:
        row = out[layer] = {"calls": {side: runs[side][0][layer]["calls"] for side in SIDES}}
        for figure in ("warm_s", "cold_s"):
            row[figure] = {side: bench_pairs.summary([r[layer][figure] for r in runs[side]])
                           for side in SIDES}
        warm = row["warm_s"]
        row["change_vs_parent"] = warm["change"]["median"] / warm["parent"]["median"] - 1.0
        row["processes_won_by_change"] = sum(
            c < p for p, c in zip(warm["parent"]["values"], warm["change"]["values"]))
    return out


def layer_line(layer, row):
    w, c = row["warm_s"], row["cold_s"]
    return (f"{layer}: warm per call parent {w['parent']['median'] * 1e6:.1f} us "
            f"(q1 {w['parent']['q1'] * 1e6:.1f}, q3 {w['parent']['q3'] * 1e6:.1f}), change "
            f"{w['change']['median'] * 1e6:.1f} us (q1 {w['change']['q1'] * 1e6:.1f}, "
            f"q3 {w['change']['q3'] * 1e6:.1f}): {row['change_vs_parent']:+.1%}, won "
            f"{row['processes_won_by_change']}/{len(w['parent']['values'])}; cold first call "
            f"parent {c['parent']['median'] * 1e3:.2f} ms, "
            f"change {c['change']['median'] * 1e3:.2f} ms; "
            f"calls {row['calls']['parent']}/{row['calls']['change']}")


def main(argv=None):
    args = parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure, args.repeats)))
        return 0
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as work:
        roots = {side: os.path.join(work, side) for side in SIDES}
        if args.parent_commit:
            bench_pairs.extract_commit(args.change, args.parent_commit, roots["parent"])
        else:
            bench_pairs.copy_checkout(args.parent, roots["parent"])
        bench_pairs.copy_checkout(args.change, roots["change"])
        runs = {side: [] for side in SIDES}
        for i in range(args.processes):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_process(roots[side], args.repeats))
            print(f"process {i + 1}/{args.processes} done", flush=True)
    table = summarize(runs)
    for layer, row in table.items():
        print(layer_line(layer, row), flush=True)
    record = {}
    if os.path.isfile(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.setdefault("machine", bench_pairs.machine())
    record["layers"] = {"processes": args.processes, "repeats": args.repeats,
                        "first": [SIDES[i % 2] for i in range(args.processes)], "table": table}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
