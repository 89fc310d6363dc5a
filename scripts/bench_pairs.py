#!/usr/bin/env python3
"""Run alternated pairs of the benchmark on two checkouts and compare them.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change . \\
        --pairs 10 --seed 561 --trace 0 --out BENCH.json

Each checkout's ``src/``, ``perfbench/``, ``configs/`` and ``BENCHMARK.json``
are copied into a temporary directory first, removed at the end, and every
run happens in a copy, so
neither checkout's ``perfbench/`` (whose ``run.py`` writes ``results/``) nor
its ``BENCHMARK.json`` is touched.  ``--parent`` is a checkout or a git
revision of the ``--change`` checkout's repository; a revision's files are
extracted with ``git archive``.  Pair i of a workload runs seed
``--seed + i`` once on each side for the parent's ``run_seconds``, one
process per run, the parent first in
even pairs and the change first in odd ones; the workloads run one after
the other.

For each metric of ``BENCHMARK.json`` (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``) it prints both sides' values after each
pair, and at the end of a workload each side's median and
inclusive quartiles and the pairs the change wins (ties count for neither),
then each run's failed and attempted operations on each side, and records
the same under the key ``workloads`` (``traced`` with ``--trace 1``) of the
``--out`` JSON, keeping the file's other keys.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")
COPIED = ("src", "perfbench", "configs", "BENCHMARK.json")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True,
                   help="checkout of the parent commit, or a git revision of --change's repository")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workloads", nargs="+", default=None,
                   help="default: every workload of the parent's BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="JSON file to write or update")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2 (quartiles need two runs a side)")
    args.parent_commit = None
    if not has_runner(args.change):
        p.error(f"--change {args.change}: no perfbench/run.py there")
    if not has_runner(args.parent):
        args.parent_commit = git(args.change, "rev-parse", "--verify", "--quiet",
                                 f"{args.parent}^{{commit}}").strip().decode()
        if not args.parent_commit:
            p.error(f"--parent {args.parent}: neither a checkout with perfbench/run.py "
                    f"nor a revision of the repository at {args.change}")
    return args


def has_runner(root):
    return os.path.isfile(os.path.join(root, "perfbench", "run.py"))


def git(repo, *argv):
    """Standard output of ``git -C repo argv``; empty when git fails."""
    proc = subprocess.run(["git", "-C", repo, *argv], capture_output=True)
    return proc.stdout if proc.returncode == 0 else b""


def extract_commit(repo, commit, dst):
    """The ``COPIED`` files of ``commit`` into ``dst``, by ``git archive``."""
    names = git(repo, "ls-tree", "--name-only", commit, "--", *COPIED).decode().split()
    archive = git(repo, "archive", "--format=tar", commit, "--", *names)
    if not archive:
        raise RuntimeError(f"git archive {commit} in {repo} failed")
    os.makedirs(dst)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dst, filter="data")


def copy_checkout(src, dst):
    ignore = shutil.ignore_patterns("results", "__pycache__", "*.pyc")
    os.makedirs(dst)
    for name in COPIED:
        path = os.path.join(src, name)
        if os.path.isdir(path):
            shutil.copytree(path, os.path.join(dst, name), ignore=ignore)
        elif os.path.isfile(path):
            shutil.copy2(path, os.path.join(dst, name))


def run_once(root, command, workload, seed, seconds, trace):
    argv = [sys.executable if arg == "python3" else arg for arg in command]
    argv += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def compare(runs, metrics):
    out = {}
    for spec in metrics:
        name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        won = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     **{side: summary(vals[side]) for side in SIDES},
                     "pairs_won_by_change": won}
    return out


def machine():
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": f"nproc = {os.cpu_count()}, {cpu}".rstrip(", "),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def pair_line(workload, seed, pair, metrics):
    """Progress line of one pair: every metric's value on each side of
    ``pair`` (side -> one run's result)."""
    return f"{workload} seed {seed}: " + "; ".join(
        f"{spec['name']} " + " ".join(
            f"{side} {pair[side]['metrics'][spec['name']]['value']:.6g}" for side in SIDES)
        for spec in metrics)


def counts_line(attempted_failed):
    """End-of-workload line: each run's failed/attempted operations, by side
    (side -> [[attempted, failed], ...])."""
    return "  failed/attempted: " + "; ".join(
        f"{side} " + " ".join(f"{failed}/{attempted}" for attempted, failed in runs)
        for side, runs in attempted_failed.items())


def run_workload(roots, command, workload, metrics, seed, pairs, seconds, trace):
    seeds = [seed + i for i in range(pairs)]
    firsts = [SIDES[i % 2] for i in range(pairs)]
    runs = {side: [] for side in SIDES}
    for s, first in zip(seeds, firsts):
        for side in (first, SIDES[1 - SIDES.index(first)]):
            runs[side].append(run_once(roots[side], command, workload, s, seconds, trace))
        print(pair_line(workload, s, {side: runs[side][-1] for side in SIDES}, metrics),
              flush=True)
    table = compare(runs, metrics)
    for name, row in table.items():
        p, c = row["parent"], row["change"]
        print(f"  {name} [{row['unit']}]: parent {p['median']:.6g} "
              f"(q1 {p['q1']:.6g}, q3 {p['q3']:.6g})  change {c['median']:.6g} "
              f"(q1 {c['q1']:.6g}, q3 {c['q3']:.6g})  "
              f"won {row['pairs_won_by_change']}/{pairs}", flush=True)
    attempted_failed = {side: [[r["attempted"], r["failed"]] for r in runs[side]]
                        for side in SIDES}
    print(counts_line(attempted_failed), flush=True)
    return {
        "seeds": seeds, "pairs": pairs, "first": firsts,
        "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "attempted_failed": attempted_failed,
        "metrics": table,
    }


def main(argv=None):
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        roots = {side: os.path.join(work, side) for side in SIDES}
        if args.parent_commit:
            extract_commit(args.change, args.parent_commit, roots["parent"])
        else:
            copy_checkout(args.parent, roots["parent"])
        copy_checkout(args.change, roots["change"])
        with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        workloads = args.workloads or [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]
        metrics = bench["per_layer" if args.trace else "end_to_end"]
        section = {workload: run_workload(roots, bench["command"], workload, metrics,
                                          args.seed, args.pairs, seconds, args.trace)
                   for workload in workloads}

    record = {}
    if os.path.isfile(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.setdefault("machine", machine())
    record.setdefault("command", " ".join(bench["command"])
                      + f" --workload <w> --seed <s> --seconds {seconds:g} --trace <0|1>")
    record["traced" if args.trace else "workloads"] = section
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
