"""The outputs of the shipped configs, of the ``verify`` suites and of a fixed
set of fits, pinned byte for byte.

Every config in ``configs/`` is rerun through the CLI in a fresh interpreter
with one OpenBLAS thread, once with one trial worker and once with two
(``TVTREND_THREADS``), and the SHA-256 of its CSV and JSON is compared with
``simulate_digests.json``: the outputs do not depend on the worker count.
The JSON of every ``verify`` suite is compared with ``verify_digests.json``
the same way.  ``fit_digests.json`` holds, for each of the 24 n = 4096
inputs (``conftest.n4096_inputs``), the 32 battery inputs
(``conftest.battery_inputs``), the 3 benchmark draws that its fit-n4096
batch leaves out and that certify quickly (``conftest.left_out_inputs``) and
the inputs of the fit tests that no independent reference reaches
(``conftest.pinned_inputs``), the SHA-256 of the fit's f_hat, dual,
objective, kkt_residual and converged (``fit_digest``), computed in a
fresh interpreter with one OpenBLAS thread; ``iters`` is left out, so a
change of how a fit gets to its face does not move them.  ``cli_digests.json``
holds the SHA-256 of the files that ``bounds`` (json and csv),
``interpolant`` (noisy and noiseless, csv and json, k = 1..4) and ``solve``
(``--report`` and ``--out``, under ``--lambda-rule threshold`` and
``equal_segment``, with and without ``--n-max``) write for the arguments of
``CLI_CASES``, run in one fresh interpreter with one OpenBLAS thread.

The digests hold for the numpy / scipy build and machine recorded beside
them; on any other build the last bits of a BLAS or LAPACK call may differ,
so the tests skip there rather than compare.  Run this file as a script to
compare or re-record:

- ``PYTHONPATH=src python tests/test_output_digests.py --check`` prints each
  entry that differs on this build (``fit n4096/15``, ``simulate
  k1_coverage.csv``) and exits 1 if any does; it writes nothing.
- ``PYTHONPATH=src python tests/test_output_digests.py`` re-records all four
  files, after an intended output change.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from tvtrend.verify import SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = {name: HERE / f"{name}_digests.json" for name in ("simulate", "verify", "fit", "cli")}
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def this_build():
    return {"numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def fit_digest(res):
    """SHA-256 of the pinned fields of a fit: f_hat, dual, objective,
    kkt_residual and converged.  ``iters`` is left out, so a change of how
    a fit gets to its face does not move it."""
    h = hashlib.sha256()
    for value in (res.f_hat, res.dual, res.objective, res.kkt_residual):
        h.update(np.asarray(value, dtype=float).tobytes())
    h.update(bytes([res.converged]))
    return h.hexdigest()


def recorded_fit_digest(name):
    """The digest recorded for fit ``name``, or None on a numpy / scipy
    build other than the recorded one."""
    data = json.loads(DIGESTS["fit"].read_text())
    if any(data[key] != value for key, value in this_build().items()):
        return None
    return data["sha256"][name]


def _run(args, threads=1):
    """Run ``python args`` in a fresh interpreter with one OpenBLAS thread and
    ``threads`` trial workers, with src/ and tests/ importable."""
    path = [str(ROOT / "src"), str(HERE)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", TVTREND_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable] + args, env=env, check=True, capture_output=True,
                          text=True).stdout


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def simulate_digests(out_dir, threads=1):
    """SHA-256 of the CSV and JSON that ``tvtrend simulate`` writes for
    every shipped config, with ``threads`` trial workers."""
    digests = {}
    for config in CONFIGS:
        paths = {ext: Path(out_dir) / f"{config.stem}.{ext}" for ext in ("csv", "json")}
        _run(["-m", "tvtrend.cli", "simulate", "--config", str(config),
              "--out-csv", str(paths["csv"]), "--out-json", str(paths["json"])], threads)
        for ext, path in paths.items():
            digests[path.name] = _sha256(path)
    return digests


def verify_digests(out_dir):
    """SHA-256 of the JSON that ``tvtrend verify`` writes for every suite."""
    digests = {}
    for suite in SUITES:
        path = Path(out_dir) / f"{suite}.json"
        _run(["-m", "tvtrend.cli", "verify", "--suite", suite, "--out", str(path)])
        digests[path.name] = _sha256(path)
    return digests


def fit_digests():
    """SHA-256 of the pinned fields of every pinned fit, from a fresh
    interpreter."""
    return json.loads(_run([str(Path(__file__).resolve()), "--fits"]))


def cli_digests():
    """SHA-256 of the files that every ``CLI_CASES`` entry writes, from a
    fresh interpreter."""
    return json.loads(_run([str(Path(__file__).resolve()), "--cli"]))


# name -> argv of ``tvtrend``; {out} is the output file, {signal} a fixed
# input signal (``_cli_signal``).  ``solve`` also writes {out}.fhat.
_BOUNDS = {
    "two-flips": ["--n", "200", "--k", "2", "--jumps", "50,100,150", "--signs", "+,-,-"],
    "k1-lambda": ["--n", "300", "--k", "1", "--jumps", "100,200", "--lambda", "0.05"],
    "k3-ck": ["--n", "400", "--k", "3", "--jumps", "100,250", "--c-k", "2.5"],
    "k4-empty": ["--n", "100", "--k", "4"],
    "short-segments": ["--n", "10", "--k", "2", "--jumps", "5"],
    "tiny-lambda": ["--n", "200", "--k", "2", "--jumps", "50", "--lambda", "1e-300"],
}
CLI_CASES = {f"bounds/{name}.{fmt}": ["bounds", *argv, "--format", fmt, "--out", "{out}"]
             for name, argv in _BOUNDS.items() for fmt in ("json", "csv")}
CLI_CASES.update({
    f"interpolant/k{k}-{mode}.{fmt}": ["interpolant", "--n", "120", "--k", str(k),
                                       "--jumps", "30,60,90", "--signs", "+,+,-",
                                       "--mode", mode, "--format", fmt, "--out", "{out}"]
    for k in (1, 2, 3, 4) for mode in ("noisy", "noiseless") for fmt in ("csv", "json")})
CLI_CASES.update({
    f"solve/k{k}-{rule}-{n_max or 'default'}": [
        "solve", "--input", "{signal}", "--k", str(k), "--lambda-rule", rule, "--s0", "2",
        "--lambda-scale", "0.05",
        *(["--n-max", str(n_max)] if n_max else []), "--report", "{out}", "--out", "{out}.fhat"]
    for k in (1, 2) for rule in ("threshold", "equal_segment") for n_max in (None, 60)})


def _cli_signal(path):
    """A fixed signal of length 200: three linear pieces and a deterministic
    wiggle, written with 17 significant digits."""
    i = np.arange(200)
    y = np.where(i < 70, 0.01 * i, np.where(i < 140, 1.4 - 0.01 * i, 0.02 * (i - 140)))
    y = y + 0.3 * np.sin(1.7 * i) + 0.2 * np.cos(0.37 * i * i)
    Path(path).write_text("".join(f"{v:.17g}\n" for v in y))


def _cli_digests_here():
    import tempfile

    from tvtrend import cli

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        signal = Path(tmp) / "signal.csv"
        _cli_signal(signal)
        for name, argv in CLI_CASES.items():
            out = Path(tmp) / name.replace("/", "_")
            cli.main([a.format(out=out, signal=signal) for a in argv])
            for suffix in ("", ".fhat"):
                path = Path(f"{out}{suffix}")
                if path.exists():
                    digests[name + suffix] = _sha256(path)
    return digests


def _fit_digests_here():
    from conftest import battery_inputs, left_out_inputs, n4096_inputs, pinned_inputs
    from tvtrend import estimator as est

    groups = [("n4096", enumerate(n4096_inputs())), ("battery", enumerate(battery_inputs())),
              ("left_out", enumerate(left_out_inputs())), ("pinned", pinned_inputs().items())]
    digests = {}
    for group, inputs in groups:
        for key, (y, cfg) in inputs:
            try:
                digest = fit_digest(est.fit(y, cfg))
            except np.linalg.LinAlgError as exc:
                digest = hashlib.sha256(f"LinAlgError: {exc}".encode()).hexdigest()
            name = f"{key:02d}" if isinstance(key, int) else key
            digests[f"{group}/{name}"] = digest
    return digests


def recorded(name):
    """The recorded digests of ``name``, or a skip on another build."""
    data = json.loads(DIGESTS[name].read_text())
    build = this_build()
    if any(data[key] != value for key, value in build.items()):
        pytest.skip(f"digests recorded on numpy {data['numpy']} / scipy {data['scipy']}"
                    f" / {data['machine']}, this build is numpy {build['numpy']} / scipy"
                    f" {build['scipy']} / {build['machine']}")
    return data["sha256"]


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_outputs_match_recorded_digests(tmp_path, threads):
    want = recorded("simulate")
    assert len(CONFIGS) == 5
    assert simulate_digests(tmp_path, threads) == want


def test_verify_outputs_match_recorded_digests(tmp_path):
    want = recorded("verify")
    assert len(SUITES) == 5
    assert verify_digests(tmp_path) == want


def test_fits_match_recorded_digests():
    want = recorded("fit")
    assert len(want) == 24 + 32 + 3 + 8
    assert fit_digests() == want


def test_cli_outputs_match_recorded_digests():
    want = recorded("cli")
    assert len(want) == len(CLI_CASES) + 8      # the 8 solve cases also write f_hat
    assert cli_digests() == want


def _check(tmp):
    """Print every recorded entry that differs on this build, or is missing
    from either side; return the number printed."""
    differing = 0
    for name, digests in (("simulate", simulate_digests(tmp)), ("verify", verify_digests(tmp)),
                          ("fit", fit_digests()), ("cli", cli_digests())):
        data = json.loads(DIGESTS[name].read_text())
        if any(data[key] != value for key, value in this_build().items()):
            print(f"{name}: recorded on numpy {data['numpy']} / scipy {data['scipy']}"
                  f" / {data['machine']}, not on this build")
        want = data["sha256"]
        for entry in sorted(set(want) | set(digests)):
            if want.get(entry) != digests.get(entry):
                print(f"{name} {entry}")
                differing += 1
    return differing


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] == ["--fits"]:
        print(json.dumps(_fit_digests_here()))
        sys.exit(0)
    if sys.argv[1:] == ["--cli"]:
        print(json.dumps(_cli_digests_here()))
        sys.exit(0)
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:] == ["--check"]:
            sys.exit(1 if _check(tmp) else 0)
        for name, digests in (("simulate", simulate_digests(tmp)), ("verify", verify_digests(tmp)),
                              ("fit", fit_digests()), ("cli", cli_digests())):
            DIGESTS[name].write_text(json.dumps({**this_build(), "sha256": digests},
                                                indent=2) + "\n")
