"""The ``simulate`` outputs of the shipped configs, pinned byte for byte.

Every config in ``configs/`` is rerun through the CLI in a fresh interpreter
with one OpenBLAS thread and one trial worker, and the SHA-256 of its CSV and
JSON is compared with ``simulate_digests.json``.  The digests hold for the
numpy / scipy build and machine recorded beside them; on any other build the
last bits of a BLAS or LAPACK call may differ, so the test skips there rather
than compare.  To re-record after an intended output change, run this file as
a script: ``PYTHONPATH=src python tests/test_output_digests.py``.
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

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "simulate_digests.json"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def this_build():
    return {"numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def simulate_digests(out_dir):
    """SHA-256 of the CSV and JSON that ``tvtrend simulate`` writes for
    every shipped config."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", TVTREND_THREADS="1",
               PYTHONPATH=os.pathsep.join(path))
    digests = {}
    for config in CONFIGS:
        paths = {ext: Path(out_dir) / f"{config.stem}.{ext}" for ext in ("csv", "json")}
        subprocess.run([sys.executable, "-m", "tvtrend.cli", "simulate", "--config", str(config),
                        "--out-csv", str(paths["csv"]), "--out-json", str(paths["json"])],
                       env=env, check=True, capture_output=True)
        for ext, path in paths.items():
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_simulate_outputs_match_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    build = this_build()
    if any(recorded[key] != value for key, value in build.items()):
        pytest.skip(f"digests recorded on numpy {recorded['numpy']} / scipy {recorded['scipy']}"
                    f" / {recorded['machine']}, this build is numpy {build['numpy']} / scipy"
                    f" {build['scipy']} / {build['machine']}")
    assert len(CONFIGS) == 5
    assert simulate_digests(tmp_path) == recorded["sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps({**this_build(), "sha256": simulate_digests(tmp)},
                                      indent=2) + "\n")
