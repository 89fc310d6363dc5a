"""Where tvtrend's LAPACK routines come from, checked in fresh interpreters:
``tvtrend._lapack`` loads scipy's ``_flapack`` extension without the
``scipy.linalg`` package, and its routines are the very objects
``scipy.linalg.get_lapack_funcs`` returns, whichever is imported first."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ROUTINES = ("pbtrf", "pbtrs", "pttrf", "pttrs", "trtrs", "potrf", "potrs", "geqrf",
            "geqrf_lwork", "orgqr", "gels")
HEAVY = ("scipy.linalg", "numpy.f2py", "unittest", "concurrent.futures", "multiprocessing")

# Prints whether every routine of tvtrend._lapack is get_lapack_funcs' own and
# whether both sides hold one _flapack module object.
SAME_OBJECTS = f"""
import json, sys
import numpy as np
import scipy.linalg
from scipy.linalg import _flapack, lapack
from tvtrend import _lapack
names = {ROUTINES!r}
funcs = scipy.linalg.get_lapack_funcs(names, dtype=np.float64)
print(json.dumps({{
    "routines": [f is getattr(_lapack, "d" + name) for f, name in zip(funcs, names)],
    "module": [m is _lapack._flapack for m in
               (sys.modules["scipy.linalg._flapack"], _flapack, lapack._flapack)],
}}))
"""


def run_fresh(script):
    """Standard output of ``script`` run by a fresh interpreter."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("module", ["tvtrend", "tvtrend.cli"])
def test_import_leaves_out_heavy_modules(module):
    script = f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(run_fresh(script)))
    assert "scipy.linalg._flapack" in loaded
    assert not loaded.intersection(HEAVY), sorted(loaded.intersection(HEAVY))


@pytest.mark.parametrize("first", ["tvtrend._lapack", "scipy.linalg"])
def test_routines_are_scipys_in_either_import_order(first):
    same = json.loads(run_fresh(f"import {first}\n" + SAME_OBJECTS))
    assert same == {"routines": [True] * len(ROUTINES), "module": [True] * 3}


def test_fallback_import_gives_the_same_routines():
    # No extension suffix matches, so the file next to scipy is missed and
    # _flapack is imported through the scipy.linalg package.
    script = ("import importlib.machinery, sys\n"
              "suffixes, importlib.machinery.EXTENSION_SUFFIXES = "
              "importlib.machinery.EXTENSION_SUFFIXES, []\n"
              "from tvtrend import _lapack\n"
              "assert _lapack._flapack_spec() is None and 'scipy.linalg' in sys.modules\n"
              "importlib.machinery.EXTENSION_SUFFIXES = suffixes\n"
              + SAME_OBJECTS)
    same = json.loads(run_fresh(script))
    assert same == {"routines": [True] * len(ROUTINES), "module": [True] * 3}
