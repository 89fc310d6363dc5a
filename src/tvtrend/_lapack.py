"""The float64 LAPACK routines tvtrend calls, from scipy's f2py extension.

scipy ships its LAPACK wrappers as the extension module
``scipy.linalg._flapack``.  Importing it through ``scipy.linalg`` runs that
package's ``__init__``, which pulls in scipy's array-API layer and with it
``numpy.f2py`` and ``unittest``: about two thirds of a fresh
``import tvtrend``.  This module loads the extension straight from its file
beside scipy's package instead, found by ``importlib.util.find_spec("scipy")``
without importing scipy, and registers it under its own name in
``sys.modules``.  A later ``import scipy.linalg`` then picks up this module
object, and one imported earlier is reused, so tvtrend and
``scipy.linalg.get_lapack_funcs(..., dtype=np.float64)`` hand out the same
function objects whichever comes first.  (When tvtrend comes first, scipy
finds the module in ``sys.modules``, as its own
``from scipy.linalg import _flapack`` does, but the import system does not
bind it as the attribute ``scipy.linalg._flapack`` of the package.)

If the file is not where a regular install puts it (an editable or unusual
scipy install), the module is imported the ordinary way, through the
``scipy.linalg`` package: the same routines, only a slower import.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

FLAPACK = "scipy.linalg._flapack"


def _flapack_spec():
    """The spec of ``_flapack``'s file in scipy's ``linalg`` directory, or
    None when no such file exists."""
    scipy_spec = importlib.util.find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return importlib.util.spec_from_file_location(FLAPACK, path)
    return None


def _load_flapack():
    module = sys.modules.get(FLAPACK)
    if module is not None:
        return module
    spec = _flapack_spec()
    if spec is None:
        return importlib.import_module(FLAPACK)
    module = importlib.util.module_from_spec(spec)
    sys.modules[FLAPACK] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()

# Banded Cholesky and tridiagonal L D L' (the ADMM f-update), triangular and
# Cholesky solves and Householder QR (the restricted solve and polish), the
# explicit Q (polynomial_basis) and least squares (the sparsity oracle).
dpbtrf = _flapack.dpbtrf
dpbtrs = _flapack.dpbtrs
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs
dtrtrs = _flapack.dtrtrs
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dgeqrf = _flapack.dgeqrf
dgeqrf_lwork = _flapack.dgeqrf_lwork
dorgqr = _flapack.dorgqr
dgels = _flapack.dgels
