"""Package-wide structure: resolvable annotations, dense-free runtime paths
and one face solver in the sparsity oracle."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import typing

import numpy as np
import pytest

import tvtrend
from tvtrend import diffops as dop
from tvtrend import estimator as est
from tvtrend import experiments as exp
from tvtrend import interpolants as itp
from tvtrend import sparsity as sp
from tvtrend.theory import lambda_threshold


def _dataclasses():
    for info in pkgutil.iter_modules(tvtrend.__path__):
        module = importlib.import_module(f"tvtrend.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield obj


def test_dataclass_type_hints_resolve():
    found = list(_dataclasses())
    assert {c.__name__ for c in found} >= {"ActiveSet", "Weights", "InterpolatingVector"}
    for cls in found:
        typing.get_type_hints(cls)


class TestNoDenseOnRuntimePaths:
    """The Monte-Carlo harness, both solvers, the weights, the interpolants
    and the interpolant energy run in O(n) memory: none of them may build
    the dense difference operator."""

    @pytest.fixture(autouse=True)
    def forbid_dense(self, monkeypatch):
        def refuse(self, cap=dop.DENSE_CAP_DEFAULT):
            raise AssertionError("dense operator built on a runtime path")

        monkeypatch.setattr(dop.DiffOperator, "to_dense", refuse)
        monkeypatch.delenv("TVTREND_THREADS", raising=False)

    def test_guard_fires(self):
        with pytest.raises(AssertionError, match="runtime path"):
            dop.build_delta(10, 2).to_dense()

    @pytest.mark.parametrize("k,algorithm", [(1, "dp_k1"), (2, "admm")])
    def test_monte_carlo(self, k, algorithm):
        cfg = exp.ExperimentConfig(n=128, k=k, s0=2, replications=3, seed=5,
                                   algorithm=algorithm)
        records, summary = exp.run_monte_carlo(cfg)
        assert len(records) == 3 and summary["n_trials"] == 3

    @pytest.mark.parametrize("algorithm", est.ALGORITHMS)
    def test_fit(self, algorithm, rng):
        y = np.repeat([0.0, 2.0, -1.0], 40) + rng.standard_normal(120)
        res = est.fit(y, est.FitConfig(lam=0.2 * est.lambda_max(y, 1), k=1,
                                       algorithm=algorithm))
        assert res.converged

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_weights_interpolant_energy(self, k):
        n = 40 * k * (k + 2)
        S = dop.ActiveSet(n=n, k=k, t=(n // 3, 2 * n // 3), q_S=(1, -1))
        u = math.log(20.0)
        lam = lambda_threshold(n, k, S.n_max, u, s=S.s)
        w = sp.compute_weights(S, u, lam)
        vec = itp.build_noisy(S, weights=w)
        assert sp.effective_sparsity_via_interpolant(vec, weights=w) > 0.0


def test_oracle_solves_faces_by_qr_alone(monkeypatch):
    """The direct oracle has one face solver; an SVD lstsq path must not
    come back beside it."""
    def refuse(*args, **kwargs):
        raise AssertionError("lstsq called by the sparsity oracle")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    S = dop.ActiveSet(n=60, k=2, t=(20, 40), q_S=(1, -1))
    u = math.log(20.0)
    w = sp.compute_weights(S, u, lambda_threshold(S.n, 2, S.n_max, u, s=S.s))
    res = sp.effective_sparsity_direct(S, weights=w)
    assert res.reliable and res.gamma_sq > 0.0
