"""Package-wide structure: resolvable annotations, dense-free runtime paths,
one face solver in the sparsity oracle and one exit from the fit driver."""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import typing

import numpy as np
import pytest
import scipy.linalg

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
    """The Monte-Carlo harness, both solvers, the weights, the interpolants,
    the interpolant energy and the k = 1 sparsity oracle run in O(n) memory:
    none of them may build the dense difference operator."""

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

    def test_k1_oracle(self):
        S = dop.ActiveSet(n=300, k=1, t=(75, 150, 225), q_S=(1, -1, 1))
        u = math.log(20.0)
        w = sp.compute_weights(S, u, lambda_threshold(S.n, 1, S.n_max, u, s=S.s))
        res = sp.effective_sparsity_direct(S, weights=w)
        assert res.reliable and res.gamma_sq > 0.0


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


def test_restricted_solve_calls_lapack_directly(monkeypatch):
    """The restricted solve runs its triangular solves through the LAPACK
    routine fetched at import; scipy's validating wrapper must not come back
    into the fit."""
    def refuse(*args, **kwargs):
        raise AssertionError("solve_triangular called by the fit")

    monkeypatch.setattr(scipy.linalg, "solve_triangular", refuse)
    y = np.repeat([0.0, 2.0, -1.0], 40) + np.random.default_rng(3).standard_normal(120)
    calls = []
    solve = est._restricted_solve

    def counting(y_, k, lam, active, signs):
        calls.append(len(active))
        return solve(y_, k, lam, active, signs)

    monkeypatch.setattr(est, "_restricted_solve", counting)
    for k in (1, 2):
        res = est.fit(y, est.FitConfig(lam=0.2 * est.lambda_max(y, k), k=k))
        assert res.converged
    assert max(calls) > 0


def _called_names(tree):
    return [node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))]


def test_fit_result_built_in_one_place():
    """``fit`` is the one driver: a single ``FitResult(...)`` construction in
    the estimator, and an ADMM generator that neither polishes, certifies
    nor scores its iterates."""
    tree = ast.parse(inspect.getsource(est))
    assert _called_names(tree).count("FitResult") == 1
    gen = next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_admm_iterates")
    assert any(isinstance(node, ast.Yield) for node in ast.walk(gen))
    assert not {"_polish", "_certificate", "objective", "FitResult"} & set(_called_names(gen))


def test_fit_certifies_no_trigger_iterate(monkeypatch):
    """A raw ADMM iterate ends no fit before ``max_iter``: with every polish
    giving up, ``_certificate`` is called once, on the final iterate, even
    where a loose ``tol_kkt`` would pass a trigger iterate."""
    rng = np.random.default_rng(3)
    y = np.repeat(rng.standard_normal(4), 64) + 0.3 * rng.standard_normal(256)
    cfg = est.FitConfig(lam=0.1 * est.lambda_max(y, 1), k=1, tol_kkt=1e-2, max_iter=900)
    certified, triggers = [], []
    certificate, iterates = est._certificate, est._admm_iterates

    def recording(y_, f_hat, lam, k, tol_kkt):
        certified.append(f_hat.tobytes())
        return certificate(y_, f_hat, lam, k, tol_kkt)

    def watched(y_, cfg_):
        for it, f, z in iterates(y_, cfg_):
            if z is not None and it < cfg_.max_iter:
                triggers.append(f.tobytes())
            yield it, f, z

    monkeypatch.setattr(est, "_polish", lambda *args: None)
    monkeypatch.setattr(est, "_certificate", recording)
    monkeypatch.setattr(est, "_admm_iterates", watched)
    res = est.fit(y, cfg)
    assert triggers and not set(triggers) & set(certified)
    assert certified == [res.f_hat.tobytes()] and res.iters == cfg.max_iter


def test_admm_loop_allocates_only_what_it_yields():
    """Every array an ADMM iteration needs is allocated once per fit: the
    loop of ``_admm_iterates`` calls no ``np.diff``, ``np.zeros``,
    ``np.empty`` or ``.copy()`` outside its ``yield``.  Its triggers read the
    residual norms it already takes: no array comparison or extra reduction."""
    tree = ast.parse(inspect.getsource(est))
    gen = next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_admm_iterates")
    loop = next(node for node in ast.walk(gen) if isinstance(node, ast.For))
    yields = [node for node in ast.walk(loop) if isinstance(node, ast.Yield)]
    in_yield = {id(node) for y in yields for node in ast.walk(y)}
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for stmt in loop.body for node in ast.walk(stmt)
              if isinstance(node, ast.Call) and id(node) not in in_yield
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert "copy" in _called_names(yields[0])
    assert not {"diff", "zeros", "empty", "copy"} & called
    assert not {"array_equal", "array_equiv", "allclose", "any", "all", "count_nonzero",
                "nonzero", "flatnonzero", "sum", "norm", "amax", "amin", "ptp"} & called


def test_screened_face_forms_its_dual_at_most_once(monkeypatch):
    """A screened face decides its signs before it forms its dual: a face
    that drops a row calls ``dual_witness`` not at all, any other face at
    most once (its error bound takes no second pass over n)."""
    calls, faces = [0], []
    witness, solve, screen = est.dual_witness, est._FaceColumns.solve, est._screen

    def counting(h, k):
        calls[0] += 1
        return witness(h, k)

    def solving(columns, active, signs):
        calls[0] = 0
        return solve(columns, active, signs)

    def screening(face, active, signs, k, tol_kkt):
        out = screen(face, active, signs, k, tol_kkt)
        faces.append((calls[0], out is not None and len(out[0]) < len(active)))
        return out

    monkeypatch.setattr(est, "dual_witness", counting)
    monkeypatch.setattr(est._FaceColumns, "solve", solving)
    monkeypatch.setattr(est, "_screen", screening)
    rng = np.random.default_rng(11)
    for k in (2, 3):
        for _ in range(2):
            n = 1024
            y = np.cumsum(np.repeat(rng.standard_normal(8), n // 8), axis=0)
            for _ in range(k - 1):
                y = np.cumsum(y) / n
            y = y + 0.5 * rng.standard_normal(n)
            est.fit(y, est.FitConfig(lam=0.1 * est.lambda_max(y, k), k=k))
    drops = [c for c, dropped in faces if dropped]
    assert drops and not any(drops)
    assert max(c for c, _ in faces) == 1


def test_closed_form_fit_builds_no_admm(monkeypatch):
    """A fit whose closed-form first ADMM iterate, soft(Delta(k) y,
    2 lambda / RHO_INIT), is the empty support, and whose polish of it
    returns, neither runs the ADMM loop nor factors or solves a banded
    system, tridiagonal (k = 1) or not."""
    from conftest import recipe_input

    def refuse(*args, **kwargs):
        raise AssertionError("ADMM entered by a closed-form fit")

    for name in ("_admm_iterates", "_PBTRF", "_PBTRS", "_PTTRF", "_PTTRS"):
        monkeypatch.setattr(est, name, refuse)
    # At k = 1, 2 the recipe's noise keeps Delta(k) y large; a smooth signal
    # has small differences.
    sine = np.sin(2.0 * math.pi * np.linspace(0.0, 1.0, 1024))
    inputs = [(sine, est.FitConfig(lam=0.1 * est.lambda_max(sine, k), k=k)) for k in (1, 2)]
    inputs += [recipe_input(k, n=1024) for k in (3, 4)]
    for y, cfg in inputs:
        assert np.max(np.abs(np.diff(y, cfg.k))) <= 2.0 * cfg.lam / est.RHO_INIT
        assert est.fit(y, cfg).iters == 1


def test_k1_coverage_trial_enters_admm(monkeypatch):
    """The closed-form trigger does not fire on a k1_coverage trial: its fit
    still runs the ADMM loop, once."""
    from pathlib import Path

    config = Path(__file__).resolve().parent.parent / "configs" / "k1_coverage.json"
    prep = exp.prepare(exp.ExperimentConfig.from_json(config))
    calls = []
    admm = est._admm_iterates

    def counting(y, cfg):
        calls.append(cfg.k)
        return admm(y, cfg)

    monkeypatch.setattr(est, "_admm_iterates", counting)
    for trial in range(3):
        calls.clear()
        assert exp.run_trial(prep, trial).converged
        assert calls == [1]


def test_polish_solves_by_qr_only_where_the_screen_stops(monkeypatch):
    """Every ``_restricted_solve`` of a polish solves the state on which the
    screen just stopped, the starting face included: a polish whose screen
    stops only at its last face calls ``_restricted_solve`` once."""
    from conftest import PolishLog, recipe_input

    stops = []
    screen = est._screen

    def logged(face, active, signs, k, tol_kkt):
        out = screen(face, active, signs, k, tol_kkt)
        if out is None:
            stops.append(PolishLog.state(active, signs))
        return out

    log = PolishLog(monkeypatch)
    monkeypatch.setattr(est, "_screen", logged)
    single = 0
    for k, n, frac in ((2, 1024, 0.6), (2, 1024, 0.3), (3, 1024, 0.3), (3, 2048, 0.1)):
        y, cfg = recipe_input(k, n=n, frac=frac)
        log.clear()
        stops.clear()
        assert est._polish(y, k, cfg.lam, [], [], cfg.tol_kkt) is not None
        qr = [state for kind, state in log.faces if kind == "qr"]
        assert qr == stops and log.faces[0][0] == "screen"
        single += len(qr) == 1
    assert single >= 2
