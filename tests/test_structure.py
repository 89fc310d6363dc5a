"""Package-wide structure: resolvable annotations, dense-free runtime paths,
one face solver in the sparsity oracle, one exit from the fit driver, and
one definition of each output format and default."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import typing
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import tvtrend
from tvtrend import cli, verify
from tvtrend import diffops as dop
from tvtrend import estimator as est
from tvtrend import experiments as exp
from tvtrend import interpolants as itp
from tvtrend import sparsity as sp
from tvtrend.constants import UV_DEFAULT
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
        def refuse(self):
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


def test_fit_certifies_at_one_site():
    """The unpolished exits of ``fit`` (``dp_k1``, the polynomial fit at
    lambda >= lambda_max and ADMM's final iterate when every polish gives up)
    share one ``_certificate`` call."""
    tree = ast.parse(inspect.getsource(est.fit))
    assert _called_names(tree).count("_certificate") == 1


def test_verify_suites_take_no_options():
    """``run_suite`` takes the suite name alone, and no suite has a knob."""
    assert list(inspect.signature(verify.run_suite).parameters) == ["name"]
    for run in verify._SUITE_RUNS.values():
        assert not inspect.signature(run).parameters


class TestOneQRPerShape:
    """The degree < k polynomial basis of a shape is factored once: the
    column lengths of Delta(k)^+ and the event geometry of ``prepare`` read
    the cached basis that the fit reads."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        for cache in (dop._cached_polynomial_basis, dop._cached_pinv_sqnorms,
                      est._cached_face_constants):
            cache.cache_clear()
        calls = []
        geqrf = dop.dgeqrf

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return geqrf(*args, **kwargs)

        monkeypatch.setattr(dop, "dgeqrf", counting)
        return calls

    def test_first_fit_at_a_new_shape(self, qr_calls):
        y = np.repeat([0.0, 3.0, -2.0, 1.0], 50) + np.random.default_rng(5).standard_normal(200)
        res = est.fit(y, est.FitConfig(lam=0.02, k=2))
        assert res.converged and res.iters >= 1 and np.any(np.diff(res.f_hat, 2) != 0.0)
        assert qr_calls == [(200, 2)]

    def test_prepare_twice(self, qr_calls):
        cfg = exp.ExperimentConfig.from_json(Path(__file__).resolve().parents[1] / "configs"
                                             / "k1_coverage.json")
        exp.prepare(cfg)
        assert len(qr_calls) == len({nb for _, _, nb in exp.generate_signal(cfg)[1].blocks()})
        qr_calls.clear()
        exp.prepare(cfg)
        assert qr_calls == []


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
    most once (its error bound takes no second pass over n), and the empty
    face, where each of these polishes starts, not at all: its dual is the
    witness that ``fit`` computed for lambda_max."""
    calls, faces, empty = [0], [], []
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
        empty.append(len(active) == 0)
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
    assert sum(empty) == 4 and not any(c for (c, _), e in zip(faces, empty) if e)


def test_screened_dual_reads_no_cached_column(monkeypatch):
    """A screened face's dual is formed from the residual its solve already
    took, by k suffix sums alone: it reads none of the cached n x |A|
    columns and forms no fit.  The empty face's dual takes no suffix sums."""
    from conftest import recipe_input

    y, cfg = recipe_input(2, n=1024, frac=0.3)
    n, k, lam = len(y), cfg.k, cfg.lam
    witness = est._polynomial_witness(y, k)
    columns = est._FaceColumns(y, k, lam, witness)

    def refuse(*args, **kwargs):
        raise AssertionError("suffix sums taken for the empty face")

    with monkeypatch.context() as patch:
        patch.setattr(est, "dual_witness", refuse)
        u, _ = columns.solve(np.array([], dtype=int), np.array([]))[2]()
    assert np.array_equal(u, witness / (n * lam))
    dual = columns.solve(np.array([300, 301, 700]), np.array([1.0, 1.0, -1.0]))[2]
    u, u_err = dual()
    columns.X[:] = math.nan
    assert all(np.array_equal(a, b) for a, b in zip(dual(), (u, u_err)))


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
        assert est._polish(y, k, cfg.lam, [], [], cfg.tol_kkt,
                           est._polynomial_witness(y, k), set()) is not None
        qr = [state for kind, state in log.faces if kind == "qr"]
        assert qr == stops and log.faces[0][0] == "screen"
        single += len(qr) == 1
    assert single >= 2


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tvtrend").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_output_formats_have_one_home():
    """The 17-digit float rendering of every CSV and the JSON text layout
    are spelled out in ``tvtrend._output`` alone, across the package and
    ``scripts/``: every other writer calls ``csv_text`` or ``json_text``."""
    found = []
    for path in SOURCES:
        if path.name == "_output.py":
            continue
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and ".17g" in node.value):
                found.append(f"{path.name}:{node.lineno}: .17g")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")):
                keywords = {kw.arg: getattr(kw.value, "value", None) for kw in node.keywords}
                if keywords.get("sort_keys") is True and keywords.get("indent") == 2:
                    found.append(f"{path.name}:{node.lineno}: json.{node.func.attr}")
    assert found == []


def _is_reference(node):
    return isinstance(node, (ast.Name, ast.Attribute))


# The defaults with a definition of their own: the FitConfig fields, the
# ExperimentConfig field lambda_scale, and u = v = UV_DEFAULT.
DEFINED_DEFAULTS = ("tol_kkt", "max_iter", "algorithm", "lambda_scale", "u", "v")


def test_defaults_have_one_definition():
    """The parser and ExperimentConfig refer to the defaults defined elsewhere
    instead of spelling them out: u = v = log 20 is ``UV_DEFAULT``, the fit
    settings are FitConfig's, --lambda-scale is ExperimentConfig's, the
    --lambda-rule choices come from ``theory.LAMBDA_RULES`` and the suite
    names from the suite table of ``verify``."""
    spelled = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if (path.name != "constants.py" and isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "log"
                    and any(getattr(a, "value", None) == 20 for a in node.args)):
                spelled.append(f"{path.name}:{node.lineno}: log(20)")
    cli_tree = _tree(ROOT / "src" / "tvtrend" / "cli.py")
    for node in ast.walk(cli_tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords}
        flag = node.args[0].value
        dest = getattr(keywords.get("dest"), "value", flag.lstrip("-").replace("-", "_"))
        if dest in DEFINED_DEFAULTS and not _is_reference(keywords["default"]):
            spelled.append(f"cli.py:{node.lineno}: {flag} default")
        if flag in ("--lambda-rule", "--suite") and isinstance(keywords["choices"], ast.Tuple):
            spelled.append(f"cli.py:{node.lineno}: {flag} choices")
    exp_tree = _tree(ROOT / "src" / "tvtrend" / "experiments.py")
    config = next(node for node in ast.walk(exp_tree)
                  if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    for stmt in config.body:
        if (isinstance(stmt, ast.AnnAssign) and stmt.target.id in DEFINED_DEFAULTS
                and stmt.target.id != "lambda_scale" and not _is_reference(stmt.value)):
            spelled.append(f"experiments.py:{stmt.lineno}: ExperimentConfig.{stmt.target.id}")
    verify_tree = _tree(ROOT / "src" / "tvtrend" / "verify.py")
    for node in ast.walk(verify_tree):
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SUITES"
                                                 for t in node.targets)
                and isinstance(node.value, ast.Tuple)):
            spelled.append(f"verify.py:{node.lineno}: SUITES")
    assert spelled == []


def _subcommands():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# The options of each subcommand and the fields of the two configs: a
# refactoring of the parser or of the configs adds or removes none.
CLI_OPTIONS = {
    "solve": {"--input", "--k", "--lambda", "--lambda-rule", "--lambda-scale", "--s0",
              "--n-max", "--u", "--algorithm", "--tol-kkt", "--max-iter", "--out", "--report"},
    "bounds": {"--n", "--k", "--jumps", "--signs", "--u", "--v", "--lambda", "--c-k",
               "--format", "--out"},
    "interpolant": {"--n", "--k", "--jumps", "--signs", "--mode", "--u", "--lambda", "--c-k",
                    "--format", "--out"},
    "verify": {"--suite", "--out"},
    "simulate": {"--config", "--out-csv", "--out-json", "--dry-run"},
}


def test_cli_options_and_config_fields_are_counted():
    options = {name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
               for name, sub in _subcommands().items()}
    assert options == CLI_OPTIONS
    assert {name: len(flags) for name, flags in options.items()} == {
        "solve": 13, "bounds": 10, "interpolant": 10, "verify": 2, "simulate": 4}
    assert len(dataclasses.fields(est.FitConfig)) == 5
    assert len(dataclasses.fields(exp.ExperimentConfig)) == 16


def test_parser_defaults_are_the_definitions():
    """The defaults the parser hands on are the defined ones, and the option
    set shared by ``bounds`` and ``interpolant`` keeps each its --format."""
    subs = _subcommands()
    solve = subs["solve"].parse_args(["--input", "y.csv", "--k", "1"])
    fit_defaults = est.FitConfig(lam=0.0, k=1)
    assert (solve.tol_kkt, solve.max_iter, solve.algorithm) == (
        fit_defaults.tol_kkt, fit_defaults.max_iter, fit_defaults.algorithm)
    assert solve.lambda_scale == exp.ExperimentConfig(n=64, k=1, s0=0, replications=1,
                                                      seed=0).lambda_scale
    assert solve.u == UV_DEFAULT == math.log(20.0)
    bounds = subs["bounds"].parse_args(["--n", "10", "--k", "1"])
    interpolant = subs["interpolant"].parse_args(["--n", "10", "--k", "1"])
    assert bounds.u == bounds.v == interpolant.u == UV_DEFAULT
    assert (bounds.format, interpolant.format) == ("json", "csv")
    assert exp.ExperimentConfig.u == exp.ExperimentConfig.v == UV_DEFAULT
    assert exp.ExperimentConfig.tol_kkt == est.FitConfig.tol_kkt
    assert exp.ExperimentConfig.algorithm == est.FitConfig.algorithm
    assert subs["verify"]._option_string_actions["--suite"].choices == verify.SUITES
    assert subs["solve"]._option_string_actions["--lambda-rule"].choices == (
        "threshold", "equal_segment")
