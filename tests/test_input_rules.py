"""Each input rule refused at every entry point that takes the input, with
that entry point's own exception type: a bool where a number is due, a
non-finite real, a non-integer where an integer is due, and a non-finite
signal."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tvtrend import cli, constants
from tvtrend import diffops as dop
from tvtrend import estimator as est
from tvtrend import experiments as exp
from tvtrend import interpolants as itp
from tvtrend import sparsity as sp
from tvtrend import theory

U = math.log(20.0)
BAD = {"integer": (True, np.True_, math.nan, math.inf, 2.5),
       "real": (True, np.True_, math.nan, math.inf, 10 ** 400, -10 ** 400),
       "signal": (math.nan, math.inf)}


def _label(value):
    """A value's repr, or its order of magnitude for an integer no float holds."""
    if type(value) is int and abs(value) > 2 ** 1024:
        return ("-" if value < 0 else "") + f"10**{len(str(abs(value))) - 1}"
    return repr(value)


def _experiment(**fields):
    return exp.ExperimentConfig(**{"n": 64, "k": 1, "s0": 1, "replications": 1, "seed": 1,
                                   **fields})


ENTRIES = {
    "DiffOperator.n": ("integer", dop.InvalidOrderError, lambda v: dop.DiffOperator(v, 2)),
    "DiffOperator.k": ("integer", dop.InvalidOrderError, lambda v: dop.DiffOperator(10, v)),
    "ActiveSet.t": ("integer", ValueError, lambda v: dop.ActiveSet(n=10, k=1, t=(v,), q_S=(1,))),
    "ActiveSet.q_S": ("integer", ValueError, lambda v: dop.ActiveSet(n=10, k=1, t=(5,), q_S=(v,))),
    "ActiveSet.from_lengths": ("integer", ValueError,
                               lambda v: dop.ActiveSet.from_lengths(1, (4, v), (1,))),
    "falling_factorial_columns.rows": ("integer", ValueError,
                                       lambda v: dop.falling_factorial_columns(10, 2, [3, v])),
    "ck_certified.k": ("integer", ValueError, constants.ck_certified),
    "solve_matching_coefficients.k": ("integer", ValueError,
                                      lambda v: itp.solve_matching_coefficients(v, 100)),
    "solve_matching_coefficients.d": ("integer", ValueError,
                                      lambda v: itp.solve_matching_coefficients(3, v)),
    "FitConfig.k": ("integer", ValueError, lambda v: est.FitConfig(lam=1.0, k=v)),
    "FitConfig.max_iter": ("integer", ValueError,
                           lambda v: est.FitConfig(lam=1.0, k=1, max_iter=v)),
    "FitConfig.lam": ("real", ValueError, lambda v: est.FitConfig(lam=v, k=1)),
    "FitConfig.tol_kkt": ("real", ValueError, lambda v: est.FitConfig(lam=1.0, k=1, tol_kkt=v)),
    "fit.y": ("signal", ValueError, lambda v: est.fit([0.0, v, 0.0], est.FitConfig(lam=0.5, k=1))),
    "lambda_max.y": ("signal", ValueError, lambda v: est.lambda_max([0.0, v, 0.0, 1.0], 1)),
    "lambda_max.k": ("integer", ValueError, lambda v: est.lambda_max([1.0, 2.0, 3.0], v)),
    "polynomial_fit.y": ("signal", ValueError, lambda v: est.polynomial_fit([0.0, v, 1.0], 1)),
    "polynomial_fit.k": ("integer", ValueError, lambda v: est.polynomial_fit([1.0, 2.0, 3.0], v)),
    "tv1d_exact.lam": ("real", ValueError, lambda v: est.tv1d_exact(np.arange(5.0), v)),
    "tv1d_exact.y": ("signal", ValueError, lambda v: est.tv1d_exact([0.0, v, 0.0], 0.5)),
    "compute_weights.lam": ("real", ValueError,
                            lambda v: sp.compute_weights(dop.ActiveSet(n=40, k=1, t=(15,),
                                                                       q_S=(1,)), U, v)),
    "lambda0.u": ("real", ValueError, lambda v: theory.lambda0(v, 10, 5)),
    **{f"ExperimentConfig.{name}": ("integer", exp.ConfigError,
                                    lambda v, name=name: _experiment(**{name: v}))
       for name in ("n", "k", "s0", "replications", "seed", "schema_version")},
    **{f"ExperimentConfig.{name}": ("real", exp.ConfigError,
                                    lambda v, name=name: _experiment(**{name: v}))
       for name in ("u", "v", "lambda_scale", "jump_delta", "tol_kkt")},
    "ExperimentConfig.lambda_value": ("real", exp.ConfigError,
                                      lambda v: _experiment(lambda_rule="fixed", lambda_value=v)),
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{_label(value)}")
    for entry, (rule, _, _) in ENTRIES.items() for value in BAD[rule]])
def test_entry_point_refuses_with_its_own_exception(entry, value):
    _, error, call = ENTRIES[entry]
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is error, info.value


def test_good_inputs_pass_every_rule():
    # numpy integers and reals pass; the accepted values are stored as given
    # except where an int is stored (DiffOperator's n and k, ActiveSet's entries).
    op = dop.DiffOperator(np.int64(10), np.int32(2))
    assert (type(op.n), type(op.k)) == (int, int)
    S = dop.ActiveSet.from_lengths(np.int64(2), np.array([8, 10, 11]), np.array([1, -1]))
    assert S == dop.ActiveSet(n=30, k=2, t=(10, 20), q_S=(1, -1))
    assert dop.ActiveSet.from_lengths(S.k, S.seg_lengths, S.q_S) == S
    cfg = est.FitConfig(lam=np.float64(0.5), k=np.int64(1), tol_kkt=np.float32(1e-6))
    assert cfg.lam == 0.5 and type(cfg.lam) is np.float64
    assert theory.lambda0(np.float64(U), 10, 5) == theory.lambda0(U, 10, 5)
    _experiment(jump_delta=-4, u=3, lambda_rule="fixed", lambda_value=2)


@pytest.mark.parametrize("func", [est.lambda_max, est.polynomial_fit])
@pytest.mark.parametrize("y, k", [(np.ones((4, 2)), 1), ([1.0, 2.0, 3.0], 0),
                                  ([1.0, 2.0, 3.0], 3), ([1.0, 2.0, 3.0], 5), ([1.0], 1)])
def test_polynomial_entry_points_take_the_rules_of_fit(func, y, k):
    # the shapes that fit refuses (a non-finite y is in ENTRIES), refused
    # before any LAPACK call
    with pytest.raises(ValueError) as info:
        func(y, k)
    assert type(info.value) is ValueError


def test_fit_checks_its_signal_once(monkeypatch):
    calls = []
    monkeypatch.setattr(est, "signal", lambda y: calls.append(y) or np.asarray(y, dtype=float))
    y = np.repeat([0.0, 2.0], 20) + 0.1 * np.arange(40) % 0.3
    for lam in (0.05, 10.0):        # a polished fit and the polynomial fit
        calls.clear()
        est.fit(y, est.FitConfig(lam=lam, k=2))
        assert len(calls) == 1


def test_config_integer_beyond_float_range_is_an_input_error(tmp_path, capsys):
    # "u": 1 followed by 400 zeros is a JSON integer that no float holds:
    # refused as a bad config (exit 2), with no traceback.
    cfg = exp.ExperimentConfig.from_json(Path(__file__).resolve().parents[1] / "configs"
                                         / "k1_coverage.json")
    path = tmp_path / "huge_u.json"
    text = json.dumps({**cfg.to_dict(), "u": 0}).replace('"u": 0', '"u": 1' + "0" * 400)
    path.write_text(text)
    assert json.loads(text)["u"] == 10 ** 400
    assert cli.main(["simulate", "--config", str(path), "--dry-run"]) == 2
    assert "beyond the float range" in capsys.readouterr().err
