"""Monte-Carlo verification of the oracle inequalities.

Generates piecewise-polynomial signals with a prescribed number of jumps in
the (k-1)-th discrete derivative, adds unit Gaussian noise, fits the
penalized estimator, and records per trial whether the adaptive oracle bound
held and whether the two concentration events behind it occurred:

* event U: every dictionary column satisfies
  |eps' psi_j^{-S}| / (n ||psi_j^{-S}||_n) <= lambda0(u);
* event V: the projection of the noise onto the augmented null space
  satisfies ||eps_Nbar||_n <= sqrt(rbar/n) + sqrt(2v/n).

Trials are keyed by a counter-based generator (Philox seeded by
(seed, trial)), so the trial stream is order-independent and parallel-safe;
aggregation sorts by trial id, making outputs byte-identical across runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import theory
from ._checks import flag, integer, real, shape
from ._output import csv_text, json_text, write_text
from .constants import UV_DEFAULT, minimum_segment_length
from .diffops import (ActiveSet, _cached_polynomial_basis, block_column_sqnorms, dual_witness,
                      falling_factorial_columns)
from .estimator import FitConfig, fit
from .sparsity import gamma_closed_form

SCHEMA_VERSION = 1
CSV_HEADER = "trial_id,mse,bound_rhs,held,event_u,event_v,kkt_residual,seconds"

JUMP_LAYOUTS = ("equispaced", "random-min-gap")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    k: int
    s0: int
    replications: int
    seed: int
    u: float = UV_DEFAULT
    v: float = UV_DEFAULT
    jump_layout: str = "equispaced"
    jump_delta: float = 10.0
    lambda_rule: str = "threshold"
    lambda_value: float | None = None
    lambda_scale: float = 1.0
    algorithm: str = FitConfig.algorithm
    tol_kkt: float = FitConfig.tol_kkt
    record_timing: bool = False
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        integer("schema_version", self.schema_version, ConfigError, 0)
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unknown schema_version {self.schema_version}")
        shape(self.n, self.k, ConfigError)
        integer("s0", self.s0, ConfigError, 0, self.n - self.k - 1)
        integer("replications", self.replications, ConfigError, 1)
        integer("seed", self.seed, ConfigError, 0, 2 ** 64 - 1)     # the Philox key is a uint64
        for name in ("u", "v", "lambda_scale"):
            real(name, getattr(self, name), ConfigError, "positive")
        real("lambda_value", self.lambda_value, ConfigError, "positive", optional=True)
        real("jump_delta", self.jump_delta, ConfigError)
        flag("record_timing", self.record_timing, ConfigError)
        try:                        # the fit request: FitConfig's rule
            _fit_config(self, 0.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.lambda_rule not in theory.LAMBDA_RULES:
            raise ConfigError(f"lambda_rule must be one of {theory.LAMBDA_RULES}")
        if self.jump_layout not in JUMP_LAYOUTS:
            raise ConfigError(f"jump_layout must be one of {JUMP_LAYOUTS}")
        if (self.lambda_rule == "fixed") != (self.lambda_value is not None):
            raise ConfigError("lambda_rule fixed requires a lambda_value, and no other rule"
                              f" takes one; got {self.lambda_rule!r} and {self.lambda_value!r}")

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:    # JSONDecodeError is a ValueError
            raise ConfigError(str(exc)) from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: a config is a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    mse: float
    bound_rhs: float
    inequality_held: bool
    event_u_held: bool
    event_v_held: bool
    kkt_residual: float
    runtime: float
    converged: bool


def trial_rng(seed, trial):
    """Counter-based generator for one trial, independent of trial order."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)).jumped(trial))


def _layout_rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)).jumped(2 ** 32 - 1))


def jump_locations(cfg):
    """Jump rows for the configured layout; min gap k(k+2) enforced."""
    n, k, s0 = cfg.n, cfg.k, cfg.s0
    if s0 == 0:
        return ()
    gap = minimum_segment_length(k)
    span = n + 1 - k
    if (s0 + 1) * gap > span:
        raise ConfigError(
            f"layout infeasible: {s0} jumps with min gap {gap} need n+1-k >= {(s0 + 1) * gap}"
        )
    if cfg.jump_layout == "equispaced":
        return tuple(k + round((i * span) / (s0 + 1)) for i in range(1, s0 + 1))
    rng = _layout_rng(cfg.seed)
    slack = span - (s0 + 1) * gap
    cuts = np.sort(rng.integers(0, slack + 1, size=s0))
    return tuple(int(k + gap * (i + 1) + cuts[i]) for i in range(s0))


def generate_signal(cfg):
    """Signal with exactly s0 nonzero k-th differences, and its active set.

    Jump magnitudes are +/- delta * n^{-(k-1)} with alternating signs (the
    sign-change-heavy case), synthesized through the falling-factorial
    columns so the support is exact.
    """
    t = jump_locations(cfg)
    signs = tuple((-1) ** i for i in range(len(t)))
    S = ActiveSet(n=cfg.n, k=cfg.k, t=t, q_S=signs)
    f0 = np.zeros(cfg.n)
    if t:
        mags = cfg.jump_delta * float(cfg.n) ** (-(cfg.k - 1)) * np.array(signs, dtype=float)
        f0 = falling_factorial_columns(cfg.n, cfg.k, t) @ mags
    return f0, S


def resolve_lambda(cfg, S):
    return theory.tuning_lambda(cfg.lambda_rule, cfg.n, cfg.k, S.s, S.n_max, cfg.u,
                                scale=cfg.lambda_scale, value=cfg.lambda_value)


@dataclass(frozen=True)
class EventGeometry:
    """What events U and V need of an active set S; O(n) in size.

    ``segments`` holds, for each block of Psi^{-S}, its 0-based coordinate
    slice and an orthonormal basis of the degree < k polynomials on it (the
    augmented null space, block by block).  ``psi_scale`` holds
    sqrt(n) ||psi_j^{-S}|| for the dictionary columns in row order.
    """

    k: int
    segments: tuple
    psi_scale: np.ndarray

    @classmethod
    def from_active_set(cls, S):
        segments = tuple((a - 1, b, _cached_polynomial_basis(nb, min(S.k, nb)))
                         for a, b, nb in S.blocks())
        _rows, sqnorms = block_column_sqnorms(S)
        return cls(k=S.k, segments=segments, psi_scale=math.sqrt(S.n) * np.sqrt(sqnorms))


def event_statistics(geom, eps):
    """The statistics of events U and V for one noise vector, in O(n).

    Returns (max_j |eps' psi_j^{-S}| / (sqrt(n) ||psi_j^{-S}||), ||Nbar' eps||_2)
    with Nbar an orthonormal basis of the augmented null space.  Each
    segment's noise is projected off the segment's polynomials once: the
    coefficients make up Nbar' eps, and since the segment's columns of
    Psi^{-S} are falling-factorial columns with that projection applied,
    ``dual_witness`` of the residual (k suffix sums) gives eps' psi_j^{-S}.
    The left half of a segment's columns is taken from the reversed residual
    instead (prefix sums; reversing the coordinates maps psi_j to
    (-1)^k psi_{n_b+k+1-j}), as ``pinv_column_sqnorms`` does for the
    lengths: long falling-factorial columns would amplify the rounding left
    in the residual's polynomial part.  The segments' columns ascend in row
    order, as ``psi_scale`` does.
    """
    k = geom.k
    coefs, witness = [], []
    for lo, hi, basis in geom.segments:
        e = eps[lo:hi]
        c = basis.T @ e
        coefs.append(c)
        if hi - lo > k:
            r = e - basis @ c
            u = dual_witness(r, k)
            half = (len(u) - 1) // 2
            u[:half] = (-1) ** k * dual_witness(r[::-1], k)[::-1][:half]
            witness.append(u)
    corr = np.abs(np.concatenate(witness)) / geom.psi_scale
    return float(np.max(corr)), float(np.linalg.norm(np.concatenate(coefs)))


@dataclass
class _Prepared:
    cfg: ExperimentConfig
    f0: np.ndarray
    S: ActiveSet
    lam: float
    fit_cfg: FitConfig
    bound_rhs: float
    events: EventGeometry
    lam0: float
    sqrt_rbar_2v: float


def prepare(cfg):
    f0, S = generate_signal(cfg)
    events = EventGeometry.from_active_set(S)
    lam = resolve_lambda(cfg, S)
    gamma = math.sqrt(gamma_closed_form(S))
    # adaptive oracle bound at the oracle comparator (f = f0, S = truth)
    rhs = theory.adaptive_bound_rhs(f0, f0, S, lam, cfg.u, cfg.v, gamma).total
    lam0 = theory.lambda0(cfg.u, cfg.n, cfg.n - cfg.k - S.s)
    sqrt_rbar_2v = math.sqrt(cfg.k * (S.s + 1)) + math.sqrt(2.0 * cfg.v)
    return _Prepared(cfg=cfg, f0=f0, S=S, lam=lam, fit_cfg=_fit_config(cfg, lam), bound_rhs=rhs,
                     events=events, lam0=lam0, sqrt_rbar_2v=sqrt_rbar_2v)


def _fit_config(cfg, lam):
    return FitConfig(lam=lam, k=cfg.k, tol_kkt=cfg.tol_kkt, algorithm=cfg.algorithm)


def _noisy_fit(f0, fit_cfg, seed, trial):
    """Noise of ``trial``, fit of f0 plus it, its mean squared error and fit seconds."""
    eps = trial_rng(seed, trial).standard_normal(len(f0))
    y = f0 + eps
    t0 = time.perf_counter()
    res = fit(y, fit_cfg)
    dt = time.perf_counter() - t0
    return eps, res, float(np.sum((res.f_hat - f0) ** 2)) / len(f0), dt


def run_trial(prep, trial):
    eps, res, mse, dt = _noisy_fit(prep.f0, prep.fit_cfg, prep.cfg.seed, trial)
    corr, proj = event_statistics(prep.events, eps)
    return TrialRecord(trial_id=trial, mse=mse, bound_rhs=prep.bound_rhs,
                       inequality_held=mse <= prep.bound_rhs,
                       event_u_held=corr <= prep.lam0,
                       event_v_held=proj <= prep.sqrt_rbar_2v,
                       kkt_residual=res.kkt_residual, runtime=dt, converged=res.converged)


_WORKER_PREP = None


def _worker_init(cfg_dict):
    global _WORKER_PREP
    _WORKER_PREP = prepare(ExperimentConfig(**cfg_dict))


def _worker_run(trial):
    return run_trial(_WORKER_PREP, trial)


def n_threads():
    """Trial workers of ``run_monte_carlo``: ``TVTREND_THREADS``, 1 when it
    is unset.  Any value other than a decimal integer >= 1 is refused."""
    value = os.environ.get("TVTREND_THREADS")
    if value is None:
        return 1
    if not (value.isascii() and value.isdigit() and int(value) >= 1):
        raise ConfigError(f"TVTREND_THREADS must be an integer >= 1, got {value!r}")
    return int(value)


def wilson_interval(successes, total, z=1.96):
    """Wilson score 95% interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def wilson_margin(total, p0, z=1.96):
    """Half-width of the normal-approximation band around a target rate."""
    return z * math.sqrt(p0 * (1.0 - p0) / total)


def run_monte_carlo(cfg, csv_path=None, json_path=None):
    """Run all trials; returns (records, summary).  Writes the per-trial CSV
    of the converged trials and the summary JSON to the paths given (both
    byte-deterministic for a given config and seed; per-trial seconds are
    recorded only when ``record_timing`` is set); a path that cannot be
    written raises ``OutputError``, a missing directory before any trial."""
    for path in (csv_path, json_path):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            write_text("", path)        # open fails there, and creates no file
    workers = n_threads()
    prep = prepare(cfg)
    trials = range(cfg.replications)
    if workers > 1:
        # Imported here: concurrent.futures and multiprocessing would add
        # about 9 ms to every import of the package.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                                 initargs=(cfg.to_dict(),)) as pool:
            records = list(pool.map(_worker_run, trials, chunksize=16))
    else:
        records = [run_trial(prep, t) for t in trials]
    records.sort(key=lambda r: r.trial_id)
    summary = summarize(cfg, records)
    if csv_path:
        rows = ((r.trial_id, r.mse, r.bound_rhs, int(r.inequality_held), int(r.event_u_held),
                 int(r.event_v_held), r.kkt_residual, r.runtime if cfg.record_timing else 0.0)
                for r in records if r.converged)
        write_text(csv_text(rows, CSV_HEADER), csv_path)
    if json_path:
        write_text(json_text(summary), json_path)
    return records, summary


def summarize(cfg, records):
    ok = [r for r in records if r.converged]
    n_ok = len(ok)
    quantiles = {}
    if n_ok:
        qs = np.quantile([r.mse for r in ok], [0.1, 0.25, 0.5, 0.75, 0.9])
        quantiles = {q: float(v) for q, v in zip(("q10", "q25", "q50", "q75", "q90"), qs)}

    def rate(field, target):
        count = sum(getattr(r, field) for r in ok)
        return {"rate": count / n_ok if n_ok else None, "wilson": wilson_interval(count, n_ok),
                "target": target}

    summary = {
        "config": cfg.to_dict(),
        "n_trials": len(records),
        "n_converged": n_ok,
        "n_nonconverged": len(records) - n_ok,
        "coverage": rate("inequality_held", 1.0 - math.exp(-cfg.u) - math.exp(-cfg.v)),
        "event_u": rate("event_u_held", 1.0 - math.exp(-cfg.u)),
        "event_v": rate("event_v_held", 1.0 - math.exp(-cfg.v)),
        "mse": quantiles,
        "bound_rhs": records[0].bound_rhs if records else None,
    }
    if cfg.record_timing:
        summary["seconds_total"] = float(sum(r.runtime for r in records))
    return summary


def rate_sweep(cfg, n_values, trials=100):
    """Median prediction error over a grid of n, with the log-log slope.

    Events are skipped; only the fit and the error enter.  Returns (per-n
    medians, fitted slope of log median vs log n).  A slope needs at least
    two distinct n: fewer raise ``ConfigError``, as does an n that is not an
    integer.
    """
    if len(set(n_values)) < 2:
        raise ConfigError("a rate sweep needs at least two distinct n values,"
                          f" got {list(n_values)}")
    medians = {}
    for n in n_values:
        sub = dataclasses.replace(cfg, n=n, replications=trials)    # refuses a non-integer n
        f0, S = generate_signal(sub)
        fit_cfg = _fit_config(sub, resolve_lambda(sub, S))
        mses = [_noisy_fit(f0, fit_cfg, sub.seed, t)[2] for t in range(trials)]
        medians[int(n)] = float(np.median(mses))
    xs = np.log(np.array(sorted(medians)))
    ys = np.log(np.array([medians[n] for n in sorted(medians)]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return medians, slope
