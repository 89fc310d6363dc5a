"""Command-line interface.

Subcommands: ``solve`` (fit a signal), ``bounds`` (tuning rules and bound
values), ``interpolant`` (emit an interpolating vector as CSV), ``verify``
(run a verification suite), ``simulate`` (Monte-Carlo harness from a JSON
config).

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 numerical failure (non-convergence).  All outputs are deterministic
functions of the flags, input files and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import experiments, theory, verify
from ._checks import real
from ._output import OutputError, csv_text, json_text, write_text
from .constants import UV_DEFAULT
from .diffops import ActiveSet, InvalidOrderError, build_delta
from .estimator import ALGORITHMS, FitConfig, fit
from .interpolants import InfeasibleInterpolantError, build_noiseless, build_noisy
from .sparsity import compute_weights, gamma_closed_form

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class InputError(Exception):
    pass


def _read_signal_csv(path):
    values = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    v = float(text)
                except ValueError:
                    raise InputError(f"{path}:{lineno}: not a number: {text!r}")
                if not math.isfinite(v):
                    raise InputError(f"{path}:{lineno}: non-finite value")
                values.append(v)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not values:
        raise InputError(f"{path}: empty signal")
    return np.array(values)


_SIGN_TOKENS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _parse_active_set(args, *checked):
    """The active set of --n, --k, --jumps and --signs, after --lambda, --c-k,
    --u and the ``checked`` (flag, value) pairs pass as finite and positive."""
    for flag, value in (("--lambda", args.lam), ("--c-k", args.c_k), ("--u", args.u), *checked):
        real(flag, value, InputError, "positive", optional=True)
    t = tuple(int(v) for v in args.jumps.split(",")) if args.jumps else ()
    if args.signs:
        tokens = [s.strip() for s in args.signs.split(",")]
        bad = [s for s in tokens if s not in _SIGN_TOKENS]
        if bad:
            raise InputError(f"--signs entries must be one of + +1 1 - -1, got {bad[0]!r}")
        signs = tuple(_SIGN_TOKENS[s] for s in tokens)
    else:
        signs = tuple((-1) ** i for i in range(len(t)))
    if len(signs) != len(t):
        raise InputError("--signs must match --jumps in length")
    return ActiveSet(n=args.n, k=args.k, t=t, q_S=signs)


def _strengthened_lambda(args, S):
    """The strengthened threshold of S under --u and --c-k, and --lambda or,
    when it is not given, that threshold."""
    thr = theory.lambda_threshold(S.n, S.k, S.n_max, args.u, s=S.s, c_k=args.c_k)
    return thr, (args.lam if args.lam is not None else thr)


def cmd_solve(args):
    y = _read_signal_csv(args.input)
    n = len(y)
    request = FitConfig(lam=0.0, k=args.k, algorithm=args.algorithm, tol_kkt=args.tol_kkt,
                        max_iter=args.max_iter)
    try:
        build_delta(n, args.k)
    except InvalidOrderError:
        raise InputError(f"--k {args.k} needs n >= k + 1 = {args.k + 1} samples, got n = {n}")
    # The longest segment n samples can hold under k-th differences: n + 1 - k.
    if args.n_max is not None and not 1 <= args.n_max <= n + 1 - args.k:
        raise InputError(f"--n-max must be >= 1 and <= n + 1 - k = {n + 1 - args.k}"
                         f" (n = {n}, k = {args.k}), got {args.n_max}")
    if not 0 <= args.s0 <= n - args.k - 1:
        raise InputError(f"--s0 must be in [0, n - k - 1] = [0, {n - args.k - 1}], got {args.s0}")
    if (args.lam is None) == (args.lambda_rule is None):
        raise InputError("give exactly one of --lambda and --lambda-rule")
    # --lambda is the rule fixed, scaled by --lambda-scale as lambda_value is in simulate.
    rule = "fixed" if args.lam is not None else args.lambda_rule
    real("--lambda-scale", args.lambda_scale, InputError, "positive")
    if rule == "threshold":
        real("--u", args.u, InputError, "positive")
    n_max = args.n_max if args.n_max is not None else (n + 1 - args.k) // (args.s0 + 1)
    lam = theory.tuning_lambda(rule, n, args.k, args.s0, n_max, args.u,
                               scale=args.lambda_scale, value=args.lam)
    res = fit(y, dataclasses.replace(request, lam=lam))
    if args.out:
        write_text(csv_text((v,) for v in res.f_hat.tolist()), args.out)
    report = {
        "n": n, "k": args.k, "lambda": lam, "algorithm": args.algorithm,
        "objective": res.objective, "kkt_residual": res.kkt_residual,
        "iters": res.iters, "converged": res.converged,
    }
    write_text(json_text(report), args.report)
    return EXIT_OK if res.converged else EXIT_NUMERIC


def cmd_bounds(args):
    S = _parse_active_set(args, ("--v", args.v))
    n, k, s, n_max = S.n, S.k, S.s, S.n_max
    lam0 = theory.lambda0(args.u, n, n - k - s)
    thr_plain = theory.lambda_threshold(n, k, n_max, args.u, s=s, strengthened=False)
    thr, lam = _strengthened_lambda(args, S)
    gamma_sq = gamma_closed_form(S)
    for warning in theory.bound_preconditions(S, lam, thr):
        print(f"warning: {warning}", file=sys.stderr)
    out = {
        "n": n, "k": k, "s": s, "n_max": n_max, "u": args.u, "v": args.v,
        "lambda0": lam0,
        "lambda_threshold": thr_plain,
        "lambda_threshold_strengthened": thr,
        "lambda": lam,
        "n_max_cap": theory.n_max_cap(lam, args.u, n, k, s=s, c_k=args.c_k),
        "gamma_sq_closed_form": gamma_sq,
        "estimation_term": theory.estimation_term(n, k, s, args.v, lam * math.sqrt(gamma_sq)),
    }
    text = json_text(out) if args.format == "json" else csv_text(sorted(out.items()), "key,value")
    write_text(text, args.out)
    return EXIT_OK


def cmd_interpolant(args):
    S = _parse_active_set(args)
    if args.mode == "noisy":
        vec = build_noisy(S, weights=compute_weights(S, args.u, _strengthened_lambda(args, S)[1]))
    else:
        vec = build_noiseless(S)
    off = np.isfinite(vec.caps)     # the active rows print cap 1 and slack 0
    records = list(zip(vec.row_indices.tolist(), vec.q.tolist(),
                       np.where(off, vec.caps, 1.0).tolist(),
                       np.where(off, vec.slack, 0.0).tolist()))
    columns = ("index", "q", "weight_cap", "slack")
    text = (json_text([dict(zip(columns, r)) for r in records]) if args.format == "json"
            else csv_text(records, ",".join(columns)))
    write_text(text, args.out)
    return EXIT_OK


def cmd_verify(args):
    report = verify.run_suite(args.suite)
    write_text(json_text(report), args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


def cmd_simulate(args):
    try:
        cfg = experiments.ExperimentConfig.from_json(args.config)
    except experiments.ConfigError as exc:
        raise InputError(f"bad config: {exc}")
    experiments.n_threads()     # refuses a bad TVTREND_THREADS before any trial runs
    if args.dry_run:
        write_text(json_text({"config": cfg.to_dict(), "valid": True}))
        return EXIT_OK
    _, summary = experiments.run_monte_carlo(cfg, csv_path=args.out_csv, json_path=args.out_json)
    if not args.out_json:
        write_text(json_text(summary))
    if summary["n_nonconverged"]:
        return EXIT_NUMERIC
    return EXIT_OK


def _active_set_options(fmt):
    """The options that ``bounds`` and ``interpolant`` share, with --format
    defaulting to ``fmt``.  A parent parser per subcommand: argparse shares
    a parent's option objects, so set_defaults on one would reach both."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--jumps", default="", help="comma-separated active rows")
    p.add_argument("--signs", default="", help="comma-separated signs (+/-)")
    p.add_argument("--u", type=float, default=UV_DEFAULT)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--c-k", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default=fmt)
    p.add_argument("--out", default=None)
    return p


def build_parser():
    p = argparse.ArgumentParser(prog="tvtrend", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="fit a signal from a single-column CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--lambda-rule", default=None,
                    choices=tuple(r for r in theory.LAMBDA_RULES if r != "fixed"))
    sp.add_argument("--lambda-scale", type=float,
                    default=experiments.ExperimentConfig.lambda_scale)
    sp.add_argument("--s0", type=int, default=0)
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--u", type=float, default=UV_DEFAULT)
    sp.add_argument("--algorithm", choices=ALGORITHMS, default=FitConfig.algorithm)
    sp.add_argument("--tol-kkt", type=float, default=FitConfig.tol_kkt)
    sp.add_argument("--max-iter", type=int, default=FitConfig.max_iter)
    sp.add_argument("--out", default=None, help="fitted signal CSV")
    sp.add_argument("--report", default=None,
                    help="fit report JSON (default: stdout).  Below lambda_max, admm polishes"
                         " the closed-form candidate, then ADMM's trigger candidates, and"
                         " returns the first polished face, or ADMM's final iterate when"
                         " every polish gives up; iters is as in tvtrend.estimator.FitResult")
    sp.set_defaults(func=cmd_solve)

    bp = sub.add_parser("bounds", parents=[_active_set_options("json")],
                        help="tuning rules and closed-form bound values")
    bp.add_argument("--v", type=float, default=UV_DEFAULT)
    bp.set_defaults(func=cmd_bounds)

    ip = sub.add_parser("interpolant", parents=[_active_set_options("csv")],
                        help="emit an interpolating vector as CSV")
    ip.add_argument("--mode", choices=("noisy", "noiseless"), default="noisy")
    ip.set_defaults(func=cmd_interpolant)

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("--suite", choices=verify.SUITES, required=True)
    vp.add_argument("--out", default=None)
    vp.set_defaults(func=cmd_verify)

    mp = sub.add_parser("simulate", help="Monte-Carlo harness from a JSON config")
    mp.add_argument("--config", required=True)
    mp.add_argument("--out-csv", default=None)
    mp.add_argument("--out-json", default=None)
    mp.add_argument("--dry-run", action="store_true")
    mp.set_defaults(func=cmd_simulate)
    return p


def _attach_sign_lists(argv):
    """Rewrite ``--signs -,+,-`` as ``--signs=-,+,-``: argparse takes a value
    that begins with a minus for an option and stops with "expected one
    argument".  A list that begins with a minus is "-", "-,..." or "-1..."."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--signs" and out[i + 1][:1] == "-" and out[i + 1][1:2] in ("", ",", "1"):
            out[i:i + 2] = [f"--signs={out[i + 1]}"]
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_sign_lists(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (InfeasibleInterpolantError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, OutputError, ValueError, RuntimeError) as exc:
        # LinAlgError is a ValueError, caught above as a numerical failure.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
