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
import json
import math
import sys

import numpy as np

from . import experiments, theory, verify
from ._checks import real
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


def _write_text(text, path=None):
    """Write ``text`` to the file ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj, path=None):
    _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def _dump_report(obj, path=None, fmt="json"):
    if fmt == "json":
        _dump_json(obj, path)
        return
    lines = ["key,value"]
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, float):
            lines.append(f"{key},{value:.17g}")
        else:
            lines.append(f"{key},{value}")
    _write_text("\n".join(lines) + "\n", path)


_SIGN_TOKENS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _parse_active_set(args, n, k):
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
    return ActiveSet(n=n, k=k, t=t, q_S=signs)


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
        _write_text("".join(f"{v:.17g}\n" for v in res.f_hat), args.out)
    report = {
        "n": n, "k": args.k, "lambda": lam, "algorithm": args.algorithm,
        "objective": res.objective, "kkt_residual": res.kkt_residual,
        "iters": res.iters, "converged": res.converged,
    }
    _dump_json(report, args.report)
    return EXIT_OK if res.converged else EXIT_NUMERIC


def cmd_bounds(args):
    for flag, value in (("--lambda", args.lam), ("--c-k", args.c_k), ("--u", args.u),
                        ("--v", args.v)):
        real(flag, value, InputError, "positive", optional=True)
    n, k = args.n, args.k
    S = _parse_active_set(args, n, k)
    s = S.s
    n_max = S.n_max
    lam0 = theory.lambda0(args.u, n, n - k - s)
    thr_plain = theory.lambda_threshold(n, k, n_max, args.u, s=s, strengthened=False)
    thr = theory.lambda_threshold(n, k, n_max, args.u, s=s, c_k=args.c_k)
    lam = args.lam if args.lam is not None else thr
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
    _dump_report(out, args.out, args.format)
    return EXIT_OK


def cmd_interpolant(args):
    for flag, value in (("--lambda", args.lam), ("--c-k", args.c_k), ("--u", args.u)):
        real(flag, value, InputError, "positive", optional=True)
    S = _parse_active_set(args, args.n, args.k)
    weights = None
    if args.mode == "noisy":
        lam = args.lam if args.lam is not None else theory.lambda_threshold(
            args.n, args.k, S.n_max, args.u, s=S.s, c_k=args.c_k)
        weights = compute_weights(S, args.u, lam)
        vec = build_noisy(S, weights=weights)
    else:
        vec = build_noiseless(S)
    off = np.isfinite(vec.caps)     # the active rows print cap 1 and slack 0
    records = list(zip(vec.row_indices.tolist(), vec.q.tolist(),
                       np.where(off, vec.caps, 1.0).tolist(),
                       np.where(off, vec.slack, 0.0).tolist()))
    if args.format == "json":
        _dump_json([{"index": j, "q": q, "weight_cap": c, "slack": s}
                    for j, q, c, s in records], args.out)
        return EXIT_OK
    lines = ["index,q,weight_cap,slack"]
    for j, q, c, s in records:
        lines.append(f"{j},{q:.17g},{c:.17g},{s:.17g}")
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args):
    report = verify.run_suite(args.suite)
    _dump_json(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


def cmd_simulate(args):
    try:
        cfg = experiments.ExperimentConfig.from_json(args.config)
    except (OSError, json.JSONDecodeError, experiments.ConfigError) as exc:
        raise InputError(f"bad config: {exc}")
    try:
        experiments.n_threads()
    except experiments.ConfigError as exc:
        raise InputError(str(exc))
    if args.dry_run:
        _dump_json({"config": cfg.to_dict(), "valid": True})
        return EXIT_OK
    records, summary = experiments.run_monte_carlo(cfg, csv_path=args.out_csv,
                                                   json_path=args.out_json)
    if args.out_json is None:
        _dump_json(summary)
    if summary["n_nonconverged"]:
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="tvtrend", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="fit a signal from a single-column CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--lambda-rule", choices=("threshold", "equal_segment"), default=None)
    sp.add_argument("--lambda-scale", type=float, default=1.0)
    sp.add_argument("--s0", type=int, default=0)
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--u", type=float, default=math.log(20.0))
    sp.add_argument("--algorithm", choices=ALGORITHMS, default="admm")
    sp.add_argument("--tol-kkt", type=float, default=1e-8)
    sp.add_argument("--max-iter", type=int, default=50_000)
    sp.add_argument("--out", default=None, help="fitted signal CSV")
    sp.add_argument("--report", default=None,
                    help="fit report JSON (default: stdout).  Below lambda_max, admm polishes"
                         " the closed-form candidate, then ADMM's trigger candidates, and"
                         " returns the first polished face, or ADMM's final iterate when"
                         " every polish gives up; iters is as in tvtrend.estimator.FitResult")
    sp.set_defaults(func=cmd_solve)

    bp = sub.add_parser("bounds", help="tuning rules and closed-form bound values")
    bp.add_argument("--n", type=int, required=True)
    bp.add_argument("--k", type=int, required=True)
    bp.add_argument("--jumps", default="", help="comma-separated active rows")
    bp.add_argument("--signs", default="", help="comma-separated signs (+/-)")
    bp.add_argument("--u", type=float, default=math.log(20.0))
    bp.add_argument("--v", type=float, default=math.log(20.0))
    bp.add_argument("--lambda", dest="lam", type=float, default=None)
    bp.add_argument("--c-k", type=float, default=None)
    bp.add_argument("--format", choices=("json", "csv"), default="json")
    bp.add_argument("--out", default=None)
    bp.set_defaults(func=cmd_bounds)

    ip = sub.add_parser("interpolant", help="emit an interpolating vector as CSV")
    ip.add_argument("--n", type=int, required=True)
    ip.add_argument("--k", type=int, required=True)
    ip.add_argument("--jumps", default="", help="comma-separated active rows")
    ip.add_argument("--signs", default="")
    ip.add_argument("--mode", choices=("noisy", "noiseless"), default="noisy")
    ip.add_argument("--u", type=float, default=math.log(20.0))
    ip.add_argument("--lambda", dest="lam", type=float, default=None)
    ip.add_argument("--c-k", type=float, default=None)
    ip.add_argument("--format", choices=("csv", "json"), default="csv")
    ip.add_argument("--out", default=None)
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleInterpolantError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
