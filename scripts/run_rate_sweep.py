#!/usr/bin/env python3
"""Prediction-error rate sweep over a grid of signal lengths.

Fits the shipped sweep config at each n, prints the per-n median errors and
the fitted log-log slope (expected near -1 with logarithmic corrections).
A missing or bad --config, a grid with fewer than two distinct n, or an --out
that cannot be written, is an error (exit code 2).
"""

import argparse
import pathlib
import sys

from tvtrend._output import OutputError, json_text, write_text
from tvtrend.experiments import ConfigError, ExperimentConfig, rate_sweep

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default=str(CONFIG_DIR / "k1_rate_sweep.json"))
    ap.add_argument("--n-grid", nargs="*", type=int,
                    default=[2 ** p for p in range(8, 13)])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    try:
        cfg = ExperimentConfig.from_json(args.config)
    except ConfigError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2
    try:
        medians, slope = rate_sweep(cfg, args.n_grid, trials=args.trials)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for n in sorted(medians):
        print(f"n={n}: median error {medians[n]:.6f}")
    print(f"log-log slope: {slope:.4f}")
    if args.out:
        try:
            write_text(json_text({"medians": medians, "slope": slope}), args.out)
        except OutputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
