"""Command line front end for the experiment harness. Each flag stores into
the config field its ``dest`` names. The experiment function refuses what it
cannot use (:meth:`ExperimentConfig.validate`); the CLI refuses only ``--check``."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .fdcore import DivergenceError
from .harness import (
    ALGORITHMS,
    EXPERIMENTS,
    SCHEMES,
    ExperimentConfig,
    run_ber_vs_blocks,
    run_ber_vs_snr,
    run_ber_vs_users,
    run_estimator_curves,
    verify_complexity,
)


def _snr_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad SNR list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="uwbfde",
        description="Monte-Carlo simulator for multiuser spread-spectrum downlink "
                    "detection with frequency-domain equalization.")
    p.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--users", type=int, help="active users K")
    p.add_argument("--spreading", type=int, help="chips per symbol Nc")
    p.add_argument("--block-length", type=int, help="symbols per block N")
    p.add_argument("--cir-length", dest="cir_taps", type=int, help="channel taps L")
    p.add_argument("--cir-file", help="load channel taps from a re,im file")
    p.add_argument("--snr-db", type=_snr_list, help="SNR point or comma-separated sweep")
    p.add_argument("--blocks", dest="training_blocks", type=int,
                   help="training blocks per run")
    p.add_argument("--eval-blocks", type=int,
                   help="steady-state measurement blocks for sweeps")
    p.add_argument("--runs", type=int, help="independent Monte-Carlo runs")
    p.add_argument("--seed", dest="base_seed", type=int)
    p.add_argument("--cg-iters", type=int)
    p.add_argument("--mu-h", type=float)
    p.add_argument("--mu-w", type=float)
    p.add_argument("--lambda-h", type=float)
    p.add_argument("--lambda-w", type=float)
    p.add_argument("--delta", dest="delta_init", type=float)
    p.add_argument("--cp-chips", type=int)
    p.add_argument("--estimated-sigma2", dest="use_estimated_sigma2", action="store_true",
                   help="feed the detector the estimated noise variance")
    p.add_argument("--estimated-k", dest="use_estimated_k", action="store_true",
                   help="feed the detector the estimated user count")
    p.add_argument("--workers", type=int,
                   help="worker processes, each advancing a contiguous slice of the runs")
    p.add_argument("--check", action="store_true",
                   help="complexity experiment: exit nonzero unless all counts match")
    p.add_argument("--out", default=None, help="output path (default <experiment>.csv)")
    # each experiment flag stores into, and defaults to, the config field of its dest
    p.set_defaults(**dataclasses.asdict(ExperimentConfig()))
    return p


def config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(ExperimentConfig)})


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.check and args.experiment != "complexity":
            raise ValueError("--check applies to the complexity experiment only")
        cfg = config_from_args(args)
        if args.experiment == "complexity":
            report = verify_complexity(cfg)
            text = report.to_text()
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
            if args.check and not report.all_match:
                print("complexity check failed", file=sys.stderr)
                return 1
            return 0
        if args.experiment == "estimators":
            curves = run_estimator_curves(cfg)
            base = args.out or "estimators.csv"
            stem = base[:-4] if base.endswith(".csv") else base
            for name, curve in curves.items():
                path = f"{stem}_{name}.csv"
                curve.write_csv(path)
                print(f"wrote {path}")
            return 0
        runner = {
            "ber-vs-blocks": run_ber_vs_blocks,
            "ber-vs-snr": run_ber_vs_snr,
            "ber-vs-users": run_ber_vs_users,
        }[args.experiment]
        curve = runner(cfg)
        out = args.out or f"{args.experiment}.csv"
        curve.write_csv(out)
        print(f"wrote {out}")
        return 0
    except (ValueError, OSError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
