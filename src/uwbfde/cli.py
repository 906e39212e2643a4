"""Command line front end for the experiment harness."""

from __future__ import annotations

import argparse
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
    p.add_argument("--scheme", default="both", choices=SCHEMES)
    p.add_argument("--algorithm", default="all", choices=ALGORITHMS)
    p.add_argument("--users", type=int, default=3, help="active users K")
    p.add_argument("--spreading", type=int, default=8, help="chips per symbol Nc")
    p.add_argument("--block-length", type=int, default=32, help="symbols per block N")
    p.add_argument("--cir-length", type=int, default=34, help="channel taps L")
    p.add_argument("--cir-file", default=None, help="load channel taps from a re,im file")
    p.add_argument("--snr-db", type=_snr_list, default=(16.0,),
                   help="SNR point or comma-separated sweep")
    p.add_argument("--blocks", type=int, default=1000, help="training blocks per run")
    p.add_argument("--eval-blocks", type=int, default=200,
                   help="steady-state measurement blocks for sweeps")
    p.add_argument("--runs", type=int, default=20, help="independent Monte-Carlo runs")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--cg-iters", type=int, default=8)
    p.add_argument("--mu-h", type=float, default=None)
    p.add_argument("--mu-w", type=float, default=0.0012)
    p.add_argument("--lambda-h", type=float, default=0.998)
    p.add_argument("--lambda-w", type=float, default=0.85)
    p.add_argument("--delta", type=float, default=1e-2)
    p.add_argument("--cp-chips", type=int, default=35)
    p.add_argument("--estimated-sigma2", action="store_true",
                   help="feed the detector the estimated noise variance")
    p.add_argument("--estimated-k", action="store_true",
                   help="feed the detector the estimated user count")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, each advancing a contiguous slice of the runs")
    p.add_argument("--check", action="store_true",
                   help="complexity experiment: exit nonzero unless all counts match")
    p.add_argument("--out", default=None, help="output path (default <experiment>.csv)")
    return p


def config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        block_length=args.block_length,
        spreading=args.spreading,
        users=args.users,
        cir_taps=args.cir_length,
        cp_chips=args.cp_chips,
        snr_db=tuple(args.snr_db),
        training_blocks=args.blocks,
        eval_blocks=args.eval_blocks,
        runs=args.runs,
        base_seed=args.seed,
        scheme=args.scheme,
        algorithm=args.algorithm,
        cg_iters=args.cg_iters,
        mu_h=args.mu_h,
        mu_w=args.mu_w,
        lambda_h=args.lambda_h,
        lambda_w=args.lambda_w,
        delta_init=args.delta,
        use_estimated_sigma2=args.estimated_sigma2,
        use_estimated_k=args.estimated_k,
        cir_file=args.cir_file,
        workers=args.workers,
    )


def _reject_ignored_flags(args):
    """Reject flags that the chosen experiment would ignore."""
    if args.check and args.experiment != "complexity":
        raise ValueError("--check applies to the complexity experiment only")
    if args.experiment in ("estimators", "complexity"):
        for flag, on in (("--estimated-sigma2", args.estimated_sigma2),
                         ("--estimated-k", args.estimated_k)):
            if on:
                raise ValueError(f"{flag} does not apply to the {args.experiment} experiment")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        _reject_ignored_flags(args)
        cfg = config_from_args(args)
        cfg.validate()
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
