"""Command line front end for the experiment harness. Each config field's
flag is the one :data:`harness.FLAGS` names, and it stores into that field.
The experiment function refuses what it cannot use or does not read
(:meth:`ExperimentConfig.validate`); the CLI refuses only ``--check``."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .fdcore import DivergenceError
from .harness import (
    ALGORITHMS,
    EXPERIMENTS,
    FLAGS,
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

    def option(name, **kwargs):     # the flag of a config field stores into it
        p.add_argument(FLAGS[name], dest=name, **kwargs)

    option("scheme", choices=SCHEMES)
    option("algorithm", choices=ALGORITHMS)
    option("users", type=int, help="active users K")
    option("spreading", type=int, help="chips per symbol Nc")
    option("block_length", type=int, help="symbols per block N")
    option("cir_taps", type=int, help="channel taps L")
    option("cir_file", help="load channel taps from a re,im file")
    option("snr_db", type=_snr_list, help="SNR point or comma-separated sweep")
    option("training_blocks", type=int, help="training blocks per run")
    option("eval_blocks", type=int, help="steady-state measurement blocks for sweeps")
    option("runs", type=int, help="independent Monte-Carlo runs")
    option("base_seed", type=int)
    option("cg_iters", type=int)
    for name in ("mu_h", "mu_w", "lambda_h", "lambda_w", "delta_init"):
        option(name, type=float)
    option("cp_chips", type=int)
    option("use_estimated_sigma2", action="store_true",
           help="feed the detector the estimated noise variance")
    option("use_estimated_k", action="store_true",
           help="feed the detector the estimated user count")
    option("workers", type=int,
           help="worker processes, each advancing a contiguous group of row chunks")
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
