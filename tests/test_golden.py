"""The eight detectors' BER curves and the estimator curves, pinned byte for byte.

``tests/golden/`` holds the CLI's CSVs for all eight detectors on a small
scenario (n=16, nc=4, L=9, 4 runs x 60 training blocks): a training curve,
a three-point SNR sweep, a user-count sweep and a sweep that puts a
noiseless point beside a noisy one. It also holds the four SCE detectors
on estimated inputs (a training curve and a three-point SNR sweep) and the
two ``estimators`` curves at three SNRs. They were written with numpy 2.4.6; the output
is byte-identical across reruns, worker counts and batch sizes, but another
numpy may round differently (see ``golden/README.md``). A change that moves
any BER, or the CSV layout, fails here. A genie-only sweep only draws its
training blocks, as no runner reads them; its columns must still equal the
genie columns of the all-detector files.
"""

from pathlib import Path

import numpy as np
import pytest

from uwbfde.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
SMALL = ["--block-length", "16", "--spreading", "4", "--cir-length", "9",
         "--runs", "4", "--blocks", "60"]
ESTIMATED = ["--scheme", "sce", "--estimated-sigma2", "--estimated-k"]
CASES = {
    "ber_vs_blocks_n16_nc4_l9.csv": ["--experiment", "ber-vs-blocks", *SMALL],
    "ber_vs_snr_n16_nc4_l9.csv": ["--experiment", "ber-vs-snr", "--snr-db", "0,8,16",
                                  *SMALL, "--eval-blocks", "40"],
    "ber_vs_snr_noiseless_n16_nc4_l9.csv": ["--experiment", "ber-vs-snr", "--snr-db", "8,inf",
                                            *SMALL, "--eval-blocks", "40"],
    "ber_vs_users_n16_nc4_l9.csv": ["--experiment", "ber-vs-users", *SMALL,
                                    "--eval-blocks", "40"],
    "ber_vs_snr_estimated_n16_nc4_l9.csv": ["--experiment", "ber-vs-snr", *ESTIMATED,
                                            "--snr-db", "0,8,16", *SMALL,
                                            "--eval-blocks", "40"],
    "ber_vs_blocks_estimated_n16_nc4_l9.csv": ["--experiment", "ber-vs-blocks", *ESTIMATED,
                                               *SMALL],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli_main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes(), (
        f"{name} differs from the golden file (written with numpy 2.4.6, "
        f"running numpy {np.__version__})")


def test_estimator_outputs_match_golden(tmp_path):
    assert cli_main(["--experiment", "estimators", "--snr-db", "0,8,16", *SMALL,
                     "--out", str(tmp_path / "estimators_n16_nc4_l9.csv")]) == 0
    for curve in ("sigma2", "kcount"):
        name = f"estimators_n16_nc4_l9_{curve}.csv"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), (
            f"{name} differs from the golden file (written with numpy 2.4.6, "
            f"running numpy {np.__version__})")


def _columns(path):
    """Each column of a CSV as its list of value strings, by name."""
    header, *rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()
                     if not line.startswith("#")]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


@pytest.mark.parametrize("name", ["ber_vs_users_n16_nc4_l9.csv",
                                  "ber_vs_snr_noiseless_n16_nc4_l9.csv"])
def test_genie_only_sweep_matches_the_golden_genie_columns(name, tmp_path):
    out = tmp_path / name
    assert cli_main([*CASES[name], "--algorithm", "mmse", "--out", str(out)]) == 0
    got, golden = _columns(out), _columns(GOLDEN / name)
    assert list(got)[1:] == ["ber_sce-mmse", "se_sce-mmse", "ber_da-mmse", "se_da-mmse"]
    for column, values in got.items():
        assert values == golden[column], (
            f"{column} of the genie-only run differs from {name} (written with numpy "
            f"2.4.6, running numpy {np.__version__})")
