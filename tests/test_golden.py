"""The eight detectors' BER curves and the estimator curves, pinned byte for byte.

``tests/golden/`` holds the CLI's CSVs for all eight detectors on a small
scenario (n=16, nc=4, L=9, 4 runs x 60 training blocks): a training curve,
a three-point SNR sweep, a user-count sweep and a sweep that puts a
noiseless point beside a noisy one. It also holds the four SCE detectors
on estimated inputs (a training curve and a three-point SNR sweep), all
eight detectors in that sweep with the SCE ones on estimated inputs, and
the two ``estimators`` curves at three SNRs, and a two-point SNR sweep on
the tap file ``cir_l9.txt``. They were written with numpy 2.4.6; the output
is byte-identical across reruns, worker counts and batch sizes, but another
numpy may round differently (see ``golden/README.md``). A change that moves
any BER, or the CSV layout, fails here. A genie-only sweep only draws its
training blocks, as no runner reads them; its columns must still equal the
genie columns of the all-detector files.
"""

from pathlib import Path

import numpy as np
import pytest

from uwbfde import harness
from uwbfde.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
SMALL = ["--block-length", "16", "--spreading", "4", "--cir-length", "9",
         "--runs", "4", "--blocks", "60"]
ESTIMATES = ["--estimated-sigma2", "--estimated-k"]
ESTIMATED = ["--scheme", "sce", *ESTIMATES]
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
    "ber_vs_snr_estimated_both_n16_nc4_l9.csv": ["--experiment", "ber-vs-snr", "--scheme", "both",
                                                 *ESTIMATES, "--snr-db", "0,8,16", *SMALL,
                                                 "--eval-blocks", "40"],
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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("max_rows", [1, 7, 64])
def test_output_is_independent_of_chunking(max_rows, workers, tmp_path, monkeypatch):
    # the (run, point) rows advance in chunks of at most _MAX_ROWS; the
    # bytes do not depend on the cap or on how the chunks are dealt to workers
    monkeypatch.setattr(harness, "_MAX_ROWS", max_rows)
    argv = ["--workers", str(workers), "--out"]
    for name in ("ber_vs_users_n16_nc4_l9.csv", "ber_vs_snr_n16_nc4_l9.csv"):
        assert cli_main([*CASES[name], *argv, str(tmp_path / name)]) == 0
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert cli_main(["--experiment", "estimators", "--snr-db", "0,8,16", *SMALL,
                     *argv, str(tmp_path / "estimators_n16_nc4_l9.csv")]) == 0
    for curve in ("sigma2", "kcount"):
        name = f"estimators_n16_nc4_l9_{curve}.csv"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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


def test_cir_file_is_read_once_per_trial(tmp_path, monkeypatch):
    # every run shares the tap file's channel, read once per trial
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taps.txt").write_bytes((GOLDEN / "cir_l9.txt").read_bytes())
    calls = []

    def load_cir(*args):
        calls.append(args)
        return real_load_cir(*args)
    real_load_cir = harness.load_cir
    monkeypatch.setattr(harness, "load_cir", load_cir)
    name = "ber_vs_snr_cir_file_n16_nc4_l9.csv"
    assert cli_main(["--experiment", "ber-vs-snr", "--snr-db", "0,8", *SMALL,
                     "--eval-blocks", "40", "--cir-file", "taps.txt", "--out", name]) == 0
    assert len(calls) == 1
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), (
        f"{name} differs from the golden file (written with numpy 2.4.6, "
        f"running numpy {np.__version__})")
    calls.clear()
    assert cli_main(["--experiment", "estimators", "--snr-db", "8", *SMALL,
                     "--cir-file", "taps.txt", "--out", "e.csv"]) == 0
    assert len(calls) == 2      # the noise-variance sweep and the user-count traces
