"""Experiment harness: configuration, experiments, CSV output and the CLI."""

import dataclasses

import numpy as np
import pytest

from uwbfde.channel import ChannelProfile, generate_cir
from uwbfde import harness
from uwbfde.cli import main as cli_main
from uwbfde.fdcore import DivergenceError, walsh_code_set
from uwbfde.harness import (
    CurveSet,
    ExperimentConfig,
    _curve_trial,
    _new_runners,
    _simulate_blocks,
    run_ber_vs_blocks,
    run_ber_vs_snr,
    run_ber_vs_users,
    run_estimator_curves,
)
from uwbfde.sce import build_mmse_sce


def _tiny_config(**overrides):
    base = dict(block_length=8, spreading=2, users=2, cir_taps=3, cp_chips=4,
                snr_db=(12.0,), training_blocks=40, eval_blocks=20, runs=2,
                base_seed=77, decay_rate=0.2, cg_iters=3)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_users_exceeding_codes(self):
        cfg = _tiny_config(users=3, spreading=2)
        with pytest.raises(ValueError, match="K exceeds Nc"):
            cfg.validate()

    def test_non_power_of_two_spreading(self):
        with pytest.raises(ValueError, match="power of two"):
            _tiny_config(spreading=3).validate()

    def test_bad_scheme_and_algorithm(self):
        with pytest.raises(ValueError):
            _tiny_config(scheme="nope").validate()
        with pytest.raises(ValueError):
            _tiny_config(algorithm="nope").validate()

    def test_short_prefix_rejected(self):
        # synthesis is circular, so a prefix shorter than the channel memory
        # would be accepted and then silently not simulated
        with pytest.raises(ValueError, match="shorter than the channel memory"):
            _tiny_config(cp_chips=1).validate()
        _tiny_config(cp_chips=2).validate()

    def test_algo_keys(self):
        assert _tiny_config(scheme="sce", algorithm="cg").algo_keys() == ["sce-cg"]
        assert len(_tiny_config(scheme="both", algorithm="all").algo_keys()) == 8

    def test_metadata_reports_rate(self):
        meta = ExperimentConfig().metadata()
        assert meta["chips_per_block"] == 256
        assert meta["uncoded_rate_mbps"] == pytest.approx(293.2, abs=0.5)


class TestExperiments:
    def test_divergence_names_run_point_algorithm_and_block(self):
        cfg = _tiny_config(scheme="da", algorithm="lms", mu_w=5.0, training_blocks=400)
        with np.errstate(all="ignore"), pytest.raises(
                DivergenceError,
                match=r"^run 0, 12 dB SNR, 2 users, da-lms, block 357 of 400: "
                      r"adaptive update diverged"):
            run_ber_vs_blocks(cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_divergence_names_lowest_run_of_a_batch(self, workers):
        # run 3 diverges first (block 331), run 0 later (block 357); the
        # error names run 0, as it does when runs advance one at a time
        cfg = _tiny_config(scheme="da", algorithm="lms", mu_w=5.0, training_blocks=400,
                           runs=4, workers=workers)
        with np.errstate(all="ignore"), pytest.raises(
                DivergenceError,
                match=r"^run 0, 12 dB SNR, 2 users, da-lms, block 357 of 400: "
                      r"adaptive update diverged"):
            run_ber_vs_blocks(cfg)
        with np.errstate(all="ignore"), pytest.raises(
                DivergenceError, match=r"^run 3, 12 dB SNR, 2 users, da-lms, block 331 of 400"):
            _curve_trial(cfg, 12.0, 2, ["da-lms"], [3])

    def test_ber_vs_blocks_shape(self):
        curve = run_ber_vs_blocks(_tiny_config())
        assert curve.x_name == "block"
        assert curve.x.size == 40
        for key in _tiny_config().algo_keys():
            col = curve.columns[f"ber_{key}"]
            assert col.shape == (40,)
            assert np.all((col >= 0) & (col <= 1))
            assert np.all(curve.columns[f"se_{key}"] >= 0)

    def test_noiseless_genie_zero_from_first_block(self):
        cfg = _tiny_config(users=1, snr_db=(300.0,), scheme="sce", algorithm="mmse",
                           training_blocks=10)
        curve = run_ber_vs_blocks(cfg)
        assert np.all(curve.columns["ber_sce-mmse"] == 0)

    def test_genie_paths_identical(self):
        cfg = _tiny_config(algorithm="mmse", training_blocks=30)
        curve = run_ber_vs_blocks(cfg)
        assert np.array_equal(curve.columns["ber_sce-mmse"], curve.columns["ber_da-mmse"])

    def test_ber_vs_snr_monotone_sanity(self):
        cfg = _tiny_config(snr_db=(0.0, 30.0), scheme="sce", algorithm="rls",
                           training_blocks=80, eval_blocks=60, runs=3)
        curve = run_ber_vs_snr(cfg)
        ber = curve.columns["ber_sce-rls"]
        assert ber[1] <= ber[0]

    def test_ber_vs_users_sweeps_full_range(self):
        cfg = _tiny_config(spreading=4, users=1, scheme="da", algorithm="rls",
                           training_blocks=30, eval_blocks=20)
        curve = run_ber_vs_users(cfg)
        assert list(curve.x) == [1, 2, 3]

    def test_estimator_curves_structure(self):
        cfg = _tiny_config(spreading=4, snr_db=(4.0, 12.0), training_blocks=30)
        curves = run_estimator_curves(cfg)
        sig = curves["sigma2"]
        assert "sigma2_theory" in sig.columns
        assert "sigma2_hat_k1" in sig.columns and "sigma2_hat_k3" in sig.columns
        kc = curves["kcount"]
        assert kc.x.size == 30
        assert "k_float_genie_k2" in kc.columns
        assert "k_int_est_k3" in kc.columns


class TestEstimatedInputs:
    def test_estimated_path_ignores_the_truth(self, monkeypatch):
        # runners receive the true noise variance and user count for the
        # genie detector; with both estimates on, the equalizers of the
        # adaptive SCE detectors must not depend on them at any block,
        # startup included
        cfg = _tiny_config(spreading=4, users=2, scheme="sce",
                           use_estimated_sigma2=True, use_estimated_k=True)
        keys = ["sce-lms", "sce-rls", "sce-cg"]
        codes = walsh_code_set(cfg.spreading)
        taps = generate_cir(ChannelProfile(cfg.cir_taps, cfg.decay_rate, seed=5))
        sigma2 = cfg.sigma2_for(cfg.snr_db[0])
        inputs = []

        def recording_build(h_hat, k_est, sigma2_est, nc, m):
            inputs.append((k_est, sigma2_est))
            return build_mmse_sce(h_hat, k_est, sigma2_est, nc, m)

        monkeypatch.setattr(harness, "build_mmse_sce", recording_build)

        def equalizer_inputs(users_seen, sigma2_seen):
            inputs.clear()
            runners = _new_runners(cfg, users_seen, sigma2_seen, taps, codes, keys)
            _simulate_blocks(cfg, cfg.users, sigma2, taps, codes, runners,
                             np.random.default_rng(6), cfg.training_blocks)
            return list(inputs)

        truth = equalizer_inputs(cfg.users, sigma2)
        assert len(truth) == len(keys) * cfg.training_blocks
        assert truth == equalizer_inputs(3, 50.0)


class TestCsvOutput:
    def test_header_and_rows(self, tmp_path):
        curve = CurveSet("x", np.array([1, 2]),
                         columns={"a": np.array([0.5, 0.25])},
                         meta={"users": 3})
        path = tmp_path / "out.csv"
        curve.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# users=3"
        assert lines[1] == "x,a"
        assert lines[2].startswith("1,5.0000000000e-01")

    def test_map_runs_slices_contiguously_in_run_order(self):
        # 5 runs over 3 workers: batches 0-1, 2-3 and 4, merged in run order
        slices = []

        def args_for(runs):
            slices.append(runs)
            return ([str(r) for r in runs],)

        cfg = _tiny_config(runs=5, workers=3)
        assert harness._map_runs(cfg, list, args_for) == ["0", "1", "2", "3", "4"]
        assert slices == [[0, 1], [2, 3], [4]]

    def test_workers_do_not_change_output(self, tmp_path):
        cfg1 = _tiny_config(runs=3, workers=1)
        cfg2 = _tiny_config(runs=3, workers=3)
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w3.csv"
        run_ber_vs_blocks(cfg1).write_csv(p1)
        run_ber_vs_blocks(cfg2).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    BASE = ["--block-length", "8", "--spreading", "2", "--users", "2",
            "--cir-length", "3", "--cp-chips", "4", "--blocks", "30",
            "--eval-blocks", "10", "--runs", "2", "--seed", "5"]

    def test_ber_vs_blocks_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = cli_main(["--experiment", "ber-vs-blocks", *self.BASE, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header].startswith("block,")
        assert len(lines) - header - 1 == 30

    def test_validation_error_exit_code(self, capsys):
        rc = cli_main(["--experiment", "ber-vs-blocks", "--users", "9",
                       "--spreading", "8"])
        assert rc == 1
        assert "K exceeds Nc" in capsys.readouterr().err

    def test_determinism_identical_invocations(self, tmp_path):
        args = ["--experiment", "ber-vs-blocks", *self.BASE]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main([*args, "--out", str(p1)]) == 0
        assert cli_main([*args, "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_complexity_check_passes(self, capsys, tmp_path):
        rc = cli_main(["--experiment", "complexity", "--check",
                       "--out", str(tmp_path / "report.txt")])
        assert rc == 0
        text = (tmp_path / "report.txt").read_text()
        assert "all multiply counts match: yes" in text

    def test_estimators_writes_two_files(self, tmp_path):
        rc = cli_main(["--experiment", "estimators", "--block-length", "8",
                       "--spreading", "4", "--cir-length", "3", "--cp-chips", "4",
                       "--blocks", "20", "--runs", "2", "--snr-db", "8,16",
                       "--out", str(tmp_path / "est.csv")])
        assert rc == 0
        assert (tmp_path / "est_sigma2.csv").exists()
        assert (tmp_path / "est_kcount.csv").exists()

    def test_cir_file_flag(self, tmp_path):
        cir = tmp_path / "taps.txt"
        cir.write_text("1,0\n0.4,0.1\n0.1,-0.2\n")
        rc = cli_main(["--experiment", "ber-vs-blocks", *self.BASE,
                       "--cir-file", str(cir), "--out", str(tmp_path / "c.csv")])
        assert rc == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["--experiment", "nope"])
