"""Experiment harness: configuration, experiments, CSV output and the CLI."""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import despread, detect_sce
from uwbfde.channel import ChannelProfile, generate_cir, synthesize_rx
from uwbfde import da, harness, sce
from uwbfde.cli import build_parser, config_from_args, main as cli_main
from uwbfde.estimators import ml_noise_variance
from uwbfde.fdcore import DivergenceError, random_bpsk, spread, walsh_code_set
from uwbfde.harness import (
    CurveSet,
    ExperimentConfig,
    _ber_trial,
    _new_runners,
    _simulate_blocks,
    run_ber_vs_blocks,
    run_ber_vs_snr,
    run_ber_vs_users,
    run_estimator_curves,
    verify_complexity,
)
from uwbfde.opcount import nominal_cost
from uwbfde.sce import build_mmse_sce, pilot_matrix


# every experiment function, by the name the CLI gives it
EXPERIMENT_FUNCTIONS = {"ber-vs-blocks": run_ber_vs_blocks, "ber-vs-snr": run_ber_vs_snr,
                        "ber-vs-users": run_ber_vs_users, "estimators": run_estimator_curves,
                        "complexity": verify_complexity}

# estimated-input switches that the experiment would ignore, and the flag named
ESTIMATED_FLAG_CASES = [
    (["--experiment", "ber-vs-blocks", "--scheme", "da", "--estimated-sigma2"],
     "--estimated-sigma2"),
    (["--experiment", "ber-vs-snr", "--scheme", "da", "--estimated-k"], "--estimated-k"),
    (["--experiment", "ber-vs-blocks", "--algorithm", "mmse", "--estimated-k"],
     "--estimated-k"),
    (["--experiment", "ber-vs-users", "--scheme", "sce", "--algorithm", "mmse",
      "--estimated-sigma2"], "--estimated-sigma2"),
    (["--experiment", "estimators", "--estimated-sigma2"], "--estimated-sigma2"),
    (["--experiment", "estimators", "--estimated-k"], "--estimated-k"),
    (["--experiment", "complexity", "--estimated-sigma2"], "--estimated-sigma2"),
    (["--experiment", "complexity", "--estimated-k"], "--estimated-k"),
]


def _tiny_config(**overrides):
    base = dict(block_length=8, spreading=2, users=2, cir_taps=3, cp_chips=4,
                snr_db=(12.0,), training_blocks=40, eval_blocks=20, runs=2,
                base_seed=77, decay_rate=0.2, cg_iters=3)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate("ber-vs-blocks")

    def test_users_exceeding_codes(self):
        cfg = _tiny_config(users=3, spreading=2)
        with pytest.raises(ValueError, match="K exceeds Nc"):
            cfg.validate("ber-vs-blocks")

    def test_non_power_of_two_spreading(self):
        with pytest.raises(ValueError, match="power of two"):
            _tiny_config(spreading=3).validate("ber-vs-blocks")

    def test_bad_scheme_and_algorithm(self):
        with pytest.raises(ValueError):
            _tiny_config(scheme="nope").validate("ber-vs-blocks")
        with pytest.raises(ValueError):
            _tiny_config(algorithm="nope").validate("ber-vs-blocks")

    def test_short_prefix_rejected(self):
        # synthesis is circular, so a prefix shorter than the channel memory
        # would be accepted and then silently not simulated
        with pytest.raises(ValueError, match="shorter than the channel memory"):
            _tiny_config(cp_chips=1).validate("ber-vs-blocks")
        _tiny_config(cp_chips=2).validate("ber-vs-blocks")

    @pytest.mark.parametrize("field, value", [
        ("delta_init", 0.0), ("delta_init", -1.0), ("delta_init", np.nan),
        ("mu_w", -1e-3), ("mu_w", np.nan), ("mu_h", -1e-3),
        ("lambda_h", 0.0), ("lambda_h", 1.5), ("lambda_w", -0.5), ("lambda_w", np.nan)])
    def test_unusable_step_parameters_rejected(self, field, value):
        # delta_init = 0 leaves the RLS filters a singular start and nothing
        # to regularize with; a negative delta_init starts them negative
        # definite, a negative step size climbs the error surface, and a
        # forgetting factor above 1 lets past blocks grow without bound
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            _tiny_config(**{field: value}).validate("ber-vs-blocks")

    def test_zero_step_sizes_accepted(self):
        _tiny_config(mu_w=0.0, mu_h=0.0).validate("ber-vs-blocks")

    @pytest.mark.parametrize("run", [run_ber_vs_blocks, run_ber_vs_users])
    def test_single_point_experiment_function_rejects_an_snr_sweep(self, run):
        # both read only the first SNR point; a second one would be written
        # into the CSV header and never run
        with pytest.raises(ValueError, match="--snr-db takes one value"):
            run(_tiny_config(snr_db=(0.0, 16.0)))

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

    def test_sweep_builds_each_adaptive_weight_once(self, monkeypatch):
        # a sweep freezes its runners after training: each adaptive SCE
        # runner builds its equalizer and reads its subspace estimate once,
        # not on every scored block
        calls = {"build_mmse_sce": 0, "subspace_estimate": 0}
        for name in calls:
            def counted(*args, _fn=getattr(harness, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(harness, name, counted)
        cfg = _tiny_config(spreading=4, snr_db=(4.0, 12.0), scheme="sce", runs=2,
                           eval_blocks=10, use_estimated_sigma2=True, use_estimated_k=True)
        run_ber_vs_snr(cfg)
        assert calls == {"build_mmse_sce": 3, "subspace_estimate": 3}

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
            _ber_trial(cfg, [(0, 12.0, 2)], ["da-lms"], [3], curve=True)

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


# 101 of the 360 one-row pilot fits of this sweep are rank deficient
_DEGENERATE = dict(users=1, block_length=4, spreading=2, cir_taps=3, cp_chips=2,
                   snr_db=(0.0, 8.0, 16.0), training_blocks=20, runs=6, base_seed=3)


def _one_row_fits(cfg, point_idx, snr_db, users, runs):
    """Each run's one-row pilot fits at a sweep point, ``None`` where the
    pilot is rank deficient."""
    taps, codes = harness._batch_inputs(cfg, runs)
    rngs = [harness._data_rng(cfg, r, point_idx) for r in runs]
    fits = [[] for _ in runs]
    for blocks, z in harness._received_blocks(users, cfg.block_length, codes, taps,
                                              cfg.sigma2_for(snr_db), rngs,
                                              cfg.training_blocks):
        xdiag = pilot_matrix(spread(blocks[:, 0], codes[0]))
        for row, run_fits in enumerate(fits):
            try:
                run_fits.append(ml_noise_variance(z[row], xdiag[row], cfg.cir_taps)[0])
            except np.linalg.LinAlgError:
                run_fits.append(None)
    return fits


class TestSigma2Sweep:
    def test_degenerate_pilots_are_left_out_of_their_runs(self, monkeypatch):
        cfg = ExperimentConfig(**_DEGENERATE)
        runs = list(range(cfg.runs))
        points = [(idx, snr, 1) for idx, snr in enumerate(cfg.snr_db)]
        expected, skipped, failed_blocks = [[] for _ in runs], 0, 0
        for point in points:
            fits = _one_row_fits(cfg, *point, runs)
            failed_blocks += sum(None in block for block in zip(*fits))
            for row, run_fits in enumerate(fits):
                total, used = 0.0, 0
                for s2 in run_fits:
                    if s2 is None:
                        skipped += 1
                    else:
                        total += s2
                        used += 1
                expected[row].append(total / used)
        assert skipped == 101
        calls = []

        def counting_fit(z, xdiag, num_taps):
            calls.append(np.ndim(z))
            return ml_noise_variance(z, xdiag, num_taps)

        monkeypatch.setattr(harness, "ml_noise_variance", counting_fit)
        assert_array_equal(harness._sigma2_trial(cfg, points, runs)["sigma2"], expected)
        # one batched fit per block; a block with a degenerate pilot is refitted row by row
        assert calls.count(2) == len(points) * cfg.training_blocks
        assert calls.count(1) == failed_blocks * cfg.runs

    def test_run_without_a_usable_pilot_raises_naming_it(self):
        cfg = ExperimentConfig(**{**_DEGENERATE, "training_blocks": 1})
        runs = list(range(2, 10))
        points = [(idx, snr, 1) for idx, snr in enumerate(cfg.snr_db)]
        for point in points:
            dead = [r for r, fits in zip(runs, _one_row_fits(cfg, *point, runs))
                    if fits == [None]]
            if dead:
                break
        assert dead
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"^run {dead[0]}, {point[1]:g} dB SNR, 1 users: "
                                 "every pilot block was rank deficient"):
            harness._sigma2_trial(cfg, points, runs)


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
            errors = {key: np.zeros(cfg.training_blocks, dtype=np.int64) for key in keys}
            _simulate_blocks(cfg, cfg.users, sigma2, taps, codes, runners,
                             np.random.default_rng(6), cfg.training_blocks,
                             errors_out=errors)
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
            return ([("run", np.array(runs))],)

        cfg = _tiny_config(runs=5, workers=3)
        joined = harness._map_runs(cfg, dict, args_for)
        assert list(joined) == ["run"]
        assert_array_equal(joined["run"], [0, 1, 2, 3, 4])
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

    def test_unusable_rls_start_rejected(self, tmp_path, capsys):
        rc = cli_main(["--experiment", "ber-vs-blocks", *self.BASE, "--delta", "0",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: delta_init must be > 0")
        assert not list(tmp_path.iterdir())

    def test_estimated_sweep_same_bytes_for_any_worker_count(self, tmp_path):
        args = ["--experiment", "ber-vs-snr", "--scheme", "sce", "--estimated-sigma2",
                "--estimated-k", "--snr-db", "8,inf", "--block-length", "8",
                "--spreading", "4", "--users", "2", "--cir-length", "3", "--cp-chips", "4",
                "--blocks", "30", "--eval-blocks", "10", "--runs", "3", "--seed", "5"]
        paths = [tmp_path / f"w{workers}.csv" for workers in (1, 3)]
        for workers, path in zip((1, 3), paths):
            assert cli_main([*args, "--workers", str(workers), "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

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

    def test_complexity_check_fails_on_an_add_mismatch(self, monkeypatch, capsys, tmp_path):
        def one_add_too_many(*args, **kwargs):
            mults, adds = nominal_cost(*args, **kwargs)
            return mults, adds + 1

        monkeypatch.setattr(harness, "nominal_cost", one_add_too_many)
        rc = cli_main(["--experiment", "complexity", "--check",
                       "--out", str(tmp_path / "report.txt")])
        assert rc == 1
        text = (tmp_path / "report.txt").read_text()
        assert "all multiply counts match: yes" in text
        assert "all add counts match: NO" in text

    @pytest.mark.parametrize("experiment", ["ber-vs-snr", "ber-vs-users"])
    def test_sweep_without_eval_blocks_rejected(self, experiment, tmp_path, capsys):
        rc = cli_main(["--experiment", experiment, *self.BASE, "--eval-blocks", "0",
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--eval-blocks" in err
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("args, flag", [
        (["--experiment", "ber-vs-blocks", "--check"], "--check"),
        (["--experiment", "ber-vs-snr", "--check"], "--check"),
        (["--experiment", "ber-vs-users", "--check"], "--check"),
        (["--experiment", "estimators", "--check"], "--check"),
        *ESTIMATED_FLAG_CASES,
    ])
    def test_ignored_flag_rejected(self, args, flag, tmp_path, capsys):
        rc = cli_main([*args, *self.BASE, "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, flag", ESTIMATED_FLAG_CASES)
    def test_library_refuses_what_the_cli_refuses(self, args, flag):
        # the experiment function, not the CLI, owns the rule
        cfg = config_from_args(build_parser().parse_args([*args, *self.BASE]))
        with pytest.raises(ValueError, match=flag):
            EXPERIMENT_FUNCTIONS[args[1]](cfg)

    @pytest.mark.parametrize("experiment", ["ber-vs-blocks", "ber-vs-users"])
    def test_single_point_experiment_rejects_an_snr_sweep(self, experiment, tmp_path,
                                                          capsys):
        rc = cli_main(["--experiment", experiment, *self.BASE, "--snr-db", "0,16",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--snr-db" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment", ["ber-vs-blocks", "estimators"])
    def test_benchmark_argv_accepted(self, experiment, tmp_path):
        # the benchmark passes every workload the same flags, --eval-blocks
        # and --scheme/--algorithm/--users included; ber-vs-blocks gets one
        # SNR point and estimators a sweep
        snr_db = {"ber-vs-blocks": "16.0", "estimators": "8,16"}[experiment]
        rc = cli_main(["--experiment", experiment, "--scheme", "both", "--algorithm", "all",
                       "--users", "2", "--spreading", "4", "--block-length", "8",
                       "--cir-length", "3", "--cp-chips", "4", "--snr-db", snr_db,
                       "--blocks", "12", "--eval-blocks", "0", "--runs", "2",
                       "--cg-iters", "3", "--seed", "1", "--workers", "1",
                       "--out", str(tmp_path / "bench.csv")])
        assert rc == 0

    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_flag_defaults_are_the_config_defaults(self, experiment):
        args = build_parser().parse_args(["--experiment", experiment])
        assert config_from_args(args) == ExperimentConfig()

    @pytest.mark.parametrize("flag, name, value", [
        (["--cir-length", "9"], "cir_taps", 9),
        (["--blocks", "7"], "training_blocks", 7),
        (["--seed", "3"], "base_seed", 3),
        (["--delta", "0.5"], "delta_init", 0.5),
        (["--estimated-sigma2"], "use_estimated_sigma2", True),
        (["--estimated-k"], "use_estimated_k", True)])
    def test_renamed_flag_sets_its_field(self, flag, name, value):
        args = build_parser().parse_args(["--experiment", "ber-vs-blocks", *flag])
        assert config_from_args(args) == dataclasses.replace(ExperimentConfig(), **{name: value})

    @staticmethod
    def _assert_cli_import_leaves_out(module):
        code = f"import sys\nimport uwbfde.cli\nsys.exit({module!r} in sys.modules)"
        src = Path(harness.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr or f"importing uwbfde.cli loads {module}"

    def test_import_leaves_the_process_pool_out(self):
        # only a run split over several workers imports concurrent.futures
        self._assert_cli_import_leaves_out("concurrent.futures")

    def test_import_leaves_numpy_random_out(self):
        # numpy loads numpy.random on first use; the first generator of a run
        # pays for it, not every process that starts
        self._assert_cli_import_leaves_out("numpy.random")

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: a fresh interpreter in which
        # every scipy import fails runs both experiment kinds
        tiny = ["--block-length", "8", "--spreading", "2", "--users", "1",
                "--cir-length", "3", "--cp-chips", "2", "--blocks", "4", "--runs", "2"]
        calls = [["--experiment", "estimators", *tiny, "--out", "est.csv"],
                 ["--experiment", "ber-vs-blocks", *tiny, "--out", "blocks.csv"]]
        code = ("import sys\nsys.modules['scipy'] = None\nfrom uwbfde.cli import main\n"
                f"sys.exit(max(main(argv) for argv in {calls!r}))")
        src = Path(harness.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert {p.name for p in tmp_path.iterdir()} == {
            "est_sigma2.csv", "est_kcount.csv", "blocks.csv"}

    @pytest.mark.parametrize("snr", ["nan", "-inf", "8,nan"])
    def test_snr_without_a_noise_variance_rejected(self, snr, tmp_path, capsys):
        rc = cli_main(["--experiment", "ber-vs-blocks", "--algorithm", "mmse", *self.BASE,
                       f"--snr-db={snr}", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SNR ") and "dB" in err
        assert not list(tmp_path.iterdir())

    def test_noiseless_snr_accepted(self, tmp_path):
        out = tmp_path / "x.csv"
        assert cli_main(["--experiment", "ber-vs-blocks", "--algorithm", "mmse", *self.BASE,
                         "--snr-db", "inf", "--out", str(out)]) == 0
        assert out.exists()

    def test_divergence_warns_only_through_its_error_line(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli_main(["--experiment", "ber-vs-blocks", "--scheme", "da",
                           "--algorithm", "lms", "--mu-w", "5", "--block-length", "8",
                           "--spreading", "2", "--users", "2", "--cir-length", "3",
                           "--cp-chips", "4", "--snr-db", "12", "--blocks", "400",
                           "--runs", "2", "--seed", "77", "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("error: run 0, 12 dB SNR, 2 users, da-lms, block 357 of 400: "
                       "adaptive update diverged (non-finite weights)\n")

    def test_divergence_is_a_cli_error(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            rc = cli_main(["--experiment", "ber-vs-blocks", "--scheme", "da",
                           "--algorithm", "lms", "--mu-w", "5", "--block-length", "8",
                           "--spreading", "2", "--users", "2", "--cir-length", "3",
                           "--cp-chips", "4", "--snr-db", "12", "--blocks", "400",
                           "--runs", "2", "--seed", "77", "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert ("error: run 0, 12 dB SNR, 2 users, da-lms, block 357 of 400: "
                "adaptive update diverged") in err
        assert "Traceback" not in err


class TestPilotGate:
    """Only the adaptive SCE steps read the pilot, through the block's normal
    equations, which are formed once per block for all of them."""

    def test_genie_only_run_builds_no_pilot(self, monkeypatch):
        def no_pilot(chips):
            raise AssertionError("pilot spectrum built for a run that reads none")

        monkeypatch.setattr(harness, "pilot_matrix", no_pilot)
        run_ber_vs_blocks(_tiny_config(scheme="sce", algorithm="mmse"))
        run_ber_vs_users(_tiny_config(algorithm="mmse", training_blocks=10, eval_blocks=5))

    def test_adaptive_sce_steps_share_one_pilot_fit_per_block(self, monkeypatch):
        built = []

        class CountingNormal(sce.NormalEquations):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(sce, "NormalEquations", CountingNormal)
        cfg = _tiny_config(scheme="sce", algorithm="all")
        run_ber_vs_blocks(cfg)
        assert len(built) == cfg.training_blocks
        assert all(z.shape == (cfg.runs, cfg.chips_per_block) for z, _, _ in built)


class TestSharedDecision:
    """Runners without state that hold one weight array, the two genies,
    share its decision on each scored block; every other runner is scored
    on its own weights."""

    @staticmethod
    def _record_detections(monkeypatch):
        weights = []

        def recorded(op, w, _detect=da.detect_da):
            weights.append(w)
            return _detect(op, w)

        monkeypatch.setattr(da, "detect_da", recorded)
        return weights

    @pytest.mark.parametrize("curve", [True, False])
    def test_both_genies_detect_once_per_scored_block(self, monkeypatch, curve):
        detected = self._record_detections(monkeypatch)
        cfg = _tiny_config(spreading=4, algorithm="mmse", training_blocks=20, eval_blocks=10)
        errors = _ber_trial(cfg, [(0, 4.0, 3), (1, 12.0, 2)], cfg.algo_keys(), [0, 1],
                            curve=curve)
        assert len(detected) == (cfg.training_blocks if curve else cfg.eval_blocks)
        assert errors["sce-mmse"].any()
        assert_array_equal(errors["sce-mmse"], errors["da-mmse"])

    def test_frozen_runners_are_scored_on_their_own_weights(self, monkeypatch):
        detected = self._record_detections(monkeypatch)
        cfg = _tiny_config(spreading=4, eval_blocks=10)
        keys, points, runs = cfg.algo_keys(), [(0, 4.0, 3), (1, 12.0, 2)], [0, 1]
        errors = _ber_trial(cfg, points, keys, runs)
        # six frozen adaptive runners and the genies' one array, on every scored block
        assert len(detected) == 7 * cfg.eval_blocks
        for block in range(cfg.eval_blocks):
            assert len({id(w) for w in detected[7 * block:7 * block + 7]}) == 7
        for key in keys:
            assert_array_equal(errors[key], _ber_trial(cfg, points, [key], runs)[key])


class TestSceKernel:
    """An adaptive SCE runner decides through ``da.detect_da`` on the weight
    vector ``conj(d) * despread_bins``; the paper's receiver, per-bin
    equalization then time-domain despreading (``oracles.detect_sce``), is
    the reference."""

    CFG = _tiny_config(block_length=8, spreading=4, users=3, cir_taps=3)

    def _runner(self, key, users, sigma2, h_hat):
        codes = walsh_code_set(self.CFG.spreading)
        runner = _new_runners(self.CFG, users, sigma2, np.asarray(h_hat), codes, [key])[key]
        runner.state.h_hat[...] = h_hat
        return runner, codes

    def _block(self, z):
        return harness._Block(z, None, None, da.RxOperator(z, self.CFG.block_length))

    @pytest.mark.parametrize("key", ["sce-lms", "sce-rls", "sce-cg"])
    def test_weights_decide_as_equalizer_then_despreading(self, key):
        rng = np.random.default_rng(31)
        rows, m, nc = 5, self.CFG.chips_per_block, self.CFG.spreading
        h_hat = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        h_hat[2] = [1.0, -1.0, 0.0]     # bin 0 dead, and with sigma2 = 0 zero-forced
        users = np.array([1, 2, 3, 4, 2])
        sigma2 = np.array([0.5, 0.1, 0.0, 1e-3, 2.0])
        runner, codes = self._runner(key, users, sigma2, h_hat)
        det = build_mmse_sce(h_hat, users, sigma2, nc, m)
        assert det[2, 0] == 0
        for _ in range(10):
            z = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
            rx = self._block(z)
            assert_array_equal(runner.detect(rx), detect_sce(z, det, codes[0]))
            soft = despread(np.fft.ifft(np.conj(det) * z, norm="ortho"), codes[0])
            assert_allclose(rx.op.matvec(runner.weights()), soft, rtol=0, atol=1e-12)

    def test_noiseless_single_user_perfect_estimate(self):
        rng = np.random.default_rng(19)
        taps = generate_cir(ChannelProfile(3, 0.2, seed=20))
        runner, codes = self._runner("sce-lms", 1, 0.0, taps)
        for _ in range(20):
            b = random_bpsk(rng, self.CFG.block_length)
            z = synthesize_rx(b[None, :], codes, taps, 0.0, rng)
            assert_array_equal(runner.detect(self._block(z)), b)

    def test_zero_input_resolves_positive(self):
        runner, _ = self._runner("sce-rls", 2, 0.1, np.ones((2, 3), complex))
        z = np.zeros((2, self.CFG.chips_per_block), complex)
        assert_array_equal(runner.detect(self._block(z)),
                           np.ones((2, self.CFG.block_length)))
