"""Experiment harness: configuration, experiments, CSV output and the CLI."""

import dataclasses
import gc
import logging
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
from uwbfde.estimators import GroupCovariance, ml_noise_variance
from uwbfde.fdcore import DivergenceError, random_bpsk, spread, tap_spectrum, walsh_code_set
from uwbfde.harness import (
    CurveSet,
    ExperimentConfig,
    _Runners,
    _ber_trial,
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


def _count_calls(monkeypatch, *names):
    """Count the calls of each named ``harness`` binding; ``{name: count}``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(harness, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(harness, name, counted)
    return calls


def _tiny_config(**overrides):
    base = dict(block_length=8, spreading=2, users=2, cir_taps=3, cp_chips=4,
                snr_db=(12.0,), training_blocks=40, eval_blocks=20, runs=2,
                base_seed=77, decay_rate=0.2, cg_iters=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def _chunk(cfg, runs, points, taps, rngs):
    """A :class:`harness._Rows` chunk of one row per point, on ``taps`` ``(R, L)``."""
    return harness._Rows(list(runs), points, taps, tap_spectrum(taps, cfg.chips_per_block),
                         walsh_code_set(cfg.spreading), rngs)


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
        # a sweep freezes its runners after training: the adaptive SCE
        # runners build their equalizers once, in one stacked build on the
        # trial's one subspace estimate, not on every scored block
        calls = _count_calls(monkeypatch, "build_mmse_sce", "subspace_estimate")
        cfg = _tiny_config(spreading=4, snr_db=(4.0, 12.0), scheme="sce", runs=2,
                           eval_blocks=10, use_estimated_sigma2=True, use_estimated_k=True)
        run_ber_vs_snr(cfg)
        assert calls == {"build_mmse_sce": 1, "subspace_estimate": 1}

    def test_curve_estimates_once_per_block(self, monkeypatch):
        # the three adaptive SCE runners of a training curve read one
        # covariance, folded and decomposed once per block
        calls = _count_calls(monkeypatch, "update_covariance", "subspace_estimate")
        cfg = _tiny_config(spreading=4, scheme="sce", use_estimated_sigma2=True,
                           use_estimated_k=True)
        run_ber_vs_blocks(cfg)
        assert calls == {"update_covariance": cfg.training_blocks,
                         "subspace_estimate": cfg.training_blocks}

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

    @pytest.mark.parametrize("max_rows, workers", [(1, 1), (2, 1), (2, 2), (1, 3)])
    def test_divergence_across_chunks_names_lowest_run_at_first_point(
            self, monkeypatch, max_rows, workers):
        # run 2 diverges at 8 dB (block 383) and 16 dB, not at 12 dB; run 3
        # diverges earlier (block 331) at every point. Run 2's rows straddle
        # a chunk boundary, and its first diverged point raises.
        cfg = _tiny_config(scheme="da", algorithm="lms", mu_w=5.0, training_blocks=400,
                           eval_blocks=5, runs=4, workers=workers)
        monkeypatch.setattr(harness, "_MAX_ROWS", max_rows)
        points = [(0, 12.0, 2), (1, 8.0, 2), (2, 16.0, 2)]
        with np.errstate(all="ignore"), pytest.raises(
                DivergenceError, match=r"^run 2, 8 dB SNR, 2 users, da-lms, block 383 of 400"):
            _ber_trial(cfg, points, ["da-lms"], [2, 3])

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


class TestNoiselessDaRls:
    """At K < nc the data fill only K of each symbol group's nc directions,
    and on a noiseless channel nothing else loads the rest but DA-RLS's
    decaying ``delta`` loading. The step keeps that loading above round-off
    of each group's trace, so the noiseless point decides as well as a
    nearly noiseless one, and no block needs the singular-block fallback."""

    @pytest.mark.parametrize("overrides", [dict(users=1), dict(users=3), dict(users=8),
                                           dict(users=3, delta_init=1e-8),
                                           dict(users=3, lambda_w=1.0)],
                             ids=["k1", "k3", "k8", "delta_1e-8", "lambda_1"])
    def test_noiseless_point_no_worse_than_120_db(self, overrides, caplog):
        cfg = ExperimentConfig(block_length=8, spreading=8, cir_taps=5, cp_chips=5,
                               snr_db=(np.inf, 120.0, 16.0), training_blocks=400,
                               eval_blocks=100, runs=4, scheme="da", algorithm="rls",
                               **overrides)
        with caplog.at_level(logging.DEBUG, logger="uwbfde.da"):
            ber = run_ber_vs_snr(cfg).columns["ber_da-rls"]
        assert ber[0] <= ber[1]
        assert [record for record in caplog.records if record.name == "uwbfde.da"] == []


class TestEdgeSettings:
    """A fast check of all eight detectors on the noiseless point and edge
    settings of a small scenario (n=16, nc=4, L=9, 2 runs, 300 training
    blocks): K = 1, K = nc (every Walsh code spread), ``lambda_w`` = 1, a
    small ``delta`` and one CG iteration. Every BER is finite and no run
    diverges; no block is regularized, at finite SNR or at inf. On each of
    these settings DA-RLS, DA-CG and both genies read about 0 at 120 dB, so
    they must read no higher at inf. DA-LMS is still converging at 300
    blocks, and SCE-LMS and SCE-CG may read higher at inf than at 16 dB, as
    expected: the MMSE weights built on their poor tap estimates tend to
    zero forcing as the noise vanishes (ROADMAP item 13). So those three are
    held to the first rule only."""

    @pytest.mark.parametrize("overrides", [dict(users=1), dict(users=4), dict(lambda_w=1.0),
                                           dict(delta_init=1e-8), dict(cg_iters=1)],
                             ids=["k1", "k_nc", "lambda_1", "delta_1e-8", "cg_1"])
    def test_noiseless_and_edge_settings(self, overrides, caplog):
        cfg = ExperimentConfig(block_length=16, spreading=4, cir_taps=9,
                               snr_db=(np.inf, 120.0, 16.0), training_blocks=300,
                               eval_blocks=100, runs=2, **overrides)
        with caplog.at_level(logging.WARNING, logger="uwbfde"):
            columns = run_ber_vs_snr(cfg).columns
        for key in cfg.algo_keys():
            assert np.all(np.isfinite(columns[f"ber_{key}"])), key
        for key in ("da-rls", "da-cg", "sce-mmse", "da-mmse"):
            ber = columns[f"ber_{key}"]
            assert ber[0] <= ber[1], key
        assert [r.getMessage() for r in caplog.records if "regularizing" in r.getMessage()] == []


# 101 of the 360 one-row pilot fits of this sweep are rank deficient
_DEGENERATE = dict(users=1, block_length=4, spreading=2, cir_taps=3, cp_chips=2,
                   snr_db=(0.0, 8.0, 16.0), training_blocks=20, runs=6, base_seed=3)


def _one_row_fits(cfg, point_idx, snr_db, users, runs):
    """Each run's one-row pilot fits at a sweep point, ``None`` where the
    pilot is rank deficient."""
    taps, _ = harness._batch_inputs(cfg, runs)
    rows = _chunk(cfg, runs, [(point_idx, snr_db, users)] * len(runs), taps,
                  [harness._data_rng(cfg, r, point_idx) for r in runs])
    fits = [[] for _ in runs]
    for blocks, z in harness._received_blocks(rows, cfg.block_length, cfg.training_blocks):
        xdiag = pilot_matrix(spread(blocks[:, 0], rows.codes[0]))
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
        expected, skipped, row_fits = [[] for _ in runs], 0, {}
        for col, point in enumerate(points):
            fits = _one_row_fits(cfg, *point, runs)
            for row, run_fits in enumerate(fits):
                row_fits[row * len(points) + col] = run_fits     # (run, point) rows, runs outermost
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
        monkeypatch.setattr(harness, "_MAX_ROWS", 7)      # 18 rows in chunks of 6
        assert_array_equal(harness._sigma2_trial(cfg, points, runs)["sigma2"], expected)
        # one batched fit per chunk and block; a block with a degenerate pilot
        # in its chunk is refitted row by row
        chunks = [range(start, start + 6) for start in (0, 6, 12)]
        refits = sum(len(chunk) * sum(None in block for block in zip(*(row_fits[row]
                                                                         for row in chunk)))
                     for chunk in chunks)
        assert calls.count(2) == len(chunks) * cfg.training_blocks
        assert calls.count(1) == refits

    @staticmethod
    def _first_dead_row(cfg, points, runs):
        """The lowest (run, point) row, runs outermost, whose every pilot
        block is rank deficient: ``(row, run, snr_db)``."""
        dead = sorted((i * len(points) + col, r, point[1])
                      for col, point in enumerate(points)
                      for i, (r, fits) in enumerate(zip(runs, _one_row_fits(cfg, *point, runs)))
                      if fits == [None])
        assert dead
        return dead[0]

    def test_run_without_a_usable_pilot_raises_naming_it(self):
        cfg = ExperimentConfig(**{**_DEGENERATE, "training_blocks": 1})
        runs = list(range(2, 10))
        points = [(idx, snr, 1) for idx, snr in enumerate(cfg.snr_db)]
        _, run, snr_db = self._first_dead_row(cfg, points, runs)
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"^run {run}, {snr_db:g} dB SNR, 1 users: "
                                 "every pilot block was rank deficient"):
            harness._sigma2_trial(cfg, points, runs)

    @pytest.mark.parametrize("max_rows", [1, 2])
    def test_unusable_pilot_row_in_a_later_chunk_is_named(self, monkeypatch, max_rows):
        cfg = ExperimentConfig(**{**_DEGENERATE, "training_blocks": 1})
        runs = list(range(2, 10))
        points = [(idx, snr, 1) for idx, snr in enumerate(cfg.snr_db)]
        row, run, snr_db = self._first_dead_row(cfg, points, runs)
        monkeypatch.setattr(harness, "_MAX_ROWS", max_rows)
        assert row not in harness._plan_chunks(len(runs) * len(points), 1)[0][0]
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"^run {run}, {snr_db:g} dB SNR, 1 users: "
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
        taps = generate_cir(ChannelProfile(cfg.cir_taps, cfg.decay_rate, seed=5))[None]
        inputs = []

        def recording_build(h_hat, k_est, sigma2_est, nc, m):
            assert h_hat.shape[0] == len(keys)     # one build on the runners' stack
            inputs.append((k_est.tolist(), sigma2_est.tolist()))
            return build_mmse_sce(h_hat, k_est, sigma2_est, nc, m)

        monkeypatch.setattr(harness, "build_mmse_sce", recording_build)

        def one_row(users, snr_db):
            return _chunk(cfg, [0], [(0, snr_db, users)], taps, [np.random.default_rng(6)])

        def equalizer_inputs(users_seen, snr_db_seen):
            # the runners read users_seen and snr_db_seen off their chunk;
            # the blocks are drawn on the true ones
            inputs.clear()
            runners = _Runners(cfg, one_row(users_seen, snr_db_seen), keys)
            # one error tally per weight slot, as _ber_rows holds them
            errors = np.zeros((len(runners.weights), 1, cfg.training_blocks), dtype=np.int64)
            _simulate_blocks(cfg, one_row(cfg.users, cfg.snr_db[0]), runners,
                             cfg.training_blocks, errors_out=errors,
                             cov=GroupCovariance.empty(cfg.block_length, cfg.spreading, (1,)))
            return list(inputs)

        truth = equalizer_inputs(cfg.users, cfg.snr_db[0])
        assert len(truth) == cfg.training_blocks
        assert truth == equalizer_inputs(3, -17.0)     # sigma2 about 50


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

    def test_map_rows_chunks_contiguously_in_row_order(self, monkeypatch):
        monkeypatch.setattr(harness, "_MAX_ROWS", 24)
        # 5 rows over 3 workers: one chunk each, 0-1, 2-3 and 4, as runs were sliced
        assert harness._plan_chunks(5, 3) == [[range(0, 2)], [range(2, 4)], [range(4, 5)]]
        # 100 rows on one worker: five balanced chunks of at most 24
        assert harness._plan_chunks(100, 1) == [[range(i, i + 20) for i in range(0, 100, 20)]]
        monkeypatch.setattr(harness, "_MAX_ROWS", 2)
        assert harness._plan_chunks(10, 3) == [[range(0, 2), range(2, 4)],
                                               [range(4, 6), range(6, 8)], [range(8, 10)]]
        chunks = []

        def echo(cfg, rows, tag):
            chunks.append((rows.runs, [point[0] for point in rows.points]))
            return {"run": np.array(rows.runs), "tap": rows.taps[:, 0],
                    "point": np.array([f"{tag}{point[0]}" for point in rows.points])}

        cfg = _tiny_config(runs=3, workers=1)
        # a trial without rows (no point fits the config) runs no chunk
        assert harness._map_rows(cfg, echo, [], [4, 6, 7], "p") == {}
        assert chunks == []
        joined = harness._map_rows(cfg, echo, [(0, 12.0, 2), (1, 8.0, 1)], [4, 6, 7], "p")
        assert chunks == [([4, 4], [0, 1]), ([6, 6], [0, 1]), ([7, 7], [0, 1])]
        # results come back (runs, points, ...)
        assert_array_equal(joined["run"], [[4, 4], [6, 6], [7, 7]])
        assert_array_equal(joined["point"], [["p0", "p1"]] * 3)
        taps, _ = harness._batch_inputs(cfg, [4, 6, 7])
        assert_array_equal(joined["tap"], np.repeat(taps[:, :1], 2, axis=1))

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

    def test_estimators_without_a_kcount_user_count_refused(self, tmp_path, capsys):
        # no kcount user count (2, 3 or 4) fits nc = 1, so the kcount file
        # would hold only its block column; the refusal names --spreading,
        # also for the default three users, which exceed nc too
        for users in ("1", "3"):
            args = ["--experiment", "estimators", "--spreading", "1", "--users", users,
                    "--block-length", "16", "--cir-length", "3", "--cp-chips", "2",
                    "--blocks", "5", "--runs", "2"]
            with pytest.raises(ValueError, match="^--spreading 1 "):
                run_estimator_curves(config_from_args(build_parser().parse_args(args)))
            assert cli_main([*args, "--out", str(tmp_path / "est.csv")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: --spreading 1 ") and err.count("\n") == 1
            assert not list(tmp_path.iterdir())

    def test_cir_file_flag(self, tmp_path):
        cir = tmp_path / "taps.txt"
        cir.write_text("1,0\n0.4,0.1\n0.1,-0.2\n")
        rc = cli_main(["--experiment", "ber-vs-blocks", *self.BASE,
                       "--cir-file", str(cir), "--out", str(tmp_path / "c.csv")])
        assert rc == 0

    def test_cir_file_without_energy_rejected(self, tmp_path, capsys):
        # the first --cir-length taps are all zero: no genie over a dead
        # channel, and no infinite genie-input user count
        cir = tmp_path / "taps.txt"
        cir.write_text("0,0\n0,0\n0,0\n1,0\n")
        rc = cli_main(["--experiment", "estimators", *self.BASE, "--cir-file", str(cir),
                       "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {cir}: no energy in the first 3 taps")
        assert list(tmp_path.iterdir()) == [cir]

    @pytest.mark.parametrize("experiment, taps", [("ber-vs-blocks", 17), ("ber-vs-snr", 20),
                                                  ("ber-vs-users", 17), ("estimators", 16)])
    def test_channel_longer_than_the_block_rejected(self, experiment, taps, tmp_path, capsys):
        # 4 symbols of 4 chips hold at most 16 taps, and the pilot fit fewer
        args = ["--experiment", experiment, "--block-length", "4", "--spreading", "4",
                "--cir-length", str(taps), "--cp-chips", str(taps - 1), "--runs", "1",
                "--blocks", "20", "--eval-blocks", "5"]
        with pytest.raises(ValueError, match=f"^--cir-length {taps} "):
            EXPERIMENT_FUNCTIONS[experiment](config_from_args(build_parser().parse_args(args)))
        assert cli_main([*args, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --cir-length {taps} ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_channel_as_long_as_the_block_runs(self, tmp_path):
        args = ["--block-length", "4", "--spreading", "4", "--cir-length", "16",
                "--cp-chips", "15", "--runs", "1", "--blocks", "20"]
        assert cli_main(["--experiment", "ber-vs-blocks", *args,
                         "--out", str(tmp_path / "x.csv")]) == 0
        # the complexity model aliases a channel longer than the block
        assert cli_main(["--experiment", "complexity", *args[:-4],
                         "--out", str(tmp_path / "c.txt")]) == 0

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
    def _assert_import_leaves_out(*prefixes, module="uwbfde.cli"):
        # a fresh interpreter imports ``module`` and exits with the names it
        # loaded that start with one of ``prefixes``
        code = (f"import sys\nimport {module}\nsys.exit(sorted(name for name in sys.modules "
                f"if name.startswith({prefixes!r})) or None)")
        src = Path(harness.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"importing {module} loads {proc.stderr}"

    def test_package_import_loads_no_submodule_and_no_numpy(self):
        # callers import the submodules; the package namespace re-exports none
        self._assert_import_leaves_out("uwbfde.", "numpy", module="uwbfde")

    def test_import_leaves_the_process_pool_out(self):
        # only a run split over several workers imports concurrent.futures
        self._assert_import_leaves_out("concurrent.futures")

    def test_import_leaves_numpy_random_out(self):
        # numpy loads numpy.random on first use; the first generator of a run
        # pays for it, not every process that starts
        self._assert_import_leaves_out("numpy.random")

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
        # one call per scored block, on the six frozen adaptive runners' and
        # the genies' one array, each in a slot of its own
        assert len(detected) == cfg.eval_blocks
        for w in detected:
            assert w.shape[0] == 7
            assert len({w[slot].tobytes() for slot in range(7)}) == 7
        for key in keys:
            assert_array_equal(errors[key], _ber_trial(cfg, points, [key], runs)[key])

    @pytest.mark.parametrize("estimated", [False, True])
    def test_freeze_builds_each_sce_slot_as_its_runner_alone(self, monkeypatch, estimated):
        # the freeze's one stacked build leaves each adaptive SCE slot bitwise
        # equal to that runner's own build, on its taps, users and variances
        builds = []

        def recording_build(h_hat, k_used, sigma2, nc, m):
            builds.append((h_hat.copy(), k_used, sigma2))
            return build_mmse_sce(h_hat, k_used, sigma2, nc, m)

        monkeypatch.setattr(harness, "build_mmse_sce", recording_build)
        detected = self._record_detections(monkeypatch)
        cfg = _tiny_config(spreading=4, eval_blocks=3, use_estimated_sigma2=estimated,
                           use_estimated_k=estimated)
        points, runs = [(0, 4.0, 3), (1, 12.0, 2), (2, np.inf, 1)], [0, 1]
        _ber_trial(cfg, points, cfg.algo_keys(), runs)
        [(taps, k_used, sigma2)] = builds
        frozen = detected[0]
        assert all(np.array_equal(w, frozen) for w in detected)
        if not estimated:
            assert_array_equal(k_used, [3, 2, 1] * 2)
            assert_array_equal(sigma2, [cfg.sigma2_for(snr) for _, snr, _ in points] * 2)
        nc, m = cfg.spreading, cfg.chips_per_block
        despread_bins = np.conj(np.fft.fft(walsh_code_set(nc)[0], m)) / np.sqrt(nc)
        for slot, key in enumerate(["sce-lms", "sce-rls", "sce-cg"]):
            builds.clear()
            _ber_trial(cfg, points, [key], runs)      # the runner alone
            [(h_hat, _, _)] = builds
            assert_array_equal(h_hat[0], taps[slot])
            alone = np.conj(build_mmse_sce(h_hat[0], k_used, sigma2, nc, m)) * despread_bins
            assert_array_equal(frozen[slot], alone)


class TestRunnerSet:
    """A chunk's adaptive states are built once, with their weight buffer;
    the block loop steps each by key, and no state holds a reference back
    to its set."""

    @pytest.mark.parametrize("curve", [True, False])
    def test_each_adaptive_step_runs_once_per_block(self, monkeypatch, curve):
        # the table's steps look these module functions up at call time, and
        # the benchmark's tracer times each detector's update through them
        calls = {}
        for key, algo in harness._ALGORITHMS.items():
            if algo.step is not None:
                module = sce if algo.scheme == "sce" else da
                name = f"{algo.scheme}_{algo.kind}_step"
                def counted(*args, _fn=getattr(module, name), _key=key):
                    calls[_key] = calls.get(_key, 0) + 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
        cfg = _tiny_config(spreading=4, training_blocks=12, eval_blocks=5)
        _ber_trial(cfg, [(0, 4.0, 3), (1, 12.0, 2)], cfg.algo_keys(), [0, 1], curve=curve)
        # a sweep's states are dropped at the freeze, so only training steps
        assert calls == dict.fromkeys(["sce-lms", "sce-rls", "sce-cg", "da-lms", "da-rls",
                                       "da-cg"], cfg.training_blocks)

    def test_trials_leave_no_cyclic_garbage(self):
        # a reference cycle through the runners outlives its chunk until the
        # collector runs, which raises the benchmark's peak memory
        cfg = _tiny_config(spreading=4, training_blocks=20, eval_blocks=5,
                           use_estimated_sigma2=True, use_estimated_k=True)
        points = [(0, 4.0, 3), (1, 12.0, 2)]
        gc.collect()
        gc.disable()
        try:
            for curve in (False, True):
                _ber_trial(cfg, points[:1] if curve else points, cfg.algo_keys(), [0, 1],
                           curve=curve)
                assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("curve", [True, False])
    def test_results_do_not_depend_on_key_order(self, curve):
        # the slots follow the table, whatever order the keys come in
        cfg = _tiny_config(spreading=4, training_blocks=20, eval_blocks=5)
        points = [(0, 4.0, 3)] if curve else [(0, 4.0, 3), (1, 12.0, 2)]
        keys = cfg.algo_keys()
        assert len(keys) == 8
        forward = _ber_trial(cfg, points, keys, [0, 1], curve=curve)
        backward = _ber_trial(cfg, points, keys[::-1], [0, 1], curve=curve)
        for key in keys:
            assert_array_equal(backward[key], forward[key])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_adaptive_states_live_in_the_set_storage(self, reverse):
        cfg = _tiny_config(spreading=4)
        keys = cfg.algo_keys()[::-1] if reverse else cfg.algo_keys()
        taps = generate_cir(ChannelProfile(cfg.cir_taps, cfg.decay_rate, seed=5))[None]
        runners = _Runners(cfg, _chunk(cfg, [0], [(0, 12.0, 2)], taps, [None]), keys)
        assert runners.slot == {"sce-lms": 0, "sce-rls": 1, "sce-cg": 2, "da-lms": 3,
                                "da-rls": 4, "da-cg": 5, "sce-mmse": 6, "da-mmse": 6}
        assert sorted(runners) == sorted(key for key in keys if not key.endswith("-mmse"))
        for key, state in runners.items():
            at = runners.slot[key]
            if harness._ALGORITHMS[key].scheme == "sce":
                assert np.shares_memory(state.h_hat, runners.taps[at])
            else:
                assert np.shares_memory(state.w_hat, runners.weights[at])


class TestSceKernel:
    """An adaptive SCE detector decides through ``da.detect_da`` on the
    weight vector ``conj(d) * despread_bins``; the paper's receiver, per-bin
    equalization then time-domain despreading (``oracles.detect_sce``), is
    the reference."""

    CFG = _tiny_config(block_length=8, spreading=4, users=3, cir_taps=3)

    def _weights(self, key, points, h_hat):
        """The ``(R, m)`` weights that the set of one row per ``(point_idx,
        snr_db, users)`` point builds for ``key`` on its state's ``(R, L)``
        channel estimate ``h_hat``, and the rows; it draws no block."""
        rows = _chunk(self.CFG, range(len(points)), points, np.asarray(h_hat), None)
        runners = _Runners(self.CFG, rows, [key])
        runners[key].h_hat[...] = h_hat
        runners.equalize(None)
        return runners.weights[runners.slot[key]], rows

    def _op(self, z):
        return da.RxOperator(z, self.CFG.block_length)

    @pytest.mark.parametrize("key", ["sce-lms", "sce-rls", "sce-cg"])
    def test_weights_decide_as_equalizer_then_despreading(self, key):
        rng = np.random.default_rng(31)
        rows, m, nc = 5, self.CFG.chips_per_block, self.CFG.spreading
        h_hat = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        h_hat[2] = [1.0, -1.0, 0.0]     # bin 0 dead, and with sigma2 = 0 zero-forced
        users = [1, 2, 3, 4, 2]
        snr_db = [3.0, 10.0, np.inf, 30.0, -3.0]   # sigma2 about 0.5, 0.1, 0, 1e-3 and 2
        weights, chunk = self._weights(key, [(0, s, k) for k, s in zip(users, snr_db)], h_hat)
        codes = chunk.codes
        det = build_mmse_sce(h_hat, chunk.users, chunk.sigma2, nc, m)
        assert chunk.sigma2[2] == 0 and det[2, 0] == 0
        for _ in range(10):
            z = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
            op = self._op(z)
            assert_array_equal(da.detect_da(op, weights), detect_sce(z, det, codes[0]))
            soft = despread(np.fft.ifft(np.conj(det) * z, norm="ortho"), codes[0])
            assert_allclose(op.matvec(weights), soft, rtol=0, atol=1e-12)

    def test_noiseless_single_user_perfect_estimate(self):
        rng = np.random.default_rng(19)
        taps = generate_cir(ChannelProfile(3, 0.2, seed=20))
        weights, chunk = self._weights("sce-lms", [(0, np.inf, 1)], taps[None])
        for _ in range(20):
            b = random_bpsk(rng, self.CFG.block_length)
            z = synthesize_rx(b[None, :], chunk.codes, taps, 0.0, rng)
            assert_array_equal(da.detect_da(self._op(z[None]), weights), b[None])

    def test_zero_input_resolves_positive(self):
        weights, _ = self._weights("sce-rls", [(0, 10.0, 2)] * 2, np.ones((2, 3), complex))
        z = np.zeros((2, self.CFG.chips_per_block), complex)
        assert_array_equal(da.detect_da(self._op(z), weights),
                           np.ones((2, self.CFG.block_length)))
