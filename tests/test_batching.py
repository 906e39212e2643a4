"""Batched runs: synthesis, the six adaptive steps, both genie builds, both
detectors and the estimators advanced on an ``(R, ...)`` run axis equal their
row-by-row calls without the axis, bitwise; so do a steady-state sweep's
(run, point) rows against one call per pair."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.linalg import toeplitz

from oracles import build_mmse_sce_exact, detect_sce, detect_sce_exact, received_blocks
from uwbfde import da, fdcore, sce
from uwbfde.channel import ChannelProfile, generate_cir, synthesize_rx
from uwbfde.harness import ExperimentConfig, _ber_trial, _received_blocks
from uwbfde.estimators import (
    GroupCovariance,
    estimate_user_count,
    ml_noise_variance,
    subspace_estimate,
    update_covariance,
)

RUNS, N, NC, TAPS, USERS = 4, 8, 4, 5, 2
M = N * NC
CODES = fdcore.walsh_code_set(NC)

SCE_STATES = {
    "lms": lambda batch: sce.new_lms_state(TAPS, 0.05, batch=batch),
    "rls": lambda batch: sce.new_rls_state(TAPS, 0.9, 1e-2, batch=batch),
    "cg": lambda batch: sce.new_cg_state(TAPS, 3, batch=batch),
}
SCE_STEPS = {"lms": sce.sce_lms_step, "rls": sce.sce_rls_step, "cg": sce.sce_cg_step}
DA_STATES = {
    "lms": lambda batch: da.new_lms_state(M, 0.05, batch=batch),
    "rls": lambda batch: da.new_rls_state(N, NC, 0.9, 1e-2, batch=batch),
    "cg": lambda batch: da.new_cg_state(M, 3, batch=batch),
}
DA_STEPS = {"lms": da.da_lms_step, "rls": da.da_rls_step, "cg": da.da_cg_step}


def _channels(seed):
    return np.stack([generate_cir(ChannelProfile(TAPS, 0.2, seed=[seed, r]))
                     for r in range(RUNS)])


def _blocks(taps, count, seed, sigma2=0.05):
    """Yield ``count`` batched ``(z, xdiag, desired)`` blocks, one generator per run."""
    rngs = [np.random.default_rng([seed, r]) for r in range(RUNS)]
    for _ in range(count):
        bits = np.stack([fdcore.random_bpsk(g, USERS * N) for g in rngs])
        bits = bits.reshape(RUNS, USERS, N)
        z = synthesize_rx(bits, CODES, taps, sigma2, rngs)
        xdiag = sce.pilot_matrix(fdcore.spread(bits[:, 0], CODES[0]))
        yield z, xdiag, bits[:, 0]


def _rngs(seed):
    return [np.random.default_rng([seed, r]) for r in range(RUNS)]


def _assert_rows_equal(batched, rows):
    assert_array_equal(batched, np.stack(rows))


def test_synthesis_rows_equal_single_run_calls():
    taps = _channels(1)
    rngs = [np.random.default_rng([2, r]) for r in range(RUNS)]
    bits = np.stack([fdcore.random_bpsk(g, USERS * N) for g in rngs]).reshape(RUNS, USERS, N)
    z = synthesize_rx(bits, CODES, taps, 0.1, rngs)
    singles = [np.random.default_rng([2, r]) for r in range(RUNS)]
    for g in singles:
        g.integers(0, 2, USERS * N)       # the same bit draws, then the noise
    rows = [synthesize_rx(bits[r], CODES, taps[r], 0.1, singles[r]) for r in range(RUNS)]
    _assert_rows_equal(z, rows)


# n = 5 with 1-3 users: odd and even bit counts in one batch, and one noiseless row
SOURCE_N, SOURCE_USERS, SOURCE_SIGMA2 = 5, [1, 2, 3, 2], [0.1, 0.0, 0.05, 0.2]


@pytest.mark.parametrize("drawn_only", [0, 3])
def test_block_source_matches_the_row_by_row_oracle(drawn_only):
    # blocks that are only drawn leave every generator where synthesis would
    taps = _channels(17)
    expected = list(received_blocks(SOURCE_USERS, SOURCE_N, CODES, taps, SOURCE_SIGMA2,
                                    _rngs(17), drawn_only + 4))[drawn_only:]
    rngs = _rngs(17)
    assert list(_received_blocks(SOURCE_USERS, SOURCE_N, CODES, taps, SOURCE_SIGMA2, rngs,
                                 drawn_only, synthesize=False)) == []
    got = list(_received_blocks(SOURCE_USERS, SOURCE_N, CODES, taps, SOURCE_SIGMA2, rngs, 4))
    for (blocks, z), (symbols, z_ref) in zip(got, expected, strict=True):
        assert_array_equal(z, z_ref)
        for row, users, ref in zip(blocks, SOURCE_USERS, symbols):
            assert_array_equal(row[:users], ref)
            assert not row[users:].any()


@pytest.mark.parametrize("n", [4, 5])
def test_block_source_on_mixed_generators_matches_the_oracle(n):
    # raw-word rows (even counts on half-word generators) share one buffer;
    # an MT19937 row and odd counts draw with integers, in the same batch
    kinds = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]

    def gens():
        return [np.random.Generator(kind(19 + r)) for r, kind in enumerate(kinds)]

    taps = _channels(19)
    expected = list(received_blocks(SOURCE_USERS, n, CODES, taps, SOURCE_SIGMA2, gens(), 5))
    rngs = gens()
    assert list(_received_blocks(SOURCE_USERS, n, CODES, taps, SOURCE_SIGMA2, rngs, 2,
                                 synthesize=False)) == []
    got = list(_received_blocks(SOURCE_USERS, n, CODES, taps, SOURCE_SIGMA2, rngs, 3,
                                spectrum=fdcore.tap_spectrum(taps, n * NC)))
    for (blocks, z), (symbols, z_ref) in zip(got, expected[2:], strict=True):
        assert_array_equal(z, z_ref)
        for row, users, ref in zip(blocks, SOURCE_USERS, symbols):
            assert_array_equal(row[:users], ref)
            assert not row[users:].any()


@pytest.mark.parametrize("users", [1, 2])
def test_block_source_with_one_generator_matches_the_oracle(users):
    taps = _channels(18)[0]
    expected = list(received_blocks([users], SOURCE_N, CODES, taps[None], [0.1],
                                    [np.random.default_rng(18)], 5))[2:]
    rng = np.random.default_rng(18)
    assert list(_received_blocks(users, SOURCE_N, CODES, taps, 0.1, rng, 2,
                                 synthesize=False)) == []
    got = list(_received_blocks(users, SOURCE_N, CODES, taps, 0.1, rng, 3))
    for (blocks, z), (symbols, z_ref) in zip(got, expected, strict=True):
        assert_array_equal(blocks, symbols[0])
        assert_array_equal(z, z_ref[0])


@pytest.mark.parametrize("kind", ["lms", "rls", "cg"])
def test_sce_steps_and_detection_match_row_by_row(kind):
    taps = _channels(3)
    batched = SCE_STATES[kind]((RUNS,))
    singles = [SCE_STATES[kind](()) for _ in range(RUNS)]
    genie = np.stack([build_mmse_sce_exact(t, CODES[:USERS], 0.05, N) for t in taps])
    for z, xdiag, _ in _blocks(taps, 20, seed=4):
        det = sce.build_mmse_sce(batched.h_hat, USERS, 0.05, NC, M)
        _assert_rows_equal(det, [sce.build_mmse_sce(s.h_hat, USERS, 0.05, NC, M)
                                 for s in singles])
        _assert_rows_equal(detect_sce(z, det, CODES[0]),
                           [detect_sce(z[r], det[r], CODES[0]) for r in range(RUNS)])
        _assert_rows_equal(detect_sce_exact(z, genie, CODES[0]),
                           [detect_sce_exact(z[r], genie[r], CODES[0]) for r in range(RUNS)])
        SCE_STEPS[kind](batched, z, xdiag)
        for r, single in enumerate(singles):
            SCE_STEPS[kind](single, z[r], xdiag[r])
        _assert_rows_equal(batched.h_hat, [s.h_hat for s in singles])
        if kind == "rls":
            _assert_rows_equal(batched.corr, [s.corr for s in singles])


@pytest.mark.parametrize("kind", ["lms", "rls", "cg"])
def test_da_steps_and_detection_match_row_by_row(kind):
    taps = _channels(5)
    batched = DA_STATES[kind]((RUNS,))
    singles = [DA_STATES[kind](()) for _ in range(RUNS)]
    genie = np.stack([da.build_mmse_da(t, CODES[:USERS], 0.05, N) for t in taps])
    for z, _, desired in _blocks(taps, 20, seed=6):
        op = da.RxOperator(z, N)
        ops = [da.RxOperator(z[r], N) for r in range(RUNS)]
        _assert_rows_equal(da.detect_da(op, batched.w_hat),
                           [da.detect_da(ops[r], singles[r].w_hat) for r in range(RUNS)])
        _assert_rows_equal(da.detect_da(op, genie),
                           [da.detect_da(ops[r], genie[r]) for r in range(RUNS)])
        DA_STEPS[kind](batched, op, desired)
        for r, single in enumerate(singles):
            DA_STEPS[kind](single, ops[r], desired[r])
        _assert_rows_equal(batched.w_hat, [s.w_hat for s in singles])
        if kind == "rls":
            _assert_rows_equal(batched.corr, [s.corr for s in singles])


@pytest.mark.parametrize("scheme", ["sce", "da"])
def test_cg_early_stop_is_per_row(scheme):
    # row 1 receives nothing: its gradient vanishes and its loop stops at
    # once, while the other rows run their full iterations
    taps = _channels(7)
    new_state = SCE_STATES["cg"] if scheme == "sce" else DA_STATES["cg"]
    batched = new_state((RUNS,))
    singles = [new_state(()) for _ in range(RUNS)]
    for z, xdiag, desired in _blocks(taps, 5, seed=8):
        z[1] = 0
        if scheme == "sce":
            sce.sce_cg_step(batched, z, xdiag)
            for r, single in enumerate(singles):
                sce.sce_cg_step(single, z[r], xdiag[r])
            rows, weights = [s.h_hat for s in singles], batched.h_hat
        else:
            da.da_cg_step(batched, da.RxOperator(z, N), desired)
            for r, single in enumerate(singles):
                da.da_cg_step(single, da.RxOperator(z[r], N), desired[r])
            rows, weights = [s.w_hat for s in singles], batched.w_hat
        _assert_rows_equal(weights, rows)
    assert np.all(weights[1] == 0)
    assert np.all(np.abs(np.delete(weights, 1, axis=0)) > 0)


def test_batched_divergence_names_the_rows():
    state = sce.new_lms_state(TAPS, 1e12, batch=(RUNS,))
    taps = _channels(9)
    with np.errstate(all="ignore"), pytest.raises(fdcore.DivergenceError) as info:
        for z, xdiag, _ in _blocks(taps, 200, seed=10):
            z[2] = 0
            xdiag[2] = 0                  # no excitation: row 2 stays at zero
            sce.sce_lms_step(state, z * 1e3, xdiag * 1e3)
    assert 2 not in info.value.rows
    assert set(info.value.rows) <= {0, 1, 3}
    assert np.all(np.isfinite(state.h_hat[2]))


def test_rls_regularizes_only_the_singular_run(caplog):
    state = sce.new_rls_state(2, lam=1.0, delta=0.5, batch=(3,))
    state.corr[:] = 0
    rng = np.random.default_rng(11)
    z = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    xdiag = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    xdiag[1] = 0                          # no excitation in run 1 only
    normal = sce.pilot_normal_matrix(xdiag, 2)
    with caplog.at_level("WARNING", logger="uwbfde.sce"):
        sce.sce_rls_step(state, z, xdiag)
    assert caplog.text.count("regularizing") == 1
    assert_array_equal(state.corr[[0, 2]], normal[[0, 2]])
    assert_array_equal(state.corr[1], 0.5 * np.eye(2))
    assert np.all(np.isfinite(state.h_hat))


def test_pilot_normal_matrix_equals_scipy_toeplitz_per_row():
    rng = np.random.default_rng(12)
    for m, num_taps in [(32, 5), (256, 34), (8, 11)]:   # the last wraps lags
        xdiag = rng.standard_normal((RUNS, m)) + 1j * rng.standard_normal((RUNS, m))
        batched = sce.pilot_normal_matrix(xdiag, num_taps)
        assert batched.shape == (RUNS, num_taps, num_taps)
        for r in range(RUNS):
            lags = (np.fft.ifft(np.abs(xdiag[r]) ** 2) * m)[np.arange(num_taps) % m]
            assert_array_equal(batched[r], toeplitz(lags, lags.conj()))
            assert_array_equal(sce.pilot_normal_matrix(xdiag[r], num_taps), batched[r])


def test_ml_noise_variance_matches_row_by_row():
    taps = _channels(14)
    for z, xdiag, _ in _blocks(taps, 5, seed=15):
        sigma2_hat, taps_hat = ml_noise_variance(z, xdiag, TAPS)
        rows = [ml_noise_variance(z[r], xdiag[r], TAPS) for r in range(RUNS)]
        _assert_rows_equal(sigma2_hat, [s2 for s2, _ in rows])
        _assert_rows_equal(taps_hat, [h for _, h in rows])


@pytest.mark.parametrize("users", range(1, NC + 1))
def test_genie_builds_match_row_by_row(users):
    taps = _channels(13)
    for build in (build_mmse_sce_exact, da.build_mmse_da):
        _assert_rows_equal(build(taps, CODES[:users], 0.05, N),
                           [build(t, CODES[:users], 0.05, N) for t in taps])


def test_estimators_match_row_by_row():
    # row 2 receives nothing, so its order and noise floor differ from the
    # other rows'
    taps = _channels(14)
    cov = GroupCovariance.empty(N, NC, (RUNS,))
    covs = [GroupCovariance.empty(N, NC) for _ in range(RUNS)]
    for z, _, _ in _blocks(taps, 20, seed=15):
        z[2] = 0
        update_covariance(cov, z)
        for r in range(RUNS):
            update_covariance(covs[r], z[r])
        _assert_rows_equal(cov.acc, [c.acc for c in covs])
        _assert_rows_equal(cov.received_power, [c.received_power for c in covs])
        est = subspace_estimate(cov, cap=3)
        rows = [subspace_estimate(c, cap=3) for c in covs]
        for field in ("sigma2", "k_float", "k_int"):
            _assert_rows_equal(getattr(est, field), [getattr(row, field) for row in rows])
        assert all(row.startup == est.startup for row in rows)
        count = estimate_user_count(cov.received_power * M, 0.05, taps, NC, M)
        _assert_rows_equal(count, [estimate_user_count(c.received_power * M, 0.05, h, NC, M)
                                   for c, h in zip(covs, taps)])
    assert not est.startup
    assert est.k_int[2] == 0 and est.sigma2[2] == 0.0
    assert np.all(est.k_int[[0, 1, 3]] > 0)


# users 1-3 at 8 dB and noiseless, so rows of different K and sigma2 share a batch
SWEEP_POINTS = [(0, 8.0, 1), (1, np.inf, 2), (2, 8.0, 3), (3, np.inf, 3)]


def _sweep_config(**overrides):
    return ExperimentConfig(**{**dict(block_length=N, spreading=NC, cir_taps=TAPS, cp_chips=6,
                                      training_blocks=30, eval_blocks=10, runs=3,
                                      base_seed=21, decay_rate=0.2, cg_iters=3), **overrides})


def test_steady_sweep_rows_equal_one_call_per_run_and_point():
    cfg = _sweep_config()
    keys = cfg.algo_keys()
    assert len(keys) == 8
    runs = list(range(cfg.runs))
    swept = _ber_trial(cfg, SWEEP_POINTS, keys, runs)
    for row, run in enumerate(runs):
        for col, point in enumerate(SWEEP_POINTS):
            alone = _ber_trial(cfg, [point], keys, [run])
            for key in keys:
                assert_array_equal(swept[key][row, col], alone[key][0, 0])


def test_steady_sweep_raises_the_divergence_of_the_point_loop():
    # run 0 diverges at points 1, 2 and 3, earliest in blocks at point 2;
    # the error names its first diverged point, as walking the points does
    cfg = _sweep_config(scheme="da", algorithm="lms", mu_w=5.0, training_blocks=400)
    runs = list(range(cfg.runs))
    expected = None
    with np.errstate(all="ignore"):
        for run in runs:
            for point in SWEEP_POINTS:
                try:
                    _ber_trial(cfg, [point], ["da-lms"], [run])
                except fdcore.DivergenceError as exc:
                    expected = expected or str(exc)
        assert expected is not None
        with pytest.raises(fdcore.DivergenceError) as info:
            _ber_trial(cfg, SWEEP_POINTS, ["da-lms"], runs)
    assert str(info.value) == expected


# Batches at and above numpy's temporary-elision threshold: an elementwise
# operation on arrays of 256 KiB or more may reuse a temporary operand's
# memory, which for ``a * temp`` computes ``temp *= a``, a complex product
# with its operands swapped. BIG rows of m = 256 bins are exactly 256 KiB.
BIG, BIG_N, BIG_NC, BIG_TAPS = 64, 32, 8, 34
BIG_M = BIG_N * BIG_NC
BIG_CODES = fdcore.walsh_code_set(BIG_NC)


def _big_inputs(seed):
    """Random ``(BIG, ...)`` inputs at m = 256: spectra, pilots, symbols, taps."""
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return dict(z=cplx(3, BIG, BIG_M), xdiag=cplx(3, BIG, BIG_M), taps=cplx(BIG, BIG_TAPS),
                bits=fdcore.random_bpsk(rng, 3 * BIG * 2 * BIG_N).reshape(3, BIG, 2, BIG_N),
                users=rng.integers(1, BIG_NC + 1, BIG), sigma2=rng.uniform(0.01, 1.0, BIG))


def _assert_big_batch_matches_rows(call):
    """``call(sel)`` on all BIG rows (``sel`` a full slice) equals, bitwise,
    its one-row calls ``call(r)``; ``call`` indexes its inputs with ``sel``."""
    _assert_rows_equal(call(slice(None)), [call(r) for r in range(BIG)])


def test_pilot_fit_matches_row_by_row_above_the_elision_threshold():
    data = _big_inputs(40)
    z, xdiag, taps = data["z"][0], data["xdiag"][0], data["taps"]
    _assert_big_batch_matches_rows(
        lambda sel: sce.PilotOperator(xdiag[sel], BIG_TAPS).matvec(taps[sel]))
    for part in range(2):
        _assert_big_batch_matches_rows(
            lambda sel: ml_noise_variance(z[sel], xdiag[sel], BIG_TAPS)[part])


def test_kernels_match_row_by_row_above_the_elision_threshold():
    data = _big_inputs(41)
    z, bits, taps, users, sigma2 = (data[k] for k in ("z", "bits", "taps", "users", "sigma2"))

    def synthesize(sel):
        rngs = [np.random.default_rng([42, r]) for r in range(BIG)]
        return synthesize_rx(bits[0][sel], BIG_CODES[:2], taps[sel], sigma2[sel], rngs[sel])
    _assert_big_batch_matches_rows(synthesize)
    _assert_big_batch_matches_rows(
        lambda sel: da.detect_da(da.RxOperator(z[0][sel], BIG_N), z[1][sel]))
    _assert_big_batch_matches_rows(
        lambda sel: sce.build_mmse_sce(taps[sel], users[sel], sigma2[sel], BIG_NC, BIG_M))


@pytest.mark.parametrize("scheme, kind", [(s, k) for s in ("sce", "da")
                                          for k in ("lms", "rls", "cg")])
def test_steps_match_row_by_row_above_the_elision_threshold(scheme, kind):
    data = _big_inputs(43)
    z, xdiag, desired = data["z"], data["xdiag"], data["bits"][:, :, 0]
    z[:, 5, 2::BIG_N] = 0               # row 5: one dead symbol group in every block
    new_state = {
        "sce": {"lms": lambda b: sce.new_lms_state(BIG_TAPS, 1e-3, batch=b),
                "rls": lambda b: sce.new_rls_state(BIG_TAPS, 0.9, 1e-2, batch=b),
                "cg": lambda b: sce.new_cg_state(BIG_TAPS, 3, batch=b)},
        "da": {"lms": lambda b: da.new_lms_state(BIG_M, 1e-3, batch=b),
               "rls": lambda b: da.new_rls_state(BIG_N, BIG_NC, 0.9, 1e-2, batch=b),
               "cg": lambda b: da.new_cg_state(BIG_M, 3, batch=b)},
    }[scheme][kind]
    step = (SCE_STEPS if scheme == "sce" else DA_STEPS)[kind]

    def train(sel):
        state = new_state(z[0][sel].shape[:-1])
        for block in range(len(z)):
            if scheme == "sce":
                step(state, z[block][sel], xdiag[block][sel])
            else:
                step(state, da.RxOperator(z[block][sel], BIG_N), desired[block][sel])
        return state.h_hat if scheme == "sce" else state.w_hat
    _assert_big_batch_matches_rows(train)
