"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria 9b (estimated-inputs clause) and 10 check
the subspace estimator of the per-group received covariance, which feeds
the SCE detector its noise variance and user count without the truth or a
pilot. The assertion messages carry the measured numbers.
"""

from pathlib import Path

import numpy as np
import pytest

from uwbfde import da, fdcore, sce
from uwbfde.channel import ChannelProfile, generate_cir, synthesize_rx
from uwbfde.cli import main as cli_main
from uwbfde.harness import (
    ExperimentConfig,
    _curve_trial,
    _sigma2_trial,
    estimator_kcount_trial,
    verify_complexity,
)


def _report(num, ok, desc):
    print(f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'}  {desc}")


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _final100(errors, n):
    return errors[-100:].sum() / (100 * n)


def _run_curves(cfg, snr_db, users, keys):
    results = _curve_trial(cfg, snr_db, users, keys, list(range(cfg.runs)))
    n = cfg.block_length
    return {k: sum(_final100(res[k], n) for res in results) / cfg.runs for k in keys}


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ordering_bers():
    """Final-100-block mean BER of all eight detectors at 16 dB, 3 users."""
    cfg = ExperimentConfig(runs=20, training_blocks=1000)
    return _run_curves(cfg, 16.0, 3, cfg.algo_keys())


# ---------------------------------------------------------------------------
# criterion 1: structured operations match explicit-matrix references
# ---------------------------------------------------------------------------

def _dense_sce_lms(h, z, xdiag, mu, basis):
    weighted = xdiag[:, None] * basis
    err = z - weighted @ h
    return h + mu * (weighted.conj().T @ err)


def _dense_sce_rls(h, corr, z, xdiag, lam, basis):
    weighted = xdiag[:, None] * basis
    corr = lam * corr + weighted.conj().T @ weighted
    err = z - weighted @ h
    return h + np.linalg.solve(corr, weighted.conj().T @ err), corr


def _dense_cg(x, target, matrix, iters):
    err = target - matrix @ x
    grad = -(matrix.conj().T @ err)
    direction = -grad
    energy = float(np.vdot(grad, grad).real)
    for _ in range(iters):
        if energy == 0.0:
            break
        filtered = matrix @ direction
        curvature = float(np.vdot(filtered, filtered).real)
        if curvature == 0.0:
            break
        alpha = energy / curvature
        x = x + alpha * direction
        err = err - alpha * filtered
        new_grad = -(matrix.conj().T @ err)
        new_energy = float(np.vdot(new_grad, new_grad).real)
        direction = -new_grad + (new_energy / energy) * direction
        grad, energy = new_grad, new_energy
    return x


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for n, nc, num_taps in [(4, 2, 3), (4, 4, 5), (8, 2, 6)]:
        m = n * nc
        fmat = fdcore.dft_matrix(m)
        basis = fdcore.fourier_tap_basis(m, num_taps)
        code = fdcore.walsh_code_set(nc)[1]
        x = _random_complex(rng, m)
        worst = max(worst, np.max(np.abs(fdcore.dft(x) - fmat @ x)))
        b = fdcore.random_bpsk(rng, n)
        d_k = np.zeros((m, n))
        for i in range(n):
            d_k[i * nc:(i + 1) * nc, i] = code
        worst = max(worst, np.max(np.abs(fdcore.spread(b, code) - d_k @ b)))
        taps = _random_complex(rng, num_taps)
        h_mat = fdcore.circulant_matrix(taps, m)
        worst = max(worst, np.max(np.abs(fdcore.circulant_apply(taps, x) - h_mat @ x)))
        worst = max(worst, np.max(np.abs(sce.pilot_matrix(x) - fmat @ x)))

        z = _random_complex(rng, m)
        op = da.RxOperator(z, n)
        dense_y = op.dense()
        v = _random_complex(rng, m)
        u = _random_complex(rng, n)
        worst = max(worst, np.max(np.abs(op.matvec(v) - dense_y @ v)))
        worst = max(worst, np.max(np.abs(op.rmatvec(u) - dense_y.conj().T @ u)))

        # six adaptive steps, three updates each against dense references
        xdiags = [_random_complex(rng, m) for _ in range(3)]
        zs = [_random_complex(rng, m) for _ in range(3)]
        bs = [fdcore.random_bpsk(rng, n) for _ in range(3)]

        lms = sce.new_lms_state(num_taps, mu=0.05)
        ref = np.zeros(num_taps, complex)
        for zi, xi in zip(zs, xdiags):
            sce.sce_lms_step(lms, zi, xi)
            ref = _dense_sce_lms(ref, zi, xi, 0.05, basis)
            worst = max(worst, np.max(np.abs(lms.h_hat - ref)))

        rls = sce.new_rls_state(num_taps, lam=0.95, delta=1e-2)
        ref = np.zeros(num_taps, complex)
        ref_corr = 1e-2 * np.eye(num_taps, dtype=complex)
        for zi, xi in zip(zs, xdiags):
            sce.sce_rls_step(rls, zi, xi)
            ref, ref_corr = _dense_sce_rls(ref, ref_corr, zi, xi, 0.95, basis)
            worst = max(worst, np.max(np.abs(rls.h_hat - ref)))
            worst = max(worst, np.max(np.abs(rls.corr - ref_corr)))

        cg = sce.new_cg_state(num_taps, iters=3)
        ref = np.zeros(num_taps, complex)
        for zi, xi in zip(zs, xdiags):
            sce.sce_cg_step(cg, zi, xi)
            ref = _dense_cg(ref, zi, xi[:, None] * basis, 3)
            worst = max(worst, np.max(np.abs(cg.h_hat - ref)))

        dalms = da.new_lms_state(m, mu=0.05)
        ref = np.zeros(m, complex)
        for zi, bi in zip(zs, bs):
            opi = da.RxOperator(zi, n)
            da.da_lms_step(dalms, opi, bi)
            dense_y = opi.dense()
            ref = ref + 0.05 * (dense_y.conj().T @ (bi - dense_y @ ref))
            worst = max(worst, np.max(np.abs(dalms.w_hat - ref)))

        darls = da.new_rls_state(n, nc, lam=0.95, delta=1e-2)
        ref = np.zeros(m, complex)
        ref_corr = 1e-2 * np.eye(m, dtype=complex)
        for zi, bi in zip(zs, bs):
            opi = da.RxOperator(zi, n)
            da.da_rls_step(darls, opi, bi)
            dense_y = opi.dense()
            ref_corr = 0.95 * ref_corr + dense_y.conj().T @ dense_y
            ref = ref + np.linalg.solve(ref_corr, dense_y.conj().T @ (bi - dense_y @ ref))
            worst = max(worst, np.max(np.abs(darls.w_hat - ref)))

        dacg = da.new_cg_state(m, iters=3)
        ref = np.zeros(m, complex)
        for zi, bi in zip(zs, bs):
            opi = da.RxOperator(zi, n)
            da.da_cg_step(dacg, opi, bi)
            ref = _dense_cg(ref, bi.astype(complex), opi.dense(), 3)
            worst = max(worst, np.max(np.abs(dacg.w_hat - ref)))

    ok = worst < 1e-9
    _report(1, ok, f"structured ops match dense references (max err {worst:.2e})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: both genie detectors take identical decisions
# ---------------------------------------------------------------------------

def _genie_agreement(n, nc, users, blocks, seed):
    m = n * nc
    sigma2 = 10 ** (-1.6)
    taps = generate_cir(ChannelProfile(34, 0.35, seed=[seed, 1]))
    codes = fdcore.walsh_code_set(nc)
    dense = sce.build_mmse_sce_exact(taps, codes[:users], sigma2, n)
    weights = da.build_mmse_da(taps, codes[:users], sigma2, n)
    rng = np.random.default_rng([seed, 2])
    mismatches = 0
    for _ in range(blocks):
        data = fdcore.random_bpsk(rng, users * n).reshape(users, n)
        _, z = synthesize_rx(data, codes, taps, sigma2, rng)
        lhs = sce.detect_sce(z, dense, codes[0])
        rhs = da.detect_da(da.RxOperator(z, n), weights)
        mismatches += int(np.count_nonzero(lhs != rhs))
    return mismatches, blocks * n


def test_criterion_2_genie_path_identity():
    small = _genie_agreement(n=8, nc=8, users=3, blocks=10_000, seed=11)
    desk = _genie_agreement(n=32, nc=8, users=3, blocks=1_000, seed=12)
    ok = small[0] == 0 and desk[0] == 0
    _report(2, ok, "genie detectors bit-identical "
                   f"({small[0]}/{small[1]} diffs at m=64, {desk[0]}/{desk[1]} at m=256)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: recursive updates reproduce batch least squares
# ---------------------------------------------------------------------------

def test_criterion_3_rls_equals_batch():
    rng = np.random.default_rng(31)
    n, nc, num_taps = 4, 2, 3
    m = n * nc
    codes = fdcore.walsh_code_set(nc)
    taps = generate_cir(ChannelProfile(num_taps, 0.2, seed=32))
    basis = fdcore.fourier_tap_basis(m, num_taps)

    sce_state = sce.new_rls_state(num_taps, lam=1.0, delta=1e-8)
    da_state = da.new_rls_state(n, nc, lam=1.0, delta=1e-8)
    gram_h = np.zeros((num_taps, num_taps), complex)
    rhs_h = np.zeros(num_taps, complex)
    gram_w = np.zeros((m, m), complex)
    rhs_w = np.zeros(m, complex)
    for _ in range(50):
        b = fdcore.random_bpsk(rng, n)
        _, z = synthesize_rx(b[None, :], codes, taps, 0.05, rng)
        xdiag = sce.pilot_matrix(fdcore.spread(b, codes[0]))
        op = da.RxOperator(z, n)
        sce.sce_rls_step(sce_state, z, xdiag)
        da.da_rls_step(da_state, op, b)
        weighted = xdiag[:, None] * basis
        gram_h += weighted.conj().T @ weighted
        rhs_h += weighted.conj().T @ z
        dense_y = op.dense()
        gram_w += dense_y.conj().T @ dense_y
        rhs_w += dense_y.conj().T @ b

    batch_h = np.linalg.solve(gram_h, rhs_h)
    batch_w = np.linalg.lstsq(gram_w, rhs_w, rcond=None)[0]
    err_h = np.linalg.norm(sce_state.h_hat - batch_h) / np.linalg.norm(batch_h)
    err_w = np.linalg.norm(da_state.w_hat - batch_w) / np.linalg.norm(batch_w)
    ok = err_h < 1e-6 and err_w < 1e-6
    _report(3, ok, f"recursive == batch least squares (rel err {err_h:.2e}, {err_w:.2e})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: conjugate-gradient finite termination and monotone residuals
# ---------------------------------------------------------------------------

def test_criterion_4_cg_termination_and_monotonicity():
    rng = np.random.default_rng(41)
    n, nc, num_taps = 32, 8, 34
    m = n * nc
    codes = fdcore.walsh_code_set(nc)
    taps = generate_cir(ChannelProfile(num_taps, 0.35, seed=42))
    b = fdcore.random_bpsk(rng, n)
    _, z = synthesize_rx(b[None, :], codes, taps, 0.0, rng)
    xdiag = sce.pilot_matrix(fdcore.spread(b, codes[0]))
    state = sce.new_cg_state(num_taps, iters=num_taps)
    sce.sce_cg_step(state, z, xdiag)
    basis = xdiag[:, None] * fdcore.fourier_tap_basis(m, num_taps)
    gram = basis.conj().T @ basis
    rhs = basis.conj().T @ z
    resid = np.linalg.norm(gram @ state.h_hat - rhs) / np.linalg.norm(rhs)

    monotone = True
    sigma2 = 10 ** (-1.6)
    da_state = da.new_cg_state(m, iters=8)
    for _ in range(25):
        data = fdcore.random_bpsk(rng, 3 * n).reshape(3, n)
        _, z = synthesize_rx(data, codes, taps, sigma2, rng)
        trace = []
        da.da_cg_step(da_state, da.RxOperator(z, n), data[0], trace=trace)
        norms = [t[2] for t in trace]
        monotone &= all(later <= earlier * (1 + 1e-9)
                        for earlier, later in zip(norms, norms[1:]))

    ok = resid < 1e-6 and monotone
    _report(4, ok, f"finite termination (residual {resid:.2e}) and "
                   f"monotone residuals ({'yes' if monotone else 'no'})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: instrumented counts equal the closed-form cost model
# ---------------------------------------------------------------------------

def test_criterion_5_complexity_counts():
    cfg = ExperimentConfig()         # n=32, taps=34
    report = verify_complexity(cfg, spreading_gains=(1, 2, 4, 8), cg_iters=(2, 8))
    mismatches = [r for r in report.rows if not r.match]
    m_single = cfg.block_length      # chip count at unit spreading gain
    gap = abs(report.mults_for("da-rls", 1) - report.mults_for("da-lms", 1))
    gap_ok = gap <= 8 * m_single
    ok = not mismatches and gap_ok
    _report(5, ok, f"multiply counts exact in {len(report.rows)} rows; "
                   f"single-gain recursive-vs-gradient gap {gap} <= {8 * m_single}")
    assert ok, report.to_text()


# ---------------------------------------------------------------------------
# criterion 6: training-curve BER ordering at 16 dB, 3 users
# ---------------------------------------------------------------------------

def test_criterion_6_ber_ordering(ordering_bers):
    b = ordering_bers
    checks = {
        "sce rls<=1.5*cg": b["sce-rls"] <= 1.5 * b["sce-cg"],
        "sce cg<=lms": b["sce-cg"] <= b["sce-lms"],
        "da rls<=1.5*cg": b["da-rls"] <= 1.5 * b["da-cg"],
        "da cg<=lms": b["da-cg"] <= b["da-lms"],
        "lms sce<=da": b["sce-lms"] <= b["da-lms"],
        "rls sce<=da": b["sce-rls"] <= b["da-rls"],
        "cg sce<=da": b["sce-cg"] <= b["da-cg"],
        "mmse sce<=da": b["sce-mmse"] <= b["da-mmse"],
    }
    ok = all(checks.values())
    detail = " ".join(f"{k}={v:.4f}" for k, v in b.items())
    _report(6, ok, f"final-100 BER ordering ({detail})")
    assert ok, {k: v for k, v in checks.items() if not v}


# ---------------------------------------------------------------------------
# criterion 7: conjugate-gradient iteration sweep
# ---------------------------------------------------------------------------

def test_criterion_7_cg_iteration_sweep(ordering_bers):
    bers = {8: ordering_bers["sce-cg"]}
    for c in (2, 16):
        cfg = ExperimentConfig(runs=20, training_blocks=1000, cg_iters=c,
                               scheme="sce", algorithm="cg")
        bers[c] = _run_curves(cfg, 16.0, 3, ["sce-cg"])["sce-cg"]
    gain_2_to_8 = bers[2] / bers[8]
    gain_8_to_16 = bers[8] / bers[16]
    ok = gain_2_to_8 >= 1.3 and gain_8_to_16 < 1.2
    _report(7, ok, f"iteration sweep: 2->8 gain {gain_2_to_8:.2f} (>=1.3), "
                   f"8->16 gain {gain_8_to_16:.2f} (<1.2)")
    assert ok, bers


# ---------------------------------------------------------------------------
# criterion 8: noise-variance estimator accuracy
# ---------------------------------------------------------------------------

def test_criterion_8_noise_variance():
    cfg = ExperimentConfig(runs=5, training_blocks=200)
    snrs = (0.0, 4.0, 8.0, 12.0, 16.0)
    points = [(point, snr, 1) for point, snr in enumerate(snrs)] + [(50, 16.0, 5)]
    vals = np.array(_sigma2_trial(cfg, points, list(range(cfg.runs))))   # (runs, points)
    devs = []
    for point, snr in enumerate(snrs):
        truth = cfg.sigma2_for(snr)
        devs.append(abs(np.mean(vals[:, point]) - truth) / truth)
    exceeds = np.mean(vals[:, -1]) > cfg.sigma2_for(16.0)
    ok = max(devs) <= 0.10 and exceeds
    _report(8, ok, f"single-user accuracy (worst dev {max(devs)*100:.2f}%), "
                   f"five-user estimate exceeds truth: {exceeds}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: active-user-count estimator
# ---------------------------------------------------------------------------

def test_criterion_9a_user_count_genie_inputs():
    cfg = ExperimentConfig(runs=8, training_blocks=500, snr_db=(16.0,))
    gaps = {}
    for k in (2, 3, 4):
        finals = [res["k_float_genie"][-1]
                  for res in estimator_kcount_trial(cfg, k, list(range(cfg.runs)))]
        gaps[k] = abs(float(np.mean(finals)) - k)
    ok = all(g <= 1.0 for g in gaps.values())
    _report("9a", ok, "genie-input count gaps " +
            " ".join(f"K={k}:{g:.2f}" for k, g in gaps.items()))
    assert ok, gaps


def test_criterion_9b_user_count_estimated_inputs():
    # The estimated-input count is the pooled MDL order of the per-group
    # received covariance: the signal of K users has rank K in every symbol
    # group, on top of a white noise floor.
    cfg = ExperimentConfig(runs=8, training_blocks=500, snr_db=(16.0,))
    fractions = {}
    for k in (3, 4):
        hits = total = 0
        for res in estimator_kcount_trial(cfg, k, list(range(cfg.runs))):
            ints = res["k_int_est"][-100:]
            hits += int(np.count_nonzero((ints >= k - 1) & (ints <= k + 1)))
            total += ints.size
        fractions[k] = hits / total
    ok = all(f >= 0.80 for f in fractions.values())
    _report("9b", ok, "estimated-input count within +-1 " +
            " ".join(f"K={k}:{100*f:.1f}%" for k, f in fractions.items()) +
            " (bound 80%)")
    assert ok, (
        "estimated-input user count strays from K; within-one fractions "
        f"{fractions} vs the 0.80 bound")


# ---------------------------------------------------------------------------
# criterion 10: estimated-parameter detector close to the genie detector
# ---------------------------------------------------------------------------

def test_criterion_10_estimated_vs_genie_detector(ordering_bers):
    # An inflated noise estimate pushes the per-bin equalizer toward a
    # matched filter, and an underestimated user count removes its
    # interference-aware term; either drives this ratio far above the bound.
    genie = ordering_bers["sce-cg"]
    cfg = ExperimentConfig(runs=20, training_blocks=1000, scheme="sce",
                           algorithm="cg", use_estimated_sigma2=True,
                           use_estimated_k=True)
    estimated = _run_curves(cfg, 16.0, 3, ["sce-cg"])["sce-cg"]
    ratio = estimated / genie if genie > 0 else float("inf")
    ok = ratio <= 2.0
    _report(10, ok, f"estimated-parameter BER {estimated:.4f} vs genie {genie:.4f} "
                    f"(ratio {ratio:.1f}, bound 2.0)")
    assert ok, (
        f"estimated-input detector BER is {ratio:.1f}x the genie detector "
        "(bound 2.0x); check the subspace noise-variance and user-count "
        "estimates that feed its equalizer")


# ---------------------------------------------------------------------------
# criterion 11: byte-identical output for identical configurations
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    args = ["--experiment", "ber-vs-blocks", "--block-length", "8",
            "--spreading", "4", "--users", "3", "--cir-length", "5",
            "--cp-chips", "6", "--blocks", "40", "--runs", "4", "--seed", "99"]
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    assert cli_main([*args, "--workers", "1", "--out", str(paths[0])]) == 0
    assert cli_main([*args, "--workers", "1", "--out", str(paths[1])]) == 0
    assert cli_main([*args, "--workers", "2", "--out", str(paths[2])]) == 0
    same = (paths[0].read_bytes() == paths[1].read_bytes()
            == paths[2].read_bytes())
    _report(11, same, "byte-identical output across reruns and worker counts")
    assert same


def test_criterion_11_batch_size_invariance(tmp_path):
    # runs=5 split over 1, 2 and 3 workers advances batches of 5, 3+2 and
    # 2+2+1 runs; the CSVs must not depend on the split
    base = ["--block-length", "8", "--spreading", "4", "--users", "3",
            "--cir-length", "5", "--cp-chips", "6", "--blocks", "40",
            "--eval-blocks", "20", "--runs", "5", "--seed", "99"]
    written = {"ber-vs-blocks": [""], "ber-vs-users": [""],
               "estimators": ["_sigma2", "_kcount"]}
    same = True
    for experiment, suffixes in written.items():
        outputs = []
        for workers in (1, 2, 3):
            stem = tmp_path / f"{experiment}_{workers}"
            assert cli_main(["--experiment", experiment, *base,
                             "--workers", str(workers), "--out", f"{stem}.csv"]) == 0
            outputs.append([Path(f"{stem}{suffix}.csv").read_bytes() for suffix in suffixes])
        same &= outputs[0] == outputs[1] == outputs[2]
    _report(11, same, "byte-identical output across batch sizes 5, 3+2 and 2+2+1")
    assert same
