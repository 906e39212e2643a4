"""Experiment runner: seeded Monte-Carlo trials, BER/estimator curves, and
verification of the per-block complexity model.

Protocol notes
--------------
* SNR is defined as ``10*log10(Eb/sigma2)`` with unit bit energy (unit-energy
  BPSK symbols through unit-norm codes and a unit-energy channel), so
  ``sigma2 = 10**(-snr_db/10)``.
* During training curves, the BER at block ``i`` is measured with the filter
  state *before* the update from block ``i``.
* The desired user (index 0) transmits known training blocks; interferers
  transmit random data. Only the desired user's bits enter the BER.
* Runs are independent trials with private RNG streams derived from
  ``(base_seed, stream, run, point)``; each run draws its own channel, which
  is held constant for the whole run and shared across sweep points.
* Parallelism is across runs only; results merge in run order, so output is
  byte-identical for any worker count.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import da, sce
from .channel import ChannelProfile, generate_cir, load_cir, synthesize_rx
from .estimators import (
    EstimatorState,
    GroupCovariance,
    estimate_user_count,
    ml_noise_variance,
    subspace_estimate,
    update_covariance,
    update_power,
)
from .fdcore import DivergenceError, random_bpsk, spread, walsh_code_set
from .opcount import OpCounter, nominal_cost
from .sce import build_mmse_sce, build_mmse_sce_exact, detect_sce, pilot_matrix

_CHAN_STREAM = 7919
_DATA_STREAM = 104729
_GENIE_RIDGE = 1e-12         # noise floor substituted for exactly noiseless genie runs
_CHIP_SECONDS = 0.375e-9

SCHEMES = ("sce", "da", "both")
ALGORITHMS = ("lms", "rls", "cg", "mmse", "all")
EXPERIMENTS = ("ber-vs-blocks", "ber-vs-snr", "ber-vs-users", "estimators", "complexity")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """All scalars an experiment needs; see the CLI for the matching flags."""

    block_length: int = 32          # symbols per block (n)
    spreading: int = 8              # chips per symbol (nc)
    users: int = 3                  # active users (K), desired user included
    cir_taps: int = 34              # chip-spaced channel taps (L)
    cp_chips: int = 35
    snr_db: tuple = (16.0,)
    training_blocks: int = 1000
    eval_blocks: int = 200
    runs: int = 20
    base_seed: int = 12345
    scheme: str = "both"
    algorithm: str = "all"
    cg_iters: int = 8
    mu_h: float | None = None       # default resolves to 0.0005 / pilot energy
    mu_w: float = 0.0012
    lambda_h: float = 0.998
    lambda_w: float = 0.85
    delta_init: float = 1e-2
    use_estimated_sigma2: bool = False
    use_estimated_k: bool = False
    k_cap: int = 7
    sigma2_unbiased: bool = True    # degrees-of-freedom corrected noise fit
    cir_file: str | None = None
    decay_rate: float = 0.35
    workers: int = 1

    @property
    def chips_per_block(self) -> int:
        return self.block_length * self.spreading

    @property
    def resolved_mu_h(self) -> float:
        if self.mu_h is not None:
            return self.mu_h
        return 0.0005 / self.block_length    # pilot energy equals the block length

    @staticmethod
    def sigma2_for(snr_db: float) -> float:
        return 10.0 ** (-snr_db / 10.0)

    def validate(self):
        if self.spreading < 1 or (self.spreading & (self.spreading - 1)) != 0:
            raise ValueError(f"spreading gain must be a power of two, got {self.spreading}")
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if self.users > self.spreading:
            raise ValueError(f"K exceeds Nc ({self.users} > {self.spreading})")
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if self.cir_taps < 1:
            raise ValueError("cir_taps must be >= 1")
        if self.cp_chips < 0:
            raise ValueError("cp_chips must be >= 0")
        if self.cp_chips < self.cir_taps - 1:
            raise ValueError(f"cyclic prefix ({self.cp_chips} chips) shorter than the channel "
                             f"memory ({self.cir_taps - 1}); synthesis is circular, so the "
                             "inter-block interference would not be simulated")
        if self.cg_iters < 1:
            raise ValueError("cg_iters must be >= 1")
        if self.runs < 1 or self.training_blocks < 1 or self.eval_blocks < 0:
            raise ValueError("runs/training_blocks/eval_blocks out of range")
        if not self.snr_db:
            raise ValueError("at least one SNR point is required")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.k_cap < 0:
            raise ValueError("k_cap must be >= 0")

    def algo_keys(self) -> list[str]:
        schemes = ("sce", "da") if self.scheme == "both" else (self.scheme,)
        algos = ("lms", "rls", "cg", "mmse") if self.algorithm == "all" else (self.algorithm,)
        return [f"{s}-{a}" for s in schemes for a in algos]

    def metadata(self) -> dict:
        meta = {}
        for f in dataclasses.fields(self):
            if f.name == "workers":     # execution detail; output is worker-invariant
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            meta[f.name] = value
        m = self.chips_per_block
        meta["chips_per_block"] = m
        meta["mu_h_resolved"] = self.resolved_mu_h
        meta["uncoded_rate_mbps"] = round(
            self.block_length / ((m + self.cp_chips) * _CHIP_SECONDS) / 1e6, 3)
        return meta


# ---------------------------------------------------------------------------
# curve container / CSV output
# ---------------------------------------------------------------------------

@dataclass
class CurveSet:
    x_name: str
    x: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key, value in self.meta.items():
                fh.write(f"# {key}={value}\n")
            names = [self.x_name] + list(self.columns)
            fh.write(",".join(names) + "\n")
            for i, xv in enumerate(self.x):
                row = [_fmt(xv)] + [_fmt(self.columns[name][i]) for name in self.columns]
                fh.write(",".join(row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.10e}"


# ---------------------------------------------------------------------------
# per-run simulation
# ---------------------------------------------------------------------------

def _channel_for_run(cfg: ExperimentConfig, run_idx: int) -> np.ndarray:
    if cfg.cir_file:
        return load_cir(cfg.cir_file, cfg.cir_taps)
    profile = ChannelProfile(cfg.cir_taps, cfg.decay_rate,
                             seed=[cfg.base_seed, _CHAN_STREAM, run_idx])
    return generate_cir(profile)


def _data_rng(cfg: ExperimentConfig, run_idx: int, point_idx: int) -> np.random.Generator:
    return np.random.default_rng([cfg.base_seed, _DATA_STREAM, run_idx, point_idx])


class _SceRunner:
    """One SCE algorithm instance for one trial: adapt, estimate, detect."""

    def __init__(self, kind, cfg, users, sigma2, taps, codes):
        n, nc, num_taps = cfg.block_length, cfg.spreading, cfg.cir_taps
        self.kind = kind
        self.cfg = cfg
        self.nc, self.m = nc, n * nc
        self.users, self.sigma2 = users, sigma2
        self.code = codes[0]
        self.cov = self.est = None
        if kind == "mmse":
            self.detector = build_mmse_sce_exact(
                taps, codes[:users], max(sigma2, _GENIE_RIDGE), n)
        elif kind == "lms":
            self.state = sce.new_lms_state(num_taps, cfg.resolved_mu_h)
        elif kind == "rls":
            self.state = sce.new_rls_state(num_taps, cfg.lambda_h, cfg.delta_init)
        elif kind == "cg":
            self.state = sce.new_cg_state(num_taps, cfg.cg_iters)
        else:
            raise ValueError(f"unknown algorithm {kind!r}")
        if kind != "mmse" and (cfg.use_estimated_sigma2 or cfg.use_estimated_k):
            self.cov = GroupCovariance.empty(n, nc)

    def observe(self, z):
        """Fold a training block into the subspace estimate of sigma2 and K."""
        if self.cov is None:
            return
        update_covariance(self.cov, z)
        self.est = subspace_estimate(self.cov, self.cfg.k_cap)

    def detect(self, z):
        if self.kind == "mmse":
            return detect_sce(z, self.detector, self.code)
        sigma2 = self.est.sigma2 if self.cfg.use_estimated_sigma2 else self.sigma2
        k_used = self.est.k_int if self.cfg.use_estimated_k else self.users
        det = build_mmse_sce(self.state.h_hat, k_used, sigma2, self.nc, self.m)
        return detect_sce(z, det, self.code)

    def update(self, z, xdiag):
        if self.kind == "lms":
            sce.sce_lms_step(self.state, z, xdiag)
        elif self.kind == "rls":
            sce.sce_rls_step(self.state, z, xdiag)
        elif self.kind == "cg":
            sce.sce_cg_step(self.state, z, xdiag)


class _DaRunner:
    """One DA algorithm instance for one trial."""

    def __init__(self, kind, cfg, users, sigma2, taps, codes):
        n, nc = cfg.block_length, cfg.spreading
        self.kind = kind
        if kind == "mmse":
            self.w = da.build_mmse_da(taps, codes[:users], max(sigma2, _GENIE_RIDGE), n)
        elif kind == "lms":
            self.state = da.new_lms_state(n * nc, cfg.mu_w)
        elif kind == "rls":
            self.state = da.new_rls_state(n, nc, cfg.lambda_w, cfg.delta_init)
        elif kind == "cg":
            self.state = da.new_cg_state(n * nc, cfg.cg_iters)
        else:
            raise ValueError(f"unknown algorithm {kind!r}")

    def detect(self, op):
        w = self.w if self.kind == "mmse" else self.state.w_hat
        return da.detect_da(op, w)

    def update(self, op, b):
        if self.kind == "lms":
            da.da_lms_step(self.state, op, b)
        elif self.kind == "rls":
            da.da_rls_step(self.state, op, b)
        elif self.kind == "cg":
            da.da_cg_step(self.state, op, b)


def _new_runners(cfg, users, sigma2, taps, codes, algo_keys):
    runners = {}
    for key in algo_keys:
        scheme, kind = key.split("-")
        cls = _SceRunner if scheme == "sce" else _DaRunner
        runners[key] = cls(kind, cfg, users, sigma2, taps, codes)
    return runners


def _simulate_blocks(cfg, users, sigma2, taps, codes, runners, rng, n_blocks,
                     adapt=True, errors_out=None, where="run"):
    """Advance every runner over ``n_blocks`` blocks, filling ``errors_out``;
    a divergence is re-raised naming ``where``, the algorithm and the block."""
    n = cfg.block_length
    need_sce = any(k.startswith("sce") for k in runners)
    need_da = any(k.startswith("da") for k in runners)
    code0 = codes[0]
    for i in range(n_blocks):
        blocks = random_bpsk(rng, users * n).reshape(users, n)
        _, z = synthesize_rx(blocks, codes, taps, sigma2, rng)
        xdiag = pilot_matrix(spread(blocks[0], code0)) if need_sce else None
        op = da.RxOperator(z, n) if need_da else None
        desired = blocks[0]
        for key, runner in runners.items():
            if key.startswith("sce"):
                if adapt:
                    runner.observe(z)
                bits = runner.detect(z)
                update_args = (z, xdiag)
            else:
                bits = runner.detect(op)
                update_args = (op, desired)
            if adapt:
                try:
                    runner.update(*update_args)
                except DivergenceError as exc:
                    raise DivergenceError(
                        f"{where}, {key}, block {i + 1} of {n_blocks}: {exc}") from exc
            if errors_out is not None:
                errors_out[key][i] = int(np.count_nonzero(bits != desired))


def _curve_trial(args):
    """One training-curve run: per-block desired-user error counts."""
    cfg, snr_db, users, algo_keys, run_idx = args
    taps = _channel_for_run(cfg, run_idx)
    codes = walsh_code_set(cfg.spreading)
    sigma2 = cfg.sigma2_for(snr_db)
    rng = _data_rng(cfg, run_idx, 0)
    runners = _new_runners(cfg, users, sigma2, taps, codes, algo_keys)
    errors = {key: np.zeros(cfg.training_blocks, dtype=np.int64) for key in algo_keys}
    _simulate_blocks(cfg, users, sigma2, taps, codes, runners, rng,
                     cfg.training_blocks, adapt=True, errors_out=errors,
                     where=f"run {run_idx}, {snr_db:g} dB SNR, {users} users")
    return errors


def _steady_trial(args):
    """One sweep run: train, then measure steady-state errors with frozen filters."""
    cfg, points, algo_keys, run_idx = args
    taps = _channel_for_run(cfg, run_idx)
    codes = walsh_code_set(cfg.spreading)
    out = {key: [] for key in algo_keys}
    for point_idx, snr_db, users in points:
        sigma2 = cfg.sigma2_for(snr_db)
        rng = _data_rng(cfg, run_idx, point_idx)
        runners = _new_runners(cfg, users, sigma2, taps, codes, algo_keys)
        _simulate_blocks(cfg, users, sigma2, taps, codes, runners, rng,
                         cfg.training_blocks, adapt=True,
                         where=f"run {run_idx}, {snr_db:g} dB SNR, {users} users")
        errors = {key: np.zeros(cfg.eval_blocks, dtype=np.int64) for key in algo_keys}
        _simulate_blocks(cfg, users, sigma2, taps, codes, runners, rng,
                         cfg.eval_blocks, adapt=False, errors_out=errors)
        for key in algo_keys:
            out[key].append((int(errors[key].sum()), cfg.eval_blocks * cfg.block_length))
    return out


def _sigma2_trial(args):
    """Mean per-block maximum-likelihood noise-variance estimate over one run."""
    cfg, snr_db, users, run_idx, point_idx, n_blocks = args
    taps = _channel_for_run(cfg, run_idx)
    codes = walsh_code_set(cfg.spreading)
    sigma2 = cfg.sigma2_for(snr_db)
    rng = _data_rng(cfg, run_idx, point_idx)
    n = cfg.block_length
    total = 0.0
    used = 0
    for _ in range(n_blocks):
        blocks = random_bpsk(rng, users * n).reshape(users, n)
        _, z = synthesize_rx(blocks, codes, taps, sigma2, rng)
        xdiag = pilot_matrix(spread(blocks[0], codes[0]))
        try:
            s2, _ = ml_noise_variance(z, xdiag, cfg.cir_taps,
                                      ddof_correction=cfg.sigma2_unbiased)
        except np.linalg.LinAlgError:
            continue                # degenerate pilot block (tiny scales only)
        total += s2
        used += 1
    if not used:
        raise np.linalg.LinAlgError("every pilot block was rank deficient")
    return total / used


def estimator_kcount_trial(cfg: ExperimentConfig, users: int, run_idx: int,
                           point_idx: int = 0) -> dict:
    """Per-block user-count traces for one run at the last configured SNR.

    Over ``cfg.training_blocks`` blocks this records the genie-input
    power-inversion estimate (true noise variance and channel energy) and
    the estimated-input subspace estimate of the per-group received
    covariance, which reads neither the truth nor a pilot. The estimated
    traces hold the subspace estimator's startup values (``cfg.k_cap``)
    until more than ``cfg.spreading`` blocks are accumulated and never
    exceed ``cfg.k_cap``.
    """
    snr_db = cfg.snr_db[-1]
    taps = _channel_for_run(cfg, run_idx)
    codes = walsh_code_set(cfg.spreading)
    sigma2 = cfg.sigma2_for(snr_db)
    rng = _data_rng(cfg, run_idx, 10_000 + point_idx)
    n, nc, m = cfg.block_length, cfg.spreading, cfg.chips_per_block
    est = EstimatorState()
    cov = GroupCovariance.empty(n, nc)
    n_blocks = cfg.training_blocks
    k_float_genie = np.zeros(n_blocks)
    k_float_est = np.zeros(n_blocks)
    k_int_est = np.zeros(n_blocks, dtype=np.int64)
    for i in range(n_blocks):
        blocks = random_bpsk(rng, users * n).reshape(users, n)
        _, z = synthesize_rx(blocks, codes, taps, sigma2, rng)
        update_power(est, z)
        genie = estimate_user_count(est.received_power, sigma2, taps, nc, m,
                                    cap=cfg.k_cap)
        guess = subspace_estimate(update_covariance(cov, z), cfg.k_cap)
        k_float_genie[i] = genie.k_float
        k_float_est[i] = guess.k_float
        k_int_est[i] = guess.k_int
    return {"k_float_genie": k_float_genie, "k_float_est": k_float_est,
            "k_int_est": k_int_est}


def _kcount_trial(args):
    cfg, users, run_idx = args
    return estimator_kcount_trial(cfg, users, run_idx)


def _map_runs(cfg, fn, args_list):
    if cfg.workers > 1 and len(args_list) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as ex:
            return list(ex.map(fn, args_list))
    return [fn(a) for a in args_list]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_ber_vs_blocks(cfg: ExperimentConfig) -> CurveSet:
    """Desired-user BER per training block, averaged over runs."""
    cfg.validate()
    algo_keys = cfg.algo_keys()
    snr_db = cfg.snr_db[0]
    results = _map_runs(cfg, _curve_trial,
                        [(cfg, snr_db, cfg.users, algo_keys, r) for r in range(cfg.runs)])
    n = cfg.block_length
    curve = CurveSet("block", np.arange(1, cfg.training_blocks + 1),
                     meta={**cfg.metadata(), "experiment": "ber-vs-blocks",
                           "snr_db_point": snr_db})
    for key in algo_keys:
        per_run = np.stack([res[key] for res in results]) / n      # (runs, blocks)
        curve.columns[f"ber_{key}"] = per_run.mean(axis=0)
        curve.columns[f"se_{key}"] = _stderr(per_run)
    return curve


def run_ber_vs_snr(cfg: ExperimentConfig) -> CurveSet:
    """Steady-state BER per SNR point after training at that SNR."""
    cfg.validate()
    algo_keys = cfg.algo_keys()
    points = [(idx, snr, cfg.users) for idx, snr in enumerate(cfg.snr_db)]
    return _steady_curve(cfg, algo_keys, points, "snr_db",
                         np.asarray(cfg.snr_db, dtype=float), "ber-vs-snr")


def run_ber_vs_users(cfg: ExperimentConfig) -> CurveSet:
    """Steady-state BER versus the number of active users at one SNR."""
    cfg.validate()
    algo_keys = cfg.algo_keys()
    snr_db = cfg.snr_db[0]
    user_range = list(range(1, cfg.spreading)) or [1]
    points = [(idx, snr_db, k) for idx, k in enumerate(user_range)]
    return _steady_curve(cfg, algo_keys, points, "users",
                         np.asarray(user_range), "ber-vs-users")


def _steady_curve(cfg, algo_keys, points, x_name, x, experiment) -> CurveSet:
    results = _map_runs(cfg, _steady_trial,
                        [(cfg, points, algo_keys, r) for r in range(cfg.runs)])
    curve = CurveSet(x_name, x, meta={**cfg.metadata(), "experiment": experiment})
    for key in algo_keys:
        per_run = np.array([[err / bits for err, bits in res[key]] for res in results])
        curve.columns[f"ber_{key}"] = per_run.mean(axis=0)
        curve.columns[f"se_{key}"] = _stderr(per_run)
    return curve


def _stderr(per_run: np.ndarray) -> np.ndarray:
    if per_run.shape[0] < 2:
        return np.zeros(per_run.shape[1])
    return per_run.std(axis=0, ddof=1) / np.sqrt(per_run.shape[0])


def run_estimator_curves(cfg: ExperimentConfig) -> dict:
    """Noise-variance sweep and user-count traces.

    Returns ``{"sigma2": CurveSet, "kcount": CurveSet}``. The noise-variance
    sweep runs the configured SNR grid for 1, 3 and 5 users (theory column
    included) and reports the per-block maximum-likelihood pilot fit, which
    with several users also absorbs their interference. The user-count
    traces run at the last configured SNR for 2, 3 and 4 users: the
    genie-input power-inversion estimate and the estimated-input subspace
    estimate that feeds the SCE detector (see :func:`estimator_kcount_trial`).
    The configured ``users`` field is not used by this experiment.
    """
    cfg.validate()
    user_set_sigma2 = [k for k in (1, 3, 5) if k <= cfg.spreading]
    user_set_kcount = [k for k in (2, 3, 4) if k <= cfg.spreading]
    snrs = np.asarray(cfg.snr_db, dtype=float)

    sigma2_curve = CurveSet("snr_db", snrs,
                            meta={**cfg.metadata(), "experiment": "estimators-sigma2"})
    sigma2_curve.columns["sigma2_theory"] = np.array(
        [cfg.sigma2_for(s) for s in snrs])
    n_blocks = cfg.training_blocks
    for k in user_set_sigma2:
        means = []
        for point_idx, snr in enumerate(snrs):
            vals = _map_runs(cfg, _sigma2_trial,
                             [(cfg, float(snr), k, r, point_idx, n_blocks)
                              for r in range(cfg.runs)])
            means.append(float(np.mean(vals)))
        sigma2_curve.columns[f"sigma2_hat_k{k}"] = np.asarray(means)

    kcount_curve = CurveSet("block", np.arange(1, cfg.training_blocks + 1),
                            meta={**cfg.metadata(), "experiment": "estimators-kcount",
                                  "snr_db_point": cfg.snr_db[-1]})
    for k in user_set_kcount:
        traces = _map_runs(cfg, _kcount_trial, [(cfg, k, r) for r in range(cfg.runs)])
        for name in ("k_float_genie", "k_float_est", "k_int_est"):
            stacked = np.stack([t[name] for t in traces]).astype(float)
            kcount_curve.columns[f"{name}_k{k}"] = stacked.mean(axis=0)
    return {"sigma2": sigma2_curve, "kcount": kcount_curve}


# ---------------------------------------------------------------------------
# complexity verification
# ---------------------------------------------------------------------------

@dataclass
class ComplexityRow:
    algo: str
    nc: int
    iters: int
    m: int
    expected_mults: int
    measured_mults: int
    expected_adds: int
    measured_adds: int

    @property
    def match(self) -> bool:
        return self.expected_mults == self.measured_mults

    @property
    def adds_match(self) -> bool:
        return self.expected_adds == self.measured_adds


@dataclass
class ComplexityReport:
    rows: list
    block_length: int
    cir_taps: int

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows)

    def mults_for(self, algo: str, nc: int) -> int:
        for row in self.rows:
            if row.algo == algo and row.nc == nc:
                return row.measured_mults
        raise KeyError(f"no row for {algo} at nc={nc}")

    def to_text(self) -> str:
        lines = [
            f"per-block complex-operation counts (n={self.block_length}, "
            f"taps={self.cir_taps}; transforms excluded)",
            f"{'algorithm':<10}{'nc':>4}{'c':>4}{'m':>6}"
            f"{'mults(model)':>14}{'mults(meas)':>13}{'ok':>4}"
            f"{'adds(model)':>13}{'adds(meas)':>12}{'ok':>4}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.algo:<10}{r.nc:>4}{r.iters:>4}{r.m:>6}"
                f"{r.expected_mults:>14}{r.measured_mults:>13}"
                f"{'yes' if r.match else 'NO':>4}"
                f"{r.expected_adds:>13}{r.measured_adds:>12}"
                f"{'yes' if r.adds_match else 'NO':>4}")
        lines.append("all multiply counts match: " + ("yes" if self.all_match else "NO"))
        return "\n".join(lines)


def _measured_step_cost(algo, n, nc, num_taps, iters, rng) -> tuple[int, int]:
    m = n * nc
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    xdiag = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    b = random_bpsk(rng, n)
    counter = OpCounter()
    if algo == "sce-lms":
        sce.sce_lms_step(sce.new_lms_state(num_taps, 1e-4), z, xdiag, counter)
    elif algo == "sce-rls":
        sce.sce_rls_step(sce.new_rls_state(num_taps), z, xdiag, counter)
    elif algo == "sce-cg":
        sce.sce_cg_step(sce.new_cg_state(num_taps, iters), z, xdiag, counter)
    elif algo == "da-lms":
        da.da_lms_step(da.new_lms_state(m, 1e-4), da.RxOperator(z, n), b, counter)
    elif algo == "da-rls":
        da.da_rls_step(da.new_rls_state(n, nc), da.RxOperator(z, n), b, counter)
    elif algo == "da-cg":
        da.da_cg_step(da.new_cg_state(m, iters), da.RxOperator(z, n), b, counter)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return counter.snapshot()


def verify_complexity(cfg: ExperimentConfig, spreading_gains=(1, 2, 4, 8),
                      cg_iters=(2, 8)) -> ComplexityReport:
    """Run every algorithm for one instrumented block per parameter point and
    compare the measured operation tallies against the closed-form model."""
    n, num_taps = cfg.block_length, cfg.cir_taps
    rng = np.random.default_rng(cfg.base_seed)
    rows = []
    for nc in spreading_gains:
        m = n * nc
        for algo in ("sce-lms", "sce-rls", "da-lms", "da-rls"):
            exp_m, exp_a = nominal_cost(algo, m=m, n=n, nc=nc, taps=num_taps)
            got_m, got_a = _measured_step_cost(algo, n, nc, num_taps, 0, rng)
            rows.append(ComplexityRow(algo, nc, 0, m, exp_m, got_m, exp_a, got_a))
        for c in cg_iters:
            for algo in ("sce-cg", "da-cg"):
                exp_m, exp_a = nominal_cost(algo, m=m, n=n, nc=nc, taps=num_taps, iters=c)
                got_m, got_a = _measured_step_cost(algo, n, nc, num_taps, c, rng)
                rows.append(ComplexityRow(algo, nc, c, m, exp_m, got_m, exp_a, got_a))
    return ComplexityReport(rows=rows, block_length=n, cir_taps=num_taps)
