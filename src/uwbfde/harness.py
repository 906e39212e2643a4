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
* Runs are batched: the runs one process owns advance together, as the rows
  of ``(R, ...)`` arrays, through synthesis, the adaptive steps, the genie
  builds, detection and the estimators, each row drawing from its own
  generator. Every BER experiment runs one trial, :func:`_ber_trial`, in
  which a row is one (run, point) pair with its own user count and noise
  variance. A training curve (``ber-vs-blocks``) has one point and scores
  every training block. A steady-state sweep (``ber-vs-snr``,
  ``ber-vs-users``) trains every point of its runs in one pass, freezes
  every runner's weights, and scores ``eval_blocks`` more blocks. Every
  trial returns ``{name: (R, ...) array}``. ``--workers`` splits the runs
  into contiguous slices, one per worker process, and the slices join along
  the run axis. Every row is computed as it would be alone, so output is
  byte-identical for any worker count and batch size.
* On estimated inputs a BER trial folds each training block once into one
  per-group covariance of its rows, and every adaptive SCE runner builds
  its weights on the one subspace estimate taken from it.
* A pass that no runner reads (no runner has state and no block is scored,
  as in a genie-only sweep's training) is drawn, not synthesized: each row
  draws its bits, then its noise, so its generator ends where synthesis
  would leave it.
* All eight detectors decide through one kernel, :func:`da.detect_da`: each
  runner supplies one length-m weight vector per row. An SCE detector's
  per-bin equalizer followed by time-domain despreading with the desired
  code is the weight vector ``conj(d) * conj(FFT_m(c_0)) / sqrt(nc)``.
  Both genies apply one MMSE weight vector per row (:func:`da.build_mmse_da`,
  built once per sweep point), and runners without state that share a
  weight array share its decision on each scored block.
* A diverging row is recorded at its first non-finite update. It stays
  non-finite, which touches no other row, and its later divergences are not
  recorded while the other rows finish. The experiment then raises for the
  lowest-index diverged run at its first diverged point, naming the point,
  algorithm and block.
* Every experiment function first calls ``cfg.validate(<its name>)``, the
  one place that refuses a config value that cannot run or that the
  experiment would ignore; the CLI adds only its ``--check`` rule.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import channel, da, estimators, sce
from .channel import ChannelProfile, generate_cir, load_cir
from .estimators import (
    EstimatorState,
    GroupCovariance,
    estimate_user_count,
    ml_noise_variance,
    subspace_estimate,
    update_covariance,
    update_power,
)
from .fdcore import DivergenceError, random_bits, random_bpsk, spread, walsh_code_set
from .opcount import OpCounter, nominal_cost
from .sce import build_mmse_sce, pilot_matrix

_CHAN_STREAM = 7919
_DATA_STREAM = 104729
_GENIE_RIDGE = 1e-12         # noise floor substituted for exactly noiseless genie runs
_CHIP_SECONDS = 0.375e-9

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

    def validate(self, experiment: str):
        """Reject a value that cannot run, or that ``experiment`` would
        accept and then ignore. Every experiment function calls this first."""
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
        # a synthesized block holds the channel, and the pilot fit needs a
        # residual; the complexity model runs no block and aliases longer channels
        most = self.chips_per_block - (experiment == "estimators")
        if experiment != "complexity" and self.cir_taps > most:
            raise ValueError(f"--cir-length {self.cir_taps} exceeds {most}, the most taps "
                             f"{experiment} runs on a block of {self.chips_per_block} chips")
        if self.cg_iters < 1:
            raise ValueError("cg_iters must be >= 1")
        if not self.delta_init > 0:
            raise ValueError(f"delta_init must be > 0 (the RLS filters start from "
                             f"delta_init * I), got {self.delta_init}")
        for name, mu in (("mu_w", self.mu_w), ("mu_h", self.resolved_mu_h)):
            if not mu >= 0:
                raise ValueError(f"{name} must be >= 0, got {mu}")
        for name, lam in (("lambda_h", self.lambda_h), ("lambda_w", self.lambda_w)):
            if not 0 < lam <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {lam}")
        if self.runs < 1 or self.training_blocks < 1 or self.eval_blocks < 0:
            raise ValueError("runs/training_blocks/eval_blocks out of range")
        if not self.snr_db:
            raise ValueError("at least one SNR point is required")
        for snr_db in self.snr_db:
            if np.isnan(snr_db) or snr_db == -np.inf:
                raise ValueError(f"SNR {snr_db} dB has no noise variance; "
                                 "+inf (noiseless) is the only infinite SNR")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if experiment in ("ber-vs-blocks", "ber-vs-users") and len(self.snr_db) > 1:
            raise ValueError(f"{experiment} runs at one SNR point: --snr-db takes one value")
        if experiment in ("ber-vs-snr", "ber-vs-users") and self.eval_blocks < 1:
            raise ValueError(f"{experiment} scores steady-state blocks: --eval-blocks must be >= 1")
        sce_adapts = any(_ALGORITHMS[key].runner is _SceRunner
                         and _ALGORITHMS[key].step is not None for key in self.algo_keys())
        for flag, on in (("--estimated-sigma2", self.use_estimated_sigma2),
                         ("--estimated-k", self.use_estimated_k)):
            if on and experiment in ("estimators", "complexity"):
                raise ValueError(f"{flag} does not apply to the {experiment} experiment")
            if on and not sce_adapts:
                raise ValueError(f"{flag} feeds the adaptive SCE detectors, and scheme "
                                 f"{self.scheme!r} with algorithm {self.algorithm!r} "
                                 "runs none")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def algo_keys(self) -> list[str]:
        return [key for key, algo in _ALGORITHMS.items()
                if self.scheme in ("both", algo.runner.scheme)
                and self.algorithm in ("all", algo.kind)]

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

def _data_rng(cfg: ExperimentConfig, run_idx: int, point_idx: int) -> np.random.Generator:
    return np.random.default_rng([cfg.base_seed, _DATA_STREAM, run_idx, point_idx])


@dataclass
class _Block:
    """One received block per row and what the detectors read from it."""

    z: np.ndarray                   # (..., m) received spectrum
    desired: np.ndarray             # (..., n) desired user's symbols
    normal: sce.NormalEquations | None  # pilot fit's normal equations, for adaptive SCE
    op: da.RxOperator               # received-data operator, for DA and every detection
    estimate: estimators.SubspaceEstimate | None = None  # the trial's, on estimated inputs


class _Runner:
    """One algorithm advanced over a batch of rows: adapt, estimate, detect.

    ``batch`` is the leading shape of the rows, ``(R,)`` or ``()`` for a
    single run; ``users`` and ``sigma2`` are scalars or one value per row.
    An adaptive algorithm gets state of that leading shape; a genie reads
    ``genie``, the MMSE weights of :func:`_genie_weights`, as its
    ``detector``. Every detector decides by applying its length-m weights
    to the block's :class:`da.RxOperator`; subclasses name their scheme,
    step inputs and weights, which read the trial's subspace estimate when
    one is given. :meth:`freeze` builds an adaptive runner's weights once
    and drops its state: it then detects like a genie, and its ``update``
    does nothing.
    """

    scheme = ""

    def __init__(self, algo, cfg, users, sigma2, batch, codes, genie):
        self.kind = algo.kind
        self.step = algo.step
        self.cfg = cfg
        self.users, self.sigma2 = users, sigma2
        self.state = self.detector = None
        if algo.step is None:
            self.detector = genie
        else:
            self.state = algo.new_state(cfg, batch)

    def observe(self, rx: _Block):
        """Does nothing; no runner keeps estimates of its own. It stays as the
        per-block hook that ``perfbench/tracing.py`` times for each detector,
        beside ``detect`` and ``update``."""

    def update(self, rx: _Block):
        if self.state is not None:
            self.step(self.state, *self.step_args(rx))

    def detect(self, rx: _Block):
        return da.detect_da(rx.op, self.weights(rx.estimate))

    def freeze(self, estimate):
        self.detector, self.state = self.weights(estimate), None


class _SceRunner(_Runner):
    """An SCE algorithm; with estimated inputs it builds its weights on the
    trial's one subspace estimate of sigma2 and K, which every adaptive SCE
    runner shares: on every scored block of a training curve, and once when
    a sweep freezes it. Its per-bin equalizer ``d``, followed by despreading
    with the desired code ``c_0``, acts on a received block as the weight
    vector ``conj(d) * despread_bins`` does, with ``despread_bins =
    conj(FFT_m(c_0)) / sqrt(nc)``. Its genie is the DA genie: the per-group
    MMSE detector ``R_g^-1 diag(hbar_g)`` collapses the same way to
    ``conj(R_g^-1 lam_0,g) / sqrt(nc)``."""

    scheme = "sce"

    def __init__(self, algo, cfg, users, sigma2, batch, codes, genie):
        super().__init__(algo, cfg, users, sigma2, batch, codes, genie)
        self.nc, self.m = cfg.spreading, cfg.chips_per_block
        self.despread_bins = np.conj(np.fft.fft(codes[0], self.m)) / np.sqrt(self.nc)

    @staticmethod
    def step_args(rx: _Block):
        return rx.z, rx.normal

    def weights(self, estimate=None):
        if self.state is None:
            return self.detector
        sigma2 = estimate.sigma2 if self.cfg.use_estimated_sigma2 else self.sigma2
        k_used = estimate.k_int if self.cfg.use_estimated_k else self.users
        det = build_mmse_sce(self.state.h_hat, k_used, sigma2, self.nc, self.m)
        return np.conj(det) * self.despread_bins


class _DaRunner(_Runner):
    """A DA algorithm."""

    scheme = "da"

    @staticmethod
    def step_args(rx: _Block):
        return rx.op, rx.desired

    def weights(self, estimate=None):
        return self.detector if self.state is None else self.state.w_hat


@dataclass(frozen=True)
class _Algorithm:
    """One detector: its runner class and, for an adaptive algorithm, its
    state constructor ``new_state(cfg, batch)`` and block step ``step(state,
    *step_args, counter=None)``; without them it is its scheme's genie. The
    lambdas look the module functions up at call time, so wrappers installed
    on the modules apply."""

    kind: str
    runner: type
    new_state: Callable | None = None
    step: Callable | None = None


_ALGORITHMS = {f"{algo.runner.scheme}-{algo.kind}": algo for algo in (
    _Algorithm("lms", _SceRunner,
               lambda cfg, batch: sce.new_lms_state(cfg.cir_taps, cfg.resolved_mu_h, batch),
               lambda *args: sce.sce_lms_step(*args)),
    _Algorithm("rls", _SceRunner,
               lambda cfg, batch: sce.new_rls_state(cfg.cir_taps, cfg.lambda_h,
                                                    cfg.delta_init, batch),
               lambda *args: sce.sce_rls_step(*args)),
    _Algorithm("cg", _SceRunner,
               lambda cfg, batch: sce.new_cg_state(cfg.cir_taps, cfg.cg_iters, batch),
               lambda *args: sce.sce_cg_step(*args)),
    _Algorithm("mmse", _SceRunner),
    _Algorithm("lms", _DaRunner,
               lambda cfg, batch: da.new_lms_state(cfg.chips_per_block, cfg.mu_w, batch),
               lambda *args: da.da_lms_step(*args)),
    _Algorithm("rls", _DaRunner,
               lambda cfg, batch: da.new_rls_state(cfg.block_length, cfg.spreading,
                                                   cfg.lambda_w, cfg.delta_init, batch),
               lambda *args: da.da_rls_step(*args)),
    _Algorithm("cg", _DaRunner,
               lambda cfg, batch: da.new_cg_state(cfg.chips_per_block, cfg.cg_iters, batch),
               lambda *args: da.da_cg_step(*args)),
    _Algorithm("mmse", _DaRunner),
)}
SCHEMES = (*dict.fromkeys(algo.runner.scheme for algo in _ALGORITHMS.values()), "both")
ALGORITHMS = (*dict.fromkeys(algo.kind for algo in _ALGORITHMS.values()), "all")


def _genie_weights(cfg, users, sigma2, taps, codes) -> np.ndarray:
    """MMSE weights of both genies for every row, ``(..., m)``: one
    :func:`da.build_mmse_da` call per distinct (users, sigma2) point, on that
    point's rows, with a noiseless point floored at ``_GENIE_RIDGE``."""
    batch = taps.shape[:-1]
    users, sigma2 = np.broadcast_to(users, batch), np.broadcast_to(sigma2, batch)
    weights = np.empty((*batch, cfg.chips_per_block), dtype=complex)
    for k, s2 in sorted(set(zip(users.flat, sigma2.flat))):
        rows = (users == k) & (sigma2 == s2)
        weights[rows] = da.build_mmse_da(taps[rows], codes[:k], max(s2, _GENIE_RIDGE),
                                         cfg.block_length)
    return weights


def _new_runners(cfg, users, sigma2, taps, codes, algo_keys):
    """One runner per algorithm over the rows of ``taps``; the genies share
    one weight array."""
    taps = np.asarray(taps)
    genie = None
    if any(_ALGORITHMS[key].step is None for key in algo_keys):
        genie = _genie_weights(cfg, users, sigma2, taps, codes)
    return {key: _ALGORITHMS[key].runner(_ALGORITHMS[key], cfg, users, sigma2,
                                         taps.shape[:-1], codes, genie)
            for key in algo_keys}


def _received_blocks(users, n, codes, taps, sigma2, rng, n_blocks, synthesize=True):
    """Yield ``(blocks, z)``, the ``(..., K, n)`` symbols and ``(..., m)``
    spectrum, for each of ``n_blocks`` blocks. ``taps`` is ``(R, L)`` with
    ``rng`` a list of R generators, or ``(L,)`` with one generator; ``users``
    and ``sigma2`` are scalars or one value per row. Each row draws its bits
    (:func:`fdcore.random_bits`), then its noise (:func:`channel.draw_noise`),
    from its own generator; ``K`` is the largest user count, and a row with
    fewer users has all-zero symbols for the others. Without ``synthesize``
    the blocks are only drawn, so every generator ends where it would, and
    nothing is yielded."""
    gens = rng if np.ndim(taps) == 2 else [rng]
    counts = np.broadcast_to(users, len(gens)) * n
    width = int(counts.max())
    drawn = np.arange(width) < counts[:, None]
    ints = np.zeros((len(gens), width), dtype=np.int64)
    for _ in range(n_blocks):
        for g, row, count in zip(gens, ints, counts):
            row[:count] = random_bits(g, count)
        if not synthesize:
            channel.draw_noise(gens, sigma2, n * codes.shape[1])
            continue
        bits = np.where(drawn, ints * 2.0 - 1.0, 0.0)     # as fdcore.random_bpsk
        blocks = bits.reshape(*np.shape(taps)[:-1], -1, n)
        yield blocks, channel.synthesize_rx(blocks, codes, taps, sigma2, rng)


# check_finite reports a diverging row with its context; numpy's warnings would repeat it
@np.errstate(over="ignore", invalid="ignore")
def _simulate_blocks(cfg, users, sigma2, taps, codes, runners, rng, n_blocks,
                     errors_out=None, where=("run",), cov=None) -> dict:
    """Advance every runner over ``n_blocks`` blocks of every row, filling
    ``errors_out`` (``key -> (..., n_blocks)`` error counts). On estimated
    inputs ``cov`` is the trial's :class:`GroupCovariance`: each block is
    folded into it once, and each scored block carries its one subspace
    estimate to every runner. Without ``errors_out`` no block is scored, so
    none is detected; a frozen runner only detects. So when no runner has
    state and no block is scored, nothing reads the blocks, and they are
    only drawn. Runners without state (genies and frozen runners) that hold
    one weight array share its decision on each block.

    ``users``, ``sigma2``, ``taps`` and ``rng`` are as for
    :func:`_received_blocks`. Returns the first divergence of each diverged
    row, ``{row: message}``, the message naming ``where[row]``, the
    algorithm and the block. A diverged row keeps its non-finite state,
    which every later update leaves non-finite, and its later divergences
    are not recorded.
    """
    n = cfg.block_length
    # the genies read no pilot; only the adaptive SCE steps do
    need_pilot = any(isinstance(r, _SceRunner) and r.state is not None
                     for r in runners.values())
    code0 = codes[0]
    diverged = {}
    # a pass that no runner reads is only drawn, and yields no block to this loop
    read = errors_out is not None or any(r.state is not None for r in runners.values())
    for i, (blocks, z) in enumerate(_received_blocks(users, n, codes, taps, sigma2, rng,
                                                      n_blocks, synthesize=read)):
        desired = blocks[..., 0, :]
        normal = (sce.NormalEquations(z, pilot_matrix(spread(desired, code0)), cfg.cir_taps)
                  if need_pilot else None)
        estimate = None
        if cov is not None:
            update_covariance(cov, z)
            if errors_out is not None:
                estimate = subspace_estimate(cov)
        rx = _Block(z, desired, normal, da.RxOperator(z, n), estimate)
        # each runner holds its weight array, so no id is reused within the block
        decided = {}
        for key, runner in runners.items():
            runner.observe(rx)
            if errors_out is not None:
                shared = key if runner.state is not None else id(runner.detector)
                if shared not in decided:
                    decided[shared] = np.count_nonzero(runner.detect(rx) != desired, axis=-1)
                errors_out[key][..., i] = decided[shared]
            try:
                runner.update(rx)
            except DivergenceError as exc:
                for row in exc.rows:
                    diverged.setdefault(
                        int(row), f"{where[row]}, {key}, block {i + 1} of {n_blocks}: {exc}")
    return diverged


def _batch_inputs(cfg, runs):
    """Each run's channel, stacked ``(R, L)``, and the spreading codes. A
    ``cir_file`` is read once and shared by every run."""
    if cfg.cir_file:
        taps = np.repeat(load_cir(cfg.cir_file, cfg.cir_taps)[None], len(runs), axis=0)
    else:
        taps = np.stack([generate_cir(ChannelProfile(
            cfg.cir_taps, cfg.decay_rate, seed=[cfg.base_seed, _CHAN_STREAM, r])) for r in runs])
    return taps, walsh_code_set(cfg.spreading)


def _where(runs, points):
    """Each (run, point) row's context, runs outermost."""
    return [f"run {r}, {snr_db:g} dB SNR, {users} users" for r in runs
            for _, snr_db, users in points]


def _ber_trial(cfg, points, algo_keys, runs, curve=False):
    """Desired-user error counts of a batch of runs at each ``(point_idx,
    snr_db, users)`` point, ``{key: (R, P, blocks)}``. A training curve
    (``curve``) scores every training block, with each runner as it stands
    before that block's update. A sweep trains, freezes every runner, and
    scores ``cfg.eval_blocks`` more blocks.

    Every (run, point) pair is one row, runs outermost: it draws from its
    own generator, keeps its run's channel, and all rows train and are
    scored together. A diverged run raises at its first diverged point; the
    lowest-index diverged run raises."""
    taps, codes = _batch_inputs(cfg, runs)
    row_taps = np.repeat(taps, len(points), axis=0)
    users = np.tile([k for _, _, k in points], len(runs))
    sigma2 = np.tile([cfg.sigma2_for(snr_db) for _, snr_db, _ in points], len(runs))
    rngs = [_data_rng(cfg, r, point_idx) for r in runs for point_idx, _, _ in points]
    runners = _new_runners(cfg, users, sigma2, row_taps, codes, algo_keys)
    scored = cfg.training_blocks if curve else cfg.eval_blocks
    errors = {key: np.zeros((len(rngs), scored), dtype=np.int64) for key in algo_keys}
    cov = (GroupCovariance.empty(cfg.block_length, cfg.spreading, (len(rngs),))
           if cfg.use_estimated_sigma2 or cfg.use_estimated_k else None)
    diverged = _simulate_blocks(cfg, users, sigma2, row_taps, codes, runners, rngs,
                                cfg.training_blocks, errors_out=errors if curve else None,
                                where=_where(runs, points), cov=cov)
    if diverged:
        raise DivergenceError(diverged[min(diverged)])
    if not curve:
        estimate = None if cov is None else subspace_estimate(cov)
        for runner in runners.values():
            runner.freeze(estimate)
        _simulate_blocks(cfg, users, sigma2, row_taps, codes, runners, rngs,
                         cfg.eval_blocks, errors_out=errors)
    return {key: e.reshape(len(runs), len(points), scored) for key, e in errors.items()}


def _sigma2_trial(cfg, points, runs):
    """Noise-variance sweep of a batch of runs: at each ``(point_idx, snr_db,
    users)`` point, the mean over ``cfg.training_blocks`` blocks of the
    degrees-of-freedom corrected maximum-likelihood pilot fit. Returns
    ``{"sigma2": (R, P)}``.

    Each block's pilots are fitted in one call. A degenerate pilot block
    (tiny scales only) fails that call; the block is then refitted row by
    row and the degenerate rows are left out of their runs' means. A run
    with no usable block raises ``LinAlgError``.
    """
    taps, codes = _batch_inputs(cfg, runs)
    out = np.empty((len(runs), len(points)))
    for col, (point_idx, snr_db, users) in enumerate(points):
        rngs = [_data_rng(cfg, r, point_idx) for r in runs]
        total = np.zeros(len(runs))
        used = np.zeros(len(runs), dtype=int)
        for blocks, z in _received_blocks(users, cfg.block_length, codes, taps,
                                          cfg.sigma2_for(snr_db), rngs, cfg.training_blocks):
            xdiag = pilot_matrix(spread(blocks[:, 0], codes[0]))
            try:
                s2, _ = ml_noise_variance(z, xdiag, cfg.cir_taps)
                ok = np.ones(len(runs), dtype=bool)
            except np.linalg.LinAlgError:
                s2, ok = np.zeros(len(runs)), np.zeros(len(runs), dtype=bool)
                for row in range(len(runs)):
                    try:
                        s2[row], _ = ml_noise_variance(z[row], xdiag[row], cfg.cir_taps)
                        ok[row] = True
                    except np.linalg.LinAlgError:
                        pass
            total[ok] += s2[ok]
            used += ok
        if not used.all():
            raise np.linalg.LinAlgError(
                f"run {runs[int(np.argmin(used))]}, {snr_db:g} dB SNR, {users} users: "
                "every pilot block was rank deficient")
        out[:, col] = total / used
    return {"sigma2": out}


def estimator_kcount_trial(cfg: ExperimentConfig, user_set, runs) -> dict:
    """Per-block user-count traces of a batch of runs at the last configured
    SNR, for each user count ``k`` of ``user_set`` in turn: the columns
    ``k_float_genie_k<k>``, ``k_float_est_k<k>`` and ``k_int_est_k<k>``,
    each ``(R, blocks)``.

    Over ``cfg.training_blocks`` blocks this records the genie-input
    power-inversion estimate (true noise variance and channel energy) and
    the estimated-input subspace estimate of the per-group received
    covariance, which reads neither the truth nor a pilot. The estimated
    traces hold the subspace estimator's startup values (its default cap of
    7 users) until more than ``cfg.spreading`` blocks are accumulated and
    never exceed that cap.
    """
    taps, codes = _batch_inputs(cfg, runs)
    sigma2 = cfg.sigma2_for(cfg.snr_db[-1])
    n, nc, m = cfg.block_length, cfg.spreading, cfg.chips_per_block
    shape = (len(runs), cfg.training_blocks)
    out = {}
    for users in user_set:
        rngs = [_data_rng(cfg, r, 10_000) for r in runs]
        power = EstimatorState()
        cov = GroupCovariance.empty(n, nc, (len(runs),))
        k_float_genie, k_float_est = np.zeros(shape), np.zeros(shape)
        k_int_est = np.zeros(shape, dtype=np.int64)
        for i, (_, z) in enumerate(_received_blocks(users, n, codes, taps, sigma2, rngs,
                                                     cfg.training_blocks)):
            update_power(power, z)
            k_float_genie[:, i] = estimate_user_count(power.received_power, sigma2, taps, nc, m)
            guess = subspace_estimate(update_covariance(cov, z))
            k_float_est[:, i] = guess.k_float
            k_int_est[:, i] = guess.k_int
        out.update({f"k_float_genie_k{users}": k_float_genie,
                    f"k_float_est_k{users}": k_float_est, f"k_int_est_k{users}": k_int_est})
    return out


def _map_runs(cfg, fn, args_for):
    """Split the runs into one contiguous slice per worker and return the
    per-run results in run order.

    ``args_for(runs)`` builds the arguments of ``fn`` for a list of run
    indices; ``fn(*args)`` returns ``{name: (R, ...) array}`` for the R runs
    of its list, and the slices join along axis 0.
    """
    slices = np.array_split(np.arange(cfg.runs), min(cfg.workers, cfg.runs))
    tasks = [args_for([int(r) for r in part]) for part in slices]
    if len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a split run needs the pool
        with ProcessPoolExecutor(max_workers=len(tasks)) as ex:
            parts = list(ex.map(fn, *zip(*tasks)))
    else:
        parts = [fn(*tasks[0])]
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_ber_vs_blocks(cfg: ExperimentConfig) -> CurveSet:
    """Desired-user BER per training block, averaged over runs."""
    cfg.validate("ber-vs-blocks")
    snr_db = cfg.snr_db[0]
    return _ber_curve(cfg, [(0, snr_db, cfg.users)], "block",
                      np.arange(1, cfg.training_blocks + 1), "ber-vs-blocks", curve=True,
                      snr_db_point=snr_db)


def run_ber_vs_snr(cfg: ExperimentConfig) -> CurveSet:
    """Steady-state BER per SNR point after training at that SNR."""
    cfg.validate("ber-vs-snr")
    points = [(idx, snr, cfg.users) for idx, snr in enumerate(cfg.snr_db)]
    return _ber_curve(cfg, points, "snr_db", np.asarray(cfg.snr_db, dtype=float), "ber-vs-snr")


def run_ber_vs_users(cfg: ExperimentConfig) -> CurveSet:
    """Steady-state BER versus the number of active users at one SNR."""
    cfg.validate("ber-vs-users")
    snr_db = cfg.snr_db[0]
    user_range = list(range(1, cfg.spreading)) or [1]
    points = [(idx, snr_db, k) for idx, k in enumerate(user_range)]
    return _ber_curve(cfg, points, "users", np.asarray(user_range), "ber-vs-users")


def _ber_curve(cfg, points, x_name, x, experiment, curve=False, **meta) -> CurveSet:
    """Mean BER and its standard error over runs, per block of a training
    curve or per point of a sweep."""
    algo_keys = cfg.algo_keys()
    errors = _map_runs(cfg, _ber_trial, lambda runs: (cfg, points, algo_keys, runs, curve))
    out = CurveSet(x_name, x, meta={**cfg.metadata(), "experiment": experiment, **meta})
    n = cfg.block_length
    for key in algo_keys:
        if curve:
            per_run = errors[key][:, 0] / n                                 # (runs, blocks)
        else:
            per_run = errors[key].sum(axis=-1) / (cfg.eval_blocks * n)    # (runs, points)
        out.columns[f"ber_{key}"] = per_run.mean(axis=0)
        out.columns[f"se_{key}"] = _stderr(per_run)
    return out


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
    cfg.validate("estimators")
    user_set_sigma2 = [k for k in (1, 3, 5) if k <= cfg.spreading]
    user_set_kcount = [k for k in (2, 3, 4) if k <= cfg.spreading]
    snrs = np.asarray(cfg.snr_db, dtype=float)

    sigma2_curve = CurveSet("snr_db", snrs,
                            meta={**cfg.metadata(), "experiment": "estimators-sigma2"})
    sigma2_curve.columns["sigma2_theory"] = np.array(
        [cfg.sigma2_for(s) for s in snrs])
    # the SNR index seeds a cell's blocks, whatever its user count
    points = [(idx, float(snr), k) for k in user_set_sigma2 for idx, snr in enumerate(snrs)]
    per_run = _map_runs(cfg, _sigma2_trial, lambda runs: (cfg, points, runs))["sigma2"]
    cells = per_run.T.reshape(len(user_set_sigma2), len(snrs), cfg.runs)
    for k, means in zip(user_set_sigma2, cells.mean(axis=-1)):
        sigma2_curve.columns[f"sigma2_hat_k{k}"] = means

    kcount_curve = CurveSet("block", np.arange(1, cfg.training_blocks + 1),
                            meta={**cfg.metadata(), "experiment": "estimators-kcount",
                                  "snr_db_point": cfg.snr_db[-1]})
    traces = _map_runs(cfg, estimator_kcount_trial, lambda runs: (cfg, user_set_kcount, runs))
    for name, per_run in traces.items():
        kcount_curve.columns[name] = per_run.astype(float).mean(axis=0)
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
        return all(row.match and row.adds_match for row in self.rows)

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
        mults_ok = all(r.match for r in self.rows)
        adds_ok = all(r.adds_match for r in self.rows)
        lines.append("all multiply counts match: " + ("yes" if mults_ok else "NO"))
        lines.append("all add counts match: " + ("yes" if adds_ok else "NO"))
        return "\n".join(lines)


def _measured_step_cost(algo, n, nc, num_taps, iters, rng) -> tuple[int, int]:
    m = n * nc
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    xdiag = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    b = random_bpsk(rng, n)
    entry = _ALGORITHMS.get(algo)
    if entry is None or entry.step is None:
        raise ValueError(f"unknown adaptive algorithm {algo!r}")
    # the tallies depend on the sizes only, not on step sizes or forgetting factors
    cfg = ExperimentConfig(block_length=n, spreading=nc, cir_taps=num_taps, cg_iters=iters)
    rx = _Block(z, b, sce.NormalEquations(z, xdiag, num_taps), da.RxOperator(z, n))
    counter = OpCounter()
    entry.step(entry.new_state(cfg, ()), *entry.runner.step_args(rx), counter)
    return counter.snapshot()


def verify_complexity(cfg: ExperimentConfig, spreading_gains=(1, 2, 4, 8),
                      cg_iters=(2, 8)) -> ComplexityReport:
    """Run every algorithm for one instrumented block per parameter point and
    compare the measured operation tallies against the closed-form model."""
    cfg.validate("complexity")
    n, num_taps = cfg.block_length, cfg.cir_taps
    rng = np.random.default_rng(cfg.base_seed)
    rows = []
    for nc in spreading_gains:
        m = n * nc
        for c in (0, *cg_iters):        # the direct steps, then CG at each iteration count
            for algo, entry in _ALGORITHMS.items():
                if entry.step is not None and (entry.kind == "cg") == (c > 0):
                    exp_m, exp_a = nominal_cost(algo, m=m, n=n, nc=nc, taps=num_taps, iters=c)
                    got_m, got_a = _measured_step_cost(algo, n, nc, num_taps, c, rng)
                    rows.append(ComplexityRow(algo, nc, c, m, exp_m, got_m, exp_a, got_a))
    return ComplexityReport(rows=rows, block_length=n, cir_taps=num_taps)
