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
* Every trial runs on one row axis: a row is one (run, point) pair, runs
  outermost, with its own generator, user count and noise variance and its
  run's channel. :func:`_map_rows` cuts a trial's rows into contiguous,
  balanced chunks of at most ``_MAX_ROWS`` rows, and a chunk's rows advance
  together, as the rows of ``(R, ...)`` arrays, through synthesis, the
  adaptive steps, the genie builds, detection and the estimators. The
  channels and their spectra are built once per trial. A chunk
  (:class:`_Rows`) carries its rows' inputs and generators, and it is the
  one input of the block source, the block loop, the adaptive states and
  the genie build; a sweep's scoring pass continues the generators of its
  training pass. A trial returns ``{name: (runs, points, ...)}`` arrays.
  Every BER experiment runs one trial, :func:`_ber_trial`. A training
  curve (``ber-vs-blocks``) has one point and scores every training block.
  A steady-state sweep (``ber-vs-snr``, ``ber-vs-users``) trains every
  point of a chunk in one pass, freezes every detector's weights (one
  stacked build of the adaptive SCE weights, then every state is dropped),
  and scores ``eval_blocks`` more blocks. The ``estimators`` noise-variance
  sweep and user-count traces put their points on the same axis.
  ``--workers`` deals the chunks to worker processes in contiguous groups,
  and the chunks' results join in row order. Every row is computed as it
  would be alone, so output is byte-identical for any worker count and
  chunk size.
* On estimated inputs a BER trial folds each training block once into one
  per-group covariance of its rows, and every adaptive SCE detector builds
  its weights on the one subspace estimate taken from it.
* A pass that nothing reads (no adaptive state and no scored block, as in
  a genie-only sweep's training) is drawn, not synthesized: each row
  draws its bits, then its noise, so its generator ends where synthesis
  would leave it.
* All eight detectors decide through one kernel, :func:`da.detect_da`: each
  supplies one length-m weight vector per row. An SCE detector's
  per-bin equalizer followed by time-domain despreading with the desired
  code is the weight vector ``conj(d) * conj(FFT_m(c_0)) / sqrt(nc)``.
  Both genies apply one MMSE weight vector per row (:func:`da.build_mmse_da`,
  built once per sweep point). A chunk's adaptive states are built once,
  with one buffer of every detector's weights where the genies share a slot
  (:class:`_Runners`), and one :func:`da.detect_da` call on it decides every
  detector on a scored block. The block loop steps each adaptive state by
  its key in :data:`_ALGORITHMS`.
* A diverging row is recorded at its first non-finite update. It stays
  non-finite, which touches no other row, and its later divergences are not
  recorded while the other rows of its chunk finish. The experiment then
  raises for the lowest-index diverged run at its first diverged point,
  naming the point, algorithm and block; so does a noise-variance row
  without a usable pilot block.
* Every experiment function first calls ``cfg.validate(<its name>)``, the
  one place that refuses a config value that cannot run or that the
  experiment would ignore (README lists the ignored values it still
  accepts); the CLI adds only its ``--check`` rule.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import channel, da, sce
from .channel import ChannelProfile, generate_cir, load_cir
from .estimators import (
    GroupCovariance,
    estimate_user_count,
    ml_noise_variance,
    subspace_estimate,
    update_covariance,
)
from .fdcore import (
    DivergenceError,
    random_bpsk,
    reads_raw_words,
    spread,
    tap_spectrum,
    walsh_code_set,
)
from .opcount import OpCounter, nominal_cost
from .sce import build_mmse_sce, pilot_matrix

_CHAN_STREAM = 7919
_DATA_STREAM = 104729
_GENIE_RIDGE = 1e-12         # noise floor substituted for exactly noiseless genie runs
_CHIP_SECONDS = 0.375e-9

EXPERIMENTS = ("ber-vs-blocks", "ber-vs-snr", "ber-vs-users", "estimators", "complexity")
KCOUNT_USERS = (2, 3, 4)     # user counts of the estimators experiment's kcount traces


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
        accept and then ignore (not yet every such value; see README).
        Every experiment function calls this first."""
        if self.spreading < 1 or (self.spreading & (self.spreading - 1)) != 0:
            raise ValueError(f"spreading gain must be a power of two, got {self.spreading}")
        if experiment == "estimators" and self.spreading < min(KCOUNT_USERS):
            raise ValueError(f"--spreading {self.spreading} is below every kcount user "
                             f"count {KCOUNT_USERS}")
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
        sce_adapts = any(_ALGORITHMS[key].scheme == "sce" and _ALGORITHMS[key].step is not None
                         for key in self.algo_keys())
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
                if self.scheme in ("both", algo.scheme)
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


@dataclass(frozen=True)
class _Algorithm:
    """One detector: its ``scheme`` (``"sce"`` or ``"da"``), ``kind`` and, for
    an adaptive algorithm, its state constructor ``new_state(cfg, batch)``
    and block step ``step(state, rx, counter=None)`` on a :class:`_Block`,
    which the block loop calls by key on the state its :class:`_Runners`
    holds; without them it is its scheme's genie. Each step calls one
    module function, ``sce.sce_<kind>_step`` or ``da.da_<kind>_step``,
    looked up at call time, so wrappers installed on the modules apply."""

    scheme: str
    kind: str
    new_state: Callable | None = None
    step: Callable | None = None


_ALGORITHMS = {f"{algo.scheme}-{algo.kind}": algo for algo in (
    _Algorithm("sce", "lms",
               lambda cfg, batch: sce.new_lms_state(cfg.cir_taps, cfg.resolved_mu_h, batch),
               lambda state, rx, *counter: sce.sce_lms_step(state, rx.z, rx.normal, *counter)),
    _Algorithm("sce", "rls",
               lambda cfg, batch: sce.new_rls_state(cfg.cir_taps, cfg.lambda_h,
                                                    cfg.delta_init, batch),
               lambda state, rx, *counter: sce.sce_rls_step(state, rx.z, rx.normal, *counter)),
    _Algorithm("sce", "cg",
               lambda cfg, batch: sce.new_cg_state(cfg.cir_taps, cfg.cg_iters, batch),
               lambda state, rx, *counter: sce.sce_cg_step(state, rx.z, rx.normal, *counter)),
    _Algorithm("sce", "mmse"),
    _Algorithm("da", "lms",
               lambda cfg, batch: da.new_lms_state(cfg.chips_per_block, cfg.mu_w, batch),
               lambda state, rx, *counter: da.da_lms_step(state, rx.op, rx.desired, *counter)),
    _Algorithm("da", "rls",
               lambda cfg, batch: da.new_rls_state(cfg.block_length, cfg.spreading,
                                                   cfg.lambda_w, cfg.delta_init, batch),
               lambda state, rx, *counter: da.da_rls_step(state, rx.op, rx.desired, *counter)),
    _Algorithm("da", "cg",
               lambda cfg, batch: da.new_cg_state(cfg.chips_per_block, cfg.cg_iters, batch),
               lambda state, rx, *counter: da.da_cg_step(state, rx.op, rx.desired, *counter)),
    _Algorithm("da", "mmse"),
)}
SCHEMES = (*dict.fromkeys(algo.scheme for algo in _ALGORITHMS.values()), "both")
ALGORITHMS = (*dict.fromkeys(algo.kind for algo in _ALGORITHMS.values()), "all")


def _genie_weights(cfg, rows) -> np.ndarray:
    """MMSE weights of both genies for every row of a :class:`_Rows` chunk,
    ``(R, m)``: one :func:`da.build_mmse_da` call per distinct (users,
    sigma2) point, on that point's rows, with a noiseless point floored at
    ``_GENIE_RIDGE``. The SCE genie is the DA genie: its per-group MMSE
    detector ``R_g^-1 diag(hbar_g)``, followed by despreading, collapses to
    the weights ``conj(R_g^-1 lam_0,g) / sqrt(nc)``."""
    users, sigma2 = rows.users, rows.sigma2
    weights = np.empty((len(rows), cfg.chips_per_block), dtype=complex)
    for k, s2 in sorted(set(zip(users, sigma2))):
        at = (users == k) & (sigma2 == s2)
        weights[at] = da.build_mmse_da(rows.taps[at], rows.codes[:k], max(s2, _GENIE_RIDGE),
                                       cfg.block_length)
    return weights


class _Runners(dict):
    """The adaptive states of a :class:`_Rows` chunk, ``{key: state}`` with
    one row per chunk row, built once per chunk with ``weights``, one ``(D,
    R, m)`` buffer of every detector's weights, and ``slot``, each key's
    slot in it, in :data:`_ALGORITHMS` order: the S adaptive SCE
    algorithms, the adaptive DA algorithms, then one slot for both genies,
    which :func:`_genie_weights` fills. An SCE ``h_hat`` is its row of the
    ``(S, R, L)`` stack ``taps``, which :meth:`equalize` builds into their
    weights in one :func:`build_mmse_sce` call, and a DA ``w_hat`` is its
    slot, which its step updates in place. A sweep clears the states once
    its weights are frozen. No state refers back to the set."""

    def __init__(self, cfg, rows, algo_keys):
        adaptive = [key for key, algo in _ALGORITHMS.items()
                    if key in algo_keys and algo.step is not None]
        self.slot = {key: adaptive.index(key) if key in adaptive else len(adaptive)
                     for key in algo_keys}
        self.weights = np.empty((len(set(self.slot.values())), len(rows), cfg.chips_per_block),
                                dtype=complex)
        if len(adaptive) < len(algo_keys):
            self.weights[-1] = _genie_weights(cfg, rows)
        super().__init__((key, _ALGORITHMS[key].new_state(cfg, (len(rows),))) for key in adaptive)
        self.taps = np.array([state.h_hat for key, state in self.items()
                              if _ALGORITHMS[key].scheme == "sce"])
        for key, state in self.items():
            if _ALGORITHMS[key].scheme == "sce":
                state.h_hat = self.taps[self.slot[key]]
            else:
                self.weights[self.slot[key]] = state.w_hat
                state.w_hat = self.weights[self.slot[key]]
        self.cfg, self.users, self.sigma2 = cfg, rows.users, rows.sigma2
        self.despread_bins = (np.conj(tap_spectrum(rows.codes[0], cfg.chips_per_block))
                              / np.sqrt(cfg.spreading))

    def equalize(self, cov):
        """Rebuild the adaptive SCE slots, ``conj(d) * despread_bins``, on
        the tap stack in one :func:`build_mmse_sce` call. On estimated
        inputs they read the one subspace estimate of the trial's
        :class:`GroupCovariance` ``cov``."""
        estimate = None if cov is None else subspace_estimate(cov)
        sigma2 = estimate.sigma2 if self.cfg.use_estimated_sigma2 else self.sigma2
        k_used = estimate.k_int if self.cfg.use_estimated_k else self.users
        det = build_mmse_sce(self.taps, k_used, sigma2, self.cfg.spreading,
                             self.cfg.chips_per_block)
        np.multiply(np.conj(det), self.despread_bins, out=self.weights[:len(self.taps)])


def _received_blocks(rows, n, n_blocks, synthesize=True):
    """Yield ``(blocks, z)``, the ``(R, K, n)`` symbols and ``(R, m)``
    spectrum, for each of ``n_blocks`` blocks of a :class:`_Rows` chunk,
    which carries each row's users, noise variance, channel spectrum and
    generator. Each row draws its bits, the values of
    :func:`fdcore.random_bits` (raw words land in one buffer, read once per
    block), then its noise (:func:`channel.draw_noise`), from its own
    generator; ``K`` is the largest user count, and a row with fewer users
    has all-zero symbols for the others. Without ``synthesize`` the blocks
    are only drawn, so every generator ends where it would, and nothing is
    yielded."""
    gens, sigma2 = rows.rngs, rows.sigma2
    counts = rows.users * n
    width = int(counts.max())
    drawn = np.arange(width) < counts[:, None]
    raw = [reads_raw_words(g, count) for g, count in zip(gens, counts)]
    words = np.zeros((len(gens), (width + 1) // 2), dtype="<u8")
    for _ in range(n_blocks):
        drawn_ints = {}
        for row, (g, count, fast) in enumerate(zip(gens, counts, raw)):
            if fast:
                words[row, :count // 2] = g.bit_generator.random_raw(count // 2)
            else:
                drawn_ints[row] = g.integers(0, 2, count)
        if not synthesize:
            channel.draw_noise(gens, sigma2, n * rows.codes.shape[1])
            continue
        ints = (words.view("<u4") >> 31)[:, :width]        # low half first
        for row, values in drawn_ints.items():
            ints[row, :values.size] = values
        bits = np.where(drawn, ints * 2.0 - 1.0, 0.0)     # as fdcore.random_bpsk
        blocks = bits.reshape(len(gens), -1, n)
        yield blocks, channel.synthesize_rx(blocks, rows.codes, rows.taps, sigma2, gens,
                                            rows.spectrum)


# check_finite reports a diverging row with its context; numpy's warnings would repeat it
@np.errstate(over="ignore", invalid="ignore")
def _simulate_blocks(cfg, rows, runners, n_blocks, errors_out=None, cov=None) -> dict:
    """Advance every detector over ``n_blocks`` blocks of every row of a
    :class:`_Rows` chunk, which carries the rows' inputs and generators
    (:func:`_received_blocks`), filling ``errors_out`` (the ``(D, R,
    n_blocks)`` error counts of the weight slots). Each block steps every
    state of ``runners`` once, by key, through ``_ALGORITHMS[key].step``. On
    estimated inputs ``cov`` is the trial's :class:`GroupCovariance`: each
    block is folded into it once, and each scored block builds the adaptive
    SCE weights on its one subspace estimate. Without ``errors_out`` no
    block is scored, so none is detected. So when ``runners`` holds no state
    and no block is scored, nothing reads the blocks, and they are only
    drawn. A scored block is decided for every detector before any step, in
    one :func:`da.detect_da` call on the ``runners`` buffer, after one
    :meth:`_Runners.equalize` while the SCE states adapt.

    Returns the first divergence of each diverged row, ``{row: message}``,
    the message naming the row's run and point (``rows.where``), the
    algorithm and the block. A diverged row keeps its non-finite state,
    which every later update leaves non-finite, and its later divergences
    are not recorded.
    """
    n = cfg.block_length
    adapting = bool(runners)
    # the genies read no pilot; only the adaptive SCE steps do
    sce_adapts = adapting and len(runners.taps) > 0
    code0 = rows.codes[0]
    diverged = {}
    # a pass that nothing reads is only drawn, and yields no block to this loop
    read = errors_out is not None or adapting
    for i, (blocks, z) in enumerate(_received_blocks(rows, n, n_blocks, read)):
        desired = blocks[:, 0]
        normal = (sce.NormalEquations(z, pilot_matrix(spread(desired, code0)), cfg.cir_taps)
                  if sce_adapts else None)
        if cov is not None:
            update_covariance(cov, z)
        rx = _Block(z, desired, normal, da.RxOperator(z, n))
        if errors_out is not None:
            if sce_adapts:
                runners.equalize(cov)
            errors_out[..., i] = np.count_nonzero(da.detect_da(rx.op, runners.weights) != desired,
                                                  axis=-1)
        for key, state in runners.items():
            try:
                _ALGORITHMS[key].step(state, rx)
            except DivergenceError as exc:
                for row in exc.rows:
                    diverged.setdefault(int(row), f"{rows.where[row]}, {key}, "
                                                  f"block {i + 1} of {n_blocks}: {exc}")
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


# rows one chunk advances at once: it bounds what a worker holds, while wider
# chunks cost less per row (the cap sweep is recorded in CHANGES.md)
_MAX_ROWS = 40


@dataclass
class _Rows:
    """A contiguous chunk of a trial's (run, point) rows, runs outermost:
    each row's run and ``(point_idx, snr_db, users)`` point, its run's taps
    ``(R, L)`` and their m-bin spectrum ``(R, m)``, the spreading codes, and
    each row's data generator, which every pass over the chunk continues."""

    runs: list
    points: list
    taps: np.ndarray
    spectrum: np.ndarray
    codes: np.ndarray
    rngs: list

    def __len__(self):
        return len(self.runs)

    @property
    def users(self) -> np.ndarray:
        return np.array([k for _, _, k in self.points])

    @property
    def sigma2(self) -> np.ndarray:
        return np.array([ExperimentConfig.sigma2_for(snr_db) for _, snr_db, _ in self.points])

    @property
    def where(self) -> list[str]:
        """Each row's context in error messages."""
        return [f"run {r}, {snr_db:g} dB SNR, {users} users"
                for r, (_, snr_db, users) in zip(self.runs, self.points)]


def _plan_chunks(rows: int, workers: int) -> list[list[range]]:
    """Cut ``rows`` rows into contiguous, balanced chunks of at most
    ``_MAX_ROWS`` rows, at least one per worker where the rows allow, and
    deal them to at most ``workers`` workers as contiguous groups."""
    count = max(-(-rows // _MAX_ROWS), min(workers, rows))
    chunks = [range(part[0], part[-1] + 1) for part in np.array_split(np.arange(rows), count)]
    return [chunks[group[0]:group[-1] + 1]
            for group in np.array_split(np.arange(count), min(workers, count))]


def _map_rows(cfg, trial, points, runs, *args) -> dict:
    """Advance every (run, point) row of ``runs`` x ``points``, runs
    outermost, through ``trial(cfg, rows, *args)`` one :class:`_Rows` chunk
    at a time (:func:`_plan_chunks`, one contiguous group of chunks per
    worker process), and join the chunks' ``{name: (rows, ...)}`` results
    in row order as ``{name: (runs, points, ...)}``; no rows give ``{}``.
    The channels and their spectra are built (a ``cir_file`` read) once per
    trial, and each row's generator once per chunk. A chunk raises for its
    lowest failed row, so the trial's lowest failed row raises."""
    if not points:
        return {}
    taps, codes = _batch_inputs(cfg, runs)
    inputs = (list(runs), list(points), taps, tap_spectrum(taps, cfg.chips_per_block), codes)
    groups = _plan_chunks(len(runs) * len(points), cfg.workers)
    if len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a split run needs the pool
        with ProcessPoolExecutor(max_workers=len(groups)) as ex:
            parts = [part for group in ex.map(_run_chunks, [cfg] * len(groups),
                                              [trial] * len(groups), [inputs] * len(groups),
                                              groups, [args] * len(groups)) for part in group]
    else:
        parts = _run_chunks(cfg, trial, inputs, groups[0], args)
    joined = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    return {name: v.reshape(len(runs), len(points), *v.shape[1:]) for name, v in joined.items()}


def _run_chunks(cfg, trial, inputs, chunks, args) -> list[dict]:
    """One worker's chunks, in row order, each built as it runs."""
    runs, points, taps, spectrum, codes = inputs
    parts = []
    for chunk in chunks:
        run_of = [row // len(points) for row in chunk]
        row_runs = [runs[i] for i in run_of]
        row_points = [points[row % len(points)] for row in chunk]
        rngs = [_data_rng(cfg, r, point[0]) for r, point in zip(row_runs, row_points)]
        parts.append(trial(cfg, _Rows(row_runs, row_points, taps[run_of], spectrum[run_of],
                                      codes, rngs), *args))
    return parts


def _ber_trial(cfg, points, algo_keys, runs, curve=False):
    """Desired-user error counts of a batch of runs at each ``(point_idx,
    snr_db, users)`` point, ``{key: (R, P, blocks)}``. A training curve
    (``curve``) scores every training block, with each detector as it
    stands before that block's step. A sweep trains, freezes every
    detector's weights, and scores ``cfg.eval_blocks`` more blocks.

    Every (run, point) pair is one row (:func:`_map_rows`): it draws from
    its own generator and keeps its run's channel. A diverged run raises at
    its first diverged point; the lowest-index diverged run raises."""
    return _map_rows(cfg, _ber_rows, points, runs, algo_keys, curve)


def _ber_rows(cfg, rows, algo_keys, curve):
    """:func:`_ber_trial` on one chunk of rows, which all train and are
    scored together, on one :class:`_Runners`: ``{key: (rows, blocks)}``,
    the tally of the key's weight slot. A sweep's freeze is the scored
    block's one stacked build of the adaptive SCE weights, made once after
    training, followed by ``runners.clear()``; each detector then decides on
    its slot as it stands."""
    runners = _Runners(cfg, rows, algo_keys)
    scored = cfg.training_blocks if curve else cfg.eval_blocks
    errors = np.zeros((len(runners.weights), len(rows), scored), dtype=np.int64)
    cov = (GroupCovariance.empty(cfg.block_length, cfg.spreading, (len(rows),))
           if cfg.use_estimated_sigma2 or cfg.use_estimated_k else None)
    diverged = _simulate_blocks(cfg, rows, runners, cfg.training_blocks,
                                errors_out=errors if curve else None, cov=cov)
    if diverged:
        raise DivergenceError(diverged[min(diverged)])
    if not curve:
        if len(runners.taps):
            runners.equalize(cov)
        runners.clear()
        _simulate_blocks(cfg, rows, runners, cfg.eval_blocks, errors_out=errors)
    return {key: errors[slot] for key, slot in runners.slot.items()}


def _sigma2_trial(cfg, points, runs):
    """Noise-variance sweep of a batch of runs: at each ``(point_idx, snr_db,
    users)`` point, the mean over ``cfg.training_blocks`` blocks of the
    degrees-of-freedom corrected maximum-likelihood pilot fit. Returns
    ``{"sigma2": (R, P)}``; every (run, point) pair is one row
    (:func:`_map_rows`).

    Each block's pilots are fitted in one call per chunk of rows. A
    degenerate pilot block (tiny scales only) fails that call; the block is
    then refitted row by row and the degenerate rows are left out of their
    means. The lowest row with no usable block raises ``LinAlgError``.
    """
    return _map_rows(cfg, _sigma2_rows, points, runs)


def _sigma2_rows(cfg, rows):
    """:func:`_sigma2_trial` on one chunk of rows: ``{"sigma2": (rows,)}``."""
    total = np.zeros(len(rows))
    used = np.zeros(len(rows), dtype=int)
    code0 = rows.codes[0]
    for blocks, z in _received_blocks(rows, cfg.block_length, cfg.training_blocks):
        xdiag = pilot_matrix(spread(blocks[:, 0], code0))
        try:
            s2, _ = ml_noise_variance(z, xdiag, cfg.cir_taps)
            ok = np.ones(len(rows), dtype=bool)
        except np.linalg.LinAlgError:
            s2, ok = np.zeros(len(rows)), np.zeros(len(rows), dtype=bool)
            for row in range(len(rows)):
                try:
                    s2[row], _ = ml_noise_variance(z[row], xdiag[row], cfg.cir_taps)
                    ok[row] = True
                except np.linalg.LinAlgError:
                    pass
        total[ok] += s2[ok]
        used += ok
    if not used.all():
        raise np.linalg.LinAlgError(f"{rows.where[int(np.argmin(used))]}: "
                                    "every pilot block was rank deficient")
    return {"sigma2": total / used}


def estimator_kcount_trial(cfg: ExperimentConfig, user_set, runs) -> dict:
    """Per-block user-count traces of a batch of runs at the last configured
    SNR, for each user count ``k`` of ``user_set``: the columns
    ``k_float_genie_k<k>``, ``k_float_est_k<k>`` and ``k_int_est_k<k>``,
    each ``(R, blocks)``. Every (run, user count) pair is one row
    (:func:`_map_rows`); a run's rows share its generator seed.

    Over ``cfg.training_blocks`` blocks each row folds its blocks into one
    per-group received covariance and records two estimates read off it: the
    genie-input power inversion (the covariance's received power, with the
    true noise variance and channel energy) and the estimated-input subspace
    estimate, which reads neither the truth nor a pilot. The estimated
    traces hold the subspace estimator's startup values (its default cap of
    7 users) until more than ``cfg.spreading`` blocks are accumulated and
    never exceed that cap.
    """
    points = [(10_000, cfg.snr_db[-1], users) for users in user_set]
    traces = _map_rows(cfg, _kcount_rows, points, runs)
    return {f"{name}_k{users}": trace[:, col]
            for col, users in enumerate(user_set) for name, trace in traces.items()}


def _kcount_rows(cfg, rows):
    """:func:`estimator_kcount_trial` on one chunk of rows:
    ``{"k_float_genie" | "k_float_est" | "k_int_est": (rows, blocks)}``."""
    n, nc, m = cfg.block_length, cfg.spreading, cfg.chips_per_block
    sigma2 = rows.sigma2
    shape = (len(rows), cfg.training_blocks)
    cov = GroupCovariance.empty(n, nc, (len(rows),))
    k_float_genie, k_float_est = np.zeros(shape), np.zeros(shape)
    k_int_est = np.zeros(shape, dtype=np.int64)
    for i, (_, z) in enumerate(_received_blocks(rows, n, cfg.training_blocks)):
        update_covariance(cov, z)
        k_float_genie[:, i] = estimate_user_count(cov.received_power * m, sigma2, rows.spectrum, nc)
        guess = subspace_estimate(cov)
        k_float_est[:, i] = guess.k_float
        k_int_est[:, i] = guess.k_int
    return {"k_float_genie": k_float_genie, "k_float_est": k_float_est,
            "k_int_est": k_int_est}


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
    errors = _ber_trial(cfg, points, algo_keys, list(range(cfg.runs)), curve)
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
    user_set_kcount = [k for k in KCOUNT_USERS if k <= cfg.spreading]
    snrs = np.asarray(cfg.snr_db, dtype=float)

    sigma2_curve = CurveSet("snr_db", snrs,
                            meta={**cfg.metadata(), "experiment": "estimators-sigma2"})
    sigma2_curve.columns["sigma2_theory"] = np.array(
        [cfg.sigma2_for(s) for s in snrs])
    # the SNR index seeds a cell's blocks, whatever its user count
    points = [(idx, float(snr), k) for k in user_set_sigma2 for idx, snr in enumerate(snrs)]
    per_run = _sigma2_trial(cfg, points, list(range(cfg.runs)))["sigma2"]
    cells = per_run.T.reshape(len(user_set_sigma2), len(snrs), cfg.runs)
    for k, means in zip(user_set_sigma2, cells.mean(axis=-1)):
        sigma2_curve.columns[f"sigma2_hat_k{k}"] = means

    kcount_curve = CurveSet("block", np.arange(1, cfg.training_blocks + 1),
                            meta={**cfg.metadata(), "experiment": "estimators-kcount",
                                  "snr_db_point": cfg.snr_db[-1]})
    traces = estimator_kcount_trial(cfg, user_set_kcount, list(range(cfg.runs)))
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
    entry.step(entry.new_state(cfg, ()), rx, counter)
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
