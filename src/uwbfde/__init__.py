"""Baseband simulator and library for multiuser spread-spectrum downlink
detection with single-carrier frequency-domain equalization.

Two detector families share the signal-chain primitives in :mod:`fdcore`:

* :mod:`uwbfde.sce` estimates the short channel tap vector adaptively and
  builds a per-bin MMSE equalizer from it (despreading in the time domain);
* :mod:`uwbfde.da` adapts a single frequency-domain filter that suppresses
  intersymbol and multiple-access interference jointly.

Both come with LMS, RLS and conjugate-gradient updates plus a genie MMSE
baseline, one weight vector that serves both families, solved one symbol
group at a time through the kernel in :mod:`fdcore`; :mod:`uwbfde.estimators` supplies the noise-variance and
active-user-count estimates the first family needs, and
:mod:`uwbfde.harness` runs seeded Monte-Carlo experiments around it all.
"""

from .channel import ChannelProfile, generate_cir, load_cir, synthesize_rx
from .fdcore import DivergenceError, circulant_apply, despread, spread, walsh_code_set
from .harness import (
    CurveSet,
    ExperimentConfig,
    run_ber_vs_blocks,
    run_ber_vs_snr,
    run_ber_vs_users,
    run_estimator_curves,
    verify_complexity,
)
from .opcount import OpCounter, nominal_cost

__version__ = "0.1.0"

__all__ = [
    "ChannelProfile",
    "CurveSet",
    "DivergenceError",
    "ExperimentConfig",
    "OpCounter",
    "circulant_apply",
    "despread",
    "generate_cir",
    "load_cir",
    "nominal_cost",
    "run_ber_vs_blocks",
    "run_ber_vs_snr",
    "run_ber_vs_users",
    "run_estimator_curves",
    "spread",
    "synthesize_rx",
    "verify_complexity",
    "walsh_code_set",
]
