"""Baseband simulator and library for multiuser spread-spectrum downlink
detection with single-carrier frequency-domain equalization.

Two detector families share the signal-chain primitives in :mod:`fdcore`:

* :mod:`uwbfde.sce` estimates the short channel tap vector adaptively and
  builds a per-bin MMSE equalizer from it;
* :mod:`uwbfde.da` adapts a single frequency-domain filter that suppresses
  intersymbol and multiple-access interference jointly.

Both come with LMS, RLS and conjugate-gradient updates plus a genie MMSE
baseline, one weight vector that serves both families, solved one symbol
group at a time through the kernel in :mod:`fdcore`. All eight detectors
decide through :func:`da.detect_da` on a length-m weight vector: SCE's
equalizer and time-domain despreading are applied as one such vector.
:mod:`uwbfde.estimators` supplies the noise-variance and active-user-count
estimates the first family needs, and :mod:`uwbfde.harness` runs seeded
Monte-Carlo experiments around it all. Callers import the submodules.
"""
