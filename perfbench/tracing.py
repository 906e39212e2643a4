"""Span tracing installed from outside the program, for the per-layer run.

The tracer replaces the public functions that ``uwbfde.harness`` calls into
each layer with timing wrappers, in every module namespace that binds them,
and puts the originals back afterwards. Spans are kept in memory as tuples
``(name, start, end, parent, call, failed)`` and written out by the caller
between experiment calls, never inside one.

Span names:

* ``cli.main`` and ``harness.<runner>``: one experiment call and the
  experiment function it dispatches to;
* ``detector.<scheme>-<kind>``: one runner method (observe, detect or
  update) of one detector instance, used to attribute time per detector;
* ``channel.*``, ``sce.*``, ``da.*``, ``estimators.*``: the layer functions;
  the dense-detector calls of ``sce.detect_sce`` are named
  ``sce.detect_sce.dense`` and pooled into ``sce.detect_sce``;
* ``fdcore.*``: the signal-chain primitives as called from the layers above
  (child spans).
"""

from __future__ import annotations

import functools
import inspect
import math
import time

import numpy as np

# Layer functions reached from the harness: (module, attribute).
LAYER_TARGETS = (
    ("channel", "synthesize_rx"),
    ("sce", "sce_lms_step"),
    ("sce", "sce_rls_step"),
    ("sce", "sce_cg_step"),
    ("sce", "build_mmse_sce"),
    ("sce", "build_mmse_sce_exact"),
    ("sce", "detect_sce"),
    ("sce", "pilot_matrix"),
    ("da", "da_lms_step"),
    ("da", "da_rls_step"),
    ("da", "da_cg_step"),
    ("da", "build_mmse_da"),
    ("da", "detect_da"),
    ("estimators", "ml_noise_variance"),
    ("estimators", "estimate_user_count"),
    ("estimators", "update_power"),
)
# Layer spans reported per function; ``da.RxOperator`` is its constructor.
LAYER_SPANS = tuple(f"{mod}.{name}" for mod, name in LAYER_TARGETS) + ("da.RxOperator",)
# Modules whose fdcore imports are wrapped as child spans.
FDCORE_CALLERS = ("channel", "sce", "da", "estimators")
# Modules searched for other bindings of a wrapped function.
ALIAS_MODULES = ("cli", "harness", "channel", "sce", "da", "estimators")
DETECTOR_KEYS = ("sce-lms", "sce-rls", "sce-cg", "sce-mmse",
                 "da-lms", "da-rls", "da-cg", "da-mmse")
RUNNER_METHODS = (("_SceRunner", "sce", ("observe", "detect", "update")),
                  ("_DaRunner", "da", ("detect", "update")))
_MARK = "__bench_span__"


def _modules():
    import importlib
    return {name: importlib.import_module(f"uwbfde.{name}")
            for name in ("cli", "harness", "channel", "sce", "da", "estimators", "fdcore")}


class Tracer:
    """Installs span wrappers, collects spans, and restores the program."""

    def __init__(self):
        self.spans = []
        self.call = 0
        self.missing = []
        self._stack = []
        self._patches = []          # (owner, attr, original, owned)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self
        label = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label(args), t0, t1, parent, tracer.call, failed)

        setattr(traced, _MARK, True)
        return traced

    def _patch(self, owner, attr, wrapper):
        owned = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, mods, original, wrapper):
        for mod_name in ALIAS_MODULES:
            mod = mods[mod_name]
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        """Wrap every target; names that no longer exist go to ``missing``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing.clear()
        mods = _modules()
        cli, harness, da = mods["cli"], mods["harness"], mods["da"]
        self._patch(cli, "main", self._wrap(cli.main, "cli.main"))
        # experiment functions dispatched by the CLI
        for attr, value in list(vars(cli).items()):
            if inspect.isfunction(value) and value.__module__ == "uwbfde.harness":
                self._patch(cli, attr, self._wrap(value, f"harness.{attr}"))
        # fdcore primitives as seen from the layers (leaf spans)
        for mod_name in FDCORE_CALLERS:
            mod = mods[mod_name]
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value.__module__ == "uwbfde.fdcore":
                    self._patch(mod, attr, self._wrap(value, f"fdcore.{attr}"))
        # layer functions, in every namespace that binds them
        for mod_name, attr in LAYER_TARGETS:
            original = getattr(mods[mod_name], attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            name = f"{mod_name}.{attr}"
            if attr == "detect_sce":
                name = _detect_sce_label
            self._patch_everywhere(mods, original, self._wrap(original, name))
        rx = getattr(da, "RxOperator", None)
        if rx is None:
            self.missing.append("da.RxOperator")
        else:
            self._patch(rx, "__init__", self._wrap(rx.__init__, "da.RxOperator"))
        # per-detector attribution through the harness runner methods
        for cls_name, scheme, methods in RUNNER_METHODS:
            cls = getattr(harness, cls_name, None)
            for method in methods:
                if cls is None or not hasattr(cls, method):
                    self.missing.append(f"harness.{cls_name}.{method}")
                    continue
                label = functools.partial(_detector_label, scheme)
                self._patch(cls, method, self._wrap(getattr(cls, method), label))

    def uninstall(self):
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        leftovers = find_wrappers()
        if leftovers:
            raise RuntimeError(f"span wrappers left installed: {leftovers}")

    def take_spans(self):
        spans = self.spans[:]
        self.spans.clear()
        return spans


def _detect_sce_label(args):
    detector = args[1] if len(args) > 1 else None
    return "sce.detect_sce.dense" if np.ndim(detector) == 2 else "sce.detect_sce"


def _detector_label(scheme, args):
    return f"detector.{scheme}-{args[0].kind}"


def find_wrappers() -> list[str]:
    """Names in the program's modules (and their classes) bound to a span
    wrapper; empty when the untraced program is in place."""
    found = []
    for mod_name, mod in _modules().items():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod_name}.{attr}")
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, _MARK, False):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found


def write_spans(fh, spans):
    """Append spans as CSV rows: name,start_us,end_us,parent,call,failed.

    ``parent`` is the row index of the parent span counted from the first
    row of the same ``call`` (-1 for none); times are ``perf_counter`` in
    microseconds."""
    for name, t0, t1, parent, call, failed in spans:
        fh.write(f"{name},{t0 * 1e6:.1f},{t1 * 1e6:.1f},{parent},{call},{int(failed)}\n")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _tail_percentile(count: int) -> float:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it (p50
    when there are fewer than a hundred samples)."""
    best = 50.0
    for p in (90.0, 99.0, 99.9):
        if count * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


class LayerStats:
    """Per-layer figures pooled over the traced experiment calls."""

    def __init__(self, blocks_per_call: int):
        self.blocks_per_call = blocks_per_call
        self.calls = 0
        self.wall = 0.0
        self.cli_self = []
        self.durations = {}         # layer span -> list of seconds
        self.failed = {}            # layer span -> failed count
        self.dense_detect = 0.0
        self.detector = dict.fromkeys(DETECTOR_KEYS, 0.0)
        self.fdcore_calls = 0
        self.fdcore_time = 0.0
        self.harness_self = 0.0

    def add_call(self, spans):
        """Fold the spans of one traced experiment call; parent indices
        point into ``spans``, which is in start order.

        A span's self time is its duration minus that of its child spans.
        The harness's own time is the self time of the experiment and
        detector spans: wall minus the top-level layer spans.
        """
        durs = [t1 - t0 for _name, t0, t1, *_rest in spans]
        child = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                child[span[3]] += durs[i]
        root = runner = None
        for i, (name, _t0, _t1, _parent, _call, failed) in enumerate(spans):
            dur, self_time = durs[i], durs[i] - child[i]
            if name == "cli.main":
                root, cli_self = dur, self_time
            elif name.startswith("harness."):
                runner = dur
                self.harness_self += self_time
            elif name.startswith("detector."):
                key = name[len("detector."):]
                self.detector[key] = self.detector.get(key, 0.0) + dur
                self.harness_self += self_time
            elif name.startswith("fdcore."):
                self.fdcore_calls += 1
                self.fdcore_time += self_time
            else:
                if name == "sce.detect_sce.dense":
                    self.dense_detect += dur
                    name = "sce.detect_sce"
                self.durations.setdefault(name, []).append(dur)
                if failed:
                    self.failed[name] = self.failed.get(name, 0) + 1
        if runner is None or root is None:
            raise ValueError("traced call has no cli.main or experiment span")
        self.calls += 1
        self.wall += runner
        self.cli_self.append(cli_self)

    def metrics(self) -> dict:
        out = {}
        ncalls = max(self.calls, 1)
        wall = self.wall or math.inf
        blocks = self.blocks_per_call * ncalls
        for name in LAYER_SPANS:
            durs = np.asarray(self.durations.get(name, ()), dtype=float)
            if durs.size:
                p50 = float(np.percentile(durs, 50)) * 1e6
                tail = float(np.percentile(durs, _tail_percentile(durs.size))) * 1e6
            else:
                p50 = tail = 0.0
            out[f"{name}.calls"] = (durs.size / ncalls, "count")
            out[f"{name}.us_p50"] = (p50, "us")
            out[f"{name}.us_tail"] = (tail, "us")
            out[f"{name}.share"] = (float(durs.sum()) / wall, "ratio")
        detect = self.durations.get("sce.detect_sce", ())
        out["sce.detect_sce.dense_share"] = (
            self.dense_detect / sum(detect) if len(detect) else 0.0, "ratio")
        noise = self.durations.get("estimators.ml_noise_variance", ())
        out["estimators.ml_noise_variance.fail_share"] = (
            self.failed.get("estimators.ml_noise_variance", 0) / len(noise)
            if len(noise) else 0.0, "ratio")
        for key in DETECTOR_KEYS:
            out[f"detector.{key}.us_per_block"] = (
                self.detector.get(key, 0.0) / blocks * 1e6, "us/block")
        out["fdcore.calls_per_block"] = (self.fdcore_calls / blocks, "1/block")
        out["fdcore.us_per_block"] = (self.fdcore_time / blocks * 1e6, "us/block")
        out["harness.self_share"] = (self.harness_self / wall, "ratio")
        out["cli.self_s"] = (float(np.median(self.cli_self)) if self.cli_self else 0.0, "s")
        return out
