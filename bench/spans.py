"""In-memory spans around qeclab's layer functions, for the traced run.

The benchmark does not change qeclab. While a ``Tracer`` is installed, every
reference the loaded ``qeclab`` modules hold to a probed function -- a
module global such as ``cli.encode`` or a dispatch-table entry such as
``decoder._MEASURERS["exhaustive"]`` -- is swapped for a wrapper that
records a span, and swapped back afterwards. Probes are found by function
identity, so they follow a function wherever the package imports it. The
engine's per-trial method (any qeclab class defining ``run_trial``) opens
the trial span; every span inside it carries that trial's index.

A span is ``[name, start_ns, end_ns, parent_index, trial, tag]``. A layer's
self time is its span minus its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

TRIAL = "trial"


def _code_name(args):
    return getattr(args[0], "name", str(args[0]))


def _measurement_count(result):
    return len(result[2])  # (collapsed, syndrome, outcome_trace)


#: (span name, module, function, tag from the arguments, tag from the result)
PROBES = (
    ("rng.trial_generator", "qeclab.rng", "trial_generator", None, None),
    ("channels.random_channel", "qeclab.channels", "random_channel",
     None, None),
    ("channels.apply_channel", "qeclab.channels", "apply_channel", None, None),
    ("codes.encode", "qeclab.codes", "encode", None, None),
    ("codes.run_checker", "qeclab.codes", "run_checker", _code_name, None),
    ("decoder.build_syndrome_table", "qeclab.decoder", "build_syndrome_table",
     _code_name, None),
    ("decoder.correct", "qeclab.decoder", "correct", None, None),
    ("decoder.measure.exhaustive", "qeclab.decoder", "measure_exhaustive",
     None, _measurement_count),
    ("decoder.measure.hierarchical", "qeclab.decoder", "measure_hierarchical",
     None, _measurement_count),
    ("decoder.recover", "qeclab.decoder", "recover", None, None),
    ("statespace.fidelity_against", "qeclab.statespace", "fidelity_against",
     None, None),
    ("statespace.schmidt_diagnostics", "qeclab.statespace",
     "schmidt_diagnostics", None, None),
    ("bounds.min_n_gv", "qeclab.bounds", "min_n_gv", None, None),
    ("bounds.min_n_hamming", "qeclab.bounds", "min_n_hamming", None, None),
)


class Tracer:
    """Collects spans in memory; ``installed()`` probes qeclab meanwhile."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._trial = None

    def _wrap(self, name, fn, tag_args=None, tag_result=None, trial=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if trial:
                self._trial = args[1]  # run_trial(self, trial)
            span = [name, clock(), 0, stack[-1] if stack else -1,
                    self._trial, tag_args(args) if tag_args else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if trial:
                    self._trial = None
            if tag_result is not None:
                span[5] = tag_result(result)
            return result
        return probe

    @contextlib.contextmanager
    def installed(self):
        probes = {}
        for name, module, attr, tag_args, tag_result in PROBES:
            fn = getattr(importlib.import_module(module), attr)
            probes[id(fn)] = (fn, self._wrap(name, fn, tag_args, tag_result))

        def swap(val):
            hit = probes.get(id(val))
            return hit[1] if hit is not None and hit[0] is val else None

        undo = []
        for modname, mod in list(sys.modules.items()):
            if modname != "qeclab" and not modname.startswith("qeclab."):
                continue
            ns = vars(mod)
            for key, val in list(ns.items()):
                new = swap(val)
                if new is not None:
                    undo.append((ns.__setitem__, key, val))
                    ns[key] = new
                elif type(val) is dict:
                    for k, v in list(val.items()):
                        new = swap(v)
                        if new is not None:
                            undo.append((val.__setitem__, k, v))
                            val[k] = new
                elif (isinstance(val, type) and val.__module__ == modname
                      and callable(vars(val).get("run_trial"))):
                    orig = vars(val)["run_trial"]
                    undo.append((functools.partial(setattr, val),
                                 "run_trial", orig))
                    val.run_trial = self._wrap(TRIAL, orig, trial=True)
        try:
            yield self
        finally:
            for setter, key, val in reversed(undo):
                setter(key, val)

    def write_jsonl(self, path):
        """One span a line, as the list described in the module docstring."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# -- analysis -----------------------------------------------------------------

def self_times_us(spans):
    """Per-span (duration, self time) in microseconds."""
    child = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [((s[2] - s[1]) / 1e3, (s[2] - s[1] - c) / 1e3)
            for s, c in zip(spans, child)]


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def mean(values):
    return statistics.fmean(values) if values else 0.0
