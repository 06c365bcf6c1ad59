"""Seeded Monte Carlo experiments: the engine behind ``qeclab simulate``.

A trial activates each eligible qubit independently with probability p,
encodes a logical state, sends every activated qubit through the channel,
decodes the block by projective syndrome measurement and verifies the
recovery against the encoded state.

Reproducibility: every trial draws from a counter-based substream keyed by
(seed, trial index) only, in a fixed order (activation, channel parameters,
logical state, measurements). Trial results therefore never depend on the
worker count or execution order, and two runs with the same seed produce
byte-identical CSV.

Trials run in blocks whose stacked states hold at most BLOCK_AMPLITUDES
joint amplitudes, each block in three phases:

1. draw -- each trial makes its draws from its own generator: activation
   (redrawn while it exceeds --max-active), then channel parameters, then
   the logical state; the generator is kept for the measurements;
2. propagate -- trials that activated the same qubits form a group: one
   product encodes the group, its random channels are orthonormalized as
   one stack, each activated qubit's channel is applied to the whole stack,
   and one product takes every trial's syndrome coordinates;
3. decode -- trial by trial, in trial order, the measurement walk runs on
   the trial's own generator, and the outcome is verified on its small
   syndrome block.

Batching leaves every trial's results unchanged: each product in phase 2 is
a fixed-shape product per trial, which numpy loops over the stack, so no
trial's numbers depend on the block, the group or the worker that ran it.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import glob
import math
import multiprocessing
import os

import numpy as np

from .channels import (entangle_stack, gaussian_blocks, load_channel,
                       make_decoherence, orthonormalize_blocks, validate)
from .codes import encode_stack, load_code
from .decoder import (DYADIC, PATTERN_FILTERS, build_syndrome_table,
                      sample_walk, stack_coordinates, verify_blocks,
                      verify_complement)
from .rng import trial_generator
from .statespace import DIM_CAP, TOL_NORM

#: a trial counts as an exact success iff fidelity >= this AND disentangled
SUCCESS_FIDELITY = 1.0 - 1e-8

CSV_HEADER = "trial,activated,syndrome,fidelity,disentangled,corrected"

#: --max-active runs are refused when the cap holds with less than this
#: probability: each trial redraws its activations until the cap holds, so
#: it would take about 1/probability draws.
MIN_ACCEPTANCE = 1e-6

#: a block of trials holds at most this many joint amplitudes per stacked
#: array (states, syndrome coordinates), so its trial count is this over the
#: worst-case joint dimension of one trial, and a run's memory does not grow
#: with its trial count beyond the records
BLOCK_AMPLITUDES = 1 << 20


class BadInput(ValueError):
    """Malformed input surfaced to the user with exit code 2."""


class ExperimentConfig:
    """Primitive-valued description of one Monte Carlo experiment.

    All fields are plain strings/numbers, so the summary can echo a config
    as JSON; the heavyweight objects (code, channel, table) are built from
    it once, by _ExperimentContext.
    """

    FIELDS = ("code", "p", "channel", "qubits", "trials", "seed", "strategy",
              "logical", "pattern_filter", "t", "max_active")

    def __init__(self, code, p, channel="decoherence:0", qubits="all",
                 trials=1000, seed=0, strategy="exhaustive",
                 logical="random", pattern_filter="all", t=None,
                 max_active=None):
        self.code = code
        self.p = float(p)
        self.channel = channel
        self.qubits = qubits if qubits == "all" else tuple(
            sorted(int(q) for q in qubits))
        self.trials = int(trials)
        self.seed = int(seed)
        self.strategy = strategy
        self.logical = logical if logical == "random" else tuple(
            complex(c) for c in logical)
        self.pattern_filter = pattern_filter
        self.t = None if t is None else int(t)
        self.max_active = None if max_active is None else int(max_active)
        if not 0.0 <= self.p <= 1.0:
            raise BadInput("activation probability must lie in [0, 1]")
        if self.trials < 1:
            raise BadInput("need at least one trial")
        if self.strategy not in DYADIC:
            raise BadInput("unknown strategy %r" % strategy)
        if self.pattern_filter not in PATTERN_FILTERS:
            raise BadInput("unknown pattern filter %r" % pattern_filter)
        if self.max_active is not None and self.max_active < 0:
            raise BadInput("max_active must be >= 0")

    def as_dict(self):
        out = {f: getattr(self, f) for f in self.FIELDS}
        if out["qubits"] != "all":
            out["qubits"] = list(out["qubits"])
        if out["logical"] != "random":
            out["logical"] = [[c.real, c.imag] for c in out["logical"]]
        return out


def parse_channel_spec(spec):
    """Parse "decoherence:<overlap>", "random:<env_dim>", or a JSON path.

    Returns (kind, value): ("decoherence", QubitChannel),
    ("random", env_dim), or ("file", QubitChannel).
    """
    if spec.startswith("decoherence:"):
        try:
            overlap = complex(spec.split(":", 1)[1])
        except ValueError:
            raise BadInput("bad overlap in channel spec %r" % spec)
        if abs(overlap) > 1.0:
            raise BadInput("decoherence overlap magnitude exceeds 1")
        return "decoherence", make_decoherence(overlap)
    if spec.startswith("random:"):
        try:
            d = int(spec.split(":", 1)[1])
        except ValueError:
            raise BadInput("bad dimension in channel spec %r" % spec)
        if d < 1:
            raise BadInput("random channel dimension must be >= 1")
        return "random", d
    try:
        return "file", load_channel(spec)
    except (OSError, ValueError) as exc:
        raise BadInput("cannot load channel %r: %s" % (spec, exc))


class _ExperimentContext:
    """Everything the trials of one experiment share, built and checked
    once: forked pool workers inherit it."""

    def __init__(self, config):
        self.config = config
        try:
            self.code = load_code(config.code)
        except (OSError, ValueError) as exc:
            raise BadInput(str(exc))
        self.t = config.t if config.t is not None else self.code.claimed_t
        self.kind, self.channel_value = parse_channel_spec(config.channel)
        if config.qubits == "all":
            self.eligible = list(range(self.code.n))
        else:
            if any(not 0 <= q < self.code.n for q in config.qubits):
                raise BadInput("qubit list names qubits outside the block")
            self.eligible = list(config.qubits)
        if self.kind == "random":
            self.env_dim = self.channel_value
            self.fixed_block = None
        else:
            bad = validate(self.channel_value)
            if bad:
                raise BadInput("invalid channel: %s" % bad)
            self.env_dim = self.channel_value.env_dim
            self.fixed_block = self.channel_value.block()[np.newaxis]
        worst_active = (len(self.eligible) if config.max_active is None
                        else min(config.max_active, len(self.eligible)))
        self.worst_dim = (1 << self.code.n) * self.env_dim ** worst_active
        if self.worst_dim > DIM_CAP:
            raise BadInput(
                "worst-case joint dimension 2^%d * %d^%d = %d exceeds the "
                "cap %d; restrict --qubits or set --max-active"
                % (self.code.n, self.env_dim, worst_active, self.worst_dim,
                   DIM_CAP))
        if config.max_active is not None:
            acceptance = _at_most(len(self.eligible), config.p,
                                  config.max_active)
            if acceptance < MIN_ACCEPTANCE:
                raise BadInput(
                    "at p = %g, at most %d of %d eligible qubits activate "
                    "with probability %.3g, below the floor %g that "
                    "sampling under --max-active needs; raise --max-active "
                    "or lower --p" % (config.p, config.max_active,
                                      len(self.eligible), acceptance,
                                      MIN_ACCEPTANCE))
        if config.logical != "random":
            if len(config.logical) != (1 << self.code.l):
                raise BadInput("logical state needs %d amplitudes"
                               % (1 << self.code.l))
            vec = np.array(config.logical, dtype=np.complex128)
            nrm = np.linalg.norm(vec)
            if nrm < 1e-12:
                raise BadInput("logical state is the zero vector")
            self.fixed_logical = vec / nrm
        else:
            self.fixed_logical = None
        self.table = build_syndrome_table(self.code, self.t,
                                          config.pattern_filter)
        self.dyadic = DYADIC[config.strategy]
        self.block_trials = max(1, BLOCK_AMPLITUDES // self.worst_dim)

    def draw(self, trial):
        """Phase 1 of one trial: (activated qubits, complex Gaussian channel
        blocks or None, logical amplitudes or None, the trial's generator).
        """
        cfg = self.config
        rng = trial_generator(cfg.seed, trial)
        # draw order is part of the reproducibility contract:
        # activation -> channel parameters -> logical state -> measurements
        while True:
            hits = (rng.random(len(self.eligible)) < cfg.p).tolist()
            if cfg.max_active is None or sum(hits) <= cfg.max_active:
                break
        activated = tuple(q for q, hit in zip(self.eligible, hits) if hit)
        normals = None
        if self.kind == "random" and activated:
            normals = gaussian_blocks(self.env_dim, rng, len(activated))
        logical = None
        if self.fixed_logical is None:
            logical = (rng.standard_normal(1 << self.code.l)
                       + 1j * rng.standard_normal(1 << self.code.l))
            logical /= np.linalg.norm(logical)
        return activated, normals, logical, rng

    def propagate(self, activated, draws):
        """Phase 2 of a group of trials that all activated `activated`:
        (encoded reference blocks (g, 2^n), joint state matrices
        (g, 2^n, d_E^m), and their syndrome coordinates coeff, p, p_none).
        """
        g = len(draws)
        if self.fixed_logical is None:
            logical = np.array([d[2] for d in draws])
        else:
            logical = np.repeat(self.fixed_logical[np.newaxis], g, axis=0)
        refs = encode_stack(self.code, logical)
        blocks = None
        if self.kind == "random" and activated:
            blocks = orthonormalize_blocks(np.concatenate(
                [d[1] for d in draws])).reshape(g, len(activated), 2, -1)
        amps = refs
        for j, q in enumerate(activated):
            amps = entangle_stack(
                amps, q, self.fixed_block if blocks is None else blocks[:, j])
        M = amps.reshape(g, 1 << self.code.n, -1)
        return (refs, M) + stack_coordinates(self.table, M)

    def verify(self, answered, refs, M, coeff, p):
        """Phase 3's verification of a group: (fidelity, max Schmidt
        coefficient) of each trial, whose walk ended in subspace
        answered[j] (None: the complement). Identified outcomes are
        verified as one stack."""
        out = [None] * len(answered)
        found = [j for j, i in enumerate(answered) if i is not None]
        if found:
            i = np.array([answered[j] for j in found])
            rows = (self.table.offsets[i][:, np.newaxis]
                    + np.arange(1 << self.code.l))
            _, fidelity, top = verify_blocks(
                self.table, coeff[np.array(found)[:, np.newaxis], rows],
                p[found, i], refs[found])
            for j, f, s in zip(found, fidelity.tolist(), top.tolist()):
                out[j] = f, s
        for j, i in enumerate(answered):
            if i is None:
                out[j] = verify_complement(self.table, M[j], coeff[j],
                                           refs[j])[1:]
        return out

    def run_block(self, start, stop):
        """Records and measurement counts of trials [start, stop)."""
        draws = [self.draw(trial) for trial in range(start, stop)]
        groups = collections.defaultdict(list)
        for k, d in enumerate(draws):
            groups[d[0]].append(k)
        stacks = [(members,) + self.propagate(activated,
                                              [draws[k] for k in members])
                  for activated, members in groups.items()]
        probabilities = [None] * len(draws)
        for members, _, _, _, p, p_none in stacks:
            for k, row, rest in zip(members, p.tolist(), p_none.tolist()):
                probabilities[k] = row, rest
        # phase 3: every trial walks on its own generator, in trial order
        answered, measurements = [], []
        for d, (p, p_none) in zip(draws, probabilities):
            i, trace = sample_walk(self.table, p, p_none, d[3], self.dyadic)
            answered.append(i)
            measurements.append(len(trace))
        verdicts = [None] * len(draws)
        for members, refs, M, coeff, p, _ in stacks:
            got = self.verify([answered[k] for k in members], refs, M,
                              coeff, p)
            for k, verdict in zip(members, got):
                verdicts[k] = verdict
        records = []
        for k, (d, i, (fidelity, max_schmidt)) in enumerate(
                zip(draws, answered, verdicts)):
            if not -TOL_NORM <= fidelity <= 1.0 + TOL_NORM:
                raise AssertionError("fidelity %r out of range" % fidelity)
            records.append({
                "trial": start + k,
                "activated": "+".join(str(q) for q in d[0]),
                "syndrome": "none" if i is None else self.table.texts[i],
                "fidelity": fidelity,
                "disentangled": max_schmidt >= 1.0 - TOL_NORM,
                "corrected": i is not None,
            })
        return records, measurements

    def run_range(self, start, stop):
        """Records and measurement counts of trials [start, stop), one block
        of at most block_trials trials at a time."""
        records, measurements = [], []
        for a in range(start, stop, self.block_trials):
            got = self.run_block(a, min(a + self.block_trials, stop))
            records += got[0]
            measurements += got[1]
        return records, measurements


#: the context of a forked pool worker, inherited from the parent process
_worker_context = None


def _adopt_context(ctx):
    global _worker_context
    _worker_context = ctx


def _run_chunk(start, stop):
    return _worker_context.run_range(start, stop)


def _at_most(k, p, m):
    """Probability that at most m of k qubits activate, each independently
    with probability p."""
    return math.fsum(math.comb(k, i) * p ** i * (1.0 - p) ** (k - i)
                     for i in range(min(m, k) + 1))


def analytic_success_bound(k, t, p, max_active=None):
    """Guaranteed exact-success probability: at most t of the k eligible
    qubits activate. With an activation cap the probability is conditional
    on the cap."""
    if max_active is None:
        return _at_most(k, p, t)
    denom = _at_most(k, p, max_active)
    num = _at_most(k, p, min(t, max_active))
    return num / denom if denom > 0.0 else 1.0


def _openblas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy,
    or None when that library or its controls cannot be found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread, restoring the old count
    on exit; a no-op without it.

    A threaded product can round differently from the one-thread product,
    so trials run at one thread whatever the worker count. Processes forked
    meanwhile inherit the setting, so each pool worker also runs its BLAS
    calls on its own core instead of every worker threading them over all
    cores at once.
    """
    controls = _openblas_thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def run_experiment(config, workers=1):
    """Run all trials, in order; returns (records, summary dict).

    workers > 1 splits the trial range across forked processes, which
    inherit the context built here instead of rebuilding it; because each
    trial's randomness is keyed by (seed, trial) alone, the records are
    identical at any worker count.
    """
    ctx = _ExperimentContext(config)  # validates before any trial runs
    workers = max(1, min(int(workers), config.trials))
    with _one_blas_thread():
        if workers == 1:
            records, measurements = ctx.run_range(0, config.trials)
        else:
            edges = np.linspace(0, config.trials, workers + 1).astype(int)
            jobs = [(int(a), int(b))
                    for a, b in zip(edges[:-1], edges[1:]) if a < b]
            with multiprocessing.get_context("fork").Pool(
                    workers, initializer=_adopt_context,
                    initargs=(ctx,)) as pool:
                chunks = pool.starmap(_run_chunk, jobs)
            records = [rec for chunk, _ in chunks for rec in chunk]
            measurements = [m for _, chunk in chunks for m in chunk]
    return records, _summary(ctx, records, measurements)


def _summary(ctx, records, measurements):
    config = ctx.config
    trials = config.trials
    successes = sum(1 for r in records
                    if r["fidelity"] >= SUCCESS_FIDELITY and r["disentangled"])
    corrected = sum(1 for r in records if r["corrected"])
    bound = analytic_success_bound(len(ctx.eligible), ctx.t, config.p,
                                   config.max_active)
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    return {
        "config": dict(config.as_dict(),
                       t=ctx.t,
                       fidelity_threshold=SUCCESS_FIDELITY,
                       eligible_qubits=list(ctx.eligible)),
        "results": {
            "trials": trials,
            "success_count": successes,
            "success_rate": successes / trials,
            "corrected_count": corrected,
            "mean_fidelity": math.fsum(r["fidelity"] for r in records)
                             / trials,
            "analytic_success_bound": bound,
            # null when the bound is 0 or 1, where the binomial sigma is 0
            "bound_margin_sigma": ((successes / trials - bound) / sigma
                                   if sigma > 0.0 else None),
            "mean_measurements": math.fsum(measurements) / trials,
            "max_measurements": max(measurements),
            "syndrome_histogram": dict(collections.Counter(
                r["syndrome"] for r in records)),
        },
    }


def records_to_csv(records):
    lines = [CSV_HEADER]
    for r in records:
        lines.append("%d,%s,%s,%s,%s,%s" % (
            r["trial"], r["activated"], r["syndrome"], repr(r["fidelity"]),
            "true" if r["disentangled"] else "false",
            "true" if r["corrected"] else "false"))
    return "\n".join(lines) + "\n"
