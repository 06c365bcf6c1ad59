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

1. draw -- trial by trial, the context's one generator is re-keyed at the
   start of the trial's substream, and the trial draws its whole stream in
   order before the next trial's: its activation flags, drawn again until
   at most --max-active are set; one standard-normal draw holding the
   channel parameters and the logical state, into a row of the block's
   preallocated array; then uniform deviates for the measurement walk, as
   many as the walk can take (one per syndrome subspace). A clean trial (no
   activated qubit) skips the deviates, which end its stream;
2. propagate -- trials that activated the same number m of qubits form a
   class (so a block has at most cap + 1 classes, whatever qubits its
   trials activated): the class's logical states are normalized and
   encoded as one stack, and its random channels orthonormalized as one
   stack. Up to a weight fixed per code and environment dimension
   (_ExperimentContext.overlap_weight) no joint state is built: a trial's
   joint state is sum_E E|psi> (x) |R_E> over the 4^m patterns E on its
   qubits, so its syndrome coordinates are the overlaps <P C^j|E C^k> of
   the table with those patterns (decoder.Overlaps, cached per code and
   built one weight at a time) contracted with its logical state and its
   residues R_E (channels.pattern_residues), in one gather and one product
   for the class. A heavier class entangles its trials' j-th activated
   qubits, one per trial, as one stack for each j < m, and one product
   projects the joint states onto the table;
3. decode -- one array walk (decoder.sample_walks) advances every trial's
   measurement walk on its prefetched deviates, round by round, and one
   decoder.verify_outcomes call per class checks its outcomes, identified
   ones on their small syndrome blocks. Only the trials whose walk ended in
   the complement build their joint states, and take their coordinates
   from them, as the complement's check needs the state itself. A
   walk's masses are left-to-right sums, taken as masked cumulative sums,
   so no interpreter's float sum() enters them. A clean trial walks on the
   largest deviate below 1, which keeps its result exactly when every step
   is certain (_ExperimentContext.walk); any other clean trial replays its
   stream from the start as in phase 1, its deviates included this time,
   and walks again.

A draw of k values gives the values of k one-value draws, in order, so
fusing the draws leaves every trial's stream and results unchanged.

Batching leaves every trial's results unchanged: each product in phases 2
and 3 is a fixed-shape product per trial, which numpy loops over the stack
(the trials of a class share the shapes of their overlaps, 4^m 2^l columns,
and of their joint states, 2^n x d_E^m, whichever qubits they activated),
the overlaps of one weight come from the same products whichever process
builds them, and the walk's sums and thresholds are taken row by row, so
no trial's numbers depend on the block, the class, the worker that ran it
or the runs the process made before.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import glob
import math
import operator
import os
import pickle
import signal

import numpy as np

from .channels import (entangle_stack, gaussian_blocks, load_channel,
                       make_decoherence, orthonormalize_blocks,
                       pattern_residues, qubit_residues, validate)
from .codes import BUILTIN_CODES, condition_patterns, encode_stack, load_code
from .decoder import (_FILTER_CONDITIONS, DYADIC, Overlaps,
                      build_syndrome_table, overlap_coordinates, sample_walks,
                      stack_coordinates, verify_outcomes)
from .rng import TrialStreams
from .statespace import DIM_CAP, TOL_NORM, row_norms

#: a trial counts as an exact success iff fidelity >= this AND disentangled
SUCCESS_FIDELITY = 1.0 - 1e-8

CSV_HEADER = "trial,activated,syndrome,fidelity,disentangled,corrected"

#: the two-sided 95% normal quantile of the summary's Wilson interval
WILSON_Z95 = 1.959963984540054

#: --max-active runs are refused when the cap holds with less than this
#: probability: each trial redraws its activations until the cap holds, so
#: it would take about 1/probability draws.
MIN_ACCEPTANCE = 1e-6

#: the largest uniform deviate below 1, the placeholder of the walk deviates
#: a clean trial skips drawing: with it a binary measurement draws outcome 1
#: exactly when the outcome is certain (see _ExperimentContext.walk)
CERTAIN_DEVIATE = float(np.nextafter(1.0, 0.0))

#: a block of trials holds at most this many joint amplitudes per stacked
#: array (states, syndrome coordinates), so its trial count is this over the
#: worst-case joint dimension of one trial, and a run's memory does not grow
#: with its trial count beyond the records
BLOCK_AMPLITUDES = 1 << 20

#: the most worker processes a run may ask for; each extra worker is a fork
#: of the whole parent
MAX_WORKERS = 64


class BadInput(ValueError):
    """Malformed input surfaced to the user with exit code 2."""


class WorkerFailed(RuntimeError):
    """A forked worker raised, died or sent back no complete result; surfaced
    to the user with exit code 1."""


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
        if qubits != "all":
            if isinstance(qubits, str):
                qubits = qubits.split(",")
            try:
                qubits = tuple(sorted(
                    int(q) if isinstance(q, str) else operator.index(q)
                    for q in qubits))
            except (TypeError, ValueError):
                raise BadInput("--qubits must be 'all' or a comma list of "
                               "ints")
        self.qubits = qubits
        self.trials = int(trials)
        self.seed = int(seed)
        self.strategy = strategy
        self.logical = logical if logical == "random" else tuple(logical)
        self.pattern_filter = pattern_filter
        self.t = None if t is None else int(t)
        self.max_active = None if max_active is None else int(max_active)
        if not 0.0 <= self.p <= 1.0:
            raise BadInput("activation probability must lie in [0, 1]")
        if self.trials < 1:
            raise BadInput("need at least one trial")
        if self.strategy not in DYADIC:
            raise BadInput("unknown strategy %r" % strategy)
        if self.max_active is not None and self.max_active < 0:
            raise BadInput("max_active must be >= 0")

    def as_dict(self):
        out = {f: getattr(self, f) for f in self.FIELDS}
        if out["qubits"] != "all":
            out["qubits"] = list(out["qubits"])
        if out["logical"] != "random":  # checked by read_amplitudes
            out["logical"] = [[c.real, c.imag]
                              for c in map(complex, out["logical"])]
        return out


def read_code(ref):
    """load_code(ref), a catalogue name or a code file, raising BadInput
    when it cannot be loaded."""
    try:
        return load_code(ref)
    except (OSError, ValueError) as exc:
        raise BadInput(str(exc))


def read_amplitudes(values, count):
    """The normalized logical state given by `count` amplitudes, each a
    complex() literal or number; raises BadInput unless they parse, are
    finite, are not all zero and have a norm a float holds."""
    if len(values) != count:
        raise BadInput("logical state needs %d amplitudes" % count)
    try:
        vec = np.array([complex(v) for v in values])
    except (TypeError, ValueError) as exc:
        raise BadInput("bad logical amplitude: %s" % exc)
    if not np.all(np.isfinite(vec)):
        raise BadInput("logical amplitudes must be finite")
    if not vec.any():
        raise BadInput("logical state is the zero vector")
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(vec)
    if not np.isfinite(nrm):
        raise BadInput("logical state's norm overflows a float")
    if nrm < 1e-12:  # may have underflowed: scale by the largest modulus,
        # real and imaginary parts apart (a complex division can give NaN)
        vec = (vec.view(np.float64) / np.max(np.abs(vec))).view(vec.dtype)
        nrm = np.linalg.norm(vec)
    return vec / nrm


def parse_channel_spec(spec):
    """Read "decoherence:<overlap>", "random:<env_dim>", or a channel JSON
    path: (env_dim, channel), channel being None for "random:", whose
    channels the trials draw. A returned channel has passed
    channels.validate; any other spec raises BadInput.
    """
    if spec.startswith("decoherence:"):
        try:
            channel = make_decoherence(complex(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise BadInput("bad overlap in channel spec %r: %s" % (spec, exc))
    elif spec.startswith("random:"):
        try:
            d = int(spec.split(":", 1)[1])
        except ValueError:
            raise BadInput("bad dimension in channel spec %r" % spec)
        if d < 1:
            raise BadInput("random channel dimension must be >= 1")
        return d, None
    else:
        try:
            channel = load_channel(spec)
        except (OSError, ValueError) as exc:
            raise BadInput("cannot load channel %r: %s" % (spec, exc))
    bad = validate(channel)
    if bad:
        raise BadInput("invalid channel: %s" % bad)
    return channel.env_dim, channel


def _filter_covers(pattern_filter, channel):
    """Whether the filter holds every pattern the channel makes: only "all"
    covers a random channel (None). A residue on several qubits is the
    tensor product of one-qubit residues, so a fixed channel is covered when
    every one-qubit pattern outside the filter has a zero residue."""
    if channel is None:
        return pattern_filter == "all"
    inside = {2 * e.alpha[0] + e.beta[0] for e in condition_patterns(
        1, 1, _FILTER_CONDITIONS[pattern_filter])}
    residues = qubit_residues(channel.block()[np.newaxis])[0]
    return all(np.linalg.norm(residue) <= TOL_NORM
               for row, residue in enumerate(residues) if row not in inside)


@functools.cache
def _shared_table(code, t, pattern_filter):
    """build_syndrome_table of a catalogue code, once per process: each
    catalogue code is one immutable object per process (codes.load_code),
    while a code file is read into a new object, with its own table, by
    every call."""
    return build_syndrome_table(code, t, pattern_filter)


#: the Overlaps of a shared table with the patterns on a set of qubits; the
#: most recent few only, as each set of qubits has its own (up to 12 MB, for
#: shor9's weights <= 4 on all nine qubits)
_shared_overlaps = functools.lru_cache(maxsize=8)(Overlaps)


class _ExperimentContext:
    """Everything the trials of one experiment share, built and checked
    once: forked workers inherit it instead of rebuilding it."""

    def __init__(self, config):
        self.config = config
        self.code = read_code(config.code)
        self.t = config.t if config.t is not None else self.code.claimed_t
        self.env_dim, channel = parse_channel_spec(config.channel)
        self.fixed_block = (None if channel is None  # trials draw theirs
                            else channel.block()[np.newaxis, np.newaxis])
        if config.qubits == "all":
            self.eligible = list(range(self.code.n))
        else:
            if any(not 0 <= q < self.code.n for q in config.qubits):
                raise BadInput("qubit list names qubits outside the block")
            if len(set(config.qubits)) < len(config.qubits):
                raise BadInput("qubit list repeats an index")
            self.eligible = list(config.qubits)
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
        self.fixed_logical = (None if config.logical == "random" else
                              read_amplitudes(config.logical,
                                              1 << self.code.l))
        shared = config.code in BUILTIN_CODES
        try:  # the one check of t and of the pattern filter
            self.table = (_shared_table if shared else build_syndrome_table)(
                self.code, self.t, config.pattern_filter)
        except ValueError as exc:
            raise BadInput(str(exc))
        self.overlaps = (_shared_overlaps if shared else Overlaps)(
            self.table, tuple(self.eligible))
        # a class of m activated qubits takes its coordinates from the
        # overlaps while its 4^m 2^l gathered columns per trial are at most
        # the code's 2^n amplitudes, or half of them for d_E = 1: the
        # measured crossover with its dense joint states
        self.overlap_weight = (self.code.n - self.code.l
                               - (self.env_dim == 1)) // 2
        # the weight the analytic bound counts: a filter that misses some
        # of the channel's patterns guarantees only the clean trials
        self.bound_t = (self.t if _filter_covers(config.pattern_filter,
                                                 channel) else 0)
        self.dyadic = DYADIC[config.strategy]
        self.block_trials = max(1, BLOCK_AMPLITUDES // self.worst_dim)
        # standard normals a trial draws per activated qubit (a random
        # channel's real and imaginary 2 x 2d_E parts) and for its logical
        # state (2^l real, then 2^l imaginary parts)
        self.channel_normals = 8 * self.env_dim if channel is None else 0
        self.logical_normals = (2 << self.code.l if self.fixed_logical is None
                                else 0)
        self.streams = TrialStreams()

    def propagate(self, qubits, normals):
        """Phase 2 of a class of g trials that each activated m qubits, named
        in ascending order by the rows of `qubits` (g, m), whose standard
        normals are the rows of `normals`: (encoded reference blocks (g,
        2^n), channel blocks (g, m, 2, 2d_E), or (1, m, 2, 2d_E) for a
        fixed channel, and the syndrome coordinates coeff, p, p_none).

        Up to overlap_weight activated qubits the coordinates come from
        the overlaps (decoder.overlap_coordinates), without a joint state;
        a heavier class builds its joint states (entangle) and projects
        them (decoder.stack_coordinates).
        """
        g, m = qubits.shape
        split = self.channel_normals * m
        if self.fixed_logical is None:
            half = 1 << self.code.l
            logical = (normals[:, split:split + half]
                       + 1j * normals[:, split + half:])
            logical /= row_norms(logical)[:, np.newaxis]
        else:
            logical = np.repeat(self.fixed_logical[np.newaxis], g, axis=0)
        refs = encode_stack(self.code, logical)
        if split:
            blocks = orthonormalize_blocks(gaussian_blocks(
                normals[:, :split], self.env_dim)).reshape(g, m, 2, -1)
        elif self.fixed_block is not None:
            blocks = np.broadcast_to(self.fixed_block,
                                     (1, m, 2, 2 * self.env_dim))
        else:  # the clean class of a random channel
            blocks = np.empty((1, 0, 2, 2 * self.env_dim))
        if m > self.overlap_weight:
            return (refs, blocks) + stack_coordinates(
                self.table, self.entangle(refs, qubits, blocks))
        self.overlaps.cover(m)
        # each trial's 4^m pattern keys, in pattern_residues' row order:
        # 2 alpha + beta on its j-th qubit, the first qubit major
        n = self.code.n
        keys = np.zeros((g, 1), dtype=np.int64)
        for q in qubits.T.astype(np.int64):
            step = np.array([0, 1 << n, 1, 1 | 1 << n]) << q[:, np.newaxis]
            keys = (keys[:, :, np.newaxis] | step[:, np.newaxis]).reshape(
                g, -1)
        return (refs, blocks) + overlap_coordinates(
            self.overlaps, keys, logical, pattern_residues(blocks))

    def entangle(self, refs, qubits, blocks):
        """The joint state matrices (g, 2^n, d_E^m) of the encoded blocks
        refs (g, 2^n) after their qubits (g, m) went through their
        propagate channel blocks, one stacked entangle_stack per column."""
        amps = refs
        for j in range(qubits.shape[1]):
            amps = entangle_stack(amps, qubits[:, j], blocks[:, j])
        return amps.reshape(len(refs), 1 << self.code.n, -1)

    def walk(self, P, p_none, U, clean, draw):
        """Phase 3's measurement walks of a block's trials: (index,
        measurements, forced) arrays, as decoder.sample_walks gives them.
        Rows `clean` of U hold CERTAIN_DEVIATE in place of the deviates
        their clean trials skipped drawing, and draw(j, True) draws row j's
        stream again from its start, its deviates into U[j].

        A walk whose every step has conditional probability exactly 1.0
        takes outcome 1 at every step whatever its deviates: it ends in
        subspace 0 and forces nothing. CERTAIN_DEVIATE draws outcome 1
        exactly when outcome 1 is certain, so a clean walk on it ends in
        subspace 0 with nothing forced exactly when every step was certain,
        and then any deviates give its result. Any other clean trial
        replays its stream, deviates included, and walks again.
        """
        index, measurements, forced = sample_walks(self.table, P, p_none, U,
                                                   self.dyadic)
        redo = clean[(index[clean] != 0) | (forced[clean] != 0)]
        if len(redo):
            for j in redo.tolist():
                draw(j, True)
            index[redo], measurements[redo], forced[redo] = sample_walks(
                self.table, P[redo], p_none[redo], U[redo], self.dyadic)
        return index, measurements, forced

    def run_block(self, start, stop):
        """Records of trials [start, stop), and the (measurements, forced
        outcomes, activation redraws, activated qubits) of each as a (4,
        stop - start) array. The block's trials go through one propagate
        and one verify_outcomes call per activated weight; only the trials
        whose walk ended in the complement build their joint states
        (entangle), whose projections then give their coordinates."""
        cfg = self.config
        seed, rate, k = cfg.seed, cfg.p, len(self.eligible)
        cap = k if cfg.max_active is None else min(cfg.max_active, k)
        channel, logical = self.channel_normals, self.logical_normals
        resume = self.streams.resume
        b = stop - start
        F = np.empty((b, k))
        Z = np.empty((b, channel * cap + logical))
        U = np.full((b, len(self.table)), CERTAIN_DEVIATE)
        redraws = np.zeros(b, dtype=np.intp)

        def draw(j, deviates):
            """Trial start + j's stream from its start: its activation flags
            into F[j], drawn again until at most cap fall below the rate;
            its standard normals (its random channels' parameters, then its
            logical state) into Z[j]; then, if it activated a qubit or
            `deviates` is set, its walk deviates into U[j]."""
            rng = resume(seed, start + j)
            extra, active = -1, cap + 1
            while active > cap:
                active = len([u for u in rng.random(out=F[j]).tolist()
                              if u < rate])
                extra += 1
            if extra:
                redraws[j] = extra
            rng.standard_normal(out=Z[j, :channel * active + logical])
            if active or deviates:
                rng.random(out=U[j])

        for j in range(b):
            draw(j, False)
        activated = F < rate
        weight = np.count_nonzero(activated, axis=1)
        eligible = np.array(self.eligible, dtype=np.intp)
        P = np.empty((b, len(self.table)))
        p_none = np.empty(b)
        stacks = []
        # trials that activated the same number of qubits form a class, in
        # trial order: each row's activated qubits, ascending, fill one row
        # of the class's (g, m) qubit array
        for m in np.unique(weight).tolist():
            members = np.flatnonzero(weight == m)
            qubits = eligible[np.nonzero(activated[members])[1]].reshape(
                len(members), m)
            refs, blocks, coeff, p, rest = self.propagate(
                qubits, Z[members, :channel * m + logical])
            P[members], p_none[members] = p, rest
            stacks.append((members, qubits, refs, blocks, coeff, p))
        clean = np.flatnonzero(weight == 0)
        index, measurements, forced = self.walk(P, p_none, U, clean, draw)
        fidelity, top = np.empty(b), np.empty(b)
        for members, qubits, refs, blocks, coeff, p in stacks:
            ended = index[members]
            outside = np.flatnonzero(ended == len(self.table))
            M = None
            if len(outside):  # its complement needs the joint state
                M = self.entangle(refs[outside], qubits[outside],
                                  blocks if len(blocks) == 1
                                  else blocks[outside])
                coeff[outside] = stack_coordinates(self.table, M)[0]
            fidelity[members], top[members] = verify_outcomes(
                self.table, ended, refs, coeff, p, M)
        bad = ~((-TOL_NORM <= fidelity) & (fidelity <= 1.0 + TOL_NORM))
        if bad.any():
            raise AssertionError("fidelity %r out of range"
                                 % float(fidelity[bad][0]))
        # the activated column names each trial's activation mask
        masks, layout = np.unique(activated @ (1 << np.arange(k)),
                                  return_inverse=True)
        names = ["+".join(str(q) for j, q in enumerate(self.eligible)
                          if mask >> j & 1) for mask in masks.tolist()]
        outcomes = self.table.texts + ("none",)
        records = [
            {"trial": start + j, "activated": names[s],
             "syndrome": outcomes[i], "fidelity": f, "disentangled": d,
             "corrected": c}
            for j, (s, i, f, d, c) in enumerate(zip(
                layout.tolist(), index.tolist(), fidelity.tolist(),
                (top >= 1.0 - TOL_NORM).tolist(),
                (index < len(self.table)).tolist()))]
        return records, np.stack([measurements, forced, redraws, weight])

    def run_range(self, start, stop):
        """run_block's records of trials [start, stop), and its (4, stop -
        start) array of their walk measurements, forced outcomes,
        activation redraws and activated qubits, one block of at most
        block_trials at a time."""
        records, walks = [], []
        for a in range(start, stop, self.block_trials):
            got = self.run_block(a, min(a + self.block_trials, stop))
            records += got[0]
            walks.append(got[1])
        return records, np.concatenate(walks, axis=1)


def _at_most(k, p, m):
    """Probability that at most m of k qubits activate, each independently
    with probability p."""
    return math.fsum(math.comb(k, i) * p ** i * (1.0 - p) ** (k - i)
                     for i in range(min(m, k) + 1))


def analytic_success_bound(k, t, p, max_active=None):
    """Guaranteed exact-success probability: at most t of the k eligible
    qubits activate. With an activation cap the probability is conditional
    on the cap. It needs the table to hold every pattern the channel makes
    on at most t qubits; a run that misses some guarantees only t = 0."""
    if max_active is None:
        return _at_most(k, p, t)
    denom = _at_most(k, p, max_active)
    num = _at_most(k, p, min(t, max_active))
    return num / denom if denom > 0.0 else 1.0


def wilson_interval(successes, trials):
    """95% Wilson score interval [lo, hi] for a binomial success rate; lo
    is exactly 0 with no successes and hi exactly 1 with no failures."""
    z = WILSON_Z95
    z2 = z * z
    center = (successes + z2 / 2.0) / (trials + z2)
    half = (z * math.sqrt(successes * (trials - successes) / trials + z2 / 4.0)
            / (trials + z2))
    return [0.0 if successes == 0 else center - half,
            1.0 if successes == trials else center + half]


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
    meanwhile inherit the setting, so each forked worker also runs its BLAS
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


def _fork_share(ctx, start, stop):
    """Fork a worker that runs trials [start, stop) on the context it
    inherits; returns (its pid, the read end of its pipe as a file).

    The worker pickles ``(True, (records, walks))``, or ``(False, error
    text)`` if its share raised, into the pipe and leaves by os._exit: it
    never returns into the caller's stack, runs no atexit handler and
    flushes none of the stdio buffers it inherited.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    status = 1
    try:
        os.close(read)
        try:
            payload = True, ctx.run_range(start, stop)
        except Exception as exc:
            payload = False, "%s: %s" % (type(exc).__name__, exc)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _unpack(data, status, start, stop):
    """(records, walks) from the payload `data` of the worker that ran trials
    [start, stop) and left with exit status `status`. Raises WorkerFailed if
    it raised, died, or sent a short or unreadable payload."""
    try:
        ok, result = pickle.loads(data)
    except Exception:  # a truncated or foreign payload, whatever it raises
        ok = None
    where = "worker for trials [%d, %d)" % (start, stop)
    if ok is False:
        raise WorkerFailed("%s raised %s" % (where, result))
    if ok is None or status != 0:
        how = ("was killed by signal %d" % -status if status < 0
               else "exited with status %d" % status)
        raise WorkerFailed("%s %s after sending %d bytes%s" % (
            where, how, len(data),
            "" if ok else " that hold no complete result"))
    return result


def _run_forked(ctx, shares):
    """(records, walks) of every share [a, b) in `shares`, in order: the
    first runs here (a single share forks nothing), each other one in a
    forked worker, whose pipe is read to EOF and which is then reaped, in
    trial order. Any failure kills and reaps every worker not yet reaped
    before it propagates."""
    workers = []  # (pid, pipe, start, stop) of the workers not yet reaped
    try:
        for a, b in shares[1:]:
            workers.append(_fork_share(ctx, a, b) + (a, b))
        chunks = [ctx.run_range(*shares[0])]
        while workers:
            pid, pipe, a, b = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            chunks.append(_unpack(data, status, a, b))
    finally:
        for pid, pipe, _, _ in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return ([rec for records, _ in chunks for rec in records],
            np.concatenate([walks for _, walks in chunks], axis=1))


def run_experiment(config, workers=1):
    """Run all trials, in order; returns (records, summary dict).

    workers > 1 splits the trial range into that many shares. This process
    runs the first; each other one runs in a worker forked from it, which
    inherits the context built here instead of rebuilding it and sends its
    records back over a pipe. Because each trial's randomness is keyed by
    (seed, trial) alone, the records are identical at any worker count. A
    worker that fails makes the run raise WorkerFailed, and no run leaves a
    worker behind.
    """
    workers = int(workers)
    if workers < 1:
        raise BadInput("need at least one worker, not %d" % workers)
    if workers > MAX_WORKERS:
        raise BadInput("at most %d workers, not %d" % (MAX_WORKERS, workers))
    workers = min(workers, config.trials)
    edges = np.linspace(0, config.trials, workers + 1).astype(int)
    with _one_blas_thread():
        ctx = _ExperimentContext(config)  # validates before any trial runs
        records, walks = _run_forked(ctx, [
            (int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if a < b])
    return records, _summary(ctx, records, walks)


def _summary(ctx, records, walks):
    config = ctx.config
    trials = config.trials
    success = np.array([r["fidelity"] >= SUCCESS_FIDELITY
                        and r["disentangled"] for r in records], dtype=bool)
    successes = int(np.count_nonzero(success))
    corrected = sum(1 for r in records if r["corrected"])
    bound = analytic_success_bound(len(ctx.eligible), ctx.bound_t, config.p,
                                   config.max_active)
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    measurements, forced, redraws, weight = walks
    return {
        "config": dict(config.as_dict(),
                       t=ctx.t,
                       fidelity_threshold=SUCCESS_FIDELITY,
                       eligible_qubits=list(ctx.eligible)),
        "results": {
            "trials": trials,
            "success_count": successes,
            "success_rate": successes / trials,
            "success_rate_wilson95": wilson_interval(successes, trials),
            "corrected_count": corrected,
            "mean_fidelity": math.fsum(r["fidelity"] for r in records)
                             / trials,
            "analytic_success_bound": bound,
            # null when the bound is 0 or 1, where the binomial sigma is 0
            "bound_margin_sigma": ((successes / trials - bound) / sigma
                                   if sigma > 0.0 else None),
            "mean_measurements": int(measurements.sum()) / trials,
            "max_measurements": int(measurements.max()),
            # measurements whose outcome the TOL_ZERO rule forced against
            # the deviate drawn for it
            "forced_outcomes": int(forced.sum()),
            # extra activation draws that --max-active forced
            "activation_redraws": int(redraws.sum()),
            "syndrome_histogram": dict(collections.Counter(
                r["syndrome"] for r in records)),
            # trials and exact successes by how many qubits activated
            "by_activated_weight": {
                str(w): {"trials": int(np.count_nonzero(weight == w)),
                         "successes": int(np.count_nonzero(
                             success[weight == w]))}
                for w in np.unique(weight).tolist()},
            # failed trials that the bound guarantees: with a passing
            # table, only a fault of the engine can make one
            "guarantee_failures": int(np.count_nonzero(
                ~success & (weight <= ctx.bound_t))),
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
