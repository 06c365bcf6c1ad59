"""One benchmark run: a workload's session, timed and checked.

A closed loop with one client: each operation starts when the previous one
returns. Operations go through ``qeclab.cli.main`` in-process, exactly as
``qeclab <subcommand>`` would run them, with stdout and stderr captured in
memory. Every operation is checked; an exception, an unexpected exit code,
a timeout or a failed output check counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import statistics
import time
from collections import defaultdict, namedtuple
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from qeclab import channels, cli, codes, decoder, statespace

from spans import TRIAL, Tracer, mean, percentile, self_times_us
from workloads import STRATEGIES

CSV_HEADER = "trial,activated,syndrome,fidelity,disentangled,corrected"
CODES = ("phase3", "shor9", "perfect5", "trivial1")
#: an operation slower than this counts as failed (timed out)
OP_TIMEOUT_S = 60.0
#: rounds made even when --seconds runs out first, so medians have samples
MIN_ROUNDS = 3
#: set-up samples per round; spread over the run, so that a burst of load
#: from elsewhere on the machine cannot set the median
SETUP_REPS = 3
#: measured in the untraced run but reported only by the traced run: its
#: spread between runs on mc-shor9 is far above any bound (see README)
UNSTEADY = "trials_per_s_w2.hierarchical"
#: a fixed pure-Python loop timed every round; it shows how fast the machine
#: itself ran, which has drifted by 1.6x over an hour on a shared host
MACHINE_REF = "machine.reference_loop_s"
#: samples printed on the report line only, never as metrics
REPORT_ONLY = (UNSTEADY, MACHINE_REF)


class Ledger:
    """Counts attempted operations and records why any of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, label, action, check):
        """Run and time one operation; returns (result, seconds), or None
        when it failed. ``check`` returns None or a description of what is
        wrong with the result."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = action()
            seconds = time.perf_counter() - start
            problem = check(result)
        except Exception as exc:  # any failure of the program under test
            seconds = time.perf_counter() - start
            problem = "%s: %s" % (type(exc).__name__, exc)
        if problem is None and seconds > OP_TIMEOUT_S:
            problem = "timed out after %.1f s" % seconds
        if problem is not None:
            self.failures.append("%s: %s" % (label, problem))
            return None
        return result, seconds


#: exit code, stdout and stderr of one ``qeclab`` command
Call = namedtuple("Call", "code out err")


def run_cli(argv):
    """``qeclab <argv>`` in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return Call(code, out.getvalue(), err.getvalue())


# -- output checks ---------------------------------------------------------------

def _exit(call, expected):
    if call.code != expected:
        return "exit %r, expected %d: %s" % (call.code, expected,
                                             call.err.strip()[-300:])
    return None


def check_simulate(call, trials, statistical=True, twin=None):
    """Record count and order, success rate >= analytic bound - 3 sigma,
    and byte-identity with the ``twin`` run of the same seed."""
    problem = _exit(call, 0)
    if problem:
        return problem
    lines = call.out.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "unexpected CSV header"
    if len(lines) - 1 != trials:
        return "%d records, expected %d" % (len(lines) - 1, trials)
    if any(not line.startswith("%d," % i) for i, line in
           enumerate(lines[1:])):
        return "records out of trial order"
    if statistical:
        res = json.loads(call.err)["results"]
        bound = res["analytic_success_bound"]
        sigma = math.sqrt(bound * (1.0 - bound) / res["trials"])
        if res["success_rate"] < bound - 3.0 * sigma:
            return "success rate %.4f below bound %.4f - 3 sigma" % (
                res["success_rate"], bound)
    if twin is not None and call.out != twin.out:
        return "records differ from the workers=1 run of the same seed"
    return None


def check_catalogue(call):
    problem = _exit(call, 0)
    if problem:
        return problem
    rows = [line.split(",") for line in call.out.splitlines()[1:]]
    if len(rows) != 18 or any(r[-1] != r[-2] for r in rows):
        return "verdicts differ from the catalogue's expectations"
    return None


def check_verify(call, expected_exit):
    problem = _exit(call, expected_exit)
    if problem:
        return problem
    report = json.loads(call.out)
    if report["passed"] != (expected_exit == 0):
        return "passed=%r with exit %d" % (report["passed"], call.code)
    if expected_exit == 1 and not report["violation_count"]:
        return "failed without violations"
    return None


def check_bounds(call, expect):
    problem = _exit(call, 0)
    if problem:
        return problem
    got = json.loads(call.out)
    if (got["min_n_hamming"], got["min_n_gv"]) != tuple(expect):
        return "min_n_hamming, min_n_gv = %r, %r, expected %r" % (
            got["min_n_hamming"], got["min_n_gv"], tuple(expect))
    return None


def record_digest(csv_text):
    """sha256 of every record column except fidelity: shows any change to
    the per-trial draw order, while fidelity may move in its last bits."""
    h = hashlib.sha256()
    for line in csv_text.splitlines():
        cols = line.split(",")
        h.update((",".join(cols[:3] + cols[4:]) + "\n").encode())
    return h.hexdigest()[:16]


# -- the session's operations ------------------------------------------------------

class Session:
    """A workload's operations, each run, timed and checked."""

    def __init__(self, workload, seed, quick=False):
        self.wl = workload
        self.seed = seed
        self.trials = max(40, workload.trials // 50) if quick else workload.trials
        self.small_reps = 1 if quick else workload.small_reps
        self.ledger = Ledger()

    def simulate(self, run_seed, strategy, workers, trials=None, twin=None):
        trials = trials or self.trials
        argv = ("simulate",) + self.wl.simulate + (
            "--trials", str(trials), "--seed", str(run_seed),
            "--strategy", strategy, "--workers", str(workers))
        return self.ledger.op(
            "simulate %s w%d seed %d" % (strategy, workers, run_seed),
            lambda: run_cli(argv),
            lambda c: check_simulate(c, trials, statistical=trials > 1,
                                     twin=twin))

    def catalogue(self):
        return self.ledger.op("catalogue", lambda: run_cli(("catalogue",)),
                              check_catalogue)

    def verify(self):
        return self.ledger.op(
            "verify", lambda: run_cli(("verify",) + self.wl.verify),
            lambda c: check_verify(c, self.wl.verify_exit))

    def bounds(self):
        l, t = self.wl.bounds
        argv = ("bounds", "--l", str(l), "--t", str(t), "--format", "json")
        return self.ledger.op("bounds", lambda: run_cli(argv),
                              lambda c: check_bounds(c, self.wl.bounds_expect))

    def setup(self):
        """The fixed cost before work starts; returns its seconds."""
        if self.wl.setup == "load-codes":
            got = self.ledger.op(
                "load built-in codes",
                lambda: [codes.load_code(name) for name in CODES],
                lambda loaded: None if [c.name for c in loaded] == list(CODES)
                else "loaded %r" % [c.name for c in loaded])
        else:
            # a fixed seed: which qubits trial 0 activates would otherwise
            # make the set-up cost differ from one workload seed to the next
            got = self.simulate(0, "exhaustive", 1, trials=1)
        return None if got is None else got[1]

    def warm_up(self):
        """One untimed pass over every operation but ``bounds``, so that
        first-call costs (lazy imports, BLAS start-up) fall before timing."""
        self.setup()
        for strategy in STRATEGIES:
            for workers in (1, 2):
                self.simulate(0, strategy, workers,
                              trials=max(40, self.trials // 10))
        self.catalogue()
        self.verify()

    def design_ops(self, samples):
        for key, op, reps in (("catalogue_s", self.catalogue, 1),
                              ("verify_s", self.verify, self.small_reps),
                              ("bounds_s", self.bounds, self.small_reps)):
            for _ in range(reps):
                got = op()
                if got is not None:
                    samples[key].append(got[1])


def _rounds(seed, seconds, quick):
    """Per-round simulate seeds, drawn from the workload seed, until the
    measuring time is spent (and at least MIN_ROUNDS rounds)."""
    draw = random.Random(seed)
    deadline = time.perf_counter() + seconds
    done = 0
    while done < (1 if quick else MIN_ROUNDS) or time.perf_counter() < deadline:
        yield draw.randrange(1 << 31)
        done += 1


def run_untraced(workload, seed, seconds, quick=False):
    """End-to-end metrics: returns (session, samples, digests)."""
    s = Session(workload, seed, quick)
    samples = defaultdict(list)
    digests = {}
    s.warm_up()
    for run_seed in _rounds(seed, seconds, quick):
        for _ in range(SETUP_REPS):
            took = s.setup()
            if took is not None:
                samples["setup_s"].append(took)
        for strategy in STRATEGIES:
            w1 = s.simulate(run_seed, strategy, 1)
            w2 = s.simulate(run_seed, strategy, 2,
                            twin=None if w1 is None else w1[0])
            if w1 is not None:
                samples["trials_per_s." + strategy].append(s.trials / w1[1])
                digests.setdefault(strategy, record_digest(w1[0].out))
            if w2 is not None:
                samples["trials_per_s_w2." + strategy].append(
                    s.trials / w2[1])
        s.design_ops(samples)
        start = time.perf_counter()
        sum(i * i for i in range(100_000))
        samples[MACHINE_REF].append(time.perf_counter() - start)
    return s, samples, digests


# -- the traced run ------------------------------------------------------------------

def run_traced(workload, seed, seconds, quick=False):
    """Per-layer metrics: returns (session, metrics, tracer)."""
    s = Session(workload, seed, quick)
    tracer = Tracer()
    s.warm_up()
    plain_s = traced_s = 0.0
    records = []
    unused, w2_hierarchical = defaultdict(list), []
    for run_seed in _rounds(seed, seconds, quick):
        plain = {}
        for strategy in STRATEGIES:
            plain[strategy] = s.simulate(run_seed, strategy, 1)
            twin = None if plain[strategy] is None else plain[strategy][0]
            with tracer.installed():
                traced = s.simulate(run_seed, strategy, 1, twin=twin)
            if twin is not None and traced is not None:
                plain_s += plain[strategy][1]
                traced_s += traced[1]
                records.append(traced[0].out)
        twin = plain["hierarchical"]
        w2 = s.simulate(run_seed, "hierarchical", 2,
                        twin=None if twin is None else twin[0])
        if w2 is not None:
            w2_hierarchical.append(s.trials / w2[1])
        with tracer.installed():
            s.design_ops(unused)
    with tracer.installed():
        for name in CODES:
            for _ in range(1 if quick else 3):
                s.ledger.op("build_syndrome_table %s" % name,
                            lambda: _build_table(name), _check_table)
    metrics = layer_metrics(tracer.spans, records)
    metrics["trace.overhead"] = (
        traced_s / plain_s - 1.0 if plain_s else 0.0, "share")
    metrics[UNSTEADY] = (
        statistics.median(w2_hierarchical) if w2_hierarchical else 0.0, "1/s")
    metrics.update(decoder_micro(s, 0.02 if quick else 0.25))
    return s, metrics, tracer


def _build_table(name):
    code = codes.load_code(name)
    pattern_filter = "phase-only" if name == "phase3" else "all"
    return code, pattern_filter, decoder.build_syndrome_table(
        code, code.claimed_t, pattern_filter)


def _check_table(built):
    code, pattern_filter, table = built
    per_qubit = 1 if pattern_filter == "phase-only" else 3
    want = sum(per_qubit ** i * math.comb(code.n, i)
               for i in range(code.claimed_t + 1))
    if len(table) != want:
        return "%d syndrome subspaces, expected %d" % (len(table), want)
    return None


def layer_metrics(spans, records):
    """Per-layer metrics from the traced spans and the traced records."""
    by_name = defaultdict(list)
    for span, times in zip(spans, self_times_us(spans)):
        by_name[span[0]].append((span, times))

    def self_us(name, tag=None):
        return mean([st for sp, (_, st) in by_name[name]
                     if tag is None or sp[5] == tag])

    trials = by_name[TRIAL]
    n_trials = len(trials) or 1
    m = {}
    for name in ("rng.trial_generator", "channels.random_channel",
                 "channels.apply_channel", "codes.encode", "decoder.recover",
                 "statespace.fidelity_against",
                 "statespace.schmidt_diagnostics", "bounds.min_n_gv",
                 "bounds.min_n_hamming"):
        m[name + ".us"] = (self_us(name), "us")
    m["channels.apply_channel.calls_per_trial"] = (
        len(by_name["channels.apply_channel"]) / n_trials, "1/trial")
    for code in CODES:
        m["codes.run_checker.us." + code] = (
            self_us("codes.run_checker", code), "us")
        m["decoder.build_syndrome_table.us." + code] = (
            self_us("decoder.build_syndrome_table", code), "us")
    for strategy in STRATEGIES:
        measured = by_name["decoder.measure." + strategy]
        durations = [dur for _, (dur, _) in measured] or [0.0]
        m["decoder.measure.us.%s.p50" % strategy] = (
            percentile(durations, 50), "us")
        m["decoder.measure.us.%s.p99" % strategy] = (
            percentile(durations, 99), "us")
        m["decoder.measurements_per_trial." + strategy] = (
            sum(sp[5] for sp, _ in measured) / (len(measured) or 1),
            "1/trial")
    trial_us = [dur for _, (dur, _) in trials] or [0.0]
    m["cli.engine_self.us_per_trial"] = (
        mean([st for _, (_, st) in trials]), "us")
    m["trial.us.p50"] = (percentile(trial_us, 50), "us")
    m["trial.us.p99"] = (percentile(trial_us, 99), "us")
    activated = [line.split(",")[1]
                 for text in records for line in text.splitlines()[1:]]
    active = [len(a.split("+")) if a else 0 for a in activated]
    m["trial.clean_share"] = (
        sum(1 for a in active if a == 0) / (len(active) or 1), "share")
    m["trial.active_mean"] = (mean(active), "qubits")
    return m


# -- decoder micro-cases ----------------------------------------------------------------

def decoder_micro(s, budget_s):
    """measure_exhaustive, measure_hierarchical and syndrome_distribution on
    fixed shor9 blocks (from the workload seed) with 0, 1 and 2 qubits
    entangled through random:2 channels; median microseconds per call."""
    code = codes.load_code("shor9")
    table = decoder.build_syndrome_table(code, 1, "all")
    gen = np.random.default_rng(s.seed & ((1 << 63) - 1))
    vec = gen.standard_normal(2) + 1j * gen.standard_normal(2)
    block = codes.encode(code, statespace.PureState.from_amplitudes(
        1, vec / np.linalg.norm(vec)))
    blocks = [block]
    for q in gen.choice(code.n, size=2, replace=False):
        block = channels.apply_channel(block, int(q),
                                       channels.random_channel(2, gen))
        blocks.append(block)
    cases = (
        ("measure_exhaustive", lambda st, r: decoder.measure_exhaustive(
            st, table, r)[1]),
        ("measure_hierarchical", lambda st, r: decoder.measure_hierarchical(
            st, table, r)[1]),
        ("syndrome_distribution",
         lambda st, r: decoder.syndrome_distribution(st, table)[1]),
    )
    m = {}
    for active, state in enumerate(blocks):
        for fn_name, fn in cases:
            draws = np.random.default_rng(active)
            got = s.ledger.op(
                "%s active=%d" % (fn_name, active),
                lambda: _time_calls(fn, state, draws, budget_s),
                lambda res: _check_micro(fn_name, active, res[0]))
            if got is not None:
                m["decoder.micro.%s.active%d.us" % (fn_name, active)] = (
                    got[0][1], "us")
    return m


def _time_calls(fn, state, draws, budget_s):
    """(first result, median microseconds) over calls for budget_s."""
    first = fn(state, draws)
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < 5 or time.perf_counter() < end:
        start = time.perf_counter()
        fn(state, draws)
        times.append((time.perf_counter() - start) * 1e6)
    return first, statistics.median(times)


def _check_micro(fn_name, active, result):
    if fn_name == "syndrome_distribution":
        if abs(float(np.sum(result)) - 1.0) > 1e-9:
            return "probabilities sum to %r" % float(np.sum(result))
        if active <= 1 and result[-1] > 1e-9:
            return "a weight-%d error reaches 'none'" % active
        return None
    if active <= 1 and result is None:
        return "no syndrome for a weight-%d error" % active
    if active == 0 and not result.is_zero():
        return "clean block decoded as %s" % result.text()
    return None
