"""Command-line workbench: verification, bounds tables, the three-qubit
demo, and seeded Monte Carlo experiments.

Subcommands
-----------

* ``verify``    -- run a correctability checker on a catalogue or file code
* ``bounds``    -- packing/covering bound table over a range of block sizes
* ``demo3``     -- narrated single-block demo on the three-qubit phase code
* ``simulate``  -- Monte Carlo noise-and-decode experiment, CSV + summary
* ``catalogue`` -- built-in codes with expected and actual checker verdicts

Exit codes: 0 pass/success, 1 semantic failure (a condition violated or a
verdict mismatch), 2 malformed input (unreadable files, invalid ranges,
layout-cap overflow).

Reproducibility: every trial draws from a counter-based substream keyed by
(seed, trial index) only, in a fixed order (activation, channel parameters,
logical state, measurements). Trial results therefore never depend on the
worker count or execution order, and two runs with the same seed produce
byte-identical CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import math
import multiprocessing
import os
import sys

import numpy as np

from .bitstrings import BitString
from .bounds import (gv_guaranteed_codewords, hamming_holds, min_n_gv,
                     min_n_hamming, sphere_volume)
from .channels import (apply_channel, load_channel, make_decoherence,
                       random_channel)
from .codes import (BUILTIN_CODES, CATALOGUE_EXPECTATIONS, ConditionError,
                    encode, load_code, run_checker)
from .decoder import PATTERN_FILTERS, build_syndrome_table, correct
from .rng import trial_generator
from .statespace import DIM_CAP, TOL_NORM, PureState

#: a trial counts as an exact success iff fidelity >= this AND disentangled
SUCCESS_FIDELITY = 1.0 - 1e-8

CSV_HEADER = "trial,activated,syndrome,fidelity,disentangled,corrected"

#: --max-active runs are refused when the cap holds with less than this
#: probability: each trial redraws its activations until the cap holds, so
#: it would take about 1/probability draws.
MIN_ACCEPTANCE = 1e-6


class BadInput(ValueError):
    """Malformed input surfaced to the user with exit code 2."""


# -- experiment configuration ----------------------------------------------------

class ExperimentConfig:
    """Primitive-valued description of one Monte Carlo experiment.

    All fields are plain strings/numbers so a config crosses process
    boundaries untouched; heavyweight objects (code, channel, table) are
    reconstructed inside each worker.
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
        if self.strategy not in ("exhaustive", "hierarchical"):
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
    """Everything a worker needs to run trials, rebuilt per process."""

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
        env_dim = (self.channel_value if self.kind == "random"
                   else self.channel_value.env_dim)
        worst_active = (len(self.eligible) if config.max_active is None
                        else min(config.max_active, len(self.eligible)))
        joint_dim = (1 << self.code.n) * env_dim ** worst_active
        if joint_dim > DIM_CAP:
            raise BadInput(
                "worst-case joint dimension 2^%d * %d^%d = %d exceeds the "
                "cap %d; restrict --qubits or set --max-active"
                % (self.code.n, env_dim, worst_active, joint_dim, DIM_CAP))
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

    def run_trial(self, trial):
        cfg = self.config
        rng = trial_generator(cfg.seed, trial)
        # draw order is part of the reproducibility contract:
        # activation -> channel parameters -> logical state -> measurements
        while True:
            activated = [q for q in self.eligible if rng.random() < cfg.p]
            if cfg.max_active is None or len(activated) <= cfg.max_active:
                break
        channels = []
        for q in activated:
            if self.kind == "random":
                channels.append((q, random_channel(self.channel_value, rng)))
            else:
                channels.append((q, self.channel_value))
        if self.fixed_logical is None:
            vec = (rng.standard_normal(1 << self.code.l)
                   + 1j * rng.standard_normal(1 << self.code.l))
            vec /= np.linalg.norm(vec)
        else:
            vec = self.fixed_logical
        reference = encode(self.code, PureState.from_amplitudes(self.code.l,
                                                                vec))
        state = reference
        for q, ch in channels:
            state = apply_channel(state, q, ch)
        report = correct(state, self.code, self.t, cfg.strategy, rng,
                         reference, pattern_filter=cfg.pattern_filter,
                         table=self.table)
        if not -TOL_NORM <= report.fidelity <= 1.0 + TOL_NORM:
            raise AssertionError("fidelity %r out of range" % report.fidelity)
        return {
            "trial": trial,
            "activated": "+".join(str(q) for q in activated),
            "syndrome": report.syndrome.text() if report.syndrome else "none",
            "fidelity": report.fidelity,
            "disentangled": report.disentangled,
            "corrected": report.corrected,
        }


def _run_chunk(config_dict, start, stop):
    ctx = _ExperimentContext(ExperimentConfig(**config_dict))
    return [ctx.run_trial(i) for i in range(start, stop)]


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

    Processes forked meanwhile inherit the setting, so each pool worker runs
    its BLAS calls on its own core instead of every worker threading them
    over all cores at once.
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

    workers > 1 splits the trial range across processes; because each
    trial's randomness is keyed by (seed, trial) alone, the records are
    identical at any worker count.
    """
    ctx = _ExperimentContext(config)  # validates before any trial runs
    workers = max(1, min(int(workers), config.trials))
    if workers == 1:
        records = [ctx.run_trial(i) for i in range(config.trials)]
    else:
        edges = np.linspace(0, config.trials, workers + 1).astype(int)
        jobs = [(config.as_dict(), int(a), int(b))
                for a, b in zip(edges[:-1], edges[1:]) if a < b]
        with _one_blas_thread(), \
                multiprocessing.get_context("fork").Pool(workers) as pool:
            chunks = pool.starmap(_run_chunk, jobs)
        records = [rec for chunk in chunks for rec in chunk]
    successes = sum(1 for r in records
                    if r["fidelity"] >= SUCCESS_FIDELITY and r["disentangled"])
    corrected = sum(1 for r in records if r["corrected"])
    summary = {
        "config": dict(ctx.config.as_dict(),
                       t=ctx.t,
                       fidelity_threshold=SUCCESS_FIDELITY,
                       eligible_qubits=list(ctx.eligible)),
        "results": {
            "trials": config.trials,
            "success_count": successes,
            "success_rate": successes / config.trials,
            "corrected_count": corrected,
            "mean_fidelity": math.fsum(r["fidelity"] for r in records)
                             / config.trials,
            "analytic_success_bound": analytic_success_bound(
                len(ctx.eligible), ctx.t, config.p, config.max_active),
        },
    }
    return records, summary


def records_to_csv(records):
    lines = [CSV_HEADER]
    for r in records:
        lines.append("%d,%s,%s,%s,%s,%s" % (
            r["trial"], r["activated"], r["syndrome"], repr(r["fidelity"]),
            "true" if r["disentangled"] else "false",
            "true" if r["corrected"] else "false"))
    return "\n".join(lines) + "\n"


# -- output plumbing --------------------------------------------------------------

def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- subcommands -------------------------------------------------------------------

def cmd_verify(args):
    try:
        code = load_code(args.code)
    except (OSError, ValueError) as exc:
        raise BadInput(str(exc))
    t = args.t if args.t is not None else code.claimed_t
    try:
        report = run_checker(code, args.condition, t)
    except ValueError as exc:
        raise BadInput(str(exc))
    payload = dict({"code": code.name, "n": code.n, "l": code.l},
                   **report.to_dict())
    _emit(_json_text(payload), args.out)
    return 0 if report.passed else 1


def cmd_bounds(args):
    l, t = args.l, args.t
    if l < 0 or t < 0:
        raise BadInput("l and t must be nonnegative")
    max_n = args.max_n if args.max_n is not None else max(l, t, 1) + 11
    if max_n < l:
        raise BadInput("max-n %d is below l = %d" % (max_n, l))
    rows = []
    for n in range(l, max_n + 1):
        row_t = min(t, n)
        vol = sphere_volume(n, row_t)
        rows.append({
            "n": n, "l": l, "t": t,
            "sphere_volume": vol,
            "hamming": hamming_holds(n, l, row_t),
            "gv_codewords": gv_guaranteed_codewords(n, t),
            "gv_ok": gv_guaranteed_codewords(n, t) >= (1 << l),
        })
    summary = {"min_n_hamming": min_n_hamming(l, t), "min_n_gv": min_n_gv(l, t)}
    if args.format == "json":  # default csv
        _emit(_json_text({"rows": rows, **summary}), args.out)
    else:
        lines = ["n,l,t,sphere_volume,hamming,gv_codewords,gv_ok"]
        for r in rows:
            lines.append("%d,%d,%d,%d,%s,%d,%s" % (
                r["n"], r["l"], r["t"], r["sphere_volume"],
                "true" if r["hamming"] else "false", r["gv_codewords"],
                "true" if r["gv_ok"] else "false"))
        lines.append("min_n_hamming,%d" % summary["min_n_hamming"])
        lines.append("min_n_gv,%d" % summary["min_n_gv"])
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _format_state(state, limit=32):
    """Render a state as a sum of kets, environment factor index last."""
    n = state.qubit_count
    flat = state.amps.reshape(state.layout.system_dim, -1)
    env_dims = state.layout.env_dims
    parts = []
    for (v, e), amp in np.ndenumerate(flat):
        if abs(amp) < 1e-12:
            continue
        ket = "|%s>" % repr(BitString.from_index(int(v), n))[1:-1]
        if env_dims:
            idx = np.unravel_index(int(e), env_dims)
            ket += "".join("|e%d>" % i for i in idx)
        if abs(amp.imag) < 1e-12:
            coeff = "%+.4f" % amp.real
        else:
            coeff = "+(%.4f%+.4fj)" % (amp.real, amp.imag)
        parts.append("%s %s" % (coeff, ket))
        if len(parts) >= limit:
            parts.append("...")
            break
    return "  ".join(parts)


DEMO3_OUTCOME_TABLE = """\
outcome map ((L1, L2) -> correction):
  (1, 1) -> no error, no correction
  (1, 0) -> phase flip on qubit 0, apply P(100)
  (0, 1) -> phase flip on qubit 1, apply P(010)
  (0, 0) -> phase flip on qubit 2, apply P(001)"""


def cmd_demo3(args):
    out = []
    code = load_code("phase3")
    try:
        c = np.array([complex(args.c0), complex(args.c1)])
        overlap = complex(args.overlap)
    except ValueError as exc:
        raise BadInput("bad amplitude or overlap literal: %s" % exc)
    if abs(overlap) > 1.0:
        raise BadInput("decoherence overlap magnitude exceeds 1")
    nrm = np.linalg.norm(c)
    if nrm < 1e-12:
        raise BadInput("logical amplitudes are both zero")
    c = c / nrm
    out.append("three-qubit phase code demo")
    out.append("")
    out.append("logical state: (%.4f%+.4fj)|0> + (%.4f%+.4fj)|1>"
               % (c[0].real, c[0].imag, c[1].real, c[1].imag))
    logical = PureState.from_amplitudes(1, c)
    reference = encode(code, logical)
    out.append("encoded block: %s" % _format_state(reference))
    out.append("")
    if args.qubit == "none":
        state = reference
        out.append("no qubit decoheres; the block stays pure")
    else:
        qubit = int(args.qubit)
        if not 0 <= qubit < 3:
            raise BadInput("--qubit must be 0, 1, 2, or 'none'")
        ch = make_decoherence(overlap)
        state = apply_channel(reference, qubit, ch)
        out.append("qubit %d decoheres (environment overlap <a0|a1> = %s):"
                   % (qubit, args.overlap))
        out.append("joint state: %s" % _format_state(state))
    out.append("")
    table = build_syndrome_table(code, 1, pattern_filter="phase-only")
    out.append("syndrome subspaces in walk order: %s"
               % ", ".join(table.labels))
    out.append(DEMO3_OUTCOME_TABLE)
    out.append("")
    rng = trial_generator(args.seed, 0)
    report = correct(state, code, 1, "hierarchical", rng, reference,
                     pattern_filter="phase-only", table=table)
    names = ("L1", "L2")
    for i, (label, outcome) in enumerate(report.outcome_trace):
        out.append("%s measures %s -> outcome %d"
                   % (names[i] if i < 2 else "L%d" % (i + 1), label, outcome))
    if report.syndrome is None:
        out.append("no subspace answered; block left uncorrected")
    elif report.syndrome.is_zero():
        out.append("identified: no error; no correction needed")
    else:
        out.append("identified error pattern %s; applying the same "
                   "operator undoes it" % report.syndrome.text())
    out.append("")
    out.append("recovered block: %s" % _format_state(report.recovered_state))
    out.append("fidelity against the encoded block: %.12f" % report.fidelity)
    out.append("disentangled from the environment: %s"
               % ("yes" if report.disentangled else "no"))
    _emit("\n".join(out) + "\n", args.out)
    return 0 if report.fidelity >= SUCCESS_FIDELITY else 1


def cmd_simulate(args):
    logical = args.logical
    if logical != "random":
        logical = [s.strip() for s in logical.split(",")]
    qubits = args.qubits
    if qubits != "all":
        try:
            qubits = [int(s) for s in qubits.split(",")]
        except ValueError:
            raise BadInput("--qubits must be 'all' or a comma list of ints")
    try:
        config = ExperimentConfig(
            code=args.code, p=args.p, channel=args.channel, qubits=qubits,
            trials=args.trials, seed=args.seed, strategy=args.strategy,
            logical=logical, pattern_filter=args.filter, t=args.t,
            max_active=args.max_active)
    except ValueError as exc:
        raise BadInput(str(exc))
    records, summary = run_experiment(config, workers=args.workers)
    if args.format == "json":
        body = _json_text([dict(r) for r in records])
    else:
        body = records_to_csv(records)
    _emit(body, args.out)
    summary_text = _json_text(summary)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(summary_text)
    elif args.out:
        sys.stdout.write(summary_text)
    else:
        sys.stderr.write(summary_text)
    return 0


def cmd_catalogue(args):
    rows = []
    ok = True
    for name in BUILTIN_CODES:
        code = load_code(name)
        for condition, t, expected in CATALOGUE_EXPECTATIONS[name]:
            actual = run_checker(code, condition, t).passed
            ok = ok and (actual == expected)
            rows.append({
                "code": name, "n": code.n, "l": code.l,
                "claimed_t": code.claimed_t, "condition": condition, "t": t,
                "expected": expected, "actual": actual,
            })
    if args.format == "json":
        _emit(_json_text(rows), args.out)
    else:
        lines = ["code,n,l,claimed_t,condition,t,expected,actual"]
        for r in rows:
            lines.append("%s,%d,%d,%d,%s,%d,%s,%s" % (
                r["code"], r["n"], r["l"], r["claimed_t"], r["condition"],
                r["t"], "pass" if r["expected"] else "fail",
                "pass" if r["actual"] else "fail"))
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# -- parser -------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="experiment seed (default 0)")
    common.add_argument("--out", default=None,
                        help="write primary output to this path instead of "
                             "stdout")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format where applicable")

    parser = argparse.ArgumentParser(
        prog="qeclab",
        description="quantum error-correction workbench: encoded blocks, "
                    "entangling channels, projective syndrome decoding, and "
                    "packing/covering bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run a correctability checker on a code")
    p.add_argument("--code", required=True,
                   help="catalogue name (%s) or JSON file"
                        % ", ".join(BUILTIN_CODES))
    p.add_argument("--t", type=int, default=None,
                   help="error weight (default: the code's claimed t)")
    p.add_argument("--condition", default="general",
                   choices=("amplitude", "phase", "general"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", parents=[common],
                       help="packing/covering bound table")
    p.add_argument("--l", type=int, required=True, help="logical qubits")
    p.add_argument("--t", type=int, required=True, help="correctable weight")
    p.add_argument("--max-n", type=int, default=None, dest="max_n",
                   help="largest block size row (default: l-ish + 11)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("demo3", parents=[common],
                       help="narrated three-qubit phase-code demo")
    p.add_argument("--c0", default="0.6", help="logical |0> amplitude")
    p.add_argument("--c1", default="0.8", help="logical |1> amplitude")
    p.add_argument("--qubit", default="0",
                   help="which qubit decoheres: 0, 1, 2, or 'none'")
    p.add_argument("--overlap", default="0",
                   help="environment overlap <a0|a1> of the decoherence")
    p.set_defaults(func=cmd_demo3)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo noise-and-decode experiment")
    p.add_argument("--code", default="phase3")
    p.add_argument("--p", type=float, required=True,
                   help="independent activation probability per qubit")
    p.add_argument("--channel", default="decoherence:0",
                   help="'decoherence:<overlap>', 'random:<env_dim>', or a "
                        "channel JSON path")
    p.add_argument("--qubits", default="all",
                   help="'all' or comma list of eligible qubit indices")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--strategy", default="exhaustive",
                   choices=("exhaustive", "hierarchical"))
    p.add_argument("--logical", default="random",
                   help="'random' (fresh per trial) or comma list of 2^l "
                        "complex amplitudes")
    p.add_argument("--filter", default="all", choices=PATTERN_FILTERS,
                   help="syndrome pattern filter (phase3 needs phase-only)")
    p.add_argument("--t", type=int, default=None,
                   help="decode weight (default: the code's claimed t)")
    p.add_argument("--max-active", type=int, default=None, dest="max_active",
                   help="condition trials on at most this many activations")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes (results identical)")
    p.add_argument("--summary", default=None,
                   help="write the JSON summary to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("catalogue", parents=[common],
                       help="list built-in codes and checker verdicts")
    p.set_defaults(func=cmd_catalogue)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BadInput as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ConditionError as exc:
        sys.stderr.write(_json_text(exc.report.to_dict()))
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
