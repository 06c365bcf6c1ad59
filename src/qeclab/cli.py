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
verdict mismatch), 2 malformed input (unreadable files, unwritable output
paths, invalid ranges, layout-cap overflow).

This module parses arguments and writes output only. ``simulate`` runs on
the Monte Carlo engine in ``experiment``, which stacks trials into batches
without changing any trial's result: records depend on (seed, trial) alone,
so two runs with the same seed produce byte-identical CSV at any worker
count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys

import numpy as np

from .bitstrings import BitString
from .bounds import bound_rows, min_n_gv, min_n_hamming
from .channels import apply_channel
from .codes import (BUILTIN_CODES, CATALOGUE_EXPECTATIONS, ConditionError,
                    encode, load_code, run_checker)
from .decoder import DYADIC, PATTERN_FILTERS, build_syndrome_table, correct
from .experiment import (MAX_WORKERS, SUCCESS_FIDELITY, BadInput,
                         ExperimentConfig, WorkerFailed, parse_channel_spec,
                         read_amplitudes, read_code, records_to_csv,
                         run_experiment)
from .rng import trial_generator
from .statespace import PureState

#: Most rows a ``bounds`` table may hold. Every row is built before the
#: first is printed, and its integers grow like 4^n.
BOUNDS_MAX_ROWS = 10000

#: Largest l or t a ``bounds`` query may ask for. The summary scans walk n
#: from max(l, t) to about l + 10.5 t, at integers of about n bits, so their
#: cost grows as the square of l and t; at this cap every accepted query,
#: the largest table included, takes about 2 s or less.
BOUNDS_MAX_LT = 2000


# -- output plumbing --------------------------------------------------------------

def _open_output(path):
    """path opened for writing text; BadInput naming it when it cannot be."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise BadInput("cannot write %s: %s" % (path, exc.strerror))


def _write(fh, text):
    """Write text to fh, a file from _open_output or sys.stdout, and flush
    it; BadInput naming the file when that fails."""
    try:
        fh.write(text)
        fh.flush()
    except OSError as exc:
        # closing drops what the flush could not write, which a later close
        # would otherwise try, and fail, to write again
        with contextlib.suppress(OSError):
            fh.close()
        raise BadInput("cannot write %s: %s" % (fh.name, exc.strerror))


def _emit(text, out_path):
    if out_path:
        with _open_output(out_path) as fh:
            _write(fh, text)
    else:
        _write(sys.stdout, text)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- subcommands -------------------------------------------------------------------

def cmd_verify(args):
    code = read_code(args.code)
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
    if max(l, t) > BOUNDS_MAX_LT:
        raise BadInput("l = %d and t = %d: both must be at most %d"
                       % (l, t, BOUNDS_MAX_LT))
    max_n = args.max_n if args.max_n is not None else max(l, t, 1) + 11
    if max_n < l:
        raise BadInput("max-n %d is below l = %d" % (max_n, l))
    if max_n - l + 1 > BOUNDS_MAX_ROWS:
        raise BadInput("a table of %d rows exceeds the cap of %d rows"
                       % (max_n - l + 1, BOUNDS_MAX_ROWS))
    rows = [{"n": n, "l": l, "t": t, "sphere_volume": vol,
             "hamming": hamming, "gv_codewords": gv, "gv_ok": gv >= 1 << l}
            for n, vol, hamming, gv in bound_rows(l, t, max_n)]
    summary = {"min_n_hamming": min_n_hamming(l, t), "min_n_gv": min_n_gv(l, t)}
    try:  # the whole text, before anything is written
        text = _bounds_text(rows, summary, args.format)
    except ValueError:  # an integer past Python's int-to-str digit limit
        raise BadInput("the bounds table holds an integer of more than %d "
                       "decimal digits, Python's limit for printing one "
                       "(PYTHONINTMAXSTRDIGITS raises it)"
                       % sys.get_int_max_str_digits())
    _emit(text, args.out)
    return 0


def _bounds_text(rows, summary, fmt):
    if fmt == "json":  # default csv
        return _json_text({"rows": rows, **summary})
    lines = ["n,l,t,sphere_volume,hamming,gv_codewords,gv_ok"]
    for r in rows:
        lines.append("%d,%d,%d,%d,%s,%d,%s" % (
            r["n"], r["l"], r["t"], r["sphere_volume"],
            "true" if r["hamming"] else "false", r["gv_codewords"],
            "true" if r["gv_ok"] else "false"))
    lines.append("min_n_hamming,%d" % summary["min_n_hamming"])
    lines.append("min_n_gv,%d" % summary["min_n_gv"])
    return "\n".join(lines) + "\n"


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
        # a part below 1e-12, a signed zero included, prints as 0
        re = amp.real if abs(amp.real) >= 1e-12 else 0.0
        if abs(amp.imag) < 1e-12:
            coeff = "%+.4f" % re
        else:
            coeff = "+(%.4f%+.4fj)" % (re, amp.imag)
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
    c = read_amplitudes([args.c0, args.c1], 2)
    _, channel = parse_channel_spec("decoherence:" + args.overlap)
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
        if args.qubit not in ("0", "1", "2"):
            raise BadInput("--qubit must be 0, 1, 2, or 'none'")
        qubit = int(args.qubit)
        state = apply_channel(reference, qubit, channel)
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
    report = correct(state, table, "hierarchical", rng, reference)
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
    try:
        config = ExperimentConfig(
            code=args.code, p=args.p, channel=args.channel,
            qubits=args.qubits, trials=args.trials, seed=args.seed,
            strategy=args.strategy, logical=logical,
            pattern_filter=args.filter, t=args.t, max_active=args.max_active)
    except ValueError as exc:
        raise BadInput(str(exc))
    with contextlib.ExitStack() as files:
        # opened before the first trial, so that a long run is not computed
        # only to be refused
        out, summary_out = [files.enter_context(_open_output(path)) if path
                            else None for path in (args.out, args.summary)]
        if out and summary_out:
            a, b = os.fstat(out.fileno()), os.fstat(summary_out.fileno())
            if stat.S_ISREG(a.st_mode) and os.path.samestat(a, b):
                raise BadInput("--out and --summary name the same file %s"
                               % args.out)
        records, summary = run_experiment(config, workers=args.workers)
        if args.format == "json":
            body = _json_text([dict(r) for r in records])
        else:
            body = records_to_csv(records)
        summary_text = _json_text(summary)
        _write(out or sys.stdout, body)
        if summary_out or out:
            _write(summary_out or sys.stdout, summary_text)
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

#: options that more than one subcommand reads; a subcommand declares only
#: those it reads, so that the others refuse them
_SHARED_OPTIONS = {
    "--seed": dict(type=int, default=0, help="experiment seed (default 0)"),
    "--out": dict(help="write primary output to this path instead of stdout"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="output format (default csv)"),
}


def _subcommand(sub, name, shared, **kwargs):
    p = sub.add_parser(name, **kwargs)
    for option in shared:
        p.add_argument(option, **_SHARED_OPTIONS[option])
    return p


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help goes out through _write: argparse's own
    printing drops a failed write silently."""

    def print_help(self, file=None):
        _write(file or sys.stdout, self.format_help())


def build_parser():
    parser = _Parser(
        prog="qeclab",
        description="quantum error-correction workbench: encoded blocks, "
                    "entangling channels, projective syndrome decoding, and "
                    "packing/covering bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "verify", ["--out"],
                    help="run a correctability checker on a code")
    p.add_argument("--code", required=True,
                   help="catalogue name (%s) or JSON file"
                        % ", ".join(BUILTIN_CODES))
    p.add_argument("--t", type=int, default=None,
                   help="error weight (default: the code's claimed t)")
    p.add_argument("--condition", default="general",
                   choices=("amplitude", "phase", "general"))
    p.set_defaults(func=cmd_verify)

    p = _subcommand(sub, "bounds", ["--out", "--format"],
                    help="packing/covering bound table")
    p.add_argument("--l", type=int, required=True, help="logical qubits")
    p.add_argument("--t", type=int, required=True, help="correctable weight")
    p.add_argument("--max-n", type=int, default=None, dest="max_n",
                   help="largest block size row (default: l-ish + 11)")
    p.set_defaults(func=cmd_bounds)

    p = _subcommand(sub, "demo3", ["--seed", "--out"],
                    help="narrated three-qubit phase-code demo")
    p.add_argument("--c0", default="0.6", help="logical |0> amplitude")
    p.add_argument("--c1", default="0.8", help="logical |1> amplitude")
    p.add_argument("--qubit", default="0",
                   help="which qubit decoheres: 0, 1, 2, or 'none'")
    p.add_argument("--overlap", default="0",
                   help="environment overlap <a0|a1> of the decoherence")
    p.set_defaults(func=cmd_demo3)

    p = _subcommand(sub, "simulate", ["--seed", "--out", "--format"],
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
    p.add_argument("--strategy", default="exhaustive", choices=tuple(DYADIC))
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
                   help="parallel worker processes, at most %d (results "
                        "identical)" % MAX_WORKERS)
    p.add_argument("--summary", default=None,
                   help="write the JSON summary to this path")
    p.set_defaults(func=cmd_simulate)

    p = _subcommand(sub, "catalogue", ["--out", "--format"],
                    help="list built-in codes and checker verdicts")
    p.set_defaults(func=cmd_catalogue)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BadInput as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ConditionError as exc:
        sys.stderr.write(_json_text(exc.report.to_dict()))
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except WorkerFailed as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
