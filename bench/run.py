"""qeclab benchmark: Monte Carlo throughput per strategy and worker count,
design-time checks, and a traced per-layer run.

Run from the root of a checkout (qeclab is imported from its ``src``):

    python3 bench/run.py --workload mc-shor9 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload mc-shor9 --seed 1 --seconds 55 --trace 1
    python3 bench/run.py --self-check

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones. Report lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
``--self-check`` runs every workload in both modes with tiny trial counts
and checks that each metric of BENCHMARK.json is emitted with its unit and
that every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_qeclab():
    """Import qeclab from this checkout's sources, never from elsewhere."""
    if not (SRC / "qeclab" / "cli.py").is_file():
        raise ImportError("no qeclab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import qeclab
    if Path(qeclab.__file__).resolve().parent != SRC / "qeclab":
        raise ImportError("qeclab was imported from %s" % qeclab.__file__)


def git_commit():
    """The checkout's commit, read from .git without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "commit": git_commit(),
        "seed": seed,
        # as found: the benchmark never sets them, so that --workers 2
        # shows the BLAS oversubscription users get by default
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(samples):
    from session import REPORT_ONLY
    metrics, details = {}, {}
    for name, values in sorted(samples.items()):
        q1, med, q3 = quartiles(values)
        if name not in REPORT_ONLY:
            metrics[name] = (med, "s" if name.endswith("_s") else "1/s")
        details[name] = {"n": len(values), "median": med, "q1": q1, "q3": q3,
                         "min": min(values), "max": max(values)}
    return metrics, details


def run(workload, seed, seconds, trace, quick=False):
    """One run; returns (result object, report dict)."""
    import session
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    report = {"workload": workload, "trace": trace}
    if trace:
        s, metrics, tracer = session.run_traced(wl, seed, seconds, quick)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / ("spans-%s.jsonl" % workload)
        tracer.write_jsonl(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
    else:
        s, samples, digests = session.run_untraced(wl, seed, seconds, quick)
        metrics, report["samples"] = end_to_end(samples)
        report["record_digest"] = digests
    ledger = s.ledger
    report["op_failure_share"] = len(ledger.failures) / max(1, ledger.attempted)
    report["failures"] = ledger.failures[:20]
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    return result, report


def self_check():
    """Tiny runs of every workload in both modes against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, report = run(wl["name"], 1, 0, trace, quick=True)
            where = "%s --trace %d" % (wl["name"], trace)
            got = result["metrics"]
            for m in spec[group]:
                if m["name"] not in got:
                    problems.append("%s: %s missing" % (where, m["name"]))
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append("%s: %s has unit %r, expected %r" % (
                        where, m["name"], got[m["name"]]["unit"], m["unit"]))
            extra = set(got) - {m["name"] for m in spec[group]}
            if extra:
                problems.append("%s: unlisted metrics %s"
                                % (where, sorted(extra)))
            problems.extend("%s: %s" % (where, f) for f in report["failures"])
            print("%s: %d operations, %d failed" % (
                where, result["attempted"], result["failed"]), flush=True)
    for p in problems:
        print("FAIL " + p)
    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    try:
        import_qeclab()
    except ImportError as exc:
        sys.stderr.write("error: cannot import qeclab: %s\n" % exc)
        return 2
    if args.self_check:
        return self_check()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    print("facts " + json.dumps(machine_facts(args.seed)), flush=True)
    result, report = run(args.workload, args.seed, args.seconds, args.trace)
    print("report " + json.dumps(report), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
