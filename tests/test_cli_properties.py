"""Generated bad input through the command line.

cli.main runs in-process on code and channel files with one JSON node
replaced by a random JSON value, and on option vectors for simulate, verify,
bounds and demo3 whose values include nan, inf, 1e400, digits that are not
ASCII, negative and huge numbers. Every call must end in exit 0 or 1, or in
exit 2 with a usage message or exactly one "error:" line; no exception may
escape. Valid draws stay small (at most 20 trials, l and t at most 30), and
--workers is drawn so that no run forks more than one worker.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeclab.cli import main

from input_files import (decoherence_data, repetition_code_data,
                         shipped_code_data)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

#: option text that no number option should take in its stride
ODD = ("nan", "-nan", "inf", "-inf", "1e400", "-1e400", "-1", "-0", "",
       " ", "0x10", "1_0", "1.5", "١٢", "１２", "²",
       "१", "one")
HUGE = str(10 ** 12)

#: any JSON value, numbers odd and huge included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([10 ** 30, -(10 ** 30), 2 ** 63, 1e308])
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

#: (base data, file kind) of the files whose nodes get replaced
FILES = [(shipped_code_data("phase3"), "code"),
         (repetition_code_data(3), "code"),
         (decoherence_data(), "channel")]


def run(argv):
    """(exit status, stdout, stderr) of cli.main(argv); argparse's exit
    counts as the exit status it carries."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def assert_clean_exit(argv):
    rc, _, err = run(argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    if rc == 2:
        lines = err.splitlines()
        assert (err.startswith("usage:")
                or len(lines) == 1 and lines[0].startswith("error: ")), (
                    argv, err)


def nodes(data, path=()):
    """The path of every node of a JSON value, the root's () included."""
    yield path
    if isinstance(data, dict):
        children = data.items()
    elif isinstance(data, list):
        children = enumerate(data)
    else:
        return
    for key, child in children:
        yield from nodes(child, path + (key,))


def replaced(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bad_input")


@st.composite
def spoiled_files(draw):
    data, kind = draw(st.sampled_from(FILES))
    path = draw(st.sampled_from(list(nodes(data))))
    return kind, replaced(data, path, draw(JSON_VALUES))


@given(spoiled_files(), st.sampled_from(["phase-only", "all"]))
@SETTINGS
def test_a_file_with_one_node_replaced_exits_cleanly(workdir, spoiled,
                                                     pattern_filter):
    kind, data = spoiled
    path = workdir / ("%s.json" % kind)
    with open(path, "w") as fh:
        json.dump(data, fh)
    if kind == "code":
        assert_clean_exit(["verify", "--code", str(path)])
        argv = ["simulate", "--code", str(path)]
    else:
        argv = ["simulate", "--code", "phase3", "--channel", str(path)]
    assert_clean_exit(argv + ["--p", "0.3", "--trials", "5",
                              "--filter", pattern_filter])


def numbers(valid, huge=False):
    """(valid texts, odd texts) of a number option; huge values join the
    odd ones where a valid huge value would cost nothing."""
    return valid.map(str), st.sampled_from(
        ODD + (HUGE, "-" + HUGE) if huge else ODD)


def choices(valid, odd):
    return st.sampled_from(valid), st.sampled_from(odd)


#: per subcommand, (option, (valid texts, odd texts), always present?)
SUBCOMMANDS = {
    "simulate": [
        ("--code", choices(["phase3", "shor9", "perfect5", "trivial1"],
                           ["nonsense", "", "phase3.json"]), False),
        ("--p", numbers(st.sampled_from([0, 0.05, 0.3, 1, 1e-320])), True),
        ("--channel", choices(
            ["decoherence:0", "decoherence:0.5j", "random:1", "random:2"],
            ["decoherence:nan", "decoherence:2", "decoherence:1e400",
             "random:0", "random:-3", "random:٢", "random:" + HUGE,
             "sideways:1", ""]), False),
        ("--qubits", choices(["all", "0", "0,1", "1,0"],
                             ["0,0", "9", "-1", "x", "١", "", HUGE]),
         False),
        ("--trials", numbers(st.integers(1, 20)), True),
        ("--strategy", choices(["exhaustive", "hierarchical"], ["greedy"]),
         False),
        ("--logical", choices(["random", "1,0", "0.6,0.8j", "1e-320,0"],
                              ["nan,0", "1e400,0", "0,0", "1", "x,y"]),
         False),
        ("--filter", choices(["all", "phase-only", "amplitude-only"],
                             ["none", ""]), False),
        ("--t", numbers(st.integers(0, 2), huge=True), False),
        ("--max-active", numbers(st.sampled_from([0, 1, 2, 3, HUGE])),
         False),
        ("--workers", choices(["1", "2"], ["0", "-1", "65", HUGE]), False),
        ("--seed", numbers(st.sampled_from([-5, 0, 3, HUGE])), False),
        ("--format", choices(["csv", "json"], ["xml"]), False),
    ],
    "verify": [
        ("--code", choices(["phase3", "shor9", "perfect5", "trivial1"],
                           ["nonsense"]), True),
        ("--t", numbers(st.integers(0, 2), huge=True), False),
        ("--condition", choices(["amplitude", "phase", "general"],
                                ["other"]), False),
    ],
    "bounds": [
        ("--l", numbers(st.integers(0, 30), huge=True), True),
        ("--t", numbers(st.integers(0, 30), huge=True), True),
        ("--max-n", numbers(st.integers(0, 60), huge=True), False),
        ("--format", choices(["csv", "json"], ["xml"]), False),
    ],
    "demo3": [
        ("--c0", numbers(st.sampled_from([0, 0.6, 1e-320, "1j"])), False),
        ("--c1", numbers(st.sampled_from([0, 0.8, 1e-320, "1j"])), False),
        ("--qubit", choices(["0", "1", "2", "none"], ["3", "-1", "١"]),
         False),
        ("--overlap", numbers(st.sampled_from([0, 0.2, 1, "0.5j"])), False),
        ("--seed", numbers(st.sampled_from([-5, 0, 3, HUGE])), False),
    ],
}


@st.composite
def option_vectors(draw):
    """A subcommand's options, each valid but at most one odd."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    present = [(option, values) for option, values, required
               in SUBCOMMANDS[command] if required or draw(st.booleans())]
    odd = draw(st.none() | st.integers(0, max(len(present) - 1, 0)))
    return [command] + ["%s=%s" % (option, draw(values[i == odd]))
                        for i, (option, values) in enumerate(present)]


@given(option_vectors())
@settings(SETTINGS, max_examples=200)
def test_an_option_vector_exits_cleanly(argv):
    assert_clean_exit(argv)
