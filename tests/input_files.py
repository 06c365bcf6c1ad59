"""Input file data for the tests, as JSON-ready dicts: the package reads
code and channel files but writes none."""

import json
from importlib import resources


def shipped_code_data(name):
    """The data of a catalogue code's file, as qeclab/data ships it."""
    ref = resources.files("qeclab").joinpath("data", name + ".json")
    return json.loads(ref.read_text())


def spoiled_phase3_data():
    """(phase3 code file data with one field spoiled, the refusal after
    "malformed code file: "): each field is of the kind the file format
    asks for, but the data describe no code."""
    cases = []
    for edit, message in [
            (lambda d: d.update(vectors=[]),
             "need exactly 2^l = 2 code-vectors, got 0"),
            (lambda d: d["vectors"][0][0].update(re=float("nan")),
             "state not normalized: |amps|^2 = nan"),
            (lambda d: d.update(l=10 ** 30),
             "more logical than physical qubits"),
            (lambda d: d.update(t=-2), "claimed_t must be >= 0"),
            (lambda d: d["vectors"].__setitem__(1, d["vectors"][0]),
             "code-vectors not orthonormal (worst deviation 1.000e+00)")]:
        data = shipped_code_data("phase3")
        edit(data)
        cases.append((data, message))
    return cases


def repetition_code_data(n):
    """The n-qubit repetition code |0...0>, |1...1> as code file data."""
    return {"name": "rep%d" % n, "n": n, "l": 1, "t": 1,
            "vectors": [[{"basis": "(%s)" % (bit * n), "re": 1.0}]
                        for bit in "01"]}


def decoherence_data():
    """make_decoherence(0), orthogonal environment markers, as channel file
    data: each vector a list of [re, im] pairs."""
    return {"env_dim": 2, "a00": [[1.0, 0.0], [0.0, 0.0]],
            "a01": [[0.0, 0.0], [0.0, 0.0]], "a10": [[0.0, 0.0], [0.0, 0.0]],
            "a11": [[0.0, 0.0], [1.0, 0.0]]}
