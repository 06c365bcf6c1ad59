"""Input file data for the tests, as JSON-ready dicts: the package reads
code and channel files but writes none."""

import json
from importlib import resources


def shipped_code_data(name):
    """The data of a catalogue code's file, as qeclab/data ships it."""
    ref = resources.files("qeclab").joinpath("data", name + ".json")
    return json.loads(ref.read_text())


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
