"""The n-qubit repetition code |0...0>, |1...1> that the size tests check."""

from qeclab import code_from_dict

from input_files import repetition_code_data


def repetition_code(n):
    return code_from_dict(repetition_code_data(n))
