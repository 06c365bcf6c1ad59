"""The n-qubit repetition code |0...0>, |1...1> that the size tests check."""

from qeclab import PureState, QuantumCode


def repetition_code(n):
    zeros, ones = "(" + "0" * n + ")", "(" + "1" * n + ")"
    return QuantumCode("rep%d" % n, n, 1, 1, [PureState.basis_state(zeros),
                                              PureState.basis_state(ones)])
