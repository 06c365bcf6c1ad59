import numpy as np
import pytest

from qeclab import (
    BitString,
    FactorLayout,
    PureState,
    TOL_NORM,
    fidelity_against,
    schmidt_diagnostics,
)


def entangled_pair(c0=0.6, c1=0.8):
    """c0|0>|e0> + c1|1>|e1> on one qubit with a 2-level environment."""
    lay = FactorLayout(1, [(0, 2)])
    amps = np.zeros((2, 2), dtype=complex)
    amps[0, 0] = c0
    amps[1, 1] = c1
    return PureState(lay, amps)


def test_layout_dims():
    lay = FactorLayout(3)
    assert lay.system_dim == 8
    assert lay.env_dim == 1
    assert lay.total_dim == 8
    lay = FactorLayout(2, [(0, 2), (1, 3)])
    assert lay.env_dim == 6
    assert lay.total_dim == 24
    assert lay.shape == (4, 2, 3)


def test_layout_validation():
    with pytest.raises(ValueError):
        FactorLayout(2, [(2, 2)])  # qubit index out of range
    with pytest.raises(ValueError):
        FactorLayout(2, [(0, 2), (0, 3)])  # duplicate qubit
    with pytest.raises(ValueError):
        FactorLayout(2, [(0, 0)])  # degenerate factor
    with pytest.raises(ValueError):
        FactorLayout(20)  # exceeds the dimension cap of 2**16


def test_environment_only_layout():
    lay = FactorLayout.environment_only([2, 3])
    assert lay.qubit_count == 0
    assert lay.system_dim == 1
    assert lay.env_dim == 6
    assert lay.shape == (1, 2, 3)


def test_basis_state():
    st = PureState.basis_state(BitString.from_text("(101)"))
    vec = np.zeros(8)
    vec[5] = 1.0
    assert np.array_equal(st.amps, vec)
    # the text form is accepted directly
    st2 = PureState.basis_state("(101)")
    assert np.array_equal(st2.amps, vec)


def test_normalization_enforced():
    with pytest.raises(ValueError):
        PureState.from_amplitudes(1, [1.0, 1.0])
    with pytest.raises(ValueError):
        PureState.from_amplitudes(1, [np.nan, 0.0])
    st = PureState.from_amplitudes(1, [1.0, 1.0], normalized=False)
    assert st.norm() == pytest.approx(np.sqrt(2.0))


def test_states_do_not_alias_caller_arrays():
    raw = np.array([1.0, 0.0], dtype=complex)
    st = PureState.from_amplitudes(1, raw)
    raw[0] = 5.0
    assert st.amps[0] == 1.0
    with pytest.raises((ValueError, TypeError)):
        st.amps[0] = 2.0  # exposed array is read-only


def test_matrix_shape_is_system_by_environment():
    lay = FactorLayout(2, [(0, 2), (1, 3)])
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
    amps /= np.linalg.norm(amps)
    st = PureState(lay, amps)
    assert st.matrix().shape == (4, 6)
    assert np.allclose(st.matrix().ravel(), amps.ravel())


def test_schmidt_diagnostics_product_state():
    lay = FactorLayout(2, [(0, 2)])
    amps = np.multiply.outer(np.array([0, 1, 0, 0.0]), np.array([0.6, 0.8]))
    joint = PureState(lay, amps)
    top, purity = schmidt_diagnostics(joint)
    assert top == pytest.approx(1.0)
    assert purity == pytest.approx(1.0)
    assert top >= 1 - TOL_NORM


def test_schmidt_diagnostics_entangled_state():
    st = entangled_pair()
    top, purity = schmidt_diagnostics(st)
    assert top == pytest.approx(0.8)
    assert purity == pytest.approx(0.6 ** 4 + 0.8 ** 4)
    assert top < 1 - TOL_NORM


def test_schmidt_diagnostics_no_environment():
    st = PureState.basis_state("(10)")
    assert schmidt_diagnostics(st) == (pytest.approx(1.0), pytest.approx(1.0))


def test_fidelity_against_traces_out_environment():
    joint = entangled_pair()
    ref = PureState.from_amplitudes(1, [0.6, 0.8])
    # rho = diag(0.36, 0.64), so <ref|rho|ref> = 0.36^2 + 0.64^2
    assert fidelity_against(joint, ref) == pytest.approx(0.36 ** 2 + 0.64 ** 2)


def test_fidelity_is_global_phase_invariant():
    ref = PureState.from_amplitudes(1, [0.6, 0.8])
    rotated = PureState.from_amplitudes(1, np.exp(0.7j) * ref.amps)
    assert fidelity_against(rotated, ref) == pytest.approx(1.0)


def test_fidelity_rejects_reference_with_environment():
    joint = entangled_pair()
    with pytest.raises(ValueError):
        fidelity_against(joint, joint)

