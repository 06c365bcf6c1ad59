"""Property test of the stacked channel application.

channels.entangle_stack applies one qubit's channel to each state of a
stack, the qubit and the block chosen per row. Rows that share a qubit go
through one product, so a row's amplitudes must not depend on which other
rows share its stack: the stacked output must equal, byte for byte, the
one-row calls stacked.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeclab.channels import entangle_stack

# derandomized, so that every run of the suite checks the same examples
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def complex_normals(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@SETTINGS
@given(n=st.integers(1, 6), g=st.integers(1, 8), prior=st.sampled_from(
    [(), (1,), (2,), (3,), (2, 3)]), env_dim=st.integers(1, 3),
    shared=st.booleans(), data=st.data())
def test_a_stacked_entangle_is_its_rows_stacked(n, g, prior, env_dim, shared,
                                                data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    qubits = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=g,
                                         max_size=g)))
    amps = complex_normals(rng, (g, 1 << n) + prior)
    blocks = complex_normals(rng, (1 if shared else g, 2, 2 * env_dim))
    out = entangle_stack(amps, qubits, blocks)
    rows = [entangle_stack(amps[j:j + 1], qubits[j:j + 1],
                           blocks if shared else blocks[j:j + 1])[0]
            for j in range(g)]
    assert out.shape == (g, 1 << n) + prior + (env_dim,)
    assert out.tobytes() == np.stack(rows).tobytes()
