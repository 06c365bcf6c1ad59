"""Property tests of the sphere-volume scanner behind the bounds.

``volume_scan`` walks n upward at a fixed radius by an exact recurrence;
``sphere_volume``, ``hamming_holds`` and ``gv_guaranteed_codewords`` stay the
definitions, and these properties hold the scanner, the table rows and the
minimal block sizes read from it to them.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeclab import (bound_rows, gv_guaranteed_codewords, hamming_holds,
                    min_n_gv, min_n_hamming, sphere_volume)
from qeclab.bounds import volume_scan

# derandomized, so that every run of the suite checks the same examples
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

N_MAX = 300


@st.composite
def scans(draw):
    """(t, start, sorted block sizes in [start, N_MAX]) with t up to past
    N_MAX, so that rows with t > n and 2t > n come up."""
    start = draw(st.integers(0, N_MAX))
    t = draw(st.integers(0, N_MAX + 20))
    ns = draw(st.lists(st.integers(start, N_MAX), min_size=1, max_size=12,
                       unique=True))
    return t, start, sorted(ns)


@SETTINGS
@given(scans())
def test_scanned_volumes_equal_sphere_volume(scan):
    t, start, ns = scan
    rows = zip(range(start, ns[-1] + 1), volume_scan(t, start),
               volume_scan(2 * t, start))
    wanted = set(ns)
    for n, vol, vol2 in rows:
        if n in wanted:
            assert vol == sphere_volume(n, min(t, n))
            assert vol2 == sphere_volume(n, min(2 * t, n))


@SETTINGS
@given(st.integers(0, N_MAX), st.integers(-12, 4))
def test_one_radius_scan_crosses_its_radius(r, offset):
    # a scan started just below, at or above n = r, where its binomial
    # factor C(n, r) turns from 0 to 1
    start = max(r + offset, 0)
    for n, vol in zip(range(start, start + 16), volume_scan(r, start)):
        assert vol == sphere_volume(n, min(r, n))


@SETTINGS
@given(st.integers(0, 40), st.integers(0, 60), st.integers(0, 40))
def test_table_rows_equal_the_definitions(l, t, extra):
    rows = list(bound_rows(l, t, l + extra))
    assert [n for n, _, _, _ in rows] == list(range(l, l + extra + 1))
    for n, vol, hamming, gv in rows:
        assert vol == sphere_volume(n, min(t, n))
        assert hamming == hamming_holds(n, l, min(t, n))
        assert gv == gv_guaranteed_codewords(n, t)


def _min_n_hamming_oracle(l, t):
    n = max(l, t)
    while not hamming_holds(n, l, t):
        n += 1
    return n


def _min_n_gv_oracle(l, t):
    n = max(l, t)
    while gv_guaranteed_codewords(n, t) < 1 << l:
        n += 1
    return n


@SETTINGS
@given(st.integers(0, 40), st.integers(0, 40))
def test_minimal_block_sizes_equal_the_linear_scans(l, t):
    assert min_n_hamming(l, t) == _min_n_hamming_oracle(l, t)
    assert min_n_gv(l, t) == _min_n_gv_oracle(l, t)
