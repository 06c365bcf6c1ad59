import numpy as np
import pytest

from qeclab import BitString


def test_from_text_round_trip():
    b = BitString.from_text("(001010)")
    assert len(b) == 6
    assert tuple(b) == (0, 0, 1, 0, 1, 0)
    assert repr(b) == "(001010)"
    assert BitString.from_text("001010") == b


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        BitString.from_text("(0012)")
    with pytest.raises(ValueError):
        BitString.from_text("")
    with pytest.raises(ValueError):
        BitString.from_text("(01")


def test_constructor_rejects_non_bits():
    with pytest.raises(ValueError):
        BitString([0, 2, 1])
    with pytest.raises(ValueError):
        BitString([0, -1])


def test_indexing_and_iteration():
    b = BitString((1, 0, 1))
    assert b[0] == 1
    assert b[1] == 0
    assert b[2] == 1
    assert list(b) == [1, 0, 1]


def test_add_is_xor():
    a = BitString.from_text("(110111)")
    b = BitString.from_text("(001010)")
    assert a + b == BitString.from_text("(111101)")
    assert a + a == BitString.zeros(6)


def test_add_requires_equal_length():
    with pytest.raises(ValueError):
        BitString((1, 0)) + BitString((1, 0, 0))


def test_dot_mod2():
    a = BitString.from_text("(001010)")
    v = BitString.from_text("(110111)")
    assert a.dot(v) == 1
    assert a.dot(a) == 0  # weight 2 is even
    assert BitString.zeros(6).dot(v) == 0


def test_support():
    assert BitString.from_text("(01101)").support() == {1, 2, 4}
    assert BitString.zeros(4).support() == set()
    assert BitString.ones(4).support() == {0, 1, 2, 3}


def test_is_zero():
    assert BitString.zeros(5).is_zero()
    assert not BitString.from_text("(00100)").is_zero()


def test_index_round_trip_is_big_endian():
    # position 0 is the most significant bit of the basis index
    assert BitString.from_text("(100)").to_index() == 4
    assert BitString.from_text("(001)").to_index() == 1
    assert BitString.from_index(6, 3) == BitString.from_text("(110)")
    for i in range(16):
        assert BitString.from_index(i, 4).to_index() == i


def test_from_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        BitString.from_index(8, 3)
    with pytest.raises(ValueError):
        BitString.from_index(-1, 3)


def test_equality_and_hashing():
    a = BitString((1, 0, 1))
    b = BitString.from_text("(101)")
    assert a == b
    assert hash(a) == hash(b)
    assert a != BitString((1, 0, 0))
    assert len({a, b}) == 1
