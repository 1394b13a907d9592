import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from confpara.codec import cantor_pair, cantor_unpair, zigzag_position, zigzag_value


def test_zigzag_first_values():
    assert [zigzag_value(p) for p in range(7)] == [0, 1, -1, 2, -2, 3, -3]


def test_zigzag_matches_oracle():
    for p in range(60):
        assert zigzag_value(p) == oracles.zigzag(p)


@given(st.integers(min_value=0, max_value=10_000))
def test_zigzag_roundtrip(p):
    assert zigzag_position(zigzag_value(p)) == p


@given(st.integers(min_value=-10_000, max_value=10_000))
def test_zigzag_roundtrip_from_value(v):
    assert zigzag_value(zigzag_position(v)) == v


def test_zigzag_rejects_negative_position():
    with pytest.raises(ValueError):
        zigzag_value(-1)


def test_cantor_rejects_negative_arguments():
    with pytest.raises(ValueError, match="pair components must be >= 0"):
        cantor_pair(0, -1)
    with pytest.raises(ValueError, match="index must be >= 0"):
        cantor_unpair(-1)


def test_cantor_first_diagonals():
    # (0,0) (1,0) (0,1) (2,0) (1,1) (0,2)
    assert [cantor_pair(*p) for p in
            [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]] == [0, 1, 2, 3, 4, 5]


def test_cantor_matches_oracle():
    for i in range(8):
        for j in range(8):
            assert cantor_pair(i, j) == oracles.cantor(i, j)
    for n in range(40):
        assert cantor_unpair(n) == oracles.cantor_inverse(n)


@given(st.integers(min_value=0, max_value=50_000), st.integers(min_value=0, max_value=50_000))
def test_cantor_roundtrip(a, b):
    assert cantor_unpair(cantor_pair(a, b)) == (a, b)


@given(st.integers(min_value=0, max_value=200_000))
def test_cantor_surjective(n):
    a, b = cantor_unpair(n)
    assert cantor_pair(a, b) == n


@pytest.mark.parametrize("n", [10**46, 10**400], ids=["1e46", "1e400"])
def test_cantor_roundtrip_at_large_indices(n):
    # beyond float precision (10**46) and float range (10**400)
    a, b = cantor_unpair(n)
    assert cantor_pair(a, b) == n
    assert cantor_unpair(cantor_pair(a, b + 1)) == (a, b + 1)
