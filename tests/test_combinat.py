import itertools
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from nlie.combinat import (blocks_of, compositions, perm_sign, shuffles,
                           sort_with_sign)


def test_shuffles_trivial_is_identity():
    assert shuffles(0, 3) == ((tuple(range(3)), 1),)
    assert shuffles(3, 0) == ((tuple(range(3)), 1),)


def test_shuffles_1_1():
    got = {(s.perm, s.sign) for s in shuffles(1, 1)}
    assert got == {((0, 1), 1), ((1, 0), -1)}


def test_shuffles_2_1_count():
    assert len(shuffles(2, 1)) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_shuffle_count_and_structure(i, j):
    sh = shuffles(i, j)
    assert len(sh) == comb(i + j, i)
    seen = set()
    for perm, sign in sh:
        assert sorted(perm) == list(range(i + j))
        assert list(perm[:i]) == sorted(perm[:i])
        assert list(perm[i:]) == sorted(perm[i:])
        # independent sign oracle: brute inversion count
        inv = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        assert sign == (-1) ** inv
        seen.add(perm)
    assert len(seen) == len(sh)


def test_sort_transposition():
    assert sort_with_sign((2, 1)) == (-1, (1, 2))


def test_sort_repeat_vanishes():
    assert sort_with_sign((1, 1)) == (0, None)


def test_sort_cycle_even():
    # a 3-cycle is even
    assert sort_with_sign((3, 1, 2)) == (1, (1, 2, 3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_sort_sign_matches_permutation_sign(xs):
    s, sorted_xs = sort_with_sign(tuple(xs))
    if len(set(xs)) != len(xs):
        assert s == 0 and sorted_xs is None
    else:
        assert sorted_xs == tuple(sorted(xs))
        order = tuple(sorted(range(len(xs)), key=lambda i: xs[i]))
        assert s == perm_sign(order)


def test_blocks_of():
    assert blocks_of(3, 2) == ((0, 1), (0, 2), (1, 2))
    assert blocks_of(2, 3) == ()


def test_compositions_exact():
    got = set(compositions(2, 3, 2))
    assert got == {(2, 0, 0), (0, 2, 0), (0, 0, 2),
                   (1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_compositions_bounded():
    got = set(compositions(2, 2, 1))
    assert got == {(1, 1)}


def test_compositions_zero_parts():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(1, 0)) == []
