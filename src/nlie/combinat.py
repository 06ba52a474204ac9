"""Shuffles, wedge-sorting signs, blocks and compositions.

Sign conventions live here and nowhere else: every module normalizes wedge
arguments through :func:`sort_with_sign` and takes shuffle signs from
:func:`shuffles`, so the whole engine shares one orientation.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional


class Shuffle(NamedTuple):
    """A permutation of range(i+j), ascending on the first i and last j slots."""
    perm: tuple[int, ...]
    sign: int


def perm_sign(perm: tuple[int, ...]) -> int:
    inv = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def shuffles(i: int, j: int) -> tuple[Shuffle, ...]:
    """All C(i+j, i) (i,j)-shuffles with plain permutation signs.

    shuffles(0, j) and shuffles(i, 0) are the identity with sign +1.
    """
    if i < 0 or j < 0:
        raise ValueError("shuffle parts must be nonnegative")
    out = []
    universe = range(i + j)
    for first in itertools.combinations(universe, i):
        chosen = set(first)
        rest = tuple(k for k in universe if k not in chosen)
        perm = first + rest
        out.append(Shuffle(perm, perm_sign(perm)))
    return tuple(out)


def sort_with_sign(indices: tuple[int, ...]) -> tuple[int, Optional[tuple[int, ...]]]:
    """Sort basis indices of a wedge; returns (sign, sorted) or (0, None) on repeats."""
    k = len(indices)
    if k <= 1:
        return 1, indices
    lst = list(indices)
    sign = 1
    # insertion sort; counts transpositions exactly
    for a in range(1, k):
        b = a
        while b > 0 and lst[b - 1] > lst[b]:
            lst[b - 1], lst[b] = lst[b], lst[b - 1]
            sign = -sign
            b -= 1
    for a in range(k - 1):
        if lst[a] == lst[a + 1]:
            return 0, None
    return sign, tuple(lst)


def blocks_of(dim: int, size: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing index tuples of the given size, lexicographic."""
    return tuple(itertools.combinations(range(dim), size))


def compositions(total: int, parts: int, high: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All tuples (i_1..i_parts) with sum = total and 0 <= i_k <= high."""
    if high is None:
        high = total
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(high, total) + 1):
        for rest in compositions(total - first, parts - 1, high):
            yield (first,) + rest


__all__ = ["Shuffle", "shuffles", "perm_sign", "sort_with_sign", "blocks_of",
           "compositions"]
