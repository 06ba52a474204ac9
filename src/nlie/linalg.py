"""Exact linear algebra over the rationals.

Everything here works with `fractions.Fraction` entries, so ranks, kernels
and solutions are exact: a zero really is zero.  Matrices are small and
dense (desk-scale dimensions), stored row-major as tuples of tuples.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, Fractions or 'p/q' strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vector(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def vzero(dim: int) -> Vec:
    return (_ZERO,) * dim


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(a: Vec, c: Fraction) -> Vec:
    if c == 1:
        return a
    return tuple(c * x for x in a)


def viszero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def basis_vec(dim: int, i: int) -> Vec:
    return tuple(_ONE if j == i else _ZERO for j in range(dim))


class Matrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(frac(x) for x in row) for row in entries)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged rows")
        self.entries = rows

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        m = Matrix.__new__(Matrix)
        m.rows, m.cols = rows, cols
        m.entries = tuple((_ZERO,) * cols for _ in range(rows))
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Vec]) -> "Matrix":
        if not cols or not cols[0]:
            return Matrix.zero(0, len(cols))
        return Matrix([[c[i] for c in cols] for i in range(len(cols[0]))])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, r)) for r in self.entries]})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix([[c * a for a in row] for row in self.entries])

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose().entries
        return Matrix([[sum((a * b for a, b in zip(row, col)), _ZERO) for col in ot]
                       for row in self.entries])

    def mul_vec(self, v: Sequence) -> Vec:
        v = vector(v)
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum((a * b for a, b in zip(row, v)), _ZERO) for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self.matmul(other) - other.matmul(self)


def _echelon(entries: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Row-reduce a copy; returns (reduced rows, pivot column list)."""
    m = [list(row) for row in entries]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = _ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_echelon(m.entries)[1])


def kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of the exact null space {v : m·v = 0}; size = cols − rank."""
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [basis_vec(m.cols, j) for j in range(m.cols)]
    red, pivots = _echelon(m.entries)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [_ZERO] * m.cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def solve_linear(a: Matrix, b: Sequence) -> Optional[Vec]:
    """One exact solution of a·x = b, or None when the system is inconsistent."""
    b = vector(b)
    if a.rows != len(b):
        raise ValueError("shape mismatch")
    if a.cols == 0:
        return () if viszero(b) else None
    aug = [list(row) + [bi] for row, bi in zip(a.entries, b)]
    red, pivots = _echelon(aug)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][a.cols]
    return tuple(x)
