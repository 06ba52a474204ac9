"""Exact linear algebra over the rationals.

Everything here works with `fractions.Fraction` entries, so ranks, kernels
and solutions are exact: a zero really is zero.  Matrices are stored dense,
row-major as tuples of tuples.  Elimination is sparse and fraction-free:
`rank`, `kernel_basis` and `solve_linear` all read one reduced echelon form
whose rows are dicts of nonzero entries, kept as primitive integer rows and
eliminated shortest first.  The kernels that sum many products (the graded
bracket, `apply_map` and the evaluations built on it, `Matrix.mul_vec`,
`Matrix.matmul`, `Representation.operator`) carry a coefficient as a plain
int while it is integral (`as_int`): the coordinate dicts of `nonzero`,
`accumulate` and `accumulate_image` hold ints and Fractions, and
`from_coords` hands back Fractions (`as_fractions`).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Vec = tuple[Fraction, ...]
Coeff = Union[int, Fraction]  # an exact coefficient, an int while it is integral

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, Fractions or 'p/q' strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def as_int(x):
    """x as an int when it is integral, else x itself: exact either way, and
    int arithmetic skips `Fraction`'s Python-level operators."""
    return x.numerator if x.denominator == 1 else x


def as_fractions(v: Iterable) -> Vec:
    """The entries of v as Fractions, with the shared zero for each zero."""
    return tuple(Fraction(x) if x else _ZERO for x in v)


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


def nonzero(v: Sequence) -> list[tuple[int, Coeff]]:
    """The (index, coefficient) pairs of the nonzero coordinates of v, each
    coefficient an int when it is integral."""
    return [(j, as_int(x)) for j, x in enumerate(v) if x]


def accumulate(acc: dict[int, Coeff], v: Sequence, c: Coeff = 1) -> None:
    """acc += c·v on a coordinate dict, reading only the nonzero entries of v;
    integral entries and c are summed as ints."""
    if c == 1:
        for j, x in enumerate(v):
            if x:
                x = as_int(x)
                acc[j] = acc[j] + x if j in acc else x
    else:
        c = as_int(c)
        for j, x in enumerate(v):
            if x:
                x = c * as_int(x)
                acc[j] = acc[j] + x if j in acc else x


def accumulate_image(acc: dict[int, Coeff], columns: Sequence[Sequence],
                     coords: Iterable[tuple[int, Coeff]], c: Coeff) -> None:
    """acc += c·M·x, for M given by its columns and x by its (index,
    coefficient) pairs."""
    for u, x in coords:
        if x:
            accumulate(acc, columns[u], c * x)


def int_columns(m: Matrix) -> list[tuple]:
    """The columns of m, each entry an int when it is integral."""
    return [tuple(as_int(row[j]) for row in m.entries) for j in range(m.cols)]


def from_coords(acc: dict[int, Coeff], dim: int) -> Vec:
    """The dense vector of a coordinate dict, as Fractions."""
    return as_fractions(acc.get(j, 0) for j in range(dim))


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
        return Matrix.from_fraction_rows([(_ZERO,) * cols] * rows, cols)

    @staticmethod
    def from_fraction_rows(rows: Sequence[Vec], cols: int) -> "Matrix":
        """A rows × cols matrix over tuples whose entries are already
        Fractions, taken as they are: no entry is coerced or copied."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols = len(rows), cols
        m.entries = tuple(rows)
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
        """self·other: the columns of other read once as ints, each entry an
        int sum over the nonzero entries of its row of self."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = int_columns(other)
        return Matrix.from_fraction_rows(
            [as_fractions(sum(x * col[j] for j, x in nz) for col in cols)
             for nz in map(nonzero, self.entries)], other.cols)

    def mul_vec(self, v: Sequence) -> Vec:
        v = vector(v)
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        nz = nonzero(v)
        return as_fractions(sum(as_int(row[j]) * x for j, x in nz if row[j])
                            for row in self.entries)

    def transpose(self) -> "Matrix":
        """The rows regrouped as columns (no rows give `cols` empty rows)."""
        return Matrix.from_fraction_rows(list(zip(*self.entries)) or [()] * self.cols,
                                         self.rows)

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """`row` divided by the gcd of its entries; an empty row stays empty."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _integer_row(row: Sequence[Fraction]) -> dict[int, int]:
    """The nonzero entries of `row`, scaled to a primitive integer row."""
    nz = {j: x for j, x in enumerate(row) if x is not _ZERO and x}
    den = lcm(*(x.denominator for x in nz.values()))
    return _primitive({j: x.numerator * (den // x.denominator) for j, x in nz.items()})


def _eliminate(row: dict[int, int], pivot: dict[int, int], c: int) -> dict[int, int]:
    """row·p − pivot·a with a = row[c] and p = pivot[c], made primitive."""
    a, p = row[c], pivot[c]
    g = gcd(a, p)
    a, p = a // g, p // g
    out = {j: x * p for j, x in row.items()}
    for j, y in pivot.items():
        x = out.get(j, 0) - a * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out)


def _rref(entries: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[int, dict[int, int]]]:
    """Reduced row echelon form, sparse and fraction-free.

    Returns (pivot column, row) pairs in pivot order.  Each row is a
    primitive integer dict of its nonzero entries, zero in every other pivot
    column and before its own pivot; dividing it by its pivot entry gives the
    row of the (unique) reduced echelon form.  The nonzero rows are taken
    in ascending order of nonzero count, which keeps fill-in down; the form
    does not depend on row order, so neither does anything read from it.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(filter(None, map(_integer_row, entries)), key=len):
        for c in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[c], c)
        if not row:
            continue
        c = min(row)
        for pc, prow in pivots.items():
            if c in prow:
                pivots[pc] = _eliminate(prow, row, c)
        pivots[c] = row
        if len(pivots) == ncols:
            break
    return sorted(pivots.items())


def rank(m: Matrix) -> int:
    return len(_rref(m.entries, m.cols))


def kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of the exact null space {v : m·v = 0}; size = cols − rank."""
    red = _rref(m.entries, m.cols)
    pivot_set = {pc for pc, _ in red}
    basis = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[fc] = _ONE
        for pc, row in red:
            if fc in row:
                v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


def solve_linear(a: Matrix, b: Sequence) -> Optional[Vec]:
    """One exact solution of a·x = b, or None when the system is inconsistent."""
    b = vector(b)
    if a.rows != len(b):
        raise ValueError("shape mismatch")
    red = _rref([row + (bi,) for row, bi in zip(a.entries, b)], a.cols + 1)
    if red and red[-1][0] == a.cols:
        return None
    x = [_ZERO] * a.cols
    for pc, row in red:
        if a.cols in row:
            x[pc] = Fraction(row[a.cols], row[pc])
    return tuple(x)
