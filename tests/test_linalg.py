"""Exact rank, kernels and solutions, against the dense Gauss-Jordan oracle
(`oracles.dense_echelon`); matrix products against `oracles.oracle_matmul`."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_rank_and_kernel, dense_solve_linear, oracle_matmul

from nlie.cochain import coboundary_matrix
from nlie.linalg import Matrix, basis_vec, kernel_basis, rank, solve_linear, vector, viszero
from nlie.rota_baxter import rb_coboundary_matrix

entries = st.integers(min_value=-5, max_value=5)


def assert_matches_dense(m, rhs):
    assert (rank(m), kernel_basis(m)) == dense_rank_and_kernel(m)
    for b in rhs:
        assert solve_linear(m, b) == dense_solve_linear(m, b)


def small_matrix(rows=st.integers(1, 4), cols=st.integers(1, 4)):
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.lists(
            st.lists(entries, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0]).map(Matrix))


def test_rank_identity():
    assert rank(Matrix.identity(2)) == 2


def test_rank_zero():
    assert rank(Matrix.zero(3, 4)) == 0


def test_rank_dependent_rows():
    # second row is twice the first
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(2)) == []


def test_kernel_zero_full():
    kb = kernel_basis(Matrix.zero(2, 3))
    assert len(kb) == 3
    empty = Matrix.from_columns([(), (), ()])
    assert (empty.rows, empty.cols) == (0, 3)
    assert len(kernel_basis(empty)) == 3
    assert empty == Matrix.zero(0, 3) != Matrix.zero(0, 2)


def test_kernel_single_row():
    m = Matrix([[1, 1, 0]])
    kb = kernel_basis(m)
    assert len(kb) == 2
    for v in kb:
        assert viszero(m.mul_vec(v))


def test_solve_identity():
    b = vector([3, -2])
    assert solve_linear(Matrix.identity(2), b) == b


def test_solve_inconsistent():
    assert solve_linear(Matrix.zero(2, 2), vector([1, 0])) is None


def test_solve_diagonal_substitutes_back():
    a = Matrix([[2, 0], [0, 3]])
    x = solve_linear(a, vector([1, 1]))
    assert x == (Fraction(1, 2), Fraction(1, 3))
    assert a.mul_vec(x) == vector([1, 1])


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols
    for v in kernel_basis(m):
        assert viszero(m.mul_vec(v))


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.data())
def test_solve_consistency_characterization(a, data):
    b = vector(data.draw(st.lists(entries, min_size=a.rows, max_size=a.rows)))
    x = solve_linear(a, b)
    aug = Matrix([list(row) + [bi] for row, bi in zip(a.entries, b)])
    if x is None:
        assert rank(aug) == rank(a) + 1
    else:
        assert a.mul_vec(x) == b
        assert rank(aug) == rank(a)


def test_rank_transpose_invariant():
    m = Matrix([[1, 2, 3], [0, 1, 1]])
    assert rank(m) == rank(m.transpose())


def test_basis_vec():
    assert basis_vec(3, 1) == vector([0, 1, 0])


rationals = st.one_of(st.just(0), entries,
                      st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def rational_matrix(draw):
    """Rational matrices of every shape up to 6x5, 0xk and kx0 included,
    with forced zero rows and columns and rows that combine earlier ones."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    if rows == 0:
        return Matrix.zero(0, cols)
    m = draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
        c = draw(rationals)
        m.append([x + c * y for x, y in zip(m[i], m[j])])
    zero_rows = draw(st.sets(st.integers(0, len(m) - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
    return Matrix([[0 if i in zero_rows or j in zero_cols else x
                    for j, x in enumerate(row)] for i, row in enumerate(m)])


@settings(max_examples=300, deadline=None)
@given(rational_matrix(), st.data())
def test_sparse_elimination_matches_dense_reference(m, data):
    x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
    b = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    assert_matches_dense(m, [m.mul_vec(x), b])
    assert_matches_dense(m.transpose(), [])


def test_sparse_elimination_matches_dense_on_corpus(reps, operator_corpus):
    """Every differential matrix of the catalog, in the degrees the tests
    and the CLI default reach, against the dense reference."""
    mats = [coboundary_matrix(rep, m) for rep in reps for m in (1, 2)]
    mats += [rb_coboundary_matrix(t, m) for t in operator_corpus for m in (0, 1, 2)]
    for m in mats:
        assert_matches_dense(m, [m.mul_vec([(-1) ** j for j in range(m.cols)])])


RATIONALS = [Fraction(0)] * 3 + [Fraction(x) for x in (1, -1, 3, "1/2", "-5/3", "7/4")]


def random_rational_matrix(rng, rows, cols):
    """A rows x cols matrix of small rationals, integral and not; a matrix
    without rows keeps its column count."""
    return Matrix.from_fraction_rows(
        [tuple(rng.choice(RATIONALS) for _ in range(cols)) for _ in range(rows)], cols)


def all_fractions(m):
    return all(type(x) is Fraction for row in m.entries for x in row)


def matmul_corpus(reps, operator_corpus):
    """Random rational products of every small shape, the empty shapes
    0 x k . k x 0 and k x 0 . 0 x m, and products of differentials: d_2·d_1
    of each catalog pair over dim g <= 3 (the definitional product of the
    576 x 96 d_2 of a dim 4 pair takes seconds), d_1·d_0 of each operator,
    and each differential with a random rational matrix on either side."""
    rng = random.Random(5)
    pairs = [(random_rational_matrix(rng, r, k), random_rational_matrix(rng, k, c))
             for r, k, c in ((1, 1, 1), (2, 3, 4), (4, 4, 4), (3, 5, 2), (5, 1, 3),
                             (0, 3, 0), (3, 0, 4), (0, 0, 0), (0, 2, 3), (2, 0, 0))
             for _ in range(8)]
    diffs = [(coboundary_matrix(rep, 2), coboundary_matrix(rep, 1))
             for rep in reps if rep.algebra.dim <= 3]
    diffs += [(rb_coboundary_matrix(t, 1), rb_coboundary_matrix(t, 0)) for t in operator_corpus]
    for d2, d1 in diffs:
        pairs += [(d2, d1), (d1, random_rational_matrix(rng, d1.cols, 3)),
                  (random_rational_matrix(rng, 2, d2.rows), d2)]
    return pairs


def test_matmul_matches_the_definition(reps, operator_corpus):
    for a, b in matmul_corpus(reps, operator_corpus):
        got = a.matmul(b)
        assert got == oracle_matmul(a, b)
        assert (got.rows, got.cols) == (a.rows, b.cols)
        assert all_fractions(got)


def test_transpose_regroups_the_rows(reps, operator_corpus):
    for a, b in matmul_corpus(reps, operator_corpus):
        for m in (a, b):
            got = m.transpose()
            expect = [tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols)]
            assert got == Matrix.from_fraction_rows(expect, m.rows)
            assert all_fractions(got)
            assert got.transpose() == m


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ValueError):
        Matrix.identity(2).matmul(Matrix.identity(3))
    with pytest.raises(ValueError):
        Matrix.zero(2, 0).matmul(Matrix.zero(1, 2))
