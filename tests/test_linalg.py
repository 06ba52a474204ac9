from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nlie.linalg import (Matrix, basis_vec, kernel_basis, rank, solve_linear,
                         vector, viszero)

entries = st.integers(min_value=-5, max_value=5)


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


def test_matrix_commutator():
    a = Matrix([[0, 1], [0, 0]])
    b = Matrix([[0, 0], [1, 0]])
    assert a.commutator(b) == Matrix([[1, 0], [0, -1]])


def test_basis_vec():
    assert basis_vec(3, 1) == vector([0, 1, 0])
