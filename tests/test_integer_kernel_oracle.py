"""The integer graded bracket and the shortest-first elimination against
their oracles, on rational and densely based inputs.

Production code carries integral coefficients as ints and eliminates
primitive integer rows shortest first.  The tests below require the values
of the per-key bracket (`oracles.oracle_graded_bracket`) and of dense
Gauss-Jordan elimination (`oracles.dense_echelon`), and Fractions wherever
a value leaves a kernel: an int leaked out of an int kernel compares equal
to its Fraction, so equality with an oracle cannot see it.
"""
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

from conftest import broken_action, broken_algebra, random_homogeneous
from oracles import (dense_rank_and_kernel, dense_rref, dense_solve_linear,
                     oracle_bracket_table, oracle_derived_bracket)

from nlie import BlockMap, Matrix, NLieAlgebra, Representation, SpaceSpec, adjoint_rep
from nlie import linalg
from nlie.cochain import check_mc_pair, coboundary, coboundary_matrix, graded_bracket
from nlie.core import semidirect_blockmap
from nlie.linalg import _rref, kernel_basis, solve_linear
from nlie.multilinear import iter_keys, sum_space
from nlie.rota_baxter import (DerivedContext, RBOperator, derived_bracket,
                              matrix_to_cochain, rb_coboundary_matrix)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

# coefficients for random structures: integers and non-integral rationals
POOL = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def dense_basis_pairs() -> list[Representation]:
    """The catalog adjoint pairs after the benchmark's dense basis change,
    and the pair of the transformed symplectic operator."""
    rng = random.Random(31)
    out = []
    for name in gen.CATALOG:
        rep = adjoint_rep(gen.catalog_algebra(name))
        p = gen.dense_basis(name, rep, rng)
        out.append(gen.change_basis(rep, p, p))
    t, _ = gen.nilp4_symplectic()
    out.append(gen.transformed_operator(t, gen.dense_basis("nilp4", t.rep, rng)).rep)
    return out


def rational_pair(rng: random.Random, n: int, d: int, dv: int) -> Representation:
    """A random bracket and action with non-integral rational entries; no
    identity is required, the kernels are formulas in the constants."""
    structure = {key: [rng.choice(POOL) for _ in range(d)]
                 for key in itertools.combinations(range(d), n)}
    action = {block: Matrix([[rng.choice(POOL) for _ in range(dv)] for _ in range(dv)])
              for block in itertools.combinations(range(d), n - 1)}
    alg = NLieAlgebra(n, SpaceSpec(d, "g"), structure)
    return Representation(alg, SpaceSpec(dv, "V"), action)


def rational_pairs() -> list[Representation]:
    rng = random.Random(17)
    return [rational_pair(rng, n, d, dv)
            for n, d, dv in ((2, 2, 1), (2, 3, 2), (2, 3, 3), (3, 3, 2), (3, 4, 2))]


def rational_cochain(rng: random.Random, rep: Representation, blocks: int,
                     density: float = 0.5) -> BlockMap:
    d, n, dv = rep.algebra.dim, rep.algebra.n, rep.dim_v
    table = {key: tuple(rng.choice(POOL) for _ in range(dv))
             for key in iter_keys(d, n - 1, blocks) if rng.random() < density}
    return BlockMap(n, blocks, SpaceSpec(d, "g"), SpaceSpec(dv, "V"), table)


def all_fractions(values) -> bool:
    return all(isinstance(x, Fraction) for v in values for x in v)


# ---------------------------------------------------------------------------
# the integer bracket against the per-key one
# ---------------------------------------------------------------------------

def test_self_bracket_of_the_lift_equals_the_oracle(reps):
    """[δ, δ] of valid, broken-bracket, broken-action and rational pairs."""
    rng = random.Random(5)
    pairs = [rep for rep in reps if rep.algebra.dim + rep.dim_v <= 8]
    pairs += [broken(rng, rep) for rep in list(pairs) if rep.algebra.dim >= rep.algebra.n
              for broken in (broken_algebra, broken_action)]
    pairs += rational_pairs() + dense_basis_pairs()
    verdicts = set()
    for rep in pairs:
        delta = semidirect_blockmap(rep)
        got = graded_bracket(delta, delta)
        want = oracle_bracket_table(delta, delta)
        assert got == want, rep
        assert all_fractions(got.table.values())
        verdict = check_mc_pair(rep.algebra, rep)
        assert verdict == want.is_zero(), rep
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_graded_bracket_equals_the_oracle_on_rational_maps():
    rng = random.Random(11)
    for n, dg, dv in ((2, 2, 1), (2, 2, 2), (3, 2, 1)):
        space = sum_space(dg, dv)
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0)):
            for _ in range(3):
                P = BlockMap(n, p, space, space,
                             {key: tuple(rng.choice(POOL) for _ in range(space.dim))
                              for key in iter_keys(space.dim, n - 1, p) if rng.random() < 0.4})
                Q = BlockMap(n, q, space, space,
                             {key: tuple(rng.choice(POOL) for _ in range(space.dim))
                              for key in iter_keys(space.dim, n - 1, q) if rng.random() < 0.4})
                got = graded_bracket(P, Q)
                assert got == oracle_bracket_table(P, Q), (n, dg, dv, p, q)
                assert all_fractions(got.table.values())
        delta = semidirect_blockmap(rational_pair(rng, n, dg, dv))
        for blocks in (1, 2):
            hom = random_homogeneous(rng, n, blocks, dg, dv, blocks * (n - 1), 0)
            assert graded_bracket(delta, hom) == oracle_bracket_table(delta, hom)


def test_derived_brackets_equal_the_oracle(operator_corpus):
    """The n-fold derived bracket of operator cochains, valid, scaled by −1/2
    and perturbed, under the integer and the per-key bracket."""
    rng = random.Random(13)
    inputs = []
    for t in operator_corpus:
        ctx = DerivedContext(t.rep)
        dg, dv = t.rep.algebra.dim, t.rep.dim_v
        bump = Matrix([[rng.choice(POOL) for _ in range(dv)] for _ in range(dg)])
        for m in (t.matrix, t.matrix.scale(Fraction(-1, 2)), t.matrix + bump):
            inputs.append((ctx, [matrix_to_cochain(t.rep, m)] * ctx.n))
    got = [derived_bracket(ctx, cochains) for ctx, cochains in inputs]
    assert got == [oracle_derived_bracket(ctx, cochains) for ctx, cochains in inputs]
    assert any(not b.is_zero() for b in got) and any(b.is_zero() for b in got)
    assert all(all_fractions(b.table.values()) for b in got)


def test_kernel_values_are_fractions(reps, operator_corpus):
    """A leaked int compares equal to its Fraction, so equality with the
    oracle cannot see it; every value a kernel hands back is a Fraction."""
    rng = random.Random(3)
    for rep in list(reps) + rational_pairs():
        for m in (1, 2):
            d_m = coboundary_matrix(rep, m)
            assert all_fractions(d_m.entries), (rep, m)
            f = rational_cochain(rng, rep, m - 1, density=1.0)
            assert all_fractions(coboundary(rep, f).table.values())
        delta = semidirect_blockmap(rep)
        assert all_fractions(graded_bracket(delta, delta).table.values())
    for t in operator_corpus:
        op = RBOperator(t.rep, t.matrix)
        for m in (0, 1, 2):
            assert all_fractions(rb_coboundary_matrix(op, m).entries), (t, m)


# ---------------------------------------------------------------------------
# shortest-first elimination against dense Gauss-Jordan
# ---------------------------------------------------------------------------

def normalized(red) -> list:
    """The reduced echelon form: each row divided by its pivot entry."""
    return [(pc, {j: Fraction(x, row[pc]) for j, x in row.items()}) for pc, row in red]


def random_rational_matrix(rng: random.Random, rows: int, cols: int,
                           density: float = 0.5) -> Matrix:
    return Matrix([[rng.choice(POOL[3:]) if rng.random() < density else 0
                    for _ in range(cols)] for _ in range(rows)])


def elimination_cases() -> list[tuple[Matrix, tuple]]:
    """(matrix, right-hand side) pairs."""
    rng = random.Random(41)
    cases = []
    # empty matrices and zero rows
    for rows, cols in ((0, 0), (0, 3), (3, 0), (4, 3)):
        cases.append((Matrix.zero(rows, cols), tuple(range(rows))))
    cases.append((Matrix([[0, 0, 0], [1, 2, 0], [0, 0, 0], [2, 4, 1]]), (0, 1, 0, 3)))
    # tall full-rank matrices, whose unit rows let the early stop fire
    # before the dense rows, in one row order or the other
    for rows, cols in ((8, 3), (12, 5), (20, 4)):
        dense = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows - cols)]
        unit = [[int(i == j) for j in range(cols)] for i in range(cols)]
        b = tuple(rng.randint(-2, 2) for _ in range(rows))
        cases += [(Matrix(dense + unit), b), (Matrix(unit + dense), b)]
    cases.append((Matrix.identity(4), (1, 2, 3, 4)))
    # inconsistent augmented systems
    cases.append((Matrix([[1, 1], [2, 2]]), (1, 3)))
    cases.append((Matrix([[1, 0, 1], [0, 1, 1], [1, 1, 2], [0, 0, 0]]), (1, 1, 2, 1)))
    # random rational matrices, square, wide and tall, sparse and dense
    for _ in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        a = random_rational_matrix(rng, rows, cols, rng.choice((0.2, 0.5, 0.9)))
        b = tuple(rng.choice(POOL) for _ in range(rows))
        cases.append((a, b))
        # a consistent right-hand side: a combination of the columns
        x = [rng.choice(POOL) for _ in range(cols)]
        cases.append((a, a.mul_vec(x)))
    return cases


def test_rref_matches_the_in_order_loop():
    """Against dense Gauss-Jordan, on matrices and augmented systems."""
    for a, b in elimination_cases():
        aug = [row + (linalg.frac(bi),) for row, bi in zip(a.entries, b)]
        for entries, ncols in ((a.entries, a.cols), (aug, a.cols + 1)):
            assert normalized(_rref(entries, ncols)) == dense_rref(entries), (a, b)


def test_rref_matches_the_in_order_loop_on_differentials(reps):
    """Against dense Gauss-Jordan, on the differentials of the catalog and
    of its densely based pairs."""
    for rep in list(reps) + dense_basis_pairs():
        for m in (1, 2):
            d_m = coboundary_matrix(rep, m)
            assert normalized(_rref(d_m.entries, d_m.cols)) == dense_rref(d_m.entries), (rep, m)


def test_kernel_and_solution_vectors_match_the_in_order_loop():
    """Against dense Gauss-Jordan."""
    cases = elimination_cases()
    got = [(kernel_basis(a), solve_linear(a, b)) for a, b in cases]
    want = [(dense_rank_and_kernel(a)[1], dense_solve_linear(a, b)) for a, b in cases]
    assert got == want
    assert any(s is None for _, s in got) and any(s is not None for _, s in got)
    for basis, sol in got:
        assert all_fractions(basis)
        assert sol is None or all_fractions([sol])
