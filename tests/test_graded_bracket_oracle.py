"""The graded bracket against its oracle, the per-key composition.

`oracles._circ` and `oracle_graded_bracket` evaluate the composition at
each requested key, walking every shuffle and every slot.  Production code
composes the bracket from the nonzero entries of its arguments instead;
the tests below, and the integer-bracket tests in
`test_integer_kernel_oracle.py`, compare the two exactly.
"""
import itertools
import random
from fractions import Fraction

import pytest

from conftest import broken_action, broken_algebra, random_blockmap
from oracles import (materialize, oracle_bracket_table, oracle_derived_bracket,
                     oracle_graded_bracket)

from nlie import BlockMap, LazyMap, check_filippov, check_representation
from nlie.cochain import check_mc_pair, graded_bracket
from nlie.core import semidirect_blockmap
from nlie.lift import admissible_covectors, lift_operator
from nlie.rota_baxter import DerivedContext, derived_bracket, matrix_to_cochain


def random_rational_map(rng: random.Random, n: int, blocks: int, d: int,
                        density: float) -> BlockMap:
    """A random map g -> g with rational entries on about `density` of the keys."""
    f = random_blockmap(rng, n, blocks, d, d, "g", "g", density=density)
    table = {k: tuple(x / rng.randint(1, 3) for x in v) for k, v in f.table.items()}
    return BlockMap(n, blocks, f.source, f.target, table)


def assert_equals_oracle(P: BlockMap, Q: BlockMap) -> BlockMap:
    br = graded_bracket(P, Q)
    assert isinstance(br, BlockMap)
    assert br == oracle_bracket_table(P, Q), (P, Q)
    return br


# n -> the dimension of g; chosen so that the oracle stays cheap at p = q = 2
DIMS = {2: 3, 3: 3, 4: 4}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_maps_equal_the_oracle(n):
    rng = random.Random(100 + n)
    nonzero = 0
    for p, q in itertools.product(range(3), repeat=2):
        for density in (0.25, 0.7):
            P = random_rational_map(rng, n, p, DIMS[n], density)
            Q = random_rational_map(rng, n, q, DIMS[n], density)
            nonzero += not assert_equals_oracle(P, Q).is_zero()
    assert nonzero >= 9


def test_non_canonical_keys_are_ignored():
    """Unsorted or repeated blocks, blocks of the wrong size or count, and
    indices out of range are never read by `apply_map`; the sparse bracket
    skips them too."""
    rng = random.Random(5)
    P = random_rational_map(rng, 3, 1, 4, 0.5)
    Q = random_rational_map(rng, 3, 1, 4, 0.5)
    one = (Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(0))
    junk = {((1, 0), 2): one, ((2, 2), 3): one, ((1,), 0): one,
            ((0, 1), (2, 3), 1): one, ((0, 5), 1): one, ((0, 1), 4): one}
    P_junk = BlockMap(3, 1, P.source, P.target, {**P.table, **junk})
    Q_junk = BlockMap(3, 1, Q.source, Q.target, {**Q.table, **junk})
    br = assert_equals_oracle(P_junk, Q_junk)
    assert br == graded_bracket(P, Q)
    assert not br.is_zero()


def test_lazy_inputs_equal_the_oracle():
    """The oracle reads its arguments key by key, nested brackets included;
    the sparse bracket takes their tables."""
    rng = random.Random(6)
    P, Q, R = (random_rational_map(rng, 2, b, 3, 0.6) for b in (1, 0, 1))
    lazy = LazyMap(Q.n, Q.blocks, Q.source, Q.target, Q.value)
    assert graded_bracket(P, Q) == materialize(oracle_graded_bracket(P, lazy))
    assert graded_bracket(Q, R) == materialize(oracle_graded_bracket(lazy, R))
    assert graded_bracket(P, graded_bracket(Q, R)) == \
        materialize(oracle_graded_bracket(P, oracle_graded_bracket(Q, R)))


def test_semidirect_brackets_equal_the_oracle(reps):
    """[δ, δ] and [δ, h] for every catalog pair and a broken copy of each,
    with check_mc_pair agreeing with the direct checkers throughout."""
    rng = random.Random(9)
    broken = 0
    for rep in reps:
        pairs = [rep]
        if rep.dim_v:
            pairs.append(broken_action(rng, rep))
        if rep.algebra.dim >= rep.algebra.n:
            pairs.append(broken_algebra(rng, rep))
        for pair in pairs:
            delta = semidirect_blockmap(pair)
            direct = bool(check_filippov(pair.algebra)) and bool(check_representation(pair))
            assert assert_equals_oracle(delta, delta).is_zero() == direct
            assert check_mc_pair(pair.algebra, pair) == direct
            broken += not direct
            total = delta.source.dim
            h = random_blockmap(rng, pair.algebra.n, 0, total, total,
                                "g+V", "g+V", density=0.4)
            assert_equals_oracle(delta, h)
    assert broken >= 10


def test_derived_brackets_equal_the_oracle(operator_corpus):
    """The derived bracket of n copies of T, and of n − 1 copies with one
    random operator cochain, on the corpus and its lifts by every admissible
    covector."""
    rng = random.Random(10)
    ops = list(operator_corpus)
    ops += [lift_operator(op, f) for op in operator_corpus
            for f in admissible_covectors(op.algebra)]
    nonzero = 0
    for op in ops:
        ctx = DerivedContext(op.rep)
        tc = matrix_to_cochain(op.rep, op.matrix)
        dv, dg = op.rep.dim_v, op.algebra.dim
        c = random_blockmap(rng, ctx.n, 0, dv, dg, "V", "g", density=0.7)
        for args in ([tc] * ctx.n, [tc] * (ctx.n - 1) + [c]):
            br = derived_bracket(ctx, args)
            assert br == oracle_derived_bracket(ctx, args), op
            nonzero += not br.is_zero()
        assert derived_bracket(ctx, [tc] * ctx.n).is_zero()
    assert nonzero >= 5
