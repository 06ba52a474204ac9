"""Skew tables read off their nonzero entries, against oracles that walk
every key.

`split_wedges` and `wedge_sums` build every table that is totally
antisymmetric in its last block and tail, and `basis_entries` is the one
reader of a table.  Their oracles in `oracles.py` walk every key of the
domain instead: `materialize` behind `as_blockmap`, the commutator loop of
`sub_adjacent`, the per-key `tail_antisymmetrize`, `restrict_map` and
`bidegree_of`, the (n+1)-subset loop of `raise_arity` and the per-key
obstruction, with the graph-bracket `check_rb` and the loop of one jet
order over increasing V-tuples.  Each must give the same table, entry for
entry and with Fraction values, on the inputs below.
"""
import itertools
import random
from fractions import Fraction

from conftest import (broken_action, broken_algebra, random_blockmap, random_homogeneous,
                      random_matrix)
from oracles import (materialize, oracle_bidegree_of, oracle_check_order, oracle_check_rb,
                     oracle_obstruction, oracle_raise_arity, oracle_restrict_map,
                     oracle_sub_adjacent, oracle_tail_antisymmetrize)
from test_obstruction_oracle import OBSTRUCTED_SL2_T1, broken_operator, jets

from nlie import (BlockMap, Matrix, NLieAlgebra, NPreLie, SpaceSpec, adjoint_rep,
                  sub_adjacent, zero_representation)
from nlie.core import Representation, semidirect_product
from nlie.deformation import DeformationJet, check_order, obstruction
from nlie.lift import admissible_covectors, is_admissible, raise_arity, raise_arity_rep
from nlie.linalg import basis_vec, vzero
from nlie.multilinear import bidegree_of, restrict_map, sum_space, tail_antisymmetrize
from nlie.rota_baxter import RBOperator, check_rb, pre_lie_of_operator


# ---------------------------------------------------------------------------
# inputs and exact comparison
# ---------------------------------------------------------------------------

def assert_same_table(got: dict, want: dict) -> None:
    """Equal tables, every value a tuple of Fractions."""
    assert got == want
    assert all(type(x) is Fraction for v in got.values() for x in v), got


def assert_same_map(got: BlockMap, want: BlockMap) -> None:
    assert got == want
    assert_same_table(got.table, want.table)


def assert_same_algebra(got: NLieAlgebra, want: NLieAlgebra) -> None:
    assert (got.n, got.dim) == (want.n, want.dim)
    assert_same_table(got.structure, want.structure)


def pairs(reps, rng: random.Random) -> list[Representation]:
    """The catalog pairs, a broken copy of each, and zero modules of
    dimension 0."""
    out = []
    for rep in reps:
        out.append(rep)
        if rep.dim_v:
            out.append(broken_action(rng, rep))
        if rep.algebra.dim >= rep.algebra.n:
            out.append(broken_algebra(rng, rep))
    out += [zero_representation(rep.algebra, 0) for rep in reps[:3]]
    return out


def with_junk(rng: random.Random, f: BlockMap) -> BlockMap:
    """f plus entries at keys no evaluator reads: a tail out of range, a
    wrong block count and, where f has blocks, a wrong-size, a repeated and
    an unsorted block."""
    n, b, d = f.n, f.blocks, f.source.dim
    one = tuple(Fraction(rng.randint(1, 3)) for _ in range(f.target.dim))
    block = tuple(range(n - 1))
    junk = {(*[block] * b, d): one, (*[block] * (b + 1), 0): one}
    if b:
        junk[(*[tuple(range(n))] * b, 0)] = one
    if b and n > 2:
        junk[(*[(0,) * (n - 1)] * b, 1)] = one
        junk[(*[block[::-1]] * b, n - 1)] = one
    return BlockMap(n, b, f.source, f.target, {**junk, **f.table})


def random_maps(rng: random.Random) -> list[BlockMap]:
    """Random maps with and without junk keys, zero maps, b = 0 up to 2."""
    out = []
    for n in (2, 3, 4):
        for b in (0, 1, 2):
            d = n + 1 if b < 2 else n
            for density in (0.3, 1.0):
                f = random_blockmap(rng, n, b, d, 2, density=density)
                out += [f, with_junk(rng, f)]
            out.append(BlockMap(n, b, SpaceSpec(d, "g"), SpaceSpec(2, "V")))
    return out


def covectors(alg: NLieAlgebra) -> list:
    """Every admissible basis covector and the kernel basis of the bracket."""
    basis = [basis_vec(alg.dim, j) for j in range(alg.dim)]
    return [f for f in basis if is_admissible(alg, f)] + admissible_covectors(alg)


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

def test_as_blockmap_matches_the_key_walk(reps):
    rng = random.Random(181)
    count = 0
    for rep in pairs(reps, rng):
        for alg in (rep.algebra, semidirect_product(rep)):
            assert_same_map(alg.as_blockmap(), materialize(alg))
            count += not alg.is_abelian()
    assert count >= 30


def test_sub_adjacent_matches_the_commutator_loop(operator_corpus, reps):
    rng = random.Random(182)
    products = [pre_lie_of_operator(t).product for t in operator_corpus]
    products += [random_blockmap(rng, n, 1, d, d, "g", "g", density=density)
                 for n, d in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 5))
                 for density in (0.5, 1.0)]
    products += [with_junk(rng, p) for p in list(products)]
    products.append(BlockMap(3, 1, SpaceSpec(4, "g"), SpaceSpec(4, "g")))
    nonzero = 0
    for product in products:
        p = NPreLie(product.n, product.source, product)
        got = sub_adjacent(p)
        assert_same_algebra(got, oracle_sub_adjacent(p))
        nonzero += not got.is_abelian()
    assert nonzero >= 10


def test_tail_antisymmetrize_matches_the_key_walk():
    rng = random.Random(183)
    nonzero = 0
    for f in random_maps(rng):
        got = tail_antisymmetrize(f)
        assert_same_map(got, oracle_tail_antisymmetrize(f))
        nonzero += not got.is_zero()
    assert nonzero >= 20


def test_restrict_and_bidegree_match_the_key_walk(reps):
    rng = random.Random(184)
    maps = []
    for rep in pairs(reps, rng):
        maps.append(semidirect_product(rep).as_blockmap())
    for dg, dv in ((2, 2), (3, 1), (3, 0), (2, 3)):
        for n, blocks in ((2, 0), (2, 1), (3, 1), (2, 2)):
            for k in range(-1, blocks * (n - 1) + 1):
                maps.append(random_homogeneous(rng, n, blocks, dg, dv, k,
                                               blocks * (n - 1) - k))
            space = sum_space(dg, dv)
            f = random_blockmap(rng, n, blocks, dg + dv, dg + dv, density=0.4)
            mixed = BlockMap(n, blocks, space, space, f.table)
            maps += [mixed, with_junk(rng, mixed), BlockMap(n, blocks, space, space)]
    homogeneous = 0
    for f in maps:
        for args, values in itertools.product("gV", repeat=2):
            assert_same_map(restrict_map(f, args, values),
                            oracle_restrict_map(f, args, values))
        got = bidegree_of(f)
        assert got == oracle_bidegree_of(f)
        homogeneous += got is not None
    assert homogeneous >= 40


def test_raise_arity_matches_the_subset_loop(reps, algebras):
    rng = random.Random(185)
    algs = list(algebras.values())
    for rep in pairs(reps, rng):
        algs += [rep.algebra, semidirect_product(rep)]
    raised = 0
    for alg in algs:
        for f in covectors(alg):
            got = raise_arity(alg, f)
            assert_same_algebra(got, oracle_raise_arity(alg, f))
            raised += not got.is_abelian()
    for rep in reps:
        for f in covectors(rep.algebra):
            got = raise_arity_rep(rep, f)
            sd = semidirect_product(rep)
            want = oracle_raise_arity(sd, tuple(f) + vzero(rep.dim_v))
            assert_same_algebra(semidirect_product(got), want)
    assert raised >= 20


def test_obstruction_and_checks_match_the_tuple_loops(operator_corpus, algebras):
    """`check_rb` against the graph bracket, `check_order` against the loop
    over increasing V-tuples, and `obstruction` against the residual at
    every key."""
    rng = random.Random(186)
    bases = list(operator_corpus)
    bases += [broken_operator(rng, t) for t in operator_corpus]
    bases += [RBOperator(broken_action(rng, t.rep), t.matrix)
              for t in operator_corpus if t.rep.dim_v]
    rep0 = zero_representation(algebras["sl2"], 0)
    bases.append(RBOperator(rep0, Matrix.zero(3, 0)))
    corpus = [jet for t in bases for jet in jets(t, rng)]
    sl2 = RBOperator(adjoint_rep(algebras["sl2"]), Matrix.zero(3, 3))
    corpus.append(DeformationJet(sl2, [OBSTRUCTED_SL2_T1]))
    failing = nonzero = 0
    for t in bases + [RBOperator(t.rep, random_matrix(rng, t.algebra.dim, t.rep.dim_v))
                      for t in bases]:
        got = check_rb(t.rep, t.matrix)
        assert got == oracle_check_rb(t.rep, t.matrix)
        failing += not got
    for jet in corpus:
        assert check_order(jet) == oracle_check_order(jet)
        got, want = obstruction(jet), oracle_obstruction(jet)
        assert_same_map(got.theta, want.theta)
        assert got.cocycle_checked == want.cocycle_checked
        nonzero += not got.theta.is_zero()
    assert failing >= 10
    assert nonzero >= 80
