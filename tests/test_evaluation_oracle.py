"""Brackets evaluate through apply_map, action matrices expand their
arguments once (`Representation.operator`, which `act` reads), and g ⋉ V is
written from the pair's tables; here they are compared with the recursive
expansion of `oracles.oracle_apply_map` (`oracle_operator` column by column)
and with `oracles.oracle_semidirect_product`.  Every comparison is exact."""
import itertools
import random
from fractions import Fraction

import pytest

from oracles import (materialize, oracle_act, oracle_bracket, oracle_operator,
                     oracle_semidirect_product)

from nlie import Matrix, NLieAlgebra, Representation, SpaceSpec
from nlie.combinat import blocks_of
from nlie.core import semidirect_blockmap
from nlie.linalg import vzero

# ---------------------------------------------------------------------------
# random arguments and broken structures
# ---------------------------------------------------------------------------

ENTRIES = [Fraction(0)] * 4 + [Fraction(x) for x in (1, -1, 2, "1/2", "-3/2", "2/3")]


def random_element(rng, dim):
    """An index, a zero vector or a sparse rational vector."""
    kind = rng.random()
    if kind < 0.5:
        return rng.randrange(dim)
    if kind < 0.6:
        return vzero(dim)
    return tuple(rng.choice(ENTRIES) for _ in range(dim))


def random_args(rng, k, dim):
    """k mixed arguments; indices repeat and come unsorted by chance."""
    return [random_element(rng, dim) for _ in range(k)]


def random_matrix(rng, rows, cols):
    return Matrix([[rng.choice(ENTRIES) for _ in range(cols)] for _ in range(rows)])


def broken_pairs():
    """Pairs that fail the structure checks: random constants and actions."""
    rng = random.Random(41)
    out = []
    for n, dg, dv in ((2, 3, 2), (3, 4, 3), (3, 3, 1)):
        structure = {key: [rng.choice(ENTRIES) for _ in range(dg)]
                     for key in itertools.combinations(range(dg), n)}
        alg = NLieAlgebra(n, SpaceSpec(dg, "g"), structure)
        action = {block: random_matrix(rng, dv, dv) for block in blocks_of(dg, n - 1)}
        out.append(Representation(alg, SpaceSpec(dv, "V"), action))
    return out


BROKEN = broken_pairs()


def all_pairs(reps, operator_corpus):
    """Catalog pairs, the operator corpus's pairs (nilp4-L among them) and
    the broken pairs."""
    return list(reps) + [t.rep for t in operator_corpus] + BROKEN


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

def test_broken_pairs_are_broken():
    from nlie import check_filippov, check_representation
    for rep in BROKEN:
        assert not check_filippov(rep.algebra) or not check_representation(rep)


def test_bracket_matches_recursive_expansion(algebras):
    rng = random.Random(7)
    algs = list(algebras.values()) + [rep.algebra for rep in BROKEN]
    for alg in algs:
        for args in itertools.product(range(alg.dim), repeat=alg.n):
            assert alg.bracket(list(args)) == oracle_bracket(alg, list(args))
        for _ in range(60):
            args = random_args(rng, alg.n, alg.dim)
            assert alg.bracket(args) == oracle_bracket(alg, args)
            assert alg.bracket(tuple(args)) == oracle_bracket(alg, args)


def test_as_blockmap_matches_reference(algebras):
    """Against the bracket at every (block, tail) key."""
    for alg in list(algebras.values()) + [rep.algebra for rep in BROKEN]:
        assert alg.as_blockmap() == materialize(alg)


def all_fractions(values):
    """Every entry a Fraction: an int that leaked out still compares equal."""
    return all(type(x) is Fraction for v in values for x in v)


def test_act_and_operator_match_recursive_expansion(reps, operator_corpus):
    """On every basis tuple, repeated and unsorted indices included, and on
    random mixed arguments with fractional coefficients."""
    rng = random.Random(11)
    for rep in all_pairs(reps, operator_corpus):
        n, dg, dv = rep.algebra.n, rep.algebra.dim, rep.dim_v
        for gargs in itertools.product(range(dg), repeat=n - 1):
            got = rep.operator(list(gargs))
            assert got == oracle_operator(rep, list(gargs))
            assert all_fractions(got.entries)
            for u in range(dv):
                assert rep.act(list(gargs), u) == oracle_act(rep, list(gargs), u)
        for _ in range(40):
            gargs = random_args(rng, n - 1, dg)
            got = rep.operator(gargs)
            assert got == oracle_operator(rep, gargs)
            assert all_fractions(got.entries)
            v = random_element(rng, dv) if dv else vzero(0)
            got = rep.act(gargs, v)
            assert got == oracle_act(rep, gargs, v)
            assert all_fractions([got])


def test_operator_on_cancelling_and_repeated_vectors(reps, operator_corpus):
    """Leaves that meet on one block add up: a vector argument given twice,
    or with its swap, cancels; a vector given once with others keeps its
    fractional coefficients."""
    rng = random.Random(12)
    for rep in all_pairs(reps, operator_corpus):
        n, dg, dv = rep.algebra.n, rep.algebra.dim, rep.dim_v
        if n < 3:
            continue
        for _ in range(10):
            x, y = (tuple(rng.choice(ENTRIES[4:]) for _ in range(dg)) for _ in range(2))
            rest = random_args(rng, n - 3, dg)
            for gargs in ([x, x, *rest], [x, y, *rest], [y, x, *rest]):
                got = rep.operator(gargs)
                assert got == oracle_operator(rep, gargs)
                assert all_fractions(got.entries)
            assert rep.operator([x, x, *rest]).is_zero()
            assert rep.operator([y, x, *rest]) == rep.operator([x, y, *rest]).scale(-1)


def test_zero_dimensional_module_operator(algebras):
    """dim V = 0: every action matrix is 0 x 0 and every action the empty vector."""
    for alg in algebras.values():
        rep = Representation(alg, SpaceSpec(0, "V"))
        gargs = [0] * (alg.n - 1)
        assert rep.operator(gargs) == oracle_operator(rep, gargs) == Matrix.zero(0, 0)
        assert rep.act(gargs, vzero(0)) == ()


def test_semidirect_blockmap_matches_the_two_lifts(reps, operator_corpus):
    """Against the table of the semidirect bracket, whose g-part lifts the
    bracket and whose V-part lifts the action."""
    for rep in all_pairs(reps, operator_corpus):
        expect = materialize(oracle_semidirect_product(rep))
        got = semidirect_blockmap(rep)
        assert got == expect
        assert got.source == expect.source


def test_arity_mismatch_raises(reps):
    rep = next(r for r in reps if r.action)
    alg = rep.algebra
    with pytest.raises(ValueError):
        alg.bracket([0] * (alg.n - 1))
    with pytest.raises(ValueError):
        rep.act([0] * alg.n, 0)
