"""Brackets, actions and action matrices evaluate through apply_map, and
g ⋉ V is written from the pair's tables; here they are compared with the
recursive expansion of `oracles.oracle_apply_map` and with
`oracles.oracle_semidirect_product`.  Every comparison is exact."""
import itertools
import random
from fractions import Fraction

import pytest

from oracles import materialize, oracle_act, oracle_bracket, oracle_semidirect_product

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


def oracle_operator(rep: Representation, gargs) -> Matrix:
    """The action matrix of gargs, one oracle action column per basis vector."""
    return Matrix.from_columns([oracle_act(rep, gargs, u) for u in range(rep.dim_v)])


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


def test_act_and_operator_match_recursive_expansion(reps, operator_corpus):
    rng = random.Random(11)
    for rep in all_pairs(reps, operator_corpus):
        n, dg, dv = rep.algebra.n, rep.algebra.dim, rep.dim_v
        for gargs in itertools.product(range(dg), repeat=n - 1):
            assert rep.operator(list(gargs)) == oracle_operator(rep, list(gargs))
            for u in range(dv):
                assert rep.act(list(gargs), u) == oracle_act(rep, list(gargs), u)
        for _ in range(40):
            gargs = random_args(rng, n - 1, dg)
            assert rep.operator(gargs) == oracle_operator(rep, gargs)
            v = random_element(rng, dv) if dv else vzero(0)
            assert rep.act(gargs, v) == oracle_act(rep, gargs, v)


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
