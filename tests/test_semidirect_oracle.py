"""g ⋉ V is built from the pair's tables, and every pair construction reads
that one bracket.

Their oracles in `oracles.py` are the vector-form semidirect bracket with
its own sign loop, the product that evaluates it on every basis tuple, the
raise of a pair that sums action matrices, and the center as the kernel of
the stacked ad-matrices of that bracket.  Every comparison is exact:
tables, brackets, raised pairs and center bases.
"""
import itertools
import random
from fractions import Fraction

import pytest

from conftest import broken_action, broken_algebra, one_block_action_pair
from oracles import (oracle_center, oracle_is_central, oracle_raise_arity_rep,
                     oracle_semidirect_bracket, oracle_semidirect_product)

from nlie import NLieAlgebra, Representation, abelian, adjoint_rep, coadjoint_rep
from nlie.core import semidirect_product, zero_representation
from nlie.lift import admissible_covectors, find_center, is_central, raise_arity_rep
from nlie.linalg import Vec, basis_vec, vadd, vscale, vzero

# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def corpus(algebras, operator_corpus) -> list[Representation]:
    """Catalog adjoint and coadjoint pairs, nilp4-L, the one-block pair and
    dim V = 0 pairs, plus a broken-action and a broken-bracket copy of each
    catalog pair."""
    rng = random.Random(151)
    catalog = [make(alg) for alg in algebras.values() for make in (adjoint_rep, coadjoint_rep)]
    broken = []
    for rep in catalog:
        if rep.algebra.dim >= rep.n - 1:
            broken.append(broken_action(rng, rep))
        if rep.algebra.dim >= rep.n:
            broken.append(broken_algebra(rng, rep))
    extra = [operator_corpus[3].rep,  # nilp4-L
             one_block_action_pair(),
             zero_representation(algebras["nilp4"], 0),
             zero_representation(abelian(2, 2), 0)]
    return catalog + extra + broken


def rand_vec(rng: random.Random, dim: int) -> Vec:
    """Random rationals, about a third of them zero."""
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7
                 else Fraction(0) for _ in range(dim))


def random_admissible(rng: random.Random, alg: NLieAlgebra) -> Vec:
    """A random rational combination of the admissible covector basis."""
    total = vzero(alg.dim)
    for f in admissible_covectors(alg):
        total = vadd(total, vscale(f, Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
    return total


def assert_same_pair(got: Representation, want: Representation) -> None:
    assert (got.algebra.n, got.algebra.space) == (want.algebra.n, want.algebra.space)
    assert got.algebra.structure == want.algebra.structure
    assert got.module == want.module
    assert got.action == want.action


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_semidirect_table_matches_the_oracle(algebras, operator_corpus):
    pairs = corpus(algebras, operator_corpus)
    assert len(pairs) >= 50
    assert any(rep.dim_v == 0 for rep in pairs)
    for rep in pairs:
        got, want = semidirect_product(rep), oracle_semidirect_product(rep)
        assert (got.n, got.space) == (want.n, want.space)
        assert got.structure == want.structure


def test_semidirect_bracket_matches_the_oracle_on_vectors(algebras, operator_corpus):
    rng = random.Random(152)
    compared = 0
    for rep in corpus(algebras, operator_corpus):
        sd = semidirect_product(rep)
        for _ in range(12):
            args = [rand_vec(rng, sd.dim) for _ in range(rep.n)]
            assert sd.bracket(args) == oracle_semidirect_bracket(rep, args)
            compared += 1
        # unsorted integer basis indices
        for key in itertools.islice(itertools.permutations(range(sd.dim), rep.n), 20):
            args = [basis_vec(sd.dim, i) for i in key]
            assert sd.bracket(list(key)) == oracle_semidirect_bracket(rep, args)
    assert compared >= 600


def test_raise_matches_the_oracle(algebras, operator_corpus):
    """Every admissible basis covector, a random admissible combination and
    f = 0 on every pair, broken ones included."""
    rng = random.Random(153)
    raises = 0
    for rep in corpus(algebras, operator_corpus):
        alg = rep.algebra
        covs = admissible_covectors(alg)
        for f in covs + [random_admissible(rng, alg), vzero(alg.dim)]:
            assert_same_pair(raise_arity_rep(rep, f), oracle_raise_arity_rep(rep, f))
            raises += 1
    assert raises >= 150


def test_raise_rejects_what_the_oracle_rejects(algebras):
    for rep in (adjoint_rep(algebras["sl2"]), adjoint_rep(algebras["nilp4"])):
        dg = rep.algebra.dim
        bad = [basis_vec(dg, i) for i in range(dg)
               if not any(f[i] for f in admissible_covectors(rep.algebra))]
        for f in bad + [vzero(dg - 1), vzero(dg + 1)]:
            with pytest.raises(ValueError) as got:
                raise_arity_rep(rep, f)
            with pytest.raises(ValueError) as want:
                oracle_raise_arity_rep(rep, f)
            assert str(got.value) == str(want.value)


def test_center_matches_the_oracle_center(algebras, operator_corpus):
    """The reduced echelon form of a row space is unique, so the kernel basis
    comes out identical; is_central agrees with the oracle bracket on each
    basis vector, a random combination and random vectors."""
    rng = random.Random(154)
    for rep in corpus(algebras, operator_corpus):
        center = find_center(rep)
        assert center == oracle_center(rep)
        total = rep.algebra.dim + rep.dim_v
        probes = center + [rand_vec(rng, total) for _ in range(3)]
        if center:
            combo = vzero(total)
            for z in center:
                combo = vadd(combo, vscale(z, Fraction(rng.randint(-3, 3))))
            probes.append(combo)
        for x in probes:
            assert is_central(rep, x) == oracle_is_central(rep, x)
        assert all(is_central(rep, z) for z in center)
