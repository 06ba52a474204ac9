"""A representation is checked as the fundamental identity of g ⋉ V.

`oracles.oracle_check_representation` is its matrix form: the commutator
identity and the bracket compatibility written out with action matrices.
The two must give the same verdict, the same witness and the same detail on
every input."""
import itertools
import random

import pytest

from conftest import broken_action, broken_algebra, one_block_action_pair
from oracles import oracle_check_representation
from nlie import (Matrix, NLieAlgebra, Representation, SpaceSpec, abelian,
                  adjoint_rep, check_representation, coadjoint_rep,
                  left_mult_rep, pre_lie_from_table, zero_representation)
from nlie.lift import admissible_covectors, raise_arity_rep
from nlie.multilinear import iter_keys

# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _random_product(rng: random.Random, n: int, dim: int):
    table = {key: [rng.randint(-1, 1) for _ in range(dim)]
             for key in iter_keys(dim, n - 1, 1) if rng.random() < 0.5}
    return pre_lie_from_table(n, dim, table)


def _random_action(rng: random.Random, alg: NLieAlgebra, dim_v: int,
                   density: float) -> Representation:
    action = {block: Matrix([[rng.randint(-1, 1) if rng.random() < density else 0
                              for _ in range(dim_v)] for _ in range(dim_v)])
              for block in itertools.combinations(range(alg.dim), alg.n - 1)}
    return Representation(alg, SpaceSpec(dim_v, "V"), action)


@pytest.fixture(scope="module")
def corpus(algebras, operator_corpus):
    """Adjoint, coadjoint and zero pairs of the catalog, the one-block pair,
    nilp4-L and their raises by every admissible covector; a broken-action
    and a broken-bracket copy of each; L of random products; random actions on catalog algebras; and
    random 1-dimensional actions on abelian algebras, which are the inputs
    that pass the commutator identity and reach the bracket compatibility."""
    rng = random.Random(12)
    base = []
    for alg in algebras.values():
        base += [adjoint_rep(alg), coadjoint_rep(alg), zero_representation(alg, 2)]
    base += [one_block_action_pair(), operator_corpus[3].rep]  # the latter is nilp4-L
    base += [raise_arity_rep(rep, f) for rep in base
             for f in admissible_covectors(rep.algebra)]
    broken = []
    for rep in base:
        if rep.dim_v and rep.algebra.dim >= rep.algebra.n - 1:
            broken.append(broken_action(rng, rep))
        if rep.algebra.dim >= rep.algebra.n:
            broken.append(broken_algebra(rng, rep))
    products = [left_mult_rep(_random_product(rng, n, dim))
                for n, dim in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)) for _ in range(6)]
    catalog = [algebras[name] for name in ("solv2", "heis3", "sl2", "nilp4", "ab3_3")]
    actions = [_random_action(rng, alg, dim_v, density)
               for alg in catalog for dim_v in (1, 2) for density in (0.5, 0.9)
               for _ in range(3)]
    line = [_random_action(rng, abelian(n, dim), 1, 0.9)
            for n, dim in ((3, 3), (3, 4), (4, 4)) for _ in range(15)]
    return base + broken + products + actions + line


def test_check_representation_matches_reference(corpus):
    details = []
    for rep in corpus:
        got, want = check_representation(rep), oracle_check_representation(rep)
        assert (got.holds, got.witness, got.detail) == (want.holds, want.witness, want.detail)
        assert got.lhs is None and got.rhs is None
        details.append(got.detail)
    assert len(corpus) >= 250
    assert sum(d != "" for d in details) >= 100
    assert {"commutator identity fails", "bracket compatibility fails"} <= set(details)
