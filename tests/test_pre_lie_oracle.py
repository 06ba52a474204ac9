"""n-pre-Lie structures are derived from the operator and representation
they come from: a product is n-pre-Lie iff its left multiplication is a
representation of its sub-adjacent algebra, and the compatible product of a
symplectic form is the product of the operator the form defines on the
coadjoint pair.  The hand-expanded formulas of `oracles.py`, both defining
identities and the pairing against bracket-with-tail, are their oracles;
every comparison is exact."""
import random
from fractions import Fraction

import pytest

from conftest import random_matrix
from oracles import oracle_check_n_pre_lie, oracle_symplectic_to_pre_lie
from nlie import (Matrix, SymplecticForm, abelian, check_n_pre_lie, check_symplectic,
                  pre_lie_from_table, symplectic_to_pre_lie)
from nlie.core import NPreLie
from nlie.lift import admissible_covectors, lift_operator
from nlie.linalg import rank, vadd
from nlie.multilinear import BlockMap, iter_keys
from nlie.rota_baxter import RBOperator, pre_lie_of_operator

# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

NILP4_FORM = SymplecticForm(Matrix([[0, 0, 0, 1], [0, 0, 1, 0],
                                    [0, -1, 0, 0], [-1, 0, 0, 0]]))


def _perturbed(p: NPreLie, rng: random.Random) -> NPreLie:
    """The product with one random basis entry moved by a random vector."""
    table = dict(p.product.table)
    keys = list(iter_keys(p.dim, p.n - 1, 1))
    key = keys[rng.randrange(len(keys))]
    delta = tuple(Fraction(rng.randint(-2, 2)) for _ in range(p.dim))
    table[key] = vadd(p.product.value(key), delta)
    return NPreLie(p.n, p.space, BlockMap(p.n, 1, p.space, p.space, table))


def _random_product(rng: random.Random, n: int, dim: int) -> NPreLie:
    table = {key: [rng.randint(-1, 1) for _ in range(dim)]
             for key in iter_keys(dim, n - 1, 1) if rng.random() < 0.3}
    return pre_lie_from_table(n, dim, table)


def _skew_form(rng: random.Random, dim: int) -> SymplecticForm:
    """A random nondegenerate skew form (dim even)."""
    while True:
        a = random_matrix(rng, dim, dim)
        w = a - a.transpose()
        if rank(w) == dim:
            return SymplecticForm(w)


def _invertible_form(rng: random.Random, dim: int) -> SymplecticForm:
    while True:
        w = random_matrix(rng, dim, dim)
        if rank(w) == dim:
            return SymplecticForm(w)


@pytest.fixture(scope="module")
def products(algebras, operator_corpus):
    """Operator products (corpus, lifts, random maps), the symplectic,
    zero and nilpotent products, their perturbations and random tables."""
    rng = random.Random(41)
    ops = list(operator_corpus)
    ops += [lift_operator(op, f) for op in operator_corpus
            for f in admissible_covectors(op.algebra)]
    ops += [RBOperator(op.rep, random_matrix(rng, op.algebra.dim, op.rep.dim_v))
            for op in operator_corpus]
    base = [pre_lie_of_operator(op) for op in ops]
    base.append(symplectic_to_pre_lie(algebras["nilp4"], NILP4_FORM))
    base += [pre_lie_from_table(3, 3, {}), pre_lie_from_table(2, 2, {((0,), 0): [0, 1]})]
    perturbed = [_perturbed(p, rng) for p in base if p.dim >= p.n - 1]
    randoms = [_random_product(rng, n, dim) for n, dim in ((2, 2), (2, 3), (3, 3), (3, 4))
               for _ in range(3)]
    return base + perturbed + randoms


def test_check_n_pre_lie_matches_reference(products):
    verdicts = []
    for p in products:
        got, want = check_n_pre_lie(p), oracle_check_n_pre_lie(p)
        assert got.holds == want.holds
        verdicts.append(got.holds)
        if not got.holds:
            assert got.detail in ("commutator identity fails", "bracket compatibility fails")
            xs, ys = got.witness
            assert (len(xs), len(ys)) in ((p.n - 1, p.n - 1), (p.n - 2, p.n))
    assert sum(verdicts) >= 30 and len(verdicts) - sum(verdicts) >= 10


def test_symplectic_product_matches_reference(algebras):
    """Exact tables on the nilp4 form, on random nondegenerate skew forms on
    abelian algebras, and on random invertible forms on the catalog: the
    two formulas agree for any invertible ω."""
    rng = random.Random(43)
    cases = [(algebras["nilp4"], NILP4_FORM)]
    for n, dim in ((2, 2), (3, 4), (4, 4), (2, 6)):
        alg = abelian(n, dim)
        form = _skew_form(rng, dim)
        assert check_symplectic(alg, form)
        cases.append((alg, form))
    for alg in algebras.values():
        cases += [(alg, _invertible_form(rng, alg.dim)) for _ in range(2)]
        if alg.dim % 2 == 0:
            cases.append((alg, _skew_form(rng, alg.dim)))
    nonzero = 0
    for alg, form in cases:
        got = symplectic_to_pre_lie(alg, form)
        want = oracle_symplectic_to_pre_lie(alg, form)
        assert (got.n, got.space) == (want.n, want.space)
        assert got.product.table == want.product.table
        nonzero += bool(got.product.table)
    assert nonzero >= len(algebras)


def test_degenerate_form_raises(algebras):
    with pytest.raises(ValueError, match="degenerate form"):
        symplectic_to_pre_lie(algebras["nilp4"], SymplecticForm(Matrix.zero(4, 4)))
