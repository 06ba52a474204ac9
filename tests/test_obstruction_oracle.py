"""The obstruction θ on increasing V-tuples against the per-key loop.

θ is the order-(m+1) coefficient residual, totally antisymmetric in its n
arguments from V, so `obstruction` evaluates it once per increasing tuple
and fills the other keys by sign.  `oracles.oracle_obstruction` evaluates
the residual at every (block, tail) key; both must give the same
`BlockMap`, entry for entry, on every jet below, valid or not.
"""
import random
from fractions import Fraction

from conftest import broken_action, random_matrix
from oracles import oracle_obstruction

from nlie import Matrix, adjoint_rep
from nlie.deformation import DeformationJet, obstruction
from nlie.linalg import kernel_basis
from nlie.rota_baxter import RBOperator, rb_coboundary_matrix, vector_to_matrix_cochain

OBSTRUCTED_SL2_T1 = Matrix([[2, -1, -1], [2, -1, 2], [-2, -2, 0]])


def broken_operator(rng: random.Random, t: RBOperator) -> RBOperator:
    """t with ±1 added to one entry of its matrix."""
    rows = [list(t.matrix.entries[r]) for r in range(t.matrix.rows)]
    rows[rng.randrange(t.matrix.rows)][rng.randrange(t.matrix.cols)] += rng.choice((-1, 1))
    return RBOperator(t.rep, Matrix(rows))


def cocycles(t: RBOperator, rng: random.Random, count: int) -> list[Matrix]:
    """Random elements of the kernel of the first differential."""
    kb = kernel_basis(rb_coboundary_matrix(t, 1))
    out = []
    for _ in range(count if kb else 0):
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in kb]
        vec = tuple(sum((c * v[i] for c, v in zip(coeffs, kb)), Fraction(0))
                    for i in range(len(kb[0])))
        out.append(vector_to_matrix_cochain(t, vec))
    return out


def jets(t: RBOperator, rng: random.Random) -> list[DeformationJet]:
    """Orders 1-3 with random, zero and cocycle coefficients."""
    dg, dv = t.algebra.dim, t.rep.dim_v
    zero = Matrix.zero(dg, dv)
    out = []
    for order in (1, 2, 3):
        out.append(DeformationJet(t, [random_matrix(rng, dg, dv) for _ in range(order)]))
        out.append(DeformationJet(t, [zero] * order))
        cs = cocycles(t, rng, order)
        if cs:
            out.append(DeformationJet(t, cs))
    return out


def test_obstruction_matches_the_per_key_loop(operator_corpus, algebras):
    rng = random.Random(141)
    bases = list(operator_corpus)
    bases += [broken_operator(rng, t) for t in operator_corpus]
    bases += [RBOperator(broken_action(rng, t.rep), t.matrix)
              for t in operator_corpus if t.rep.dim_v]
    corpus = [jet for t in bases for jet in jets(t, rng)]
    sl2 = RBOperator(adjoint_rep(algebras["sl2"]), Matrix.zero(3, 3))
    corpus.append(DeformationJet(sl2, [OBSTRUCTED_SL2_T1]))
    nonzero = cocycle = 0
    for jet in corpus:
        got, want = obstruction(jet), oracle_obstruction(jet)
        assert got.theta == want.theta
        assert got.cocycle_checked == want.cocycle_checked
        nonzero += not got.theta.is_zero()
        cocycle += got.cocycle_checked
    assert len(corpus) >= 200
    assert nonzero >= 80
    assert 0 < cocycle < len(corpus)
