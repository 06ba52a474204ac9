"""The evaluation kernels, which read only nonzero coordinates, against
their oracles.

`apply_map` takes one product over the nonzero coordinates of its
arguments, `Matrix.mul_vec` multiplies only by the nonzero entries of its
vector, the jet residual reads each jet column once and accumulates on
coordinate dicts, and `lift_cochain` expands each wedge only where the
covector is nonzero.  `check_rb` is order 0 of the residual, and
`operator_rep` does not evaluate the semidirect bracket on graph vectors.
Their oracles in `oracles.py` do the direct thing: the recursive expansion,
the dense product, the vector chain, the dense wedge expansion and the
semidirect bracket of graph vectors.  Every comparison is exact.
"""
import itertools
import random
from fractions import Fraction

import pytest

from conftest import (arity_raising_configs, broken_action, random_blockmap,
                      random_matrix, random_wedge_tail_cochain)
from oracles import (graph, oracle_apply_map, oracle_check_rb, oracle_coefficient_residual,
                     oracle_lift_cochain, oracle_mul_vec, oracle_operator_rep)
from test_obstruction_oracle import OBSTRUCTED_SL2_T1, broken_operator, cocycles

from nlie import Matrix, adjoint_rep
from nlie.cochain import coboundary
from nlie.core import semidirect_product
from nlie.deformation import DeformationJet
from nlie.lift import induced_covector, lift_cochain
from nlie.linalg import viszero, vzero
from nlie.multilinear import BlockMap, LazyMap, SpaceSpec, apply_map
from nlie.rota_baxter import RBOperator, _coefficient_residual, check_rb, operator_rep

# ---------------------------------------------------------------------------
# random arguments
# ---------------------------------------------------------------------------

ENTRIES = [Fraction(0)] * 4 + [Fraction(x) for x in (1, -1, 2, "1/2", "-3/2", "2/3")]


def random_vector(rng, dim):
    return tuple(rng.choice(ENTRIES) for _ in range(dim))


def random_element(rng, dim):
    """A basis index (repeats and disorder come by chance), the zero vector
    or a sparse rational vector."""
    kind = rng.random()
    if kind < 0.45:
        return rng.randrange(dim)
    if kind < 0.55:
        return vzero(dim)
    return random_vector(rng, dim)


def random_lazy(rng, n, blocks, dim_s, dim_t):
    """A LazyMap whose values are drawn from the key, so repeated reads agree."""
    seed = rng.random()

    def fn(key):
        r = random.Random(repr(key) + str(seed))
        return vzero(dim_t) if r.random() < 0.3 else random_vector(r, dim_t)
    return LazyMap(n, blocks, SpaceSpec(dim_s, "g"), SpaceSpec(dim_t, "V"), fn)


def map_shapes():
    """(n, blocks, dim_s, dim_t) with n = 2..4 and 0..2 blocks."""
    for n in (2, 3, 4):
        for blocks in (0, 1, 2):
            for dim_s in (n - 1, n + 1):
                yield n, blocks, dim_s, 2


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------


def test_apply_map_matches_the_recursive_expansion():
    rng = random.Random(161)
    cases = nonzero = 0
    for n, blocks, dim_s, dim_t in map_shapes():
        maps = [random_blockmap(rng, n, blocks, dim_s, dim_t, density=0.6),
                random_lazy(rng, n, blocks, dim_s, dim_t),
                BlockMap(n, blocks, SpaceSpec(dim_s, "g"), SpaceSpec(dim_t, "V"))]
        for m in maps:
            for _ in range(12):
                args = [[random_element(rng, dim_s) for _ in range(n - 1)]
                        for _ in range(blocks)]
                tail = random_element(rng, dim_s)
                got = apply_map(m, args, tail)
                assert got == oracle_apply_map(m, args, tail)
                cases += 1
                nonzero += not viszero(got)
    assert cases == 18 * 3 * 12
    assert nonzero >= cases // 5


def test_brackets_and_actions_match_the_recursive_expansion(reps, operator_corpus):
    """NLieAlgebra.bracket, Representation.act and the semidirect bracket on
    graph vectors, the three callers of apply_map."""
    rng = random.Random(162)
    for rep in list(reps) + [t.rep for t in operator_corpus]:
        alg = rep.algebra
        n, dg, dv = alg.n, alg.dim, rep.dim_v
        for _ in range(10):
            args = [random_element(rng, dg) for _ in range(n)]
            assert alg.bracket(args) == oracle_apply_map(alg, [args[:-1]], args[-1])
            if dv:
                v = random_element(rng, dv)
                assert rep.act(args[:-1], v) == oracle_apply_map(rep, [args[:-1]], v)
    for t in operator_corpus:
        sd = semidirect_product(t.rep)
        for vs in itertools.product(range(t.rep.dim_v), repeat=t.algebra.n):
            graphs = [graph(t, v) for v in vs]
            assert sd.bracket(graphs) == oracle_apply_map(sd, [graphs[:-1]], graphs[-1])


def test_mul_vec_matches_the_dense_product():
    rng = random.Random(163)
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (4, 4), (3, 5)):
        for _ in range(15):
            m = Matrix.from_fraction_rows(
                [random_vector(rng, cols) for _ in range(rows)], cols)
            for v in (random_vector(rng, cols), vzero(cols),
                      [rng.randint(-2, 2) for _ in range(cols)]):
                assert m.mul_vec(v) == oracle_mul_vec(m, v)
    with pytest.raises(ValueError):
        Matrix.identity(2).mul_vec((1, 2, 3))


def jet_corpus(operator_corpus, algebras):
    """Jets of orders 0..3 with random, zero and cocycle coefficients over
    the operator corpus, broken operators and broken actions."""
    rng = random.Random(164)
    bases = list(operator_corpus)
    bases += [broken_operator(rng, t) for t in operator_corpus]
    bases += [RBOperator(broken_action(rng, t.rep), t.matrix)
              for t in operator_corpus if t.rep.dim_v]
    jets = []
    for t in bases:
        dg, dv = t.algebra.dim, t.rep.dim_v
        jets.append(DeformationJet(t, []))
        for order in (1, 2, 3):
            jets.append(DeformationJet(t, [random_matrix(rng, dg, dv) for _ in range(order)]))
            jets.append(DeformationJet(t, [Matrix.zero(dg, dv)] * order))
        cs = cocycles(t, rng, 2)
        if cs:
            jets.append(DeformationJet(t, cs))
    sl2 = RBOperator(adjoint_rep(algebras["sl2"]), Matrix.zero(3, 3))
    jets.append(DeformationJet(sl2, [OBSTRUCTED_SL2_T1]))
    return jets


def test_coefficient_residual_matches_the_vector_chain(operator_corpus, algebras):
    jets = jet_corpus(operator_corpus, algebras)
    cases = nonzero = 0
    for jet in jets:
        ops, base = jet.operators(), jet.base
        n, dv = base.algebra.n, base.rep.dim_v
        tuples = list(itertools.combinations(range(dv), n))
        tuples += [tuple(reversed(vs)) for vs in tuples[:2]]
        for s in range(jet.order + 2):
            for vs in tuples:
                got = _coefficient_residual(ops, base, s, vs)
                assert got == oracle_coefficient_residual(ops, base, s, vs)
                cases += 1
                nonzero += not viszero(got)
    assert len(jets) >= 60
    assert cases >= 500
    assert nonzero >= cases // 4


def operator_inputs(operator_corpus):
    """The operator corpus and two seeded random maps on each of its pairs."""
    rng = random.Random(165)
    randoms = [RBOperator(t.rep, random_matrix(rng, t.algebra.dim, t.rep.dim_v))
               for t in operator_corpus for _ in range(2)]
    return list(operator_corpus) + randoms


def test_check_rb_matches_the_graph_bracket(operator_corpus):
    reports = {True: 0, False: 0}
    for t in operator_inputs(operator_corpus):
        got = check_rb(t.rep, t.matrix)
        assert got == oracle_check_rb(t.rep, t.matrix)
        reports[got.holds] += 1
    assert reports[True] >= len(operator_corpus) and reports[False] >= 4


def test_operator_rep_matches_the_graph_bracket(operator_corpus):
    for t in operator_inputs(operator_corpus):
        got, want = operator_rep(t), oracle_operator_rep(t)
        assert got.algebra.structure == want.algebra.structure
        assert (got.module, got.action) == (want.module, want.action)


def lift_corpus(algebras):
    """Pair cochains and operator cochains (random, wedge-tail and their
    coboundaries) of every arity-raising configuration, with its covector,
    the zero covector and a covector without zero entries."""
    rng = random.Random(166)
    out = []
    for alg, rep, f, tmat in arity_raising_configs(algebras, rng):
        t = RBOperator(rep, tmat)
        n, dg, dv = alg.n, alg.dim, rep.dim_v
        full = [rng.choice((1, -1, 2, Fraction(1, 2))) for _ in range(dg)]
        for cov in (f, vzero(dg), full):
            for b in ((0, 1, 2) if dg <= 3 else (0, 1)):
                p = random_wedge_tail_cochain(rng, n, b, dg, dv)
                out += [(p, cov), (random_blockmap(rng, n, b, dg, dv, density=0.5), cov),
                        (coboundary(rep, p), cov)]
                c = random_blockmap(rng, n, b, dv, dg, density=0.5)
                out.append((c, induced_covector(t, cov)))
    return out


def test_lift_cochain_matches_the_dense_wedge_expansion(algebras):
    cases = lift_corpus(algebras)
    nonzero = 0
    for p, f in cases:
        got, want = lift_cochain(p, f), oracle_lift_cochain(p, f)
        assert (got.n, got.blocks, got.source, got.target, got.table) == \
            (want.n, want.blocks, want.source, want.target, want.table)
        nonzero += not got.is_zero()
    assert len(cases) >= 500
    assert nonzero >= len(cases) // 3
