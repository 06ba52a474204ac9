"""Representations built from their column tables, against their oracles.

`Representation.from_columns` is the one constructor of a representation
from its columns: `adjoint_rep` reads the bracket's table, `left_mult_rep`
the product's basis entries, `raise_arity_rep` the V-ending keys of the
raised g ⋉ V and `operator_rep` the twisted graph brackets.  The center is
the common kernel of the ad matrices of g ⋉ V, and the differential and the
degree-0 operator differential read the action matrices directly.  Their
oracles in `oracles.py` evaluate a bracket, a product or an action per
basis column, raise a pair by summing action matrices, take the center
from the semidirect bracket and the differential key by key.  Each must
give equal matrices (action dicts compare as mappings), the same kernel
basis, the same centrality verdicts and the same differentials, with the
entries of each differential column in the order of their destination keys.
"""
import random
import sys
from fractions import Fraction
from pathlib import Path

from conftest import broken_action, broken_algebra, random_blockmap, random_matrix
from oracles import (oracle_adjoint_rep, oracle_center, oracle_coboundary, oracle_is_central,
                     oracle_left_mult_rep, oracle_operator_rep, oracle_raise_arity_rep,
                     oracle_wedge_coboundary)
from test_skew_table_oracle import covectors, with_junk

from nlie import (BlockMap, NPreLie, Representation, SpaceSpec, abelian, adjoint_rep,
                  left_mult_rep, zero_representation)
from nlie.cochain import coboundary, cochain_basis
from nlie.combinat import blocks_of
from nlie.core import semidirect_product
from nlie.lift import find_center, is_central, raise_arity_rep
from nlie.linalg import basis_vec, viszero
from nlie.multilinear import iter_keys
from nlie.rota_baxter import (RBOperator, Wedge, operator_rep, pre_lie_of_operator,
                              wedge_coboundary)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


# ---------------------------------------------------------------------------
# inputs and exact comparison
# ---------------------------------------------------------------------------

def assert_same_rep(got: Representation, want: Representation) -> None:
    """Same algebra table, module and action matrices, entries Fractions."""
    assert (got.algebra.n, got.algebra.dim) == (want.algebra.n, want.algebra.dim)
    assert got.algebra.structure == want.algebra.structure
    assert got.module == want.module
    assert got.action == want.action
    assert all(type(x) is Fraction for m in got.action.values() for row in m.entries
               for x in row)


def pair_corpus(reps, rng: random.Random) -> list[Representation]:
    """The catalog pairs and a seeded dense basis change of each, a broken
    copy of both, and zero modules of dimension 0."""
    out = []
    for rep in reps:
        moved = [rep]
        if rep.dim_v:
            p = gen.dense_unimodular(rng, rep.algebra.dim)
            q = gen.dense_unimodular(rng, rep.dim_v)
            moved.append(gen.change_basis(rep, p, q))
        for r in moved:
            out.append(r)
            if r.dim_v:
                out.append(broken_action(rng, r))
            if r.algebra.dim >= r.algebra.n:
                out.append(broken_algebra(rng, r))
    out += [zero_representation(rep.algebra, 0) for rep in reps[:3]]
    return out


def operators(operator_corpus, pairs, rng: random.Random) -> list[RBOperator]:
    """The operator corpus and a random matrix over every small pair; ρ_T
    is defined whether or not T is an operator."""
    out = list(operator_corpus)
    out += [RBOperator(rep, random_matrix(rng, rep.algebra.dim, rep.dim_v))
            for rep in pairs if rep.algebra.dim + rep.dim_v <= 6]
    return out


def products(operator_corpus, rng: random.Random) -> list[BlockMap]:
    """Operator products, random products, copies of both with junk keys,
    and a zero product."""
    out = [pre_lie_of_operator(t).product for t in operator_corpus]
    out += [random_blockmap(rng, n, 1, d, d, "g", "g", density=density)
            for n, d in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 5))
            for density in (0.5, 1.0)]
    out += [with_junk(rng, p) for p in list(out)]
    out.append(BlockMap(3, 1, SpaceSpec(4, "g"), SpaceSpec(4, "g")))
    return out


def action_columns(rep: Representation) -> dict:
    """{(block, u): rep.value((block, u))} over every block and coordinate."""
    return {(block, u): rep.value((block, u))
            for block in blocks_of(rep.algebra.dim, rep.n - 1) for u in range(rep.dim_v)}


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

def test_adjoint_rep_matches_the_bracket_loop(reps, algebras):
    rng = random.Random(191)
    algs = list(algebras.values()) + [abelian(2, 0), abelian(3, 1)]
    for rep in pair_corpus(reps, rng):
        algs += [rep.algebra, semidirect_product(rep)]
    nonzero = 0
    for alg in algs:
        got = adjoint_rep(alg)
        assert_same_rep(got, oracle_adjoint_rep(alg))
        nonzero += len(got.action)
    assert nonzero >= 500


def test_left_mult_rep_matches_the_product_loop(operator_corpus):
    rng = random.Random(192)
    nonzero = 0
    for product in products(operator_corpus, rng):
        p = NPreLie(product.n, product.source, product)
        got = left_mult_rep(p)
        assert_same_rep(got, oracle_left_mult_rep(p))
        nonzero += bool(got.action)
    assert nonzero >= 20


def test_raise_arity_rep_matches_the_column_fill(reps):
    """Against the raise that sums action matrices."""
    rng = random.Random(193)
    raised = 0
    for rep in pair_corpus(reps, rng):
        for f in covectors(rep.algebra):
            got = raise_arity_rep(rep, f)
            assert_same_rep(got, oracle_raise_arity_rep(rep, f))
            raised += bool(got.action)
    assert raised >= 20


def test_operator_rep_matches_the_column_loop(operator_corpus, reps):
    """Against the twist of the semidirect bracket of graph vectors."""
    rng = random.Random(194)
    nonzero = 0
    for t in operators(operator_corpus, pair_corpus(reps, rng), rng):
        got = operator_rep(t)
        assert_same_rep(got, oracle_operator_rep(t))
        nonzero += bool(got.action)
    assert nonzero >= 60


def test_center_matches_the_bracket_rows(reps):
    rng = random.Random(195)
    central = noncentral = 0
    for rep in pair_corpus(reps, rng):
        got = find_center(rep)
        assert got == oracle_center(rep)
        total = rep.algebra.dim + rep.dim_v
        candidates = got + [basis_vec(total, j) for j in range(total)]
        candidates.append(tuple(Fraction(rng.randint(-2, 2)) for _ in range(total)))
        for x0 in candidates:
            verdict = is_central(rep, x0)
            assert verdict == oracle_is_central(rep, x0)
            central += verdict
            noncentral += not verdict
    assert central >= 50 and noncentral >= 50


def test_differential_matches_the_act_columns(reps, operator_corpus):
    """The coboundary of a random cochain of each degree against the per-key
    oracle.  Every coordinate of the cochain is a random integer in
    1..10^6, so a wrong entry of the differential shows unless another
    cancels it exactly.  The differential's columns are source basis
    coordinates, and each lists its entries in the order of their
    destination keys, which are basis keys."""
    rng = random.Random(196)
    pairs = pair_corpus(reps, rng)
    complexes = pairs + [t.induced_rep for t in operator_corpus]
    complexes += [adjoint_rep(semidirect_product(rep)) for rep in pairs
                  if rep.algebra.dim + rep.dim_v <= 5]
    complexes += [left_mult_rep(pre_lie_of_operator(t)) for t in operator_corpus]
    columns = 0
    for rep in complexes:
        n, d, dv = rep.algebra.n, rep.algebra.dim, rep.dim_v
        top = 2 if d <= 4 else 1
        for m in range(1, top + 1):
            f = BlockMap(n, m - 1, SpaceSpec(d, "g"), SpaceSpec(dv, "V"),
                         {key: tuple(Fraction(rng.randint(1, 10 ** 6)) for _ in range(dv))
                          for key in iter_keys(d, n - 1, m - 1)})
            assert coboundary(rep, f) == oracle_coboundary(rep, f), (rep, m)
            got = rep.differentials[m]
            assert set(got) <= set(cochain_basis(d, n, m, dv))
            position = {key: i for i, key in enumerate(iter_keys(d, n - 1, m))}
            for col in got.values():
                order = [position[dst] for dst, _, _ in col]
                assert order == sorted(order)
            columns += len(got)
    assert columns >= 3000


def test_wedge_coboundary_matches_the_act_columns(operator_corpus, reps):
    rng = random.Random(197)
    nonzero = 0
    for t in operators(operator_corpus, pair_corpus(reps, rng), rng):
        dg, k = t.algebra.dim, t.algebra.n - 1
        wedges = [Wedge(dg, k, {b: Fraction(1)}) for b in blocks_of(dg, k)]
        wedges.append(Wedge(dg, k, {b: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                    for b in blocks_of(dg, k)}))
        for w in wedges:
            got = wedge_coboundary(t, w)
            want = oracle_wedge_coboundary(t, w)
            assert got == want
            assert list(got.table) == list(want.table)
            nonzero += not got.is_zero()
    assert nonzero >= 50


def test_from_columns_inverts_value(reps, operator_corpus):
    rng = random.Random(198)
    pairs = pair_corpus(reps, rng)
    corpus = pairs + [adjoint_rep(semidirect_product(rep)) for rep in pairs]
    corpus += [operator_rep(t) for t in operators(operator_corpus, pairs, rng)]
    corpus += [left_mult_rep(NPreLie(p.n, p.source, p)) for p in products(operator_corpus, rng)]
    nonzero = 0
    for rep in corpus:
        back = Representation.from_columns(rep.algebra, rep.module, action_columns(rep))
        assert back.action == rep.action
        # the same action from its nonzero columns only
        sparse = {k: v for k, v in action_columns(rep).items() if not viszero(v)}
        assert Representation.from_columns(rep.algebra, rep.module, sparse).action == rep.action
        nonzero += bool(rep.action)
    assert nonzero >= 100
