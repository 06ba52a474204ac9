"""Operator structures are read off the semidirect bracket on the graph of T.
The hand-expanded signed action sums they used to carry stay here as
oracles; every comparison is exact, down to the check_rb witness and the two
sides it reports."""
import itertools
import random
from fractions import Fraction
from math import factorial
from typing import Sequence

import pytest

from conftest import random_matrix
from nlie import Matrix, NLieAlgebra, Representation, SpaceSpec
from nlie.combinat import blocks_of
from nlie.core import CheckReport
from nlie.lift import admissible_covectors, lift_operator
from nlie.linalg import Vec, basis_vec, vadd, viszero, vscale, vsub, vzero
from nlie.multilinear import BlockMap, iter_keys
from nlie.rota_baxter import (DerivedContext, RBOperator, check_rb,
                              derived_bracket_tt_direct, induced_bracket,
                              operator_rep)

# ---------------------------------------------------------------------------
# reference implementations: the signed action sum written out by hand
# ---------------------------------------------------------------------------


def _act_sum(rep: Representation, tvs: Sequence[Vec], vs: Sequence[int]) -> Vec:
    """Σ_i (−1)^{n−1−i} ρ(Tv_1, .., Tv_i omitted, .., Tv_n) v_i, in V."""
    n = len(vs)
    total = vzero(rep.dim_v)
    for i in range(n):
        inner = rep.act(tvs[:i] + tvs[i + 1:], vs[i])
        total = vadd(total, vscale(inner, Fraction((-1) ** (n - 1 - i))))
    return total


def reference_check_rb(rep: Representation, t: Matrix) -> CheckReport:
    """The defining identity on all basis n-tuples of V, with witness."""
    alg = rep.algebra
    n, dv = alg.n, rep.dim_v
    op = RBOperator(rep, t)
    for vs in itertools.combinations(range(dv), n):
        tvs = [op.apply(v) for v in vs]
        lhs = alg.bracket(tvs)
        rhs = t.mul_vec(_act_sum(rep, tvs, vs))
        if lhs != rhs:
            return CheckReport(False, witness=vs, lhs=lhs, rhs=rhs,
                               detail="operator identity fails")
    return CheckReport(True)


def reference_derived_bracket_tt_direct(ctx: DerivedContext, t: Matrix) -> BlockMap:
    """Fast path for the bracket of n copies of an operator candidate.

    Equals n!·([Tv_1..Tv_n] − Σ(−1)^{n-i} T ρ(..)(v_i)) entrywise; kept as an
    independent route and cross-checked against the generic one in tests.
    """
    rep = ctx.rep
    alg = rep.algebra
    n, dv = ctx.n, ctx.dim_v
    op = RBOperator(rep, t)
    src = SpaceSpec(dv, "V")
    tgt = SpaceSpec(ctx.dim_g, "g")
    nf = Fraction(factorial(n))
    table = {}
    for key in iter_keys(dv, n - 1, 1):
        vs = list(key[0]) + [key[-1]]
        tvs = [op.apply(v) for v in vs]
        val = vscale(vsub(alg.bracket(tvs), t.mul_vec(_act_sum(rep, tvs, vs))), nf)
        if not viszero(val):
            table[key] = val
    return BlockMap(n, 1, src, tgt, table)


def reference_induced_bracket(t: RBOperator) -> NLieAlgebra:
    """The bracket on V transported through the operator."""
    rep = t.rep
    alg = rep.algebra
    n, dv = alg.n, rep.dim_v
    space = SpaceSpec(dv, "V")
    structure = {}
    for key in itertools.combinations(range(dv), n):
        val = _act_sum(rep, [t.apply(v) for v in key], key)
        if not viszero(val):
            structure[key] = val
    return NLieAlgebra(n, space, structure)


def reference_operator_rep(t: RBOperator) -> Representation:
    """Representation of the induced algebra on g attached to the operator."""
    rep = t.rep
    alg = rep.algebra
    n, dg, dv = alg.n, alg.dim, rep.dim_v
    base = reference_induced_bracket(t)
    action = {}
    for block in blocks_of(dv, n - 1):
        tvs = [t.apply(u) for u in block]
        cols = []
        for x in range(dg):
            val = alg.bracket([*tvs, x])
            for i in range(n - 1):
                rest = tvs[:i] + tvs[i + 1:]
                inner = rep.act([*rest, basis_vec(dg, x)], block[i])
                val = vsub(val, vscale(t.matrix.mul_vec(inner),
                                       Fraction((-1) ** (n - 1 - i))))
            cols.append(val)
        mat = Matrix.from_columns(cols)
        if not mat.is_zero():
            action[block] = mat
    return Representation(base, SpaceSpec(dg, "g"), action)


# ---------------------------------------------------------------------------
# inputs: the corpus, its lifts by every admissible covector, non-operators
# ---------------------------------------------------------------------------


def _same_algebra(a: NLieAlgebra, b: NLieAlgebra) -> bool:
    return (a.n, a.space, a.structure) == (b.n, b.space, b.structure)


def _lifted(corpus):
    return [lift_operator(op, f) for op in corpus for f in admissible_covectors(op.algebra)]


def _non_operators(ops, seed: int):
    """Two seeded random maps on each pair; most fail the identity."""
    rng = random.Random(seed)
    return [RBOperator(op.rep, random_matrix(rng, op.algebra.dim, op.rep.dim_v))
            for op in ops for _ in range(2)]


@pytest.fixture(scope="module")
def operator_inputs(operator_corpus):
    lifted = _lifted(operator_corpus)
    valid = list(operator_corpus) + lifted
    return {"corpus": list(operator_corpus), "lifted": lifted,
            "non-operators": _non_operators(valid, 7)}


@pytest.mark.parametrize("kind", ["corpus", "lifted", "non-operators"])
def test_check_rb_matches_reference(operator_inputs, kind):
    ops = operator_inputs[kind]
    reports = [check_rb(op.rep, op.matrix) for op in ops]
    assert reports == [reference_check_rb(op.rep, op.matrix) for op in ops]
    if kind == "non-operators":
        failed = [r for r in reports if not r.holds]
        assert len(failed) >= len(ops) // 2
        assert all(r.witness is not None and r.lhs != r.rhs for r in failed)
    else:
        assert all(r.holds for r in reports)


@pytest.mark.parametrize("kind", ["corpus", "lifted", "non-operators"])
def test_induced_structures_match_reference(operator_inputs, kind):
    for op in operator_inputs[kind]:
        assert _same_algebra(induced_bracket(op), reference_induced_bracket(op))
        got, want = operator_rep(op), reference_operator_rep(op)
        assert _same_algebra(got.algebra, want.algebra)
        assert (got.module, got.action) == (want.module, want.action)
        assert op.induced_rep.action == want.action


@pytest.mark.parametrize("kind", ["corpus", "lifted", "non-operators"])
def test_derived_bracket_tt_direct_matches_reference(operator_inputs, kind):
    for op in operator_inputs[kind]:
        ctx = DerivedContext(op.rep)
        got = derived_bracket_tt_direct(ctx, op.matrix)
        assert got == reference_derived_bracket_tt_direct(ctx, op.matrix)
        assert got.is_zero() == bool(check_rb(op.rep, op.matrix))


def test_graph_and_twist():
    """graph(u) = (Tu, u) and twist((x, u)) = x − Tu, on indices and vectors."""
    rep = Representation(NLieAlgebra(2, SpaceSpec(2, "g")), SpaceSpec(3, "V"))
    t = RBOperator(rep, Matrix([[1, 0, 2], [0, -1, Fraction(1, 2)]]))
    assert t.graph(2) == (2, Fraction(1, 2), 0, 0, 1)
    u = (1, 1, 2)
    assert t.graph(u) == t.apply(u) + u
    assert t.twist(t.graph(u)) == (0, 0)
    assert t.twist((3, 4) + u) == vsub((3, 4), t.apply(u))
