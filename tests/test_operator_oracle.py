"""Operator structures against their oracles in `oracles.py`: `check_rb`
and `operator_rep` against the semidirect bracket of graph vectors, the
induced bracket and the direct n-fold derived bracket against the signed
action sum written out by hand, which the derived bracket of n copies of
an operator candidate must equal.  Every comparison is exact, down to the
check_rb witness and the two sides it reports, on the corpus, its lifts by
every admissible covector and random non-operators."""
import random

import pytest

from conftest import random_matrix
from oracles import (oracle_check_rb, oracle_derived_bracket_tt_direct, oracle_induced_bracket,
                     oracle_operator_rep)
from nlie import NLieAlgebra
from nlie.lift import admissible_covectors, lift_operator
from nlie.rota_baxter import (DerivedContext, RBOperator, check_rb, derived_bracket,
                              induced_bracket, matrix_to_cochain, operator_rep)

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
    assert reports == [oracle_check_rb(op.rep, op.matrix) for op in ops]
    if kind == "non-operators":
        failed = [r for r in reports if not r.holds]
        assert len(failed) >= len(ops) // 2
        assert all(r.witness is not None and r.lhs != r.rhs for r in failed)
    else:
        assert all(r.holds for r in reports)


@pytest.mark.parametrize("kind", ["corpus", "lifted", "non-operators"])
def test_induced_structures_match_reference(operator_inputs, kind):
    for op in operator_inputs[kind]:
        assert _same_algebra(induced_bracket(op), oracle_induced_bracket(op))
        got, want = operator_rep(op), oracle_operator_rep(op)
        assert _same_algebra(got.algebra, want.algebra)
        assert (got.module, got.action) == (want.module, want.action)
        assert op.induced_rep.action == want.action


@pytest.mark.parametrize("kind", ["corpus", "lifted", "non-operators"])
def test_derived_bracket_tt_direct_matches_reference(operator_inputs, kind):
    """The derived bracket of n copies of T against its direct form."""
    for op in operator_inputs[kind]:
        ctx = DerivedContext(op.rep)
        tc = matrix_to_cochain(op.rep, op.matrix)
        got = derived_bracket(ctx, [tc] * ctx.n)
        assert got == oracle_derived_bracket_tt_direct(ctx, op.matrix)
        assert got.is_zero() == bool(check_rb(op.rep, op.matrix))
