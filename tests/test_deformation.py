import random
from fractions import Fraction

import pytest

from conftest import rand_frac, random_matrix

from nlie import Matrix, abelian, adjoint_rep, cli, deformation, zero_representation
from nlie.combinat import blocks_of
from nlie.deformation import (DeformationJet, check_infinitesimal, check_order,
                              extend, find_equivalence, obstruction,
                              obstruction_via_derived)
from nlie.io import Problem
from nlie.linalg import kernel_basis, rank
from nlie.rota_baxter import (RBOperator, Wedge, cochain_to_vector,
                              rb_coboundary_matrix, vector_to_matrix_cochain,
                              wedge_coboundary)


def cocycle_sample(t: RBOperator, rng: random.Random, count: int):
    """Random elements of the exact kernel of the first differential."""
    kb = kernel_basis(rb_coboundary_matrix(t, 1))
    if not kb:
        return
    for _ in range(count):
        coeffs = [rand_frac(rng) for _ in kb]
        vec = tuple(sum((c * v[i] for c, v in zip(coeffs, kb)), Fraction(0))
                    for i in range(len(kb[0])))
        yield vector_to_matrix_cochain(t, vec)


def solvability_oracle(t: RBOperator, theta) -> bool:
    """Independent route: consistency of the assembled linear system."""
    d1 = rb_coboundary_matrix(t, 1)
    rhs = tuple(-x for x in cochain_to_vector(t, theta, 2))
    aug = Matrix([list(row) + [b] for row, b in zip(d1.entries, rhs)])
    return rank(aug) == rank(d1)


def test_constant_jet_valid(operator_corpus):
    for op in operator_corpus:
        zero = Matrix.zero(op.algebra.dim, op.rep.dim_v)
        jet = DeformationJet(op, [zero, zero])
        assert check_order(jet)


def test_constant_jet_extends_with_zero(operator_corpus):
    op = operator_corpus[3]
    zero = Matrix.zero(op.algebra.dim, op.rep.dim_v)
    jet = DeformationJet(op, [zero])
    ob = obstruction(jet)
    assert ob.theta.is_zero()
    nxt = extend(ob)
    assert nxt is not None and nxt.is_zero()


def test_any_jet_over_zero_pair():
    rng = random.Random(50)
    rep = zero_representation(abelian(3, 3), 2)
    op = RBOperator(rep, Matrix.zero(3, 2))
    jet = DeformationJet(op, [random_matrix(rng, 3, 2), random_matrix(rng, 3, 2)])
    assert check_order(jet)


def test_infinitesimal_matches_order_one(operator_corpus):
    rng = random.Random(51)
    for op in operator_corpus:
        for _ in range(4):
            t1 = random_matrix(rng, op.algebra.dim, op.rep.dim_v, span=1)
            assert check_infinitesimal(op, t1) == bool(check_order(DeformationJet(op, [t1])))


def test_coboundaries_are_cocycles(operator_corpus):
    rng = random.Random(52)
    for op in operator_corpus[:5]:
        n, dg = op.algebra.n, op.algebra.dim
        blocks = blocks_of(dg, n - 1)
        coeffs = {b: rand_frac(rng) for b in blocks}
        w = Wedge(dg, n - 1, coeffs)
        dw = wedge_coboundary(op, w)
        cols = [dw.value((u,)) for u in range(op.rep.dim_v)]
        t1 = Matrix.from_columns(cols) if cols else Matrix.zero(dg, 0)
        assert check_infinitesimal(op, t1)


def test_second_coefficient_usually_fails(algebras):
    """A valid first-order jet with an arbitrary second coefficient should
    fail the order-2 equation, with the failing order reported."""
    rng = random.Random(53)
    rep = adjoint_rep(algebras["sl2"])
    op = RBOperator(rep, Matrix.zero(3, 3))
    t1 = next(iter(cocycle_sample(op, rng, 1)))
    found = False
    for _ in range(10):
        t2 = random_matrix(rng, 3, 3)
        jet = DeformationJet(op, [t1, t2])
        r = check_order(jet)
        if not r.holds:
            assert r.witness[0] == 2
            found = True
            break
    assert found


def test_equivalence_trivial():
    rep = zero_representation(abelian(3, 3), 2)
    op = RBOperator(rep, Matrix.zero(3, 2))
    t1 = Matrix([[1, 0], [0, 1], [0, 0]])
    gauge = find_equivalence(op, t1, t1)
    assert gauge is not None
    assert wedge_coboundary(op, gauge).is_zero()


def test_equivalence_planted_gauge(operator_corpus):
    rng = random.Random(54)
    for op in operator_corpus[3:6]:
        n, dg = op.algebra.n, op.algebra.dim
        t1 = next(iter(cocycle_sample(op, rng, 1)), None)
        if t1 is None:
            continue
        w = Wedge(dg, n - 1, {b: rand_frac(rng) for b in blocks_of(dg, n - 1)})
        dw = wedge_coboundary(op, w)
        t1p = t1 + Matrix.from_columns([dw.value((u,)) for u in range(op.rep.dim_v)])
        gauge = find_equivalence(op, t1, t1p)
        assert gauge is not None
        assert wedge_coboundary(op, gauge) == dw


def test_equivalence_distinct_classes_when_d_vanishes():
    """Zero differential: distinct cocycles are never equivalent."""
    rep = zero_representation(abelian(3, 3), 2)
    op = RBOperator(rep, Matrix.zero(3, 2))
    t1 = Matrix.zero(3, 2)
    t1p = Matrix([[1, 0], [0, 0], [0, 0]])
    assert find_equivalence(op, t1, t1p) is None


def test_non_cocycle_inputs_rejected(algebras):
    rep = adjoint_rep(algebras["sl2"])
    op = RBOperator(rep, Matrix.zero(3, 3))
    bad = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    if not check_infinitesimal(op, bad):
        with pytest.raises(ValueError):
            find_equivalence(op, bad, bad)


def test_obstruction_cocycle_and_derived_route(operator_corpus):
    rng = random.Random(55)
    for op in operator_corpus[3:6]:
        for t1 in cocycle_sample(op, rng, 2):
            jet = DeformationJet(op, [t1])
            if not check_order(jet):
                continue
            ob = obstruction(jet)
            assert ob.cocycle_checked
            assert ob.theta == obstruction_via_derived(jet)


def test_extend_agrees_with_solvability_oracle(operator_corpus):
    rng = random.Random(56)
    for op in operator_corpus[3:6]:
        for t1 in cocycle_sample(op, rng, 2):
            jet = DeformationJet(op, [t1])
            if not check_order(jet):
                continue
            ob = obstruction(jet)
            theta = ob.theta
            nxt = extend(ob)
            assert (nxt is not None) == solvability_oracle(op, theta)
            if nxt is not None:
                assert check_order(jet.extended(nxt))


OBSTRUCTED_SL2_T1 = Matrix([[2, -1, -1], [2, -1, 2], [-2, -2, 0]])


def test_frozen_obstructed_instance(algebras):
    """A first-order jet over the simple 3-dim algebra whose obstruction
    class is nontrivial: extension must report failure, and the report must
    agree with the solvability oracle."""
    rep = adjoint_rep(algebras["sl2"])
    op = RBOperator(rep, Matrix.zero(3, 3))
    jet = DeformationJet(op, [OBSTRUCTED_SL2_T1])
    assert check_order(jet)
    theta = obstruction(jet)
    assert theta.cocycle_checked
    assert not solvability_oracle(op, theta.theta)
    assert extend(theta) is None


def test_second_order_extension_chain(operator_corpus):
    """Extend twice where possible; each stage is re-verified."""
    rng = random.Random(57)
    op = operator_corpus[3]
    for t1 in cocycle_sample(op, rng, 3):
        jet = DeformationJet(op, [t1])
        if not check_order(jet):
            continue
        nxt = extend(obstruction(jet))
        if nxt is None:
            continue
        jet2 = jet.extended(nxt)
        assert check_order(jet2)
        nxt2 = extend(obstruction(jet2))
        if nxt2 is not None:
            assert check_order(jet2.extended(nxt2))
        return
    pytest.skip("no extendable first-order jet found in the sample")


def test_extend_rejects_an_invalid_jet(algebras):
    rep = adjoint_rep(algebras["sl2"])
    op = RBOperator(rep, Matrix.zero(3, 3))
    jet = DeformationJet(op, [OBSTRUCTED_SL2_T1, Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])])
    assert not check_order(jet)
    with pytest.raises(ValueError, match="not a valid jet"):
        extend(obstruction(jet))


def test_extend_command_computes_the_obstruction_once(operator_corpus, monkeypatch):
    """`deform --action extend` reports the obstruction and extends from it."""
    real, calls = deformation.obstruction, []

    def counting(jet):
        calls.append(jet)
        return real(jet)

    monkeypatch.setattr(deformation, "obstruction", counting)
    monkeypatch.setattr(cli, "obstruction", counting)
    t = operator_corpus[5]
    zero = Matrix.zero(t.algebra.dim, t.rep.dim_v)
    prob = Problem(t.algebra.n, t.algebra, t.rep, operator=t.matrix, deformation=[zero])
    report = cli.cmd_deform(prob, "extend")
    assert report["extension"] != "obstructed"
    assert len(calls) == 1


def test_extend_command_checks_the_input_jet_once(operator_corpus, monkeypatch):
    """`deform --action extend` runs the order checks once on the input jet,
    for the report and for `extend`, and only the new order on the extended
    jet: orders 0..m are the input jet's equations."""
    real, orders = deformation._check_one_order, []

    def counting(ops, base, s):
        orders.append((len(ops) - 1, s))
        return real(ops, base, s)

    monkeypatch.setattr(deformation, "_check_one_order", counting)
    t = operator_corpus[5]
    zero = Matrix.zero(t.algebra.dim, t.rep.dim_v)
    prob = Problem(t.algebra.n, t.algebra, t.rep, operator=t.matrix, deformation=[zero])
    report = cli.cmd_deform(prob, "extend")
    assert report["extension"] != "obstructed"
    assert orders == [(1, 0), (1, 1), (2, 2)]
