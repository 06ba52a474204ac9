import itertools
import random
from fractions import Fraction

import pytest

from conftest import (one_block_action_pair, random_blockmap,
                      random_wedge_tail_cochain)
from oracles import oracle_lift_cochain, oracle_semidirect_bracket

from nlie import (BlockMap, Matrix, SpaceSpec, abelian, adjoint_rep,
                  check_filippov, check_representation, check_rb,
                  zero_representation)
from nlie.lift import (admissible_covectors, find_center, induced_covector,
                       is_admissible, is_central, lift_cochain, lift_operator,
                       lift_operator_cochain, operator_chain_map_holds,
                       pair_chain_map_holds, raise_arity, raise_arity_rep)
from nlie.linalg import basis_vec, vector, viszero
from nlie.multilinear import tail_antisymmetrize
from nlie.rota_baxter import RBOperator, Wedge, induced_bracket, rb_coboundary


def test_zero_covector_admissible(algebras):
    for alg in algebras.values():
        assert is_admissible(alg, [0] * alg.dim)


def test_abelian_any_covector():
    alg = abelian(3, 3)
    assert is_admissible(alg, [1, 2, 3])


def test_nilpotent_admissibility(algebras):
    alg = algebras["nilp4"]
    assert not is_admissible(alg, basis_vec(4, 3))   # dual to the bracket value
    assert is_admissible(alg, basis_vec(4, 0))


def test_admissible_covectors_solve_the_kernel(algebras):
    alg = algebras["nilp4"]
    for f in admissible_covectors(alg):
        assert is_admissible(alg, f)


def test_raise_zero_covector_gives_abelian(algebras):
    alg = algebras["nilp4"]
    raised = raise_arity(alg, [0, 0, 0, 0])
    assert raised.n == 4 and raised.is_abelian()


def test_raised_algebra_passes(algebras):
    for name in ("solv2", "heis3", "sl2", "nilp4", "cross4"):
        alg = algebras[name]
        for f in admissible_covectors(alg)[:2]:
            raised = raise_arity(alg, f)
            assert check_filippov(raised)
            # the same covector annihilates the new bracket: iterable
            assert is_admissible(raised, f)


def test_raised_rep_passes(algebras):
    for name in ("solv2", "sl2", "nilp4"):
        alg = algebras[name]
        rep = adjoint_rep(alg)
        for f in admissible_covectors(alg)[:2]:
            raised = raise_arity_rep(rep, f)
            assert check_representation(raised)


def test_raised_rep_zero_covector(algebras):
    rep = adjoint_rep(algebras["nilp4"])
    raised = raise_arity_rep(rep, [0, 0, 0, 0])
    assert not raised.action


def test_raised_action_antisymmetric(algebras):
    alg = algebras["nilp4"]
    rep = adjoint_rep(alg)
    f = admissible_covectors(alg)[0]
    raised = raise_arity_rep(rep, f)
    m1 = raised.operator([0, 1, 2])
    m2 = raised.operator([1, 0, 2])
    assert m2 == m1.scale(Fraction(-1))


def test_lifted_operator_passes(operator_corpus):
    for op in operator_corpus:
        for f in admissible_covectors(op.algebra)[:2]:
            lifted = lift_operator(op, f)
            assert check_rb(lifted.rep, lifted.matrix)


def test_zero_operator_lifts(algebras):
    alg = algebras["nilp4"]
    rep = adjoint_rep(alg)
    t = RBOperator(rep, Matrix.zero(4, 4))
    f = admissible_covectors(alg)[0]
    lifted = lift_operator(t, f)
    assert check_rb(lifted.rep, lifted.matrix)


def test_induced_bracket_compatible_with_raising(operator_corpus):
    """Raising then inducing equals inducing then raising by the composed
    covector, and that covector kills the induced bracket."""
    for op in operator_corpus[3:6]:
        for f in admissible_covectors(op.algebra)[:1]:
            lifted = lift_operator(op, f)
            ft = induced_covector(op, f)
            ib = induced_bracket(op)
            assert is_admissible(ib, ft)
            assert induced_bracket(lifted).structure == raise_arity(ib, ft).structure


def test_lift_cochain_matches_reference():
    """Exact agreement with `oracles.oracle_lift_cochain` on random
    block-skew cochains that are not antisymmetric between the last block
    and the tail, for covectors with and without zero entries."""
    rng = random.Random(59)
    cases = 0
    for n in (2, 3, 4):
        for blocks in (0, 1, 2):
            for d in (n, n + 1):
                for density in (1.0, 0.4):
                    p = random_blockmap(rng, n, blocks, d, 2, density=density)
                    assert blocks == 0 or tail_antisymmetrize(p) != p
                    for f in ([rng.randint(-2, 2) for _ in range(d)],
                              [rng.choice([0, 1, -3]) for _ in range(d)]):
                        got, want = lift_cochain(p, f), oracle_lift_cochain(p, f)
                        assert (got.n, got.blocks, got.table) == (want.n, want.blocks, want.table)
                        cases += 1
    assert cases == 72


def test_lift_cochain_zero():
    z = BlockMap(3, 1, SpaceSpec(3, "g"), SpaceSpec(2, "V"))
    assert lift_cochain(z, [1, 0, 0]).is_zero()


def test_lift_cochain_zero_covector_kills_higher_degrees():
    rng = random.Random(60)
    p = random_blockmap(rng, 3, 1, 3, 2)
    assert lift_cochain(p, [0, 0, 0]).is_zero()
    # degree-1 cochains pass through even with a zero covector
    q = random_blockmap(rng, 3, 0, 3, 2)
    lifted = lift_cochain(q, [0, 0, 0])
    assert lifted.table == q.table and lifted.n == 4


def test_pair_chain_maps(algebras):
    rng = random.Random(61)
    for name in ("solv2", "heis3", "nilp4"):
        alg = algebras[name]
        rep = adjoint_rep(alg)
        fs = admissible_covectors(alg)
        if not fs:
            continue
        f = fs[0]
        raised = raise_arity_rep(rep, f)
        d = alg.dim
        for blocks in (0, 1, 2):
            p = random_wedge_tail_cochain(rng, alg.n, blocks, d, d)
            assert pair_chain_map_holds(rep, raised, f, p)


def test_chain_map_sends_cocycles_to_cocycles(algebras):
    from nlie.cochain import coboundary
    rng = random.Random(62)
    alg = algebras["nilp4"]
    rep = adjoint_rep(alg)
    f = admissible_covectors(alg)[0]
    raised = raise_arity_rep(rep, f)
    # coboundaries are lifted to coboundaries, hence cocycles to cocycles
    p = random_wedge_tail_cochain(rng, 3, 0, 4, 4)
    dp = coboundary(rep, p)
    lifted = lift_cochain(dp, f)
    assert coboundary(raised, lifted).is_zero() or \
        coboundary(raised, lifted) == lift_cochain(coboundary(rep, dp), f)
    assert lift_cochain(dp, f) == coboundary(raised, lift_cochain(p, f))


def test_find_center_abelian():
    rep = zero_representation(abelian(3, 3), 2)
    assert len(find_center(rep)) == 5


def test_find_center_nilpotent(algebras):
    rep = adjoint_rep(algebras["nilp4"])
    center = find_center(rep)
    assert len(center) == 2
    for z in center:
        assert is_central(rep, z)
        for blk in itertools.combinations(range(8), 2):
            args = [basis_vec(8, i) for i in blk] + [z]
            assert viszero(oracle_semidirect_bracket(rep, args))


def test_non_central_rejected(algebras):
    rep = adjoint_rep(algebras["nilp4"])
    bad = basis_vec(8, 0)
    assert not is_central(rep, bad)
    w = Wedge(4, 2, {(0, 1): Fraction(1)})
    t = RBOperator(rep, Matrix.zero(4, 4))
    with pytest.raises(ValueError):
        lift_operator_cochain(w, t, bad)


NORMALIZED = None


def normalized_operator_config():
    """The one-block abelian pair: nonzero differential at degree 0 and a
    central direction with covector value 1 = (-1)^{n-1} for n = 3."""
    rep = one_block_action_pair()
    t = RBOperator(rep, Matrix([[0, 0], [0, 0], [1, 2]]))
    f = vector((0, 0, 1))
    x0 = vector((0, 0, 1, 0, 0))
    return rep, t, f, x0


def test_operator_chain_map_all_degrees():
    rng = random.Random(63)
    rep, t, f, x0 = normalized_operator_config()
    lifted = lift_operator(t, f)
    assert is_admissible(rep.algebra, f)
    assert is_central(rep, x0)
    # degree 0: the differential is genuinely nonzero here
    w = Wedge(3, 2, {(0, 1): Fraction(1)})
    assert not rb_coboundary(t, w).is_zero()
    assert operator_chain_map_holds(t, lifted, f, x0, w)
    # degree 1 (no blocks) and degree 2 (wedge-tail) cochains
    c1 = random_blockmap(rng, 3, 0, 2, 3, "V", "g")
    assert operator_chain_map_holds(t, lifted, f, x0, c1)
    c2 = random_wedge_tail_cochain(rng, 3, 1, 2, 3)
    assert operator_chain_map_holds(t, lifted, f, x0, c2)


def test_operator_chain_map_zero_x0_degenerate(algebras):
    """With x0 = 0 the degree-0 lift collapses; the square commutes only
    when the degree-0 differential vanishes, as it does for zero structure."""
    rep = zero_representation(abelian(3, 3), 2)
    t = RBOperator(rep, Matrix.zero(3, 2))
    x0 = vector([0] * 5)
    w = Wedge(3, 2, {(0, 1): Fraction(1)})
    assert rb_coboundary(t, w).is_zero()
    f = vector((1, 0, 0))
    assert operator_chain_map_holds(t, lift_operator(t, f), f, x0, w)


def test_degree0_lift_wedges_with_center():
    rep, t, f, x0 = normalized_operator_config()
    w = Wedge(3, 2, {(0, 1): Fraction(2)})
    lifted = lift_operator_cochain(w, t, x0)
    assert lifted.coeffs == {(0, 1, 2): Fraction(2)}
