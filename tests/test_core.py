import itertools
import random
from fractions import Fraction

from conftest import broken_action, broken_algebra, random_matrix

from nlie import (Matrix, NLieAlgebra, Representation, SpaceSpec,
                  SymplecticForm, abelian, adjoint_rep, check_filippov,
                  check_n_pre_lie, check_representation, check_symplectic,
                  coadjoint_rep, left_mult_rep, pre_lie_from_table,
                  semidirect_product, sub_adjacent, symplectic_operator,
                  symplectic_to_pre_lie, zero_representation)
from nlie.linalg import basis_vec, vector, viszero


NILP = NLieAlgebra(3, SpaceSpec(4, "g"), {(0, 1, 2): [0, 0, 0, 1]})
BROKEN = NLieAlgebra(3, SpaceSpec(4, "g"),
                     {(0, 1, 2): [0, 0, 0, 1], (0, 1, 3): [1, 0, 0, 0]})


def test_zero_bracket_holds():
    assert check_filippov(abelian(3, 4))
    assert check_filippov(abelian(2, 3))


def test_nilpotent_example_holds():
    assert check_filippov(NILP)


def test_broken_example_fails_with_witness():
    r = check_filippov(BROKEN)
    assert not r.holds
    assert r.witness is not None
    xs, ys = r.witness
    # the witness really violates the identity
    alg = BROKEN
    lhs = alg.bracket([*xs, alg.bracket(list(ys))])
    rhs = vector([0] * 4)
    for i in range(3):
        args = list(ys)
        args[i] = alg.bracket([*xs, ys[i]])
        rhs = tuple(a + b for a, b in zip(rhs, alg.bracket(args)))
    assert lhs != rhs


def test_catalog_verified(algebras):
    for name, alg in algebras.items():
        assert check_filippov(alg), name


def test_bracket_antisymmetry(algebras):
    alg = algebras["cross4"]
    v1 = alg.bracket([0, 1, 2])
    assert alg.bracket([1, 0, 2]) == tuple(-x for x in v1)
    assert viszero(alg.bracket([0, 0, 2]))


def test_zero_rep_holds(algebras):
    for alg in algebras.values():
        assert check_representation(zero_representation(alg, 2))


def test_adjoint_and_coadjoint_pass(algebras):
    for name in ("solv2", "sl2", "nilp4", "cross4"):
        alg = algebras[name]
        assert check_representation(adjoint_rep(alg))
        assert check_representation(coadjoint_rep(alg))


def test_adjoint_structure_of_nilpotent():
    ad = adjoint_rep(NILP)
    # ad(e1, e2) sends e3 to e4, everything else to zero
    m = ad.operator([0, 1])
    assert m.column(2) == basis_vec(4, 3)
    assert viszero(m.column(0)) and viszero(m.column(1)) and viszero(m.column(3))
    # blocks containing the central direction act as zero
    assert ad.operator([0, 3]).is_zero()
    assert ad.operator([1, 3]).is_zero()
    assert ad.operator([2, 3]).is_zero()


def test_coadjoint_is_negative_transpose():
    ad = adjoint_rep(NILP)
    co = coadjoint_rep(NILP)
    assert co.operator([0, 1]) == ad.operator([0, 1]).transpose().scale(Fraction(-1))


def test_random_action_on_nonabelian_fails(algebras):
    rng = random.Random(40)
    alg = algebras["sl2"]
    found_failure = False
    for _ in range(10):
        action = {blk: random_matrix(rng, 2, 2)
                  for blk in itertools.combinations(range(3), 1)}
        rep = Representation(alg, SpaceSpec(2, "V"), action)
        if not check_representation(rep).holds:
            found_failure = True
            break
    assert found_failure


def test_semidirect_product_passes(algebras):
    """g ⋉ V is an n-Lie algebra iff g is one and ρ represents it: on the
    catalog adjoints and on a broken-action and a broken-bracket copy of each."""
    rng = random.Random(5)
    broken = 0
    for alg in algebras.values():
        rep = adjoint_rep(alg)
        assert check_filippov(semidirect_product(rep))
        pairs = [broken_action(rng, rep)]
        if alg.dim >= alg.n:
            pairs.append(broken_algebra(rng, rep))
        for pair in pairs:
            direct = bool(check_filippov(pair.algebra)) and bool(check_representation(pair))
            assert bool(check_filippov(semidirect_product(pair))) == direct
            broken += not direct
    assert broken >= 5


def test_semidirect_two_module_slots_vanish(algebras):
    rep = adjoint_rep(algebras["nilp4"])
    sd = semidirect_product(rep)
    dg = 4
    # brackets with at least two module-side slots vanish
    for key, val in sd.structure.items():
        assert sum(1 for i in key if i >= dg) <= 1


def test_abelian_semidirect_with_zero_action():
    rep = zero_representation(abelian(3, 3), 2)
    sd = semidirect_product(rep)
    assert sd.is_abelian()


# --- n-pre-Lie ---------------------------------------------------------------

PRELIE2 = pre_lie_from_table(2, 2, {((0,), 0): [0, 1]})  # e1*e1 = e2


def test_zero_product_is_pre_lie():
    z = pre_lie_from_table(3, 3, {})
    assert check_n_pre_lie(z)
    assert sub_adjacent(z).is_abelian()


def test_nilpotent_product_is_pre_lie():
    assert check_n_pre_lie(PRELIE2)


def test_sub_adjacent_commutator():
    # x*y - y*x vanishes for the one-relation nilpotent product
    assert sub_adjacent(PRELIE2).is_abelian()


def test_left_mult_entries():
    L = left_mult_rep(PRELIE2)
    assert L.operator([0]).column(0) == basis_vec(2, 1)


def test_pre_lie_consequences(algebras):
    form = SymplecticForm(Matrix([[0, 0, 0, 1], [0, 0, 1, 0],
                                  [0, -1, 0, 0], [-1, 0, 0, 0]]))
    p = symplectic_to_pre_lie(algebras["nilp4"], form)
    assert check_n_pre_lie(p)
    assert check_filippov(sub_adjacent(p))
    assert check_representation(left_mult_rep(p))


# --- symplectic --------------------------------------------------------------

def test_abelian_any_nondegenerate_skew_form():
    alg = abelian(3, 4)
    form = SymplecticForm(Matrix([[0, 1, 0, 0], [-1, 0, 0, 0],
                                  [0, 0, 0, 1], [0, 0, -1, 0]]))
    assert check_symplectic(alg, form)


def test_degenerate_form_rejected():
    alg = abelian(3, 4)
    form = SymplecticForm(Matrix.zero(4, 4))
    r = check_symplectic(alg, form)
    assert not r.holds


def test_nilpotent_symplectic_example(algebras):
    form = SymplecticForm(Matrix([[0, 0, 0, 1], [0, 0, 1, 0],
                                  [0, -1, 0, 0], [-1, 0, 0, 0]]))
    assert check_symplectic(algebras["nilp4"], form)


def test_symplectic_to_pre_lie_compatible(algebras):
    alg = algebras["nilp4"]
    form = SymplecticForm(Matrix([[0, 0, 0, 1], [0, 0, 1, 0],
                                  [0, -1, 0, 0], [-1, 0, 0, 0]]))
    p = symplectic_to_pre_lie(alg, form)
    assert sub_adjacent(p).structure == alg.structure


def test_symplectic_operator_is_rota_baxter(algebras):
    from nlie import check_rb
    alg = algebras["nilp4"]
    form = SymplecticForm(Matrix([[0, 0, 0, 1], [0, 0, 1, 0],
                                  [0, -1, 0, 0], [-1, 0, 0, 0]]))
    t = symplectic_operator(alg, form)
    assert check_rb(coadjoint_rep(alg), t)
    # invertibility
    from nlie.linalg import rank
    assert rank(t) == 4


def test_identity_operator_on_left_mult(algebras):
    from nlie import check_rb
    form = SymplecticForm(Matrix([[0, 0, 0, 1], [0, 0, 1, 0],
                                  [0, -1, 0, 0], [-1, 0, 0, 0]]))
    p = symplectic_to_pre_lie(algebras["nilp4"], form)
    assert check_rb(left_mult_rep(p), Matrix.identity(4))
