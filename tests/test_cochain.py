import itertools
import random
from fractions import Fraction
from math import comb

from conftest import (koszul_sign, random_blockmap, random_homogeneous,
                      random_matrix)

from nlie import (BlockMap, Matrix, NLieAlgebra, Representation, SpaceSpec,
                  abelian, adjoint_rep, check_filippov, check_representation,
                  zero_representation)
from nlie.cochain import (check_mc_pair, coboundary, coboundary_matrix,
                          cohomology_dim, graded_bracket, twisted_differential)
from nlie.core import semidirect_blockmap
from nlie.linalg import Matrix as M, kernel_basis, vadd, vzero
from nlie.multilinear import (bidegree_of, lift_map, lift_operator_map,
                              restrict_map, sum_space)
from nlie.rota_baxter import matrix_to_cochain


def jacobi_holds(P, Q, R):
    p, q, r = P.blocks, Q.blocks, R.blocks
    t1 = graded_bracket(P, graded_bracket(Q, R)).scale(Fraction((-1) ** (p * r)))
    t2 = graded_bracket(Q, graded_bracket(R, P)).scale(Fraction((-1) ** (q * p)))
    t3 = graded_bracket(R, graded_bracket(P, Q)).scale(Fraction((-1) ** (r * q)))
    return t1.add(t2).add(t3).is_zero()


def test_coboundary_of_zero():
    rep = zero_representation(abelian(3, 3), 2)
    z = BlockMap(3, 0, SpaceSpec(3, "g"), SpaceSpec(2, "V"))
    assert coboundary(rep, z).is_zero()


def test_coboundary_vanishes_for_trivial_pair():
    rng = random.Random(1)
    rep = zero_representation(abelian(3, 3), 2)
    f = random_blockmap(rng, 3, 1, 3, 2)
    assert coboundary(rep, f).is_zero()


def test_d_squared_zero_on_corpus(reps):
    rng = random.Random(2)
    for rep in reps:
        d = rep.algebra.dim
        f = random_blockmap(rng, rep.algebra.n, 0, d, rep.dim_v)
        assert coboundary(rep, coboundary(rep, f)).is_zero()
        g = random_blockmap(rng, rep.algebra.n, 1, d, rep.dim_v)
        assert coboundary(rep, coboundary(rep, g)).is_zero()


def test_adjoint_coboundary_is_signed_bracket(algebras, reps):
    """d_ρ f = (−1)^b·[μ̂ + ρ̂, f̂] restricted to g -> V, the identity of the
    differential graded Lie algebra behind the pair differential.  It uses
    no axiom of the pair, so it holds on a broken pair as well."""
    rng = random.Random(3)
    alg = algebras["nilp4"]
    ad = adjoint_rep(alg)
    mu = alg.as_blockmap()
    for blocks in (0, 1, 2):
        f = random_blockmap(rng, 3, blocks, 4, 4, "g", "g")
        lhs = coboundary(ad, f)
        rhs = graded_bracket(mu, f).scale(Fraction((-1) ** blocks))
        assert lhs == rhs
    broken = Representation(abelian(3, 3), SpaceSpec(2, "V"), {
        (0, 1): M([[0, 1], [0, 0]]), (0, 2): M([[0, 0], [1, 0]])})
    assert not check_representation(broken)
    for rep in [*reps, broken]:
        n, dg, dv = rep.n, rep.algebra.dim, rep.dim_v
        delta = semidirect_blockmap(rep)
        space = sum_space(dg, dv)
        for blocks in ((0, 1, 2) if dg <= 3 else (0, 1)):
            f = random_blockmap(rng, n, blocks, dg, dv)
            br = graded_bracket(delta, lift_map(f, space, "g", "V"))
            rhs = restrict_map(br, "g", "V").scale(Fraction((-1) ** blocks))
            assert coboundary(rep, f) == rhs


def test_bracket_with_zero():
    rng = random.Random(4)
    P = random_blockmap(rng, 3, 1, 3, 3, "g", "g")
    Z = BlockMap(3, 1, SpaceSpec(3, "g"), SpaceSpec(3, "g"))
    assert graded_bracket(P, Z).is_zero()


def test_bracket_rejects_values_outside_the_argument_space():
    """Maps g(3) -> V(2) would feed V-coordinates into g-slots."""
    import pytest
    g, v = SpaceSpec(3, "g"), SpaceSpec(2, "V")
    P = BlockMap(2, 1, g, v, {((0,), 1): (Fraction(1), Fraction(0))})
    Q = BlockMap(2, 0, g, v, {(2,): (Fraction(0), Fraction(1))})
    square = BlockMap(2, 0, g, g, {(2,): (Fraction(0), Fraction(1), Fraction(0))})
    for args in ((P, Q), (Q, P), (P, square), (square, P)):
        with pytest.raises(ValueError, match="argument space"):
            graded_bracket(*args)


def test_self_bracket_zero_iff_filippov(algebras):
    for name in ("nilp4", "cross4", "sl2"):
        mu = algebras[name].as_blockmap()
        assert graded_bracket(mu, mu).is_zero()
    bad = NLieAlgebra(3, SpaceSpec(4, "g"),
                      {(0, 1, 2): [0, 0, 0, 1], (0, 1, 3): [1, 0, 0, 0]})
    mub = bad.as_blockmap()
    assert not graded_bracket(mub, mub).is_zero()


def test_graded_antisymmetry():
    rng = random.Random(5)
    for p, q in [(0, 1), (1, 1), (2, 1)]:
        P = random_blockmap(rng, 2, p, 2, 2, "g", "g")
        Q = random_blockmap(rng, 2, q, 2, 2, "g", "g")
        lhs = graded_bracket(P, Q)
        rhs = graded_bracket(Q, P).scale(Fraction(-((-1) ** (p * q))))
        assert lhs == rhs


def test_graded_jacobi_small_degrees():
    rng = random.Random(6)
    for n, d in [(2, 2), (3, 3)]:
        for degs in [(0, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0)]:
            maps = [random_blockmap(rng, n, b, d, d, "g", "g") for b in degs]
            assert jacobi_holds(*maps)


def test_mc_pair_trivial():
    assert check_mc_pair(abelian(3, 3), zero_representation(abelian(3, 3), 2))


def test_mc_pair_agreement_on_corpus(reps):
    for rep in reps:
        direct = bool(check_filippov(rep.algebra)) and bool(check_representation(rep))
        assert direct == check_mc_pair(rep.algebra, rep)


def test_mc_pair_detects_broken_rep(algebras):
    rng = random.Random(7)
    alg = algebras["sl2"]
    action = {(0,): random_matrix(rng, 2, 2), (1,): random_matrix(rng, 2, 2)}
    rep = Representation(alg, SpaceSpec(2, "V"), action)
    direct = bool(check_representation(rep))
    assert check_mc_pair(alg, rep) == direct


def test_twisted_differential_squares_to_zero(algebras):
    rng = random.Random(8)
    rep = adjoint_rep(algebras["heis3"])
    pi = semidirect_blockmap(rep)
    total = rep.algebra.dim + rep.dim_v
    f = random_blockmap(rng, 2, 0, total, total, "g+V", "g+V")
    df = twisted_differential(pi, f)
    ddf = twisted_differential(pi, df)
    assert ddf.is_zero()


def test_twisted_differential_rejects_non_square_zero():
    bad = NLieAlgebra(3, SpaceSpec(4, "g"),
                      {(0, 1, 2): [0, 0, 0, 1], (0, 1, 3): [1, 0, 0, 0]})
    mu = bad.as_blockmap()
    import pytest
    with pytest.raises(ValueError):
        twisted_differential(mu, mu)


def test_cohomology_dims_abelian_closed_form():
    # zero differentials: H^m equals the whole cochain space
    rep = zero_representation(abelian(3, 3), 2)
    assert cohomology_dim(rep, 1) == 3 * 2
    assert cohomology_dim(rep, 2) == comb(3, 2) * 3 * 2


def test_cohomology_dim_against_direct_kernel(algebras):
    """m = 1 for the nilpotent adjoint pair, with the one-cocycle system
    rebuilt from scratch as the oracle."""
    alg = algebras["nilp4"]
    ad = adjoint_rep(alg)
    d = alg.dim
    # unknowns f(x)_c: d*d of them; equations from the displayed formula
    cols = []
    for j in range(d):
        for c in range(d):
            f = Matrix([[Fraction(1) if (r == c and k == j) else Fraction(0)
                         for k in range(d)] for r in range(d)])
            rows = []
            for blk in itertools.combinations(range(d), 2):
                for t in range(d):
                    val = vzero(d)
                    val = vadd(val, tuple(-x for x in f.mul_vec(alg.bracket([*blk, t]))))
                    val = vadd(val, ad.operator(list(blk)).mul_vec(f.column(t)))
                    for i in range(2):
                        rest = blk[:i] + blk[i + 1:]
                        sgn = Fraction((-1) ** (3 - 1 - i))
                        val = vadd(val, tuple(sgn * x for x in
                                              ad.operator([*rest, t]).mul_vec(f.column(blk[i]))))
                    rows.extend(val)
            cols.append(tuple(rows))
    system = M.from_columns(cols)
    oracle = len(kernel_basis(system))
    assert cohomology_dim(ad, 1) == oracle


def test_bidegree_additivity_on_lifts(algebras):
    rep = adjoint_rep(algebras["heis3"])
    delta = semidirect_blockmap(rep)   # bidegree (n-1)|0
    n = rep.algebra.n
    assert bidegree_of(delta) == (n - 1, 0)
    br = graded_bracket(delta, delta)
    assert br.is_zero() or bidegree_of(br) == (2 * (n - 1), 0)
    rng = random.Random(9)
    h_hat = lift_operator_map(matrix_to_cochain(rep, random_matrix(rng, 3, 3)), 3)
    assert bidegree_of(h_hat) == (-1, 1)
    mixed = graded_bracket(delta, h_hat)
    assert mixed.is_zero() or bidegree_of(mixed) == (n - 2, 1)


def test_bidegree_additivity_random_pairs():
    rng = random.Random(10)
    n, dg, dv = 2, 2, 2
    shapes = [(1, 0), (0, 1), (-1, 2)]
    for _ in range(10):
        f = random_homogeneous(rng, n, 1, dg, dv, *rng.choice(shapes))
        g = random_homogeneous(rng, n, 1, dg, dv, *rng.choice(shapes))
        if bidegree_of(f) is None or bidegree_of(g) is None:
            continue
        (kf, lf), (kg, lg) = bidegree_of(f), bidegree_of(g)
        br = graded_bracket(f, g)
        assert br.is_zero() or bidegree_of(br) == (kf + kg, lf + lg)


def test_coboundary_matrix_composes_to_zero(algebras):
    ad = adjoint_rep(algebras["nilp4"])
    d1 = coboundary_matrix(ad, 1)
    d2 = coboundary_matrix(ad, 2)
    assert d2.matmul(d1).is_zero()


def test_coboundary_dual_route_via_structure_lift(reps):
    """Independent route: bracketing the module-valued lift against the
    combined structure map and restricting equals the coboundary up to
    the degree sign (−1)^blocks."""
    rng = random.Random(12)
    for rep in reps[:8]:
        if not (check_filippov(rep.algebra) and check_representation(rep)):
            continue
        delta = semidirect_blockmap(rep)
        for blocks in (0, 1):
            f = random_blockmap(rng, rep.algebra.n, blocks,
                                rep.algebra.dim, rep.dim_v)
            space = sum_space(rep.algebra.dim, rep.dim_v)
            br = graded_bracket(delta, lift_map(f, space, "g", "V"))
            got = restrict_map(br, "g", "V")
            assert got == coboundary(rep, f).scale(Fraction((-1) ** blocks))


def test_binary_generalized_jacobi_mixed_degrees(algebras):
    """The shuffle identity for the derived 2-bracket with Koszul signs,
    on arguments of mixed degree."""
    from nlie.combinat import shuffles
    from nlie.rota_baxter import DerivedContext, derived_bracket
    rng = random.Random(13)
    rep = adjoint_rep(algebras["heis3"])
    ctx = DerivedContext(rep)
    n = 2
    src = SpaceSpec(3, "V")
    for _ in range(4):
        xs = [matrix_to_cochain(rep, random_matrix(rng, 3, 3, span=1)),
              random_blockmap(rng, 2, 1, 3, 3, "V", "g"),
              random_blockmap(rng, 2, rng.choice([0, 1]), 3, 3, "V", "g")]
        if xs[2].blocks == 0:
            xs[2] = matrix_to_cochain(rep, random_matrix(rng, 3, 3, span=1))
        degs = [c.blocks for c in xs]
        total = None
        for perm, _ in shuffles(n, n - 1):
            eps = koszul_sign(perm, degs)
            inner = derived_bracket(ctx, [xs[perm[0]], xs[perm[1]]])
            term = derived_bracket(ctx, [inner, xs[perm[2]]]).scale(Fraction(eps))
            total = term if total is None else total.add(term)
        assert total.is_zero()
