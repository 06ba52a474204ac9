import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from conftest import (central_image_operator, koszul_sign,
                      one_block_action_pair, random_blockmap, random_matrix)
from oracles import oracle_derived_bracket_tt_direct

from nlie import (Matrix, NLieAlgebra, SpaceSpec, abelian, adjoint_rep,
                  check_filippov, check_n_pre_lie, check_representation,
                  check_rb, sub_adjacent, zero_representation)
from nlie import rota_baxter
from nlie.cli import cmd_cohomology
from nlie.combinat import blocks_of, shuffles
from nlie.deformation import (DeformationJet, extend, find_equivalence,
                              obstruction)
from nlie.io import Problem
from nlie.linalg import kernel_basis
from nlie.rota_baxter import (DerivedContext, RBOperator, Wedge, check_rb_mc,
                              cochain_to_vector, derived_bracket, induced_bracket,
                              matrix_to_cochain, operator_rep,
                              pre_lie_of_operator, rb_coboundary,
                              rb_coboundary_matrix, rb_cohomology_dim,
                              twisted_bracket, twisted_mc_holds,
                              vector_to_matrix_cochain, wedge_coboundary)


def test_zero_operator_is_rb(reps):
    for rep in reps:
        z = Matrix.zero(rep.algebra.dim, rep.dim_v)
        assert check_rb(rep, z)


def test_corpus_verifies(operator_corpus):
    for op in operator_corpus:
        assert check_rb(op.rep, op.matrix)


def test_central_image_family(reps):
    rng = random.Random(31)
    for rep in reps:
        t = central_image_operator(rep, rng)
        assert check_rb(rep, t)


def test_rb_mc_equivalence_random(reps):
    rng = random.Random(32)
    agree = 0
    total = 0
    for rep in reps:
        if rep.algebra.n > 3 or rep.algebra.dim > 4:
            continue
        ctx = DerivedContext(rep)
        for _ in range(4):
            t = random_matrix(rng, rep.algebra.dim, rep.dim_v, span=1)
            total += 1
            if check_rb_mc(ctx, t) == bool(check_rb(rep, t)):
                agree += 1
    assert agree == total and total >= 20


def test_tt_bracket_equals_direct_route(operator_corpus):
    for op in operator_corpus:
        ctx = DerivedContext(op.rep)
        tc = matrix_to_cochain(op.rep, op.matrix)
        generic = derived_bracket(ctx, [tc] * ctx.n)
        assert generic == oracle_derived_bracket_tt_direct(ctx, op.matrix)


def test_derived_bracket_zero_argument(operator_corpus):
    op = operator_corpus[0]
    ctx = DerivedContext(op.rep)
    tc = matrix_to_cochain(op.rep, op.matrix)
    zero = Matrix.zero(op.algebra.dim, op.rep.dim_v)
    zc = matrix_to_cochain(op.rep, zero)
    assert derived_bracket(ctx, [tc] * (ctx.n - 1) + [zc]).is_zero()


def test_derived_bracket_graded_symmetric_degree0():
    """Degree-1 operator cochains have even shifted degree: plain symmetry."""
    rng = random.Random(33)
    rep = one_block_action_pair()
    ctx = DerivedContext(rep)
    cs = [matrix_to_cochain(rep, random_matrix(rng, 3, 2)) for _ in range(3)]
    base = derived_bracket(ctx, cs)
    for perm in itertools.permutations(range(3)):
        assert derived_bracket(ctx, [cs[i] for i in perm]) == base


def test_derived_bracket_koszul_signs_mixed_degrees():
    rng = random.Random(34)
    rep = one_block_action_pair()
    ctx = DerivedContext(rep)
    c0 = matrix_to_cochain(rep, random_matrix(rng, 3, 2))
    c1 = random_blockmap(rng, 3, 1, 2, 3, "V", "g")
    c2 = random_blockmap(rng, 3, 1, 2, 3, "V", "g")
    args = [c0, c1, c2]
    degs = [c.blocks for c in args]
    base = derived_bracket(ctx, args)
    for perm in itertools.permutations(range(3)):
        sign = koszul_sign(perm, degs)
        got = derived_bracket(ctx, [args[i] for i in perm])
        assert got == base.scale(Fraction(sign))


def test_generalized_jacobi_degree0():
    """The (n, n-1)-shuffle identity for the n-ary bracket, degree-0 inputs."""
    rng = random.Random(35)
    rep = one_block_action_pair()
    n = rep.algebra.n
    ctx = DerivedContext(rep)
    xs = [matrix_to_cochain(rep, random_matrix(rng, 3, 2, span=1))
          for _ in range(2 * n - 1)]
    total = None
    for perm, sign in shuffles(n, n - 1):
        inner = derived_bracket(ctx, [xs[perm[i]] for i in range(n)])
        term = derived_bracket(
            ctx, [inner] + [xs[perm[n + i]] for i in range(n - 1)])
        term = term.scale(Fraction(sign))
        total = term if total is None else total.add(term)
    assert total.is_zero()


def test_twisted_bracket_at_full_arity(operator_corpus):
    op = operator_corpus[-1]
    ctx = DerivedContext(op.rep)
    tc = matrix_to_cochain(op.rep, op.matrix)
    full = twisted_bracket(ctx, op, ctx.n, [tc] * ctx.n)
    assert full == derived_bracket(ctx, [tc] * ctx.n)


def test_twisted_bracket_above_arity_vanishes(operator_corpus):
    op = operator_corpus[-1]
    ctx = DerivedContext(op.rep)
    tc = matrix_to_cochain(op.rep, op.matrix)
    assert twisted_bracket(ctx, op, ctx.n + 1, [tc] * (ctx.n + 1)).is_zero()


def test_twisted_mc_equivalence(algebras):
    """Sum stays an operator iff the twisted equation holds, both directions.

    Needs dim V >= n, else every linear map is vacuously an operator."""
    rng = random.Random(36)
    alg = algebras["nilp4"]
    rep = adjoint_rep(alg)
    ctx = DerivedContext(rep)
    t = RBOperator(rep, central_image_operator(rep, rng))
    checked_true = 0
    checked_false = 0
    for _ in range(10):
        if rng.random() < 0.5:
            tp = central_image_operator(rep, rng)  # sum is again an operator
        else:
            tp = random_matrix(rng, 4, 4, span=1)
        is_rb = bool(check_rb(rep, t.matrix + tp))
        assert twisted_mc_holds(ctx, t, tp) == is_rb
        checked_true += is_rb
        checked_false += not is_rb
    assert checked_true and checked_false


def test_induced_structures(operator_corpus):
    for op in operator_corpus:
        ib = induced_bracket(op)
        assert check_filippov(ib)
        pl = pre_lie_of_operator(op)
        assert check_n_pre_lie(pl)
        assert sub_adjacent(pl).structure == ib.structure
        rt = operator_rep(op)
        assert check_representation(rt)
        # morphism property
        for key in itertools.combinations(range(op.rep.dim_v), op.algebra.n):
            lhs = op.matrix.mul_vec(ib.bracket(list(key)))
            rhs = op.algebra.bracket([op.matrix.column(u) for u in key])
            assert lhs == rhs


def test_delta_cocycle(operator_corpus):
    for op in operator_corpus:
        n, dg = op.algebra.n, op.algebra.dim
        for block in blocks_of(dg, n - 1):
            w = Wedge(dg, n - 1, {block: Fraction(1)})
            assert rb_coboundary(op, wedge_coboundary(op, w)).is_zero()


def test_rb_d_squared_zero(operator_corpus):
    rng = random.Random(37)
    for op in operator_corpus:
        dv, dg = op.rep.dim_v, op.algebra.dim
        f = random_blockmap(rng, op.algebra.n, 0, dv, dg, "V", "g")
        assert rb_coboundary(op, rb_coboundary(op, f)).is_zero()


def test_sign_theorem(operator_corpus):
    """The differential equals the unary twisted bracket up to degree sign."""
    rng = random.Random(38)
    for op in operator_corpus[:6]:
        ctx = DerivedContext(op.rep)
        dv, dg = op.rep.dim_v, op.algebra.dim
        for blocks in (0, 1):
            f = random_blockmap(rng, op.algebra.n, blocks, dv, dg, "V", "g")
            m = blocks + 1
            df = rb_coboundary(op, f)
            l1 = twisted_bracket(ctx, op, 1, [f])
            assert df == l1.scale(Fraction((-1) ** (m - 1)))


def test_all_zero_cohomology_dims():
    """n=3, dim g=3, dim V=2, zero structure: the closed-form table."""
    rep = zero_representation(abelian(3, 3), 2)
    t = RBOperator(rep, Matrix.zero(3, 2))
    assert rb_cohomology_dim(t, 0) == comb(3, 2)      # the whole wedge space
    for m in range(1, 4):
        assert rb_cohomology_dim(t, m) == 2 * 3        # 1^{m-1} * dimV * dimg


def test_operator_cohomology_against_kernel_enumeration():
    """T = 0 on a nonabelian pair, cross-checked by direct nullspace count."""
    alg = NLieAlgebra(3, SpaceSpec(4, "g"), {(0, 1, 2): [0, 0, 0, 1]})
    rep = adjoint_rep(alg)
    t = RBOperator(rep, Matrix.zero(4, 4))
    d0 = rb_coboundary_matrix(t, 0)
    d1 = rb_coboundary_matrix(t, 1)
    assert d1.matmul(d0).is_zero()
    h0 = len(kernel_basis(d0))
    assert rb_cohomology_dim(t, 0) == h0
    from nlie.linalg import rank
    h1 = len(kernel_basis(d1)) - rank(d0)
    assert rb_cohomology_dim(t, 1) == h1


def test_euler_characteristic_consistency(operator_corpus):
    """Alternating sums of cohomology and cochain dims agree up to the
    truncation boundary rank."""
    from nlie.linalg import rank
    op = operator_corpus[3]
    max_m = 2
    lhs = 0
    rhs = 0
    for m in range(0, max_m + 1):
        sgn = (-1) ** m
        lhs += sgn * rb_cohomology_dim(op, m)
        rhs += sgn * rb_coboundary_matrix(op, m).cols
    # the tail correction is the rank of the first differential past max_m
    tail = rank(rb_coboundary_matrix(op, max_m))
    assert lhs == rhs - ((-1) ** max_m) * tail


def test_small_module_spaces_collapse_to_zero(algebras):
    """n exceeding dim V + 1 empties the higher cochain spaces; operations
    return zero maps instead of erroring."""
    rng = random.Random(41)
    alg = algebras["nilp4"]          # n = 3
    rep = zero_representation(alg, 1)  # dim V = 1 < n - 1
    t = RBOperator(rep, Matrix.zero(4, 1))
    assert rb_coboundary_matrix(t, 1).cols == 4   # Hom(V, g) survives
    assert rb_coboundary_matrix(t, 2).cols == 0
    f = matrix_to_cochain(rep, random_matrix(rng, 4, 1))
    assert rb_coboundary(t, f).is_zero()
    d1 = rb_coboundary_matrix(t, 1)
    assert (d1.rows, d1.cols) == (0, 4)
    assert len(kernel_basis(d1)) == 4
    assert rb_cohomology_dim(t, 1) == 4
    assert rb_cohomology_dim(t, 2) == 0


def test_cochain_vectorization_roundtrip(operator_corpus):
    rng = random.Random(39)
    op = operator_corpus[3]
    t1 = random_matrix(rng, op.algebra.dim, op.rep.dim_v)
    vec = cochain_to_vector(op, matrix_to_cochain(op.rep, t1), 1)
    assert vector_to_matrix_cochain(op, vec) == t1


@pytest.mark.parametrize("case", ["cohomology", "extend", "equivalence"])
def test_operator_rep_built_once_per_operator(operator_corpus, monkeypatch, case):
    """ρ_T is cached on the operator, so a cohomology table, an extension
    or an equivalence search builds it once, not once per differential."""
    real, calls = rota_baxter.operator_rep, []

    def counting(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(rota_baxter, "operator_rep", counting)
    src = operator_corpus[5]  # the one-block pair: nonzero ρ_T, small spaces
    t = RBOperator(src.rep, src.matrix)  # fresh: corpus entries may hold a cached ρ_T
    zero = Matrix.zero(t.algebra.dim, t.rep.dim_v)
    if case == "cohomology":
        prob = Problem(t.algebra.n, t.algebra, t.rep, operator=t.matrix)
        assert [row["m"] for row in cmd_cohomology(prob, 3, "operator")["table"]] == [0, 1, 2, 3]
    elif case == "extend":
        assert extend(obstruction(DeformationJet(t, [zero]))) is not None
    else:
        assert find_equivalence(t, zero, zero) is not None
    assert len(calls) == 1
