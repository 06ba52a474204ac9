"""Acceptance criteria, one test per criterion, exact (zero-tolerance) checks.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.  Randomness is seeded; every structure drawn is re-verified by
the engine's own checkers before being used as a "validated" instance.
"""
import itertools
import json
import random
from fractions import Fraction

from conftest import (arity_raising_configs, central_image_operator,
                      one_block_action_pair, rand_frac, random_blockmap,
                      random_homogeneous, random_matrix,
                      random_wedge_tail_cochain)
from oracles import oracle_derived_bracket_tt_direct

from nlie import (Matrix, NLieAlgebra, Representation, abelian, adjoint_rep,
                  coadjoint_rep, check_filippov, check_n_pre_lie,
                  check_representation, check_rb, sub_adjacent,
                  zero_representation)
from nlie.cochain import check_mc_pair, coboundary, graded_bracket
from nlie.combinat import blocks_of
from nlie.deformation import (DeformationJet, check_order, extend,
                              find_equivalence, obstruction,
                              obstruction_via_derived)
from nlie.lift import (find_center, is_admissible, is_central, lift_operator,
                       operator_chain_map_holds, pair_chain_map_holds, raise_arity,
                       raise_arity_rep)
from nlie.linalg import kernel_basis, solve_linear
from nlie.multilinear import bidegree_of
from nlie.rota_baxter import (DerivedContext, RBOperator, Wedge, check_rb_mc,
                              cochain_to_vector, derived_bracket, induced_bracket,
                              matrix_to_cochain, operator_rep,
                              pre_lie_of_operator, rb_coboundary,
                              rb_coboundary_matrix, rb_cohomology_dim,
                              twisted_bracket, twisted_mc_holds,
                              vector_to_matrix_cochain, wedge_coboundary)


def criterion(num, text):
    def deco(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d}: FAIL - {text}")
                raise
            print(f"criterion {num:2d}: PASS - {text}")
        return wrapper
    return deco


def small_pair_family(rng, count, max_total_dim=6):
    """Validated pairs: catalog bases plus validity-preserving transforms
    (module conjugation by an invertible diagonal, joint scaling)."""
    from conftest import make_algebra_catalog
    cat = make_algebra_catalog()
    bases = []
    for name in ("solv2", "heis3", "sl2"):
        alg = cat[name]
        bases.append((alg, adjoint_rep(alg)))
        bases.append((alg, coadjoint_rep(alg)))
        bases.append((alg, zero_representation(alg, 2)))
    bases.append((cat["nilp4"], zero_representation(cat["nilp4"], 1)))
    bases.append((abelian(3, 3), one_block_action_pair()))
    out = []
    while len(out) < count:
        alg, rep = bases[rng.randrange(len(bases))]
        if alg.dim + rep.dim_v > max_total_dim:
            continue
        c = Fraction(rng.choice([1, 1, 2, -1, 3]))
        diag = [Fraction(rng.choice([1, 2, -1])) for _ in range(rep.dim_v)]
        d_mat = Matrix([[diag[i] if i == j else 0 for j in range(rep.dim_v)]
                        for i in range(rep.dim_v)])
        d_inv = Matrix([[1 / diag[i] if i == j else 0 for j in range(rep.dim_v)]
                        for i in range(rep.dim_v)])
        structure = {k: tuple(c * x for x in v) for k, v in alg.structure.items()}
        new_alg = NLieAlgebra(alg.n, alg.space, structure)
        action = {k: d_inv.matmul(m).matmul(d_mat).scale(c)
                  for k, m in rep.action.items()}
        new_rep = Representation(new_alg, rep.module, action)
        assert check_filippov(new_alg) and check_representation(new_rep)
        out.append((new_alg, new_rep))
    return out


@criterion(1, "d∘d = 0 on >= 50 randomized validated pairs")
def test_criterion_1():
    rng = random.Random(101)
    pairs = small_pair_family(rng, 50, max_total_dim=8)
    for i, (alg, rep) in enumerate(pairs):
        f = random_blockmap(rng, alg.n, 0, alg.dim, rep.dim_v)
        assert coboundary(rep, coboundary(rep, f)).is_zero()
        if i < 10:
            g = random_blockmap(rng, alg.n, 1, alg.dim, rep.dim_v)
            assert coboundary(rep, coboundary(rep, g)).is_zero()


@criterion(2, "graded antisymmetry and Jacobi on >= 100 homogeneous triples")
def test_criterion_2():
    rng = random.Random(102)
    count = 0
    while count < 100:
        n, d = rng.choice([(2, 2), (2, 3), (3, 3)])
        degs = [rng.choice([0, 0, 0, 1, 1, 2]) for _ in range(3)]
        if sum(degs) > 4:
            continue
        dens = 0.5 if max(degs) == 2 else 1.0
        P, Q, R = (random_blockmap(rng, n, b, d, d, "g", "g", density=dens)
                   for b in degs)
        # antisymmetry
        lhs = graded_bracket(P, Q)
        rhs = graded_bracket(Q, P).scale(
            Fraction(-((-1) ** (P.blocks * Q.blocks))))
        assert lhs == rhs
        # graded Jacobi, cyclic form
        p, q, r = degs
        t1 = graded_bracket(P, graded_bracket(Q, R)).scale(
            Fraction((-1) ** (p * r)))
        t2 = graded_bracket(Q, graded_bracket(R, P)).scale(
            Fraction((-1) ** (q * p)))
        t3 = graded_bracket(R, graded_bracket(P, Q)).scale(
            Fraction((-1) ** (r * q)))
        assert t1.add(t2).add(t3).is_zero()
        count += 1


@criterion(3, "MC element <=> valid pair on >= 100 instances, >= 20 broken")
def test_criterion_3():
    rng = random.Random(103)
    pairs = small_pair_family(rng, 80, max_total_dim=6)
    broken = 0
    checked = 0
    for i, (alg, rep) in enumerate(pairs):
        make_broken = i % 4 == 0 and broken < 40
        if make_broken:
            structure = dict(alg.structure)
            keys = list(itertools.combinations(range(alg.dim), alg.n))
            key = keys[rng.randrange(len(keys))]
            bump = list(structure.get(key, (Fraction(0),) * alg.dim))
            bump[rng.randrange(alg.dim)] += Fraction(rng.choice([1, 2]))
            structure[key] = tuple(bump)
            alg2 = NLieAlgebra(alg.n, alg.space, structure)
            rep2 = Representation(alg2, rep.module, rep.action)
            alg, rep = alg2, rep2
        direct = bool(check_filippov(alg)) and bool(check_representation(rep))
        assert check_mc_pair(alg, rep) == direct
        checked += 1
        if not direct:
            broken += 1
    # top up deliberate non-examples with broken actions if needed
    while broken < 20 or checked < 100:
        base_alg, base_rep = small_pair_family(rng, 1, max_total_dim=6)[0]
        action = dict(base_rep.action)
        blocks = list(itertools.combinations(range(base_alg.dim), base_alg.n - 1))
        blk = blocks[rng.randrange(len(blocks))]
        action[blk] = random_matrix(rng, base_rep.dim_v, base_rep.dim_v)
        rep2 = Representation(base_alg, base_rep.module, action)
        direct = bool(check_filippov(base_alg)) and bool(check_representation(rep2))
        assert check_mc_pair(base_alg, rep2) == direct
        checked += 1
        if not direct:
            broken += 1
    assert checked >= 100 and broken >= 20


@criterion(4, "bidegree additivity of the bracket on >= 50 homogeneous pairs")
def test_criterion_4():
    rng = random.Random(104)
    done = 0
    while done < 50:
        n, dg, dv = rng.choice([(2, 2, 2), (2, 2, 1), (3, 2, 2)])
        blocks = rng.choice([1, 1, 2]) if n == 2 else 1
        span = blocks * (n - 1)
        k1 = rng.randint(-1, span)
        k2 = rng.randint(-1, span)
        f = random_homogeneous(rng, n, blocks, dg, dv, k1, span - k1)
        g = random_homogeneous(rng, n, blocks, dg, dv, k2, span - k2)
        if bidegree_of(f) is None or bidegree_of(g) is None:
            continue
        (kf, lf), (kg, lg) = bidegree_of(f), bidegree_of(g)
        br = graded_bracket(f, g)
        assert br.is_zero() or bidegree_of(br) == (kf + kg, lf + lg)
        done += 1


@criterion(5, "operator MC <=> defining identity on >= 100 T, n! route exact")
def test_criterion_5(algebras):
    rng = random.Random(105)
    reps_pool = [adjoint_rep(algebras["sl2"]),
                 adjoint_rep(algebras["heis3"]),
                 coadjoint_rep(algebras["solv2"]),
                 one_block_action_pair(),
                 adjoint_rep(algebras["nilp4"])]
    checked = 0
    agree = 0
    for i in range(100):
        rep = reps_pool[i % len(reps_pool)]
        ctx = DerivedContext(rep)
        if i % 3 == 0:
            t = central_image_operator(rep, rng)
        else:
            t = random_matrix(rng, rep.algebra.dim, rep.dim_v, span=1)
        direct = bool(check_rb(rep, t))
        mc = check_rb_mc(ctx, t)
        # the n!-scaled closed form must match the generic bracket exactly
        tc = matrix_to_cochain(rep, t)
        assert derived_bracket(ctx, [tc] * ctx.n) == oracle_derived_bracket_tt_direct(ctx, t)
        if mc == direct:
            agree += 1
        checked += 1
    assert checked >= 100 and agree == checked


@criterion(6, "twisted MC equation <=> sum is an operator, >= 30 pairs")
def test_criterion_6(algebras):
    rng = random.Random(106)
    rep_a = adjoint_rep(algebras["nilp4"])
    rep_b = one_block_action_pair()
    holds_count = 0
    fails_count = 0
    trials = 0
    while trials < 30:
        if trials % 2 == 0:
            rep = rep_a
            t = RBOperator(rep, central_image_operator(rep, rng))
            tp = central_image_operator(rep, rng) if rng.random() < 0.5 \
                else random_matrix(rng, 4, 4, span=1)
        else:
            rep = rep_b
            t = RBOperator(rep, Matrix([[0, 0], [0, 0],
                                        [rand_frac(rng), rand_frac(rng)]]))
            tp = central_image_operator(rep, rng)
        ctx = DerivedContext(rep)
        is_rb = bool(check_rb(rep, t.matrix + tp))
        assert twisted_mc_holds(ctx, t, tp) == is_rb
        holds_count += is_rb
        fails_count += not is_rb
        trials += 1
    assert trials >= 30 and holds_count > 0 and fails_count > 0


@criterion(7, "induced structures of every corpus operator verify")
def test_criterion_7(operator_corpus):
    rng = random.Random(107)
    for op in operator_corpus:
        ib = induced_bracket(op)
        assert check_filippov(ib)
        pl = pre_lie_of_operator(op)
        assert check_n_pre_lie(pl)
        assert sub_adjacent(pl).structure == ib.structure
        for key in itertools.combinations(range(op.rep.dim_v), op.algebra.n):
            assert op.matrix.mul_vec(ib.bracket(list(key))) == \
                op.algebra.bracket([op.matrix.column(u) for u in key])
        assert check_representation(operator_rep(op))
        for block in blocks_of(op.algebra.dim, op.algebra.n - 1):
            w = Wedge(op.algebra.dim, op.algebra.n - 1, {block: Fraction(1)})
            assert rb_coboundary(op, wedge_coboundary(op, w)).is_zero()
        f = random_blockmap(rng, op.algebra.n, 0, op.rep.dim_v,
                            op.algebra.dim, "V", "g")
        assert rb_coboundary(op, rb_coboundary(op, f)).is_zero()


@criterion(8, "differential equals signed unary twisted bracket, >= 30 cochains")
def test_criterion_8(algebras, operator_corpus):
    rng = random.Random(108)
    heis = algebras["heis3"]
    rep_h = adjoint_rep(heis)
    ops = [op for op in operator_corpus if op.rep.dim_v <= 4]
    ops.append(RBOperator(rep_h, central_image_operator(rep_h, rng)))
    checked = 0
    degree_seen = set()
    for i in range(40):
        op = ops[i % len(ops)]
        n, dv, dg = op.algebra.n, op.rep.dim_v, op.algebra.dim
        blocks = i % 3  # cochain degree 1..3
        if blocks == 2 and dv > 3:
            blocks = 0
        ctx = DerivedContext(op.rep)
        f = random_blockmap(rng, n, blocks, dv, dg, "V", "g")
        m = blocks + 1
        df = rb_coboundary(op, f)
        l1 = twisted_bracket(ctx, op, 1, [f])
        assert df == l1.scale(Fraction((-1) ** (m - 1)))
        degree_seen.add(m)
        checked += 1
    assert checked >= 30 and degree_seen == {1, 2, 3}


@criterion(9, "obstruction cocycle, extension verdicts, gauge recovery")
def test_criterion_9(algebras, operator_corpus):
    rng = random.Random(109)
    interesting = [operator_corpus[3], operator_corpus[4], operator_corpus[5]]
    tested_jets = 0
    for op in interesting:
        kb = kernel_basis(rb_coboundary_matrix(op, 1))
        for _ in range(3):
            coeffs = [rand_frac(rng) for _ in kb]
            vec = tuple(sum((c * v[i] for c, v in zip(coeffs, kb)), Fraction(0))
                        for i in range(len(kb[0])))
            t1 = vector_to_matrix_cochain(op, vec)
            jet = DeformationJet(op, [t1])
            if not check_order(jet):
                continue
            ob = obstruction(jet)
            assert ob.cocycle_checked                       # d(theta) = 0
            assert ob.theta == obstruction_via_derived(jet)  # bracket route
            d1 = rb_coboundary_matrix(op, 1)
            rhs = tuple(-x for x in cochain_to_vector(op, ob.theta, 2))
            orc = solve_linear(d1, rhs)
            nxt = extend(ob)
            assert (nxt is None) == (orc is None)
            if nxt is not None:
                assert check_order(jet.extended(nxt))
            tested_jets += 1
    # frozen obstructed instance: None verdict agrees with the oracle
    rep = adjoint_rep(algebras["sl2"])
    op0 = RBOperator(rep, Matrix.zero(3, 3))
    jet = DeformationJet(op0, [Matrix([[2, -1, -1], [2, -1, 2], [-2, -2, 0]])])
    assert check_order(jet)
    ob = obstruction(jet)
    assert ob.cocycle_checked
    d1 = rb_coboundary_matrix(op0, 1)
    rhs = tuple(-x for x in cochain_to_vector(op0, ob.theta, 2))
    assert solve_linear(d1, rhs) is None and extend(ob) is None
    tested_jets += 1
    # planted gauge is always recovered
    recovered = 0
    for op in interesting:
        kb = kernel_basis(rb_coboundary_matrix(op, 1))
        if not kb:
            continue
        t1 = vector_to_matrix_cochain(op, kb[0])
        if not check_order(DeformationJet(op, [t1])):
            continue
        n, dg = op.algebra.n, op.algebra.dim
        w = Wedge(dg, n - 1, {b: rand_frac(rng) for b in blocks_of(dg, n - 1)})
        dw = wedge_coboundary(op, w)
        t1p = t1 + Matrix.from_columns([dw.value((u,)) for u in range(op.rep.dim_v)])
        gauge = find_equivalence(op, t1, t1p)
        assert gauge is not None and wedge_coboundary(op, gauge) == dw
        recovered += 1
    assert tested_jets >= 5 and recovered >= 2


@criterion(10, "arity raising: structures, operator, both chain maps, >= 20 configs")
def test_criterion_10(algebras):
    rng = random.Random(110)
    configs = arity_raising_configs(algebras, rng)
    assert len(configs) >= 20
    tested = 0
    degree0_tested = 0
    for alg, rep, f, tmat in configs[:24]:
        assert is_admissible(alg, f)
        raised = raise_arity(alg, f)
        assert check_filippov(raised)
        raised_rep = raise_arity_rep(rep, f)
        assert check_representation(raised_rep)
        assert check_rb(rep, tmat)
        t = RBOperator(rep, tmat)
        lifted = lift_operator(t, f)
        assert check_rb(lifted.rep, lifted.matrix)
        # pair cochain chain map, degrees 1..3
        for blocks in (0, 1, 2):
            p = random_wedge_tail_cochain(rng, alg.n, blocks, alg.dim, rep.dim_v)
            assert pair_chain_map_holds(rep, raised_rep, f, p)
        # operator cochain chain map, degrees 1..3
        for blocks in (0, 1, 2):
            c = random_wedge_tail_cochain(rng, alg.n, blocks, rep.dim_v, alg.dim)
            x0_zero = tuple(Fraction(0) for _ in range(alg.dim + rep.dim_v))
            assert operator_chain_map_holds(t, lifted, f, x0_zero, c)
        # degree 0 needs a central element normalized against the covector
        n = alg.n
        target = Fraction((-1) ** (n - 1))
        xi = None
        for z in find_center(rep):
            fz = sum((a * b for a, b in zip(f, z[:alg.dim])), Fraction(0))
            if fz != 0:
                xi = tuple(x * target / fz for x in z)
                break
        w = Wedge(alg.dim, n - 1,
                  {b: rand_frac(rng) for b in blocks_of(alg.dim, n - 1)})
        if xi is not None:
            assert is_central(rep, xi)
            assert operator_chain_map_holds(t, lifted, f, xi, w)
            degree0_tested += 1
        elif rb_coboundary(t, w).is_zero():
            x0_zero = tuple(Fraction(0) for _ in range(alg.dim + rep.dim_v))
            assert operator_chain_map_holds(t, lifted, f, x0_zero, w)
            degree0_tested += 1
        tested += 1
    assert tested >= 20 and degree0_tested >= 3


@criterion(11, "closed-form cohomology table for the trivial instance")
def test_criterion_11():
    rep = zero_representation(abelian(3, 3), 2)
    t = RBOperator(rep, Matrix.zero(3, 2))
    assert rb_cohomology_dim(t, 0) == 3
    for m in (1, 2, 3):
        assert rb_cohomology_dim(t, m) == 6


@criterion(12, "machine-readable reports byte-identical across reruns")
def test_criterion_12(tmp_path, capsys):
    from nlie.cli import main
    payload = {
        "schema_version": "1", "n": 3,
        "g": {"dim": 3, "bracket": []},
        "V": {"dim": 2},
        "rho": [{"block": [1, 2], "matrix": [["0", "1"], ["0", "0"]]}],
        "T": [["0", "0"], ["0", "0"], ["1", "2"]],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    outputs = []
    for _ in range(2):
        for cmd in (["verify", str(path), "--json"],
                    ["cohomology", str(path), "--max-m", "2",
                     "--target", "operator", "--json"]):
            assert main(cmd) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]
