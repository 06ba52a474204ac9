"""Skew tables read off their nonzero entries, against the key walks they
replaced.

`split_wedges` and `wedge_sums` build every table that is totally
antisymmetric in its last block and tail, and `basis_entries` is the one
reader of a table.  The oracles below are the bodies that walked every key
of the domain instead: `materialize` (in conftest) behind `as_blockmap`,
the commutator loop of `sub_adjacent`, the per-key `tail_antisymmetrize`,
`restrict_map` and `bidegree_of`, the (n+1)-subset loop of `raise_arity`
and the fill loop of `obstruction`, with the loops of `check_rb` and of
one jet order over increasing V-tuples.  Each must give the same table,
entry for entry and with Fraction values, on the inputs below.
"""
import itertools
import random
from fractions import Fraction
from typing import Optional

from conftest import (broken_action, broken_algebra, materialize, random_blockmap,
                      random_homogeneous, random_matrix)
from test_obstruction_oracle import OBSTRUCTED_SL2_T1, broken_operator, jets

from nlie import (BlockMap, Matrix, NLieAlgebra, NPreLie, SpaceSpec, adjoint_rep,
                  sub_adjacent, zero_representation)
from nlie.core import CheckReport, Representation, semidirect_product
from nlie.deformation import DeformationJet, ObstructionClass, check_order, obstruction
from nlie.lift import admissible_covectors, is_admissible, raise_arity, raise_arity_rep
from nlie.linalg import basis_vec, vadd, vector, viszero, vscale, vzero
from nlie.multilinear import (_shift, _summand, apply_map, bidegree_of, iter_keys,
                              restrict_map, sum_space, tail_antisymmetrize)
from nlie.rota_baxter import (RBOperator, _coefficient_residual, check_rb,
                              pre_lie_of_operator, rb_coboundary)


# ---------------------------------------------------------------------------
# the key walks
# ---------------------------------------------------------------------------

def oracle_sub_adjacent(p: NPreLie) -> NLieAlgebra:
    structure = {}
    for key in itertools.combinations(range(p.dim), p.n):
        v = p.commutator_bracket(list(key))
        if not viszero(v):
            structure[key] = v
    return NLieAlgebra(p.n, p.space, structure)


def oracle_tail_antisymmetrize(p: BlockMap) -> BlockMap:
    n, b = p.n, p.blocks
    if b == 0:
        return materialize(p)
    d = p.source.dim
    table = {}
    for key in iter_keys(d, n - 1, b):
        front = list(key[:-2])
        seq = key[-2] + (key[-1],)
        total = vzero(p.target.dim)
        for j in range(n):
            rest = seq[:j] + seq[j + 1:]
            val = apply_map(p, front + [list(rest)], seq[j])
            total = vadd(total, vscale(val, Fraction((-1) ** (n - 1 - j))))
        total = vscale(total, Fraction(1, n))
        if not viszero(total):
            table[key] = total
    return BlockMap(n, b, p.source, p.target, table)


def oracle_restrict_map(f: BlockMap, args: str, values: str) -> BlockMap:
    a_off, a_dim = _summand(f.source, args)
    v_off, v_dim = _summand(f.source, values)
    table = {}
    for key in iter_keys(a_dim, f.n - 1, f.blocks):
        v = f.value(_shift(key, a_off))[v_off:v_off + v_dim]
        if not viszero(v):
            table[key] = v
    return BlockMap(f.n, f.blocks, SpaceSpec(a_dim, args), SpaceSpec(v_dim, values), table)


def oracle_bidegree_of(f: BlockMap) -> Optional[tuple[int, int]]:
    split = f.source.split
    if split is None:
        raise ValueError("bidegree needs a direct-sum source space")
    candidate: Optional[tuple[int, int]] = None
    for key in iter_keys(f.source.dim, f.n - 1, f.blocks):
        v = f.value(key)
        if viszero(v):
            continue
        slots = [i for blk in key[:-1] for i in blk] + [key[-1]]
        ng = sum(1 for i in slots if i < split)
        nv = len(slots) - ng
        cands = []
        if not viszero(v[:split]):
            cands.append((ng - 1, nv))
        if not viszero(v[split:]):
            cands.append((ng, nv - 1))
        for c in cands:
            if candidate is None:
                candidate = c
            elif candidate != c:
                return None
    return candidate


def oracle_raise_arity(alg: NLieAlgebra, f) -> NLieAlgebra:
    fv = vector(f)
    if not is_admissible(alg, fv):
        raise ValueError("covector does not annihilate the bracket")
    n, d = alg.n, alg.dim
    structure = {}
    for key in itertools.combinations(range(d), n + 1):
        val = vzero(d)
        for i in range(n + 1):
            c = fv[key[i]]
            if c == 0:
                continue
            rest = key[:i] + key[i + 1:]
            val = vadd(val, vscale(alg.bracket(list(rest)),
                                   c * Fraction((-1) ** i)))
        if not viszero(val):
            structure[key] = val
    return NLieAlgebra(n + 1, alg.space, structure)


def oracle_obstruction(jet: DeformationJet) -> ObstructionClass:
    base = jet.base
    n, dg, dv = base.algebra.n, base.algebra.dim, base.rep.dim_v
    ops = jet.operators()
    m = jet.order
    table = {}
    for vs in itertools.combinations(range(dv), n):
        val = _coefficient_residual(ops, base, m + 1, vs)
        if viszero(val):
            continue
        neg = vscale(val, Fraction(-1))
        for k in range(n):
            table[(vs[:k] + vs[k + 1:], vs[k])] = neg if (n - 1 - k) % 2 else val
    theta = BlockMap(n, 1, SpaceSpec(dv, "V"), SpaceSpec(dg, "g"), table)
    checked = rb_coboundary(base, theta).is_zero()
    return ObstructionClass(jet, theta, checked)


def oracle_check_rb(rep: Representation, t: Matrix) -> CheckReport:
    op = RBOperator(rep, t)
    for vs in itertools.combinations(range(rep.dim_v), rep.n):
        if not viszero(_coefficient_residual([t], op, 0, vs)):
            b = semidirect_product(rep).bracket([op.graph(v) for v in vs])
            dg = rep.algebra.dim
            return CheckReport(False, witness=vs, lhs=b[:dg], rhs=t.mul_vec(b[dg:]),
                               detail="operator identity fails")
    return CheckReport(True)


def oracle_check_order(jet: DeformationJet) -> CheckReport:
    ops, base = jet.operators(), jet.base
    n, dv = base.algebra.n, base.rep.dim_v
    for s in range(jet.order + 1):
        for vs in itertools.combinations(range(dv), n):
            res = _coefficient_residual(ops, base, s, vs)
            if not viszero(res):
                return CheckReport(False, witness=(s, vs), lhs=res,
                                   detail=f"order-{s} coefficient equation fails")
    return CheckReport(True)


# ---------------------------------------------------------------------------
# inputs and exact comparison
# ---------------------------------------------------------------------------

def assert_same_table(got: dict, want: dict) -> None:
    """Equal tables, every value a tuple of Fractions."""
    assert got == want
    assert all(type(x) is Fraction for v in got.values() for x in v), got


def assert_same_map(got: BlockMap, want: BlockMap) -> None:
    assert got == want
    assert_same_table(got.table, want.table)


def assert_same_algebra(got: NLieAlgebra, want: NLieAlgebra) -> None:
    assert (got.n, got.dim) == (want.n, want.dim)
    assert_same_table(got.structure, want.structure)


def pairs(reps, rng: random.Random) -> list[Representation]:
    """The catalog pairs, a broken copy of each, and zero modules of
    dimension 0."""
    out = []
    for rep in reps:
        out.append(rep)
        if rep.dim_v:
            out.append(broken_action(rng, rep))
        if rep.algebra.dim >= rep.algebra.n:
            out.append(broken_algebra(rng, rep))
    out += [zero_representation(rep.algebra, 0) for rep in reps[:3]]
    return out


def with_junk(rng: random.Random, f: BlockMap) -> BlockMap:
    """f plus entries at keys no evaluator reads: a tail out of range, a
    wrong block count and, where f has blocks, a wrong-size, a repeated and
    an unsorted block."""
    n, b, d = f.n, f.blocks, f.source.dim
    one = tuple(Fraction(rng.randint(1, 3)) for _ in range(f.target.dim))
    block = tuple(range(n - 1))
    junk = {(*[block] * b, d): one, (*[block] * (b + 1), 0): one}
    if b:
        junk[(*[tuple(range(n))] * b, 0)] = one
    if b and n > 2:
        junk[(*[(0,) * (n - 1)] * b, 1)] = one
        junk[(*[block[::-1]] * b, n - 1)] = one
    return BlockMap(n, b, f.source, f.target, {**junk, **f.table})


def random_maps(rng: random.Random) -> list[BlockMap]:
    """Random maps with and without junk keys, zero maps, b = 0 up to 2."""
    out = []
    for n in (2, 3, 4):
        for b in (0, 1, 2):
            d = n + 1 if b < 2 else n
            for density in (0.3, 1.0):
                f = random_blockmap(rng, n, b, d, 2, density=density)
                out += [f, with_junk(rng, f)]
            out.append(BlockMap(n, b, SpaceSpec(d, "g"), SpaceSpec(2, "V")))
    return out


def covectors(alg: NLieAlgebra) -> list:
    """Every admissible basis covector and the kernel basis of the bracket."""
    basis = [basis_vec(alg.dim, j) for j in range(alg.dim)]
    return [f for f in basis if is_admissible(alg, f)] + admissible_covectors(alg)


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

def test_as_blockmap_matches_the_key_walk(reps):
    rng = random.Random(181)
    count = 0
    for rep in pairs(reps, rng):
        for alg in (rep.algebra, semidirect_product(rep)):
            assert_same_map(alg.as_blockmap(), materialize(alg))
            count += not alg.is_abelian()
    assert count >= 30


def test_sub_adjacent_matches_the_commutator_loop(operator_corpus, reps):
    rng = random.Random(182)
    products = [pre_lie_of_operator(t).product for t in operator_corpus]
    products += [random_blockmap(rng, n, 1, d, d, "g", "g", density=density)
                 for n, d in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 5))
                 for density in (0.5, 1.0)]
    products += [with_junk(rng, p) for p in list(products)]
    products.append(BlockMap(3, 1, SpaceSpec(4, "g"), SpaceSpec(4, "g")))
    nonzero = 0
    for product in products:
        p = NPreLie(product.n, product.source, product)
        got = sub_adjacent(p)
        assert_same_algebra(got, oracle_sub_adjacent(p))
        nonzero += not got.is_abelian()
    assert nonzero >= 10


def test_tail_antisymmetrize_matches_the_key_walk():
    rng = random.Random(183)
    nonzero = 0
    for f in random_maps(rng):
        got = tail_antisymmetrize(f)
        assert_same_map(got, oracle_tail_antisymmetrize(f))
        nonzero += not got.is_zero()
    assert nonzero >= 20


def test_restrict_and_bidegree_match_the_key_walk(reps):
    rng = random.Random(184)
    maps = []
    for rep in pairs(reps, rng):
        maps.append(semidirect_product(rep).as_blockmap())
    for dg, dv in ((2, 2), (3, 1), (3, 0), (2, 3)):
        for n, blocks in ((2, 0), (2, 1), (3, 1), (2, 2)):
            for k in range(-1, blocks * (n - 1) + 1):
                maps.append(random_homogeneous(rng, n, blocks, dg, dv, k,
                                               blocks * (n - 1) - k))
            space = sum_space(dg, dv)
            f = random_blockmap(rng, n, blocks, dg + dv, dg + dv, density=0.4)
            mixed = BlockMap(n, blocks, space, space, f.table)
            maps += [mixed, with_junk(rng, mixed), BlockMap(n, blocks, space, space)]
    homogeneous = 0
    for f in maps:
        for args, values in itertools.product("gV", repeat=2):
            assert_same_map(restrict_map(f, args, values),
                            oracle_restrict_map(f, args, values))
        got = bidegree_of(f)
        assert got == oracle_bidegree_of(f)
        homogeneous += got is not None
    assert homogeneous >= 40


def test_raise_arity_matches_the_subset_loop(reps, algebras):
    rng = random.Random(185)
    algs = list(algebras.values())
    for rep in pairs(reps, rng):
        algs += [rep.algebra, semidirect_product(rep)]
    raised = 0
    for alg in algs:
        for f in covectors(alg):
            got = raise_arity(alg, f)
            assert_same_algebra(got, oracle_raise_arity(alg, f))
            raised += not got.is_abelian()
    for rep in reps:
        for f in covectors(rep.algebra):
            got = raise_arity_rep(rep, f)
            sd = semidirect_product(rep)
            want = oracle_raise_arity(sd, tuple(f) + vzero(rep.dim_v))
            assert_same_algebra(semidirect_product(got), want)
    assert raised >= 20


def test_obstruction_and_checks_match_the_tuple_loops(operator_corpus, algebras):
    rng = random.Random(186)
    bases = list(operator_corpus)
    bases += [broken_operator(rng, t) for t in operator_corpus]
    bases += [RBOperator(broken_action(rng, t.rep), t.matrix)
              for t in operator_corpus if t.rep.dim_v]
    rep0 = zero_representation(algebras["sl2"], 0)
    bases.append(RBOperator(rep0, Matrix.zero(3, 0)))
    corpus = [jet for t in bases for jet in jets(t, rng)]
    sl2 = RBOperator(adjoint_rep(algebras["sl2"]), Matrix.zero(3, 3))
    corpus.append(DeformationJet(sl2, [OBSTRUCTED_SL2_T1]))
    failing = nonzero = 0
    for t in bases + [RBOperator(t.rep, random_matrix(rng, t.algebra.dim, t.rep.dim_v))
                      for t in bases]:
        got = check_rb(t.rep, t.matrix)
        assert got == oracle_check_rb(t.rep, t.matrix)
        failing += not got
    for jet in corpus:
        assert check_order(jet) == oracle_check_order(jet)
        got, want = obstruction(jet), oracle_obstruction(jet)
        assert_same_map(got.theta, want.theta)
        assert got.cocycle_checked == want.cocycle_checked
        nonzero += not got.theta.is_zero()
    assert failing >= 10
    assert nonzero >= 80
