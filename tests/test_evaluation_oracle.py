"""Brackets and actions evaluate through apply_map; the recursive
expansions they used to carry, and the table-building lift of an action,
stay here as oracles.  Every comparison is exact."""
import itertools
import random
from fractions import Fraction

import pytest

from nlie import Matrix, NLieAlgebra, Representation, SpaceSpec
from nlie.combinat import blocks_of, sort_with_sign
from nlie.core import semidirect_blockmap
from nlie.linalg import basis_vec, vadd, viszero, vscale, vzero
from nlie.multilinear import BlockMap, lift_map, sum_space

# ---------------------------------------------------------------------------
# reference implementations: vector arguments expand recursively
# ---------------------------------------------------------------------------


def reference_bracket(alg, args):
    if len(args) != alg.n:
        raise ValueError("bracket arity mismatch")
    for i, a in enumerate(args):
        if not isinstance(a, int):
            total = vzero(alg.dim)
            for idx, c in enumerate(a):
                if c != 0:
                    sub = list(args)
                    sub[i] = idx
                    total = vadd(total, vscale(reference_bracket(alg, sub), c))
            return total
    s, key = sort_with_sign(tuple(args))
    if s == 0:
        return vzero(alg.dim)
    v = alg.structure.get(key)
    if v is None:
        return vzero(alg.dim)
    return vscale(v, Fraction(s))


def reference_operator(rep, gargs):
    if len(gargs) != rep.algebra.n - 1:
        raise ValueError("action arity mismatch")
    for i, a in enumerate(gargs):
        if not isinstance(a, int):
            total = Matrix.zero(rep.dim_v, rep.dim_v)
            for idx, c in enumerate(a):
                if c != 0:
                    sub = list(gargs)
                    sub[i] = idx
                    total = total + reference_operator(rep, sub).scale(c)
            return total
    s, key = sort_with_sign(tuple(gargs))
    if s == 0:
        return Matrix.zero(rep.dim_v, rep.dim_v)
    mat = rep.action.get(key)
    if mat is None:
        return Matrix.zero(rep.dim_v, rep.dim_v)
    return mat if s == 1 else mat.scale(Fraction(-1))


def reference_act(rep, gargs, v):
    vv = basis_vec(rep.dim_v, v) if isinstance(v, int) else v
    return reference_operator(rep, gargs).mul_vec(vv)


def reference_blockmap(alg):
    table = {}
    for block in blocks_of(alg.dim, alg.n - 1):
        for tail in range(alg.dim):
            v = reference_bracket(alg, [*block, tail])
            if not viszero(v):
                table[(block, tail)] = v
    return BlockMap(alg.n, 1, alg.space, alg.space, table)


def reference_lift_action(n, dim_g, dim_v, action):
    """The V-part of the semidirect bracket, built key by key."""
    space = sum_space(dim_g, dim_v)
    total = dim_g + dim_v

    def op(gargs):
        s, sb = sort_with_sign(tuple(gargs))
        if s == 0:
            return None
        mat = action.get(sb)
        if mat is None:
            return None
        return mat if s == 1 else mat.scale(Fraction(-1))

    table = {}
    for block in itertools.combinations(range(total), n - 1):
        for tail in range(total):
            slots = block + (tail,)
            vpos = [i for i, idx in enumerate(slots) if idx >= dim_g]
            if len(vpos) != 1:
                continue
            i0 = vpos[0]
            mat = op([idx for j, idx in enumerate(slots) if j != i0])
            if mat is None:
                continue
            w = vscale(mat.column(slots[i0] - dim_g), Fraction((-1) ** (n - 1 - i0)))
            if not viszero(w):
                table[(block, tail)] = vzero(dim_g) + w
    return BlockMap(n, 1, space, space, table)


# ---------------------------------------------------------------------------
# random arguments and broken structures
# ---------------------------------------------------------------------------

ENTRIES = [Fraction(0)] * 4 + [Fraction(x) for x in (1, -1, 2, "1/2", "-3/2", "2/3")]


def random_element(rng, dim):
    """An index, a zero vector or a sparse rational vector."""
    kind = rng.random()
    if kind < 0.5:
        return rng.randrange(dim)
    if kind < 0.6:
        return vzero(dim)
    return tuple(rng.choice(ENTRIES) for _ in range(dim))


def random_args(rng, k, dim):
    """k mixed arguments; indices repeat and come unsorted by chance."""
    return [random_element(rng, dim) for _ in range(k)]


def random_matrix(rng, rows, cols):
    return Matrix([[rng.choice(ENTRIES) for _ in range(cols)] for _ in range(rows)])


def broken_pairs():
    """Pairs that fail the structure checks: random constants and actions."""
    rng = random.Random(41)
    out = []
    for n, dg, dv in ((2, 3, 2), (3, 4, 3), (3, 3, 1)):
        structure = {key: [rng.choice(ENTRIES) for _ in range(dg)]
                     for key in itertools.combinations(range(dg), n)}
        alg = NLieAlgebra(n, SpaceSpec(dg, "g"), structure)
        action = {block: random_matrix(rng, dv, dv) for block in blocks_of(dg, n - 1)}
        out.append(Representation(alg, SpaceSpec(dv, "V"), action))
    return out


BROKEN = broken_pairs()


def all_pairs(reps, operator_corpus):
    """Catalog pairs, the operator corpus's pairs (nilp4-L among them) and
    the broken pairs."""
    return list(reps) + [t.rep for t in operator_corpus] + BROKEN


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

def test_broken_pairs_are_broken():
    from nlie import check_filippov, check_representation
    for rep in BROKEN:
        assert not check_filippov(rep.algebra) or not check_representation(rep)


def test_bracket_matches_recursive_expansion(algebras):
    rng = random.Random(7)
    algs = list(algebras.values()) + [rep.algebra for rep in BROKEN]
    for alg in algs:
        for args in itertools.product(range(alg.dim), repeat=alg.n):
            assert alg.bracket(list(args)) == reference_bracket(alg, list(args))
        for _ in range(60):
            args = random_args(rng, alg.n, alg.dim)
            assert alg.bracket(args) == reference_bracket(alg, args)
            assert alg.bracket(tuple(args)) == reference_bracket(alg, args)


def test_as_blockmap_matches_reference(algebras):
    for alg in list(algebras.values()) + [rep.algebra for rep in BROKEN]:
        assert alg.as_blockmap() == reference_blockmap(alg)


def test_act_and_operator_match_recursive_expansion(reps, operator_corpus):
    rng = random.Random(11)
    for rep in all_pairs(reps, operator_corpus):
        n, dg, dv = rep.algebra.n, rep.algebra.dim, rep.dim_v
        for gargs in itertools.product(range(dg), repeat=n - 1):
            assert rep.operator(list(gargs)) == reference_operator(rep, list(gargs))
            for u in range(dv):
                assert rep.act(list(gargs), u) == reference_act(rep, list(gargs), u)
        for _ in range(40):
            gargs = random_args(rng, n - 1, dg)
            assert rep.operator(gargs) == reference_operator(rep, gargs)
            v = random_element(rng, dv) if dv else vzero(0)
            assert rep.act(gargs, v) == reference_act(rep, gargs, v)


def test_semidirect_blockmap_matches_the_two_lifts(reps, operator_corpus):
    for rep in all_pairs(reps, operator_corpus):
        alg = rep.algebra
        expect = lift_map(reference_blockmap(alg), sum_space(alg.dim, rep.dim_v),
                          "g", "g").add(
            reference_lift_action(alg.n, alg.dim, rep.dim_v, rep.action))
        got = semidirect_blockmap(rep)
        assert got == expect
        assert got.source == expect.source


def test_arity_mismatch_raises(reps):
    rep = next(r for r in reps if r.action)
    alg = rep.algebra
    with pytest.raises(ValueError):
        alg.bracket([0] * (alg.n - 1))
    with pytest.raises(ValueError):
        rep.act([0] * alg.n, 0)
