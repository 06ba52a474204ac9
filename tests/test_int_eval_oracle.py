"""Brackets, actions and jet residuals evaluated on ints, against their
oracles.

`nonzero`, `accumulate` and `Matrix.mul_vec` sum integral coefficients as
plain ints, and `from_coords` hands back Fractions.  `apply_map` is
`apply_coords` plus its all-index lookup, with the sort sign folded into an
int leaf coefficient.  The jet residual, `operator_rep`,
`pre_lie_of_operator`, `wedge_coboundary`, `lift_cochain` and `raise_arity`
read each jet, operator or covector column once as ints and feed
`apply_coords` directly.

The inputs below mix Fractions, ints and non-integral constants.  Every
comparison with an oracle of `oracles.py` is exact, and every returned
coordinate must be a Fraction: an int leaked out of the int kernels would
still compare equal.
"""
import itertools
import random
from fractions import Fraction

import pytest

from conftest import broken_action, broken_algebra
from oracles import (oracle_accumulate, oracle_act, oracle_apply_map, oracle_bracket,
                     oracle_coefficient_residual, oracle_from_coords, oracle_is_central,
                     oracle_lift_cochain, oracle_mul_vec, oracle_nonzero, oracle_operator_rep,
                     oracle_pre_lie_of_operator, oracle_raise_arity, oracle_wedge_coboundary)
from test_column_table_oracle import assert_same_rep, pair_corpus
from test_obstruction_oracle import broken_operator
from test_skew_table_oracle import covectors
from test_sparse_eval_oracle import jet_corpus, lift_corpus, map_shapes

from nlie import BlockMap, Matrix, SpaceSpec
from nlie.combinat import blocks_of
from nlie.deformation import DeformationJet
from nlie.lift import find_center, is_central, lift_cochain, raise_arity
from nlie.linalg import accumulate, from_coords, nonzero, vadd, vector, viszero, vscale, vzero
from nlie.multilinear import apply_coords, apply_map, iter_keys
from nlie.rota_baxter import (RBOperator, Wedge, _coefficient_residual, operator_rep,
                              pre_lie_of_operator, wedge_coboundary)

_ZERO = Fraction(0)
_ONE = Fraction(1)

# ---------------------------------------------------------------------------
# inputs and exact comparison
# ---------------------------------------------------------------------------

CONSTANTS = [Fraction(x) for x in (1, -1, 2, "1/2", "-2/3", "3/4")]


def constant(rng: random.Random, zeros: int = 3) -> Fraction:
    """0 (with weight `zeros`) or one of the nonzero constants."""
    i = rng.randrange(len(CONSTANTS) + zeros)
    return CONSTANTS[i] if i < len(CONSTANTS) else _ZERO


def rational_vector(rng: random.Random, dim: int, mixed: bool = False) -> tuple:
    """Constants as Fractions; `mixed` gives each integral one as a plain int
    half the time."""
    out = []
    for _ in range(dim):
        x = constant(rng)
        out.append(x.numerator if mixed and x.denominator == 1 and rng.random() < 0.5 else x)
    return tuple(out)


def vectors(rng: random.Random, dim: int) -> list[tuple]:
    """A Fraction vector, a mixed int/Fraction one, a plain int one and zeros."""
    return [rational_vector(rng, dim), rational_vector(rng, dim, mixed=True),
            tuple(rng.randint(-2, 2) for _ in range(dim)), vzero(dim), (0,) * dim]


def rational_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.from_fraction_rows([rational_vector(rng, cols) for _ in range(rows)], cols)


def rational_blockmap(rng: random.Random, n: int, blocks: int, dim_s: int,
                      dim_t: int) -> BlockMap:
    table = {key: rational_vector(rng, dim_t) for key in iter_keys(dim_s, n - 1, blocks)
             if rng.random() < 0.6}
    return BlockMap(n, blocks, SpaceSpec(dim_s, "g"), SpaceSpec(dim_t, "V"), table)


def element(rng: random.Random, dim: int):
    """A basis index, a zero vector, or a rational, mixed or int vector."""
    kind = rng.random()
    if kind < 0.4:
        return rng.randrange(dim)
    if kind < 0.5:
        return vzero(dim)
    return rng.choice(vectors(rng, dim)[:3])


def fractions_only(*vecs) -> bool:
    return all(type(x) is Fraction for v in vecs for x in v)


def assert_same_map(got: BlockMap, want: BlockMap) -> None:
    """Same shape and table, in the same key order, every value Fractions."""
    assert (got.n, got.blocks, got.source, got.target) == \
        (want.n, want.blocks, want.source, want.target)
    assert list(got.table.items()) == list(want.table.items())
    assert fractions_only(*got.table.values())


def operators(operator_corpus, reps, rng: random.Random) -> list[RBOperator]:
    """The operator corpus, a broken copy of each operator and of each action,
    and a rational matrix over every small pair of the catalog corpus."""
    out = list(operator_corpus)
    out += [broken_operator(rng, t) for t in operator_corpus]
    out += [RBOperator(broken_action(rng, t.rep), t.matrix)
            for t in operator_corpus if t.rep.dim_v]
    out += [RBOperator(rep, rational_matrix(rng, rep.algebra.dim, rep.dim_v))
            for rep in pair_corpus(reps, rng) if rep.algebra.dim + rep.dim_v <= 6]
    return out


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------


def test_coordinate_helpers_match_the_fraction_bodies():
    rng = random.Random(201)
    cases = 0
    for dim in (0, 1, 3, 5):
        for _ in range(30):
            acc, want = {}, {}
            for v in vectors(rng, dim):
                assert nonzero(v) == oracle_nonzero(v)
                c = rng.choice([None, 1, *CONSTANTS, 0])
                if c is None:
                    accumulate(acc, v)
                    oracle_accumulate(want, v)
                else:
                    accumulate(acc, v, c)
                    oracle_accumulate(want, v, c)
                assert acc == want
                got = from_coords(acc, dim)
                assert got == oracle_from_coords(want, dim)
                assert fractions_only(got)
                cases += 1
    assert from_coords({}, 3) == oracle_from_coords({}, 3)
    assert fractions_only(from_coords({0: 0, 2: Fraction(0)}, 3))
    assert cases == 4 * 30 * 5


def test_mul_vec_matches_the_fraction_sums():
    rng = random.Random(202)
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (4, 4), (3, 5)):
        for _ in range(15):
            m = rational_matrix(rng, rows, cols)
            for v in vectors(rng, cols):
                got = m.mul_vec(v)
                assert got == oracle_mul_vec(m, v)
                assert fractions_only(got)
    with pytest.raises(ValueError):
        Matrix.identity(2).mul_vec((1, 2, 3))


def test_apply_map_matches_the_fraction_leaves():
    """Against the recursive expansion, on rational, mixed and int arguments."""
    rng = random.Random(203)
    cases = nonzero_cases = 0
    for n, blocks, dim_s, dim_t in map_shapes():
        for m in (rational_blockmap(rng, n, blocks, dim_s, dim_t),
                  BlockMap(n, blocks, SpaceSpec(dim_s, "g"), SpaceSpec(dim_t, "V"))):
            for _ in range(12):
                args = [[element(rng, dim_s) for _ in range(n - 1)] for _ in range(blocks)]
                tail = element(rng, dim_s)
                got = apply_map(m, args, tail)
                want = oracle_apply_map(m, args, tail)
                assert got == want and fractions_only(got)
                # the core adds c times the value onto a given dict
                start = rational_vector(rng, dim_t, mixed=True)
                c = rng.choice(CONSTANTS)
                acc = apply_coords(m, args, tail, dict(nonzero(start)), c)
                assert from_coords(acc, dim_t) == vadd(vector(start), vscale(want, c))
                cases += 1
                nonzero_cases += not viszero(got)
    assert cases == 18 * 2 * 12
    assert nonzero_cases >= cases // 5


def test_brackets_and_actions_match_the_fraction_leaves(reps, operator_corpus):
    """Against the recursive expansion, on rational, mixed and int arguments."""
    rng = random.Random(204)
    pairs = pair_corpus(reps, rng) + [t.rep for t in operator_corpus]
    pairs += [broken_algebra(rng, t.rep) for t in operator_corpus
              if t.algebra.dim >= t.algebra.n]
    for rep in pairs:
        alg = rep.algebra
        n, dg, dv = alg.n, alg.dim, rep.dim_v
        for _ in range(8):
            args = [element(rng, dg) for _ in range(n)]
            got = alg.bracket(args)
            assert got == oracle_bracket(alg, args) and fractions_only(got)
            if dv:
                v = element(rng, dv)
                got = rep.act(args[:-1], v)
                assert got == oracle_act(rep, args[:-1], v) and fractions_only(got)


def test_coefficient_residual_matches_the_fraction_chain(operator_corpus, reps, algebras):
    rng = random.Random(205)
    jets = jet_corpus(operator_corpus, algebras)
    for t in operators(operator_corpus, reps, rng)[:len(operator_corpus) * 3]:
        dg, dv = t.algebra.dim, t.rep.dim_v
        jets += [DeformationJet(t, [rational_matrix(rng, dg, dv) for _ in range(order)])
                 for order in (1, 2)]
    cases = nonzero_cases = 0
    for jet in jets:
        ops, base = jet.operators(), jet.base
        n, dv = base.algebra.n, base.rep.dim_v
        tuples = list(itertools.combinations(range(dv), n))
        tuples += [tuple(reversed(vs)) for vs in tuples[:2]]
        for s in range(jet.order + 2):
            for vs in tuples:
                got = _coefficient_residual(ops, base, s, vs)
                assert got == oracle_coefficient_residual(ops, base, s, vs)
                assert fractions_only(got)
                cases += 1
                nonzero_cases += not viszero(got)
    assert cases >= 700
    assert nonzero_cases >= cases // 4


def test_operator_structures_match_the_fraction_columns(operator_corpus, reps):
    rng = random.Random(206)
    reps_nonzero = wedges_nonzero = 0
    for t in operators(operator_corpus, reps, rng):
        got = pre_lie_of_operator(t)
        want = oracle_pre_lie_of_operator(t)
        assert got.n == want.n and got.space == want.space
        assert_same_map(got.product, want.product)
        rho = operator_rep(t)
        assert_same_rep(rho, oracle_operator_rep(t))
        reps_nonzero += bool(rho.action)
        dg, k = t.algebra.dim, t.algebra.n - 1
        ws = [Wedge(dg, k, {b: _ONE}) for b in blocks_of(dg, k)]
        ws.append(Wedge(dg, k, {b: constant(rng, zeros=1) for b in blocks_of(dg, k)}))
        for w in ws:
            got = wedge_coboundary(t, w)
            assert_same_map(got, oracle_wedge_coboundary(t, w))
            wedges_nonzero += not got.is_zero()
    assert reps_nonzero >= 40 and wedges_nonzero >= 100


def test_lift_cochain_and_raise_arity_match_the_fraction_sums(reps, algebras):
    rng = random.Random(207)
    cases = lift_corpus(algebras)[::3]
    for rep in pair_corpus(reps, rng)[::2]:
        alg = rep.algebra
        n, dg, dv = alg.n, alg.dim, rep.dim_v
        for f in covectors(alg)[:2]:
            c = rng.choice(CONSTANTS)
            scaled = tuple(c * x for x in f)
            for b in (1, 2) if dg <= 3 else (1,):
                cases.append((rational_blockmap(rng, n, b, dg, max(dv, 1)), scaled))
            got = raise_arity(alg, scaled)
            want = oracle_raise_arity(alg, scaled)
            assert (got.n, got.space) == (want.n, want.space)
            assert got.structure == want.structure
            assert fractions_only(*got.structure.values())
    nonzero_cases = 0
    for p, f in cases:
        got = lift_cochain(p, f)
        assert_same_map(got, oracle_lift_cochain(p, f))
        nonzero_cases += not got.is_zero()
    assert len(cases) >= 200 and nonzero_cases >= len(cases) // 3


def test_centrality_of_rational_elements_matches_the_bracket_loop(reps):
    rng = random.Random(208)
    central = noncentral = 0
    for rep in pair_corpus(reps, rng):
        total = rep.algebra.dim + rep.dim_v
        candidates = [vscale(x, rng.choice(CONSTANTS)) for x in find_center(rep)]
        candidates += [rational_vector(rng, total, mixed=True) for _ in range(3)]
        candidates.append(vzero(total))
        if len(candidates) > 2:
            candidates.append(vadd(candidates[0], candidates[1]))
        for x0 in candidates:
            verdict = is_central(rep, x0)
            assert verdict == oracle_is_central(rep, x0)
            central += verdict
            noncentral += not verdict
    assert central >= 50 and noncentral >= 50
    with pytest.raises(ValueError):
        is_central(reps[0], (1,))
