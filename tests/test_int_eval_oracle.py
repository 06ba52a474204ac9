"""Brackets, actions and jet residuals evaluated on ints, against the
Fraction bodies they replaced.

`nonzero`, `accumulate` and `Matrix.mul_vec` sum integral coefficients as
plain ints, and `from_coords` hands back Fractions.  `apply_map` is
`apply_coords` plus its all-index lookup, with the sort sign folded into an
int leaf coefficient.  The jet residual, `operator_rep`,
`pre_lie_of_operator`, `wedge_coboundary`, `lift_cochain` and `raise_arity`
read each jet, operator or covector column once as ints and feed
`apply_coords` directly.

The bodies they replaced stay below verbatim, as oracles.  Where a body
called one of the replaced kernels (`alg.bracket`, `rep.act`, `mul_vec`,
`nonzero`, `accumulate`, `from_coords`, `induced_bracket`), it calls that
kernel's oracle instead, so no oracle runs the int code.  Every comparison
is exact, and every returned coordinate must be a Fraction: an int leaked
out of the int kernels would still compare equal.
"""
import itertools
import random
from fractions import Fraction

import pytest

from conftest import broken_action, broken_algebra
from test_column_table_oracle import assert_same_rep, oracle_is_central, pair_corpus
from test_obstruction_oracle import broken_operator
from test_skew_table_oracle import covectors
from test_sparse_eval_oracle import jet_corpus, lift_corpus, map_shapes

from nlie import BlockMap, Matrix, NLieAlgebra, NPreLie, Representation, SpaceSpec
from nlie.combinat import blocks_of, compositions, sort_with_sign
from nlie.core import sub_adjacent
from nlie.deformation import DeformationJet
from nlie.lift import find_center, is_admissible, is_central, lift_cochain, raise_arity
from nlie.linalg import (Vec, accumulate, basis_vec, from_coords, nonzero, vadd, vector,
                         viszero, vscale, vsub, vzero)
from nlie.multilinear import apply_coords, apply_map, iter_keys
from nlie.rota_baxter import (RBOperator, Wedge, _coefficient_residual, operator_rep,
                              pre_lie_of_operator, wedge_coboundary)

_ZERO = Fraction(0)
_ONE = Fraction(1)

# ---------------------------------------------------------------------------
# the replaced bodies, verbatim
# ---------------------------------------------------------------------------


def oracle_nonzero(v):
    """The (index, coefficient) pairs of the nonzero coordinates of v."""
    return [(j, x) for j, x in enumerate(v) if x]


def oracle_accumulate(acc, v, c=_ONE) -> None:
    """acc += c·v on a coordinate dict, reading only the nonzero entries of v."""
    if c == 1:
        for j, x in enumerate(v):
            if x:
                acc[j] = acc[j] + x if j in acc else x
    else:
        for j, x in enumerate(v):
            if x:
                acc[j] = acc[j] + c * x if j in acc else c * x


def oracle_from_coords(acc, dim: int) -> Vec:
    """The dense vector of a coordinate dict."""
    return tuple(acc.get(j, _ZERO) for j in range(dim))


def oracle_mul_vec(self, v) -> Vec:
    v = vector(v)
    if len(v) != self.cols:
        raise ValueError("shape mismatch")
    nz = oracle_nonzero(v)
    return tuple(sum((row[j] * x for j, x in nz if row[j]), _ZERO) for row in self.entries)


# the coefficient of a basis-index argument: a leaf multiplies only the
# coefficients of its vector arguments
_INDEX = Fraction(1)


def oracle_terms(e):
    """An argument's nonzero (index, coefficient) pairs."""
    return ((e, _INDEX),) if isinstance(e, int) else oracle_nonzero(e)


def oracle_sorted_key(blocks, tail):
    """(sign, key) of index blocks sorted with their signs, followed by the
    tail; (0, None) when a block repeats an index."""
    key, sign = [], 1
    for block in blocks:
        s, sb = sort_with_sign(tuple(block))
        if s == 0:
            return 0, None
        sign *= s
        key.append(sb)
    key.append(tail)
    return sign, tuple(key)


def oracle_apply_map(m, blocks, tail) -> Vec:
    if isinstance(tail, int) and all(isinstance(e, int) for block in blocks for e in block):
        sign, key = oracle_sorted_key(blocks, tail)
        if sign == 0:
            return vzero(m.target.dim)
        v = m.value(key)
        return v if sign == 1 else vscale(v, Fraction(sign))
    spans = list(itertools.pairwise(itertools.accumulate((len(b) for b in blocks), initial=0)))
    slots = [oracle_terms(e) for block in blocks for e in block]
    slots.append(oracle_terms(tail))
    coeffs = {}
    for leaf in itertools.product(*slots):
        idx, cs = zip(*leaf)
        sign, key = oracle_sorted_key([idx[a:b] for a, b in spans], idx[-1])
        if sign == 0:
            continue
        c = None
        for x in cs:
            if x is not _INDEX:
                c = x if c is None else c * x
        if sign < 0:
            c = -c
        coeffs[key] = coeffs[key] + c if key in coeffs else c
    acc = {}
    for key, c in coeffs.items():
        if c:
            oracle_accumulate(acc, m.value(key), c)
    return oracle_from_coords(acc, m.target.dim)


def oracle_bracket(alg: NLieAlgebra, args) -> Vec:
    return oracle_apply_map(alg, [args[:-1]], args[-1])


def oracle_act(rep: Representation, gargs, v) -> Vec:
    return oracle_apply_map(rep, [gargs], v)


def oracle_apply(t: RBOperator, v) -> Vec:
    return oracle_mul_vec(t.matrix, basis_vec(t.rep.dim_v, v))


def oracle_twist(t: RBOperator, w: Vec) -> Vec:
    dg = t.algebra.dim
    return vsub(w[:dg], oracle_mul_vec(t.matrix, w[dg:]))


def oracle_coefficient_residual(jet_ops, base, s, vs) -> Vec:
    rep = base.rep
    alg = rep.algebra
    n = alg.n
    cols = [[op.column(v) for v in vs] for op in jet_ops]
    total = {}
    for comp in compositions(s, n, len(jet_ops) - 1):
        oracle_accumulate(total, oracle_bracket(alg, [cols[comp[j]][j] for j in range(n)]))
        inner = {}
        for k in range(n):
            survivors = [j for j in range(n) if j != k]
            args = [cols[comp[p + 1]][j] for p, j in enumerate(survivors)]
            oracle_accumulate(inner, oracle_act(rep, args, vs[k]),
                              Fraction((-1) ** (n - 1 - k)))
        if inner:
            oracle_accumulate(total, oracle_mul_vec(jet_ops[comp[0]],
                                                    oracle_from_coords(inner, rep.dim_v)),
                              Fraction(-1))
    return oracle_from_coords(total, alg.dim)


def oracle_pre_lie_of_operator(t: RBOperator) -> NPreLie:
    rep = t.rep
    n, dv = rep.algebra.n, rep.dim_v
    space = SpaceSpec(dv, "V")
    table = {}
    for block in blocks_of(dv, n - 1):
        tvs = [oracle_apply(t, v) for v in block]
        for tail in range(dv):
            val = oracle_act(rep, tvs, tail)
            if not viszero(val):
                table[(block, tail)] = val
    return NPreLie(n, space, BlockMap(n, 1, space, space, table))


def oracle_operator_rep(t: RBOperator) -> Representation:
    rep = t.rep
    alg = rep.algebra
    n, dg, dv = alg.n, alg.dim, rep.dim_v
    base = sub_adjacent(oracle_pre_lie_of_operator(t))
    images = [t.matrix.column(u) for u in range(dv)]
    columns = {}
    for block in blocks_of(dv, n - 1):
        tus = [images[u] for u in block]
        for x in range(dg):
            inner = {}
            for i in range(n - 1):
                oracle_accumulate(inner, oracle_act(rep, [*tus[:i], *tus[i + 1:], x], block[i]),
                                  Fraction((-1) ** (n - 1 - i)))
            columns[(block, x)] = oracle_twist(
                t, oracle_bracket(alg, [*tus, x]) + oracle_from_coords(inner, dv))
    return Representation.from_columns(base, SpaceSpec(dg, "g"), columns)


def oracle_wedge_coboundary(t: RBOperator, w: Wedge) -> BlockMap:
    rep = t.rep
    alg = rep.algebra
    n, dg, dv = alg.n, alg.dim, rep.dim_v
    if (w.dim, w.size) != (dg, n - 1):
        raise ValueError("wedge shape mismatch")
    src = SpaceSpec(dv, "V")
    tgt = SpaceSpec(dg, "g")
    table = {}
    for u in range(dv):
        total = vzero(dg)
        tv = oracle_apply(t, u)
        for block, c in w.coeffs.items():
            term = vsub(oracle_mul_vec(t.matrix, rep.value((block, u))),
                        oracle_bracket(alg, [*block, tv]))
            total = vadd(total, vscale(term, c))
        if not viszero(total):
            table[(u,)] = total
    return BlockMap(n, 0, src, tgt, table)


def oracle_lift_cochain(p: BlockMap, f) -> BlockMap:
    fv = vector(f)
    n = p.n
    b = p.blocks
    if b == 0:
        return BlockMap(n + 1, 0, p.source, p.target, dict(p.table))
    d = p.source.dim
    table = {}
    for key in iter_keys(d, n, b):
        wedges = key[:-2] + (key[-2] + (key[-1],),)
        # the positions a pick may drop: those where the covector is nonzero
        picks = [[(i, fv[j]) for i, j in enumerate(w) if fv[j]] for w in wedges]
        acc = {}
        for pick in itertools.product(*picks):
            *blocks, last = (w[:i] + w[i + 1:] for w, (i, _) in zip(wedges, pick))
            val = p.table.get((*blocks, last[:-1], last[-1]))
            if val is None:
                continue
            coeff = Fraction((-1) ** sum(i for i, _ in pick))
            for _, c in pick:
                coeff *= c
            oracle_accumulate(acc, val, coeff)
        total = oracle_from_coords(acc, p.target.dim)
        if not viszero(total):
            table[key] = total
    return BlockMap(n + 1, b, p.source, p.target, table)


def oracle_raise_arity(alg: NLieAlgebra, f) -> NLieAlgebra:
    fv = vector(f)
    if not is_admissible(alg, fv):
        raise ValueError("covector does not annihilate the bracket")
    support = [(j, c) for j, c in enumerate(fv) if c]
    sums = {}
    for w, val in alg.structure.items():
        for j, c in support:
            s, key = sort_with_sign((j,) + w)
            if s:
                oracle_accumulate(sums.setdefault(key, {}), val, c * s)
    structure = {key: oracle_from_coords(coords, alg.dim) for key, coords in sums.items()}
    return NLieAlgebra(alg.n + 1, alg.space, structure)


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
            assert list(got.structure.items()) == list(want.structure.items())
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
