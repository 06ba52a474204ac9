"""Representations built from their column tables, against the column-by-
column loops they replaced.

`Representation.from_columns` is the one constructor of a representation
from its columns: `adjoint_rep` reads the bracket's table, `left_mult_rep`
the product's basis entries, `raise_arity_rep` the V-ending keys of the
raised g ⋉ V and `operator_rep` the twisted graph brackets.  The center is
the common kernel of the ad matrices of g ⋉ V, and the differential and the
degree-0 operator differential read the action matrices directly.  The
oracles below are the bodies that evaluated a bracket or an action per
basis column: each must give equal matrices (action dicts compare as
mappings), the same kernel basis, the same centrality verdicts and the same
differential columns, entry order included.
"""
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from conftest import broken_action, broken_algebra, random_blockmap, random_matrix
from test_skew_table_oracle import covectors, with_junk

from nlie import (BlockMap, Matrix, NLieAlgebra, NPreLie, Representation, SpaceSpec,
                  abelian, adjoint_rep, left_mult_rep, sub_adjacent, zero_representation)
from nlie.cochain import _differential
from nlie.combinat import blocks_of, sort_with_sign
from nlie.core import semidirect_product
from nlie.lift import find_center, is_central, raise_arity, raise_arity_rep
from nlie.linalg import (Vec, accumulate, basis_vec, from_coords, kernel_basis, vadd,
                         vector, viszero, vscale, vsub, vzero)
from nlie.multilinear import iter_keys
from nlie.rota_baxter import (RBOperator, Wedge, induced_bracket, operator_rep,
                              pre_lie_of_operator, wedge_coboundary)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


# ---------------------------------------------------------------------------
# the column-by-column loops
# ---------------------------------------------------------------------------

def oracle_adjoint_rep(alg: NLieAlgebra) -> Representation:
    action = {}
    for block in blocks_of(alg.dim, alg.n - 1):
        cols = [alg.bracket([*block, j]) for j in range(alg.dim)]
        mat = Matrix.from_columns(cols) if alg.dim else Matrix.zero(0, 0)
        if not mat.is_zero():
            action[block] = mat
    return Representation(alg, SpaceSpec(alg.dim, "g"), action)


def oracle_left_mult_rep(p: NPreLie) -> Representation:
    alg = sub_adjacent(p)
    action = {}
    for block in blocks_of(p.dim, p.n - 1):
        cols = [p.prod([*block, j]) for j in range(p.dim)]
        mat = Matrix.from_columns(cols)
        if not mat.is_zero():
            action[block] = mat
    return Representation(alg, p.space, action)


def oracle_raise_arity_rep(rep: Representation, f) -> Representation:
    alg = rep.algebra
    dg, dv = alg.dim, rep.dim_v
    raised = raise_arity(semidirect_product(rep), vector(f) + vzero(dv))
    structure, columns = {}, {}
    for key, val in raised.structure.items():
        if key[-1] < dg:
            structure[key] = val[:dg]
        else:
            columns.setdefault(key[:-1], [vzero(dv)] * dv)[key[-1] - dg] = val[dg:]
    action = {block: Matrix.from_columns(cols) for block, cols in columns.items()}
    return Representation(NLieAlgebra(alg.n + 1, alg.space, structure), rep.module, action)


def oracle_operator_rep(t: RBOperator) -> Representation:
    rep = t.rep
    alg = rep.algebra
    n, dg, dv = alg.n, alg.dim, rep.dim_v
    base = induced_bracket(t)
    images = [t.matrix.column(u) for u in range(dv)]
    action = {}
    for block in blocks_of(dv, n - 1):
        tus = [images[u] for u in block]
        cols = []
        for x in range(dg):
            inner: dict[int, Fraction] = {}
            for i in range(n - 1):
                accumulate(inner, rep.act([*tus[:i], *tus[i + 1:], x], block[i]),
                           Fraction((-1) ** (n - 1 - i)))
            cols.append(t.twist(alg.bracket([*tus, x]) + from_coords(inner, dv)))
        mat = Matrix.from_columns(cols)
        if not mat.is_zero():
            action[block] = mat
    return Representation(base, SpaceSpec(dg, "g"), action)


def oracle_find_center(rep: Representation) -> list[Vec]:
    sd = semidirect_product(rep)
    total = sd.dim
    rows = []
    for block in blocks_of(total, sd.n - 1):
        cols = [sd.bracket([*block, j]) for j in range(total)]
        for c in range(total):
            rows.append([col[c] for col in cols])
    if not rows:
        return [basis_vec(total, j) for j in range(total)]
    return kernel_basis(Matrix(rows))


def oracle_is_central(rep: Representation, x0) -> bool:
    x0v = vector(x0)
    sd = semidirect_product(rep)
    if len(x0v) != sd.dim:
        raise ValueError("central element must live in the sum space")
    return all(viszero(sd.bracket([*block, x0v])) for block in blocks_of(sd.dim, sd.n - 1))


def oracle_differential(rep: Representation, m: int) -> dict:
    """`_differential` with the action helper that evaluated one act column
    per module coordinate."""
    alg = rep.algebra
    n, d, dv = alg.n, alg.dim, rep.dim_v
    entries: dict = {}

    @cache
    def bracket(block, x):
        return [(i, w) for i, w in enumerate(alg.bracket([*block, x])) if w]

    @cache
    def action(args):
        """Nonzero entries (r, c, x) of the action matrix of args."""
        return [(r, c, x) for c in range(dv) for r, x in enumerate(rep.act(args, c)) if x]

    def add(src, c, dst, r, x):
        col = entries.setdefault((src, c), {})
        col[(dst, r)] = col.get((dst, r), 0) + x

    for key in iter_keys(d, n - 1, m):
        X, t = key[:-1], key[-1]
        for j in range(m):
            sj = (-1) ** (j + 1)
            others = X[:j] + X[j + 1:]
            for k in range(j + 1, m):
                for i in range(n - 1):
                    for idx, w in bracket(X[j], X[k][i]):
                        s, nb = sort_with_sign(X[k][:i] + (idx,) + X[k][i + 1:])
                        if s:
                            src = X[:j] + X[j + 1:k] + (nb,) + X[k + 1:] + (t,)
                            for c in range(dv):
                                add(src, c, key, c, sj * s * w)
            for idx, w in bracket(X[j], t):
                for c in range(dv):
                    add(others + (idx,), c, key, c, sj * w)
            for r, c, x in action(X[j]):
                add(others + (t,), c, key, r, -sj * x)
        last = X[m - 1]
        for i in range(n - 1):
            sign = (-1) ** (n + m - i)
            for r, c, x in action(last[:i] + last[i + 1:] + (t,)):
                add(X[:m - 1] + (last[i],), c, key, r, sign * x)
    cols = {}
    for src, col in entries.items():
        nonzero = tuple((dst, r, x) for (dst, r), x in col.items() if x)
        if nonzero:
            cols[src] = nonzero
    return cols


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
        tv = t.apply(u)
        for block, c in w.coeffs.items():
            term = vsub(t.matrix.mul_vec(rep.act(list(block), u)),
                        alg.bracket([*block, tv]))
            total = vadd(total, vscale(term, c))
        if not viszero(total):
            table[(u,)] = total
    return BlockMap(n, 0, src, tgt, table)


# ---------------------------------------------------------------------------
# inputs and exact comparison
# ---------------------------------------------------------------------------

def assert_same_rep(got: Representation, want: Representation) -> None:
    """Same algebra table, module and action matrices, entries Fractions."""
    assert (got.algebra.n, got.algebra.dim) == (want.algebra.n, want.algebra.dim)
    assert got.algebra.structure == want.algebra.structure
    assert got.module == want.module
    assert got.action == want.action
    assert all(type(x) is Fraction for m in got.action.values() for row in m.entries
               for x in row)


def pair_corpus(reps, rng: random.Random) -> list[Representation]:
    """The catalog pairs and a seeded dense basis change of each, a broken
    copy of both, and zero modules of dimension 0."""
    out = []
    for rep in reps:
        moved = [rep]
        if rep.dim_v:
            p = gen.dense_unimodular(rng, rep.algebra.dim)
            q = gen.dense_unimodular(rng, rep.dim_v)
            moved.append(gen.change_basis(rep, p, q))
        for r in moved:
            out.append(r)
            if r.dim_v:
                out.append(broken_action(rng, r))
            if r.algebra.dim >= r.algebra.n:
                out.append(broken_algebra(rng, r))
    out += [zero_representation(rep.algebra, 0) for rep in reps[:3]]
    return out


def operators(operator_corpus, pairs, rng: random.Random) -> list[RBOperator]:
    """The operator corpus and a random matrix over every small pair; ρ_T
    is defined whether or not T is an operator."""
    out = list(operator_corpus)
    out += [RBOperator(rep, random_matrix(rng, rep.algebra.dim, rep.dim_v))
            for rep in pairs if rep.algebra.dim + rep.dim_v <= 6]
    return out


def products(operator_corpus, rng: random.Random) -> list[BlockMap]:
    """Operator products, random products, copies of both with junk keys,
    and a zero product."""
    out = [pre_lie_of_operator(t).product for t in operator_corpus]
    out += [random_blockmap(rng, n, 1, d, d, "g", "g", density=density)
            for n, d in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 5))
            for density in (0.5, 1.0)]
    out += [with_junk(rng, p) for p in list(out)]
    out.append(BlockMap(3, 1, SpaceSpec(4, "g"), SpaceSpec(4, "g")))
    return out


def action_columns(rep: Representation) -> dict:
    """{(block, u): rep.value((block, u))} over every block and coordinate."""
    return {(block, u): rep.value((block, u))
            for block in blocks_of(rep.algebra.dim, rep.n - 1) for u in range(rep.dim_v)}


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

def test_adjoint_rep_matches_the_bracket_loop(reps, algebras):
    rng = random.Random(191)
    algs = list(algebras.values()) + [abelian(2, 0), abelian(3, 1)]
    for rep in pair_corpus(reps, rng):
        algs += [rep.algebra, semidirect_product(rep)]
    nonzero = 0
    for alg in algs:
        got = adjoint_rep(alg)
        assert_same_rep(got, oracle_adjoint_rep(alg))
        nonzero += len(got.action)
    assert nonzero >= 500


def test_left_mult_rep_matches_the_product_loop(operator_corpus):
    rng = random.Random(192)
    nonzero = 0
    for product in products(operator_corpus, rng):
        p = NPreLie(product.n, product.source, product)
        got = left_mult_rep(p)
        assert_same_rep(got, oracle_left_mult_rep(p))
        nonzero += bool(got.action)
    assert nonzero >= 20


def test_raise_arity_rep_matches_the_column_fill(reps):
    rng = random.Random(193)
    raised = 0
    for rep in pair_corpus(reps, rng):
        for f in covectors(rep.algebra):
            got = raise_arity_rep(rep, f)
            assert_same_rep(got, oracle_raise_arity_rep(rep, f))
            raised += bool(got.action)
    assert raised >= 20


def test_operator_rep_matches_the_column_loop(operator_corpus, reps):
    rng = random.Random(194)
    nonzero = 0
    for t in operators(operator_corpus, pair_corpus(reps, rng), rng):
        got = operator_rep(t)
        assert_same_rep(got, oracle_operator_rep(t))
        nonzero += bool(got.action)
    assert nonzero >= 60


def test_center_matches_the_bracket_rows(reps):
    rng = random.Random(195)
    central = noncentral = 0
    for rep in pair_corpus(reps, rng):
        got = find_center(rep)
        assert got == oracle_find_center(rep)
        total = rep.algebra.dim + rep.dim_v
        candidates = got + [basis_vec(total, j) for j in range(total)]
        candidates.append(tuple(Fraction(rng.randint(-2, 2)) for _ in range(total)))
        for x0 in candidates:
            verdict = is_central(rep, x0)
            assert verdict == oracle_is_central(rep, x0)
            central += verdict
            noncentral += not verdict
    assert central >= 50 and noncentral >= 50


def test_differential_matches_the_act_columns(reps, operator_corpus):
    rng = random.Random(196)
    pairs = pair_corpus(reps, rng)
    complexes = pairs + [t.induced_rep for t in operator_corpus]
    complexes += [adjoint_rep(semidirect_product(rep)) for rep in pairs
                  if rep.algebra.dim + rep.dim_v <= 5]
    complexes += [left_mult_rep(pre_lie_of_operator(t)) for t in operator_corpus]
    columns = 0
    for rep in complexes:
        top = 2 if rep.algebra.dim <= 4 else 1
        for m in range(1, top + 1):
            got = _differential(rep, m)
            assert got == oracle_differential(rep, m)
            columns += len(got)
    assert columns >= 3000


def test_wedge_coboundary_matches_the_act_columns(operator_corpus, reps):
    rng = random.Random(197)
    nonzero = 0
    for t in operators(operator_corpus, pair_corpus(reps, rng), rng):
        dg, k = t.algebra.dim, t.algebra.n - 1
        wedges = [Wedge(dg, k, {b: Fraction(1)}) for b in blocks_of(dg, k)]
        wedges.append(Wedge(dg, k, {b: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                    for b in blocks_of(dg, k)}))
        for w in wedges:
            got = wedge_coboundary(t, w)
            want = oracle_wedge_coboundary(t, w)
            assert got == want
            assert list(got.table) == list(want.table)
            nonzero += not got.is_zero()
    assert nonzero >= 50


def test_from_columns_inverts_value(reps, operator_corpus):
    rng = random.Random(198)
    pairs = pair_corpus(reps, rng)
    corpus = pairs + [adjoint_rep(semidirect_product(rep)) for rep in pairs]
    corpus += [operator_rep(t) for t in operators(operator_corpus, pairs, rng)]
    corpus += [left_mult_rep(NPreLie(p.n, p.source, p)) for p in products(operator_corpus, rng)]
    nonzero = 0
    for rep in corpus:
        back = Representation.from_columns(rep.algebra, rep.module, action_columns(rep))
        assert back.action == rep.action
        # the same action from its nonzero columns only
        sparse = {k: v for k, v in action_columns(rep).items() if not viszero(v)}
        assert Representation.from_columns(rep.algebra, rep.module, sparse).action == rep.action
        nonzero += bool(rep.action)
    assert nonzero >= 100
