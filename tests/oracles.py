"""One oracle per engine kernel, each written the way the paper states it.

An oracle recomputes what a kernel computes straight from its definition:
a multilinear map expands its vector arguments recursively, the
differential and the graded bracket are evaluated key by key, an operator
identity is read off the semidirect bracket of graph vectors, a rank is a
dense Gauss-Jordan elimination.  The tests compare each kernel with its
oracle exactly, on the corpora the test files build; README "Install and
test" lists which file runs which oracle.  Beyond its own formula, an
oracle calls the engine only for table lookups (`value`) and for kernels
that have their own oracle here: it evaluates maps and brackets through
`apply_map` (checked against `oracle_apply_map`), actions through
`Representation.operator` and `act` (checked against `oracle_operator` and
`oracle_act`), and products through `Matrix.mul_vec` and `Matrix.matmul`
(checked against `oracle_mul_vec` and `oracle_matmul`).
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm
from typing import Optional, Sequence

from nlie import (BlockMap, LazyMap, Matrix, NLieAlgebra, NPreLie, Representation,
                  SpaceSpec)
from nlie.cli import _entry
from nlie.cochain import _scatter, coboundary, cochain_basis
from nlie.combinat import blocks_of, compositions, shuffles, sort_with_sign
from nlie.core import CheckReport, SymplecticForm, check_filippov, check_representation
from nlie.deformation import DeformationJet, ObstructionClass
from nlie.lift import (induced_covector, is_admissible, is_central, lift_cochain,
                       lift_operator, raise_arity_rep)
from nlie.linalg import (Vec, basis_vec, kernel_basis, solve_linear, vadd, vector,
                         viszero, vscale, vsub, vzero)
from nlie.multilinear import (Element, _shift, _summand, apply_map, iter_keys,
                              project_operator_part, sum_space)
from nlie.rota_baxter import (DerivedContext, RBOperator, Wedge, _coefficient_residual,
                              rb_coboundary)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_zero(v) -> bool:
    """Whether every coordinate is zero: `viszero` without `Fraction.__eq__`."""
    return not any(v)


# ---------------------------------------------------------------------------
# evaluation: apply_map, actions, Matrix products, coordinate dicts, tables
# ---------------------------------------------------------------------------

def oracle_apply_map(m, blocks, tail) -> Vec:
    """Evaluate with full multilinear/antisymmetric semantics.

    Block elements and the tail may be basis indices or coefficient vectors;
    vectors expand over their nonzero coordinates.  The bracket of an
    algebra is `oracle_apply_map(alg, [args[:-1]], args[-1])` and an action
    `oracle_apply_map(rep, [gargs], v)`.
    """
    for bi, block in enumerate(blocks):
        for ei, elt in enumerate(block):
            if not isinstance(elt, int):
                total = vzero(m.target.dim)
                for idx, c in enumerate(elt):
                    if c != 0:
                        nb = list(block)
                        nb[ei] = idx
                        nbs = list(blocks)
                        nbs[bi] = nb
                        v = oracle_apply_map(m, nbs, tail)
                        if not viszero(v):
                            total = vadd(total, vscale(v, c))
                return total
    if not isinstance(tail, int):
        total = vzero(m.target.dim)
        for idx, c in enumerate(tail):
            if c != 0:
                v = oracle_apply_map(m, blocks, idx)
                if not viszero(v):
                    total = vadd(total, vscale(v, c))
        return total
    sign = 1
    key = []
    for block in blocks:
        s, sb = sort_with_sign(tuple(block))
        if s == 0:
            return vzero(m.target.dim)
        sign *= s
        key.append(sb)
    v = m.value(tuple(key) + (tail,))
    return vscale(v, Fraction(sign)) if sign != 1 else v


def oracle_bracket(alg, args) -> Vec:
    return oracle_apply_map(alg, [args[:-1]], args[-1])


def oracle_act(rep: Representation, gargs, v) -> Vec:
    return oracle_apply_map(rep, [gargs], v)


def oracle_operator(rep: Representation, gargs) -> Matrix:
    """The action matrix of gargs, one oracle action column per basis vector."""
    return Matrix.from_columns([oracle_act(rep, gargs, u) for u in range(rep.dim_v)])


def oracle_mul_vec(m: Matrix, v) -> Vec:
    v = vector(v)
    if len(v) != m.cols:
        raise ValueError("shape mismatch")
    return tuple(sum((a * b for a, b in zip(row, v)), _ZERO) for row in m.entries)


def oracle_matmul(a: Matrix, b: Matrix) -> Matrix:
    """Entry (i, j) is the sum of a[i, k]·b[k, j] over every k: row i of a
    against row j of the transpose of b."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    bt = [[b.entries[k][j] for k in range(b.rows)] for j in range(b.cols)]
    return Matrix.from_fraction_rows(
        [tuple(sum((x * y for x, y in zip(row, col)), _ZERO) for col in bt)
         for row in a.entries], b.cols)


def oracle_nonzero(v):
    """The (index, coefficient) pairs of the nonzero coordinates of v."""
    return [(j, x) for j, x in enumerate(v) if x]


def oracle_accumulate(acc, v, c=_ONE) -> None:
    """acc += c·v on a coordinate dict."""
    for j, x in enumerate(v):
        if x:
            acc[j] = acc.get(j, _ZERO) + c * x


def oracle_from_coords(acc, dim: int) -> Vec:
    """The dense vector of a coordinate dict."""
    return tuple(Fraction(acc.get(j, 0)) for j in range(dim))


def materialize(m) -> BlockMap:
    """The table of a map known key by key (a `LazyMap`, an `NLieAlgebra`):
    its nonzero values at every basis key of its domain."""
    table = {}
    for key in iter_keys(m.source.dim, m.n - 1, m.blocks):
        v = m.value(key)
        if not _is_zero(v):
            table[key] = v
    return BlockMap(m.n, m.blocks, m.source, m.target, table)


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


# ---------------------------------------------------------------------------
# exact elimination: rank, kernel_basis, solve_linear
# ---------------------------------------------------------------------------

def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g in (0, 1) else [x // g for x in row]


def dense_echelon(rows) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Dense Gauss-Jordan elimination: every column in turn, every other row
    cleared against the pivot.  Rows are kept as primitive integer rows (each
    row times the lcm of its denominators, divided by the gcd of its entries),
    so the arithmetic is exact and fraction-free.  Returns the pivot rows
    divided by their pivot entries, and the pivot columns.  A matrix met
    twice in one test session is eliminated once."""
    return _dense_echelon(tuple(tuple(row) for row in rows))


@cache
def _dense_echelon(rows: tuple[tuple, ...]) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        m.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        p, prow = m[r][c], m[r]
        for i, row in enumerate(m):
            q = row[c]
            if q and i != r:
                m[i] = _primitive([p * a - q * b for a, b in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return (tuple(tuple(Fraction(x, m[k][c]) for x in m[k]) for k, c in enumerate(pivots)),
            tuple(pivots))


def dense_rref(entries) -> list:
    """The reduced echelon form as (pivot column, {column: entry}) rows,
    each divided by its pivot entry."""
    red, pivots = dense_echelon(entries)
    return [(pc, {j: Fraction(x) for j, x in enumerate(red[r]) if x})
            for r, pc in enumerate(pivots)]


def dense_rank_and_kernel(m: Matrix):
    """(rank, kernel basis) from one dense elimination."""
    if m.cols == 0:
        return 0, []
    if m.rows == 0:
        return 0, [basis_vec(m.cols, j) for j in range(m.cols)]
    red, pivots = dense_echelon(m.entries)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [_ZERO] * m.cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return len(pivots), basis


def dense_solve_linear(a: Matrix, b):
    b = vector(b)
    if a.cols == 0:
        return () if viszero(b) else None
    red, pivots = dense_echelon([list(row) + [bi] for row, bi in zip(a.entries, b)])
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][a.cols]
    return tuple(x)


# ---------------------------------------------------------------------------
# the cochain differential and the graded bracket, key by key
# ---------------------------------------------------------------------------

@cache
def _bracket(alg: NLieAlgebra, args: tuple[int, ...]) -> Vec:
    """`alg.bracket` of basis indices.  `oracle_coboundary_matrix` meets the
    same brackets and actions for every basis cochain, so both are memoized
    per algebra and pair (which hash by identity)."""
    return alg.bracket(list(args))


@cache
def _act(rep: Representation, gargs: tuple[int, ...], v: Vec) -> Vec:
    return rep.act(list(gargs), v)


def oracle_coboundary(rep: Representation, f) -> BlockMap:
    """The differential of an (f.blocks+1)-cochain valued in rep's module."""
    alg = rep.algebra
    n, d = alg.n, alg.dim
    if f.source.dim != d:
        raise ValueError("cochain source does not match the algebra")
    if f.target.dim != rep.dim_v:
        raise ValueError("cochain target does not match the module")
    m = f.blocks + 1
    dv = rep.dim_v
    table = {}
    for key in iter_keys(d, n - 1, m):
        X = key[:-1]
        t = key[-1]
        total = vzero(dv)
        # blocks composed into blocks
        for j in range(m):
            sj = Fraction((-1) ** (j + 1))
            for k in range(j + 1, m):
                for i in range(n - 1):
                    w = _bracket(alg, (*X[j], X[k][i]))
                    if _is_zero(w):
                        continue
                    nb = X[k][:i] + (w,) + X[k][i + 1:]
                    rest = list(X[:j]) + list(X[j + 1:k]) + [nb] + list(X[k + 1:])
                    v = apply_map(f, rest, t)
                    if not _is_zero(v):
                        total = vadd(total, vscale(v, sj))
            # block bracketed with the tail
            w = _bracket(alg, (*X[j], t))
            if not _is_zero(w):
                rest = list(X[:j]) + list(X[j + 1:])
                total = vadd(total, vscale(apply_map(f, rest, w), sj))
            # action on the value
            rest = list(X[:j]) + list(X[j + 1:])
            v = apply_map(f, rest, t)
            if not _is_zero(v):
                total = vadd(total, vscale(_act(rep, X[j], v), -sj))
        # action of the last block's entries paired with the tail
        last = X[m - 1]
        for i in range(n - 1):
            v = apply_map(f, list(X[:m - 1]), last[i])
            if _is_zero(v):
                continue
            w = _act(rep, (*last[:i], *last[i + 1:], t), v)
            total = vadd(total, vscale(w, Fraction((-1) ** (n + m - i))))
        if not _is_zero(total):
            table[key] = total
    return BlockMap(n, m, f.source, f.target, table)


def oracle_coboundary_matrix(rep: Representation, m: int) -> Matrix:
    """Matrix of the differential from m-cochains to (m+1)-cochains."""
    alg = rep.algebra
    d, n, dv = alg.dim, alg.n, rep.dim_v
    source = SpaceSpec(d, "g")
    target = SpaceSpec(dv, "V")
    images = (oracle_coboundary(rep, BlockMap(n, m - 1, source, target,
                                              {key: basis_vec(dv, c)})).table
              for key, c in cochain_basis(d, n, m, dv))
    return _scatter(images, cochain_basis(d, n, m + 1, dv))


def _circ(P, Q, key) -> Vec:
    """(P∘Q)(key): Q's value inserted into each slot of P, blocks shuffled."""
    p, q = P.blocks, Q.blocks
    n = P.n
    X = key[:-1]
    x = key[-1]
    total = vzero(P.target.dim)
    # insertion of Q's value into one block of P
    for k in range(1, p + 1):
        base = Fraction((-1) ** ((k - 1) * q))
        consumed = X[k + q - 1]
        restb = list(X[k + q:])
        for perm, sgn in shuffles(k - 1, q):
            front = [X[perm[t]] for t in range(k - 1)]
            qargs = [list(X[perm[t]]) for t in range(k - 1, k - 1 + q)]
            coeff = base * sgn
            for i in range(n - 1):
                inner = apply_map(Q, qargs, consumed[i])
                if _is_zero(inner):
                    continue
                nb = list(consumed)
                nb[i] = inner
                val = apply_map(P, front + [nb] + restb, x)
                if not _is_zero(val):
                    total = vadd(total, vscale(val, coeff))
    # Q's value fed to P's tail
    base = Fraction((-1) ** (p * q))
    for perm, sgn in shuffles(p, q):
        pargs = [X[perm[t]] for t in range(p)]
        qargs = [list(X[perm[t]]) for t in range(p, p + q)]
        inner = apply_map(Q, qargs, x)
        if _is_zero(inner):
            continue
        val = apply_map(P, pargs, inner)
        if not _is_zero(val):
            total = vadd(total, vscale(val, base * sgn))
    return total


def oracle_graded_bracket(P, Q) -> LazyMap:
    """Graded commutator P∘Q − (−1)^{pq} Q∘P, evaluated lazily.  For Q = P
    the two compositions coincide, and P∘P is evaluated once per key."""
    if P.source.dim != Q.source.dim or P.n != Q.n:
        raise ValueError("bracket arguments live on different spaces")
    sign = Fraction((-1) ** (P.blocks * Q.blocks))

    def fn(key) -> Vec:
        pq = _circ(P, Q, key)
        qp = pq if Q is P else _circ(Q, P, key)
        return pq if _is_zero(qp) else vsub(pq, vscale(qp, sign))

    return LazyMap(P.n, P.blocks + Q.blocks, P.source, P.target, fn)


@cache
def oracle_bracket_table(P: BlockMap, Q: BlockMap) -> BlockMap:
    """The table of `oracle_graded_bracket(P, Q)`.  Block maps compare and
    hash by their tables, so a pair of maps met twice in one test session is
    evaluated once."""
    return materialize(oracle_graded_bracket(P, Q))


def oracle_derived_bracket(ctx: DerivedContext, cochains) -> BlockMap:
    """`derived_bracket` with every bracket taken by the oracle."""
    acc = ctx.delta
    for c in cochains:
        acc = oracle_graded_bracket(acc, ctx.lift(c))
    return project_operator_part(materialize(acc))


# ---------------------------------------------------------------------------
# pairs: g ⋉ V, the representation identities, raising, the center
# ---------------------------------------------------------------------------

def oracle_semidirect_bracket(rep: Representation, args: Sequence[Vec]) -> Vec:
    """Semidirect product bracket of sum-space vectors (g coordinates first):
    ([x_1..x_n], Σ_i (−1)^{n−1−i} ρ(x_1..x̂_i..x_n)u_i)."""
    alg = rep.algebra
    n, dg, dv = alg.n, alg.dim, rep.dim_v
    xs = [a[:dg] for a in args]
    vpart = vzero(dv)
    for i, a in enumerate(args):
        u = a[dg:]
        if viszero(u):
            continue
        term = rep.act(xs[:i] + xs[i + 1:], u)
        vpart = vadd(vpart, vscale(term, Fraction((-1) ** (n - 1 - i))))
    return alg.bracket(xs) + vpart


def oracle_semidirect_product(rep: Representation) -> NLieAlgebra:
    alg = rep.algebra
    n, dg, dv = alg.n, alg.dim, rep.dim_v
    total = dg + dv
    space = sum_space(dg, dv)
    structure = {}
    for key in itertools.combinations(range(total), n):
        v = oracle_semidirect_bracket(rep, [basis_vec(total, i) for i in key])
        if not viszero(v):
            structure[key] = v
    return NLieAlgebra(n, space, structure)


def oracle_is_central(rep: Representation, x) -> bool:
    """[block, x] = 0 in g ⋉ V for every basis block."""
    total = rep.algebra.dim + rep.dim_v
    x = vector(x)
    if len(x) != total:
        raise ValueError("central element must live in the sum space")
    return all(viszero(oracle_semidirect_bracket(rep, [basis_vec(total, i) for i in block] + [x]))
               for block in itertools.combinations(range(total), rep.n - 1))


def oracle_center(rep: Representation) -> list[Vec]:
    """Kernel of the stacked ad-matrices of every basis block of g ⋉ V."""
    total = rep.algebra.dim + rep.dim_v
    rows = []
    for block in itertools.combinations(range(total), rep.n - 1):
        base = [basis_vec(total, i) for i in block]
        cols = [oracle_semidirect_bracket(rep, base + [basis_vec(total, j)])
                for j in range(total)]
        rows += [[col[c] for col in cols] for c in range(total)]
    if not rows:
        return [basis_vec(total, j) for j in range(total)]
    return kernel_basis(Matrix(rows))


def oracle_check_representation(rep: Representation) -> CheckReport:
    """Both representation identities as matrix equations, exhaustively on
    basis tuples."""
    alg = rep.algebra
    n, d = alg.n, alg.dim
    # commutator identity: [rho(X), rho(Y)] = rho(X o Y)
    for xs in itertools.combinations(range(d), n - 1):
        rx = rep.operator(list(xs))
        for ys in itertools.combinations(range(d), n - 1):
            ry = rep.operator(list(ys))
            lhs = rx.matmul(ry) - ry.matmul(rx)
            rhs = Matrix.zero(rep.dim_v, rep.dim_v)
            for i in range(n - 1):
                args: list[Element] = list(ys)
                args[i] = alg.bracket([*xs, ys[i]])
                rhs = rhs + rep.operator(args)
            if lhs != rhs:
                return CheckReport(False, witness=(xs, ys),
                                   detail="commutator identity fails")
    # derivation-style identity against the bracket
    for xs in itertools.combinations(range(d), n - 2):
        for ys in itertools.combinations(range(d), n):
            lhs_m = rep.operator([*xs, alg.bracket(list(ys))])
            rhs_m = Matrix.zero(rep.dim_v, rep.dim_v)
            for i in range(n):
                rest = ys[:i] + ys[i + 1:]
                sign = Fraction((-1) ** (n - 1 - i))
                rhs_m = rhs_m + rep.operator(list(rest)).matmul(
                    rep.operator([*xs, ys[i]])).scale(sign)
            if lhs_m != rhs_m:
                return CheckReport(False, witness=(xs, ys),
                                   detail="bracket compatibility fails")
    return CheckReport(True)


def oracle_adjoint_rep(alg: NLieAlgebra) -> Representation:
    action = {}
    for block in blocks_of(alg.dim, alg.n - 1):
        cols = [alg.bracket([*block, j]) for j in range(alg.dim)]
        mat = Matrix.from_columns(cols) if alg.dim else Matrix.zero(0, 0)
        if not mat.is_zero():
            action[block] = mat
    return Representation(alg, SpaceSpec(alg.dim, "g"), action)


def oracle_raise_arity(alg: NLieAlgebra, f) -> NLieAlgebra:
    """[x_0..x_n] = Σ_i (−1)^i f(x_i)[x_0..x̂_i..x_n] on every (n+1)-subset."""
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
            val = vadd(val, vscale(alg.bracket(list(rest)), c * Fraction((-1) ** i)))
        if not viszero(val):
            structure[key] = val
    return NLieAlgebra(n + 1, alg.space, structure)


def oracle_raise_arity_rep(rep: Representation, f: Sequence) -> Representation:
    """The raised algebra and its companion action on the same module:
    ρ'(x_1..x_n) = Σ_i (−1)^(i−1) f(x_i) ρ(x_1..x̂_i..x_n)."""
    fv = vector(f)
    alg = rep.algebra
    raised = oracle_raise_arity(alg, fv)
    n, d = alg.n, alg.dim
    action = {}
    for block in itertools.combinations(range(d), n):
        mat = Matrix.zero(rep.dim_v, rep.dim_v)
        for i in range(n):
            c = fv[block[i]]
            if c == 0:
                continue
            rest = block[:i] + block[i + 1:]
            mat = mat + rep.operator(list(rest)).scale(c * Fraction((-1) ** i))
        if not mat.is_zero():
            action[block] = mat
    return Representation(raised, rep.module, action)


def oracle_lift_cochain(p: BlockMap, f) -> BlockMap:
    """Raise a cochain one arity: interior products by the covector.

    Degree-1 cochains (no blocks) pass through unchanged.  Above that, the
    last block and the tail are read as one (n+1)-wedge, and the covector
    drops one element from every block and from that wedge, with the sign
    of the dropped positions; what is left of the wedge splits into the
    last block and the tail.
    """
    fv = vector(f)
    n = p.n
    b = p.blocks
    if b == 0:
        return BlockMap(n + 1, 0, p.source, p.target, dict(p.table))
    d = p.source.dim
    table = {}
    for key in iter_keys(d, n, b):
        wedges = key[:-2] + (key[-2] + (key[-1],),)
        total = vzero(p.target.dim)
        for picks in itertools.product(*(range(len(w)) for w in wedges)):
            coeff = Fraction((-1) ** sum(picks))
            for w, i in zip(wedges, picks):
                coeff *= fv[w[i]]
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            *blocks, last = (w[:i] + w[i + 1:] for w, i in zip(wedges, picks))
            total = vadd(total, vscale(p.value((*blocks, last[:-1], last[-1])), coeff))
        if not viszero(total):
            table[key] = total
    return BlockMap(n + 1, b, p.source, p.target, table)


def oracle_lift_operator_cochain(c, t, f, x0):
    """Raise an operator cochain: wedge with the central element at degree 0,
    identity at degree 1, covector-weighted interior products above.  Only
    the degree-0 rule reads x0."""
    if isinstance(c, Wedge):
        if x0 is None or not is_central(t.rep, x0):
            raise ValueError("x0 is not central in the semidirect product")
        dg = t.algebra.dim
        xi = vector(x0)[:dg]
        n = t.algebra.n
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for block, cf in c.coeffs.items():
            for j in range(dg):
                if xi[j] == 0:
                    continue
                s, sb = sort_with_sign(block + (j,))
                if s == 0:
                    continue
                k = coeffs.get(sb, Fraction(0)) + cf * xi[j] * s
                coeffs[sb] = k
        return Wedge(dg, n, {k: v for k, v in coeffs.items() if v != 0})
    return lift_cochain(c, induced_covector(t, f))


def oracle_pair_chain_map_holds(rep, f, p):
    """Differential-then-lift equals lift-then-differential for pair cochains."""
    raised = raise_arity_rep(rep, f)
    lhs = coboundary(raised, lift_cochain(p, f))
    rhs = lift_cochain(coboundary(rep, p), f)
    return lhs == rhs


def oracle_operator_chain_map_holds(t, f, x0, c):
    """Same commuting square for operator cochains, degree 0 included."""
    lifted = lift_operator(t, f)
    lhs = rb_coboundary(lifted, oracle_lift_operator_cochain(c, t, f, x0))
    rhs_low = rb_coboundary(t, c)
    rhs = oracle_lift_operator_cochain(rhs_low, t, f, x0)
    return lhs == rhs


# ---------------------------------------------------------------------------
# n-pre-Lie structures and symplectic forms
# ---------------------------------------------------------------------------

def oracle_prod(p: NPreLie, args) -> Vec:
    return apply_map(p.product, [list(args[:-1])], args[-1])


def oracle_commutator(p: NPreLie, args) -> Vec:
    """Σ_i (−1)^(n−1−i) x_1..x̂_i..x_n·x_i."""
    out = vzero(p.dim)
    for i in range(p.n):
        rest = list(args[:i]) + list(args[i + 1:])
        out = vadd(out, vscale(oracle_prod(p, [*rest, args[i]]),
                               Fraction((-1) ** (p.n - 1 - i))))
    return out


def oracle_sub_adjacent(p: NPreLie) -> NLieAlgebra:
    structure = {}
    for key in itertools.combinations(range(p.dim), p.n):
        v = oracle_commutator(p, list(key))
        if not viszero(v):
            structure[key] = v
    return NLieAlgebra(p.n, p.space, structure)


def oracle_left_mult_rep(p: NPreLie) -> Representation:
    action = {}
    for block in blocks_of(p.dim, p.n - 1):
        cols = [oracle_prod(p, [*block, j]) for j in range(p.dim)]
        mat = Matrix.from_columns(cols)
        if not mat.is_zero():
            action[block] = mat
    return Representation(oracle_sub_adjacent(p), p.space, action)


def oracle_check_n_pre_lie(p: NPreLie) -> CheckReport:
    """Both defining identities; sorted tuples where both sides are
    antisymmetric, full ranges for the remaining slots."""
    n, d = p.n, p.dim
    for xs in itertools.combinations(range(d), n - 1):
        for ys_head in itertools.combinations(range(d), n - 1):
            for yn in range(d):
                ys = (*ys_head, yn)
                lhs = oracle_prod(p, [*xs, oracle_prod(p, list(ys))])
                rhs = vzero(d)
                for i in range(n - 1):
                    args: list[Element] = list(ys)
                    args[i] = oracle_commutator(p, [*xs, ys[i]])
                    rhs = vadd(rhs, oracle_prod(p, args))
                rhs = vadd(rhs, oracle_prod(p, [*ys[:-1], oracle_prod(p, [*xs, ys[-1]])]))
                if lhs != rhs:
                    return CheckReport(False, witness=(xs, ys),
                                       lhs=lhs, rhs=rhs, detail="first identity fails")
    for ys in itertools.combinations(range(d), n):
        for xs_head in itertools.combinations(range(d), n - 2):
            for xlast in range(d):
                xs = (*xs_head, xlast)
                lhs = oracle_prod(p, [oracle_commutator(p, list(ys)), *xs])
                rhs = vzero(d)
                for i in range(n):
                    rest = ys[:i] + ys[i + 1:]
                    inner = oracle_prod(p, [ys[i], *xs])
                    term = oracle_prod(p, [*rest, inner])
                    rhs = vadd(rhs, vscale(term, Fraction((-1) ** (n - 1 - i))))
                if lhs != rhs:
                    return CheckReport(False, witness=(ys, xs),
                                       lhs=lhs, rhs=rhs, detail="second identity fails")
    return CheckReport(True)


def _omega(form: SymplecticForm, x: Vec, y: Vec) -> Fraction:
    """ω(x, y) = Σᵢⱼ xᵢ ωᵢⱼ yⱼ over the nonzero coordinates of x and y."""
    return sum((xi * wij * yj for xi, row in zip(x, form.omega.entries) if xi
                for wij, yj in zip(row, y) if yj), _ZERO)


def oracle_check_symplectic(alg: NLieAlgebra, form: SymplecticForm) -> CheckReport:
    """Compatibility as the pairing identity ω([x₁..xₙ], y) =
    −Σᵢ (−1)^(n−i−1) ω(xᵢ, [x₁..x̂ᵢ..xₙ, y]) on basis tuples, after the shape,
    skew and rank checks; a failure names (xs, y)."""
    d = alg.dim
    w = form.omega
    if (w.rows, w.cols) != (d, d):
        return CheckReport(False, detail="form shape mismatch")
    if w.transpose() != w.scale(Fraction(-1)):
        return CheckReport(False, detail="form not skew-symmetric")
    if dense_rank_and_kernel(w)[0] != d:
        return CheckReport(False, detail="form degenerate")
    n = alg.n
    for xs in itertools.combinations(range(d), n):
        bx = alg.bracket(list(xs))
        for y in range(d):
            ey = basis_vec(d, y)
            lhs = _omega(form, bx, ey)
            rhs = _ZERO
            for i in range(n):
                rest = list(xs[:i]) + list(xs[i + 1:])
                inner = alg.bracket([*rest, y])
                rhs -= Fraction((-1) ** (n - i - 1)) * _omega(form, basis_vec(d, xs[i]), inner)
            if lhs != rhs:
                return CheckReport(False, witness=(xs, y), detail="compatibility fails")
    return CheckReport(True)


def oracle_symplectic_to_pre_lie(alg: NLieAlgebra, form: SymplecticForm) -> NPreLie:
    """The compatible product defined by pairing against bracket-with-tail."""
    d, n = alg.dim, alg.n
    wt = form.omega.transpose()
    table = {}
    for block in blocks_of(d, n - 1):
        for t in range(d):
            # omega(c, e_y) = -omega(e_t, [block..., e_y]) for all y
            rhs = []
            for y in range(d):
                inner = alg.bracket([*block, y])
                rhs.append(-_omega(form, basis_vec(d, t), inner))
            c = solve_linear(wt, rhs)
            if c is None:
                raise ValueError("degenerate form")
            if not viszero(c):
                table[(block, t)] = c
    space = alg.space
    return NPreLie(n, space, BlockMap(n, 1, space, space, table))


# ---------------------------------------------------------------------------
# relative Rota-Baxter operators
# ---------------------------------------------------------------------------

def graph(t: RBOperator, u: int) -> Vec:
    """(Tu, u) in g ⊕ V."""
    return t.matrix.column(u) + basis_vec(t.rep.dim_v, u)


def twist(t: RBOperator, w: Vec) -> Vec:
    """x − Tu in g for w = (x, u) in g ⊕ V."""
    dg = t.algebra.dim
    return vsub(w[:dg], t.matrix.mul_vec(w[dg:]))


def oracle_check_rb(rep: Representation, t: Matrix) -> CheckReport:
    """The graph of T is closed under the semidirect bracket: on all basis
    n-tuples of V, g-part = T(V-part) of the bracket of graph vectors."""
    dg = rep.algebra.dim
    op = RBOperator(rep, t)
    for vs in itertools.combinations(range(rep.dim_v), rep.n):
        b = oracle_semidirect_bracket(rep, [graph(op, v) for v in vs])
        lhs, rhs = b[:dg], t.mul_vec(b[dg:])
        if lhs != rhs:
            return CheckReport(False, witness=vs, lhs=lhs, rhs=rhs,
                               detail="operator identity fails")
    return CheckReport(True)


def oracle_coefficient_residual(jet_ops, base, s, vs) -> Vec:
    """LHS − RHS of the order-s coefficient equation at a basis tuple, summed
    over the compositions of s into coefficients the jet has.  Operators
    compare and hash by their pair and matrix, so a jet met twice in one
    test session is evaluated once."""
    return _coefficient_residual_of(tuple(jet_ops), base, s, tuple(vs))


@cache
def _coefficient_residual_of(jet_ops: tuple[Matrix, ...], base: RBOperator, s: int,
                             vs: tuple[int, ...]) -> Vec:
    rep = base.rep
    alg = rep.algebra
    n, dg = alg.n, alg.dim
    total = vzero(dg)
    for comp in compositions(s, n, len(jet_ops) - 1):
        imgs = [jet_ops[comp[j]].column(vs[j]) for j in range(n)]
        total = vadd(total, alg.bracket(imgs))
        inner = vzero(rep.dim_v)
        for k in range(n):
            survivors = [j for j in range(n) if j != k]
            args = [jet_ops[comp[p + 1]].column(vs[j])
                    for p, j in enumerate(survivors)]
            inner = vadd(inner, vscale(rep.act(args, vs[k]),
                                       Fraction((-1) ** (n - 1 - k))))
        total = vsub(total, jet_ops[comp[0]].mul_vec(inner))
    return total


def oracle_check_order(jet: DeformationJet) -> CheckReport:
    """The first order s and increasing V-tuple whose residual is nonzero."""
    ops, base = jet.operators(), jet.base
    n, dv = base.algebra.n, base.rep.dim_v
    for s in range(jet.order + 1):
        for vs in itertools.combinations(range(dv), n):
            res = _coefficient_residual(ops, base, s, vs)
            if not viszero(res):
                return CheckReport(False, witness=(s, vs), lhs=res,
                                   detail=f"order-{s} coefficient equation fails")
    return CheckReport(True)


def oracle_obstruction(jet: DeformationJet) -> ObstructionClass:
    """The degree-2 cochain blocking extension, evaluated at every key, with
    its cocycle property."""
    base = jet.base
    n, dg, dv = base.algebra.n, base.algebra.dim, base.rep.dim_v
    ops = jet.operators()
    m = jet.order
    table = {}
    for key in iter_keys(dv, n - 1, 1):
        vs = key[0] + (key[-1],)
        val = _coefficient_residual(ops, base, m + 1, vs)
        if not viszero(val):
            table[key] = val
    theta = BlockMap(n, 1, SpaceSpec(dv, "V"), SpaceSpec(dg, "g"), table)
    checked = rb_coboundary(base, theta).is_zero()
    return ObstructionClass(jet, theta, checked)


def _act_sum(rep: Representation, tvs: Sequence[Vec], vs: Sequence[int]) -> Vec:
    """Σ_i (−1)^{n−1−i} ρ(Tv_1, .., Tv_i omitted, .., Tv_n) v_i, in V."""
    n = len(vs)
    total = vzero(rep.dim_v)
    for i in range(n):
        inner = rep.act(tvs[:i] + tvs[i + 1:], vs[i])
        total = vadd(total, vscale(inner, Fraction((-1) ** (n - 1 - i))))
    return total


def oracle_induced_bracket(t: RBOperator) -> NLieAlgebra:
    """The bracket on V transported through the operator."""
    rep = t.rep
    n, dv = rep.algebra.n, rep.dim_v
    structure = {}
    for key in itertools.combinations(range(dv), n):
        val = _act_sum(rep, [t.matrix.column(v) for v in key], key)
        if not viszero(val):
            structure[key] = val
    return NLieAlgebra(n, SpaceSpec(dv, "V"), structure)


def oracle_pre_lie_of_operator(t: RBOperator) -> NPreLie:
    """ρ(Tv_1..Tv_{n−1})v_n on every basis key of V."""
    rep = t.rep
    n, dv = rep.algebra.n, rep.dim_v
    space = SpaceSpec(dv, "V")
    table = {}
    for block in blocks_of(dv, n - 1):
        tvs = [t.matrix.column(v) for v in block]
        for tail in range(dv):
            val = rep.act(tvs, tail)
            if not viszero(val):
                table[(block, tail)] = val
    return NPreLie(n, space, BlockMap(n, 1, space, space, table))


def oracle_operator_rep(t: RBOperator) -> Representation:
    """ρ_T on g: ρ_T(u_1..u_{n-1})x is the twist of the semidirect bracket of
    the graph vectors of the u_i with (x, 0)."""
    rep = t.rep
    dg, dv = rep.algebra.dim, rep.dim_v
    total = dg + dv
    action = {}
    for block in blocks_of(dv, rep.n - 1):
        graphs = [graph(t, u) for u in block]
        cols = [twist(t, oracle_semidirect_bracket(rep, [*graphs, basis_vec(total, x)]))
                for x in range(dg)]
        mat = Matrix.from_columns(cols)
        if not mat.is_zero():
            action[block] = mat
    return Representation(oracle_induced_bracket(t), SpaceSpec(dg, "g"), action)


def oracle_wedge_coboundary(t: RBOperator, w: Wedge) -> BlockMap:
    """v -> T ρ(X)v − [X, Tv] on degree-0 cochains X."""
    rep = t.rep
    alg = rep.algebra
    n, dg, dv = alg.n, alg.dim, rep.dim_v
    if (w.dim, w.size) != (dg, n - 1):
        raise ValueError("wedge shape mismatch")
    table = {}
    for u in range(dv):
        total = vzero(dg)
        tv = t.matrix.column(u)
        for block, c in w.coeffs.items():
            term = vsub(t.matrix.mul_vec(rep.act(list(block), u)),
                        alg.bracket([*block, tv]))
            total = vadd(total, vscale(term, c))
        if not viszero(total):
            table[(u,)] = total
    return BlockMap(n, 0, SpaceSpec(dv, "V"), SpaceSpec(dg, "g"), table)


def oracle_derived_bracket_tt_direct(ctx: DerivedContext, t: Matrix) -> BlockMap:
    """n!·([Tv_1..Tv_n] − T Σ(−1)^{n−1−i} ρ(..)v_i) at every basis key."""
    rep = ctx.rep
    alg = rep.algebra
    n, dv = ctx.n, ctx.dim_v
    nf = Fraction(factorial(n))
    table = {}
    for key in iter_keys(dv, n - 1, 1):
        vs = list(key[0]) + [key[-1]]
        tvs = [t.column(v) for v in vs]
        val = vscale(vsub(alg.bracket(tvs), t.mul_vec(_act_sum(rep, tvs, vs))), nf)
        if not viszero(val):
            table[key] = val
    return BlockMap(n, 1, SpaceSpec(dv, "V"), SpaceSpec(ctx.dim_g, "g"), table)


# ---------------------------------------------------------------------------
# the CLI's pair verdicts
# ---------------------------------------------------------------------------

def oracle_pair_entries(rep: Representation, prefix: str = "") -> list[dict]:
    """Both direct checkers, always."""
    return [_entry(prefix + "filippov", check_filippov(rep.algebra)),
            _entry(prefix + "representation", check_representation(rep))]
