"""Relative Rota-Baxter operators, derived brackets, operator cohomology.

An operator cochain of degree m >= 1 is a BlockMap with m-1 blocks over the
module V valued in g; degree 0 is a :class:`Wedge`, an element of
∧^{n-1}g.  The n-ary derived bracket lifts its arguments to g ⊕ V, iterates
the graded bracket against the combined structure map, and projects back.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence, Union

from .combinat import blocks_of
from .core import (CheckReport, NLieAlgebra, NPreLie, Representation,
                   semidirect_blockmap)
from .linalg import Matrix, Vec, basis_vec, vadd, viszero, vscale, vsub, vzero
from .multilinear import (BlockMap, SpaceSpec, iter_keys,
                          lift_operator_map, project_operator_part)
from .cochain import (_scatter, coboundary, coboundary_matrix, cochain_basis,
                      cohomology_table, graded_bracket)


@dataclass
class Wedge:
    """A degree-0 operator cochain: an element of ∧^{size}g."""
    dim: int
    size: int
    coeffs: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, c in self.coeffs.items():
            if tuple(sorted(key)) != tuple(key) or len(set(key)) != self.size:
                raise ValueError(f"wedge key not strictly increasing: {key}")
            c = Fraction(c)
            if c != 0:
                clean[tuple(key)] = c
        self.coeffs = clean

    def add(self, other: "Wedge") -> "Wedge":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return Wedge(self.dim, self.size, out)

    def scale(self, c: Fraction) -> "Wedge":
        return Wedge(self.dim, self.size, {k: c * v for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, Wedge)
                and (self.dim, self.size) == (other.dim, other.size)
                and self.coeffs == other.coeffs)


def wedge_basis(dim: int, size: int) -> tuple[tuple[int, ...], ...]:
    return blocks_of(dim, size)


@dataclass
class RBOperator:
    """A candidate relative Rota-Baxter operator T: V -> g over a pair."""
    rep: Representation
    matrix: Matrix

    def __post_init__(self):
        dg = self.rep.algebra.dim
        dv = self.rep.dim_v
        if (self.matrix.rows, self.matrix.cols) != (dg, dv):
            raise ValueError("operator matrix must be dim(g) x dim(V)")

    @property
    def algebra(self) -> NLieAlgebra:
        return self.rep.algebra

    def apply(self, v: Union[int, Vec]) -> Vec:
        vv = basis_vec(self.rep.dim_v, v) if isinstance(v, int) else v
        return self.matrix.mul_vec(vv)


def _act_sum(rep: Representation, tvs: Sequence[Vec], vs: Sequence[int]) -> Vec:
    """Σ_i (−1)^{n−1−i} ρ(Tv_1, .., Tv_i omitted, .., Tv_n) v_i, in V."""
    n = len(vs)
    total = vzero(rep.dim_v)
    for i in range(n):
        inner = rep.act(tvs[:i] + tvs[i + 1:], vs[i])
        total = vadd(total, vscale(inner, Fraction((-1) ** (n - 1 - i))))
    return total


def check_rb(rep: Representation, t: Matrix) -> CheckReport:
    """The defining identity on all basis n-tuples of V, with witness."""
    alg = rep.algebra
    n, dv = alg.n, rep.dim_v
    op = RBOperator(rep, t)
    for vs in itertools.combinations(range(dv), n):
        tvs = [op.apply(v) for v in vs]
        lhs = alg.bracket(tvs)
        rhs = t.mul_vec(_act_sum(rep, tvs, vs))
        if lhs != rhs:
            return CheckReport(False, witness=vs, lhs=lhs, rhs=rhs,
                               detail="operator identity fails")
    return CheckReport(True)


def matrix_to_cochain(rep: Representation, t: Matrix) -> BlockMap:
    """A linear map V -> g as a degree-1 operator cochain (0 blocks)."""
    src = SpaceSpec(rep.dim_v, "V")
    tgt = SpaceSpec(rep.algebra.dim, "g")
    table = {}
    for u in range(rep.dim_v):
        col = t.column(u)
        if not viszero(col):
            table[(u,)] = col
    return BlockMap(rep.algebra.n, 0, src, tgt, table)


class DerivedContext:
    """Caches the combined structure lift used by every derived bracket."""

    def __init__(self, rep: Representation):
        self.rep = rep
        self.n = rep.algebra.n
        self.dim_g = rep.algebra.dim
        self.dim_v = rep.dim_v
        self.delta = semidirect_blockmap(rep)

    def lift(self, c: BlockMap) -> BlockMap:
        return lift_operator_map(c, self.dim_g)


def derived_bracket(ctx: DerivedContext, cochains: Sequence[BlockMap]) -> BlockMap:
    """n-fold derived bracket of operator cochains, projected back to V-inputs."""
    n = ctx.n
    if len(cochains) != n:
        raise ValueError(f"derived bracket takes exactly {n} arguments")
    acc = ctx.delta
    for c in cochains:
        acc = graded_bracket(acc, ctx.lift(c))
    return project_operator_part(acc)


def derived_bracket_tt_direct(ctx: DerivedContext, t: Matrix) -> BlockMap:
    """Fast path for the bracket of n copies of an operator candidate.

    Equals n!·([Tv_1..Tv_n] − Σ(−1)^{n-i} T ρ(..)(v_i)) entrywise; kept as an
    independent route and cross-checked against the generic one in tests.
    """
    rep = ctx.rep
    alg = rep.algebra
    n, dv = ctx.n, ctx.dim_v
    op = RBOperator(rep, t)
    src = SpaceSpec(dv, "V")
    tgt = SpaceSpec(ctx.dim_g, "g")
    nf = Fraction(factorial(n))
    table = {}
    for key in iter_keys(dv, n - 1, 1):
        vs = list(key[0]) + [key[-1]]
        tvs = [op.apply(v) for v in vs]
        val = vscale(vsub(alg.bracket(tvs), t.mul_vec(_act_sum(rep, tvs, vs))), nf)
        if not viszero(val):
            table[key] = val
    return BlockMap(n, 1, src, tgt, table)


def check_rb_mc(ctx: DerivedContext, t: Matrix) -> bool:
    """Whether the derived bracket of n copies of T vanishes."""
    tc = matrix_to_cochain(ctx.rep, t)
    return derived_bracket(ctx, [tc] * ctx.n).is_zero()


def twisted_bracket(ctx: DerivedContext, t: RBOperator, k: int,
                    cochains: Sequence[BlockMap]) -> BlockMap:
    """k-ary bracket of the operator-twisted structure: fill with T, rescale."""
    n = ctx.n
    if len(cochains) != k:
        raise ValueError("argument count must equal k")
    blocks = 1 + sum(c.blocks for c in cochains)
    if k > n:
        return BlockMap(n, blocks, SpaceSpec(ctx.dim_v, "V"),
                        SpaceSpec(ctx.dim_g, "g"))
    tc = matrix_to_cochain(ctx.rep, t.matrix)
    full = derived_bracket(ctx, [tc] * (n - k) + list(cochains))
    return full.scale(Fraction(1, factorial(n - k)))


def twisted_mc_holds(ctx: DerivedContext, t: RBOperator, tprime: Matrix) -> bool:
    """Maurer-Cartan equation of the twisted structure for a second operator."""
    n = ctx.n
    tpc = matrix_to_cochain(ctx.rep, tprime)
    total: Optional[BlockMap] = None
    for k in range(1, n + 1):
        term = twisted_bracket(ctx, t, k, [tpc] * k).scale(Fraction(1, factorial(k)))
        total = term if total is None else total.add(term)
    return total.is_zero()


# ---------------------------------------------------------------------------
# structures induced by a (validated) operator
# ---------------------------------------------------------------------------

def induced_bracket(t: RBOperator) -> NLieAlgebra:
    """The bracket on V transported through the operator."""
    rep = t.rep
    alg = rep.algebra
    n, dv = alg.n, rep.dim_v
    space = SpaceSpec(dv, "V")
    structure = {}
    for key in itertools.combinations(range(dv), n):
        val = _act_sum(rep, [t.apply(v) for v in key], key)
        if not viszero(val):
            structure[key] = val
    return NLieAlgebra(n, space, structure)


def pre_lie_of_operator(t: RBOperator) -> NPreLie:
    """The splitting product on V: act by the operator images, last slot free."""
    rep = t.rep
    n, dv = rep.algebra.n, rep.dim_v
    space = SpaceSpec(dv, "V")
    table = {}
    for block in blocks_of(dv, n - 1):
        tvs = [t.apply(v) for v in block]
        mat = rep.operator(tvs)
        for tail in range(dv):
            val = mat.column(tail)
            if not viszero(val):
                table[(block, tail)] = val
    return NPreLie(n, space, BlockMap(n, 1, space, space, table))


def operator_rep(t: RBOperator) -> Representation:
    """Representation of the induced algebra on g attached to the operator."""
    rep = t.rep
    alg = rep.algebra
    n, dg, dv = alg.n, alg.dim, rep.dim_v
    base = induced_bracket(t)
    action = {}
    for block in blocks_of(dv, n - 1):
        tvs = [t.apply(u) for u in block]
        cols = []
        for x in range(dg):
            val = alg.bracket([*tvs, x])
            for i in range(n - 1):
                rest = tvs[:i] + tvs[i + 1:]
                inner = rep.act([*rest, basis_vec(dg, x)], block[i])
                val = vsub(val, vscale(t.matrix.mul_vec(inner),
                                       Fraction((-1) ** (n - 1 - i))))
            cols.append(val)
        mat = Matrix.from_columns(cols)
        if not mat.is_zero():
            action[block] = mat
    return Representation(base, SpaceSpec(dg, "g"), action)


def wedge_coboundary(t: RBOperator, w: Wedge) -> BlockMap:
    """Differential on degree-0 cochains: v -> T ρ(X)v − [X, Tv]."""
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


def rb_coboundary(t: RBOperator, f: Union[Wedge, BlockMap]) -> BlockMap:
    """The operator-cochain differential: the 0-case or the induced-pair case."""
    if isinstance(f, Wedge):
        return wedge_coboundary(t, f)
    return coboundary(operator_rep(t), f)


def operator_cochain_dim(t: RBOperator, m: int) -> int:
    n, dg, dv = t.algebra.n, t.algebra.dim, t.rep.dim_v
    if m == 0:
        return len(wedge_basis(dg, n - 1))
    return len(cochain_basis(dv, n, m, dg))


def wedge_coboundary_matrix(t: RBOperator) -> Matrix:
    """Matrix of the degree-0 differential in the lexicographic bases."""
    n, dg, dv = t.algebra.n, t.algebra.dim, t.rep.dim_v
    images = (wedge_coboundary(t, Wedge(dg, n - 1, {block: Fraction(1)})).table
              for block in wedge_basis(dg, n - 1))
    return _scatter(images, cochain_basis(dv, n, 1, dg))


def rb_coboundary_matrix(t: RBOperator, m: int) -> Matrix:
    if m == 0:
        return wedge_coboundary_matrix(t)
    return coboundary_matrix(operator_rep(t), m)


def rb_cohomology_dim(t: RBOperator, m: int) -> int:
    """Cocycles modulo coboundaries; degree 0 has no coboundaries."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    rows = cohomology_table(lambda k: rb_coboundary_matrix(t, k), max(0, m - 1), m)
    return rows[-1]["dim_H"]


def cochain_to_vector(t: RBOperator, f: BlockMap, m: int) -> Vec:
    """Coordinates of a degree-m (m >= 1) cochain in the lexicographic basis."""
    n, dg, dv = t.algebra.n, t.algebra.dim, t.rep.dim_v
    basis = cochain_basis(dv, n, m, dg)
    return tuple(f.value(key)[c] for key, c in basis)


def vector_to_matrix_cochain(t: RBOperator, x: Vec) -> Matrix:
    """Inverse of cochain_to_vector at degree 1: a V -> g matrix."""
    dg, dv = t.algebra.dim, t.rep.dim_v
    cols = [tuple(x[u * dg + i] for i in range(dg)) for u in range(dv)]
    return Matrix.from_columns(cols)
