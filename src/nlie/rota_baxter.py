"""Relative Rota-Baxter operators, derived brackets, operator cohomology.

T: V -> g is an operator iff its graph {(Tu, u)} is a subalgebra of g ⋉ V:
the g-part of the semidirect bracket of graph vectors is T of its V-part.
That identity is order 0 of the jet residual [Tv₁..Tvₙ] − T(V-part), which
:func:`check_rb` and the deformation checks share; no graph vector is
formed.  ρ_T is the twist x − Tu of the graph bracket with (x, 0) in the
last slot, computed from the bracket and the action on T's columns and
built once per :class:`RBOperator`.  The bracket on V is the sub-adjacent
bracket of the operator's n-pre-Lie product ρ(Tu_1, …, Tu_{n−1})u_n.

An operator cochain of degree m >= 1 is a BlockMap with m-1 blocks over the
module V valued in g; degree 0 is a :class:`Wedge`, an element of
∧^{n-1}g.  The n-ary derived bracket lifts its arguments to g ⊕ V, iterates
the graded bracket against the combined structure map, and projects back.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Iterator, Optional, Sequence, Union

from .combinat import blocks_of, compositions
from .core import (CheckReport, NLieAlgebra, NPreLie, Representation,
                   semidirect_blockmap, sub_adjacent)
from .linalg import (Coeff, Matrix, Vec, accumulate_image, as_int, from_coords,
                     int_columns, nonzero, viszero, vsub)
from .multilinear import (BlockMap, SpaceSpec, apply_coords, lift_operator_map,
                          project_operator_part)
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


wedge_basis = blocks_of  # kept for perfbench/gen.py; the engine calls blocks_of


@dataclass(frozen=True)
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

    @cached_property
    def induced_rep(self) -> Representation:
        """ρ_T, built on first use and kept for the operator's lifetime."""
        return operator_rep(self)


def _coefficient_residual(jet_ops: Sequence[Matrix], base: RBOperator, s: int,
                          vs: tuple[int, ...]) -> Vec:
    """LHS − RHS of the order-s coefficient equation at a basis tuple, summed
    over the compositions of s into coefficients the jet has; order 0 is the
    operator identity of jet_ops[0].

    Each jet column is read once as an int tuple (`int_columns`), and the
    brackets, the signed action sums and their images accumulate on one
    coordinate dict, converted to Fractions once."""
    rep = base.rep
    alg = rep.algebra
    n = alg.n
    cols = [int_columns(op) for op in jet_ops]
    total: dict[int, Coeff] = {}
    for comp in compositions(s, n, len(jet_ops) - 1):
        apply_coords(alg, [[cols[comp[j]][vs[j]] for j in range(n - 1)]],
                     cols[comp[n - 1]][vs[n - 1]], total)
        inner: dict[int, Coeff] = {}
        for k in range(n):
            survivors = [j for j in range(n) if j != k]
            args = [cols[comp[p + 1]][vs[j]] for p, j in enumerate(survivors)]
            apply_coords(rep, [args], vs[k], inner, (-1) ** (n - 1 - k))
        accumulate_image(total, cols[comp[0]], inner.items(), -1)
    return from_coords(total, alg.dim)


def nonzero_residuals(jet_ops: Sequence[Matrix], base: RBOperator, s: int) -> Iterator:
    """(vs, residual) at each increasing n-tuple vs of V, in lexicographic
    order, where the order-s coefficient residual does not vanish."""
    for vs in itertools.combinations(range(base.rep.dim_v), base.algebra.n):
        res = _coefficient_residual(jet_ops, base, s, vs)
        if not viszero(res):
            yield vs, res


def check_rb(rep: Representation, t: Matrix) -> CheckReport:
    """The graph of T is closed under the semidirect bracket: on all basis
    n-tuples of V, g-part = T(V-part) of the bracket of graph vectors.

    The verdict is order 0 of the jet residual [Tv₁..Tvₙ] − T(V-part).  At
    the first tuple where it fails, the g-part is the bracket of the images
    and T(V-part) is that bracket minus the residual."""
    for vs, res in nonzero_residuals([t], RBOperator(rep, t), 0):
        lhs = rep.algebra.bracket([t.column(v) for v in vs])
        return CheckReport(False, witness=vs, lhs=lhs, rhs=vsub(lhs, res),
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

def pre_lie_of_operator(t: RBOperator) -> NPreLie:
    """The splitting product on V: act by the operator images, last slot free."""
    rep = t.rep
    n, dv = rep.algebra.n, rep.dim_v
    space = SpaceSpec(dv, "V")
    images = int_columns(t.matrix)
    table = {}
    for block in blocks_of(dv, n - 1):
        tvs = [images[v] for v in block]
        for tail in range(dv):
            val = apply_coords(rep, [tvs], tail)
            if any(val.values()):
                table[(block, tail)] = from_coords(val, dv)
    return NPreLie(n, space, BlockMap(n, 1, space, space, table))


def induced_bracket(t: RBOperator) -> NLieAlgebra:
    """The bracket on V: the sub-adjacent bracket of the operator's product."""
    return sub_adjacent(pre_lie_of_operator(t))


def operator_rep(t: RBOperator) -> Representation:
    """ρ_T on g: ρ_T(u_1..u_{n-1})x is the twist of the semidirect bracket of
    the graph vectors of the u_i with (x, 0), that is
    [Tu_1..Tu_{n-1}, x] − T Σᵢ (−1)^{n−1−i} ρ(Tu_1..T̂uᵢ..Tu_{n-1}, x)uᵢ; the
    leaves with two V indices, zero in g ⋉ V, are never formed.  T's columns
    are read once as int tuples.  Cached as `t.induced_rep`."""
    rep = t.rep
    alg = rep.algebra
    n, dg, dv = alg.n, alg.dim, rep.dim_v
    base = induced_bracket(t)
    images = int_columns(t.matrix)
    columns = {}
    for block in blocks_of(dv, n - 1):
        tus = [images[u] for u in block]
        for x in range(dg):
            col = apply_coords(alg, [tus], x)
            inner: dict[int, Coeff] = {}
            for i in range(n - 1):
                apply_coords(rep, [[*tus[:i], *tus[i + 1:], x]], block[i], inner,
                             (-1) ** (n - 1 - i))
            accumulate_image(col, images, inner.items(), -1)
            columns[(block, x)] = from_coords(col, dg)
    return Representation.from_columns(base, SpaceSpec(dg, "g"), columns)


def wedge_coboundary(t: RBOperator, w: Wedge) -> BlockMap:
    """Differential on degree-0 cochains: v -> T ρ(X)v − [X, Tv], ρ(X)v read
    off X's matrix and T's columns read once as int tuples."""
    rep = t.rep
    alg = rep.algebra
    n, dg, dv = alg.n, alg.dim, rep.dim_v
    if (w.dim, w.size) != (dg, n - 1):
        raise ValueError("wedge shape mismatch")
    src = SpaceSpec(dv, "V")
    tgt = SpaceSpec(dg, "g")
    images = int_columns(t.matrix)
    table = {}
    for u in range(dv):
        total: dict[int, Coeff] = {}
        for block, c in w.coeffs.items():
            c = as_int(c)
            accumulate_image(total, images, nonzero(rep.value((block, u))), c)
            apply_coords(alg, [block], images[u], total, -c)
        if any(total.values()):
            table[(u,)] = from_coords(total, dg)
    return BlockMap(n, 0, src, tgt, table)


def rb_coboundary(t: RBOperator, f: Union[Wedge, BlockMap]) -> BlockMap:
    """The operator-cochain differential: the 0-case or the induced-pair case."""
    if isinstance(f, Wedge):
        return wedge_coboundary(t, f)
    return coboundary(t.induced_rep, f)


def wedge_coboundary_matrix(t: RBOperator) -> Matrix:
    """Matrix of the degree-0 differential in the lexicographic bases."""
    n, dg, dv = t.algebra.n, t.algebra.dim, t.rep.dim_v
    images = (wedge_coboundary(t, Wedge(dg, n - 1, {block: Fraction(1)})).table
              for block in blocks_of(dg, n - 1))
    return _scatter(images, cochain_basis(dv, n, 1, dg))


def rb_coboundary_matrix(t: RBOperator, m: int) -> Matrix:
    if m == 0:
        return wedge_coboundary_matrix(t)
    return coboundary_matrix(t.induced_rep, m)


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
    """Inverse of cochain_to_vector at degree 1: a dim(g) x dim(V) matrix."""
    n, dg, dv = t.algebra.n, t.algebra.dim, t.rep.dim_v
    rows = [[Fraction(0)] * dv for _ in range(dg)]
    for ((u,), i), c in zip(cochain_basis(dv, n, 1, dg), x, strict=True):
        rows[i][u] = c
    return Matrix(rows)
