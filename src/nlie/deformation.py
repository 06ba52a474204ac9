"""Truncated deformations of an operator, obstruction class, extension.

A jet is the finite coefficient list (T, T_1, ..., T_m) of a polynomial
family; validity means the defining identity holds coefficient-wise at
every order up to m.  The obstruction to adding one more coefficient is a
degree-2 cochain whose class decides solvability of an exact linear system.
It is the order-(m+1) coefficient residual, which is totally antisymmetric
in its n arguments from V, so it is evaluated on increasing V-tuples only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Optional

from .combinat import blocks_of, compositions
from .core import CheckReport
from .linalg import Matrix, solve_linear
from .multilinear import BlockMap, SpaceSpec, split_wedges
from .rota_baxter import (DerivedContext, RBOperator, Wedge, cochain_to_vector,
                          derived_bracket, matrix_to_cochain, nonzero_residuals,
                          rb_coboundary, rb_coboundary_matrix,
                          vector_to_matrix_cochain, wedge_coboundary_matrix)


@dataclass(frozen=True)
class DeformationJet:
    """The jet (T, T_1, ..., T_m) of an operator T; frozen, so its order
    report is computed once however many callers read it."""
    base: RBOperator
    coeffs: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        dg = self.base.algebra.dim
        dv = self.base.rep.dim_v
        for m in self.coeffs:
            if (m.rows, m.cols) != (dg, dv):
                raise ValueError("jet coefficient shape mismatch")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def operators(self) -> list[Matrix]:
        return [self.base.matrix] + list(self.coeffs)

    def extended(self, nxt: Matrix) -> "DeformationJet":
        return DeformationJet(self.base, self.coeffs + (nxt,))

    @cached_property
    def order_report(self) -> CheckReport:
        """:func:`check_order` of this jet, run on first use."""
        return check_order(self)


def _check_one_order(ops: list[Matrix], base: RBOperator, s: int) -> CheckReport:
    """The order-s coefficient equation of the jet operators `ops` on the
    increasing basis tuples of V."""
    for vs, res in nonzero_residuals(ops, base, s):
        return CheckReport(False, witness=(s, vs), lhs=res,
                           detail=f"order-{s} coefficient equation fails")
    return CheckReport(True)


def check_order(jet: DeformationJet) -> CheckReport:
    """Coefficient equations for every order 0..m on basis tuples of V."""
    ops = jet.operators()
    for s in range(jet.order + 1):
        report = _check_one_order(ops, jet.base, s)
        if not report:
            return report
    return CheckReport(True)


def check_infinitesimal(t: RBOperator, t1: Matrix) -> bool:
    """A first-order coefficient is admissible iff it is a 1-cocycle."""
    return rb_coboundary(t, matrix_to_cochain(t.rep, t1)).is_zero()


def find_equivalence(t: RBOperator, t1: Matrix, t1p: Matrix) -> Optional[Wedge]:
    """A gauge wedge X with t1p − t1 = dX, if one exists.

    Inputs must both be 1-cocycles; the search is an exact linear solve over
    the wedge coefficients.
    """
    if not check_infinitesimal(t, t1) or not check_infinitesimal(t, t1p):
        raise ValueError("equivalence inputs must be 1-cocycles")
    diff = matrix_to_cochain(t.rep, t1p - t1)
    rhs = cochain_to_vector(t, diff, 1)
    mat = wedge_coboundary_matrix(t)
    x = solve_linear(mat, rhs)
    if x is None:
        return None
    n, dg = t.algebra.n, t.algebra.dim
    coeffs = {block: c for block, c in zip(blocks_of(dg, n - 1), x) if c != 0}
    return Wedge(dg, n - 1, coeffs)


@dataclass
class ObstructionClass:
    jet: DeformationJet
    theta: BlockMap
    cocycle_checked: bool


def obstruction(jet: DeformationJet) -> ObstructionClass:
    """The degree-2 cochain blocking extension, with its cocycle property.

    θ is the order-(m+1) coefficient residual, totally antisymmetric in its
    n arguments from V.  It is evaluated once per increasing tuple vs and
    split over the keys (vs without vs[k], vs[k]) by sign.  A key whose tail
    repeats a block index stays absent: its residual is zero.
    """
    base = jet.base
    n, dg, dv = base.algebra.n, base.algebra.dim, base.rep.dim_v
    residuals = nonzero_residuals(jet.operators(), base, jet.order + 1)
    table = split_wedges({(vs,): val for vs, val in residuals})
    theta = BlockMap(n, 1, SpaceSpec(dv, "V"), SpaceSpec(dg, "g"), table)
    checked = rb_coboundary(base, theta).is_zero()
    return ObstructionClass(jet, theta, checked)


def obstruction_via_derived(jet: DeformationJet) -> BlockMap:
    """Independent route: 1/n! times the composition-summed derived brackets."""
    base = jet.base
    ctx = DerivedContext(base.rep)
    n = ctx.n
    ops = jet.operators()
    m = jet.order
    total: Optional[BlockMap] = None
    for comp in compositions(m + 1, n, m):
        cochains = [matrix_to_cochain(base.rep, ops[i]) for i in comp]
        term = derived_bracket(ctx, cochains)
        total = term if total is None else total.add(term)
    if total is None:
        return BlockMap(n, 1, SpaceSpec(ctx.dim_v, "V"), SpaceSpec(ctx.dim_g, "g"))
    return total.scale(Fraction(1, factorial(n)))


def extend(ob: ObstructionClass) -> Optional[Matrix]:
    """Next coefficient of the obstruction's jet if its class is trivial, else None.

    Solves d·x = −theta exactly.  Orders 0..m of the extended jet are the
    equations the valid input jet already satisfies, so a returned
    coefficient is re-verified on the new order m+1 only.
    """
    jet = ob.jet
    if not jet.order_report:
        raise ValueError("not a valid jet")
    d1 = rb_coboundary_matrix(jet.base, 1)
    rhs = tuple(-x for x in cochain_to_vector(jet.base, ob.theta, 2))
    x = solve_linear(d1, rhs)
    if x is None:
        return None
    nxt = vector_to_matrix_cochain(jet.base, x)
    if not _check_one_order(jet.extended(nxt).operators(), jet.base, jet.order + 1):
        raise RuntimeError("extension failed re-verification")
    return nxt
