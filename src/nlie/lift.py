"""Raising arity by one: algebras, representations, operators, cochains.

A bracket-annihilating covector turns an n-ary structure into an (n+1)-ary
one; the companion cochain maps commute with the differentials on both
sides, which is what ties the two cohomologies together.  A pair is raised
through g ⋉ V: the raise of its bracket by f ⊕ 0_V, read back as a bracket
on g and an action on V.  The center of g ⋉ V is read off its bracket too.
The chain-map checks take the raised pair from their caller.  Above degree 0
an operator cochain lifts as a cochain of the induced pair; only the
degree-0 wedge rule needs a central element of the semidirect product.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import Optional, Sequence, Union

from .combinat import blocks_of
from .core import NLieAlgebra, Representation, adjoint_rep, semidirect_product
from .linalg import (Coeff, Matrix, Vec, accumulate, as_int, basis_vec, from_coords,
                     kernel_basis, nonzero, vector, vzero)
from .multilinear import BlockMap, iter_keys, wedge_leaves
from .rota_baxter import RBOperator, Wedge, rb_coboundary
from .cochain import coboundary


def unkilled_key(alg: NLieAlgebra, f: Sequence) -> Optional[tuple[int, ...]]:
    """The first structure key whose value the covector does not kill, or None."""
    fv = vector(f)
    if len(fv) != alg.dim:
        raise ValueError("covector length mismatch")
    return next((key for key, val in alg.structure.items()
                 if sum((a * b for a, b in zip(fv, val)), Fraction(0)) != 0), None)


def is_admissible(alg: NLieAlgebra, f: Sequence) -> bool:
    """Whether the covector kills every bracket value."""
    return unkilled_key(alg, f) is None


def admissible_covectors(alg: NLieAlgebra) -> list[Vec]:
    """Basis of the space of bracket-annihilating covectors."""
    vals = list(alg.structure.values())
    if not vals:
        return [basis_vec(alg.dim, i) for i in range(alg.dim)]
    m = Matrix([list(v) for v in vals])
    return kernel_basis(m)


def raise_arity(alg: NLieAlgebra, f: Sequence) -> NLieAlgebra:
    """The (n+1)-ary bracket Σᵢ (−1)^i f(xᵢ)[x₀..x̂ᵢ..xₙ] of an admissible
    covector: each bracket value wedged with f's nonzero coordinates."""
    fv = vector(f)
    if not is_admissible(alg, fv):
        raise ValueError("covector does not annihilate the bracket")
    sums: dict[tuple[int, ...], dict[int, Coeff]] = {}
    for w, val in alg.structure.items():
        for (key,), x in wedge_leaves([(fv, *w)]).items():
            accumulate(sums.setdefault(key, {}), val, x)
    structure = {key: from_coords(coords, alg.dim) for key, coords in sums.items()}
    return NLieAlgebra(alg.n + 1, alg.space, structure)


def raise_arity_rep(rep: Representation, f: Sequence) -> Representation:
    """The raised algebra and its companion action on the same module.

    Both are read off the raise of g ⋉ V by f ⊕ 0_V, which is admissible
    exactly when f is: a key below dim g is a bracket of the raised algebra,
    a key ending in the V index dim g + u gives column u of its block's
    action matrix.
    """
    alg = rep.algebra
    dg, dv = alg.dim, rep.dim_v
    raised = raise_arity(semidirect_product(rep), vector(f) + vzero(dv))
    structure, columns = {}, {}
    for key, val in raised.structure.items():
        if key[-1] < dg:
            structure[key] = val[:dg]
        else:
            columns[(key[:-1], key[-1] - dg)] = val[dg:]
    return Representation.from_columns(NLieAlgebra(alg.n + 1, alg.space, structure),
                                       rep.module, columns)


def lift_operator(t: RBOperator, f: Sequence) -> RBOperator:
    """The same matrix viewed over the raised pair."""
    return RBOperator(raise_arity_rep(t.rep, f), t.matrix)


def induced_covector(t: RBOperator, f: Sequence) -> Vec:
    """The covector on V obtained by composing with the operator."""
    fv = vector(f)
    return tuple(sum((fv[i] * t.matrix[i, u] for i in range(t.algebra.dim)),
                     Fraction(0)) for u in range(t.rep.dim_v))


def lift_cochain(p: BlockMap, f: Sequence) -> BlockMap:
    """Raise a cochain one arity: interior products by the covector.

    Degree-1 cochains (no blocks) pass through unchanged.  Above that, the
    last block and the tail are read as one (n+1)-wedge, and the covector
    drops one element from every block and from that wedge, with the sign
    of the dropped positions; what is left of the wedge splits into the
    last block and the tail.  Each wedge is expanded only over positions
    where the covector is nonzero, and keys absent from the table are
    skipped; the covector is read as ints while integral, and each sum is
    converted to Fractions once.  The chain-map identity with the raised
    differential holds on cochains antisymmetric between the last block and
    the tail (the wedge-tail subspace; see multilinear.tail_antisymmetrize).
    """
    fv = [as_int(x) for x in vector(f)]
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
        acc: dict[int, Coeff] = {}
        for pick in itertools.product(*picks):
            *blocks, last = (w[:i] + w[i + 1:] for w, (i, _) in zip(wedges, pick))
            val = p.table.get((*blocks, last[:-1], last[-1]))
            if val is not None:
                accumulate(acc, val, prod((c for _, c in pick),
                                          start=(-1) ** sum(i for i, _ in pick)))
        if any(acc.values()):
            table[key] = from_coords(acc, p.target.dim)
    return BlockMap(n + 1, b, p.source, p.target, table)


def find_center(rep: Representation) -> list[Vec]:
    """Basis of the center of the semidirect product: the common kernel of
    its ad matrices, read off its bracket table."""
    ad = adjoint_rep(semidirect_product(rep))
    rows = [row for mat in ad.action.values() for row in mat.entries]
    return kernel_basis(Matrix.from_fraction_rows(rows, ad.dim_v))


def is_central(rep: Representation, x0: Sequence) -> bool:
    """Whether [block, x0] = 0 in g ⋉ V for every block: the bracket table's
    entries (block, x) at x in the support of x0, summed by block."""
    x0v = vector(x0)
    sd = semidirect_product(rep)
    if len(x0v) != sd.dim:
        raise ValueError("central element must live in the sum space")
    coeffs = dict(nonzero(x0v))
    images: dict[tuple[int, ...], dict[int, Coeff]] = {}
    for (block, x), val in sd.as_blockmap().table.items():
        if x in coeffs:
            accumulate(images.setdefault(block, {}), val, coeffs[x])
    return not any(any(image.values()) for image in images.values())


def _wedge_with(c: Wedge, t: RBOperator, xi: Vec) -> Wedge:
    """The wedge of c with xi, the g-part of a central element."""
    coeffs: dict[tuple[int, ...], Coeff] = {}
    for block, cf in c.coeffs.items():
        for (key,), x in wedge_leaves([(*block, xi)]).items():
            coeffs[key] = coeffs.get(key, 0) + cf * x
    return Wedge(t.algebra.dim, t.algebra.n, coeffs)


def lift_operator_cochain(c: Wedge, t: RBOperator, x0: Optional[Sequence]) -> Wedge:
    """Raise a degree-0 operator cochain: wedge it with the g-part of the
    central element x0 (higher degrees lift as cochains of the induced pair)."""
    if x0 is None or not is_central(t.rep, x0):
        raise ValueError("x0 is not central in the semidirect product")
    return _wedge_with(c, t, vector(x0)[:t.algebra.dim])


# ---------------------------------------------------------------------------
# chain-map checks (both differentials against both lifts)
# ---------------------------------------------------------------------------

def pair_chain_map_holds(rep: Representation, raised: Representation,
                         f: Sequence, p: BlockMap) -> bool:
    """Differential-then-lift equals lift-then-differential for pair
    cochains; `raised` is `raise_arity_rep(rep, f)`."""
    return coboundary(raised, lift_cochain(p, f)) == lift_cochain(coboundary(rep, p), f)


def _degree0_square_holds(t: RBOperator, lifted: RBOperator, f: Sequence,
                          c: Wedge, lifted_c: Wedge) -> bool:
    """The degree-0 square of a wedge c whose lift is `lifted_c`."""
    # the degree-1 image has no blocks, so lifting it changes only n
    return (rb_coboundary(lifted, lifted_c)
            == lift_cochain(rb_coboundary(t, c), induced_covector(t, f)))


def operator_chain_map_holds(t: RBOperator, lifted: RBOperator, f: Sequence,
                             x0: Optional[Sequence], c: Union[Wedge, BlockMap]) -> bool:
    """Same commuting square for operator cochains, degree 0 included;
    `lifted` is T over `raise_arity_rep(t.rep, f)`.  From degree 1 up it is
    the pair square of the induced pairs, with the covector f∘T."""
    if isinstance(c, Wedge):
        return _degree0_square_holds(t, lifted, f, c, lift_operator_cochain(c, t, x0))
    return pair_chain_map_holds(t.induced_rep, lifted.induced_rep,
                                induced_covector(t, f), c)


def degree0_chain_map_holds(t: RBOperator, lifted: RBOperator, f: Sequence,
                            x0: Sequence) -> bool:
    """The degree-0 square on every basis wedge of ∧^{n−1}g, for an x0 the
    caller found central."""
    dg, k = t.algebra.dim, t.algebra.n - 1
    xi = vector(x0)[:dg]
    wedges = (Wedge(dg, k, {b: Fraction(1)}) for b in blocks_of(dg, k))
    return all(_degree0_square_holds(t, lifted, f, w, _wedge_with(w, t, xi)) for w in wedges)
