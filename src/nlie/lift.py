"""Raising arity by one: algebras, representations, operators, cochains.

A bracket-annihilating covector turns an n-ary structure into an (n+1)-ary
one; the companion cochain maps commute with the differentials on both
sides, which is what ties the two cohomologies together.  All of that is
implemented here, including the degree-0 wedge rule that needs a central
element of the semidirect product.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence, Union

from .combinat import sort_with_sign
from .core import (NLieAlgebra, Representation, semidirect_bracket)
from .linalg import (Matrix, Vec, basis_vec, kernel_basis, vadd, vector,
                     viszero, vscale, vzero)
from .multilinear import BlockMap, iter_keys
from .rota_baxter import RBOperator, Wedge, rb_coboundary
from .cochain import coboundary


def is_admissible(alg: NLieAlgebra, f: Sequence) -> bool:
    """Whether the covector kills every bracket value."""
    fv = vector(f)
    if len(fv) != alg.dim:
        raise ValueError("covector length mismatch")
    for val in alg.structure.values():
        if sum((a * b for a, b in zip(fv, val)), Fraction(0)) != 0:
            return False
    return True


def admissible_covectors(alg: NLieAlgebra) -> list[Vec]:
    """Basis of the space of bracket-annihilating covectors."""
    vals = list(alg.structure.values())
    if not vals:
        return [basis_vec(alg.dim, i) for i in range(alg.dim)]
    m = Matrix([list(v) for v in vals])
    return kernel_basis(m)


def raise_arity(alg: NLieAlgebra, f: Sequence) -> NLieAlgebra:
    """The (n+1)-ary bracket weighted by an admissible covector."""
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


def raise_arity_rep(rep: Representation, f: Sequence) -> Representation:
    """The companion action of the raised algebra on the same module."""
    fv = vector(f)
    alg = rep.algebra
    raised = raise_arity(alg, fv)
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

    Degree-1 cochains (no blocks) pass through unchanged; higher degrees
    get one covector factor per block, plus the tail-swap group.  The
    chain-map identity with the raised differential holds on cochains
    antisymmetric between the last block and the tail (the wedge-tail
    subspace; see multilinear.tail_antisymmetrize) — the tail-swap group
    reads the last block together with the tail as one wedge.
    """
    fv = vector(f)
    n = p.n
    b = p.blocks
    if b == 0:
        return BlockMap(n + 1, 0, p.source, p.target, dict(p.table))
    d = p.source.dim
    table = {}
    for key in iter_keys(d, n, b):
        Y = key[:-1]
        t = key[-1]
        total = vzero(p.target.dim)
        # one element dropped from every block
        for picks in itertools.product(range(n), repeat=b):
            coeff = Fraction((-1) ** sum(picks))
            for j in range(b):
                coeff *= fv[Y[j][picks[j]]]
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            blocks = [Y[j][:picks[j]] + Y[j][picks[j] + 1:] for j in range(b)]
            total = vadd(total, vscale(p.value(tuple(blocks) + (t,)), coeff))
        # covector paired with the tail, last block split into block+tail
        if fv[t] != 0:
            last = Y[b - 1]
            for picks in itertools.product(range(n), repeat=b - 1):
                coeff = Fraction((-1) ** (sum(picks) + n)) * fv[t]
                for j in range(b - 1):
                    coeff *= fv[Y[j][picks[j]]]
                    if coeff == 0:
                        break
                if coeff == 0:
                    continue
                blocks = [Y[j][:picks[j]] + Y[j][picks[j] + 1:] for j in range(b - 1)]
                blocks.append(last[:n - 1])
                total = vadd(total, vscale(p.value(tuple(blocks) + (last[n - 1],)), coeff))
        if not viszero(total):
            table[key] = total
    return BlockMap(n + 1, b, p.source, p.target, table)


def find_center(rep: Representation) -> list[Vec]:
    """Basis of the center of the semidirect product, by exact solve."""
    alg = rep.algebra
    n = alg.n
    total = alg.dim + rep.dim_v
    rows = []
    for block in itertools.combinations(range(total), n - 1):
        base = [basis_vec(total, i) for i in block]
        cols = [semidirect_bracket(rep, base + [basis_vec(total, j)])
                for j in range(total)]
        for c in range(total):
            rows.append([col[c] for col in cols])
    if not rows:
        return [basis_vec(total, j) for j in range(total)]
    return kernel_basis(Matrix(rows))


def is_central(rep: Representation, x0: Sequence) -> bool:
    x0v = vector(x0)
    alg = rep.algebra
    total = alg.dim + rep.dim_v
    if len(x0v) != total:
        raise ValueError("central element must live in the sum space")
    for block in itertools.combinations(range(total), alg.n - 1):
        base = [basis_vec(total, i) for i in block]
        if not viszero(semidirect_bracket(rep, base + [x0v])):
            return False
    return True


def lift_operator_cochain(c: Union[Wedge, BlockMap], t: RBOperator,
                          f: Sequence, x0: Sequence) -> Union[Wedge, BlockMap]:
    """Raise an operator cochain: wedge with the central element at degree 0,
    identity at degree 1, covector-weighted interior products above."""
    if not is_central(t.rep, x0):
        raise ValueError("x0 is not central in the semidirect product")
    if isinstance(c, Wedge):
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


# ---------------------------------------------------------------------------
# chain-map checks (both differentials against both lifts)
# ---------------------------------------------------------------------------

def pair_chain_map_holds(rep: Representation, f: Sequence, p: BlockMap) -> bool:
    """Differential-then-lift equals lift-then-differential for pair cochains."""
    raised = raise_arity_rep(rep, f)
    lhs = coboundary(raised, lift_cochain(p, f))
    rhs = lift_cochain(coboundary(rep, p), f)
    return lhs == rhs


def operator_chain_map_holds(t: RBOperator, f: Sequence, x0: Sequence,
                             c: Union[Wedge, BlockMap]) -> bool:
    """Same commuting square for operator cochains, degree 0 included."""
    lifted = lift_operator(t, f)
    lhs = rb_coboundary(lifted, lift_operator_cochain(c, t, f, x0))
    rhs_low = rb_coboundary(t, c)
    rhs = lift_operator_cochain(rhs_low, t, f, x0)
    return lhs == rhs
