"""Cochain complex, graded bracket, Maurer-Cartan checks, cohomology dims.

Degrees here count blocks: a map with b blocks and one tail sits in graded
degree b (the classical m-cochain space has b = m-1).  The composition
underlying the graded bracket distributes blocks by shuffles; all signs
come from :mod:`nlie.combinat`.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .combinat import shuffles
from .core import NLieAlgebra, Representation, semidirect_blockmap
from .linalg import Matrix, Vec, basis_vec, rank, vadd, viszero, vscale, vsub, vzero
from .multilinear import (AnyMap, BlockMap, LazyMap, SpaceSpec, apply_map,
                          bidegree_of, is_zero_map, iter_keys, materialize)


def coboundary(rep: Representation, f: AnyMap) -> BlockMap:
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
                    w = alg.bracket([*X[j], X[k][i]])
                    if viszero(w):
                        continue
                    nb = X[k][:i] + (w,) + X[k][i + 1:]
                    rest = list(X[:j]) + list(X[j + 1:k]) + [nb] + list(X[k + 1:])
                    total = vadd(total, vscale(apply_map(f, rest, t), sj))
            # block bracketed with the tail
            w = alg.bracket([*X[j], t])
            if not viszero(w):
                rest = list(X[:j]) + list(X[j + 1:])
                total = vadd(total, vscale(apply_map(f, rest, w), sj))
            # action on the value
            rest = list(X[:j]) + list(X[j + 1:])
            v = apply_map(f, rest, t)
            if not viszero(v):
                total = vadd(total, vscale(rep.operator(list(X[j])).mul_vec(v), -sj))
        # action of the last block's entries paired with the tail
        last = X[m - 1]
        for i in range(n - 1):
            v = apply_map(f, list(X[:m - 1]), last[i])
            if viszero(v):
                continue
            mat = rep.operator([*last[:i], *last[i + 1:], t])
            total = vadd(total, vscale(mat.mul_vec(v), Fraction((-1) ** (n + m - i))))
        if not viszero(total):
            table[key] = total
    return BlockMap(n, m, f.source, f.target, table)


def cochain_basis(d: int, n: int, m: int, dv: int):
    """Basis of the degree-m cochain space, lexicographic (key, coordinate)."""
    return [(key, c) for key in iter_keys(d, n - 1, m - 1) for c in range(dv)]


def _scatter(images: Iterable[dict], dst: list) -> Matrix:
    """Matrix whose j-th column holds the j-th image table's coordinates over
    the destination basis `dst` of (key, coordinate) pairs."""
    pos = {b: i for i, b in enumerate(dst)}
    cols = []
    for table in images:
        col = [Fraction(0)] * len(dst)
        for key, v in table.items():
            for i, x in enumerate(v):
                if x != 0:
                    col[pos[(key, i)]] = x
        cols.append(col)
    return Matrix.from_columns(cols) if cols else Matrix.zero(len(dst), 0)


def coboundary_matrix(rep: Representation, m: int) -> Matrix:
    """Matrix of the differential from m-cochains to (m+1)-cochains."""
    alg = rep.algebra
    d, n, dv = alg.dim, alg.n, rep.dim_v
    source = SpaceSpec(d, "g")
    target = SpaceSpec(dv, "V")
    images = (coboundary(rep, BlockMap(n, m - 1, source, target,
                                       {key: basis_vec(dv, c)})).table
              for key, c in cochain_basis(d, n, m, dv))
    return _scatter(images, cochain_basis(d, n, m + 1, dv))


def cohomology_table(d: Callable[[int], Matrix], first: int, last: int) -> list[dict]:
    """Rows {m, dim_cochains, rank_d, dim_H} for degrees first..last of the
    complex whose m-th differential matrix is d(m).

    Each d_m is built and ranked once; dim C^m is its column count, and
    dim H^m = dim C^m − rank d_m − rank d_{m−1}, with nothing subtracted at
    the first degree.
    """
    table = []
    prev = 0
    for m in range(first, last + 1):
        d_m = d(m)
        r = rank(d_m)
        table.append({"m": m, "dim_cochains": d_m.cols, "rank_d": r,
                      "dim_H": d_m.cols - r - prev})
        prev = r
    return table


def cohomology_dim(rep: Representation, m: int) -> int:
    """dim ker(d_m) − rank(d_{m−1}), with nothing subtracted at m = 1."""
    if m < 1:
        raise ValueError("cochain degree starts at 1")
    rows = cohomology_table(lambda k: coboundary_matrix(rep, k), max(1, m - 1), m)
    return rows[-1]["dim_H"]


# ---------------------------------------------------------------------------
# the graded Lie bracket on block maps
# ---------------------------------------------------------------------------

def _circ(P: AnyMap, Q: AnyMap, key) -> Vec:
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
                if viszero(inner):
                    continue
                nb = list(consumed)
                nb[i] = inner
                val = apply_map(P, front + [nb] + restb, x)
                if not viszero(val):
                    total = vadd(total, vscale(val, coeff))
    # Q's value fed to P's tail
    base = Fraction((-1) ** (p * q))
    for perm, sgn in shuffles(p, q):
        pargs = [X[perm[t]] for t in range(p)]
        qargs = [list(X[perm[t]]) for t in range(p, p + q)]
        inner = apply_map(Q, qargs, x)
        if viszero(inner):
            continue
        val = apply_map(P, pargs, inner)
        if not viszero(val):
            total = vadd(total, vscale(val, base * sgn))
    return total


def graded_bracket(P: AnyMap, Q: AnyMap) -> LazyMap:
    """Graded commutator P∘Q − (−1)^{pq} Q∘P, evaluated lazily."""
    if P.source.dim != Q.source.dim or P.n != Q.n:
        raise ValueError("bracket arguments live on different spaces")
    sign = Fraction((-1) ** (P.blocks * Q.blocks))

    def fn(key) -> Vec:
        return vsub(_circ(P, Q, key), vscale(_circ(Q, P, key), sign))

    return LazyMap(P.n, P.blocks + Q.blocks, P.source, P.target, fn)


def twisted_differential(pi: AnyMap, f: AnyMap) -> LazyMap:
    """d_pi = [pi, −] for a square-zero element, which is re-validated."""
    if not is_zero_map(graded_bracket(pi, pi)):
        raise ValueError("twisting element does not square to zero")
    return graded_bracket(pi, f)


def check_mc_pair(alg: NLieAlgebra, rep: Representation) -> bool:
    """Whether the combined lift squares to zero under the graded bracket.

    Agrees with check_filippov ∧ check_representation; both routes are kept
    so each can serve as the other's oracle.
    """
    delta = semidirect_blockmap(rep)
    return is_zero_map(graded_bracket(delta, delta))


def check_bidegree_additivity(f: AnyMap, g: AnyMap) -> bool:
    """Bracket of homogeneous maps is homogeneous of the summed bidegree."""
    bf = bidegree_of(f)
    bg = bidegree_of(g)
    if bf is None or bg is None:
        raise ValueError("inputs must be homogeneous")
    br = materialize(graded_bracket(f, g))
    if br.is_zero():
        return True
    return bidegree_of(br) == (bf[0] + bg[0], bf[1] + bg[1])
