"""Cochain complex, graded bracket, Maurer-Cartan checks, cohomology dims.

Degrees here count blocks: a map with b blocks and one tail sits in graded
degree b (the classical m-cochain space has b = m-1).  The composition
underlying the graded bracket distributes blocks by shuffles; all signs
come from :mod:`nlie.combinat`.  Both the differential and the graded
bracket work from nonzero entries: the differential is built once per
representation and degree as sparse columns, and the bracket composes the
nonzero entries of its two arguments into a sparse table.  The bracket
carries every integral coefficient as a plain int and every other one as a
Fraction, so its arithmetic stays exact; the table it returns holds
Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Iterable

from .combinat import shuffles, sort_with_sign
from .core import NLieAlgebra, Representation, semidirect_blockmap
from .linalg import _ZERO, Matrix, as_fractions, as_int, basis_vec, rank
from .multilinear import BlockMap, SpaceSpec, basis_entries, iter_keys, wedge_leaves


def _differential(rep: Representation, m: int) -> dict:
    """The differential from m-cochains to (m+1)-cochains as sparse columns.

    Maps each source coordinate (key, c) to the nonzero (destination key,
    coordinate, coefficient) entries of its image.  One pass over the
    destination keys expands every term over coordinates: the bracket terms
    act on keys and keep the coordinate, the two action terms read the entries
    of `rep.action` at the sorted block, with the sign of sorting it.
    """
    alg = rep.algebra
    n, d, dv = alg.n, alg.dim, rep.dim_v
    entries: dict = {}  # (source key, c) -> {(destination key, r): coefficient}

    @cache
    def bracket(block, x):
        """Nonzero coordinates (i, w) of [block..., x]."""
        return [(i, w) for i, w in enumerate(alg.bracket([*block, x])) if w]

    @cache
    def action(args):
        """Nonzero entries (r, c, x) of the action matrix of args."""
        return [(r, c, s * x) for (block,), s in wedge_leaves([args]).items()
                if block in rep.action for c in range(dv)
                for r, x in enumerate(rep.action[block].column(c)) if x]

    def add(src, c, dst, r, x):
        col = entries.setdefault((src, c), {})
        col[(dst, r)] = col.get((dst, r), 0) + x

    for key in iter_keys(d, n - 1, m):
        X, t = key[:-1], key[-1]
        for j in range(m):
            sj = (-1) ** (j + 1)
            others = X[:j] + X[j + 1:]
            # blocks composed into blocks
            for k in range(j + 1, m):
                for i in range(n - 1):
                    for idx, w in bracket(X[j], X[k][i]):
                        s, nb = sort_with_sign(X[k][:i] + (idx,) + X[k][i + 1:])
                        if s:
                            src = X[:j] + X[j + 1:k] + (nb,) + X[k + 1:] + (t,)
                            for c in range(dv):
                                add(src, c, key, c, sj * s * w)
            # block bracketed with the tail
            for idx, w in bracket(X[j], t):
                for c in range(dv):
                    add(others + (idx,), c, key, c, sj * w)
            # action on the value
            for r, c, x in action(X[j]):
                add(others + (t,), c, key, r, -sj * x)
        # action of the last block's entries paired with the tail
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


def coboundary(rep: Representation, f: BlockMap) -> BlockMap:
    """The differential of an (f.blocks+1)-cochain valued in rep's module:
    the columns of rep's differential applied to f's nonzero coordinates.
    Each differential is built on first use and kept in `rep.differentials`.

    A table key that is not a basis key of the cochain space (an unsorted
    or repeated block, blocks of the wrong size) is ignored.
    """
    alg = rep.algebra
    if f.source.dim != alg.dim:
        raise ValueError("cochain source does not match the algebra")
    if f.target.dim != rep.dim_v:
        raise ValueError("cochain target does not match the module")
    m = f.blocks + 1
    cols = rep.differentials.get(m)
    if cols is None:
        cols = rep.differentials[m] = _differential(rep, m)
    out: dict = {}
    for key, v in f.table.items():
        for c, x in enumerate(v):
            if x:
                for dst, r, y in cols.get((key, c), ()):
                    row = out.get(dst)
                    if row is None:
                        row = out[dst] = [Fraction(0)] * rep.dim_v
                    row[r] += x * y
    return BlockMap(alg.n, m, f.source, f.target, {k: tuple(v) for k, v in out.items()})


def cochain_basis(d: int, n: int, m: int, dv: int):
    """Basis of the degree-m cochain space, lexicographic (key, coordinate)."""
    return [(key, c) for key in iter_keys(d, n - 1, m - 1) for c in range(dv)]


def _scatter(images: Iterable[dict], dst: list) -> Matrix:
    """Matrix whose j-th column holds the j-th image table's coordinates over
    the destination basis `dst` of (key, coordinate) pairs.  The rows are
    filled from the images' nonzero entries, which are already Fractions."""
    pos = {b: i for i, b in enumerate(dst)}
    tables = list(images)
    rows = [[_ZERO] * len(tables) for _ in dst]
    for j, table in enumerate(tables):
        for key, v in table.items():
            for i, x in enumerate(v):
                if x:
                    rows[pos[(key, i)]][j] = x
    for i, row in enumerate(rows):
        rows[i] = tuple(row)
    return Matrix.from_fraction_rows(rows, len(tables))


def coboundary_matrix(rep: Representation, m: int) -> Matrix:
    """Matrix of the differential from m-cochains to (m+1)-cochains: the
    coboundary of each source basis cochain, one column each."""
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

def _shuffled(perm: tuple, items: tuple) -> tuple:
    """The tuple X with X[perm[t]] = items[t]."""
    out = [None] * len(items)
    for t, pos in enumerate(perm):
        out[pos] = items[t]
    return tuple(out)


def _compose(P: BlockMap, Q: BlockMap, sign: int, out: dict) -> None:
    """Add sign·(P∘Q) to `out` (key -> coordinate list), from the nonzero
    entries of P and Q.

    Q's entries are indexed by the coordinate c their value hits.  An entry
    of P with c in block k takes Q's value in that slot: its output key puts
    P's first k−1 blocks and Q's blocks through a (k−1, q)-shuffle, then the
    re-sorted block k and the rest of P's key.  An entry of P with tail c
    puts all of P's blocks and Q's blocks through a (p, q)-shuffle, followed
    by Q's tail.  Integral coefficients enter as ints, and `out`'s rows
    start at int 0.
    """
    p, q = P.blocks, Q.blocks
    dim = P.target.dim
    hits: dict[int, list] = {}
    for blocks, tail, v in basis_entries(Q):
        for c, y in enumerate(v):
            if y:
                hits.setdefault(c, []).append((blocks, tail, as_int(y)))

    def add(key, coeff, nz):
        row = out.get(key)
        if row is None:
            row = out[key] = [0] * dim
        for r, z in nz:
            row[r] += coeff * z

    for B, x, value in basis_entries(P):
        nz = [(r, as_int(z)) for r, z in enumerate(value) if z]
        # Q's value inserted into block k of P
        for k in range(1, p + 1):
            base = sign * (-1) ** ((k - 1) * q)
            block = B[k - 1]
            for j, c in enumerate(block):
                for Y, e, y in hits.get(c, ()):
                    s, consumed = sort_with_sign(block[:j] + (e,) + block[j + 1:])
                    if not s:
                        continue
                    after = (consumed,) + B[k:] + (x,)
                    for perm, sgn in shuffles(k - 1, q):
                        add(_shuffled(perm, B[:k - 1] + Y) + after, base * sgn * s * y, nz)
        # Q's value fed to P's tail
        base = sign * (-1) ** (p * q)
        for Y, e, y in hits.get(x, ()):
            for perm, sgn in shuffles(p, q):
                add(_shuffled(perm, B + Y) + (e,), base * sgn * y, nz)


def graded_bracket(P: BlockMap, Q: BlockMap) -> BlockMap:
    """Graded commutator P∘Q − (−1)^{pq} Q∘P of two maps from a space to
    itself, composed from their nonzero entries, on ints while the
    coefficients are integral; the values returned are Fractions.

    A table key that is not a basis key (an unsorted or repeated block,
    blocks of the wrong size) is ignored.
    """
    if P.source.dim != Q.source.dim or P.n != Q.n:
        raise ValueError("bracket arguments live on different spaces")
    if P.target.dim != P.source.dim or Q.target.dim != Q.source.dim:
        raise ValueError("bracket arguments must take values in their argument space")
    out: dict = {}
    _compose(P, Q, 1, out)
    _compose(Q, P, -(-1) ** (P.blocks * Q.blocks), out)
    return BlockMap(P.n, P.blocks + Q.blocks, P.source, P.target,
                    {k: as_fractions(v) for k, v in out.items()})


def twisted_differential(pi: BlockMap, f: BlockMap) -> BlockMap:
    """d_pi = [pi, −] for a square-zero element, which is re-validated."""
    if not graded_bracket(pi, pi).is_zero():
        raise ValueError("twisting element does not square to zero")
    return graded_bracket(pi, f)


def check_mc_pair(alg: NLieAlgebra, rep: Representation) -> bool:
    """Whether the combined lift squares to zero under the graded bracket.

    Agrees with check_filippov ∧ check_representation.  It is the verdict
    route of `nlie verify` and `nlie lift`: when it holds, both pair checks
    pass; the direct checkers run only when it fails, to name the witness.
    """
    delta = semidirect_blockmap(rep)
    return graded_bracket(delta, delta).is_zero()

