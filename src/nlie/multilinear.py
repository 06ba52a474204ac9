"""Block-skew multilinear maps and their lifts to a direct sum.

A :class:`BlockMap` models an element of Hom(⊗^b(∧^{n-1}S) ⊗ S, T): `b`
blocks of n-1 arguments, antisymmetric inside each block, plus one tail
argument, with no constraint tying the last block to the tail.  Tables are
sparse over sorted basis keys.

:func:`apply_map` is the one evaluator of such maps.  It reads a map's
`value(key)`, where a key is `blocks` strictly increasing index tuples
followed by one tail index, and its `target` (for the zero vector); it
expands vector arguments over their nonzero coordinates, sorts each block
with its sign and looks the key up.  The key enumerations
(:func:`domain_keys`, :func:`materialize`) also read `n`, `blocks` and
`source`.  :class:`BlockMap` and :class:`LazyMap` (the same contract backed
by a memoized callable, which the graded bracket returns so that deep
iterated brackets only evaluate the keys somebody asks for) satisfy all of
it, as does :class:`nlie.core.NLieAlgebra`; :class:`nlie.core.Representation`
has no single source space and satisfies the evaluation part.  So brackets
and actions evaluate like any other cochain.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .combinat import sort_with_sign
from .linalg import Matrix, Vec, vadd, viszero, vscale, vzero

# a basis key: `blocks` sorted index tuples followed by one tail index
Key = tuple
Element = Union[int, Vec]


@dataclass(frozen=True)
class SpaceSpec:
    """A based vector space; `split` marks an ordered direct sum g ⊕ V."""
    dim: int
    label: str = ""
    split: Optional[int] = None


def sum_space(dim_g: int, dim_v: int) -> SpaceSpec:
    return SpaceSpec(dim_g + dim_v, "g+V", split=dim_g)


class BlockMap:
    """Sparse table-backed block-skew multilinear map."""

    __slots__ = ("n", "blocks", "source", "target", "table")

    def __init__(self, n: int, blocks: int, source: SpaceSpec, target: SpaceSpec,
                 table: Optional[Mapping[Key, Vec]] = None):
        self.n = n
        self.blocks = blocks
        self.source = source
        self.target = target
        self.table: dict[Key, Vec] = {}
        if table:
            for k, v in table.items():
                if not viszero(v):
                    self.table[k] = v

    def value(self, key: Key) -> Vec:
        return self.table.get(key, vzero(self.target.dim))

    def add(self, other: "BlockMap") -> "BlockMap":
        if (self.n, self.blocks, self.source.dim, self.target.dim) != \
                (other.n, other.blocks, other.source.dim, other.target.dim):
            raise ValueError("cannot add maps of different shapes")
        out = dict(self.table)
        for k, v in other.table.items():
            w = vadd(out.get(k, vzero(self.target.dim)), v)
            if viszero(w):
                out.pop(k, None)
            else:
                out[k] = w
        return BlockMap(self.n, self.blocks, self.source, self.target, out)

    def scale(self, c: Fraction) -> "BlockMap":
        if c == 0:
            return BlockMap(self.n, self.blocks, self.source, self.target)
        return BlockMap(self.n, self.blocks, self.source, self.target,
                        {k: vscale(v, c) for k, v in self.table.items()})

    def sub(self, other: "BlockMap") -> "BlockMap":
        return self.add(other.scale(Fraction(-1)))

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other) -> bool:
        return (isinstance(other, BlockMap)
                and (self.n, self.blocks, self.source.dim, self.target.dim)
                == (other.n, other.blocks, other.source.dim, other.target.dim)
                and self.table == other.table)

    def __hash__(self):
        return hash((self.n, self.blocks, frozenset(self.table)))

    def __repr__(self):
        return (f"BlockMap(n={self.n}, blocks={self.blocks}, "
                f"{self.source.dim}->{self.target.dim}, {len(self.table)} entries)")


class LazyMap:
    """BlockMap contract backed by a per-key memoized function."""

    __slots__ = ("n", "blocks", "source", "target", "_fn", "_cache")

    def __init__(self, n: int, blocks: int, source: SpaceSpec, target: SpaceSpec,
                 fn: Callable[[Key], Vec]):
        self.n = n
        self.blocks = blocks
        self.source = source
        self.target = target
        self._fn = fn
        self._cache: dict[Key, Vec] = {}

    def value(self, key: Key) -> Vec:
        v = self._cache.get(key)
        if v is None:
            v = self._fn(key)
            self._cache[key] = v
        return v


AnyMap = Union[BlockMap, LazyMap]


def iter_keys(dim: int, block_size: int, blocks: int) -> Iterator[Key]:
    """Lexicographic enumeration of the domain basis keys."""
    block_choices = tuple(itertools.combinations(range(dim), block_size))
    for bs in itertools.product(block_choices, repeat=blocks):
        for tail in range(dim):
            yield bs + (tail,)


def domain_keys(m: AnyMap) -> Iterator[Key]:
    return iter_keys(m.source.dim, m.n - 1, m.blocks)


def apply_map(m: AnyMap, blocks: Sequence[Sequence[Element]], tail: Element) -> Vec:
    """Evaluate with full multilinear/antisymmetric semantics.

    Block elements and the tail may be basis indices or coefficient vectors;
    vectors expand over their nonzero coordinates.
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
                        v = apply_map(m, nbs, tail)
                        if not viszero(v):
                            total = vadd(total, vscale(v, c))
                return total
    if not isinstance(tail, int):
        total = vzero(m.target.dim)
        for idx, c in enumerate(tail):
            if c != 0:
                v = apply_map(m, blocks, idx)
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


def materialize(m: AnyMap) -> BlockMap:
    table = {}
    for key in domain_keys(m):
        v = m.value(key)
        if not viszero(v):
            table[key] = v
    return BlockMap(m.n, m.blocks, m.source, m.target, table)


def is_zero_map(m: AnyMap) -> bool:
    if isinstance(m, BlockMap):
        return m.is_zero()
    return all(viszero(m.value(k)) for k in domain_keys(m))


def maps_equal(a: AnyMap, b: AnyMap) -> bool:
    if (a.n, a.blocks, a.source.dim, a.target.dim) != (b.n, b.blocks, b.source.dim, b.target.dim):
        return False
    if isinstance(a, BlockMap) and isinstance(b, BlockMap):
        return a.table == b.table
    return all(a.value(k) == b.value(k) for k in iter_keys(a.source.dim, a.n - 1, a.blocks))


# ---------------------------------------------------------------------------
# lifts to the direct sum g ⊕ V (g-basis first) and the projection back
# ---------------------------------------------------------------------------

def _embed(v: Vec, offset: int, total: int) -> Vec:
    out = [Fraction(0)] * total
    out[offset:offset + len(v)] = v
    return tuple(out)


def lift_bracket(mu: BlockMap, dim_v: int) -> BlockMap:
    """Lift of an n-ary bracket on g: nonzero only on all-g keys, valued in g."""
    dg = mu.source.dim
    space = sum_space(dg, dim_v)
    total = dg + dim_v
    table = {}
    for key in domain_keys(mu):
        v = mu.value(key)
        if not viszero(v):
            table[key] = _embed(v, 0, total)
    return BlockMap(mu.n, 1, space, space, table)


def lift_linear(h: Matrix, n: int, dim_g: int, dim_v: int) -> BlockMap:
    """Lift of a linear map V -> g to the sum space: (x, u) -> (h(u), 0)."""
    space = sum_space(dim_g, dim_v)
    total = dim_g + dim_v
    table = {}
    for u in range(dim_v):
        col = h.column(u)
        if not viszero(col):
            table[(dim_g + u,)] = _embed(col, 0, total)
    return BlockMap(n, 0, space, space, table)


def lift_operator_map(p: BlockMap, dim_g: int) -> BlockMap:
    """Lift of a map in Hom(⊗^b(∧^{n-1}V) ⊗ V, g): nonzero on all-V keys only."""
    dv = p.source.dim
    space = sum_space(dim_g, dv)
    total = dim_g + dv
    table = {}
    for key, v in p.table.items():
        shifted = tuple(tuple(i + dim_g for i in blk) for blk in key[:-1]) + (key[-1] + dim_g,)
        table[shifted] = _embed(v, 0, total)
    return BlockMap(p.n, p.blocks, space, space, table)


def lift_module_valued(f: BlockMap, dim_v: int) -> BlockMap:
    """Lift of a module-valued cochain on g: same keys, value in the V-part.

    Together with :func:`project_module_part` this gives a second route to
    the coboundary: bracketing with the combined structure lift and
    restricting reproduces it up to the degree sign.
    """
    dg = f.source.dim
    space = sum_space(dg, dim_v)
    total = dg + dim_v
    table = {k: _embed(v, dg, total) for k, v in f.table.items()}
    return BlockMap(f.n, f.blocks, space, space, table)


def project_module_part(f: AnyMap, target: SpaceSpec) -> BlockMap:
    """Component of a sum-space map on all-g inputs with values in V."""
    split = f.source.split
    if split is None:
        raise ValueError("projection needs a direct-sum source space")
    src = SpaceSpec(split, "g")
    table = {}
    for key in iter_keys(split, f.n - 1, f.blocks):
        v = f.value(key)[split:]
        if not viszero(v):
            table[key] = v
    return BlockMap(f.n, f.blocks, src, target, table)


def project_operator_part(f: AnyMap) -> BlockMap:
    """Component of a sum-space map in Hom(⊗^b(∧^{n-1}V) ⊗ V, g).

    Evaluates on all-V keys only and keeps the g-part of the value: the
    projection onto the abelian subalgebra of operator cochains.
    """
    split = f.source.split
    if split is None:
        raise ValueError("projection needs a direct-sum source space")
    dg, dv = split, f.source.dim - split
    src = SpaceSpec(dv, "V")
    tgt = SpaceSpec(dg, "g")
    table = {}
    for key in iter_keys(dv, f.n - 1, f.blocks):
        shifted = tuple(tuple(i + dg for i in blk) for blk in key[:-1]) + (key[-1] + dg,)
        v = f.value(shifted)[:dg]
        if not viszero(v):
            table[key] = v
    return BlockMap(f.n, f.blocks, src, tgt, table)


def tail_antisymmetrize(p: AnyMap) -> BlockMap:
    """Project onto maps antisymmetric between the last block and the tail.

    The block-skew model imposes no constraint there; this is the projection
    onto the honest wedge-tail subspace, which the differential preserves
    and on which the arity-raising chain maps hold.
    """
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


def is_tail_antisymmetric(p: AnyMap) -> bool:
    return maps_equal(tail_antisymmetrize(p), p)


def bidegree_of(f: AnyMap) -> Optional[tuple[int, int]]:
    """The k|l bidegree of a homogeneous sum-space map, or None.

    Convention: inputs with k+1 g-slots and l V-slots land in g, inputs with
    k g-slots and l+1 V-slots land in V, everything else maps to 0.  The
    zero map is reported as non-homogeneous (None).
    """
    split = f.source.split
    if split is None:
        raise ValueError("bidegree needs a direct-sum source space")
    candidate: Optional[tuple[int, int]] = None
    for key in domain_keys(f):
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
