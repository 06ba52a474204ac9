"""Block-skew multilinear maps and their lift to a direct sum.

A :class:`BlockMap` models an element of Hom(⊗^b(∧^{n-1}S) ⊗ S, T): `b`
blocks of n-1 arguments, antisymmetric inside each block, plus one tail
argument, with no constraint tying the last block to the tail.  Tables are
sparse over sorted basis keys.

:func:`apply_map` is the one evaluator of such maps.  It reads a map's
`value(key)`, where a key is `blocks` strictly increasing index tuples
followed by one tail index, and its `target` (for the zero vector).  Each
vector argument becomes its nonzero (index, coefficient) pairs; one
product over those lists gives the leaves, each block of a leaf is sorted
with its sign, and each key is looked up once with the summed coefficient
of its leaves.  The key enumerations
(:func:`domain_keys`, :func:`materialize`) also read `n`, `blocks` and
`source`.  :class:`BlockMap` and :class:`LazyMap` (the same contract backed
by a memoized callable, for a map known only key by key) satisfy all of
it, as does :class:`nlie.core.NLieAlgebra`; :class:`nlie.core.Representation`
has no single source space and satisfies the evaluation part.  So brackets
and actions evaluate like any other cochain.

A map whose arguments come from one summand of g ⊕ V and whose values lie
in one summand enters the sum space through :func:`lift_map` and leaves it
through :func:`restrict_map`; every lift and projection is one of the two.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .combinat import sort_with_sign
from .linalg import (Vec, accumulate, from_coords, nonzero, vadd, viszero, vscale,
                     vzero)

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


# the coefficient of a basis-index argument: a leaf multiplies only the
# coefficients of its vector arguments
_INDEX = Fraction(1)


def _terms(e: Element) -> Sequence[tuple[int, Fraction]]:
    """An argument's nonzero (index, coefficient) pairs."""
    return ((e, _INDEX),) if isinstance(e, int) else nonzero(e)


def _sorted_key(blocks: Sequence[Sequence[int]], tail: int) -> tuple[int, Optional[Key]]:
    """(sign, key) of index blocks sorted with their signs, followed by the
    tail; (0, None) when a block repeats an index."""
    key, sign = [], 1
    for block in blocks:
        s, sb = sort_with_sign(tuple(block))
        if s == 0:
            return 0, None
        sign *= s
        key.append(sb)
    key.append(tail)
    return sign, tuple(key)


def apply_map(m: AnyMap, blocks: Sequence[Sequence[Element]], tail: Element) -> Vec:
    """Evaluate with full multilinear/antisymmetric semantics.

    Block elements and the tail may be basis indices or coefficient vectors.
    Each argument becomes its nonzero (index, coefficient) pairs, and one
    product over those lists gives the leaves.  A leaf's blocks are sorted
    with their signs; leaves that meet on one key add their coefficients,
    and each key is looked up once.  Only the nonzero coordinates of the
    values are read.  An all-index call is one leaf, read as one lookup.
    """
    if isinstance(tail, int) and all(isinstance(e, int) for block in blocks for e in block):
        sign, key = _sorted_key(blocks, tail)
        if sign == 0:
            return vzero(m.target.dim)
        v = m.value(key)
        return v if sign == 1 else vscale(v, Fraction(sign))
    spans = list(itertools.pairwise(itertools.accumulate((len(b) for b in blocks), initial=0)))
    slots = [_terms(e) for block in blocks for e in block]
    slots.append(_terms(tail))
    coeffs: dict[Key, Fraction] = {}
    for leaf in itertools.product(*slots):
        idx, cs = zip(*leaf)
        sign, key = _sorted_key([idx[a:b] for a, b in spans], idx[-1])
        if sign == 0:
            continue
        c = None
        for x in cs:
            if x is not _INDEX:
                c = x if c is None else c * x
        if sign < 0:
            c = -c
        coeffs[key] = coeffs[key] + c if key in coeffs else c
    acc: dict[int, Fraction] = {}
    for key, c in coeffs.items():
        if c:
            accumulate(acc, m.value(key), c)
    return from_coords(acc, m.target.dim)


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


# ---------------------------------------------------------------------------
# the direct sum g ⊕ V (g-basis first): one lift from a summand, one restriction
# ---------------------------------------------------------------------------

def _summand(space: SpaceSpec, name: str) -> tuple[int, int]:
    """(offset, dim) of the summand "g" or "V" of a direct-sum space."""
    if space.split is None:
        raise ValueError("needs a direct-sum space g ⊕ V")
    if name == "g":
        return 0, space.split
    if name == "V":
        return space.split, space.dim - space.split
    raise ValueError(f"summand must be 'g' or 'V', not {name!r}")


def _shift(key: Key, offset: int) -> Key:
    return tuple(tuple(i + offset for i in blk) for blk in key[:-1]) + (key[-1] + offset,)


def lift_map(f: BlockMap, space: SpaceSpec, args: str, values: str) -> BlockMap:
    """f, with arguments from summand `args` and values in summand `values`,
    as a map on the sum space: zero unless every argument lies in `args`."""
    a_off, a_dim = _summand(space, args)
    v_off, v_dim = _summand(space, values)
    if (f.source.dim, f.target.dim) != (a_dim, v_dim):
        raise ValueError(f"a {f.source.dim}->{f.target.dim} map does not fit "
                         f"{args}->{values} of g ⊕ V")
    before, after = vzero(v_off), vzero(space.dim - v_off - v_dim)
    table = {_shift(k, a_off): before + v + after for k, v in f.table.items()}
    return BlockMap(f.n, f.blocks, space, space, table)


def restrict_map(f: AnyMap, args: str, values: str) -> BlockMap:
    """The component of a sum-space map on arguments from summand `args`,
    with values read in summand `values`; it undoes :func:`lift_map`."""
    a_off, a_dim = _summand(f.source, args)
    v_off, v_dim = _summand(f.source, values)
    table = {}
    for key in iter_keys(a_dim, f.n - 1, f.blocks):
        v = f.value(_shift(key, a_off))[v_off:v_off + v_dim]
        if not viszero(v):
            table[key] = v
    return BlockMap(f.n, f.blocks, SpaceSpec(a_dim, args), SpaceSpec(v_dim, values), table)


def lift_operator_map(p: BlockMap, dim_g: int) -> BlockMap:
    """Lift of an operator cochain in Hom(⊗^b(∧^{n-1}V) ⊗ V, g)."""
    return lift_map(p, sum_space(dim_g, p.source.dim), "V", "g")


def project_operator_part(f: AnyMap) -> BlockMap:
    """Projection onto the abelian subalgebra of operator cochains."""
    return restrict_map(f, "V", "g")


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
