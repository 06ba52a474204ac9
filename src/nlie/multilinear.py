"""Block-skew multilinear maps and their lift to a direct sum.

A :class:`BlockMap` models an element of Hom(⊗^b(∧^{n-1}S) ⊗ S, T): `b`
blocks of n-1 arguments, antisymmetric inside each block, plus one tail
argument, with no constraint tying the last block to the tail.  Tables are
sparse over sorted basis keys.

:func:`wedge_leaves` is the one expansion of wedge arguments, basis indices
or coefficient vectors: one product over their nonzero (index, coefficient)
pairs gives the leaves, each signed by sorting its blocks and added onto its
key of sorted blocks.  Brackets, actions and action matrices, the raise by a
covector and the wedge with a central element take their keys and signs
from it.

:func:`apply_map` is the one evaluator of such maps.  It reads a map's
`value(key)`, where a key is `blocks` strictly increasing index tuples
followed by one tail index, and its `target` (for the zero vector).  Its
core, :func:`apply_coords`, crosses the leaves of the blocks with the tail's
nonzero coordinates, looks up each key once and sums integral coefficients
as ints into a coordinate dict, which the kernels on the deform/lift path
read directly; `apply_map` converts it to Fractions.
:class:`BlockMap` satisfies that contract, as do
:class:`nlie.core.NLieAlgebra` and :class:`nlie.core.Representation`, so
brackets and actions evaluate like any other cochain.

Readers of a table take its entries at basis keys (:func:`basis_entries`);
only `lift.lift_cochain` and the dense `rota_baxter.cochain_to_vector` walk
the whole domain.  A table antisymmetric in its last block and tail is built
from its increasing wedges (:func:`wedge_sums`, :func:`split_wedges`).

A map whose arguments come from one summand of g ⊕ V and whose values lie
in one summand enters the sum space through :func:`lift_map` and leaves it
through :func:`restrict_map`; every lift and projection is one of the two.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .combinat import sort_with_sign
from .linalg import (Coeff, Vec, accumulate, from_coords, nonzero, vadd, viszero,
                     vscale, vzero)

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
    """The `value(key)` contract backed by a per-key memoized function; no
    engine path builds one (kept for perfbench/tracer.py and the tests)."""

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


def iter_keys(dim: int, block_size: int, blocks: int) -> Iterator[Key]:
    """Lexicographic enumeration of the domain basis keys."""
    block_choices = tuple(itertools.combinations(range(dim), block_size))
    for bs in itertools.product(block_choices, repeat=blocks):
        for tail in range(dim):
            yield bs + (tail,)


def basis_entries(f: BlockMap) -> list[tuple[tuple, int, Vec]]:
    """(blocks, tail, value) of f's table entries at basis keys: `blocks`
    strictly increasing (n−1)-tuples and one tail, indices in range.  No
    other key is ever read by `apply_map`, so no other reader takes one."""
    span = range(f.source.dim)

    def basis_block(b) -> bool:
        return (isinstance(b, tuple) and len(b) == f.n - 1 and all(i in span for i in b)
                and all(a < c for a, c in zip(b, b[1:])))

    out = []
    for key, v in f.table.items():
        blocks, tail = key[:-1], key[-1]
        if len(blocks) == f.blocks and tail in span and all(map(basis_block, blocks)):
            out.append((blocks, tail, v))
    return out


def split_wedges(wedges: Mapping[tuple, Vec]) -> dict[Key, Vec]:
    """The table of a map totally antisymmetric in its last block and tail,
    from its values on increasing wedges: a value at front blocks F followed
    by an increasing n-tuple W goes to the n keys F + (W∖W_k, W_k), with the
    sign (−1)^(n−1−k) of moving W_k to the tail."""
    table = {}
    for key, v in wedges.items():
        *front, w = key
        n = len(w)
        neg = vscale(v, Fraction(-1))
        for k in range(n):
            table[(*front, w[:k] + w[k + 1:], w[k])] = neg if (n - 1 - k) % 2 else v
    return table


def wedge_sums(f: BlockMap) -> dict[tuple, Vec]:
    """f's basis entries added onto the increasing wedge of their last block
    and tail: (F, B, t) adds s·value at F + (W,), where (s, W) =
    sort_with_sign(B + (t,)).  For f with blocks; a sum may be zero."""
    sums: dict[tuple, dict[int, Coeff]] = {}
    for blocks, tail, v in basis_entries(f):
        s, w = sort_with_sign(blocks[-1] + (tail,))
        if s:
            accumulate(sums.setdefault(blocks[:-1] + (w,), {}), v, s)
    return {key: from_coords(coords, f.target.dim) for key, coords in sums.items()}


def _sorted_blocks(blocks: Sequence[Sequence[int]]) -> tuple[int, Optional[Key]]:
    """(sign, sorted blocks) of index blocks sorted with their signs; (0,
    None) when a block repeats an index."""
    key, sign = [], 1
    for block in blocks:
        s, sb = sort_with_sign(tuple(block))
        if s == 0:
            return 0, None
        sign *= s
        key.append(sb)
    return sign, tuple(key)


def wedge_leaves(blocks: Sequence[Sequence[Element]]) -> dict[Key, Coeff]:
    """{sorted blocks: nonzero coefficient} of wedges of basis indices or
    coefficient vectors: a leaf of the product over the arguments' nonzero
    (index, coefficient) pairs adds the product of its coefficients, signed
    by sorting its blocks, onto its key; integral sums stay ints."""
    if not blocks:
        return {(): 1}
    spans = list(itertools.pairwise(itertools.accumulate((len(b) for b in blocks), initial=0)))
    slots = [((e, 1),) if isinstance(e, int) else nonzero(e) for block in blocks for e in block]
    coeffs: dict[Key, Coeff] = {}
    for leaf in itertools.product(*slots):
        idx, cs = zip(*leaf)
        sign, key = _sorted_blocks([idx[a:b] for a, b in spans])
        if sign:
            x = prod(cs, start=sign)
            coeffs[key] = coeffs[key] + x if key in coeffs else x
    return {key: x for key, x in coeffs.items() if x}


def apply_coords(m, blocks: Sequence[Sequence[Element]], tail: Element,
                 acc: Optional[dict[int, Coeff]] = None, c: Coeff = 1) -> dict[int, Coeff]:
    """acc + c·m(blocks; tail) as a coordinate dict (a new dict without acc):
    the :func:`wedge_leaves` of the blocks crossed with the tail's nonzero
    coordinates, each key looked up once.  Only the nonzero coordinates of
    the values are read, and integral coefficients are summed as ints.
    """
    tails = ((tail, 1),) if isinstance(tail, int) else nonzero(tail)
    if acc is None:
        acc = {}
    for key, x in wedge_leaves(blocks).items():
        for t, y in tails:
            accumulate(acc, m.value(key + (t,)), c * x * y)
    return acc


def apply_map(m, blocks: Sequence[Sequence[Element]], tail: Element) -> Vec:
    """Evaluate with full multilinear/antisymmetric semantics: the
    coordinates of :func:`apply_coords`, as Fractions.  An all-index call
    is one leaf, read as one lookup.
    """
    if isinstance(tail, int) and all(isinstance(e, int) for block in blocks for e in block):
        sign, key = _sorted_blocks(blocks)
        if sign == 0:
            return vzero(m.target.dim)
        v = m.value(key + (tail,))
        return v if sign == 1 else vscale(v, Fraction(sign))
    return from_coords(apply_coords(m, blocks, tail), m.target.dim)


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


def restrict_map(f: BlockMap, args: str, values: str) -> BlockMap:
    """The component of a sum-space map on arguments from summand `args`,
    with values read in summand `values`; it undoes :func:`lift_map`."""
    a_off, a_dim = _summand(f.source, args)
    v_off, v_dim = _summand(f.source, values)
    span = range(a_off, a_off + a_dim)
    table = {}
    for blocks, tail, value in basis_entries(f):
        v = value[v_off:v_off + v_dim]
        if tail in span and all(i in span for blk in blocks for i in blk) and not viszero(v):
            table[_shift(blocks + (tail,), -a_off)] = v
    return BlockMap(f.n, f.blocks, SpaceSpec(a_dim, args), SpaceSpec(v_dim, values), table)


def lift_operator_map(p: BlockMap, dim_g: int) -> BlockMap:
    """Lift of an operator cochain in Hom(⊗^b(∧^{n-1}V) ⊗ V, g)."""
    return lift_map(p, sum_space(dim_g, p.source.dim), "V", "g")


def project_operator_part(f: BlockMap) -> BlockMap:
    """Projection onto the abelian subalgebra of operator cochains."""
    return restrict_map(f, "V", "g")


def tail_antisymmetrize(p: BlockMap) -> BlockMap:
    """Project onto maps antisymmetric between the last block and the tail.

    The block-skew model imposes no constraint there; this is the projection
    onto the honest wedge-tail subspace, which the differential preserves
    and on which the arity-raising chain maps hold: 1/n times the wedge sums
    of p, split back over the last block and the tail.
    """
    n, b = p.n, p.blocks
    if b == 0:
        table = {(tail,): v for _, tail, v in basis_entries(p)}
    else:
        table = split_wedges({k: vscale(v, Fraction(1, n)) for k, v in wedge_sums(p).items()})
    return BlockMap(n, b, p.source, p.target, table)


def bidegree_of(f: BlockMap) -> Optional[tuple[int, int]]:
    """The k|l bidegree of a homogeneous sum-space map, or None.

    Convention: inputs with k+1 g-slots and l V-slots land in g, inputs with
    k g-slots and l+1 V-slots land in V, everything else maps to 0.  The
    zero map is reported as non-homogeneous (None).
    """
    split = f.source.split
    if split is None:
        raise ValueError("bidegree needs a direct-sum source space")
    candidate: Optional[tuple[int, int]] = None
    for blocks, tail, v in basis_entries(f):
        slots = [i for blk in blocks for i in blk] + [tail]
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
