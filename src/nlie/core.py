"""n-Lie algebras, representations, n-pre-Lie algebras, symplectic forms.

Constructors accept raw data; nothing is trusted until the matching checker
has run, so broken structures are first-class values (the tests need them).
Check reports carry the first violating basis tuple; `check_filippov` adds
both sides of the failed identity.  A representation is checked as the
fundamental identity of g ⋉ V, and its report names only the g-tuples.
g ⋉ V is written straight from the pair's tables (:func:`semidirect_product`),
and every construction on a pair reads its one bracket; every representation is
built from its column table (:meth:`Representation.from_columns`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .combinat import sort_with_sign
from .linalg import (Coeff, Matrix, Vec, _rref, accumulate, basis_vec, from_coords, vadd,
                     vector, viszero, vscale, vzero)
from .multilinear import (BlockMap, Element, Key, SpaceSpec, apply_map, basis_entries,
                          split_wedges, sum_space, wedge_leaves, wedge_sums)


@dataclass
class CheckReport:
    holds: bool
    witness: Optional[tuple] = None
    lhs: Optional[Vec] = None
    rhs: Optional[Vec] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


class NLieAlgebra:
    """A candidate n-Lie algebra: arity, space, structure constants.

    `structure` maps strictly increasing n-tuples of basis indices to the
    bracket value; validity is earned through :func:`check_filippov`.  As a
    1-block map on (block, tail) keys it evaluates through
    :func:`~nlie.multilinear.apply_map`.
    """

    __slots__ = ("n", "space", "structure")
    blocks = 1

    def __init__(self, n: int, space: SpaceSpec,
                 structure: Optional[Mapping[tuple[int, ...], Sequence]] = None):
        if n < 2:
            raise ValueError("arity must be >= 2")
        self.n = n
        self.space = space
        self.structure: dict[tuple[int, ...], Vec] = {}
        if structure:
            for key, val in structure.items():
                if tuple(sorted(key)) != tuple(key) or len(set(key)) != n:
                    raise ValueError(f"structure key not strictly increasing: {key}")
                v = vector(val)
                if not viszero(v):
                    self.structure[tuple(key)] = v

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def source(self) -> SpaceSpec:
        return self.space

    target = source

    def value(self, key: Key) -> Vec:
        """Bracket of a sorted (block, tail) key."""
        block, tail = key
        s, args = sort_with_sign(block + (tail,))
        v = self.structure.get(args) if s else None
        if v is None:
            return vzero(self.dim)
        return v if s == 1 else vscale(v, Fraction(-1))

    def bracket(self, args: Sequence[Element]) -> Vec:
        """Fully antisymmetric n-ary bracket on indices or vectors."""
        if len(args) != self.n:
            raise ValueError("bracket arity mismatch")
        return apply_map(self, [args[:-1]], args[-1])

    def as_blockmap(self) -> BlockMap:
        """The bracket as a 1-block map, stored on every (block, tail) split."""
        return BlockMap(self.n, 1, self.space, self.space,
                        split_wedges({(w,): v for w, v in self.structure.items()}))

    def is_abelian(self) -> bool:
        return not self.structure

    def __repr__(self):
        return f"NLieAlgebra(n={self.n}, dim={self.dim}, {len(self.structure)} brackets)"


def abelian(n: int, dim: int) -> NLieAlgebra:
    return NLieAlgebra(n, SpaceSpec(dim, "g"))


def _fundamental_sides(alg: NLieAlgebra, xs: tuple[int, ...],
                       ys: tuple[int, ...]) -> tuple[Vec, Vec]:
    """Both sides of [xs, [ys]] = Σᵢ [y₁..[xs, yᵢ]..yₙ] on basis tuples."""
    lhs = alg.bracket([*xs, alg.bracket(list(ys))])
    rhs = vzero(alg.dim)
    for i in range(alg.n):
        args: list[Element] = list(ys)
        args[i] = alg.bracket([*xs, ys[i]])
        rhs = vadd(rhs, alg.bracket(args))
    return lhs, rhs


def check_filippov(alg: NLieAlgebra) -> CheckReport:
    """Exhaustive fundamental identity check over basis tuples."""
    n, d = alg.n, alg.dim
    for xs in itertools.combinations(range(d), n - 1):
        for ys in itertools.combinations(range(d), n):
            lhs, rhs = _fundamental_sides(alg, xs, ys)
            if lhs != rhs:
                return CheckReport(False, witness=(xs, ys), lhs=lhs, rhs=rhs,
                                   detail="fundamental identity fails")
    return CheckReport(True)


class Representation:
    """A candidate action of ∧^{n-1}g on a module by endomorphisms.

    As a 1-block map, its key (block, u) reads column u of the block's
    matrix, which :meth:`act` reads; :meth:`operator` expands vector
    arguments into one matrix.
    `differentials` holds the cochain differentials built so far, keyed by
    source degree (see :func:`nlie.cochain.coboundary`).
    """

    __slots__ = ("algebra", "module", "action", "differentials")
    blocks = 1

    def __init__(self, algebra: NLieAlgebra, module: SpaceSpec,
                 action: Optional[Mapping[tuple[int, ...], Matrix]] = None):
        self.algebra = algebra
        self.module = module
        self.action: dict[tuple[int, ...], Matrix] = {}
        self.differentials: dict[int, dict] = {}
        if action:
            for key, mat in action.items():
                if tuple(sorted(key)) != tuple(key) or len(set(key)) != algebra.n - 1:
                    raise ValueError(f"action key not strictly increasing: {key}")
                if (mat.rows, mat.cols) != (module.dim, module.dim):
                    raise ValueError("action matrix shape mismatch")
                if not mat.is_zero():
                    self.action[tuple(key)] = mat

    @property
    def dim_v(self) -> int:
        return self.module.dim

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def target(self) -> SpaceSpec:
        return self.module

    @classmethod
    def from_columns(cls, algebra: NLieAlgebra, module: SpaceSpec,
                     columns: Mapping[Key, Vec]) -> "Representation":
        """The inverse of :meth:`value`: each (block, u) gives column u of the
        block's matrix, and a column not given is zero."""
        dv = module.dim
        blocks: dict[tuple[int, ...], list[Vec]] = {}
        for (block, u), col in columns.items():
            blocks.setdefault(block, [vzero(dv)] * dv)[u] = col
        return cls(algebra, module, {b: Matrix.from_columns(cols) for b, cols in blocks.items()})

    def value(self, key: Key) -> Vec:
        """Column u of the matrix of a sorted block, for the key (block, u)."""
        block, u = key
        mat = self.action.get(block)
        return vzero(self.dim_v) if mat is None else mat.column(u)

    def act(self, gargs: Sequence[Element], v: Element) -> Vec:
        """ρ(gargs)v on possibly unsorted/vector-valued arguments, evaluated
        by :func:`~nlie.multilinear.apply_map` as the 1-block map it is."""
        if len(gargs) != self.algebra.n - 1:
            raise ValueError("action arity mismatch")
        return apply_map(self, [gargs], v)

    def operator(self, gargs: Sequence[Element]) -> Matrix:
        """Action matrix ρ(gargs) on possibly unsorted/vector-valued arguments:
        c·ρ(block) over the :func:`~nlie.multilinear.wedge_leaves` of the
        arguments, summed entry by entry on one coordinate dict, as ints
        while integral."""
        if len(gargs) != self.algebra.n - 1:
            raise ValueError("action arity mismatch")
        acc: dict[int, Coeff] = {}
        for (block,), x in wedge_leaves([gargs]).items():
            if block in self.action:
                accumulate(acc, itertools.chain.from_iterable(self.action[block].entries), x)
        dv = self.dim_v
        flat = from_coords(acc, dv * dv)
        return Matrix.from_fraction_rows([flat[i * dv:(i + 1) * dv] for i in range(dv)], dv)

    def __repr__(self):
        return f"Representation(n={self.algebra.n}, dim_g={self.algebra.dim}, dim_v={self.dim_v})"


def zero_representation(alg: NLieAlgebra, dim_v: int) -> Representation:
    return Representation(alg, SpaceSpec(dim_v, "V"))


def adjoint_rep(alg: NLieAlgebra) -> Representation:
    """ad(block) x = [block, x]: column x of a block is the bracket's entry (block, x)."""
    return Representation.from_columns(alg, SpaceSpec(alg.dim, "g"), alg.as_blockmap().table)


def coadjoint_rep(alg: NLieAlgebra) -> Representation:
    """Dual action on g*: the negated transpose of the adjoint matrices."""
    ad = adjoint_rep(alg)
    action = {k: m.transpose().scale(Fraction(-1)) for k, m in ad.action.items()}
    return Representation(alg, SpaceSpec(alg.dim, "g*"), action)


def semidirect_product(rep: Representation) -> NLieAlgebra:
    """g ⋉ V, its table read off the pair's tables.

    A V index sorts after every g index, so a key with one V index u ends in
    it and takes column u of its block's action matrix; an all-g key keeps
    its bracket value, and a key with two V indices is zero (V is an abelian
    ideal).  Values are padded with zeros on the other summand.
    """
    alg = rep.algebra
    dg, dv = alg.dim, rep.dim_v
    structure = {key: val + vzero(dv) for key, val in alg.structure.items()}
    for block, mat in rep.action.items():
        for u in range(dv):
            structure[block + (dg + u,)] = vzero(dg) + mat.column(u)
    return NLieAlgebra(alg.n, sum_space(dg, dv), structure)


def check_representation(rep: Representation) -> CheckReport:
    """ρ is a representation iff g ⋉ V satisfies the fundamental identity.

    V is an abelian ideal, so both sides vanish on basis tuples with two or
    more V indices; with one, u, they are the two representation identities
    read on u: (xs, ys + (u,)) gives [ρ(xs), ρ(ys)] = Σᵢ ρ(y₁..[xs, yᵢ]..yₙ₋₁)
    and (xs + (u,), ys) the compatibility of ρ with the bracket.  With u
    innermost the witness is the first failing pair of g-tuples (xs, ys).
    """
    sd = semidirect_product(rep)
    n, d = rep.n, rep.algebra.dim
    for detail, nx, ny in (("commutator identity fails", n - 1, n - 1),
                           ("bracket compatibility fails", n - 2, n)):
        for xs in itertools.combinations(range(d), nx):
            for ys in itertools.combinations(range(d), ny):
                for u in range(d, sd.dim):
                    pair = (xs, ys + (u,)) if ny < n else (xs + (u,), ys)
                    lhs, rhs = _fundamental_sides(sd, *pair)
                    if lhs != rhs:
                        return CheckReport(False, witness=(xs, ys), detail=detail)
    return CheckReport(True)


def semidirect_blockmap(rep: Representation) -> BlockMap:
    """The lift mu-hat + rho-hat over g ⊕ V: the semidirect product bracket."""
    return semidirect_product(rep).as_blockmap()


# ---------------------------------------------------------------------------
# n-pre-Lie algebras
# ---------------------------------------------------------------------------

class NPreLie:
    """Product antisymmetric in the first n-1 slots only, stored as a 1-block map."""

    __slots__ = ("n", "space", "product")

    def __init__(self, n: int, space: SpaceSpec, product: BlockMap):
        if product.blocks != 1 or product.n != n:
            raise ValueError("product must be a 1-block map of matching arity")
        self.n = n
        self.space = space
        self.product = product

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"NPreLie(n={self.n}, dim={self.dim})"


def pre_lie_from_table(n: int, dim: int,
                       table: Mapping[tuple[tuple[int, ...], int], Sequence]) -> NPreLie:
    space = SpaceSpec(dim, "g")
    bm = BlockMap(n, 1, space, space,
                  {(tuple(k[0]), k[1]): vector(v) for k, v in table.items()})
    return NPreLie(n, space, bm)


def sub_adjacent(p: NPreLie) -> NLieAlgebra:
    """The bracket Σᵢ (−1)^(n−1−i) x₁..x̂ᵢ..xₙ·xᵢ: the wedge sums of the product."""
    return NLieAlgebra(p.n, p.space, {w: v for (w,), v in wedge_sums(p.product).items()})


def left_mult_rep(p: NPreLie) -> Representation:
    """Left multiplication as a representation of the sub-adjacent algebra."""
    columns = {blocks + (tail,): v for blocks, tail, v in basis_entries(p.product)}
    return Representation.from_columns(sub_adjacent(p), p.space, columns)


def check_n_pre_lie(p: NPreLie) -> CheckReport:
    """A product is n-pre-Lie iff its left multiplication is a representation
    of its sub-adjacent algebra: the commutator identity and the bracket
    compatibility of :func:`check_representation`, read on L."""
    return check_representation(left_mult_rep(p))


# ---------------------------------------------------------------------------
# symplectic structures
# ---------------------------------------------------------------------------

@dataclass
class SymplecticForm:
    omega: Matrix


def check_symplectic(alg: NLieAlgebra, form: SymplecticForm) -> CheckReport:
    """ω is compatible iff it is skew and nondegenerate and T = (ωᵀ)⁻¹ is an
    operator on the coadjoint pair; a failing identity's witness is the
    increasing tuple of g* indices where `check_rb` first fails."""
    from .rota_baxter import check_rb  # rota_baxter builds on this module
    d = alg.dim
    w = form.omega
    if (w.rows, w.cols) != (d, d):
        return CheckReport(False, detail="form shape mismatch")
    if w.transpose() != w.scale(Fraction(-1)):
        return CheckReport(False, detail="form not skew-symmetric")
    try:
        t = symplectic_operator(alg, form)
    except ValueError:
        return CheckReport(False, detail="form degenerate")
    identity = check_rb(coadjoint_rep(alg), t)
    return identity if identity else replace(identity, detail="compatibility fails")


def symplectic_operator(alg: NLieAlgebra, form: SymplecticForm) -> Matrix:
    """T = (ωᵀ)⁻¹: g* -> g, whose inverse sends x to ω(x, ·), read off one
    elimination of [ωᵀ | I]; a degenerate ω leaves a pivot in I."""
    d, w = alg.dim, form.omega
    if (w.rows, w.cols) != (d, d):
        raise ValueError("form shape mismatch")
    red = _rref([row + basis_vec(d, i) for i, row in enumerate(w.transpose().entries)], 2 * d)
    if [pc for pc, _ in red] != list(range(d)):
        raise ValueError("degenerate form")
    return Matrix.from_fraction_rows(
        [tuple(Fraction(row.get(d + j, 0), row[pc]) for j in range(d)) for pc, row in red], d)


def symplectic_to_pre_lie(alg: NLieAlgebra, form: SymplecticForm) -> NPreLie:
    """The compatible product x·y = T ad*(x_1..x_{n-1}) T⁻¹y on g.

    T = :func:`symplectic_operator` is an operator on the coadjoint pair with
    T⁻¹ = ωᵀ; this is its product ad*(Tα_1..Tα_{n-1})α_n on g*
    (:func:`nlie.rota_baxter.pre_lie_of_operator`), carried to g by T.
    """
    t = symplectic_operator(alg, form)
    inv = form.omega.transpose()
    table = {}
    for block, mat in coadjoint_rep(alg).action.items():
        prod = t.matmul(mat).matmul(inv)
        for tail in range(alg.dim):
            table[(block, tail)] = prod.column(tail)
    bm = BlockMap(alg.n, 1, alg.space, alg.space, table)
    return NPreLie(alg.n, alg.space, bm)
