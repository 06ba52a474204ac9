"""Shared corpus of engine-verified structures and random generators.

Random structure constants essentially never satisfy the fundamental
identity, so validated instances are built constructively (catalog algebras,
arity raising, operator-induced structures) and every one is re-verified by
the checkers before tests get to use it.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from nlie import (BlockMap, Matrix, NLieAlgebra, Representation, SpaceSpec,
                  abelian, adjoint_rep, coadjoint_rep, check_filippov,
                  check_representation, check_rb, zero_representation)
from nlie.lift import admissible_covectors, raise_arity, raise_arity_rep
from nlie.linalg import vector
from nlie.multilinear import iter_keys, tail_antisymmetrize
from nlie.rota_baxter import RBOperator


def rand_frac(rng: random.Random, span: int = 2) -> Fraction:
    return Fraction(rng.randint(-span, span))


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 2) -> Matrix:
    return Matrix([[rand_frac(rng, span) for _ in range(cols)] for _ in range(rows)])


def random_blockmap(rng: random.Random, n: int, blocks: int, dim_s: int, dim_t: int,
                    src_label: str = "g", tgt_label: str = "V",
                    density: float = 1.0) -> BlockMap:
    table = {}
    for key in iter_keys(dim_s, n - 1, blocks):
        if density < 1.0 and rng.random() > density:
            continue
        table[key] = tuple(rand_frac(rng) for _ in range(dim_t))
    return BlockMap(n, blocks, SpaceSpec(dim_s, src_label), SpaceSpec(dim_t, tgt_label), table)


def random_wedge_tail_cochain(rng: random.Random, n: int, blocks: int,
                              dim_s: int, dim_t: int) -> BlockMap:
    """Random cochain in the wedge-tail subspace (the honest cochain space)."""
    return tail_antisymmetrize(random_blockmap(rng, n, blocks, dim_s, dim_t))


def random_homogeneous(rng: random.Random, n: int, blocks: int, dim_g: int,
                       dim_v: int, k: int, l: int) -> BlockMap:
    """Random sum-space map of exact bidegree k|l (zero if the shape is empty)."""
    from nlie.multilinear import sum_space
    assert k + l == blocks * (n - 1)
    space = sum_space(dim_g, dim_v)
    total = dim_g + dim_v
    table = {}
    for key in iter_keys(total, n - 1, blocks):
        slots = [i for blk in key[:-1] for i in blk] + [key[-1]]
        ng = sum(1 for i in slots if i < dim_g)
        nv = len(slots) - ng
        if (ng, nv) == (k + 1, l):
            v = tuple(rand_frac(rng) for _ in range(dim_g)) + tuple(
                Fraction(0) for _ in range(dim_v))
        elif (ng, nv) == (k, l + 1):
            v = tuple(Fraction(0) for _ in range(dim_g)) + tuple(
                rand_frac(rng) for _ in range(dim_v))
        else:
            continue
        table[key] = v
    return BlockMap(n, blocks, space, space, table)


def koszul_sign(perm: tuple[int, ...], degrees: list[int]) -> int:
    """Sign of permuting graded symmetric symbols: each inversion of a pair
    of odd-degree symbols contributes −1 (no plain permutation sign)."""
    sign = 1
    k = len(perm)
    for a in range(k):
        for b in range(a + 1, k):
            if perm[a] > perm[b] and degrees[perm[a]] % 2 and degrees[perm[b]] % 2:
                sign = -sign
    return sign


def broken_action(rng: random.Random, rep: Representation) -> Representation:
    """rep with ±1 added to one entry of one action matrix."""
    blocks = list(itertools.combinations(range(rep.algebra.dim), rep.algebra.n - 1))
    block = rng.choice(blocks)
    dv = rep.dim_v
    bump = Matrix([[rng.choice((-1, 1)) if (r, c) == (0, dv - 1) else 0
                    for c in range(dv)] for r in range(dv)])
    action = dict(rep.action)
    action[block] = action[block] + bump if block in action else bump
    return Representation(rep.algebra, rep.module, action)


def broken_algebra(rng: random.Random, rep: Representation) -> Representation:
    """rep over its algebra with ±1 added to one structure constant."""
    alg = rep.algebra
    key = rng.choice(list(itertools.combinations(range(alg.dim), alg.n)))
    structure = dict(alg.structure)
    val = list(structure.get(key, (Fraction(0),) * alg.dim))
    val[rng.randrange(alg.dim)] += rng.choice((-1, 1))
    structure[key] = tuple(val)
    return Representation(NLieAlgebra(alg.n, alg.space, structure), rep.module, rep.action)


def _verified(alg: NLieAlgebra) -> NLieAlgebra:
    assert check_filippov(alg), f"catalog algebra failed verification: {alg}"
    return alg


def _verified_rep(rep: Representation) -> Representation:
    assert check_representation(rep), f"catalog representation failed: {rep}"
    return rep


def make_algebra_catalog() -> dict[str, NLieAlgebra]:
    cat = {}
    cat["ab2_2"] = _verified(abelian(2, 2))
    cat["ab3_3"] = _verified(abelian(3, 3))
    cat["solv2"] = _verified(NLieAlgebra(2, SpaceSpec(2, "g"), {(0, 1): [0, 1]}))
    cat["heis3"] = _verified(NLieAlgebra(2, SpaceSpec(3, "g"), {(0, 1): [0, 0, 1]}))
    cat["sl2"] = _verified(NLieAlgebra(2, SpaceSpec(3, "g"), {
        (0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}))
    cat["nilp4"] = _verified(NLieAlgebra(3, SpaceSpec(4, "g"), {(0, 1, 2): [0, 0, 0, 1]}))
    cat["cross4"] = _verified(NLieAlgebra(3, SpaceSpec(4, "g"), {
        (0, 1, 2): [0, 0, 0, 1], (0, 1, 3): [0, 0, -1, 0],
        (0, 2, 3): [0, 1, 0, 0], (1, 2, 3): [-1, 0, 0, 0]}))
    # raised catalog members (first admissible direction each)
    for name in ("solv2", "heis3", "sl2"):
        base = cat[name]
        covs = admissible_covectors(base)
        if covs:
            cat[f"{name}_raised"] = _verified(raise_arity(base, covs[0]))
    return cat


def one_block_action_pair() -> Representation:
    """Abelian 3-dim algebra acting on a 2-dim module through a single block."""
    alg = abelian(3, 3)
    act = {(0, 1): Matrix([[0, 1], [0, 0]])}
    return _verified_rep(Representation(alg, SpaceSpec(2, "V"), act))


def make_rep_catalog(algebras: dict[str, NLieAlgebra]) -> list[Representation]:
    reps = []
    for name in ("solv2", "heis3", "sl2", "nilp4", "cross4"):
        alg = algebras[name]
        reps.append(_verified_rep(adjoint_rep(alg)))
        reps.append(_verified_rep(coadjoint_rep(alg)))
        reps.append(zero_representation(alg, 2))
    reps.append(zero_representation(algebras["ab3_3"], 2))
    reps.append(one_block_action_pair())
    for name in ("solv2_raised", "heis3_raised", "sl2_raised"):
        if name in algebras:
            base = algebras[name.removesuffix("_raised")]
            covs = admissible_covectors(base)
            reps.append(_verified_rep(raise_arity_rep(adjoint_rep(base), covs[0])))
    return reps


def central_image_operator(rep: Representation, rng: random.Random) -> Matrix:
    """A random operator whose image avoids every structure key and action
    block; such operators satisfy the defining identity trivially."""
    alg = rep.algebra
    dg, dv = alg.dim, rep.dim_v
    used = set()
    for key in alg.structure:
        used.update(key)
    for block in rep.action:
        used.update(block)
    free = [j for j in range(dg) if j not in used]
    cols = []
    for _ in range(dv):
        col = [Fraction(0)] * dg
        for j in free:
            col[j] = rand_frac(rng)
        cols.append(tuple(col))
    return Matrix.from_columns(cols)


def arity_raising_configs(algebras: dict[str, NLieAlgebra],
                          rng: random.Random) -> list[tuple]:
    """(algebra, rep, admissible f, operator T) for arity raising: the
    adjoint, coadjoint and zero pairs of solv2, heis3 and nilp4 with the zero
    and a central-image T, the one-block pair with a T that admits a
    normalized central element, and the symplectic nilp4 operator."""
    from nlie import SymplecticForm, left_mult_rep, symplectic_to_pre_lie
    configs = []
    pool = []
    for name in ("solv2", "heis3", "nilp4"):
        alg = algebras[name]
        for rep in (adjoint_rep(alg), coadjoint_rep(alg),
                    zero_representation(alg, 2)):
            for f in admissible_covectors(alg):
                pool.append((alg, rep, f))
    for alg, rep, f in pool:
        configs.append((alg, rep, f, Matrix.zero(alg.dim, rep.dim_v)))
        configs.append((alg, rep, f, central_image_operator(rep, rng)))
    rep1 = one_block_action_pair()
    configs.append((rep1.algebra, rep1, vector((0, 0, 1)), Matrix([[0, 0], [0, 0], [1, 2]])))
    nilp = algebras["nilp4"]
    form = SymplecticForm(Matrix([[0, 0, 0, 1], [0, 0, 1, 0],
                                  [0, -1, 0, 0], [-1, 0, 0, 0]]))
    lrep = left_mult_rep(symplectic_to_pre_lie(nilp, form))
    for f in admissible_covectors(nilp)[:2]:
        configs.append((nilp, lrep, f, Matrix.identity(4)))
    return configs


@pytest.fixture(scope="session")
def algebras() -> dict[str, NLieAlgebra]:
    return make_algebra_catalog()


@pytest.fixture(scope="session")
def reps(algebras) -> list[Representation]:
    return make_rep_catalog(algebras)


@pytest.fixture(scope="session")
def operator_corpus(algebras) -> list[RBOperator]:
    """Engine-verified relative Rota-Baxter operators of varied origin."""
    from nlie import (SymplecticForm, check_symplectic, left_mult_rep,
                      symplectic_operator, symplectic_to_pre_lie)
    rng = random.Random(2024)
    ops: list[RBOperator] = []
    # zero operators on nontrivial pairs
    for alg_name in ("sl2", "nilp4"):
        rep = adjoint_rep(algebras[alg_name])
        ops.append(RBOperator(rep, Matrix.zero(rep.algebra.dim, rep.dim_v)))
    # anything on the all-zero pair
    rep0 = zero_representation(abelian(3, 3), 2)
    ops.append(RBOperator(rep0, random_matrix(rng, 3, 2)))
    # identity on (g; L) from the symplectic nilpotent example
    nilp = algebras["nilp4"]
    form = SymplecticForm(Matrix([[0, 0, 0, 1], [0, 0, 1, 0],
                                  [0, -1, 0, 0], [-1, 0, 0, 0]]))
    assert check_symplectic(nilp, form)
    pre = symplectic_to_pre_lie(nilp, form)
    ops.append(RBOperator(left_mult_rep(pre), Matrix.identity(4)))
    # the form-induced operator on the coadjoint pair
    ops.append(RBOperator(coadjoint_rep(nilp), symplectic_operator(nilp, form)))
    # central-image operator on the one-block abelian action
    rep1 = one_block_action_pair()
    ops.append(RBOperator(rep1, Matrix([[0, 0], [0, 0], [1, 2]])))
    ops.append(RBOperator(rep1, Matrix([[0, 0], [0, 0], [-1, 1]])))
    # scaled copies
    ops.append(RBOperator(ops[3].rep, ops[3].matrix.scale(Fraction(-2))))
    for op in ops:
        assert check_rb(op.rep, op.matrix), "operator corpus entry failed verification"
    return ops
