"""Seeded inputs for the benchmark workloads.

Everything the engine sees is made here from the workload seed: problem
files written to disk for the CLI jobs, and library objects for the oracle
jobs.  The same seed gives byte-identical files.  Structures are built
constructively (catalog algebras, basis changes, kernels of d_1), so every
valid input is valid by construction; broken inputs are perturbed until the
library's own checker rejects them.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from nlie import (Matrix, NLieAlgebra, Representation, SpaceSpec,
                  SymplecticForm, abelian, check_filippov,
                  check_rb, check_representation, kernel_basis,
                  left_mult_rep, solve_linear, symplectic_to_pre_lie)
from nlie.deformation import DeformationJet, check_order
from nlie.linalg import basis_vec
from nlie.multilinear import BlockMap, iter_keys
from nlie.rota_baxter import (RBOperator, Wedge, rb_coboundary_matrix,
                              vector_to_matrix_cochain, wedge_basis,
                              wedge_coboundary)

# the catalog of tests/conftest.py: (arity, dim, structure constants)
CATALOG = {
    "sl2": (2, 3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}),
    "heis3": (2, 3, {(0, 1): (0, 0, 1)}),
    "nilp4": (3, 4, {(0, 1, 2): (0, 0, 0, 1)}),
    "cross4": (3, 4, {(0, 1, 2): (0, 0, 0, 1), (0, 1, 3): (0, 0, -1, 0),
                      (0, 2, 3): (0, 1, 0, 0), (1, 2, 3): (-1, 0, 0, 0)}),
}
NILP4_FORM = ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0))
# frozen first-order jet over sl2 with a nontrivial obstruction class
OBSTRUCTED_SL2_T1 = ((2, -1, -1), (2, -1, 2), (-2, -2, 0))


def catalog_algebra(name: str) -> NLieAlgebra:
    n, d, structure = CATALOG[name]
    return NLieAlgebra(n, SpaceSpec(d, "g"), structure)


def nilp4_symplectic() -> tuple[RBOperator, Matrix]:
    """The identity operator on (nilp4; L) from the symplectic form, and the form."""
    alg = catalog_algebra("nilp4")
    form = Matrix(NILP4_FORM)
    rep = left_mult_rep(symplectic_to_pre_lie(alg, SymplecticForm(form)))
    return RBOperator(rep, Matrix.identity(4)), form


def one_block_pair() -> Representation:
    """Abelian 3-dim algebra acting on a 2-dim module through one block."""
    return Representation(abelian(3, 3), SpaceSpec(2, "V"),
                          {(0, 1): Matrix([[0, 1], [0, 0]])})


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------

def sign_flips(rng: random.Random, d: int) -> Matrix:
    """A seeded diagonal ±1 matrix: flipping basis vectors changes the signs
    of structure constants but not the amount of work any job does."""
    return Matrix([[rng.choice((-1, 1)) if i == j else 0 for j in range(d)]
                   for i in range(d)])


def dense_unimodular(rng: random.Random, d: int) -> Matrix:
    """L·U with every off-diagonal entry ±1: integer, determinant 1, dense."""
    low = Matrix([[1 if i == j else (rng.choice((-1, 1)) if i > j else 0)
                   for j in range(d)] for i in range(d)])
    up = Matrix([[1 if i == j else (rng.choice((-1, 1)) if i < j else 0)
                  for j in range(d)] for i in range(d)])
    return low.matmul(up)


def inverse(p: Matrix) -> Matrix:
    d = p.rows
    return Matrix.from_columns([solve_linear(p, basis_vec(d, j)) for j in range(d)])


def change_basis(rep: Representation, p: Matrix, q: Matrix) -> Representation:
    """The same pair written in the bases given by the columns of p (on g)
    and q (on V)."""
    alg = rep.algebra
    n, d = alg.n, alg.dim
    pinv, qinv = inverse(p), inverse(q)
    cols = [p.column(j) for j in range(d)]
    structure = {}
    for key in itertools.combinations(range(d), n):
        structure[key] = pinv.mul_vec(alg.bracket([cols[i] for i in key]))
    action = {}
    for block in itertools.combinations(range(d), n - 1):
        action[block] = qinv.matmul(rep.operator([cols[i] for i in block])).matmul(q)
    new_alg = NLieAlgebra(n, SpaceSpec(d, "g"), structure)
    return Representation(new_alg, SpaceSpec(rep.dim_v, rep.module.label), action)


def structure_nnz(rep: Representation) -> int:
    vals = list(rep.algebra.structure.values())
    vals += [row for m in rep.action.values() for row in m.entries]
    return sum(1 for v in vals for x in v if x != 0)


def dense_basis(name: str, rep: Representation, rng: random.Random,
                draws: int = 8) -> Matrix:
    """A dense integer unimodular basis change for a catalog pair.

    The dense matrix is the first of `draws` fixed draws that maximizes the
    nonzero count of the transformed pair; the seed only flips the signs of
    the new basis vectors.  Exact elimination costs differ by a third
    between unrelated dense bases of the same density, which would make the
    spread between seeds wider than the regressions the benchmark has to
    see, so the seed must not choose the dense matrix itself."""
    fixed = random.Random(f"dense:{name}")
    best, best_nnz = None, -1
    for _ in range(draws):
        p = dense_unimodular(fixed, rep.algebra.dim)
        nnz = structure_nnz(change_basis(rep, p, p))
        if nnz > best_nnz:
            best, best_nnz = p, nnz
    return best.matmul(sign_flips(rng, rep.algebra.dim))


def transformed_operator(t: RBOperator, p: Matrix) -> RBOperator:
    """An operator on a pair with V = g, moved along one basis change."""
    return RBOperator(change_basis(t.rep, p, p), inverse(p).matmul(t.matrix).matmul(p))


# ---------------------------------------------------------------------------
# deformation and lift inputs
# ---------------------------------------------------------------------------

def small_int(rng: random.Random, span: int = 2, nonzero: bool = False) -> int:
    while True:
        x = rng.randint(-span, span)
        if x or not nonzero:
            return x


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 2) -> Matrix:
    return Matrix([[small_int(rng, span) for _ in range(cols)] for _ in range(rows)])


def cocycles(t: RBOperator, rng: random.Random, count: int) -> list[Matrix]:
    """Nonzero ±1 combinations of the whole exact kernel basis of d_1.

    Every basis vector takes part with a seeded sign, so the seed changes
    the cocycle but hardly the cost of the jobs that use it; free integer
    coefficients made the extension jobs differ by half between seeds."""
    kb = kernel_basis(rb_coboundary_matrix(t, 1))
    out = []
    while len(out) < count:
        coeffs = [rng.choice((-1, 1)) for _ in kb]
        vec = tuple(sum((c * v[i] for c, v in zip(coeffs, kb)), Fraction(0))
                    for i in range(len(kb[0])))
        if any(vec):
            out.append(vector_to_matrix_cochain(t, vec))
    return out


def random_wedge(rng: random.Random, t: RBOperator) -> Wedge:
    n, dg = t.algebra.n, t.algebra.dim
    return Wedge(dg, n - 1, {b: Fraction(small_int(rng, nonzero=True))
                             for b in wedge_basis(dg, n - 1)})


def blockmap_to_matrix(bm: BlockMap, rows: int, cols: int) -> Matrix:
    """A 0-block map V -> g (keys (u,)) as its dim(g) x dim(V) matrix."""
    zero = (Fraction(0),) * rows
    return Matrix.from_columns([bm.table.get((u,), zero) for u in range(cols)])


def gauge_shift(t: RBOperator, t1: Matrix, x: Wedge) -> Matrix:
    """T1' = T1 + dX, equivalent to T1 by construction."""
    dx = wedge_coboundary(t, x)
    return t1 + blockmap_to_matrix(dx, t.algebra.dim, t.rep.dim_v)


def broken_jet(t: RBOperator, rng: random.Random, t1: Matrix) -> list[Matrix]:
    """A perturbed second-order jet that fails some coefficient equation.

    Two orders are needed: over the zero operator every first coefficient
    is a cocycle, and the first failure shows at order 2."""
    while True:
        jet = [t1 + random_matrix(rng, t1.rows, t1.cols, span=1),
               random_matrix(rng, t1.rows, t1.cols, span=1)]
        if not check_order(DeformationJet(t, jet)):
            return jet


def random_cochain(rng: random.Random, n: int, blocks: int, dim_s: int,
                   dim_t: int, density: float = 0.5) -> BlockMap:
    """Nonzero values on a seeded set of exactly `density` of the keys, so
    that every seed gives the chain-map checks the same amount of work."""
    keys = list(iter_keys(dim_s, n - 1, blocks))
    chosen = sorted(rng.sample(range(len(keys)), max(1, round(density * len(keys)))))
    table = {keys[i]: tuple(Fraction(small_int(rng, nonzero=True)) for _ in range(dim_t))
             for i in chosen}
    return BlockMap(n, blocks, SpaceSpec(dim_s), SpaceSpec(dim_t), table)


# ---------------------------------------------------------------------------
# broken structures
# ---------------------------------------------------------------------------

def broken_algebra(rng: random.Random, rep: Representation) -> Representation:
    """Adds ±1 to one structure constant until the fundamental identity fails."""
    alg = rep.algebra
    keys = list(itertools.combinations(range(alg.dim), alg.n))
    while True:
        key = rng.choice(keys)
        i = rng.randrange(alg.dim)
        structure = dict(alg.structure)
        val = list(structure.get(key, (Fraction(0),) * alg.dim))
        val[i] += rng.choice((-1, 1))
        structure[key] = tuple(val)
        bad = NLieAlgebra(alg.n, alg.space, structure)
        if not check_filippov(bad):
            return Representation(bad, rep.module, rep.action)


def broken_action(rng: random.Random, rep: Representation) -> Representation:
    """Adds ±1 to one action entry until the representation identities fail."""
    alg = rep.algebra
    blocks = list(itertools.combinations(range(alg.dim), alg.n - 1))
    dv = rep.dim_v
    while True:
        block = rng.choice(blocks)
        i, j = rng.randrange(dv), rng.randrange(dv)
        action = dict(rep.action)
        mat = [list(r) for r in action.get(block, Matrix.zero(dv, dv)).entries]
        mat[i][j] += rng.choice((-1, 1))
        action[block] = Matrix(mat)
        bad = Representation(alg, rep.module, action)
        if not check_representation(bad):
            return bad


def broken_operator(rng: random.Random, t: RBOperator) -> Matrix:
    """Adds a random ±1/0 matrix to the operator until its identity fails.

    A single-entry change is not enough: a rank-one operator into an
    abelian direction satisfies the identity for n >= 3."""
    while True:
        bad = t.matrix + random_matrix(rng, t.matrix.rows, t.matrix.cols, span=1)
        if not check_rb(t.rep, bad):
            return bad


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def _rat(x: Fraction):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _mat(m: Matrix) -> list:
    return [[_rat(x) for x in row] for row in m.entries]


def _sparse(v) -> dict:
    return {str(i + 1): _rat(x) for i, x in enumerate(v) if x != 0}


def problem_dict(rep: Representation, t: Matrix | None = None, *, f=None,
                 omega: Matrix | None = None, x0=None,
                 deformation=(), deformation_prime=(), cochains=()) -> dict:
    """The problem-file schema, written without going through nlie.io."""
    alg = rep.algebra
    out = {
        "schema_version": "1",
        "n": alg.n,
        "g": {"dim": alg.dim,
              "bracket": [{"args": [i + 1 for i in k], "value": _sparse(v)}
                          for k, v in sorted(alg.structure.items())]},
        "V": {"dim": rep.dim_v},
        "rho": [{"block": [i + 1 for i in k], "matrix": _mat(m)}
                for k, m in sorted(rep.action.items())],
    }
    if t is not None:
        out["T"] = _mat(t)
    if f is not None:
        out["f"] = [_rat(x) for x in f]
    if omega is not None:
        out["omega"] = _mat(omega)
    if x0 is not None:
        out["x0"] = [_rat(x) for x in x0]
    if deformation:
        out["deformation"] = [_mat(m) for m in deformation]
    if deformation_prime:
        out["deformation_prime"] = [_mat(m) for m in deformation_prime]
    if cochains:
        out["cochains"] = [
            {"space": space, "degree": bm.blocks + 1,
             "entries": [{"blocks": [[i + 1 for i in b] for b in k[:-1]],
                          "tail": k[-1] + 1, "value": _sparse(v)}
                         for k, v in sorted(bm.table.items())]}
            for space, bm in cochains]
    return out


def write_problem(directory: Path, name: str, payload: dict) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)
