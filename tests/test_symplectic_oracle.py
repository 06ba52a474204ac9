"""Symplectic compatibility is read as an operator identity: ω is compatible
iff T = (ωᵀ)⁻¹ is a relative Rota-Baxter operator on the coadjoint pair.
The pairing identity of `oracles.oracle_check_symplectic` is its oracle, on
random nondegenerate integer skew forms over n = 2 and n = 3 algebras; the
operator is checked against its definition T·ωᵀ = I."""
import random

import pytest

from oracles import oracle_check_symplectic
from nlie import (Matrix, NLieAlgebra, SpaceSpec, SymplecticForm, abelian, check_filippov,
                  check_symplectic, symplectic_operator)
from nlie.linalg import rank

FORMS_PER_ALGEBRA = 300


def _n2(dim: int, structure: dict) -> NLieAlgebra:
    return NLieAlgebra(2, SpaceSpec(dim, "g"), structure)


@pytest.fixture(scope="module")
def symplectic_algebras(algebras) -> dict[str, NLieAlgebra]:
    """Even-dimensional algebras at n = 3 and n = 2, each verified."""
    cat = {
        "nilp4": algebras["nilp4"],
        "cross4": algebras["cross4"],
        "abelian(3,4)": abelian(3, 4),
        "solv2": algebras["solv2"],
        "aff+aff": _n2(4, {(0, 1): [0, 1, 0, 0], (2, 3): [0, 0, 0, 1]}),
        "h3+R": _n2(4, {(0, 1): [0, 0, 1, 0]}),
        "gl2": _n2(4, {(0, 1): [0, 2, 0, 0], (0, 2): [0, 0, -2, 0], (1, 2): [1, 0, 0, 0]}),
        "r2": _n2(4, {(0, 1): [0, 1, 0, 0], (0, 2): [0, 0, 1, 0], (0, 3): [0, 0, 0, 2]}),
    }
    for name, alg in cat.items():
        assert check_filippov(alg), name
    return cat


def random_skew_form(rng: random.Random, dim: int) -> SymplecticForm:
    """A random nondegenerate skew form with entries in -2..2."""
    while True:
        upper = {(i, j): rng.randint(-2, 2) for i in range(dim) for j in range(i + 1, dim)}
        w = Matrix([[upper[i, j] if i < j else -upper[j, i] if j < i else 0
                     for j in range(dim)] for i in range(dim)])
        if rank(w) == dim:
            return SymplecticForm(w)


def test_check_symplectic_matches_the_pairing_identity(symplectic_algebras):
    """Same verdict as the oracle on every form; a failure names the
    increasing n-tuple of g* indices where the operator identity fails, and
    the operator is (ωᵀ)⁻¹."""
    rng = random.Random(53)
    compatible: dict[str, int] = {}
    failed = 0
    for name, alg in symplectic_algebras.items():
        d = alg.dim
        compatible[name] = 0
        for _ in range(FORMS_PER_ALGEBRA):
            form = random_skew_form(rng, d)
            got, want = check_symplectic(alg, form), oracle_check_symplectic(alg, form)
            assert got.holds == want.holds, (name, form)
            t = symplectic_operator(alg, form)
            assert t.matmul(form.omega.transpose()) == Matrix.identity(d)
            if got.holds:
                compatible[name] += 1
                continue
            failed += 1
            assert got.detail == "compatibility fails"
            assert len(got.witness) == alg.n
            assert list(got.witness) == sorted(set(got.witness))
            assert all(0 <= i < d for i in got.witness)
    assert compatible["solv2"] == compatible["abelian(3,4)"] == FORMS_PER_ALGEBRA
    assert compatible["h3+R"] and compatible["nilp4"]
    assert failed >= FORMS_PER_ALGEBRA


@pytest.mark.parametrize("omega, detail", [
    ([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], "form shape mismatch"),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], "form not skew-symmetric"),
    ([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], "form degenerate"),
])
def test_check_symplectic_rejects_the_form_before_the_identity(symplectic_algebras, omega,
                                                                detail):
    alg = symplectic_algebras["h3+R"]
    form = SymplecticForm(Matrix(omega))
    for report in (check_symplectic(alg, form), oracle_check_symplectic(alg, form)):
        assert not report.holds
        assert report.detail == detail
        assert report.witness is None


def test_symplectic_operator_of_a_degenerate_form_raises(symplectic_algebras):
    """A rank-2 form on a 4-dim algebra has no inverse transpose."""
    form = SymplecticForm(Matrix([[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]]))
    assert rank(form.omega) == 2
    with pytest.raises(ValueError, match="degenerate form"):
        symplectic_operator(symplectic_algebras["nilp4"], form)
