"""`verify` and `lift` read both pair verdicts off one [δ, δ].

`oracles.oracle_pair_entries` runs both direct checkers, always.  When
[δ, δ] vanishes both entries pass without them; when it does not, the
direct checkers still run, so the entries, witnesses and details must be
the oracle's on every pair below.
"""
import itertools
import random

from conftest import broken_action, broken_algebra
from oracles import oracle_pair_entries

from nlie import (Matrix, Representation, SpaceSpec, abelian, adjoint_rep, cli,
                  coadjoint_rep, core)
from nlie.cli import _pair_entries
from nlie.lift import admissible_covectors, raise_arity_rep


def random_action(rng: random.Random, n: int, dim: int, dim_v: int) -> Representation:
    """Random integer actions of an abelian algebra, on some blocks."""
    action = {block: Matrix([[rng.randint(-1, 1) for _ in range(dim_v)]
                             for _ in range(dim_v)])
              for block in itertools.combinations(range(dim), n - 1) if rng.random() < 0.9}
    return Representation(abelian(n, dim), SpaceSpec(dim_v, "V"), action)


def corpus(algebras, operator_corpus) -> list[Representation]:
    """Catalog adjoint and coadjoint pairs and nilp4-L, a broken-bracket and
    a broken-action copy of each, random actions on abelian algebras, and
    the raise of every pair by every admissible covector."""
    rng = random.Random(142)
    base = [make(alg) for alg in algebras.values() for make in (adjoint_rep, coadjoint_rep)]
    base.append(operator_corpus[3].rep)  # nilp4-L
    broken = []
    for rep in base:
        if rep.dim_v and rep.algebra.dim >= rep.algebra.n - 1:
            broken.append(broken_action(rng, rep))
        if rep.algebra.dim >= rep.algebra.n:
            broken.append(broken_algebra(rng, rep))
    actions = [random_action(rng, n, dim, dim_v)
               for n, dim in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)) for dim_v in (1, 2)
               for _ in range(3)]
    pairs = base + broken + actions
    raised = [raise_arity_rep(rep, f) for rep in pairs
              for f in admissible_covectors(rep.algebra)]
    return pairs + raised


def test_pair_entries_match_the_direct_checkers(algebras, operator_corpus):
    pairs = corpus(algebras, operator_corpus)
    statuses, details = set(), set()
    for rep in pairs:
        for prefix in ("", "raised_"):
            got = _pair_entries(rep, prefix)
            assert got == oracle_pair_entries(rep, prefix)
        statuses.add(tuple(e["status"] for e in got))
        details.update(e["detail"] for e in got if "detail" in e)
    assert len(pairs) >= 150
    assert {("pass", "pass"), ("pass", "fail"), ("fail", "fail")} <= statuses
    assert details == {"fundamental identity fails", "commutator identity fails",
                       "bracket compatibility fails"}


def test_valid_pairs_skip_the_direct_checkers(algebras, operator_corpus, monkeypatch):
    """Only a pair whose [δ, δ] is nonzero runs the direct checkers."""
    calls = []

    def counted(name):
        inner = getattr(core, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(cli, name, wrapper)

    for name in ("check_filippov", "check_representation"):
        counted(name)
    for rep in corpus(algebras, operator_corpus):
        calls.clear()
        entries = _pair_entries(rep)
        failed = any(e["status"] == "fail" for e in entries)
        assert calls == (["check_filippov", "check_representation"] if failed else [])
