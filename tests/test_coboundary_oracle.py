"""The differential against its oracle, the per-key coboundary.

`oracles.oracle_coboundary` evaluates every term of the differential at
every destination key; `oracle_coboundary_matrix` runs it once per source
basis cochain.  Production code builds each differential once per
representation and degree as sparse columns and applies those columns
instead; the tests below compare the two exactly.
"""
import random
from fractions import Fraction

import pytest

from conftest import random_blockmap
from oracles import oracle_coboundary, oracle_coboundary_matrix

from nlie import BlockMap, LazyMap, SpaceSpec, adjoint_rep, cli, cochain, zero_representation
from nlie.cochain import coboundary, coboundary_matrix, graded_bracket
from nlie.core import Representation
from nlie.rota_baxter import RBOperator, rb_coboundary_matrix


def fresh(rep: Representation) -> Representation:
    """A copy of rep with no differential built yet."""
    return Representation(rep.algebra, rep.module, rep.action)


def test_matrices_equal_the_oracle_on_the_catalog(reps):
    for rep in reps:
        for m in (1, 2):
            assert coboundary_matrix(fresh(rep), m) == oracle_coboundary_matrix(rep, m), (rep, m)


@pytest.mark.parametrize("name", ["sl2", "heis3", "heis3_raised"])
def test_degree3_matrices_equal_the_oracle(algebras, name):
    rep = adjoint_rep(algebras[name])
    assert coboundary_matrix(rep, 3) == oracle_coboundary_matrix(rep, 3)


def test_operator_matrices_equal_the_oracle(operator_corpus):
    for t in operator_corpus:
        op = RBOperator(t.rep, t.matrix)
        for m in (1, 2):
            assert rb_coboundary_matrix(op, m) == \
                oracle_coboundary_matrix(t.induced_rep, m), (t, m)


def test_coboundary_equals_the_oracle_on_random_cochains(reps):
    rng = random.Random(7)
    for rep in reps:
        d, n, dv = rep.algebra.dim, rep.algebra.n, rep.dim_v
        for blocks in (0, 1, 2):
            if blocks == 2 and d > 3:
                continue
            for density in (0.2, 1.0):
                f = random_blockmap(rng, n, blocks, d, dv, density=density)
                assert coboundary(rep, f) == oracle_coboundary(rep, f), (rep, blocks)


def test_coboundary_of_a_lazy_map_equals_the_oracle(algebras):
    """The oracle reads a bracket key by key through a `LazyMap`; the
    differential takes the bracket's table."""
    rep = adjoint_rep(algebras["heis3"])
    rng = random.Random(8)
    f = random_blockmap(rng, 2, 1, 3, 3, "g", "g")
    g = random_blockmap(rng, 2, 0, 3, 3, "g", "g", density=0.5)
    br = graded_bracket(f, g)
    lazy = LazyMap(br.n, br.blocks, br.source, br.target, br.value)
    assert coboundary(rep, br) == oracle_coboundary(rep, lazy)
    assert not coboundary(rep, br).is_zero()


def test_non_canonical_keys_are_ignored(algebras):
    """A key with an unsorted or repeated block, or with blocks of the wrong
    size, is never read by the per-key evaluator; the row-direct
    differential skips it too."""
    rep = adjoint_rep(algebras["cross4"])
    g = SpaceSpec(4, "g")
    one = (Fraction(1), Fraction(0), Fraction(-2), Fraction(1, 3))
    f = BlockMap(3, 1, g, g, {((0, 1), 2): one, ((1, 0), 2): one,
                              ((2, 2), 3): one, ((1,), 0): one})
    assert coboundary(rep, f) == oracle_coboundary(rep, f)
    assert coboundary(rep, f) == coboundary(rep, BlockMap(3, 1, g, g, {((0, 1), 2): one}))
    assert not coboundary(rep, f).is_zero()


def test_zero_dimensional_module(algebras):
    rep = zero_representation(algebras["sl2"], 0)
    f = BlockMap(2, 1, SpaceSpec(3, "g"), SpaceSpec(0, "V"))
    assert coboundary(rep, f) == oracle_coboundary(rep, f)
    assert coboundary_matrix(rep, 2) == oracle_coboundary_matrix(rep, 2)


def test_shape_mismatch_still_raises(algebras):
    rep = adjoint_rep(algebras["sl2"])
    with pytest.raises(ValueError, match="source"):
        coboundary(rep, BlockMap(2, 0, SpaceSpec(2, "g"), SpaceSpec(3, "g")))
    with pytest.raises(ValueError, match="target"):
        coboundary(rep, BlockMap(2, 0, SpaceSpec(3, "g"), SpaceSpec(2, "g")))


@pytest.mark.parametrize("target", ["pair", "operator"])
def test_cohomology_builds_each_differential_once(tmp_path, monkeypatch, capsys, target):
    """`cohomology --max-m 3` builds one differential per degree m >= 1 and
    still calls `coboundary` once per source basis cochain."""
    builds, calls = [], []
    real_build, real_cob = cochain._differential, cochain.coboundary

    def counting_build(rep, m):
        builds.append(m)
        return real_build(rep, m)

    def counting_cob(rep, f):
        calls.append(f.blocks + 1)
        return real_cob(rep, f)

    monkeypatch.setattr(cochain, "_differential", counting_build)
    monkeypatch.setattr(cochain, "coboundary", counting_cob)
    path = tmp_path / "p.json"
    path.write_text('{"schema_version": "1", "n": 2, '
                    '"g": {"dim": 3, "bracket": [{"args": [1, 2], "value": {"3": "1"}}]}, '
                    '"V": {"dim": 2}, "T": [["0", "0"], ["0", "0"], ["1", "0"]]}')
    assert cli.main(["cohomology", str(path), "--max-m", "3",
                     "--target", target, "--json"]) == 0
    capsys.readouterr()
    assert builds == [1, 2, 3]
    # pair: |C^m| = 3^(m-1)·3·2; operator: |C^m| = 2^(m-1)·2·3
    per_degree = {1: 6, 2: 18, 3: 54} if target == "pair" else {1: 6, 2: 12, 3: 24}
    assert [calls.count(m) for m in (1, 2, 3)] == [per_degree[m] for m in (1, 2, 3)]
