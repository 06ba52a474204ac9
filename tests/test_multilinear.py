import random
from fractions import Fraction

import pytest

from conftest import random_blockmap

from nlie import BlockMap, Matrix, SpaceSpec
from nlie.core import semidirect_blockmap
from nlie.cochain import graded_bracket
from nlie.linalg import basis_vec, vector, viszero, vzero
from nlie.multilinear import (apply_map, bidegree_of, iter_keys, lift_map,
                              lift_operator_map, project_operator_part,
                              restrict_map, sum_space, tail_antisymmetrize)


def test_zero_map_evaluates_zero():
    z = BlockMap(3, 1, SpaceSpec(3), SpaceSpec(2))
    assert apply_map(z, [[0, 1]], 2) == vzero(2)


def test_block_swap_negates():
    src, tgt = SpaceSpec(4), SpaceSpec(4)
    f = BlockMap(3, 1, src, tgt, {((0, 1), 2): basis_vec(4, 3)})
    assert apply_map(f, [[1, 0]], 2) == tuple(-x for x in basis_vec(4, 3))


def test_repeated_index_vanishes():
    src, tgt = SpaceSpec(4), SpaceSpec(4)
    f = BlockMap(3, 1, src, tgt, {((0, 1), 2): basis_vec(4, 3)})
    assert viszero(apply_map(f, [[0, 0]], 2))


def test_vector_arguments_expand_linearly():
    rng = random.Random(3)
    f = random_blockmap(rng, 3, 1, 3, 2)
    v = vector([2, -1, 0])
    got = apply_map(f, [[v, 1]], 2)
    expect = tuple(2 * a - b for a, b in zip(apply_map(f, [[0, 1]], 2),
                                             apply_map(f, [[1, 1]], 2)))
    assert got == expect


def test_random_slot_swap_negates():
    rng = random.Random(17)
    for _ in range(20):
        f = random_blockmap(rng, 3, 2, 3, 2)
        key = rng.choice(list(iter_keys(3, 2, 2)))
        blocks = [list(b) for b in key[:-1]]
        b = rng.randrange(2)
        blocks[b] = [blocks[b][1], blocks[b][0]]
        flipped = apply_map(f, blocks, key[-1])
        straight = apply_map(f, [list(x) for x in key[:-1]], key[-1])
        assert flipped == tuple(-x for x in straight)


def test_lift_bracket_bidegree(algebras):
    alg = algebras["nilp4"]
    mu_hat = lift_map(alg.as_blockmap(), sum_space(alg.dim, 2), "g", "g")
    assert bidegree_of(mu_hat) == (alg.n - 1, 0)


def test_lift_linear_bidegree():
    h = Matrix([[1, 0], [0, 2], [0, 0]])
    h_map = BlockMap(3, 0, SpaceSpec(2, "V"), SpaceSpec(3, "g"),
                     {(u,): h.column(u) for u in range(2)})
    h_hat = lift_operator_map(h_map, 3)
    assert bidegree_of(h_hat) == (-1, 1)
    # pure-g tail gives zero
    assert viszero(apply_map(h_hat, [], 0))


def test_lift_action_vanishes_on_pure_g(reps):
    rep = next(r for r in reps if r.action)
    delta = semidirect_blockmap(rep)
    dg = rep.algebra.dim
    # all-g slots: value must be the bracket, with zero module part
    for key in iter_keys(dg, rep.algebra.n - 1, 1):
        v = delta.value(key)
        assert viszero(v[dg:])


def test_sum_of_mixed_bidegrees_inhomogeneous():
    from conftest import random_homogeneous
    rng = random.Random(21)
    a = random_homogeneous(rng, 2, 1, 2, 1, 1, 0)
    b = random_homogeneous(rng, 2, 1, 2, 1, 0, 1)
    assert bidegree_of(a) == (1, 0)
    assert bidegree_of(b) == (0, 1)
    assert bidegree_of(a.add(b)) is None


def test_projection_restores_lifted_map():
    rng = random.Random(5)
    p = random_blockmap(rng, 3, 1, 2, 3, src_label="V", tgt_label="g")
    lifted = lift_operator_map(p, 3)
    assert project_operator_part(lifted) == p


def test_projection_idempotent():
    rng = random.Random(6)
    p = random_blockmap(rng, 3, 1, 2, 3, src_label="V", tgt_label="g")
    lifted = lift_operator_map(p, 3)
    once = project_operator_part(lifted)
    again = project_operator_part(lift_operator_map(once, 3))
    assert once == again


@pytest.mark.parametrize("args,values", [("g", "g"), ("g", "V"), ("V", "g"), ("V", "V")])
def test_restriction_undoes_lift_on_every_summand_pair(args, values):
    """A lifted map is zero off its summand's keys and off its value summand,
    and restricting it back returns the map."""
    rng = random.Random(7)
    dims = {"g": 3, "V": 2}
    space = sum_space(dims["g"], dims["V"])
    for blocks in (0, 1, 2):
        p = random_blockmap(rng, 3, blocks, dims[args], dims[values], args, values)
        lifted = lift_map(p, space, args, values)
        assert (lifted.source, lifted.target) == (space, space)
        assert restrict_map(lifted, args, values) == p
        other = {"g": "V", "V": "g"}
        assert restrict_map(lifted, args, other[values]).is_zero()
        assert restrict_map(lifted, other[args], values).is_zero()


def test_lift_rejects_maps_that_do_not_fit():
    rng = random.Random(8)
    p = random_blockmap(rng, 3, 1, 2, 3, src_label="V", tgt_label="g")
    with pytest.raises(ValueError):
        lift_map(p, sum_space(3, 2), "g", "V")
    with pytest.raises(ValueError):
        lift_map(p, SpaceSpec(5), "V", "g")
    with pytest.raises(ValueError):
        restrict_map(p, "V", "g")


def test_kernel_of_projection_closed_under_bracket():
    """Homogeneous maps with nonnegative g-count stay outside the
    operator-cochain shape after bracketing: the projection kernel is a
    subalgebra."""
    from conftest import random_homogeneous
    rng = random.Random(11)
    n, dg, dv = 3, 2, 2
    shapes = [(0, 2), (1, 1), (2, 0)]
    for _ in range(10):
        k1, l1 = rng.choice(shapes)
        k2, l2 = rng.choice(shapes)
        f = random_homogeneous(rng, n, 1, dg, dv, k1, l1)
        g = random_homogeneous(rng, n, 1, dg, dv, k2, l2)
        br = graded_bracket(f, g)
        assert project_operator_part(br).is_zero()


def test_projection_kills_structure_lift(reps):
    rep = next(r for r in reps if r.action)
    delta = semidirect_blockmap(rep)
    assert project_operator_part(delta).is_zero()


def test_tail_antisymmetrize_idempotent():
    rng = random.Random(9)
    p = random_blockmap(rng, 3, 2, 3, 2)
    sym = tail_antisymmetrize(p)
    assert tail_antisymmetrize(sym) == sym


def test_blockmap_add_scale_roundtrip():
    rng = random.Random(13)
    a = random_blockmap(rng, 2, 1, 2, 2)
    b = random_blockmap(rng, 2, 1, 2, 2)
    assert a.add(b).sub(b) == a
    assert a.scale(Fraction(0)).is_zero()
