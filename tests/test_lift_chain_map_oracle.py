"""The chain-map checks of `nlie.lift` against their oracles.

`pair_chain_map_holds` and `operator_chain_map_holds` take the raised pair
and the lifted operator from the caller, and above degree 0 the operator
check is the pair check of the induced pairs.  Their oracles in
`oracles.py` raise the pair on every call and lift operator cochains of
degree >= 1 by their own branch; their verdicts must agree with the
engine's on every case, and each check must both pass and fail.
`degree0_chain_map_holds`, the degree-0 square on every basis wedge for a
central x0, must agree with the oracle's square on each of those wedges.
"""
import random
from fractions import Fraction

from conftest import (arity_raising_configs, broken_action, broken_algebra,
                      rand_frac, random_blockmap, random_wedge_tail_cochain)
from oracles import oracle_operator_chain_map_holds, oracle_pair_chain_map_holds

from nlie.combinat import blocks_of
from nlie.core import Representation
from nlie.lift import (degree0_chain_map_holds, find_center, is_admissible, is_central,
                       operator_chain_map_holds, pair_chain_map_holds, raise_arity_rep)
from nlie.rota_baxter import RBOperator, Wedge


def outcome(check, *args):
    """The verdict, or the exception type for a rejected x0."""
    try:
        return check(*args)
    except ValueError as e:
        return type(e)


def normalized_central(rep: Representation, f) -> list:
    """Central elements with (-1)^(n-1)·f(x0_g) = 1, if the center has one."""
    n, dg = rep.algebra.n, rep.algebra.dim
    target = Fraction((-1) ** (n - 1))
    for z in find_center(rep):
        fz = sum((a * b for a, b in zip(f, z[:dg])), Fraction(0))
        if fz != 0:
            return [tuple(x * target / fz for x in z)]
    return []


def compare_on(rep, f, tmat, rng, blocks, verdicts):
    """Both checks, old and new, on wedge-tail and raw cochains of each
    block count and on degree-0 wedges with several choices of x0."""
    alg = rep.algebra
    dg, dv, n = alg.dim, rep.dim_v, alg.n
    raised = raise_arity_rep(rep, f)
    t = RBOperator(rep, tmat)
    lifted = RBOperator(raised, tmat)
    for b in blocks:
        for make in (random_wedge_tail_cochain, random_blockmap):
            p = make(rng, n, b, dg, dv)
            got = pair_chain_map_holds(rep, raised, f, p)
            assert got == oracle_pair_chain_map_holds(rep, f, p)
            verdicts["pair"].add(got)
            c = make(rng, n, b, dv, dg)
            got = operator_chain_map_holds(t, lifted, f, None, c)
            assert got == oracle_operator_chain_map_holds(t, f, None, c)
            verdicts["operator"].add(got)
    zero = tuple(Fraction(0) for _ in range(dg + dv))
    centrals = normalized_central(rep, f)
    x0s = [zero] + centrals + [tuple(2 * x for x in z) for z in centrals]
    if not is_central(rep, (1,) + zero[1:]):
        x0s.append((1,) + zero[1:])
    w = Wedge(dg, n - 1, {k: rand_frac(rng) for k in blocks_of(dg, n - 1)})
    for x0 in x0s:
        got = outcome(operator_chain_map_holds, t, lifted, f, x0, w)
        assert got == outcome(oracle_operator_chain_map_holds, t, f, x0, w)
        verdicts["degree0"].add(got)
    basis = [Wedge(dg, n - 1, {k: Fraction(1)}) for k in blocks_of(dg, n - 1)]
    for x0 in x0s[:1 + 2 * len(centrals)]:  # the central ones
        got = degree0_chain_map_holds(t, lifted, f, x0)
        assert got == all(oracle_operator_chain_map_holds(t, f, x0, b) for b in basis)
        verdicts["degree0 basis"].add(got)


def test_chain_map_checks_match_their_references(algebras):
    rng = random.Random(131)
    verdicts = {"pair": set(), "operator": set(), "degree0": set(), "degree0 basis": set()}
    configs = arity_raising_configs(algebras, rng)
    assert len(configs) >= 20
    broken_pairs = 0
    for alg, rep, f, tmat in configs:
        # degree 3 (two blocks) on the pairs with dim g <= 3, n = 2 and 3
        compare_on(rep, f, tmat, rng, (0, 1, 2) if alg.dim <= 3 else (0, 1), verdicts)
        for broken in (broken_action(rng, rep), broken_algebra(rng, rep)):
            if is_admissible(broken.algebra, f):
                broken_pairs += 1
                compare_on(broken, f, tmat, rng, (1,), verdicts)
    assert broken_pairs >= 40
    assert verdicts["pair"] == {True, False}
    assert verdicts["operator"] == {True, False}
    assert verdicts["degree0"] == {True, False, ValueError}
    assert verdicts["degree0 basis"] == {True, False}
