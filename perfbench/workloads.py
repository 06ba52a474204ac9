"""The four workloads: fixed job lists built from seeded inputs.

A job is one call into the engine, either `nlie.cli.main([... , "--json"])`
with stdout captured or one public library function.  Library jobs look the
function up on its module at call time, so the tracer's wrappers see them.
Each job carries the check the answer gate applies to its output after the
timed region; checks compute their expectations by a route independent of
the timed call and cache them, so repeated passes pay for them once.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any, Callable, Optional

import nlie.cochain
import nlie.deformation
import nlie.rota_baxter
from nlie import (Matrix, SymplecticForm, abelian, adjoint_rep, check_filippov,
                  check_rb, check_representation, coadjoint_rep, rank,
                  symplectic_operator, zero_representation)
from nlie.cli import main as cli_main
from nlie.deformation import DeformationJet, obstruction
from nlie.rota_baxter import (DerivedContext, RBOperator, Wedge,
                              cochain_to_vector, matrix_to_cochain,
                              rb_coboundary_matrix, wedge_coboundary,
                              wedge_coboundary_matrix)

import gen

WORKLOADS = ("cohomology-sparse", "cohomology-dense", "deform-lift", "mc-oracles")
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))

# (problem, target, max degree) per cohomology workload; the dense list is
# trimmed so that one pass stays a few seconds with today's dense elimination
SPARSE_TABLES = (("sl2", "pair", 3), ("heis3", "pair", 3), ("cross4", "pair", 2),
                 ("nilp4-op", "operator", 2))
DENSE_TABLES = (("sl2", "pair", 3), ("heis3", "pair", 2), ("cross4", "pair", 1),
                ("nilp4-op", "operator", 1))


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    cli: bool = True
    # cohomology jobs: arity, dims and degrees, for the tracer coverage check
    shape: dict = field(default_factory=dict)


def cli_job(name: str, argv: list[str], check: Callable[[dict, int], Optional[str]],
            **shape) -> Job:
    """A CLI job; `check` gets the parsed --json report and the exit code."""
    def run() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main([*argv, "--json"])
        return code, buf.getvalue()

    def checked(out: tuple[int, str]) -> Optional[str]:
        code, text = out
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return f"exit {code} without a JSON report"
        return check(report, code)

    return Job(name, run, checked, True, shape)


def lib_job(name: str, run: Callable[[], Any], expected: Callable[[], Any]) -> Job:
    """A library job whose result must equal what `expected` computes."""
    want = cache(expected)

    def check(out: Any) -> Optional[str]:
        return None if out == want() else f"got {out!r}, expected {want()!r}"

    return Job(name, run, check, False)


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def passes(report: dict, code: int) -> Optional[str]:
    if code != 0 or not report.get("verdict"):
        return f"exit {code}, checks {report.get('checks')}"
    bad = [c for c in report["checks"] if c["status"] == "fail"]
    return f"failed checks {bad}" if bad else None


def fails_with_witness(check_name: str) -> Callable[[dict, int], Optional[str]]:
    def check(report: dict, code: int) -> Optional[str]:
        entry = next((c for c in report.get("checks", []) if c["check"] == check_name), None)
        if code != 1 or entry is None or entry["status"] != "fail" or "witness" not in entry:
            return f"expected exit 1 with a {check_name} witness, got exit {code}: {entry}"
        return None
    return check


def table_check(key: str, rows: int) -> Callable[[dict, int], Optional[str]]:
    want = GOLDEN[key][:rows]

    def check(report: dict, code: int) -> Optional[str]:
        err = passes(report, code)
        if err:
            return err
        got = [[r["m"], r["dim_cochains"], r["rank_d"], r["dim_H"]] for r in report["table"]]
        return None if got == want else f"table {got} != golden {want}"
    return check


# ---------------------------------------------------------------------------
# cohomology workloads
# ---------------------------------------------------------------------------

def cohomology_jobs(rng: random.Random, outdir: Path, dense: bool) -> list[Job]:
    jobs = []
    for name, target, max_m in (DENSE_TABLES if dense else SPARSE_TABLES):
        if target == "pair":
            rep = adjoint_rep(gen.catalog_algebra(name))
            d = rep.algebra.dim
            p = gen.dense_basis(name, rep, rng) if dense else gen.sign_flips(rng, d)
            rep, t = gen.change_basis(rep, p, p), None
        else:
            t, _ = gen.nilp4_symplectic()
            d = t.algebra.dim
            p = gen.dense_basis(name, t.rep, rng) if dense else gen.sign_flips(rng, d)
            t = gen.transformed_operator(t, p)
            rep, t = t.rep, t.matrix
        path = gen.write_problem(outdir, name, gen.problem_dict(rep, t))
        rows = max_m if target == "pair" else max_m + 1
        jobs.append(cli_job(
            f"cohomology:{name}", ["cohomology", path, "--max-m", str(max_m), "--target", target],
            table_check(f"{name}/{target}", rows),
            target=target, n=rep.algebra.n, dim_g=rep.algebra.dim, dim_v=rep.dim_v,
            max_m=max_m))
    return jobs


# ---------------------------------------------------------------------------
# deform-lift
# ---------------------------------------------------------------------------

def operator_inputs(seed: int) -> dict[str, tuple[RBOperator, list[Matrix]]]:
    """The two deformed operators with seeded 1-cocycles: the identity on
    (nilp4; L) and the zero operator on the adjoint of sl2.  Both deform-lift
    and mc-oracles use these jets, so they have a stream of their own."""
    rng = random.Random(f"jets:{seed}")
    t_nilp, _ = gen.nilp4_symplectic()
    sl2 = adjoint_rep(gen.catalog_algebra("sl2"))
    t_sl2 = RBOperator(sl2, Matrix.zero(3, 3))
    return {"nilp4": (t_nilp, gen.cocycles(t_nilp, rng, 2)),
            "sl2": (t_sl2, gen.cocycles(t_sl2, rng, 2))}


def solvable(a: Matrix, rhs) -> bool:
    """Consistency of a·x = rhs by ranks, independent of solve_linear."""
    aug = Matrix([list(row) + [b] for row, b in zip(a.entries, rhs)])
    return rank(aug) == rank(a)


def extend_check(t: RBOperator, t1: Matrix) -> Callable[[dict, int], Optional[str]]:
    @cache
    def obstructed() -> bool:
        theta = obstruction(DeformationJet(t, [t1])).theta
        rhs = [-x for x in cochain_to_vector(t, theta, 2)]
        return not solvable(rb_coboundary_matrix(t, 1), rhs)

    def check(report: dict, code: int) -> Optional[str]:
        err = passes(report, code)
        if err:
            return err
        if obstructed():
            return None if report.get("extension") == "obstructed" else "expected obstructed"
        names = [c["check"] for c in report["checks"] if c["status"] == "pass"]
        return None if "extension_reverified" in names else "extension not reverified"
    return check


def equivalence_check(t: RBOperator, t1: Matrix, t1p: Matrix) -> Callable[[dict, int], Optional[str]]:
    dg, dv, n = t.algebra.dim, t.rep.dim_v, t.algebra.n
    diff = t1p - t1

    @cache
    def equivalent() -> bool:
        return solvable(wedge_coboundary_matrix(t),
                        cochain_to_vector(t, matrix_to_cochain(t.rep, diff), 1))

    def check(report: dict, code: int) -> Optional[str]:
        err = passes(report, code)
        if err:
            return err
        result = report["checks"][-1].get("result")
        if result != ("equivalent" if equivalent() else "inequivalent"):
            return f"equivalence verdict {result}"
        if result == "equivalent":
            coeffs = {tuple(int(i) - 1 for i in k.split("^")): Fraction(v)
                      for k, v in report.get("gauge", {}).items()}
            dx = wedge_coboundary(t, Wedge(dg, n - 1, coeffs))
            if gen.blockmap_to_matrix(dx, dg, dv) != diff:
                return "returned gauge does not satisfy T1' - T1 = dX"
        return None
    return check


def deform_lift_jobs(rng: random.Random, seed: int, outdir: Path) -> list[Job]:
    jobs: list[Job] = []
    (outdir / "raised").mkdir(exist_ok=True)

    def add(name, argv, check):
        jobs.append(cli_job(name, argv, check))

    def write(name, payload):
        return gen.write_problem(outdir, name, payload)

    # verify: valid files take the full pass, broken ones the early exit
    t_nilp, form = gen.nilp4_symplectic()
    f_nilp = (gen.small_int(rng, nonzero=True), gen.small_int(rng), gen.small_int(rng), 0)
    sl2 = adjoint_rep(gen.catalog_algebra("sl2"))
    cross4 = adjoint_rep(gen.catalog_algebra("cross4"))
    add("verify:sl2", ["verify", write("verify-sl2", gen.problem_dict(sl2))], passes)
    add("verify:cross4", ["verify", write("verify-cross4", gen.problem_dict(cross4))], passes)
    add("verify:nilp4-op", ["verify", write("verify-nilp4-op", gen.problem_dict(
        t_nilp.rep, t_nilp.matrix, omega=form, f=f_nilp))], passes)
    add("verify:broken-bracket", ["verify", write("broken-bracket", gen.problem_dict(
        gen.broken_algebra(rng, sl2)))], fails_with_witness("filippov"))
    add("verify:broken-action", ["verify", write("broken-action", gen.problem_dict(
        gen.broken_action(rng, t_nilp.rep), t_nilp.matrix))], fails_with_witness("representation"))
    add("verify:broken-operator", ["verify", write("broken-operator", gen.problem_dict(
        t_nilp.rep, gen.broken_operator(rng, t_nilp)))], fails_with_witness("rota_baxter"))

    # deform: seeded cocycles, planted gauges, a broken jet, the frozen obstruction
    for name, (t, (c1, c2)) in operator_inputs(seed).items():
        x = gen.random_wedge(rng, t)
        c1p = gen.gauge_shift(t, c1, x)

        def jet_file(tag, coeffs, primes=()):
            return write(f"deform-{name}-{tag}", gen.problem_dict(
                t.rep, t.matrix, deformation=coeffs, deformation_prime=primes))

        for i, c in enumerate((c1, c2)):
            path = jet_file(f"c{i}", [c])
            add(f"deform-check:{name}-c{i}", ["deform", path, "--action", "check"], passes)
            add(f"deform-extend:{name}-c{i}", ["deform", path, "--action", "extend"],
                extend_check(t, c))
        add(f"deform-equivalence:{name}-gauge",
            ["deform", jet_file("gauge", [c1], [c1p]), "--action", "equivalence"],
            equivalence_check(t, c1, c1p))
        add(f"deform-equivalence:{name}-pair",
            ["deform", jet_file("pair", [c1], [c2]), "--action", "equivalence"],
            equivalence_check(t, c1, c2))
        add(f"deform-check:{name}-broken",
            ["deform", jet_file("broken", gen.broken_jet(t, rng, c1)), "--action", "check"],
            fails_with_witness("order_validity"))
    t_sl2 = RBOperator(sl2, Matrix.zero(3, 3))
    frozen = Matrix(gen.OBSTRUCTED_SL2_T1)
    add("deform-extend:sl2-frozen", ["deform", write("deform-sl2-frozen", gen.problem_dict(
        sl2, t_sl2.matrix, deformation=[frozen])), "--action", "extend"],
        extend_check(t_sl2, frozen))

    # lift: seeded covectors and chain-map cochains, one inadmissible covector
    one_block = gen.one_block_pair()
    t_ob = Matrix([[0, 0], [0, 0], [gen.small_int(rng, nonzero=True), gen.small_int(rng)]])
    heis3 = adjoint_rep(gen.catalog_algebra("heis3"))
    lifts = {
        # x0 = e3 is central and f(e3) = 1, so the degree-0 square is checked
        "one-block": (one_block, t_ob, (gen.small_int(rng), gen.small_int(rng), 1),
                      (0, 0, 1, 0, 0)),
        "heis3": (heis3, Matrix.zero(3, 3),
                  (gen.small_int(rng, nonzero=True), gen.small_int(rng), 0), None),
        "nilp4-op": (t_nilp.rep, t_nilp.matrix, f_nilp, None),
    }
    for name, (rep, t, f, x0) in lifts.items():
        n, dg, dv = rep.algebra.n, rep.algebra.dim, rep.dim_v
        cochains = [("pair", gen.random_cochain(rng, n, b, dg, dv)) for b in (0, 1)]
        cochains += [("operator", gen.random_cochain(rng, n, b, dv, dg)) for b in (0, 1)]
        path = write(f"lift-{name}", gen.problem_dict(rep, t, f=f, x0=x0, cochains=cochains))
        add(f"lift:{name}", ["lift", path, "--out", str(outdir / "raised" / f"lift-{name}.json")],
            passes)
    bad_f = (0, 0, gen.small_int(rng, nonzero=True))
    add("lift:inadmissible", ["lift", write("lift-inadmissible", gen.problem_dict(
        heis3, f=bad_f))], fails_with_witness("admissible_covector"))
    return jobs


# ---------------------------------------------------------------------------
# mc-oracles
# ---------------------------------------------------------------------------

def operator_corpus(rng: random.Random) -> list[RBOperator]:
    """The operator corpus of tests/conftest.py, with seeded random entries."""
    nilp = gen.catalog_algebra("nilp4")
    t_l, form = gen.nilp4_symplectic()
    ops = [RBOperator(adjoint_rep(gen.catalog_algebra(a)), Matrix.zero(d, d))
           for a, d in (("sl2", 3), ("nilp4", 4))]
    ops.append(RBOperator(zero_representation(abelian(3, 3), 2), gen.random_matrix(rng, 3, 2)))
    ops.append(t_l)
    ops.append(RBOperator(coadjoint_rep(nilp), symplectic_operator(nilp, SymplecticForm(form))))
    for _ in range(2):
        third = [gen.small_int(rng, nonzero=True), gen.small_int(rng)]
        ops.append(RBOperator(gen.one_block_pair(), Matrix([[0, 0], [0, 0], third])))
    ops.append(RBOperator(t_l.rep, t_l.matrix.scale(Fraction(gen.small_int(rng, nonzero=True)))))
    return ops


def mc_oracle_jobs(rng: random.Random, seed: int) -> list[Job]:
    jobs = []
    # pairs: valid catalog pairs with seeded basis signs, and perturbed ones
    pairs = {}
    for name in ("sl2", "heis3", "nilp4", "cross4"):
        rep = adjoint_rep(gen.catalog_algebra(name))
        p = gen.sign_flips(rng, rep.algebra.dim)
        pairs[name] = gen.change_basis(rep, p, p)
    pairs["nilp4-L"] = gen.nilp4_symplectic()[0].rep
    pairs["sl2-broken-bracket"] = gen.broken_algebra(rng, pairs["sl2"])
    pairs["cross4-broken-action"] = gen.broken_action(rng, pairs["cross4"])
    # the valid nilp4 adjoint pair would repeat the cost of nilp4-L
    pairs["nilp4"] = gen.broken_algebra(rng, pairs.pop("nilp4"))
    for name, rep in pairs.items():
        jobs.append(lib_job(
            f"check_mc_pair:{name}", lambda rep=rep: nlie.cochain.check_mc_pair(rep.algebra, rep),
            lambda rep=rep: bool(check_filippov(rep.algebra)) and bool(check_representation(rep))))

    # operators: the corpus, perturbed copies, and twisted second operators
    for i, t in enumerate(operator_corpus(rng)):
        ctx = DerivedContext(t.rep)
        candidates = {"": t.matrix}
        if t.rep.dim_v >= t.algebra.n:  # below that every map is an operator
            candidates["-broken"] = gen.broken_operator(rng, t)
        for tag, m in candidates.items():
            jobs.append(lib_job(f"check_rb_mc:{i}{tag}", lambda c=ctx, m=m: nlie.rota_baxter.check_rb_mc(c, m),
                                lambda t=t, m=m: bool(check_rb(t.rep, m))))
        if t.rep.dim_v >= t.algebra.n:
            primes = {"scaled": t.matrix.scale(Fraction(gen.small_int(rng, nonzero=True))),
                      "random": gen.random_matrix(rng, t.matrix.rows, t.matrix.cols, span=1)}
            for tag, tp in primes.items():
                jobs.append(lib_job(
                    f"twisted_mc_holds:{i}-{tag}", lambda c=ctx, t=t, tp=tp: nlie.rota_baxter.twisted_mc_holds(c, t, tp),
                    lambda t=t, tp=tp: bool(check_rb(t.rep, t.matrix + tp))))

    # the deform-lift jets, through the derived-bracket route
    jets = [DeformationJet(t, [c]) for t, cs in operator_inputs(seed).values() for c in cs]
    sl2 = adjoint_rep(gen.catalog_algebra("sl2"))
    jets.append(DeformationJet(RBOperator(sl2, Matrix.zero(3, 3)),
                               [Matrix(gen.OBSTRUCTED_SL2_T1)]))
    for i, jet in enumerate(jets):
        jobs.append(lib_job(f"obstruction_via_derived:{i}",
                            lambda jet=jet: nlie.deformation.obstruction_via_derived(jet),
                            lambda jet=jet: obstruction(jet).theta))
    return jobs


def build(workload: str, seed: int, outdir: Path) -> list[Job]:
    """Generate the workload's inputs from the seed and return its job list."""
    rng = random.Random(f"{workload}:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "cohomology-sparse":
        return cohomology_jobs(rng, outdir, dense=False)
    if workload == "cohomology-dense":
        return cohomology_jobs(rng, outdir, dense=True)
    if workload == "deform-lift":
        return deform_lift_jobs(rng, seed, outdir)
    if workload == "mc-oracles":
        return mc_oracle_jobs(rng, seed)
    raise ValueError(f"unknown workload {workload!r}")
