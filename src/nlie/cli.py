"""Batch front door: verify / cohomology / deform / lift over JSON files.

Human output is line-per-check with timings; --json emits a stable-ordered
machine report (no timings, so reruns are byte-identical).  Exit codes:
0 all requested checks pass, 1 a mathematical check failed, 2 input error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache
from math import comb
from typing import Any, Optional, Union

from .core import (CheckReport, Representation, SymplecticForm, check_filippov,
                   check_representation, check_symplectic)
from .deformation import DeformationJet, extend, find_equivalence, obstruction
from .io import Problem, ProblemFileError, emit_problem, load_problem
from .lift import (degree0_chain_map_holds, is_admissible, is_central,
                   operator_chain_map_holds, pair_chain_map_holds, raise_arity_rep,
                   unkilled_key)
from .multilinear import tail_antisymmetrize
from .rota_baxter import RBOperator, check_rb, rb_coboundary_matrix
from .cochain import check_mc_pair, coboundary_matrix, cohomology_table


def _fmt_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fmt_witness(w: Any) -> Any:
    if isinstance(w, tuple):
        return [_fmt_witness(x) for x in w]
    if isinstance(w, Fraction):
        return _fmt_rat(w)
    if isinstance(w, int):
        return w + 1  # basis indices leave the engine 1-based
    return w


def _entry(name: str, outcome: Union[CheckReport, bool, str], witness: Any = None,
           detail: str = "", **extra) -> dict:
    """One check entry from a status, a pass/fail bool or a report, whose
    witness and detail are named when it fails."""
    if isinstance(outcome, CheckReport) and not outcome.holds:
        witness, detail = outcome.witness, outcome.detail
    entry = {"check": name,
             "status": outcome if isinstance(outcome, str) else "pass" if outcome else "fail"}
    if witness is not None:
        entry["witness"] = _fmt_witness(witness)
    if detail:
        entry["detail"] = detail
    entry.update(extra)
    return entry


def _emit(report: dict, as_json: bool, elapsed_ms: float) -> int:
    failed = any(c.get("status") == "fail" for c in report.get("checks", []))
    report["verdict"] = not failed
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"command: {report['command']}")
        for c in report.get("checks", []):
            line = f"  [{c['status']:>6}] {c['check']}"
            if "witness" in c:
                line += f"  witness={c['witness']}"
            if "detail" in c:
                line += f"  ({c['detail']})"
            print(line)
        for row in report.get("table", []):
            print("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
        for k, v in report.items():
            if k in ("command", "checks", "table", "verdict"):
                continue
            print(f"  {k}: {v}")
        print(f"  verdict: {'pass' if report['verdict'] else 'FAIL'}")
        print(f"  elapsed: {elapsed_ms:.1f} ms")
    return 1 if failed else 0


def _pair_entries(rep: Representation, prefix: str = "") -> list[dict]:
    """The `filippov` and `representation` entries of a pair.  One [δ, δ]
    passes both when it vanishes; otherwise the direct checkers run, to
    name the witnesses."""
    if check_mc_pair(rep.algebra, rep):
        return [_entry(prefix + "filippov", True), _entry(prefix + "representation", True)]
    return [_entry(prefix + "filippov", check_filippov(rep.algebra)),
            _entry(prefix + "representation", check_representation(rep))]


def cmd_verify(prob: Problem) -> dict:
    checks = _pair_entries(prob.rep)
    if prob.operator is not None:
        checks.append(_entry("rota_baxter", check_rb(prob.rep, prob.operator)))
    else:
        checks.append(_entry("rota_baxter", "absent"))
    if prob.omega is not None:
        checks.append(_entry("symplectic",
                             check_symplectic(prob.algebra, SymplecticForm(prob.omega))))
    else:
        checks.append(_entry("symplectic", "absent"))
    if prob.covector is not None:
        checks.append(_entry("admissible_covector", is_admissible(prob.algebra, prob.covector)))
    return {"command": "verify", "checks": checks}


# The largest differential `cohomology` builds unless --no-size-limit is
# given, in matrix entries (rows × cols); `lift` refuses a file cochain whose
# differential at arity n or n+1 is larger.  The dense matrix costs about 11
# bytes per entry: cross4's d_3 (3456 × 576, 2.0M entries) builds in 0.24–0.33 s
# and ranks in 0.31–0.43 s, taking the process from 16.4 to a 36.9 MB peak, and
# cross4's d_4 (20736 × 3456, 71.7M entries) would need about 0.75 GB.
MAX_DIFFERENTIAL_ENTRIES = 4_000_000


def oversized_differential(prob: Problem, max_m: int, target: str,
                           limit: int) -> Optional[tuple[int, int, int]]:
    """(m, rows, cols) of the first differential d_m of the table that costs
    more than `limit`, or None.  Nothing is built.

    |C^m| = C(d, n−1)^(m−1)·d·dim M for the algebra of dimension d acting on
    the module M: g on V for the pair, V on g for the operator, whose degree
    0 is ∧^{n−1}g.  A zero module counts one coordinate per cochain key,
    since every cochain walk visits them.  d_m costs rows × cols.  Once
    C(d, n−1) ≤ 1 the sizes stop growing, but each of the about m² terms of
    a key still rebuilds its m blocks, so d_m costs at least
    (rows + 1)·(cols + 1)·m³, and the scan ends either way.
    """
    n, dg, dv = prob.n, prob.dim_g, prob.dim_v
    d, module, first = (dg, dv, 1) if target == "pair" else (dv, dg, 0)
    c = comb(d, n - 1)

    def dim(m: int) -> int:
        return comb(dg, n - 1) if m == 0 else c ** (m - 1) * d * max(module, 1)

    for m in range(first, max_m + 1):
        rows, cols = dim(m + 1), dim(m)
        cost = rows * cols
        if c <= 1:
            cost = max(cost, (rows + 1) * (cols + 1) * m ** 3)
        if cost > limit:
            return m, rows, cols
    return None


def size_refusal(prob: Problem, max_m: int, target: str,
                 limit: int = MAX_DIFFERENTIAL_ENTRIES) -> Optional[str]:
    """Why the table of a target up to d_{max_m} is refused, or None: the
    one size guard of `cohomology` and `lift`."""
    big = oversized_differential(prob, max_m, target, limit)
    if big is None:
        return None
    m, rows, cols = big
    if rows * cols <= limit:
        return (f"d_{m} is {rows} x {cols}, but the walk of degree {m}, ({rows} + 1)"
                f"·({cols} + 1)·{m}^3 = {(rows + 1) * (cols + 1) * m ** 3}, "
                f"is over the limit of {limit}")
    if (prob.dim_v if target == "pair" else prob.dim_g) == 0:
        return (f"d_{m} is zero but would walk {rows} x {cols} cochain keys "
                f"({rows * cols} pairs), over the limit of {limit}")
    return (f"d_{m} would be a {rows} x {cols} matrix ({rows * cols} entries), "
            f"over the limit of {limit}")


def cmd_cohomology(prob: Problem, max_m: int, target: str,
                   limit: Optional[int] = MAX_DIFFERENTIAL_ENTRIES) -> dict:
    """The cohomology table up to degree max_m; refused as an input error
    when a differential costs more than `limit` (None: no limit).  Only an
    operator gets an operator table.  The pair is not checked (`verify`
    does that), but dim H^m < 0 proves d_m∘d_{m−1} != 0: `complex` fails."""
    refusal = None if limit is None else size_refusal(prob, max_m, target, limit)
    if refusal is not None:
        raise ProblemFileError(refusal + "; pass --no-size-limit to build it")
    checks: list[dict] = []
    report = {"command": "cohomology", "target": target, "checks": checks, "table": []}
    if target == "pair":
        table = cohomology_table(lambda m: coboundary_matrix(prob.rep, m), 1, max_m)
    else:
        if prob.operator is None:
            raise ProblemFileError("operator cohomology needs T")
        identity = check_rb(prob.rep, prob.operator)
        checks.append(_entry("rota_baxter", identity))
        if not identity.holds:
            return report
        t = RBOperator(prob.rep, prob.operator)
        table = cohomology_table(lambda m: rb_coboundary_matrix(t, m), 0, max_m)
    report["table"] = table
    bad = next((row for row in table if row["dim_H"] < 0), None)
    if bad is not None:
        m = bad["m"]
        checks.append(_entry("complex", False,
                             detail=f"dim H^{m} = {bad['dim_H']} < 0, so d_{m}∘d_{m - 1} != 0"))
    return report


def cmd_deform(prob: Problem, action: str) -> dict:
    if prob.operator is None:
        raise ProblemFileError("deformation commands need T")
    t = RBOperator(prob.rep, prob.operator)
    checks: list[dict] = []
    report: dict[str, Any] = {"command": "deform", "action": action, "checks": checks}
    if action == "equivalence":
        if not prob.deformation or not prob.deformation_prime:
            raise ProblemFileError("equivalence needs deformation and deformation_prime")
        identity = check_rb(prob.rep, prob.operator)
        checks.append(_entry("rota_baxter", identity))
        if not identity.holds:
            return report
        t1, t1p = prob.deformation[0], prob.deformation_prime[0]
        try:
            gauge = find_equivalence(t, t1, t1p)
        except ValueError as e:
            checks.append(_entry("equivalence", False, detail=str(e)))
            return report
        if gauge is None:
            checks.append(_entry("equivalence", True, result="inequivalent"))
        else:
            coeffs = {"^".join(str(i + 1) for i in k): _fmt_rat(c)
                      for k, c in sorted(gauge.coeffs.items())}
            checks.append(_entry("equivalence", True, result="equivalent"))
            report["gauge"] = coeffs
        return report
    if not prob.deformation:
        raise ProblemFileError("deformation coefficients missing")
    jet = DeformationJet(t, prob.deformation)
    order = jet.order_report
    # order 0 is the operator identity, checked on the V-tuples check_rb walks
    s, vs = (None, None) if order.holds else order.witness
    checks.append(_entry("rota_baxter", CheckReport(s != 0, vs, detail="operator identity fails")))
    checks.append(_entry("order_validity", order.holds,
                         None if order.holds else {"order": s, "tuple": _fmt_witness(vs)},
                         order.detail))
    if action == "check" or not order.holds:
        return report
    ob = obstruction(jet)
    checks.append(_entry("obstruction_cocycle", ob.cocycle_checked))
    nxt = extend(ob)
    if nxt is None:
        report["extension"] = "obstructed"
    else:
        report["extension"] = [[_fmt_rat(x) for x in row] for row in nxt.entries]
        checks.append(_entry("extension_reverified", True))
    return report


def cmd_lift(prob: Problem, out_path: Optional[str]) -> dict:
    if prob.covector is None:
        raise ProblemFileError("lift needs the covector f")
    bad = unkilled_key(prob.algebra, prob.covector)
    checks = [_entry("admissible_covector", bad is None, witness=bad)]
    report: dict[str, Any] = {"command": "lift", "checks": checks}
    if bad is not None:
        return report
    raised_rep = raise_arity_rep(prob.rep, prob.covector)
    raised_alg = raised_rep.algebra
    raised = Problem(prob.n + 1, raised_alg, raised_rep, operator=prob.operator)
    if is_admissible(raised_alg, prob.covector):
        raised.covector = prob.covector
    for i, (space, bm) in enumerate(prob.cochains):
        for p in (prob, raised):
            if (refusal := size_refusal(p, bm.blocks + 1, space)) is not None:
                raise ProblemFileError(f"cochains[{i}] ({space}, degree {bm.blocks + 1}) "
                                       f"at arity {p.n}: {refusal}")
    checks += _pair_entries(raised_rep, prefix="raised_")
    t, lifted = prob.rb_operator(), raised.rb_operator()
    gate = ""  # why the operator chain maps are skipped
    if t is not None:
        for name, rep in (("rota_baxter", prob.rep), ("lifted_rota_baxter", raised_rep)):
            identity = check_rb(rep, prob.operator)
            checks.append(_entry(name, identity))
            gate = gate or ("" if identity.holds else f"T fails {name}")
    x0 = prob.x0
    if x0 is not None:
        central = is_central(prob.rep, x0)
        checks.append(_entry("x0_central", central))
        if central and t is not None:
            # the degree-0 square commutes iff (-1)^(n-1) f(x0_g) = 1
            fx0 = sum((a * b for a, b in zip(prob.covector, x0[:prob.dim_g])), Fraction(0))
            skip = gate or ("" if Fraction((-1) ** (prob.n - 1)) * fx0 == 1
                            else "x0 not normalized: (-1)^(n-1)·f(x0_g) != 1")
            square = "skipped" if skip else degree0_chain_map_holds(t, lifted, prob.covector, x0)
            checks.append(_entry("operator_chain_map_degree0", square, detail=skip))
    for i, (space, bm) in enumerate(prob.cochains):
        sym = tail_antisymmetrize(bm)
        note = "" if sym == bm else "antisymmetrized wedge-tail component"
        name = f"{space}_chain_map[{i}]"
        if space == "pair":
            checks.append(_entry(name, pair_chain_map_holds(prob.rep, raised_rep,
                                                            prob.covector, sym), detail=note))
        elif t is None:
            checks.append(_entry(name, "absent", detail="needs T"))
        elif gate:
            checks.append(_entry(name, "skipped", detail=gate))
        else:
            checks.append(_entry(name, operator_chain_map_holds(t, lifted, prob.covector, x0, sym),
                                 detail=note))
    emitted = emit_problem(raised)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(emitted)
        report["out"] = out_path
    return report


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="nlie",
        description="Exact checks and constructions for n-Lie algebra problem files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="structure checks on a problem file")
    p_coh = sub.add_parser("cohomology", help="cochain/cohomology dimension table")
    p_coh.add_argument("--max-m", type=int, default=2, dest="max_m")
    p_coh.add_argument("--target", choices=("pair", "operator"), default="pair")
    p_coh.add_argument("--no-size-limit", action="store_true", dest="no_size_limit",
                       help=f"build differentials with more than "
                            f"{MAX_DIFFERENTIAL_ENTRIES} entries")
    p_def = sub.add_parser("deform", help="deformation checks, extension, equivalence")
    p_def.add_argument("--action", choices=("check", "extend", "equivalence"),
                       default="check")
    p_lift = sub.add_parser("lift", help="raise the arity by one and verify")
    p_lift.add_argument("--out", default=None)
    for p in (p_verify, p_coh, p_def, p_lift):
        p.add_argument("file")
        p.add_argument("--json", action="store_true", dest="as_json")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "cohomology":
        lowest = 1 if args.target == "pair" else 0
        if args.max_m < lowest:
            parser.error(f"--max-m must be >= {lowest} for --target {args.target}")
    start = time.monotonic()
    try:
        prob = load_problem(args.file)
        if args.command == "verify":
            report = cmd_verify(prob)
        elif args.command == "cohomology":
            limit = None if args.no_size_limit else MAX_DIFFERENTIAL_ENTRIES
            report = cmd_cohomology(prob, args.max_m, args.target, limit)
        elif args.command == "deform":
            report = cmd_deform(prob, args.action)
        else:
            report = cmd_lift(prob, args.out)
    except (ProblemFileError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    return _emit(report, args.as_json, (time.monotonic() - start) * 1000.0)


if __name__ == "__main__":
    sys.exit(main())
