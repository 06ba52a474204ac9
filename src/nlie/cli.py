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
from typing import Any, Optional

from .core import (CheckReport, SymplecticForm, check_filippov,
                   check_representation, check_symplectic)
from .deformation import (DeformationJet, check_order, extend,
                          find_equivalence, obstruction)
from .io import Problem, ProblemFileError, emit_problem, load_problem
from .lift import (is_admissible, is_central, lift_operator,
                   operator_chain_map_holds, pair_chain_map_holds,
                   raise_arity, raise_arity_rep)
from .multilinear import tail_antisymmetrize
from .rota_baxter import (RBOperator, Wedge, check_rb, rb_coboundary_matrix,
                          wedge_basis)
from .cochain import coboundary_matrix, cohomology_table


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


def _check_entry(name: str, report: Optional[CheckReport], status: Optional[str] = None) -> dict:
    if status is not None:
        return {"check": name, "status": status}
    entry = {"check": name, "status": "pass" if report.holds else "fail"}
    if not report.holds:
        if report.witness is not None:
            entry["witness"] = _fmt_witness(report.witness)
        if report.detail:
            entry["detail"] = report.detail
    return entry


def _bool_entry(name: str, ok: bool, **extra) -> dict:
    d = {"check": name, "status": "pass" if ok else "fail"}
    d.update(extra)
    return d


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


def cmd_verify(prob: Problem) -> dict:
    checks = [_check_entry("filippov", check_filippov(prob.algebra)),
              _check_entry("representation", check_representation(prob.rep))]
    if prob.operator is not None:
        checks.append(_check_entry("rota_baxter", check_rb(prob.rep, prob.operator)))
    else:
        checks.append(_check_entry("rota_baxter", None, status="absent"))
    if prob.omega is not None:
        checks.append(_check_entry("symplectic",
                                   check_symplectic(prob.algebra, SymplecticForm(prob.omega))))
    else:
        checks.append(_check_entry("symplectic", None, status="absent"))
    if prob.covector is not None:
        checks.append(_bool_entry("admissible_covector",
                                  is_admissible(prob.algebra, prob.covector)))
    return {"command": "verify", "checks": checks}


def cmd_cohomology(prob: Problem, max_m: int, target: str) -> dict:
    checks: list[dict] = []
    if target == "pair":
        table = cohomology_table(lambda m: coboundary_matrix(prob.rep, m), 1, max_m)
    else:
        if prob.operator is None:
            raise ProblemFileError("operator cohomology needs T")
        t = RBOperator(prob.rep, prob.operator)
        checks.append(_check_entry("rota_baxter", check_rb(prob.rep, prob.operator)))
        table = cohomology_table(lambda m: rb_coboundary_matrix(t, m), 0, max_m)
    return {"command": "cohomology", "target": target, "checks": checks, "table": table}


def cmd_deform(prob: Problem, action: str) -> dict:
    if prob.operator is None:
        raise ProblemFileError("deformation commands need T")
    t = RBOperator(prob.rep, prob.operator)
    checks = [_check_entry("rota_baxter", check_rb(prob.rep, prob.operator))]
    report: dict[str, Any] = {"command": "deform", "action": action, "checks": checks}
    if action == "equivalence":
        if not prob.deformation or not prob.deformation_prime:
            raise ProblemFileError("equivalence needs deformation and deformation_prime")
        t1, t1p = prob.deformation[0], prob.deformation_prime[0]
        try:
            gauge = find_equivalence(t, t1, t1p)
        except ValueError as e:
            checks.append({"check": "equivalence", "status": "fail", "detail": str(e)})
            return report
        if gauge is None:
            checks.append(_bool_entry("equivalence", True, result="inequivalent"))
        else:
            coeffs = {"^".join(str(i + 1) for i in k): _fmt_rat(c)
                      for k, c in sorted(gauge.coeffs.items())}
            checks.append(_bool_entry("equivalence", True, result="equivalent"))
            report["gauge"] = coeffs
        return report
    if not prob.deformation:
        raise ProblemFileError("deformation coefficients missing")
    jet = DeformationJet(t, list(prob.deformation))
    order = check_order(jet)
    entry = {"check": "order_validity", "status": "pass" if order.holds else "fail"}
    if not order.holds:
        s, vs = order.witness
        entry["witness"] = {"order": s, "tuple": _fmt_witness(vs)}
        entry["detail"] = order.detail
    checks.append(entry)
    if action == "check" or not order.holds:
        return report
    ob = obstruction(jet)
    checks.append(_bool_entry("obstruction_cocycle", ob.cocycle_checked))
    nxt = extend(jet)
    if nxt is None:
        report["extension"] = "obstructed"
    else:
        report["extension"] = [[_fmt_rat(x) for x in row] for row in nxt.entries]
        checks.append(_bool_entry("extension_reverified", True))
    return report


def cmd_lift(prob: Problem, out_path: Optional[str]) -> dict:
    if prob.covector is None:
        raise ProblemFileError("lift needs the covector f")
    checks = []
    admissible = is_admissible(prob.algebra, prob.covector)
    checks.append(_bool_entry("admissible_covector", admissible))
    report: dict[str, Any] = {"command": "lift", "checks": checks}
    if not admissible:
        bad = next((k for k, v in prob.algebra.structure.items()
                    if sum((a * b for a, b in zip(prob.covector, v)), Fraction(0)) != 0), None)
        if bad is not None:
            checks[-1]["witness"] = _fmt_witness(bad)
        return report
    raised_alg = raise_arity(prob.algebra, prob.covector)
    raised_rep = raise_arity_rep(prob.rep, prob.covector)
    checks.append(_check_entry("raised_filippov", check_filippov(raised_alg)))
    checks.append(_check_entry("raised_representation", check_representation(raised_rep)))
    t = prob.rb_operator()
    lifted_t = None
    if t is not None:
        checks.append(_check_entry("rota_baxter", check_rb(prob.rep, prob.operator)))
        lifted_t = lift_operator(t, prob.covector)
        checks.append(_check_entry("lifted_rota_baxter",
                                   check_rb(lifted_t.rep, lifted_t.matrix)))
    x0 = prob.x0
    degenerate_x0 = False
    if x0 is not None and t is not None:
        central = is_central(prob.rep, x0)
        checks.append(_bool_entry("x0_central", central))
        if central:
            # the degree-0 square commutes iff (-1)^(n-1) f(x0_g) = 1
            fx0 = sum((a * b for a, b in zip(prob.covector, x0[:prob.dim_g])),
                      Fraction(0))
            normalized = Fraction((-1) ** (prob.n - 1)) * fx0 == 1
            if normalized:
                ok = all(
                    operator_chain_map_holds(
                        t, prob.covector, x0,
                        Wedge(prob.dim_g, prob.n - 1, {b: Fraction(1)}))
                    for b in wedge_basis(prob.dim_g, prob.n - 1))
                checks.append(_bool_entry("operator_chain_map_degree0", ok))
            else:
                checks.append({
                    "check": "operator_chain_map_degree0", "status": "skipped",
                    "detail": "x0 not normalized: (-1)^(n-1)·f(x0_g) != 1"})
    for i, (space, bm) in enumerate(prob.cochains):
        sym = tail_antisymmetrize(bm)
        note = "" if sym == bm else "antisymmetrized wedge-tail component"
        if space == "pair":
            ok = pair_chain_map_holds(prob.rep, prob.covector, sym)
            entry = _bool_entry(f"pair_chain_map[{i}]", ok)
        else:
            if t is None:
                entry = {"check": f"operator_chain_map[{i}]", "status": "absent",
                         "detail": "needs T"}
                checks.append(entry)
                continue
            use_x0 = x0
            if use_x0 is None:
                use_x0 = tuple(Fraction(0) for _ in range(prob.dim_g + prob.dim_v))
                degenerate_x0 = True
            ok = operator_chain_map_holds(t, prob.covector, use_x0, sym)
            entry = _bool_entry(f"operator_chain_map[{i}]", ok)
        if note:
            entry["detail"] = note
        checks.append(entry)
    if degenerate_x0:
        report["x0_note"] = ("no x0 supplied: degree-0 lifting used x0 = 0, "
                             "which collapses it to the zero map")
    raised = Problem(prob.n + 1, raised_alg, raised_rep)
    if prob.operator is not None:
        raised.operator = prob.operator
    if is_admissible(raised_alg, prob.covector):
        raised.covector = prob.covector
    emitted = emit_problem(raised)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(emitted)
        report["out"] = out_path
    return report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlie",
        description="Exact checks and constructions for n-Lie algebra problem files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="structure checks on a problem file")
    p_coh = sub.add_parser("cohomology", help="cochain/cohomology dimension table")
    p_coh.add_argument("--max-m", type=int, default=2, dest="max_m")
    p_coh.add_argument("--target", choices=("pair", "operator"), default="pair")
    p_def = sub.add_parser("deform", help="deformation checks, extension, equivalence")
    p_def.add_argument("--action", choices=("check", "extend", "equivalence"),
                       default="check")
    p_lift = sub.add_parser("lift", help="raise the arity by one and verify")
    p_lift.add_argument("--out", default=None)
    for p in (p_verify, p_coh, p_def, p_lift):
        p.add_argument("file")
        p.add_argument("--json", action="store_true", dest="as_json")

    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        prob = load_problem(args.file)
        if args.command == "verify":
            report = cmd_verify(prob)
        elif args.command == "cohomology":
            report = cmd_cohomology(prob, args.max_m, args.target)
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
