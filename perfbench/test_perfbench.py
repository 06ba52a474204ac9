"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))}


@pytest.mark.parametrize("workload", ["cohomology-sparse", "cohomology-dense", "deform-lift"])
def test_generator_is_deterministic(tmp_path, workload):
    workloads.build(workload, 7, tmp_path / "a")
    workloads.build(workload, 7, tmp_path / "b")
    workloads.build(workload, 8, tmp_path / "c")
    a = files(tmp_path / "a")
    assert a and a == files(tmp_path / "b")
    assert a != files(tmp_path / "c")


def test_mc_oracle_inputs_are_deterministic(tmp_path):
    runs = [[j.name for j in workloads.build("mc-oracles", 7, tmp_path)] for _ in range(2)]
    assert runs[0] == runs[1]
    a, b = (workloads.operator_inputs(7) for _ in range(2))
    assert all(a[k][1] == b[k][1] for k in a)


def small_jobs(tmp_path):
    jobs = workloads.build("deform-lift", 3, tmp_path)
    keep = ("verify:sl2", "verify:broken-bracket", "deform-equivalence:nilp4-gauge",
            "deform-extend:sl2-frozen")
    return [j for j in jobs if j.name in keep]


def test_gate_passes_right_answers_and_catches_planted_wrong_ones(tmp_path):
    jobs = small_jobs(tmp_path)
    outputs = [run.run_pass(jobs) for _ in range(2)]
    assert run.gate(jobs, outputs) == []

    def planted(name, edit):
        outs = list(outputs[1])
        i = next(k for k, j in enumerate(jobs) if j.name == name)
        code, text = outs[i]
        outs[i] = edit(code, json.loads(text))
        return run.gate(jobs, [outputs[0], outs])

    def wrong_gauge(code, report):
        key = next(iter(report["gauge"]))
        report["gauge"][key] = str(int(report["gauge"][key]) + 1)
        return code, json.dumps(report, sort_keys=True, indent=2) + "\n"

    def not_obstructed(code, report):
        report["extension"] = [["0"]]
        return code, json.dumps(report, sort_keys=True, indent=2) + "\n"

    assert planted("deform-equivalence:nilp4-gauge", wrong_gauge)
    assert planted("deform-extend:sl2-frozen", not_obstructed)
    assert planted("verify:broken-bracket", lambda code, r: (0, json.dumps(r)))
    # a report that differs between passes is caught even when it checks out
    assert planted("verify:sl2", lambda code, r: (code, json.dumps(r)))


def test_gate_checks_cohomology_tables_against_golden():
    check = workloads.table_check("sl2/pair", 2)
    table = [{"m": 1, "dim_cochains": 9, "rank_d": 6, "dim_H": 3},
             {"m": 2, "dim_cochains": 27, "rank_d": 21, "dim_H": 0}]
    report = {"checks": [], "verdict": True, "table": table}
    assert check(report, 0) is None
    table[1]["rank_d"] = 20
    assert check(report, 0)


def test_gate_checks_library_verdicts():
    job = workloads.lib_job("x", lambda: True, lambda: False)
    assert job.check(job.run())
    assert run.gate([job], [[run.JobFailed("boom")]])


def test_wrappers_restore_the_original_functions():
    import nlie
    mods = {name: m for name, m in sys.modules.items()
            if name == "nlie" or name.startswith("nlie.")}
    before = {name: dict(vars(m)) for name, m in mods.items()}
    methods = (nlie.NLieAlgebra.__dict__["bracket"], nlie.LazyMap.__dict__["value"])
    t = tr.Tracer()
    with t:
        assert nlie.cochain.coboundary is not before["nlie.cochain"]["coboundary"]
        assert nlie.rota_baxter.coboundary is nlie.cochain.coboundary
        assert nlie.NLieAlgebra.__dict__["bracket"] is not methods[0]
    for name, m in mods.items():
        assert all(vars(m).get(k) is v for k, v in before[name].items()), name
    assert (nlie.NLieAlgebra.__dict__["bracket"], nlie.LazyMap.__dict__["value"]) == methods


def span(name, start, end, parent):
    s = tr.Span(name, parent, 0)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_the_union_of_children():
    spans = [span("a", 0.0, 10.0, -1),
             span("b", 1.0, 4.0, 0),
             span("c", 3.0, 6.0, 0),     # overlaps b: the union counts once
             span("d", 2.0, 3.0, 1),
             span("a", 7.0, 9.0, 0)]     # nested call of the same name
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 2.0])
    m = tr.layer_metrics(spans, {})
    assert m["a.s"] == pytest.approx(10.0)  # the nested call is not counted twice
    assert m["a.self_s"] == pytest.approx(5.0)
    assert m["a.calls"] == 2


def pair_job(tmp_path, name="heis3", max_m=2):
    from nlie import adjoint_rep
    rep = adjoint_rep(gen.catalog_algebra(name))
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = gen.write_problem(tmp_path, name, gen.problem_dict(rep))
    return workloads.cli_job(
        name, ["cohomology", path, "--max-m", str(max_m), "--target", "pair"],
        workloads.table_check(f"{name}/pair", max_m), target="pair",
        n=rep.algebra.n, dim_g=rep.algebra.dim, dim_v=rep.dim_v, max_m=max_m)


def test_coverage_check_passes_and_catches_a_missed_import_site(tmp_path):
    import nlie.cochain
    jobs = [pair_job(tmp_path)]
    t = tr.Tracer()
    with t:
        run.run_pass(jobs, t)
    assert run.coverage_errors(jobs, t.spans) == []
    assert len(tr.job_calls(t.spans, 0, "cochain.coboundary")) == 9 + 27
    t.reset()
    with t:
        # simulate a wrapper that missed the import inside nlie.cochain
        original = next(o for owner, a, o in t._restore
                        if owner is nlie.cochain and a == "coboundary")
        nlie.cochain.coboundary = original
        run.run_pass(jobs, t)
    assert run.coverage_errors(jobs, t.spans)


def test_counts_repeat_exactly_between_traced_passes(tmp_path):
    jobs = [pair_job(tmp_path, "sl2", 2)]
    metrics = []
    for _ in range(2):
        t = tr.Tracer()
        with t:
            run.run_pass(jobs, t)
        m = tr.layer_metrics(t.spans, t.counts)
        metrics.append({k: v for k, v in m.items() if not k.endswith((".s", ".self_s"))})
    assert metrics[0] == metrics[1]
    assert metrics[0]["cochain.coboundary_matrix.rows"] == 27 + 81
    assert metrics[0]["multilinear.apply_map.calls"] > 0


def test_benchmark_json_names_every_metric_the_runner_produces():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    produced = set(tr.layer_metrics([], {})) | {"trace.overhead_ratio"}
    assert per_layer <= produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_scaled_means_scale_mean_times_to_reference_speed():
    r = run.reference.REF_S
    # two passes of two jobs, (wall, cpu) each, and three probe calls
    passes = [[(3.0, 2.0), (1.0, 1.0)], [(2.0, 3.0), (4.0, 0.5)]]
    calls = [(2 * r, 2 * r), (3 * r, 4 * r), (4 * r, 3 * r)]
    # set-ups with their own probe calls: scaled 0.3, 0.9 and 0.2
    setups = [(0.6, [(2 * r, r)]), (1.8, [(r, r), (3 * r, r)]), (0.4, [(2 * r, r)])]
    metrics, raw = run.scaled_means(passes, calls, setups)
    assert raw["mean_pass_wall_s"] == 5.0 and raw["mean_pass_cpu_s"] == 3.25
    assert metrics == pytest.approx({"wall_s": 5.0 / 3, "cpu_s": 3.25 / 3, "setup_s": 0.3})


def test_host_probe_fires_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = run.reference.HostProbe(0.01)
    with probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.calls) >= 3
    assert probe.wall == pytest.approx(sum(w for w, _ in probe.calls))
    assert signal.getsignal(signal.SIGALRM) is before


def test_reference_loop_is_fixed_work():
    assert run.reference.reference_work() == run.reference.reference_work() == (7, 10, -15)
