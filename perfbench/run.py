"""Benchmark of the nlie engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the engine is imported from `src/`.  The
load model is one process and one caller in a closed loop: each job starts
after the previous one returns.  A pass runs the workload's fixed job list
once; passes repeat until the next one would end after S seconds (at least
two run).  Each pass starts after a full garbage collection, so the
collector's state at the start of a pass does not depend on the passes
before it.  Every answer goes through the gate after the timed region.

--trace 0 prints the end-to-end metrics: mean pass wall and CPU time, peak
RSS and the median set-up time of separate set-up processes, spread over
the run between passes.  While passes run, a timer signal every
PROBE_PERIOD seconds times one call of a fixed reference loop
(reference.py); job times leave the probe's own time out, and every time
is scaled by REF_S over the mean probe call: times are seconds on a host
where that loop takes REF_S.  Each set-up process runs a probe of its own
and is scaled by it.  On a shared host the speed other tenants leave us
flips between a fast and a slow mode, about 1.8x apart, within seconds,
and the share of slow time drifts over minutes.  The jobs and the loop slow
down together, so a ratio of means over the same stretch of time repeats
across runs where raw times do not; medians and minima do not, because
they pick one mode or the other.  The raw figures go to the record.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of BENCHMARK.json (times are medians over traced passes, counts
must repeat exactly).  The last line of stdout is one JSON object; a full
record with the environment, per-degree matrix shapes and ranks, and the
spans goes to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import filecmp
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import reference
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 2
PROBE_PERIOD = 0.1  # seconds between host-speed probes during passes
SETUP_REPEATS = 5
SETUP_PROBE_PERIOD = 0.02  # a set-up takes 0.1-1 s
# a set-up process: imports nlie and builds the inputs under a probe of its
# own, then prints the probe's calls; the last call, after the build, makes
# sure there is one
SETUP_CHILD = """import sys
sys.path[:0] = sys.argv[1:3]
import json, reference
probe = reference.HostProbe(float(sys.argv[6]))
with probe:
    import workloads
    from pathlib import Path
    workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
probe.probe()
print(json.dumps(probe.calls))
"""


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


class JobFailed:
    """Stands in for the output of a job that raised."""

    def __init__(self, error: str):
        self.error = error


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def environment(seed: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "platform": platform.platform(), "seed": seed}


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------

def run_job(job):
    try:
        return job.run()
    except (Exception, SystemExit) as e:  # a job that raises is a failed answer
        return JobFailed(f"{type(e).__name__}: {e}")


def run_pass(jobs, tracer=None) -> list:
    outs = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(i)
        outs.append(run_job(job))
    return outs


def timed_pass(jobs, times: list, probe: reference.HostProbe) -> list:
    """Runs every job once under the probe; appends its (wall, cpu)
    seconds, less the probe's, to `times`."""
    outs = []
    with probe:
        for job in jobs:
            pw, pc = probe.wall, probe.cpu
            c0, t0 = reference.cpu_now(), time.perf_counter()
            outs.append(run_job(job))
            t1, c1 = time.perf_counter(), reference.cpu_now()
            times.append((t1 - t0 - (probe.wall - pw), c1 - c0 - (probe.cpu - pc)))
    return outs


def gate(jobs, outputs: list[list]) -> list[dict]:
    """Every answer of every pass, plus byte-identical CLI reports across passes."""
    failures = []
    for p, outs in enumerate(outputs):
        for job, out, first in zip(jobs, outs, outputs[0]):
            if isinstance(out, JobFailed):
                err = out.error
            else:
                try:
                    err = job.check(out)
                except Exception as e:  # a malformed report is a wrong answer
                    err = f"{type(e).__name__} while checking: {e}"
                if err is None and job.cli and out != first:
                    err = "--json report differs from the first pass"
            if err is not None:
                failures.append({"pass": p, "job": job.name, "error": err})
    return failures


def measure_setup(workload: str, seed: int, rundir: Path, inputs: Path, k: int) -> tuple:
    """Wall time of a fresh process that imports nlie and generates the
    inputs, less its probe's time, and the probe's calls.

    It writes its own copy of the inputs, which must equal the main
    process's copy byte for byte."""
    target = rundir / f"setup-{k}"
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), str(HERE),
                           workload, str(seed), str(target), str(SETUP_PROBE_PERIOD)],
                          check=True, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    calls = json.loads(done.stdout)
    names = sorted(p.name for p in target.glob("*.json"))
    if names != sorted(p.name for p in inputs.glob("*.json")):
        raise BenchmarkError("set-up processes wrote different input files")
    _, mismatch, errors = filecmp.cmpfiles(inputs, target, names, shallow=False)
    if mismatch or errors:
        raise BenchmarkError(f"inputs not byte-identical for the same seed: {mismatch + errors}")
    return elapsed - sum(w for w, _ in calls), calls


def degree_shapes(shape: dict) -> list[tuple[int, int, int]]:
    """(m, rows, cols) of each differential a cohomology job builds, in closed form:
    pair cochains of degree m span C(d, n-1)^(m-1)·d·dim V coordinates."""
    n, dg, dv, top = shape["n"], shape["dim_g"], shape["dim_v"], shape["max_m"]
    if shape["target"] == "pair":
        c = comb(dg, n - 1)
        return [(m, c ** m * dg * dv, c ** (m - 1) * dg * dv) for m in range(1, top + 1)]
    c = comb(dv, n - 1)
    return [(0, dv * dg, comb(dg, n - 1))] + [
        (m, c ** m * dv * dg, c ** (m - 1) * dv * dg) for m in range(1, top + 1)]


def degree_table(jobs, outs, spans=None) -> dict:
    """Per cohomology job and degree: matrix shape, rank, and (traced) nnz."""
    table = {}
    for i, (job, out) in enumerate(zip(jobs, outs)):
        if not job.shape or isinstance(out, JobFailed) or out[0] != 0:
            continue
        ranks = {r["m"]: r["rank_d"] for r in json.loads(out[1])["table"]}
        rows = [{"m": m, "rows": r, "cols": c, "rank": ranks.get(m)}
                for m, r, c in degree_shapes(job.shape)]
        if spans is not None:
            built = tr.job_calls(spans, i, builder_name(job))
            for row, s in zip(rows, built):
                row["nnz"] = tr.nnz(s.result)
        table[job.name] = rows
    return table


def builder_name(job) -> str:
    return ("cochain.coboundary_matrix" if job.shape["target"] == "pair"
            else "rota_baxter.rb_coboundary_matrix")


def coverage_errors(jobs, spans) -> list[str]:
    """Counts the wrappers saw against closed forms.

    Matrix shapes must match the cochain-space sizes, and a pair job must
    show Σ_m C(d,n-1)^(m-1)·d·dim V `coboundary` calls, one per source basis
    cochain as the assembly works today; fewer means a wrapper missed an
    import site.  An assembly that stops calling `coboundary` per basis
    cochain has to change this expectation with it."""
    errors = []
    for i, job in enumerate(jobs):
        if not job.shape:
            continue
        want = degree_shapes(job.shape)
        built = tr.job_calls(spans, i, builder_name(job))
        got = sorted((s.result.rows, s.result.cols) for s in built)
        if got != sorted((r, c) for _, r, c in want):
            errors.append(f"{job.name}: built {got}, expected shapes {want}")
        if job.shape["target"] == "pair":
            calls = len(tr.job_calls(spans, i, "cochain.coboundary"))
            expected = sum(c for _, _, c in want)
            if calls != expected:
                errors.append(f"{job.name}: {calls} coboundary calls, expected {expected}")
    return errors


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def scaled_means(job_times: list[list[tuple]], calls: list[tuple],
                 setups: list[tuple]) -> tuple[dict, dict]:
    """End-to-end times at the reference host's speed.

    `job_times` holds per-pass job (wall, cpu) lists and `calls` the probe's
    (wall, cpu) times during the passes; each set-up, (wall, its probe's
    calls), is scaled by its own probe."""
    wall = statistics.fmean(sum(t[0] for t in p) for p in job_times)
    cpu = statistics.fmean(sum(t[1] for t in p) for p in job_times)
    wall_scale = reference.REF_S / statistics.fmean(c[0] for c in calls)
    cpu_scale = reference.REF_S / statistics.fmean(c[1] for c in calls)
    setup = [t * reference.REF_S / statistics.fmean(c[0] for c in cs) for t, cs in setups]
    metrics = {"wall_s": wall * wall_scale, "cpu_s": cpu * cpu_scale,
               "setup_s": statistics.median(setup)}
    raw = {"mean_pass_wall_s": wall, "mean_pass_cpu_s": cpu,
           "median_setup_s": statistics.median(t for t, _ in setups),
           "wall_scale": wall_scale, "cpu_scale": cpu_scale}
    return metrics, raw


def end_to_end(jobs, seconds: float, setup):
    """Passes until the next would end after `seconds`; set-up process k of
    SETUP_REPEATS starts before the first pass that begins after
    k/SETUP_REPEATS of the run."""
    outputs, job_times, setups = [], [], []
    probe = reference.HostProbe(PROBE_PERIOD)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while len(setups) < SETUP_REPEATS and len(setups) <= elapsed / seconds * SETUP_REPEATS:
            setups.append(setup(len(setups)))
        gc.collect()
        times: list[tuple] = []
        outputs.append(timed_pass(jobs, times, probe))
        job_times.append(times)
        walls = [sum(t[0] for t in p) for p in job_times]
        if (len(walls) >= MIN_PASSES
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup(len(setups)))
    if not probe.calls:
        raise BenchmarkError("no host-speed probe fired during the passes")
    metrics, raw = scaled_means(job_times, probe.calls, setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    record = {"pass_wall_s": walls, "pass_cpu_s": [sum(t[1] for t in p) for p in job_times],
              "setup_runs_s": [t for t, _ in setups], "setup_probe_calls": [c for _, c in setups],
              "raw": raw, "pass_job_times": job_times,
              "probe_calls": probe.calls, "per_degree": degree_table(jobs, outputs[0])}
    return metrics, outputs, record


def traced(jobs, seconds: float):
    t = tr.Tracer()
    plain, walls, outputs, per_pass, all_spans = [], [], [], [], []
    record: dict = {}
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        outputs.append(run_pass(jobs))
        plain.append(time.perf_counter() - t0)
        t.reset()
        gc.collect()
        with t:
            t0 = time.perf_counter()
            outs = run_pass(jobs, t)
            walls.append(time.perf_counter() - t0)
        outputs.append(outs)
        errors = coverage_errors(jobs, t.spans)
        if errors:
            raise BenchmarkError("tracer coverage check failed: " + "; ".join(errors))
        if not per_pass:
            record["per_degree"] = degree_table(jobs, outs, t.spans)
        per_pass.append(tr.layer_metrics(t.spans, t.counts))
        for s in t.spans:
            s.result = None  # free the matrices kept for shapes
        all_spans.append([s.as_dict() for s in t.spans])
        if time.perf_counter() - start + plain[-1] + walls[-1] > seconds:
            break
    metrics = {}
    for name, first in per_pass[0].items():
        values = [m[name] for m in per_pass]
        if name.endswith((".s", ".self_s")):
            metrics[name] = statistics.median(values)
        elif any(v != first for v in values):
            raise BenchmarkError(f"{name} differs between traced passes: {values}")
        else:
            metrics[name] = first
    metrics["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(plain)
    record.update({"pass_wall_s": plain, "traced_pass_wall_s": walls, "spans": all_spans})
    return metrics, outputs, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nlie" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the repository root: needs src/nlie and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    inputs = rundir / "inputs"
    jobs = workloads.build(args.workload, args.seed, inputs)
    try:
        if args.trace:
            metrics, outputs, record = traced(jobs, args.seconds)
            declared = spec["per_layer"]
        else:
            metrics, outputs, record = end_to_end(
                jobs, args.seconds,
                lambda k: measure_setup(args.workload, args.seed, rundir, inputs, k))
            declared = spec["end_to_end"]
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 3

    failures = gate(jobs, outputs)
    attempted = len(jobs) * len(outputs)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"benchmark error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    record.update({"workload": args.workload, "trace": args.trace,
                   "environment": environment(args.seed), "jobs": [j.name for j in jobs],
                   "attempted": attempted, "failed": len(failures),
                   "error_rate": len(failures) / attempted, "failures": failures,
                   "metrics": metrics})
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    passes = len(record["pass_wall_s"])
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs x {len(outputs)} passes, "
          f"error_rate {len(failures)}/{attempted}, median pass {statistics.median(record['pass_wall_s']):.3f} s"
          f" over {passes} untraced passes")
    if "raw" in record:
        print(f"mean pass {record['raw']['mean_pass_wall_s']:.3f} s raw; host scale "
              f"{record['raw']['wall_scale']:.3f} from {len(record['probe_calls'])} probe calls")
    for f in failures[:10]:
        print(f"  FAILED pass {f['pass']} {f['job']}: {f['error']}")
    print(f"record: {results.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
