"""Every output of the benchmark's CLI jobs, written to files for a diff.

    python tests/cli_outputs.py OUT [--seeds 7 101] [--workloads W ...] [--inputs DIR]

For each workload and seed, the job list of `perfbench/workloads.py` is
built into DIR/<workload>-<seed> and every job is run once.  Each job's exit
code and `--json` report go to OUT/<workload>-<seed>/<job>.json, and each
problem file a `lift` job writes goes to OUT/<workload>-<seed>/raised/.
The inputs default to one fixed directory, so the `out` paths inside the
`lift` reports are the same for every checkout: two checkouts give the same
outputs exactly when `diff -r OUT1 OUT2` is silent.
"""
from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

CLI_WORKLOADS = ("cohomology-sparse", "cohomology-dense", "deform-lift")
INPUTS = Path(tempfile.gettempdir()) / "nlie-cli-outputs"


def write_outputs(out: Path, workload: str, seed: int, inputs: Path) -> None:
    """Run the workload's CLI jobs on fresh inputs and write their outputs."""
    name = f"{workload}-{seed}"
    shutil.rmtree(inputs / name, ignore_errors=True)
    jobs = workloads.build(workload, seed, inputs / name)
    (out / name).mkdir(parents=True, exist_ok=True)
    for job in jobs:
        code, text = job.run()
        (out / name / f"{job.name.replace(':', '--')}.json").write_text(
            f"exit {code}\n{text}", encoding="utf-8")
    raised = inputs / name / "raised"
    if raised.is_dir():
        shutil.copytree(raised, out / name / "raised", dirs_exist_ok=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 101])
    parser.add_argument("--workloads", nargs="+", choices=CLI_WORKLOADS,
                        default=list(CLI_WORKLOADS))
    parser.add_argument("--inputs", type=Path, default=INPUTS)
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            write_outputs(args.out, workload, seed, args.inputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
