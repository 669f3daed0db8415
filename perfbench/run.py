"""ensfem benchmark: time the library entry points behind `ensfem emc|compare|converge`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload emc_gate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # every workload, tiny sizes, traced

Each run starts fresh child interpreters (closed loop: one run call at a time,
one process, no threads) with OpenBLAS/OpenMP pinned to one thread through the
environment, before numpy loads. A few children only import the package and
build the workload's inputs; `setup_s` is the median of their set-up times
and the measuring child's, each scaled by REFERENCE_S over the reference
time taken right after it. The measuring child repeats the workload's cycle of run
calls for `--seconds` seconds (and at least three cycles), times a fixed
reference kernel that does not use the package before every call and after
the last, and checks every call's output. `wall_ref` is the median over
cycles of the mean call time over that cycle's reference time, so that the
machine's drifting speed cancels; `wall_s` is the same median in seconds and
is printed but not gated. `error_rate` is failed calls over attempted calls.

With `--trace 0` the result's metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones from traced cycles, plus the
tracing overhead against the untraced cycles of the same child. The last
line of standard output is the result object; the lines before it print every
metric by name and unit, the error rate, and the full result record (seed,
BLAS and its live thread count, cores, versions, ndof, band width). The
record is also written under `perfbench/_work/`.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# set-up is also measured in this many fresh children before the measuring
# one and as many after it, so that a slow spell of the machine moves the
# median less
SETUP_CHILDREN = 3
# every child of one run must end within this many seconds of its start
RUN_DEADLINE_S = 170
# the reference kernel's time on the development box: `setup_s` is set-up
# time in seconds on a machine whose reference time is this
REFERENCE_S = 0.01
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
              "PYTHONDONTWRITEBYTECODE": "1"}


def _child(args: list[str], deadline: float) -> dict:
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--src", str(SRC), *args],
                          env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False) -> dict:
    """Run one workload in fresh children; returns the child's record plus metrics."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])

    def setup_children():
        return [_child(common + ["--setup-only"], deadline)
                for _ in range(0 if smoke else SETUP_CHILDREN)]

    setups = setup_children()
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    spans = WORK / f"spans_{workload}_s{seed}.jsonl"
    spans.unlink(missing_ok=True)
    try:
        record = _child(common + ["--seconds", str(seconds), "--trace", str(trace),
                                  "--out-dir", out_dir, "--spans", str(spans)],
                        deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    setups += [record] + setup_children()
    wall = call_time(record["call_walls"])
    wall_ref = call_time(record["call_walls"], record["cycle_refs"])
    record["wall_s"] = wall
    record["member_steps_per_s"] = record["member_steps"] / wall
    values = {
        "wall_ref": wall_ref,
        "member_steps_per_ref": record["member_steps"] / wall_ref,
        "setup_s": statistics.median(c["setup_s"] / c["setup_ref"] * REFERENCE_S
                                     for c in setups),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    if trace:
        values.update(record["layers"])
        values["trace.overhead_frac"] = (statistics.median(record["traced_cycle_walls"])
                                         / statistics.median(map(sum, record["call_walls"]))
                                         - 1.0)
    record["setup_runs"] = [{k: c[k] for k in ("setup_s", "setup_ref")} for c in setups]
    record["setup_s_measured"] = statistics.median(c["setup_s"] for c in setups)
    record["error_rate"] = record["failed"] / record["attempted"]
    record["trace"] = trace
    record["metrics"] = values
    return record


def call_time(call_walls: list[list[float]], cycle_refs: list[float] | None = None) -> float:
    """Median over cycles of the cycle's mean call time, in seconds, or in units
    of the reference time taken next to the same cycle's calls."""
    refs = cycle_refs or [1.0] * len(call_walls)
    return statistics.median(sum(walls) / len(walls) / ref
                             for walls, ref in zip(call_walls, refs))


def report(record: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    values = record["metrics"]
    table = PER_LAYER if record["trace"] else END_TO_END
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"runs={record['attempted']} member_steps={record['member_steps']} "
          f"ndof={record['ndof']} bandwidth={record['bandwidth']} reference_s="
          f"{statistics.median(record['cycle_refs']):.4g}")
    for name, (unit, _) in {**END_TO_END, **table}.items():
        print(f"{record['workload']:14s} {name:36s} {values[name]:.6g} {unit}")
    print(f"{record['workload']:14s} {'wall_s':36s} {record['wall_s']:.6g} s")
    print(f"{record['workload']:14s} {'member_steps_per_s':36s} "
          f"{record['member_steps_per_s']:.6g} 1/s")
    print(f"{record['workload']:14s} {'setup_s_measured':36s} "
          f"{record['setup_s_measured']:.6g} s")
    print(f"{record['workload']:14s} {'error_rate':36s} {record['error_rate']:.6g} ratio")
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({"record": record}))
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, (unit, _) in table.items()}}


def smoke() -> int:
    """Every workload at tiny sizes, traced; asserts every metric is emitted and finite."""
    ok = True
    for name in WORKLOAD_NAMES:
        record = measure(name, seed=20240, seconds=0, trace=1, smoke=True)
        report(record)
        values = record["metrics"]
        missing = [m for m in (*END_TO_END, *PER_LAYER)
                   if not isinstance(values.get(m), (int, float))
                   or values[m] != values[m] or abs(values[m]) == float("inf")]
        if missing or record["failed"]:
            print(f"SMOKE FAIL {name}: missing {missing}, failed {record['failed']}")
            ok = False
    print("SMOKE PASS" if ok else "SMOKE FAIL")
    return 0 if ok else 1


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "ensfem" / "__init__.py").is_file():
        print(f"perfbench: no ensfem sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    result = report(record)
    (WORK / f"result_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
