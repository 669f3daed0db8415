"""Record the benchmark's end-to-end figures for one checkout in `BENCH_<short sha>.json`.

Run from the root of a checkout:

    python3 tools/bench_record.py --seeds 101 102 103              # every workload
    python3 tools/bench_record.py --workloads converge_p2 --seeds 7 8
    python3 tools/bench_record.py --root ../other-checkout --seeds 7 8
    python3 tools/bench_record.py --records perfbench/_work/result_*_t0.json

For each seed, and for each workload within a seed, it runs
`perfbench/run.py --trace 0` of the checkout at `--root` for the run length
that the checkout's `BENCHMARK.json` sets, and reads that run's record,
`perfbench/_work/result_<workload>_s<seed>_t0.json`. With `--records` nothing
runs: the given result files are aggregated instead, so that runs made
elsewhere, for example alternating with another checkout's, can be recorded.

The file holds the checkout's commit (short sha, and whether tracked files
differ from it) and, per workload, the seeds, the attempted and failed calls,
every end-to-end metric's per-seed values with their median, quartiles and
IQR, and the environment that the records carry: BLAS and its live thread
count, cores, versions, ndof and band width. Records of one workload must share
that environment. Keys are sorted, so that the same records give the same
bytes. The file is written to the root of the repository this script is in.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the benchmark's metric table, loaded by path so that its directory stays off sys.path
_spec = importlib.util.spec_from_file_location("perfbench_metrics",
                                               ROOT / "perfbench" / "metrics.py")
_metrics = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_metrics)
END_TO_END, WORKLOAD_NAMES = _metrics.END_TO_END, _metrics.WORKLOAD_NAMES

# the parts of a record that describe where it was measured
ENVIRONMENT_KEYS = ("env", "ndof", "bandwidth")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(records: list[dict]) -> dict:
    """Per workload: seeds, call counts, environment and each end-to-end metric's values
    in seed order with their median, quartiles and IQR."""
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        if record.get("trace"):
            raise ValueError(f"{record['workload']} seed {record['seed']}: a traced record "
                             "has no end-to-end metrics")
        by_workload.setdefault(record["workload"], []).append(record)
    summary = {}
    for name, runs in by_workload.items():
        runs = sorted(runs, key=lambda r: r["seed"])
        seeds = [r["seed"] for r in runs]
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"{name}: seed listed twice in {seeds}")
        environment = {key: runs[0][key] for key in ENVIRONMENT_KEYS}
        for run in runs[1:]:
            if {key: run[key] for key in ENVIRONMENT_KEYS} != environment:
                raise ValueError(f"{name}: seed {run['seed']} was measured in another "
                                 f"environment than seed {seeds[0]}")
        metrics = {}
        for metric, (unit, better) in END_TO_END.items():
            values = [float(r["metrics"][metric]) for r in runs]
            q1, median, q3 = quartiles(values)
            metrics[metric] = {"unit": unit, "better": better, "values": values,
                               "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
        summary[name] = {"seeds": seeds, "attempted": sum(r["attempted"] for r in runs),
                         "failed": sum(r["failed"] for r in runs),
                         "environment": environment, "metrics": metrics}
    return summary


def bench_json(commit: str, dirty: bool, records: list[dict]) -> str:
    return json.dumps({"commit": commit, "dirty": dirty, "workloads": summarize(records)},
                      indent=1, sort_keys=True) + "\n"


def commit_of(root: Path) -> tuple[str, bool]:
    """The checkout's short sha, and whether its tracked files differ from that commit."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    return git("rev-parse", "--short", "HEAD"), bool(git("status", "--porcelain",
                                                         "--untracked-files=no"))


def run_benchmark(root: Path, workloads: list[str], seeds: list[int]) -> list[dict]:
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    records = []
    for seed in seeds:
        for workload in workloads:
            print(f"bench_record: {workload} seed {seed}", file=sys.stderr)
            subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                           cwd=root, check=True, stdout=subprocess.DEVNULL)
            result = root / "perfbench" / "_work" / f"result_{workload}_s{seed}_t0.json"
            records.append(json.loads(result.read_text()))
    return records


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose benchmark runs and whose commit names the file")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES,
                        default=list(WORKLOAD_NAMES))
    parser.add_argument("--seeds", nargs="+", type=int, default=[101, 102, 103])
    parser.add_argument("--records", nargs="+", type=Path,
                        help="aggregate these result files instead of running")
    args = parser.parse_args(argv)

    records = ([json.loads(path.read_text()) for path in args.records] if args.records
               else run_benchmark(args.root.resolve(), args.workloads, args.seeds))
    commit, dirty = commit_of(args.root)
    out = ROOT / f"BENCH_{commit}.json"
    out.write_text(bench_json(commit, dirty, records))
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
