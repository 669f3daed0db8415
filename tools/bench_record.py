"""Record the benchmark's end-to-end figures for one checkout in `BENCH_<short sha>.json`.

Run from the root of a checkout:

    python3 tools/bench_record.py --seeds 101 102 103              # every workload
    python3 tools/bench_record.py --workloads converge_p2 --seeds 7 8
    python3 tools/bench_record.py --root ../other-checkout --seeds 7 8
    python3 tools/bench_record.py --records perfbench/_work/result_*_t0.json
    python3 tools/bench_record.py --against HEAD~1 --seeds 311 312 313   # a pair

For each seed, and for each workload within a seed, it runs
`perfbench/run.py --trace 0` of the checkout at `--root` for the run length
that the checkout's `BENCHMARK.json` sets, and reads that run's record,
`perfbench/_work/result_<workload>_s<seed>_t0.json`. With `--records` nothing
runs: the given result files are aggregated instead, so that runs made
elsewhere can be recorded.

With `--against REV`, the tree of commit REV of this repository is exported
to a temporary directory, and each seed runs on both sides, REV and the
checkout at `--root`; the side that goes first alternates from seed to seed,
so that a slow spell of a shared machine falls on both. Both files are
written, and a pair table is printed: per workload and end-to-end metric, the
medians of both sides, the change's wins over the seeds both ran (a tie
counts for neither side) and the IQR of REV's values.

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
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
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


def pair_table(parent: dict, change: dict) -> list[dict]:
    """Each workload's end-to-end metrics in two summaries (`summarize`), paired by seed:
    the medians of both sides, the change's wins out of the seeds both ran (a tie counts
    for neither side) and the parent's IQR, one row per workload and metric."""
    rows = []
    for name in sorted(parent.keys() & change.keys()):
        for metric, (unit, better) in END_TO_END.items():
            before, after = parent[name]["metrics"][metric], change[name]["metrics"][metric]
            old = dict(zip(parent[name]["seeds"], before["values"]))
            new = dict(zip(change[name]["seeds"], after["values"]))
            seeds = old.keys() & new.keys()
            sign = 1.0 if better == "lower" else -1.0
            rows.append({"workload": name, "metric": metric, "unit": unit,
                         "parent": before["median"], "change": after["median"],
                         "wins": sum(sign * (old[s] - new[s]) > 0 for s in seeds),
                         "pairs": len(seeds), "parent_iqr": before["iqr"]})
    return rows


def git(root: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def commit_of(root: Path) -> tuple[str, bool]:
    """The checkout's short sha, and whether its tracked files differ from that commit."""
    return git(root, "rev-parse", "--short", "HEAD"), bool(git(root, "status", "--porcelain",
                                                               "--untracked-files=no"))


def export(rev: str, directory: Path) -> str:
    """Write the tree of commit `rev` of this repository into `directory`; returns its
    short sha."""
    sha = git(ROOT, "rev-parse", "--short", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")
    return sha


def run_one(root: Path, workload: str, seed: int) -> dict:
    """One `perfbench/run.py --trace 0` run of the checkout at `root`, and its record."""
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"bench_record: {workload} seed {seed} in {root}", file=sys.stderr)
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    result = root / "perfbench" / "_work" / f"result_{workload}_s{seed}_t0.json"
    return json.loads(result.read_text())


def run_benchmark(roots: list[Path], workloads: list[str], seeds: list[int],
                  ) -> list[list[dict]]:
    """The records of every workload and seed on each checkout in `roots`. Within a seed
    each workload runs on every checkout in turn, and the turns go the other way round
    at every other seed."""
    records = [[] for _ in roots]
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for k in (range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))):
                records[k].append(run_one(roots[k], workload, seed))
    return records


def write(commit: str, dirty: bool, records: list[dict]) -> dict:
    """Write `BENCH_<commit>.json` at the repository root; returns its summary."""
    out = ROOT / f"BENCH_{commit}.json"
    out.write_text(bench_json(commit, dirty, records))
    print(out)
    return summarize(records)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose benchmark runs and whose commit names the file")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES,
                        default=list(WORKLOAD_NAMES))
    parser.add_argument("--seeds", nargs="+", type=int, default=[101, 102, 103])
    runs = parser.add_mutually_exclusive_group()
    runs.add_argument("--records", nargs="+", type=Path,
                      help="aggregate these result files instead of running")
    runs.add_argument("--against", metavar="REV",
                      help="also run commit REV of this repository, alternating, and "
                           "print the pair table")
    args = parser.parse_args(argv)

    root, (commit, dirty) = args.root.resolve(), commit_of(args.root)
    if args.records:
        write(commit, dirty, [json.loads(path.read_text()) for path in args.records])
    elif not args.against:
        write(commit, dirty, run_benchmark([root], args.workloads, args.seeds)[0])
    else:
        with tempfile.TemporaryDirectory(prefix="bench-against-") as scratch:
            parent = export(args.against, Path(scratch))
            before, after = run_benchmark([Path(scratch), root], args.workloads, args.seeds)
        parent_summary, change_summary = write(parent, False, before), write(commit, dirty, after)
        for name in sorted(change_summary):
            print(f"{name}: failed calls {parent_summary[name]['failed']} of "
                  f"{parent_summary[name]['attempted']} at {parent}, "
                  f"{change_summary[name]['failed']} of {change_summary[name]['attempted']} "
                  f"at {commit}")
        for row in pair_table(parent_summary, change_summary):
            print(f"{row['workload']:14} {row['metric']:21} {row['parent']:10.4g} -> "
                  f"{row['change']:10.4g} {row['unit']:6} {row['change'] / row['parent'] - 1:+7.1%}"
                  f"  wins {row['wins']}/{row['pairs']}  parent IQR {row['parent_iqr']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
