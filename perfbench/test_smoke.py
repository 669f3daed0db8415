"""The benchmark's own tests; not part of the package's test suite.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_benchmark_json_lists_the_benchmarks_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workload_classes_match_the_names():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert tuple(workloads.WORKLOADS) == WORKLOAD_NAMES


def test_smoke_runs_every_workload_traced_and_emits_every_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.rstrip().endswith("SMOKE PASS")


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "emc_wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
