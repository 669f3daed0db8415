"""The aggregation of `tools/bench_record.py`, on fabricated benchmark records; nothing runs."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

ENV = {"blas": [{"library": "libopenblas.so", "threads": 1, "config": "OpenBLAS 0.3"}],
       "nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
       "env_threads": {"OPENBLAS_NUM_THREADS": "1"}}


def record(workload, seed, wall_ref, failed=0):
    return {"workload": workload, "seed": seed, "trace": 0, "attempted": 10,
            "failed": failed, "env": ENV, "ndof": 289, "bandwidth": 33,
            "metrics": {"wall_ref": wall_ref, "member_steps_per_ref": 100.0 / wall_ref,
                        "setup_s": 0.4, "peak_rss_mb": 80.0 + seed},
            "call_walls": [[0.1]]}


def test_median_quartiles_and_iqr_per_workload():
    records = [record("converge_p2", seed, wall) for seed, wall
               in ((9, 16.0), (7, 14.0), (8, 13.0), (10, 15.0))]
    records.append(record("emc_gate", 3, 2.5, failed=1))
    summary = bench_record.summarize(records)
    assert set(summary) == {"converge_p2", "emc_gate"}
    p2 = summary["converge_p2"]
    assert p2["seeds"] == [7, 8, 9, 10] and p2["attempted"] == 40 and p2["failed"] == 0
    wall = p2["metrics"]["wall_ref"]
    assert wall["values"] == [14.0, 13.0, 16.0, 15.0]  # in seed order
    assert (wall["q1"], wall["median"], wall["q3"]) == (13.75, 14.5, 15.25)
    assert wall["iqr"] == 1.5 and (wall["unit"], wall["better"]) == ("ref", "lower")
    assert p2["metrics"]["peak_rss_mb"]["median"] == 88.5
    assert set(p2["metrics"]) == set(bench_record.END_TO_END)
    assert p2["environment"] == {"env": ENV, "ndof": 289, "bandwidth": 33}
    gate = summary["emc_gate"]
    assert gate["failed"] == 1 and gate["metrics"]["wall_ref"]["iqr"] == 0.0
    assert gate["metrics"]["wall_ref"]["median"] == 2.5


def test_file_is_the_same_for_the_same_records_in_any_order():
    records = [record("converge_p2", seed, 10.0 + seed) for seed in (1, 2, 3)]
    text = bench_record.bench_json("abc1234", False, records)
    assert text == bench_record.bench_json("abc1234", False, records[::-1])
    data = json.loads(text)
    assert data["commit"] == "abc1234" and data["dirty"] is False
    assert text == json.dumps(data, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("changes, message", [
    ({"bandwidth": 34}, "another environment"),
    ({"env": {**ENV, "blas": [{**ENV["blas"][0], "threads": 2}]}}, "another environment"),
    ({"seed": 1}, "seed listed twice"),
    ({"trace": 1}, "traced record"),
])
def test_refuses_records_that_do_not_belong_together(changes, message):
    records = [record("emc_wide", 1, 30.0), {**record("emc_wide", 2, 31.0), **changes}]
    with pytest.raises(ValueError, match=message):
        bench_record.summarize(records)


def test_pair_table_medians_wins_and_parent_iqr():
    parent = bench_record.summarize([record("emc_gate", seed, wall) for seed, wall
                                     in ((1, 10.0), (2, 11.0), (3, 12.0), (4, 13.0))])
    change = bench_record.summarize([record("emc_gate", seed, wall) for seed, wall
                                     in ((1, 9.0), (2, 11.0), (3, 13.0), (4, 12.0), (5, 1.0))]
                                    + [record("emc_wide", 1, 30.0)])
    rows = {row["metric"]: row for row in bench_record.pair_table(parent, change)}
    assert set(rows) == set(bench_record.END_TO_END)  # emc_gate only: emc_wide has no parent
    wall = rows["wall_ref"]
    assert (wall["workload"], wall["unit"]) == ("emc_gate", "ref")
    assert (wall["parent"], wall["change"]) == (11.5, 11.0)  # each side's own median
    # seed 1 wins, 2 ties, 3 loses, 4 wins; seed 5 has no parent run
    assert (wall["wins"], wall["pairs"]) == (2, 4)
    assert wall["parent_iqr"] == parent["emc_gate"]["metrics"]["wall_ref"]["iqr"] == 1.5
    # higher is better for the rate, so the same seeds win
    assert (rows["member_steps_per_ref"]["wins"], rows["member_steps_per_ref"]["pairs"]) == (2, 4)
    assert rows["setup_s"]["wins"] == 0  # every pair ties


def test_pair_runs_take_turns_going_first(monkeypatch):
    runs = []
    monkeypatch.setattr(bench_record, "run_one", lambda root, workload, seed:
                        runs.append((root, workload, seed)) or record(workload, seed, 1.0))
    before, after = bench_record.run_benchmark([Path("parent"), Path("change")],
                                               ["emc_gate", "emc_wide"], [7, 8])
    assert runs == [(Path(root), workload, seed) for seed, first, second
                    in ((7, "parent", "change"), (8, "change", "parent"))
                    for workload in ("emc_gate", "emc_wide") for root in (first, second)]
    assert [(r["workload"], r["seed"]) for r in before] == [(r["workload"], r["seed"])
                                                            for r in after]
