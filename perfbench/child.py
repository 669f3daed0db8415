"""One benchmark child: set up a workload, run it repeatedly for a while, check every run.

`run.py` starts this in a fresh interpreter whose environment pins BLAS to one
thread and puts the checkout's `src` first on the import path. The last line
of standard output is one JSON object with the raw figures; `run.py` turns
them into metrics.

With `--setup-only` the child stops after set-up and reports only its time
and the reference time taken right after it.
The child runs the workload's input set (a cycle of one or more run calls)
again and again until `--seconds` have passed, checks every call's output,
and reports each call's time in every cycle together with the time of a
reference kernel taken next to the cycle's calls. With `--trace 1` untraced and
traced cycles alternate; the traced ones run under the layer tracer and give
the per-layer figures, and the untraced ones give the wall time the tracing
overhead is measured against.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import envinfo

# untraced cycles a run times at least; a traced run needs two of each kind
MIN_CYCLES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True, help="directory that must provide ensfem")
    parser.add_argument("--out-dir", help="where the run calls write their output files")
    parser.add_argument("--spans", help="JSON-lines file for the traced spans")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = _parse(argv)

    start = time.perf_counter()
    import ensfem
    import workloads
    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    state = workload.setup(args.seed)
    setup_s = time.perf_counter() - start

    src = os.path.realpath(args.src)
    if not os.path.realpath(ensfem.__file__).startswith(src + os.sep):
        raise RuntimeError(f"ensfem was imported from {ensfem.__file__}, not from {src}")
    setup = {"setup_s": setup_s, "setup_ref": envinfo.reference_s()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import tracer as tracing
    from ensfem import sparse

    env = envinfo.describe()
    unpinned = [b for b in env["blas"] if b["threads"] not in (None, 1)]
    if unpinned:
        raise RuntimeError(f"BLAS is not pinned to one thread: {unpinned}")

    tracer = tracing.Tracer()
    cycles, cycle_refs, traced_cycles, layers = [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    need_untraced, need_traced = (2, 2) if args.trace else (MIN_CYCLES, 0)
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(cycles) > len(traced_cycles)
        if traced:
            tracer.reset()
            before = sparse.counters()
            tracer.install()
        walls, ref, results = _cycle(workload, state, args.out_dir)
        wall = sum(walls)
        tracer.uninstall()
        after = sparse.counters()
        outcomes = [_check(workload, state, call, result, args.out_dir)
                    for call, result in enumerate(results)]
        # drop this cycle's results before the next one runs, so that peak
        # memory does not depend on how many cycles fit in the time
        del results

        if traced:
            missing = [n for n in workload.required_spans if tracer.calls(n) == 0]
            if missing and not any(outcomes):
                raise RuntimeError(f"traced cycle recorded no call of {missing}; "
                                   "a wrapper is not on the product path")
            delta = sparse.CounterSnapshot(
                after.factorizations - before.factorizations,
                after.block_solves - before.block_solves,
                after.rhs_columns - before.rhs_columns)
            layer = tracing.layer_metrics(tracer, delta, wall)
            changed = [k for k in tracing.COUNT_METRICS if layers and layer[k] != layers[0][k]]
            if changed:
                outcomes = [p + [f"counts changed between traced cycles of one seed: "
                                 f"{changed}"] for p in outcomes]
            layers.append(layer)
            traced_cycles.append(wall)
            if args.spans:
                tracer.write_spans(args.spans, len(traced_cycles))
        else:
            cycles.append(walls)
            cycle_refs.append(ref)

        attempted += len(outcomes)
        failed += sum(1 for p in outcomes if p)
        problems += [msg for p in outcomes for msg in p]
        if len(cycles) >= need_untraced and len(traced_cycles) >= need_traced \
                and time.perf_counter() - loop_start >= args.seconds:
            break

    ndof, bandwidth = workloads.probe_bandwidth(state["space"])
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        **setup,
        "calls_per_cycle": workload.calls,
        "call_walls": cycles,
        "cycle_refs": cycle_refs,
        "traced_cycle_walls": traced_cycles,
        "layers": {k: statistics.median(run[k] for run in layers)
                   for k in layers[0]} if layers else {},
        "member_steps": workload.member_steps,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ndof": ndof,
        "bandwidth": bandwidth,
        "env": env,
    }))
    return 0


def _cycle(workload, state, out_dir):
    """Every call of the workload's input set once, each after a reference pass;
    returns each call's time, the reference time over the cycle, and each call's
    result, or the exception it raised."""
    walls, refs, results = [], [], []
    for call in range(workload.calls):
        refs.append(envinfo.reference_s())
        start = time.perf_counter()
        try:
            results.append(workload.run(state, call, out_dir))
        except Exception as exc:  # a failed call is counted and reported, not fatal
            results.append(exc)
        walls.append(time.perf_counter() - start)
    refs.append(envinfo.reference_s())
    return walls, statistics.median(refs), results


def _check(workload, state, call, result, out_dir) -> list[str]:
    if isinstance(result, Exception):
        return [f"call {call} raised {type(result).__name__}: {result}"]
    try:
        return workload.check(state, call, result, out_dir)
    except Exception as exc:  # a check that cannot run fails the call
        return [f"call {call}: output check raised {type(exc).__name__}: {exc}"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
