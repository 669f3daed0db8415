"""Command-line front end: convergence, EMC, sampling-rate, and comparison runs.

Exit codes: 0 success, 1 configuration/usage error, 2 stability-gate refusal
(the stability report is printed to stderr as JSON). Heavy imports happen
inside `cli` so that `main` can apply the thread-count override first.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STABILITY = 2

THREADS_ENV = "ENSFEM_THREADS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for stability refusals
    def error(self, message):
        raise _UsageError(message)


def _sample_counts(text: str) -> tuple[int, ...]:
    """`--j-list`; argparse reports a bad list as a usage error naming the flag."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ensfem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("converge", help="manufactured-solution refinement study")
    conv.add_argument("--mode", choices=["ensemble", "independent"], default="ensemble")
    conv.add_argument("--levels", type=int, default=None)
    conv.add_argument("--degree", type=int, default=None)
    conv.add_argument("--out", default="convergence.csv")

    emc = sub.add_parser("emc", help="seeded ensemble Monte Carlo run")
    emc.add_argument("--j", type=int, default=None, help="sample count")
    emc.add_argument("--seed", type=int, default=None)
    emc.add_argument("--nx", type=int, default=None)
    emc.add_argument("--dt", type=float, default=None)
    emc.add_argument("--sigma", type=float, default=None, help="field amplitude override")
    emc.add_argument("--partition", action="store_true",
                     help="split unstable ensembles into stable subgroups")
    emc.add_argument("--out", default="emc.json")

    rate = sub.add_parser("rate", help="sampling-error decay study")
    rate.add_argument("--j-list", type=_sample_counts, help="comma-separated sample counts")
    rate.add_argument("--j0", type=int, default=None, help="benchmark sample count")
    rate.add_argument("--replicas", type=int, default=None)
    rate.add_argument("--seed", type=int, default=None)
    rate.add_argument("--nx", type=int, default=None)
    rate.add_argument("--dt", type=float, default=None)
    rate.add_argument("--out", default="rate.csv")

    comp = sub.add_parser("compare", help="shared-matrix vs per-sample comparison")
    comp.add_argument("--j", type=int, default=None)
    comp.add_argument("--seed", type=int, default=None)
    comp.add_argument("--nx", type=int, default=None)
    comp.add_argument("--dt", type=float, default=None)
    comp.add_argument("--out", default="compare.json")
    comp.set_defaults(partition=True)  # the shared-matrix leg always partitions

    return parser


def _given(**flags) -> dict:
    """The flags given on the command line; the callee's defaults stand for the rest."""
    return {name: value for name, value in flags.items() if value is not None}


def _emc_config(args, stochastic):
    spec = stochastic.RandomFieldSpec(**_given(sigma=getattr(args, "sigma", None)))
    return stochastic.EmcConfig(spec=spec, partition=args.partition,
                                **_given(samples=args.j, seed=args.seed, nx=args.nx,
                                         dt=args.dt))


def cli(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"ensfem: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    from . import defaults, harness, stochastic
    from .ensemble import SolveStats

    try:
        harness.check_output_path(args.out)  # before the run, not after it
        if args.command == "converge":
            start = time.perf_counter()
            rows = harness.run_convergence(mode=args.mode,
                                           **_given(degree=args.degree, levels=args.levels))
            # the whole study: counts summed over its levels, wall time from the
            # start of the first level to the end of the last
            study = SolveStats(factorizations=sum(r.stats.factorizations for r in rows),
                               block_solves=sum(r.stats.block_solves for r in rows),
                               wall_time=time.perf_counter() - start)
            harness.write_text_atomic(args.out, harness.convergence_csv(rows))
            print(json.dumps(study.to_json_dict()))
            return EXIT_OK

        if args.command == "emc":
            config = _emc_config(args, stochastic)
            result = stochastic.run_emc(config)
            harness.write_json_atomic(args.out, result.to_json_dict())
            print(json.dumps(result.stats.to_json_dict()))
            return EXIT_OK

        if args.command == "rate":
            config = stochastic.EmcConfig(partition=True, **{
                **{name: defaults.RATE_STUDY[name] for name in ("seed", "nx", "dt")},
                **_given(seed=args.seed, nx=args.nx, dt=args.dt)})
            result = stochastic.mc_rate_study(config, **_given(
                j_list=args.j_list, j_benchmark=args.j0, replicas=args.replicas))
            text = "\n".join(result.csv_lines()) + "\n" + json.dumps(result.footer_dict()) + "\n"
            harness.write_text_atomic(args.out, text)
            print(json.dumps(result.footer_dict()))
            return EXIT_OK

        if args.command == "compare":
            result = harness.run_compare(_emc_config(args, stochastic))
            harness.write_json_atomic(args.out, result.to_json_dict())
            print(json.dumps({"max_field_gap": result.max_field_gap, "wall_time_s": {
                "ensemble": result.stats_ensemble.wall_time,
                "independent": result.stats_independent.wall_time}}))
            return EXIT_OK
    except stochastic.StabilityError as exc:
        print(json.dumps(exc.report.to_json_dict()), file=sys.stderr)
        return EXIT_STABILITY
    except ValueError as exc:
        print(f"ensfem: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    threads = os.environ.get(THREADS_ENV)
    if threads:
        if not (threads.isascii() and threads.isdigit() and int(threads) > 0):
            print(f"ensfem: error: {THREADS_ENV} must be a positive integer, got {threads!r}",
                  file=sys.stderr)
            sys.exit(EXIT_CONFIG)
        # numpy is not loaded yet (the package imports lazily), so the BLAS
        # pools start with these sizes
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = threads
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
