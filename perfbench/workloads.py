"""The four benchmark workloads: inputs from a seed, the timed run call, the output check.

Each workload calls the same library entry point as one `ensfem` subcommand
and writes that subcommand's output file, so the timed call covers what a user
of the command line waits for, minus interpreter start-up and argument
parsing. A workload's input set is a list of such calls (a "cycle"); most
have one call, `emc_gate` has many independent sample streams of one seed.
`member_steps` is members x time steps of one call, summed over every leg and
level; it is fixed by the workload, not by the seed.

The output checks are the ones the package's acceptance suite applies to the
same entry points. The convergence reference tables and bands below are
copied unchanged from `tests/test_acceptance.py`.
"""
from __future__ import annotations

import os

import numpy as np

from ensfem import defaults, fem, harness, mesh, sparse, stability, stochastic

# copied unchanged from tests/test_acceptance.py (REFERENCE_*_ENSEMBLE, L2_BAND, H1_BAND)
REFERENCE_L2_ENSEMBLE = (
    (2.2271e-1, 2.2168e-1, 2.2177e-1),
    (1.1477e-1, 1.1623e-1, 1.1594e-1),
    (5.9080e-2, 5.9921e-2, 5.9756e-2),
    (3.0007e-2, 3.0445e-2, 3.0359e-2),
)
REFERENCE_H1_ENSEMBLE = (
    (1.3678e0, 1.0922e0, 1.1437e0),
    (4.7311e-1, 4.2423e-1, 4.3280e-1),
    (1.9969e-1, 1.9560e-1, 1.9618e-1),
    (9.5767e-2, 9.6972e-2, 9.6692e-2),
)
L2_BAND = 0.05
H1_BAND = 0.08

# acceptance bound on the mean-field gap between the shared and per-sample legs
COMPARE_GAP_BOUND = 1e-5


class Workload:
    """Base for a named workload; subclasses fill in setup, run and check."""

    name = ""
    # spans a traced cycle must record at least once, or the trace is broken
    required_spans: tuple[str, ...] = ()
    calls = 1
    # attribute overrides that shrink the workload for the smoke test
    smoke_sizes: dict = {}

    def __init__(self, smoke: bool = False):
        if smoke:
            vars(self).update(self.smoke_sizes)

    @property
    def member_steps(self) -> int:
        raise NotImplementedError

    def setup(self, seed: int) -> dict:
        """Build mesh, space and samples; returns the state `run` and `check` use.

        `state["space"]` is the (finest) space the run calls step on."""
        raise NotImplementedError

    def run(self, state: dict, call: int, out_dir: str):
        """The timed part: one run call plus writing its output file."""
        raise NotImplementedError

    def check(self, state: dict, call: int, result, out_dir: str) -> list[str]:
        """What is wrong with one call's result and output file; empty if nothing."""
        raise NotImplementedError


def _finite(**arrays) -> list[str]:
    return [f"{name} has non-finite entries" for name, values in arrays.items()
            if not np.isfinite(np.asarray(values, dtype=float)).all()]


def _steps(dt: float) -> int:
    return round(defaults.EMC["t_final"] / dt)


class _EmcWorkload(Workload):
    """`ensfem emc --partition`, one call per independent sample stream (replica) of the seed."""

    samples = 0
    nx = 0
    dt = 0.0
    sigma = 0.0

    @property
    def member_steps(self) -> int:
        return self.samples * _steps(self.dt)

    def setup(self, seed):
        spec = stochastic.RandomFieldSpec(sigma=self.sigma)
        configs = [stochastic.EmcConfig(spec=spec, samples=self.samples, seed=seed,
                                        replica=k, nx=self.nx, dt=self.dt, partition=True)
                   for k in range(self.calls)]
        space = fem.build_space(mesh.uniform_triangulation(self.nx, self.nx), 1)
        draws = [stochastic.draw_samples(c.seed, c.samples, spec.n_modes, c.replica)
                 for c in configs]
        return {"configs": configs, "space": space, "draws": draws, "first_bytes": {}}

    def run(self, state, call, out_dir):
        config = state["configs"][call]
        result = stochastic.run_emc(config)
        harness.write_json_atomic(os.path.join(out_dir, f"emc_r{call}.json"),
                                  result.to_json_dict())
        return result

    def check(self, state, call, result, out_dir):
        config = state["configs"][call]
        problems = []
        groups = result.groups
        if sorted(i for g in groups for i in g) != list(range(config.samples)):
            problems.append("groups do not cover 0..J-1 exactly once")
        else:
            sampling = stability.SamplingGrid.from_space(state["space"])
            coeffs = [stochastic.sample_coefficient(config.spec, d)
                      for d in state["draws"][call]]
            for g in groups:
                if not stability.estimate_bounds([coeffs[i] for i in g], sampling).satisfied:
                    problems.append(f"a group of {len(g)} fails the stability gate")
        want = config.time_grid().steps * len(groups)
        if not result.stats.factorizations == result.stats.block_solves == want:
            problems.append(f"{result.stats.factorizations} factorizations and "
                            f"{result.stats.block_solves} block solves, want N*groups = {want}")
        problems += _finite(mean=result.mean_field, std=result.std_field,
                            qoi=result.qoi_samples)
        with open(os.path.join(out_dir, f"emc_r{call}.json"), "rb") as handle:
            written = handle.read()
        if written != state["first_bytes"].setdefault(call, written):
            problems.append("emc.json differs from the first run of this seed")
        return [f"replica {call}: {p}" for p in problems]


class EmcGate(_EmcWorkload):
    """Gate fails and splits: stochastic coefficient evaluation and the greedy partition."""

    name = "emc_gate"
    required_spans = ("stochastic.gate_and_group", "stability.estimate_bounds",
                      "stability.partition_ensemble", "stochastic.coeff_eval",
                      "ensemble.ensemble_solve", "sparse.spd_factorize",
                      "sparse.CholeskyFactor.solve", "fem.assemble_stiffness",
                      "harness.write_text_atomic", "mesh.uniform_triangulation",
                      "fem.build_space")
    # At sigma 0.2 the joint gate fails on every stream at J=60 while every
    # member stays coercive. The greedy partition's cost swings with each
    # stream's draws, so one cycle runs many small streams and their mean
    # time is steady from seed to seed. Ten steps keep the gate about half
    # of each call.
    samples, nx, dt, sigma, calls = 60, 12, 5e-2, 0.2, 32
    smoke_sizes = {"samples": 24, "nx": 4, "dt": 0.05, "calls": 2}


class EmcWide(_EmcWorkload):
    """Gate passes at once; one wide group makes the block solve and RHS build dominate."""

    name = "emc_wide"
    required_spans = ("stochastic.gate_and_group", "stability.estimate_bounds",
                      "ensemble.ensemble_solve", "sparse.spd_factorize",
                      "sparse.CholeskyFactor.solve", "fem.assemble_stiffness",
                      "harness.write_text_atomic", "mesh.uniform_triangulation",
                      "fem.build_space")
    samples, nx, dt, sigma = 64, 32, 5e-3, 0.05
    smoke_sizes = {"samples": 8, "nx": 6, "dt": 0.05}


class CompareIndep(Workload):
    """Shared leg plus per-sample backward Euler: J*N factorizations, narrow solves."""

    name = "compare_indep"
    required_spans = ("harness.run_compare", "stochastic.gate_and_group",
                      "ensemble.ensemble_solve", "ensemble.independent_solve",
                      "sparse.spd_factorize", "sparse.CholeskyFactor.solve",
                      "fem.DirichletConstraint", "harness.write_text_atomic",
                      "mesh.uniform_triangulation", "fem.build_space")
    samples, nx, dt = 16, 32, 5e-3
    smoke_sizes = {"samples": 4, "nx": 6, "dt": 0.01}

    @property
    def member_steps(self) -> int:
        return 2 * self.samples * _steps(self.dt)

    def setup(self, seed):
        config = stochastic.EmcConfig(samples=self.samples, seed=seed, nx=self.nx,
                                      dt=self.dt, partition=True)
        space = fem.build_space(mesh.uniform_triangulation(self.nx, self.nx), 1)
        # the compare checks need no draws; drawing them is part of set-up all the same
        stochastic.draw_samples(seed, self.samples, config.spec.n_modes)
        return {"config": config, "space": space}

    def run(self, state, call, out_dir):
        result = harness.run_compare(state["config"])
        harness.write_json_atomic(os.path.join(out_dir, "compare.json"),
                                  result.to_json_dict())
        return result

    def check(self, state, call, result, out_dir):
        config = state["config"]
        problems = []
        if not result.max_field_gap <= COMPARE_GAP_BOUND:
            problems.append(f"max_field_gap {result.max_field_gap:.3e} "
                            f"exceeds {COMPARE_GAP_BOUND:g}")
        want = config.samples * config.time_grid().steps
        if result.stats_independent.factorizations != want:
            problems.append(f"independent leg made {result.stats_independent.factorizations}"
                            f" factorizations, want J*N = {want}")
        return problems + _finite(qoi_gaps=result.qoi_gaps)


class ConvergeP2(Workload):
    """P2 study at its defaults: time-dependent coefficients reassemble every step."""

    name = "converge_p2"
    required_spans = ("harness.run_convergence", "ensemble.ensemble_solve",
                      "fem.assemble_stiffness", "fem.assemble_load",
                      "sparse.spd_factorize", "sparse.CholeskyFactor.solve",
                      "harness.write_text_atomic", "mesh.uniform_triangulation",
                      "fem.build_space")
    # the manufactured family is fixed, so the seed selects nothing here; it is
    # only recorded. The first three of the default levels keep a call near 1 s,
    # short enough for the reference times taken around it to track the machine.
    degree, levels = defaults.CONVERGENCE["degree"], 3
    smoke_sizes = {"levels": 2}

    def _levels(self) -> list[tuple[int, int]]:
        """(nx, steps) of each refinement level, as `harness.run_convergence` builds them."""
        cfg = defaults.CONVERGENCE
        return [(cfg["base_nx"] * 2 ** k, round(cfg["t_final"] * 2 ** k / cfg["base_dt"]))
                for k in range(self.levels)]

    @property
    def member_steps(self) -> int:
        return len(defaults.CASE_PERTURBATIONS) * sum(steps for _, steps in self._levels())

    def setup(self, seed):
        spaces = [fem.build_space(mesh.uniform_triangulation(nx, nx), self.degree)
                  for nx, _ in self._levels()]
        return {"space": spaces[-1]}

    def run(self, state, call, out_dir):
        rows = harness.run_convergence(degree=self.degree, levels=self.levels,
                                       mode="ensemble")
        harness.write_text_atomic(os.path.join(out_dir, "convergence.csv"),
                                  harness.convergence_csv(rows))
        return rows

    def check(self, state, call, rows, out_dir):
        problems = [] if len(rows) == self.levels else [f"{len(rows)} levels"]
        for k, (row, (_, steps)) in enumerate(zip(rows, self._levels())):
            dev_l2 = np.abs(row.e_l2 - REFERENCE_L2_ENSEMBLE[k]) / REFERENCE_L2_ENSEMBLE[k]
            dev_h1 = np.abs(row.e_h1 - REFERENCE_H1_ENSEMBLE[k]) / REFERENCE_H1_ENSEMBLE[k]
            if not (dev_l2.max() <= L2_BAND and dev_h1.max() <= H1_BAND):
                problems.append(f"level {k + 1}: L2 dev {dev_l2.max():.2%}, "
                                f"H1 dev {dev_h1.max():.2%} against the reference table")
            if row.stats.factorizations != steps:
                problems.append(f"level {k + 1}: {row.stats.factorizations} "
                                f"factorizations, want N = {steps}")
        return problems


WORKLOADS = {w.name: w for w in (EmcGate, EmcWide, CompareIndep, ConvergeP2)}


def probe_bandwidth(space) -> tuple[int, int]:
    """ndof and band width of the product's factorization of a stepping system.

    `M + A(1)` under the Dirichlet constraint has the sparsity pattern of the
    systems the steppers factorize (the mass matrix alone has structural zeros
    that change the ordering), so its factor shows the ordering the product
    chose. Band width is read from the banded storage when the factor has one,
    and is -1 otherwise.
    """
    system = sparse.add_scaled(fem.assemble_mass(space), 1.0,
                               fem.assemble_stiffness(space, fem.constant_field(1.0), 0.0), 1.0)
    constrained = fem.DirichletConstraint(system, space, tuple(mesh.BoundaryTag))
    factor = sparse.spd_factorize(constrained.matrix)
    banded = getattr(factor, "_cb", None)
    return int(space.dof_count), (int(banded.shape[0]) - 1 if banded is not None else -1)
