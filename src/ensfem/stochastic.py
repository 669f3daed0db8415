"""Random diffusion fields, seeded sampling, and the ensemble Monte Carlo driver.

Sampling uses the counter-based Philox generator with one substream per
(seed, replica, sample index): drawing sample j never consumes state from any
other sample, so the first J draws of a stream are always a prefix of the
first J0 draws. That prefix property is what makes benchmark-vs-smaller-J
comparisons in `mc_rate_study` well defined.
"""
from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import defaults, fem
from .ensemble import (EnsembleMember, EnsembleProblem, SolveStats, TimeGrid,
                       ensemble_solve)
from .fem import FeSpace, build_space, integrate
from .mesh import uniform_triangulation
from .stability import (SamplingGrid, StabilityReport, coefficient_block, estimate_bounds,
                        partition_ensemble)

SQRT3 = math.sqrt(3.0)


def _require_integers(**values) -> None:
    """Raise ValueError naming the first of `values` that is not an integer."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


class StabilityError(RuntimeError):
    """A sampled ensemble failed the stability gate and partitioning was off."""

    def __init__(self, report: StabilityReport):
        super().__init__(f"stability condition violated: margin {report.margin:.6g}")
        self.report = report


@dataclass(frozen=True)
class RandomFieldSpec:
    """Truncated random expansion of a diffusion field varying in the vertical direction."""

    a0: float = defaults.RANDOM_FIELD["a0"]
    sigma: float = defaults.RANDOM_FIELD["sigma"]
    corr_length: float = defaults.RANDOM_FIELD["corr_length"]
    n_modes: int = defaults.RANDOM_FIELD["n_modes"]

    def __post_init__(self):
        if not (math.isfinite(self.a0) and self.a0 > 0):
            raise ValueError(f"a0 must be positive and finite, got {self.a0}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be non-negative and finite, got {self.sigma}")
        if not (math.isfinite(self.corr_length) and self.corr_length > 0):
            raise ValueError("correlation length must be positive and finite, "
                             f"got {self.corr_length}")
        _require_integers(n_modes=self.n_modes)
        if self.n_modes < 0:
            raise ValueError(f"n_modes must be non-negative, got {self.n_modes}")

    @property
    def dimension(self) -> int:
        return 2 * self.n_modes + 1

    @functools.cached_property
    def _expansion(self) -> tuple[np.ndarray, list[fem.SpatialPart]]:
        """The amplitudes s_i = sigma sqrt(lambda_i) of a draw's weights (i = 0..n, then 1..n
        again) and the spatial parts, functions of y alone: 1, cos(i pi y), sin(i pi y)."""
        s = self.sigma * np.sqrt(kl_eigenvalues(self))
        waves = [(wave, i) for wave in (np.cos, np.sin) for i in range(1, self.n_modes + 1)]
        return np.concatenate([s, s[1:]]), [lambda x, y: np.ones(np.shape(y))] + [
            lambda x, y, wave=wave, i=i: wave(i * math.pi * np.asarray(y)) for wave, i in waves]


def kl_eigenvalues(spec: RandomFieldSpec) -> np.ndarray:
    """Mode weights lambda_0..lambda_{n_modes} of the truncated expansion."""
    lc = spec.corr_length
    i = np.arange(1, spec.n_modes + 1)
    lam = np.concatenate([[math.sqrt(math.pi * lc) / 2.0],
                          math.sqrt(math.pi) * lc * np.exp(-((i * math.pi * lc) ** 2) / 4.0)])
    return lam


@dataclass(frozen=True)
class SampleDraw:
    """One sampled coefficient vector with its stream provenance."""

    y: np.ndarray  # (2*n_modes + 1,), entries in [-sqrt(3), sqrt(3)]
    index: int
    replica: int
    seed: int

    def __post_init__(self):
        self.y.setflags(write=False)


def sample_coefficient(spec: RandomFieldSpec, draw: SampleDraw) -> fem.SeparableField:
    """Realized diffusion coefficient; depends on y only (constant in x and t)."""
    return _draw_field(spec, draw)


def _replica_key(seed: int, replica: int) -> np.ndarray:
    return np.random.SeedSequence(entropy=seed, spawn_key=(replica,)).generate_state(2, np.uint64)


def draw_samples(seed: int, count: int, n_modes: int, replica: int = 0) -> list[SampleDraw]:
    """Deterministic i.i.d. draws, uniform on [-sqrt(3), sqrt(3)] per entry.

    Draw j comes from the Philox stream of the (seed, replica) key jumped j
    times, as `Philox.jumped(j)` gives it. The key is derived once per call, and
    one generator serves every draw: its state is reset to the key's start and
    advanced by j * 2**128 (what `jumped` does on a fresh copy) before draw j.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    dim = 2 * n_modes + 1
    stream = np.random.Philox(key=_replica_key(seed, replica))
    start, generator = stream.state, np.random.Generator(stream)
    draws = []
    for j in range(count):
        stream.state = start
        stream.advance(j * 2 ** 128)
        draws.append(SampleDraw(y=generator.uniform(-SQRT3, SQRT3, dim),
                                index=j, replica=replica, seed=seed))
    return draws


def _left_edge_profile(x, y):
    """Dirichlet profile y*(1-y) on the left edge, zero on the other sides."""
    x = np.asarray(x)
    y = np.asarray(y)
    return np.where(x <= 1e-12, y * (1.0 - y), 0.0)


# the boundary data of every emc member; time-free, so a run assembles it once
left_edge_drive = fem.SeparableField(((1.0, _left_edge_profile),))


@dataclass(frozen=True)
class EmcConfig:
    """Sampled-ensemble run configuration on the unit square."""

    spec: RandomFieldSpec = field(default_factory=RandomFieldSpec)
    samples: int = defaults.EMC["samples"]
    seed: int = defaults.EMC["seed"]
    replica: int = 0
    nx: int = defaults.EMC["nx"]
    dt: float = defaults.EMC["dt"]
    t_final: float = defaults.EMC["t_final"]
    degree: int = defaults.EMC["degree"]
    partition: bool = False

    def __post_init__(self):
        _require_integers(samples=self.samples, seed=self.seed, replica=self.replica,
                          nx=self.nx, degree=self.degree)
        if self.samples < 1:
            raise ValueError("sample count must be at least 1")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if min(self.seed, self.replica) < 0:
            raise ValueError(f"seed={self.seed} and replica={self.replica} must be non-negative")
        steps = self.t_final / self.dt
        # from 2**53 on every float is an integer, so the divisibility check below
        # passes vacuously on a run that cannot finish
        if not steps < 2 ** 53:
            raise ValueError(f"dt={self.dt} is too small: t_final/dt={steps} steps, "
                             f"at least 2**53")
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"dt={self.dt} does not divide t_final={self.t_final}")

    def time_grid(self) -> TimeGrid:
        return TimeGrid(t_final=self.t_final, steps=int(round(self.t_final / self.dt)))


@dataclass
class EmcResult:
    """Summary of one sampled-ensemble run."""

    mean_field: np.ndarray
    std_field: np.ndarray
    std_degenerate: bool
    qoi_samples: np.ndarray
    stability: StabilityReport
    stats: SolveStats
    dof_count: int
    config: EmcConfig
    groups: list[list[int]]

    def to_json_dict(self) -> dict:
        # wall time is deliberately excluded: the record must be byte-identical
        # across reruns of the same seeded configuration
        cfg = self.config
        return {
            "defaults_version": defaults.DEFAULTS_VERSION,
            "seed": cfg.seed,
            "replica": cfg.replica,
            "samples": cfg.samples,
            "mesh": {"nx": cfg.nx, "ny": cfg.nx, "degree": cfg.degree,
                     "dof_count": self.dof_count},
            "dt": cfg.dt,
            "t_final": cfg.t_final,
            "groups": self.groups,
            "mean_field": [float(v) for v in self.mean_field],
            "std_field": [float(v) for v in self.std_field],
            "std_degenerate": self.std_degenerate,
            "qoi_samples": [float(v) for v in self.qoi_samples],
            "qoi_histogram": histogram_record(self.qoi_samples),
            "stability": self.stability.to_json_dict(),
            "stats": {"factorizations": self.stats.factorizations,
                      "block_solves": self.stats.block_solves},
        }


def _draw_field(spec: RandomFieldSpec, draw: SampleDraw) -> fem.SeparableField:
    """The draw's expansion: constant weights a0 + s_0 y_0, then s_i y_i, then s_i y_(n+i),
    over the spec's spatial parts, which every draw of the spec shares."""
    y = np.asarray(draw.y, dtype=float)
    if y.shape != (spec.dimension,):
        raise ValueError(f"draw has {y.shape[0]} entries, expected {spec.dimension}")
    amplitudes, parts = spec._expansion
    weights = y * amplitudes
    weights[0] += spec.a0
    return fem.SeparableField(tuple(zip(weights.tolist(), parts)))


def build_emc_members(config: EmcConfig, draws: Sequence[SampleDraw]) -> list[EnsembleMember]:
    """Members for the draws, all with zero source and initial data, driven by `left_edge_drive`.

    Member j's coefficient is draw j's `sample_coefficient` field, whose parts
    every member holds, so that a run assembles each part once.
    """
    # `_draw_field`, not `sample_coefficient`: `perfbench/tracer.py` swaps that
    # name for a counting wrapper, and members holding plain wrappers would be
    # stepped as moving fields and write other `emc.json` bytes
    return [EnsembleMember(a=_draw_field(config.spec, d), f=fem.zero_field,
                           g=left_edge_drive, u0=fem.zero_field) for d in draws]


def histogram_record(values: np.ndarray) -> dict:
    """Histogram of the values in ceil(sqrt(count)) bins, as JSON-ready lists."""
    counts, edges = np.histogram(values, bins=max(1, math.ceil(math.sqrt(len(values)))))
    return {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def qoi_integral(space: FeSpace, u: np.ndarray) -> float | np.ndarray:
    """Spatial integral of the FE function; columns of a block map to an array."""
    return integrate(space, np.asarray(u, dtype=float))


def gate_and_group(config: EmcConfig, draws: Sequence[SampleDraw], space: FeSpace,
                   ) -> tuple[StabilityReport, list[list[int]]]:
    """Stability gate for a sampled ensemble; groups it when partitioning is on.

    Large ensembles realize the tails of the sample distribution, so the joint
    condition routinely fails at a few hundred samples even though every single
    field stays coercive; partitioning is then the supported way to proceed.
    The draws' `sample_coefficient` fields, the separable coefficients that
    `build_emc_members` gives the members, are evaluated by `coefficient_block`
    on the distinct y rows of the assembly points (at the x of each row's
    first point): each of the spec's 2n+1 shared parts once, mixed with each
    draw's weights. So the gate checks the coefficients the stepper assembles.
    The bounds are reduced on those rows: each point's value is its row's, and
    every reduction over points is a min or a max, so the report is that of
    every point bit for bit. Only a failing gate with partitioning on spreads
    the rows to every point, for the sweep's point-weighted sort scores.
    Returns the report and the groups.
    """
    sampling = SamplingGrid.from_space(space)  # coefficients are time-invariant
    _, first, inverse = np.unique(sampling.y, return_index=True, return_inverse=True)
    rows = SamplingGrid(x=sampling.x[first], y=sampling.y[first], times=sampling.times)
    values = coefficient_block([sample_coefficient(config.spec, d) for d in draws], rows)
    report = estimate_bounds(values, rows)
    if report.satisfied:
        return report, [list(range(len(draws)))]
    if config.partition:
        # `take` gives a C-ordered block, so the sweep's reductions add in the same
        # order as on a block evaluated at every point
        return report, partition_ensemble(values.take(inverse, axis=2), sampling)
    raise StabilityError(report)


def solve_sampled_groups(config: EmcConfig, members: Sequence[EnsembleMember],
                         space: FeSpace, groups: Sequence[Sequence[int]], observer=None,
                         ) -> tuple[np.ndarray, SolveStats]:
    """Advance the groups in lockstep by the shared-matrix scheme; returns the final block."""
    problem = EnsembleProblem(members=members, space=space, grid=config.time_grid())
    final, stats = ensemble_solve(problem, observer=observer, groups=groups)
    # callers reduce across columns (mean, spread); a C-ordered block fixes
    # the summation order of those reductions whatever the stepping layout
    return np.ascontiguousarray(final.u), stats


def run_emc(config: EmcConfig, observer=None) -> EmcResult:
    """Sample the coefficients, gate on stability, and advance all samples together.

    With `partition` enabled a failing gate splits the ensemble into stable
    subgroups, each with its own shared matrix, all stepped in lockstep;
    otherwise the run refuses with a StabilityError carrying the report. The reported wall time
    covers the whole call: sampling, the gate, stepping and the reductions.
    """
    start = time.perf_counter()
    draws = draw_samples(config.seed, config.samples, config.spec.n_modes, config.replica)
    members = build_emc_members(config, draws)
    mesh = uniform_triangulation(config.nx, config.nx)
    space = build_space(mesh, config.degree)
    report, groups = gate_and_group(config, draws, space)
    final, run_stats = solve_sampled_groups(config, members, space, groups, observer=observer)
    mean = final.mean(axis=1)
    degenerate = config.samples < 2
    std = np.zeros_like(mean) if degenerate else final.std(axis=1, ddof=1)
    qoi = qoi_integral(space, final)
    stats = replace(run_stats, wall_time=time.perf_counter() - start)
    return EmcResult(mean_field=mean, std_field=std, std_degenerate=degenerate,
                     qoi_samples=np.asarray(qoi), stability=report,
                     stats=stats, dof_count=int(space.dof_count), config=config,
                     groups=groups)


def log_log_fit(j_values: Sequence[float], errors: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and prefactor of E ~ c * J^slope."""
    slope, intercept = np.polyfit(np.log(np.asarray(j_values, float)),
                                  np.log(np.asarray(errors, float)), 1)
    return float(slope), float(np.exp(intercept))


@dataclass
class RateStudyResult:
    j_values: list[int]
    e_l2: list[float]
    e_h1: list[float]
    slope_l2: float
    slope_h1: float
    fit_c_l2: float

    def csv_lines(self) -> list[str]:
        return ["J,E_L2,E_H1"] + [f"{j},{el2:.6e},{eh1:.6e}"
                                  for j, el2, eh1 in zip(self.j_values, self.e_l2, self.e_h1)]

    def footer_dict(self) -> dict:
        return {"slope_L2": self.slope_l2, "slope_H1": self.slope_h1,
                "fit_c_L2": self.fit_c_l2}


def _mean_trajectory(config: EmcConfig) -> np.ndarray:
    """Sample-averaged DOF field at every time level, shape (N+1, ndof)."""
    levels: list[np.ndarray] = []
    run_emc(config, observer=lambda state: levels.append(state.u.mean(axis=1)))
    return np.array(levels)


def mc_rate_study(config: EmcConfig,
                  j_list: Sequence[int] = defaults.RATE_STUDY["j_list"],
                  j_benchmark: int = defaults.RATE_STUDY["j_benchmark"],
                  replicas: int = defaults.RATE_STUDY["replicas"]) -> RateStudyResult:
    """Sampling-error decay against a large-J benchmark sharing each stream's prefix.

    For every replica, the benchmark run and each smaller-J run reuse the first
    J draws of that replica's stream: the study sets `samples` (each J, then J0)
    and `replica` (0..replicas-1) itself and never reads those fields of `config`.
    It reports the max-in-time RMS-over-replicas L2 distance and the time-accumulated
    H1 analog, both `fem` norms, and their log-log slopes, which need two distinct J.
    """
    j_list = list(j_list)
    _require_integers(replicas=replicas, j_benchmark=j_benchmark,
                      **{f"j_list[{k}]": j for k, j in enumerate(j_list)})
    if not j_list or min(j_list) < 1 or replicas < 1:
        raise ValueError("j_list and replicas must be positive")
    if max(j_list) >= j_benchmark:
        raise ValueError(f"benchmark sample count {j_benchmark} must exceed every J in {j_list}")
    if len(set(j_list)) < 2:
        raise ValueError(f"the rate fit needs two distinct sample counts, got {j_list}")

    space = build_space(uniform_triangulation(config.nx, config.nx), config.degree)
    grid = config.time_grid()
    sq_l2 = np.zeros((len(j_list), grid.steps + 1))
    sq_h1 = np.zeros(len(j_list))
    for m in range(replicas):
        bench = _mean_trajectory(replace(config, samples=j_benchmark, replica=m))
        for k, j in enumerate(j_list):
            diff = bench - _mean_trajectory(replace(config, samples=j, replica=m))
            sq_l2[k] += fem.error_l2(space, diff.T, None) ** 2
            sq_h1[k] += np.sum(fem.error_h1_semi(space, diff[1:].T, None) ** 2)

    e_l2 = np.sqrt((sq_l2[:, 1:] / replicas).max(axis=1)).tolist()
    e_h1 = np.sqrt(grid.dt * sq_h1 / replicas).tolist()
    slope_l2, c_l2 = log_log_fit(j_list, e_l2)
    slope_h1, _ = log_log_fit(j_list, e_h1)
    return RateStudyResult(j_values=j_list, e_l2=e_l2, e_h1=e_h1,
                           slope_l2=slope_l2, slope_h1=slope_h1, fit_c_l2=c_l2)
