"""Manufactured-solution convergence studies and the shared-vs-independent comparison.

The manufactured family has a space-time varying diffusion coefficient and a
known exact solution. With c = 1 + eps, S = sin(2 pi x) sin(2 pi y) and
s = sin(x y), every field of a member is separable (`fem.SeparableField`), a
sum of scalar time weights times spatial parts that no member owns alone:

    a  = 1 * 1 + (c sin t) * s
    u  = c * S + sin(4 pi t) * 1                      (g = u, u0 = c * S)
    grad u = c * grad S
    f  = u_t - div(a grad u)
       = 4 pi cos(4 pi t) * 1 + c * R0 + (c^2 sin t) * R1
    R0 = -lap S = 8 pi^2 S,   R1 = 8 pi^2 s S - grad s . grad S

so the stepper assembles each spatial part once per run and mixes the parts
at every step. Boundary data and the initial datum are traces of u. The
perturbation scales the spatial profile only; the time oscillation is shared by
all members, which pins the members' reported errors to within a fraction of a
percent of each other while their diffusion coefficients differ substantially.

Study figures are measured at the shared output times of the coarsest level
(every 0.1 time units), so that table columns are directly comparable across
refinement levels; the L2 figure is the max over those times and the H1 figure
accumulates gradient errors sampled at the order-2 interior points.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import defaults, fem
from .ensemble import (EnsembleMember, EnsembleProblem, EnsembleState, SolveStats,
                       TimeGrid, _Terms, ensemble_solve, independent_solve)
from .fem import Field, GradientField, build_space
from .mesh import uniform_triangulation
from .quadrature import triangle_rule
from .stochastic import (EmcConfig, build_emc_members, draw_samples, gate_and_group,
                         histogram_record, qoi_integral, solve_sampled_groups)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ManufacturedCase:
    """One member of the manufactured family, with exact solution and gradient."""

    epsilon: float
    a: Field
    u: Field
    grad_u: GradientField
    f: Field
    g: Field
    u0: Field

    def member(self) -> EnsembleMember:
        return EnsembleMember(a=self.a, f=self.f, g=self.g, u0=self.u0)


def _one(x, y):
    return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))


def _sin_xy(x, y):
    return np.sin(np.asarray(x) * np.asarray(y))


def _profile(x, y):
    """S = sin(2 pi x) sin(2 pi y), the spatial profile of u."""
    return np.sin(TWO_PI * np.asarray(x)) * np.sin(TWO_PI * np.asarray(y))


def _profile_gradient(x, y):
    """grad S, the pair (dS/dx, dS/dy)."""
    x = np.asarray(x)
    y = np.asarray(y)
    return (TWO_PI * np.cos(TWO_PI * x) * np.sin(TWO_PI * y),
            TWO_PI * np.sin(TWO_PI * x) * np.cos(TWO_PI * y))


def _profile_source(x, y):
    """R0 = -lap S."""
    return 2.0 * TWO_PI ** 2 * _profile(x, y)


def _coupling_source(x, y):
    """R1 = -(grad s . grad S + s lap S), with s = sin(x y)."""
    x = np.asarray(x)
    y = np.asarray(y)
    sx, cx = np.sin(TWO_PI * x), np.cos(TWO_PI * x)
    sy, cy = np.sin(TWO_PI * y), np.cos(TWO_PI * y)
    return (2.0 * TWO_PI ** 2 * np.sin(x * y) * sx * sy
            - TWO_PI * np.cos(x * y) * (y * cx * sy + x * sx * cy))


def manufactured_case(epsilon: float) -> ManufacturedCase:
    """The member of perturbation `epsilon`; its a, f, g and u0 are separable fields."""
    c = 1.0 + float(epsilon)
    a = fem.SeparableField(((1.0, _one), (lambda t: c * math.sin(t), _sin_xy)))
    u = fem.SeparableField(((c, _profile), (lambda t: math.sin(4.0 * math.pi * t), _one)))
    f = fem.SeparableField(((lambda t: 4.0 * math.pi * math.cos(4.0 * math.pi * t), _one),
                            (c, _profile_source),
                            (lambda t: c * c * math.sin(t), _coupling_source)))

    return ManufacturedCase(epsilon=float(epsilon), a=a, u=u,
                            grad_u=fem.SeparableField(((c, _profile_gradient),)), f=f, g=u,
                            u0=fem.SeparableField(((c, _profile),)))


@dataclass
class ConvergenceRow:
    """Errors for one refinement level; rates are against the previous level."""

    level: int
    h: float
    dt: float
    e_l2: np.ndarray
    e_h1: np.ndarray
    rate_l2: np.ndarray | None
    rate_h1: np.ndarray | None
    stats: SolveStats


def study_errors(problem: EnsembleProblem, levels: Sequence[EnsembleState],
                 cases: Sequence[ManufacturedCase],
                 output_stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Table figures for one run from its `levels` at every `output_stride`-th step after n = 0.

    L2 is the max over the sampled times; H1 accumulates squared seminorm
    errors weighted by the output interval, with gradients sampled at the
    order-2 interior points. Comparing all levels at the same physical output
    times (and the same gradient sample layout per cell) keeps table columns
    commensurable. Each level is one block pass over the members: one L2 and
    one H1 call on the (ndof, J) block, against every case's exact u and grad
    u at the rule's points. These are read as terms (`ensemble._Terms`), whose
    rows are values at the points: a separable part is evaluated once per
    run, a plain field at every output level.
    """
    space, grad_rule = problem.space, triangle_rule(2)
    tab, grad_tab = space.tabulation(space.data_rule), space.tabulation(grad_rule)

    def exact(kind: str, x: np.ndarray, y: np.ndarray):
        """The cases' exact `kind` at the points, shape (*x.shape, J) for u and (2,
        *x.shape, J) for the gradient pair, at (step, t)."""
        shape = (2,) * (kind == "grad_u") + x.shape

        def at(field, member, step, t):
            value = field(x, y, t)
            if kind == "grad_u":
                return np.stack([np.broadcast_to(c, x.shape) for c in value])
            return np.broadcast_to(value, shape)

        terms = _Terms(kind, cases, np.arange(len(cases)), math.prod(shape), at)
        return lambda step, t: terms(step, t).T.reshape(shape + (-1,))

    exact_u = exact("u", tab.xq, tab.yq)
    exact_grad = exact("grad_u", grad_tab.xq, grad_tab.yq)
    e_l2 = np.zeros(len(cases))
    e_h1_sq = np.zeros(len(cases))
    for state in levels:
        e_l2 = np.maximum(e_l2, fem.error_l2(space, state.u, exact_u(state.n, state.t)))
        e_h1_sq += fem.error_h1_semi(space, state.u, exact_grad(state.n, state.t),
                                     rule=grad_rule) ** 2
    return e_l2, np.sqrt(problem.grid.dt * output_stride * e_h1_sq)


def run_convergence(degree: int = defaults.CONVERGENCE["degree"],
                    levels: int = defaults.CONVERGENCE["levels"],
                    epsilons: Sequence[float] = defaults.CASE_PERTURBATIONS,
                    mode: str = "ensemble") -> list[ConvergenceRow]:
    """Refinement study: level k uses nx = base_nx * 2^(k-1) and dt = base_dt / 2^(k-1).

    `mode` selects the shared-matrix scheme ("ensemble") or per-member backward
    Euler ("independent"); both advance the same member set over [0, T].
    """
    if levels < 1:
        raise ValueError("need at least one level")
    if mode not in ("ensemble", "independent"):
        raise ValueError(f"unknown mode {mode!r}")
    cases = [manufactured_case(e) for e in epsilons]
    solve = ensemble_solve if mode == "ensemble" else independent_solve

    rows: list[ConvergenceRow] = []
    for level in range(1, levels + 1):
        nx = defaults.CONVERGENCE["base_nx"] * 2 ** (level - 1)
        dt = defaults.CONVERGENCE["base_dt"] / 2 ** (level - 1)
        t_final = defaults.CONVERGENCE["t_final"]
        mesh = uniform_triangulation(nx, nx)
        space = build_space(mesh, degree)
        grid = TimeGrid(t_final=t_final, steps=int(round(t_final / dt)))
        problem = EnsembleProblem(members=[c.member() for c in cases], space=space,
                                  grid=grid)
        stride, outputs = 2 ** (level - 1), []

        def keep_output(state: EnsembleState) -> None:  # only the levels the study reads
            if state.n and state.n % stride == 0:
                outputs.append(state)

        _, stats = solve(problem, observer=keep_output)
        e_l2, e_h1 = study_errors(problem, outputs, cases, output_stride=stride)
        if rows:
            rate_l2 = np.log2(rows[-1].e_l2 / e_l2)
            rate_h1 = np.log2(rows[-1].e_h1 / e_h1)
        else:
            rate_l2 = rate_h1 = None
        rows.append(ConvergenceRow(level=level, h=math.sqrt(2.0) / nx, dt=dt,
                                   e_l2=e_l2, e_h1=e_h1, rate_l2=rate_l2,
                                   rate_h1=rate_h1, stats=stats))
    return rows


CONVERGENCE_CSV_HEADER = "level,h,dt,member,E_L2,rate_L2,E_H1,rate_H1"


def convergence_csv(rows: Sequence[ConvergenceRow]) -> str:
    """Flatten rows to one CSV line per (level, member); rates empty at level 1."""
    lines = [CONVERGENCE_CSV_HEADER]
    for row in rows:
        for j in range(len(row.e_l2)):
            r_l2 = "" if row.rate_l2 is None else f"{row.rate_l2[j]:.4f}"
            r_h1 = "" if row.rate_h1 is None else f"{row.rate_h1[j]:.4f}"
            lines.append(f"{row.level},{row.h:.6e},{row.dt:.6e},{j + 1},"
                         f"{row.e_l2[j]:.6e},{r_l2},{row.e_h1[j]:.6e},{r_h1}")
    return "\n".join(lines) + "\n"


@dataclass
class CompareResult:
    """Gap between the shared-matrix run and per-sample backward Euler on identical draws."""

    max_field_gap: float
    qoi_gaps: np.ndarray
    stats_ensemble: SolveStats
    stats_independent: SolveStats
    config: EmcConfig

    def to_json_dict(self) -> dict:
        # no wall times, as in `EmcResult`: a seeded rerun writes the same bytes
        legs = (("ensemble", self.stats_ensemble), ("independent", self.stats_independent))
        return {
            "defaults_version": defaults.DEFAULTS_VERSION,
            "seed": self.config.seed,
            "samples": self.config.samples,
            "mesh": {"nx": self.config.nx, "degree": self.config.degree},
            "dt": self.config.dt,
            "t_final": self.config.t_final,
            "max_field_gap": float(self.max_field_gap),
            "qoi_gap_max": float(self.qoi_gaps.max()),
            "qoi_gap_histogram": histogram_record(self.qoi_gaps),
            **{f"stats_{leg}": {"factorizations": stats.factorizations,
                                "block_solves": stats.block_solves} for leg, stats in legs},
        }


def run_compare(config: EmcConfig) -> CompareResult:
    """Advance the same sampled ensemble along both paths and measure the gaps.

    The shared-matrix leg goes through the stability gate (and partitioning,
    when enabled); the per-sample backward-Euler leg needs no gate. The
    shared leg's wall time covers the gate and its stepping, as in `run_emc`.
    """
    draws = draw_samples(config.seed, config.samples, config.spec.n_modes, config.replica)
    members = build_emc_members(config, draws)
    mesh = uniform_triangulation(config.nx, config.nx)
    space = build_space(mesh, config.degree)
    start = time.perf_counter()
    _, groups = gate_and_group(config, draws, space)
    u_e, stats_e = solve_sampled_groups(config, members, space, groups)
    stats_e = replace(stats_e, wall_time=time.perf_counter() - start)

    problem = EnsembleProblem(members=members, space=space, grid=config.time_grid())
    final_i, stats_i = independent_solve(problem)
    u_i = final_i.u

    mean_gap = np.abs(u_e.mean(axis=1) - u_i.mean(axis=1)).max()
    qoi_e = np.asarray(qoi_integral(space, u_e))
    qoi_i = np.asarray(qoi_integral(space, u_i))
    return CompareResult(max_field_gap=float(mean_gap), qoi_gaps=np.abs(qoi_e - qoi_i),
                         stats_ensemble=stats_e, stats_independent=stats_i,
                         config=config)


def check_output_path(path: str) -> None:
    """Raise ValueError, naming the path, if it is a directory or its directory is missing."""
    if os.path.isdir(path):
        raise ValueError(f"output path {path} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"output path {path} is in a directory that does not exist")


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temporary file in the target directory, then rename; a path that
    `check_output_path` refuses raises its ValueError before any file is made."""
    check_output_path(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")
