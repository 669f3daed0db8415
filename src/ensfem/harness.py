"""Manufactured-solution convergence studies and the shared-vs-independent comparison.

The manufactured family has a space-time varying diffusion coefficient and a
known exact solution; its source term is composed from the closed-form chain
rule at evaluation time, so no symbolic machinery is involved:

    a  = 1 + (1+eps) sin(t) sin(x y)
    u  = (1+eps) sin(2 pi x) sin(2 pi y) + sin(4 pi t)
    f  = u_t - a_x u_x - a_y u_y - a (u_xx + u_yy)

Boundary data and the initial datum are traces of u. The perturbation scales
the spatial profile only; the time oscillation is shared by all members, which
pins the members' reported errors to within a fraction of a percent of each
other while their diffusion coefficients differ substantially.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import defaults, fem
from .ensemble import (EnsembleMember, EnsembleProblem, SolveStats, TimeGrid,
                       ensemble_solve, independent_solve)
from .fem import Field, GradientField, build_space
from .mesh import uniform_triangulation
from .quadrature import triangle_rule
from .stochastic import (EmcConfig, build_emc_members, gate_and_group, histogram_record,
                         qoi_integral, solve_sampled_groups)

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


def manufactured_case(epsilon: float) -> ManufacturedCase:
    c = 1.0 + float(epsilon)

    def a(x, y, t):
        return 1.0 + c * math.sin(t) * np.sin(np.asarray(x) * np.asarray(y))

    def u(x, y, t):
        return (c * np.sin(TWO_PI * np.asarray(x)) * np.sin(TWO_PI * np.asarray(y))
                + math.sin(4.0 * math.pi * t))

    def grad_u(x, y, t):
        x = np.asarray(x)
        y = np.asarray(y)
        return (c * TWO_PI * np.cos(TWO_PI * x) * np.sin(TWO_PI * y),
                c * TWO_PI * np.sin(TWO_PI * x) * np.cos(TWO_PI * y))

    def f(x, y, t):
        x = np.asarray(x)
        y = np.asarray(y)
        st = math.sin(t)
        xy = x * y
        a_val = 1.0 + c * st * np.sin(xy)
        a_x = c * st * y * np.cos(xy)
        a_y = c * st * x * np.cos(xy)
        sx, cx = np.sin(TWO_PI * x), np.cos(TWO_PI * x)
        sy, cy = np.sin(TWO_PI * y), np.cos(TWO_PI * y)
        u_t = 4.0 * math.pi * math.cos(4.0 * math.pi * t)
        u_x = c * TWO_PI * cx * sy
        u_y = c * TWO_PI * sx * cy
        lap_u = -2.0 * c * TWO_PI ** 2 * sx * sy
        return u_t - a_x * u_x - a_y * u_y - a_val * lap_u

    def u0(x, y, t):
        return u(x, y, 0.0)

    return ManufacturedCase(epsilon=float(epsilon), a=a, u=u, grad_u=grad_u,
                            f=f, g=u, u0=u0)


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


def study_errors(problem: EnsembleProblem, trajectory, cases: Sequence[ManufacturedCase],
                 output_stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Table figures for one run: errors sampled at every `output_stride`-th step.

    L2 is the max over the sampled times; H1 accumulates squared seminorm
    errors weighted by the output interval, with gradients sampled at the
    order-2 interior points. Comparing all levels at the same physical output
    times (and the same gradient sample layout per cell) keeps table columns
    commensurable.
    """
    space = problem.space
    grad_rule = triangle_rule(2)
    out_dt = problem.grid.dt * output_stride
    e_l2 = np.zeros(len(cases))
    e_h1_sq = np.zeros(len(cases))
    for state in trajectory:
        if state.n == 0 or state.n % output_stride:
            continue
        for j, case in enumerate(cases):
            e_l2[j] = max(e_l2[j], fem.error_l2(space, state.u[:, j], case.u, state.t))
            e_h1_sq[j] += fem.error_h1_semi(space, state.u[:, j], case.grad_u,
                                            state.t, rule=grad_rule) ** 2
    return e_l2, np.sqrt(out_dt * e_h1_sq)


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
        trajectory, stats = solve(problem)
        e_l2, e_h1 = study_errors(problem, trajectory, cases,
                                  output_stride=2 ** (level - 1))
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
            "stats_ensemble": self.stats_ensemble.to_json_dict(),
            "stats_independent": self.stats_independent.to_json_dict(),
        }


def run_compare(config: EmcConfig) -> CompareResult:
    """Advance the same sampled ensemble along both paths and measure the gaps.

    The shared-matrix leg goes through the stability gate (and partitioning,
    when enabled); the per-sample backward-Euler leg needs no gate.
    """
    members = build_emc_members(config)
    mesh = uniform_triangulation(config.nx, config.nx)
    space = build_space(mesh, config.degree)
    _, groups, coefficients = gate_and_group(config, members, space)
    u_e, stats_e = solve_sampled_groups(config, members, space, groups,
                                         coefficients=coefficients)

    problem = EnsembleProblem(members=members, space=space, grid=config.time_grid())
    traj_i, stats_i = independent_solve(problem, keep_trajectory=False)
    u_i = traj_i[-1].u

    mean_gap = np.abs(u_e.mean(axis=1) - u_i.mean(axis=1)).max()
    qoi_e = np.asarray(qoi_integral(space, u_e))
    qoi_i = np.asarray(qoi_integral(space, u_i))
    return CompareResult(max_field_gap=float(mean_gap), qoi_gaps=np.abs(qoi_e - qoi_i),
                         stats_ensemble=stats_e, stats_independent=stats_i,
                         config=config)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temporary file in the target directory, then rename."""
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
