"""Shared-matrix time stepping for groups of linear parabolic problems.

All group members advance together with one implicit solve per step: the
implicit diffusion term uses the group-averaged coefficient, so the system
matrix ``M/dt + A(mean coeff)`` is member-independent and is factorized once,
while each member's deviation from the mean acts explicitly on its own
right-hand-side column:

    (M/dt + A(abar, t1)) u_j(t1) = F_j(t1) + M u_j(t0)/dt - (A(a_j, t1) - A(abar, t1)) u_j(t0)

with Dirichlet lifting at t1. `independent_solve` is the reference baseline
that advances every member by standard backward Euler with its own coefficient
matrix and factorization.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import fem, sparse
from .fem import FeSpace, Field, GradientField
from .mesh import BoundaryTag


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    t_final: float
    steps: int

    def __post_init__(self):
        if self.steps < 1 or self.t_final <= 0:
            raise ValueError(f"invalid time grid: T={self.t_final}, N={self.steps}")

    @property
    def dt(self) -> float:
        return self.t_final / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.steps + 1)


@dataclass(frozen=True)
class EnsembleMember:
    """One simulation: diffusion coefficient, source, Dirichlet data, initial datum.

    Set `time_invariant` when all four fields ignore their time argument; the
    solvers then assemble the member's matrices and vectors once instead of
    once per step.
    """

    a: Field
    f: Field
    g: Field
    u0: Field
    time_invariant: bool = False


@dataclass(frozen=True)
class EnsembleProblem:
    members: Sequence[EnsembleMember]
    space: FeSpace
    grid: TimeGrid
    dirichlet_tags: tuple[BoundaryTag, ...] = tuple(BoundaryTag)

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("ensemble needs at least one member")

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class EnsembleState:
    """Solution block at one time level; column j holds member j's DOF coefficients."""

    n: int
    t: float
    u: np.ndarray  # (ndof, J)


@dataclass
class SolveStats:
    """Factorization/solve counts over the stepping loop, plus total wall time."""

    factorizations: int
    block_solves: int
    wall_time: float

    def to_json_dict(self) -> dict:
        return {"factorizations": self.factorizations,
                "block_solves": self.block_solves,
                "wall_time_s": self.wall_time}


Observer = Callable[[EnsembleState], None]


def ensemble_mean_coeff(members: Sequence[EnsembleMember]) -> Field:
    """Pointwise arithmetic mean of the members' diffusion coefficients."""
    coeffs = [m.a for m in members]

    def mean(x, y, t):
        acc = np.zeros(np.shape(x))
        for a in coeffs:
            acc = acc + a(x, y, t)
        return acc / len(coeffs)

    return mean


def _initial_state(problem: EnsembleProblem) -> EnsembleState:
    space, members = problem.space, problem.members
    m = fem.assemble_mass(space)
    loads = _shared_columns([member.u0 for member in members],
                            lambda u0: fem.assemble_load(space, u0, 0.0))
    u = sparse.spd_factorize(m).solve(loads)
    bdofs = space.tagged_dofs(problem.dirichlet_tags)
    xb, yb = space.dof_coords[bdofs, 0], space.dof_coords[bdofs, 1]
    u[bdofs] = _shared_columns(
        [member.g for member in members],
        lambda g: np.broadcast_to(np.asarray(g(xb, yb, 0.0), float), xb.shape))
    return EnsembleState(n=0, t=0.0, u=u)


def _per_member(members: Sequence[EnsembleMember], fn) -> list:
    """fn applied to each member in turn; a ValueError is re-raised naming the member."""
    out = []
    for j, m in enumerate(members):
        try:
            out.append(fn(m))
        except ValueError as exc:
            raise ValueError(f"member {j}: {exc}") from exc
    return out


def _shared_columns(fields: Sequence[Field], fn) -> np.ndarray:
    """Column j holds fn(fields[j]); fn runs once per distinct field.

    Members that hold the same callable (by identity) share its column, so
    data common to an ensemble is assembled once. A ValueError is re-raised
    naming the first member that holds the failing field.
    """
    first: dict[int, int] = {}  # id of a field -> its column in `values`
    values, columns = [], []
    for j, field in enumerate(fields):
        if id(field) not in first:
            first[id(field)] = len(values)
            try:
                values.append(fn(field))
            except ValueError as exc:
                raise ValueError(f"member {j}: {exc}") from exc
        columns.append(first[id(field)])
    return np.column_stack(values)[:, columns]


class _Stepper:
    """Workspace common to both schemes, built once per problem.

    Every system a step factorizes is M/dt + A on the space's fixed pattern,
    so one Dirichlet constraint serves the whole run: each new system is
    written into it by `refill`, and the factorization's ordering, cached on
    its matrix object, is computed once.
    """

    def __init__(self, problem: EnsembleProblem):
        self.problem = problem
        self.space = problem.space
        self.dt = problem.grid.dt
        self.mass = fem.assemble_mass(self.space)
        self.scaled_mass = self.mass.data * (1.0 / self.dt)
        self.constraint = fem.DirichletConstraint(self.mass, self.space,
                                                  problem.dirichlet_tags)
        self.static = all(m.time_invariant for m in problem.members)
        self._cache = None

    def _system(self, stiffness) -> np.ndarray:
        """Data of M/dt + A for a stiffness matrix A, which shares the mass pattern."""
        return self.scaled_mass + stiffness.data


class _SharedMatrixStepper(_Stepper):
    """Per-problem workspace for the shared-matrix scheme; caches what time allows."""

    def __init__(self, problem: EnsembleProblem):
        super().__init__(problem)
        # A(a_j) - A(abar) of every member as one block-diagonal matrix, made on
        # first use and overwritten in place at each later time level
        self.fluctuation = None

    def _pieces(self, t1: float):
        if self.static and self._cache is not None:
            return self._cache
        space, members = self.space, self.problem.members
        coeffs = np.stack(_per_member(
            members, lambda m: fem.coefficient_values(space, m.a, t1)))
        c_bar = coeffs.mean(axis=0)
        constraint = self.constraint
        constraint.refill(self._system(fem.assemble_stiffness(space, c_bar, t1)))
        # every member's A(a_j) - A(abar) from one product W @ (C - cbar)^T;
        # temporaries are dropped as soon as they are used so that a wide
        # group's peak memory stays near that of the stability gate
        deviation = np.subtract(coeffs.reshape(len(members), -1).T, c_bar.reshape(-1, 1),
                                order="C")
        del coeffs
        products = space.stiffness_operator().weights @ deviation
        del deviation
        if self.fluctuation is None:
            self.fluctuation = sparse.block_diagonal(self.mass, products.T)
        else:
            np.copyto(self.fluctuation.data.reshape(len(members), -1), products.T)
        del products
        loads = _shared_columns([m.f for m in members],
                                lambda f: fem.assemble_load(space, f, t1))
        gvals = _shared_columns([m.g for m in members],
                                lambda g: constraint.boundary_values(g, t1))
        pieces = (constraint, self.fluctuation, loads, gvals)
        if self.static:
            self._cache = pieces
        return pieces

    def step(self, state: EnsembleState) -> EnsembleState:
        t1 = (state.n + 1) * self.dt
        constraint, fluctuation, loads, gvals = self._pieces(t1)
        rhs = loads + (self.mass @ state.u) / self.dt
        rhs -= (fluctuation @ state.u.ravel(order="F")).reshape(rhs.shape, order="F")
        if not np.isfinite(rhs).all():
            j = int(np.nonzero(~np.isfinite(rhs).all(axis=0))[0][0])
            raise ValueError(f"non-finite right-hand side for member {j} at step {state.n + 1}")
        rhs = constraint.lift(rhs, gvals)
        try:
            factor = sparse.spd_factorize(constraint.matrix)
        except sparse.NotSpdError as exc:
            raise sparse.NotSpdError(
                f"shared system not SPD at step {state.n + 1}: {exc}", exc.pivot) from exc
        return EnsembleState(n=state.n + 1, t=t1, u=factor.solve(rhs))


def ensemble_step(problem: EnsembleProblem, state: EnsembleState) -> EnsembleState:
    """Advance all members by one shared-matrix step (one factorization, one block solve)."""
    if state.n >= problem.grid.steps:
        raise ValueError(f"state is already at the final step {state.n}")
    return _SharedMatrixStepper(problem).step(state)


def _run(problem: EnsembleProblem, step_fn, observer: Observer | None,
         keep_trajectory: bool) -> tuple[list[EnsembleState], SolveStats]:
    start = time.perf_counter()
    state = _initial_state(problem)
    before = sparse.counters()
    trajectory = [state]
    if observer is not None:
        observer(state)
    for _ in range(problem.grid.steps):
        state = step_fn(state)
        if keep_trajectory:
            trajectory.append(state)
        else:
            trajectory[-1] = state
        if observer is not None:
            observer(state)
    after = sparse.counters()
    stats = SolveStats(factorizations=after.factorizations - before.factorizations,
                       block_solves=after.block_solves - before.block_solves,
                       wall_time=time.perf_counter() - start)
    return trajectory, stats


def ensemble_solve(problem: EnsembleProblem, observer: Observer | None = None,
                   keep_trajectory: bool = True) -> tuple[list[EnsembleState], SolveStats]:
    """Advance the whole group over the time grid with one factorization per step.

    Initial data is the L2 projection of each member's u0 with tagged boundary
    DOFs overwritten by g(., 0). The reported counts cover the stepping loop
    (initialization factorizes the mass matrix once on top of them).
    """
    stepper = _SharedMatrixStepper(problem)
    return _run(problem, stepper.step, observer, keep_trajectory)


class _BackwardEulerStepper(_Stepper):
    """Reference path: each member gets its own system matrix and factorization."""

    def _pieces(self, t1: float):
        if self.static and self._cache is not None:
            return self._cache
        space, members = self.space, self.problem.members
        systems = _per_member(
            members, lambda m: self._system(fem.assemble_stiffness(space, m.a, t1)))
        loads = _shared_columns([m.f for m in members],
                                lambda f: fem.assemble_load(space, f, t1))
        gvals = _shared_columns([m.g for m in members],
                                lambda g: self.constraint.boundary_values(g, t1))
        pieces = (systems, loads, gvals)
        if self.static:
            self._cache = pieces
        return pieces

    def step(self, state: EnsembleState) -> EnsembleState:
        t1 = (state.n + 1) * self.dt
        systems, loads, gvals = self._pieces(t1)
        rhs = loads + (self.mass @ state.u) / self.dt
        u1 = np.empty_like(state.u)
        constraint = self.constraint
        for j, system in enumerate(systems):
            constraint.refill(system)
            col = constraint.lift(rhs[:, j], gvals[:, j])
            u1[:, j] = sparse.spd_factorize(constraint.matrix).solve(col)
        return EnsembleState(n=state.n + 1, t=t1, u=u1)


def independent_solve(problem: EnsembleProblem, observer: Observer | None = None,
                      keep_trajectory: bool = True) -> tuple[list[EnsembleState], SolveStats]:
    """Advance every member by standard backward Euler: J factorizations per step."""
    stepper = _BackwardEulerStepper(problem)
    return _run(problem, stepper.step, observer, keep_trajectory)


def trajectory_errors(problem: EnsembleProblem, trajectory: Sequence[EnsembleState],
                      exact: Sequence[Field], exact_gradient: Sequence[GradientField],
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-member max-in-time L2 error and time-accumulated H1-seminorm error.

    The maximum runs over steps 1..N; the H1 figure is sqrt(dt * sum of squared
    seminorm errors over the same steps).
    """
    space, dt = problem.space, problem.grid.dt
    j_count = problem.size
    e_l2 = np.zeros(j_count)
    e_h1_sq = np.zeros(j_count)
    for state in trajectory:
        if state.n == 0:
            continue
        for j in range(j_count):
            err = fem.error_l2(space, state.u[:, j], exact[j], state.t)
            e_l2[j] = max(e_l2[j], err)
            e_h1_sq[j] += fem.error_h1_semi(space, state.u[:, j], exact_gradient[j],
                                            state.t) ** 2
    return e_l2, np.sqrt(dt * e_h1_sq)
