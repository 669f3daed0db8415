"""Shared-matrix time stepping for groups of linear parabolic problems.

All group members advance together with one implicit solve per step: the
implicit diffusion term uses the group-averaged coefficient abar, so the
system matrix is member-independent and is factorized once, while each
member's deviation from the mean acts explicitly on its own right-hand side:

    (M/dt + A(abar, t1)) u_j(t1) = F_j(t1) + M u_j(t0)/dt - (A(a_j, t1) - A(abar, t1)) u_j(t0)

with Dirichlet lifting at t1. The stepper solves the same equation for the
increment, whose right-hand side needs no mass product and no group mean:

    (M/dt + A(abar, t1)) (u_j(t1) - u_j(t0)) = F_j(t1) - A(a_j, t1) u_j(t0)

A run may split the members into groups, each with its own mean; all groups
step in lockstep. `independent_solve` is the reference baseline, standard
backward Euler for every member: the same scheme on one-member groups.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import fem, sparse
from .fem import FeSpace, Field
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
    """The run's own factorization/solve counts over the stepping loop, plus total wall time."""

    factorizations: int
    block_solves: int
    wall_time: float

    def to_json_dict(self) -> dict:
        return {"factorizations": self.factorizations,
                "block_solves": self.block_solves,
                "wall_time_s": self.wall_time}


Observer = Callable[[EnsembleState], None]

#: members per product when the coefficient values are mapped to stiffness data; small,
#: so that the product's temporaries add little to the data it fills
_CHUNK = 8


def _column_indexers(groups: Sequence[Sequence[int]], size: int,
                     ) -> tuple[np.ndarray, list[slice]]:
    """The members group after group, and the slice of that order each group holds.

    Raises ValueError unless the groups cover the members 0..size-1 exactly once.
    """
    arrays = [np.asarray(g) for g in groups]
    if not (arrays and all(a.ndim == 1 and a.size and a.dtype.kind in "iu" for a in arrays)
            and np.array_equal(np.sort(np.concatenate(arrays)), np.arange(size))):
        raise ValueError(f"groups must cover the members 0..{size - 1} exactly once")
    stops = np.cumsum([a.size for a in arrays]).tolist()
    return (np.concatenate(arrays).astype(np.intp),
            [slice(stop - a.size, stop) for a, stop in zip(arrays, stops)])


def _distinct_columns(fields: Sequence[Field], fn, step: int, order: Sequence[int],
                      ) -> tuple[np.ndarray, list[int]]:
    """fn of each distinct field as one column, and for each i the column of fields[order[i]].

    Members that hold the same callable (by identity) share its column, so data
    common to an ensemble is assembled once. A ValueError is re-raised naming
    the member, first in `order`, that holds the failing field, and the step.
    """
    first: dict[int, int] = {}  # id of a field -> its column in `values`
    values, columns = [], []
    for j in order:
        field = fields[j]
        if id(field) not in first:
            first[id(field)] = len(values)
            try:
                values.append(fn(field))
            except ValueError as exc:
                raise ValueError(f"member {j} at step {step}: {exc}") from exc
        columns.append(first[id(field)])
    return np.column_stack(values), columns


def _shared_columns(fields: Sequence[Field], fn, step: int, order: Sequence[int],
                    ) -> np.ndarray:
    """Column i holds fn(fields[order[i]]); fn runs once per distinct field."""
    values, columns = _distinct_columns(fields, fn, step, order)
    return values[:, columns]


class _GroupedStepper:
    """The scheme for one problem and one partition of its members into groups.

    All groups advance in lockstep. Column i of every block the stepper holds,
    its states among them, is member order[i], so each group's columns are one
    slice; `_solve` hands states out in member order. A group's system is
    M/dt + A(mean of its members' coefficients), solved for the increment
    u(t1) - u(t0) of its columns against F - A(a_j) u(t0); a one-member group
    so takes a backward-Euler step, on the same (n, 1) block path. Every
    system sits on the space's fixed pattern, so one Dirichlet constraint,
    refilled per group, serves the whole run; its order of the free rows is
    the elimination order, so a group's lift, solve, addition of u(t0) and
    write-back run on one row index. The tagged rows of all columns take g(t1).
    """

    def __init__(self, problem: EnsembleProblem, groups: Sequence[Sequence[int]],
                 coefficients: list[np.ndarray] | None = None):
        self.problem = problem
        self.order, self.groups = _column_indexers(groups, problem.size)
        self.space = problem.space
        self.dt = problem.grid.dt
        self.mass = fem.assemble_mass(self.space)
        self.scaled_mass = self.mass.data * (1.0 / self.dt)
        self.constraint = fem.DirichletConstraint(self.mass, self.space,
                                                  problem.dirichlet_tags)
        self.static = all(m.time_invariant for m in problem.members)
        if coefficients is not None:
            if not (isinstance(coefficients, list) and len(coefficients) == 1):
                raise ValueError("coefficient values are handed over as a one-element list")
            coefficients = coefficients.pop()
            points = self.space.tabulation(self.space.assembly_rule).xq.size
            if not self.static:
                raise ValueError("coefficient values need time-invariant members")
            if coefficients.shape != (problem.size, points):
                raise ValueError(f"coefficient values of shape {coefficients.shape}, "
                                 f"want ({problem.size}, {points})")
            finite = np.isfinite(coefficients).all(axis=1)
            if not finite.all():
                raise ValueError(f"member {int(np.argmin(finite))}: coefficient values "
                                 "are non-finite")
        self._coefficients = coefficients
        # every member's A(a_j) as one block-diagonal matrix in group order, made
        # on first use (after the initial projection, so that the two do not add
        # up in peak memory) and overwritten in place at each later time level
        self.stiffness = None
        self._cache = None
        # this run's factorizations and solves in `step`; unlike the module
        # counters of `sparse`, they exclude work done meanwhile by other runs
        self.factorizations = 0
        self.block_solves = 0

    def initial_state(self) -> EnsembleState:
        """L2 projection of every member's u0, tagged boundary DOFs overwritten by g(., 0).

        Each distinct u0 is projected once, all in one block (one mass
        factorization, none for zero data), and its column then spread to
        the members that hold it."""
        space, members, constraint = self.space, self.problem.members, self.constraint
        loads, columns = _distinct_columns([m.u0 for m in members],
                                           lambda u0: fem.assemble_load(space, u0, 0.0), 0,
                                           self.order)
        if loads.any():
            loads = fem.mass_solver(self.mass)(loads)
        u = loads.take(columns, axis=1)
        u[constraint.bdofs] = _shared_columns(
            [m.g for m in members], lambda g: constraint.boundary_values(g, 0.0), 0,
            self.order)
        return EnsembleState(n=0, t=0.0, u=u)

    def _pieces(self, n1: int):
        if self.static and self._cache is not None:
            return self._cache
        space, members, t1, order = self.space, self.problem.members, n1 * self.dt, self.order
        # in member order, as handed over: the chunks below read them through `order`
        coeffs, self._coefficients = self._coefficients, None
        if coeffs is None:
            coeffs = _shared_columns(
                [m.a for m in members],
                lambda a: fem.coefficient_values(space, a, t1).ravel(), n1,
                range(len(members))).T
        systems = [self.scaled_mass + fem.assemble_stiffness(
            space, coeffs[order[group]].mean(axis=0), t1).data for group in self.groups]
        # every member's A(a_j) is W @ a_j, made a few members at a time straight
        # into the block's data, so that no (slots, J) product block is held
        data = (np.empty((len(members), self.mass.nnz)) if self.stiffness is None
                else self.stiffness.data.reshape(len(members), -1))
        weights = space.stiffness_operator().weights
        for start in range(0, len(members), _CHUNK):
            chunk = slice(start, start + _CHUNK)
            data[chunk] = (weights @ coeffs[order[chunk]].T).T
        del coeffs
        if self.stiffness is None:
            self.stiffness = sparse.block_diagonal(self.mass, data)
        loads = _shared_columns([m.f for m in members],
                                lambda f: fem.assemble_load(space, f, t1), n1, order)
        gvals = _shared_columns([m.g for m in members],
                                lambda g: self.constraint.boundary_values(g, t1), n1, order)
        pieces = (systems, self.stiffness, loads, gvals)
        if self.static:
            self._cache = pieces
        return pieces

    def step(self, state: EnsembleState) -> EnsembleState:
        n1 = state.n + 1
        t1 = n1 * self.dt
        systems, stiffness, loads, gvals = self._pieces(n1)
        u0 = state.u
        rhs = loads - (stiffness @ u0.ravel(order="F")).reshape(u0.shape, order="F")
        if not np.isfinite(rhs).all():
            j = self.order[np.nonzero(~np.isfinite(rhs).all(axis=0))[0][0]]
            raise ValueError(f"non-finite right-hand side for member {j} at step {n1}")
        constraint = self.constraint
        u1 = np.empty_like(u0)
        u1[constraint.bdofs] = gvals
        boundary_increment = gvals - u0[constraint.bdofs]
        for k, (group, system) in enumerate(zip(self.groups, systems)):
            constraint.refill(system)
            lifted = constraint.lift(rhs[:, group], boundary_increment[:, group])
            try:
                factor = sparse.spd_factorize(constraint.matrix)
            except sparse.NotSpdError as exc:
                width = group.stop - group.start
                who = (f"member {self.order[group.start]}" if width == 1 else
                       f"group {k} ({width} members)")
                raise sparse.NotSpdError(f"system of {who} not SPD at step {n1}: {exc}",
                                         exc.pivot) from exc
            self.factorizations += 1
            solved = factor.solve(lifted)
            self.block_solves += 1
            solved += u0[constraint.free, group]  # in place: a sum would be a third block
            u1[constraint.free, group] = solved
        return EnsembleState(n=n1, t=t1, u=u1)


def _solve(problem: EnsembleProblem, groups: Sequence[Sequence[int]],
           observer: Observer | None, coefficients: list[np.ndarray] | None = None,
           ) -> tuple[EnsembleState, SolveStats]:
    start = time.perf_counter()
    stepper = _GroupedStepper(problem, groups, coefficients)
    inverse = np.argsort(stepper.order)  # states go out as copies in member order
    state = stepper.initial_state()
    for n in range(problem.grid.steps + 1):
        if n:
            state = stepper.step(state)
        if observer is not None:
            observer(replace(state, u=state.u[:, inverse]))
    final = replace(state, u=state.u[:, inverse])
    stats = SolveStats(factorizations=stepper.factorizations,
                       block_solves=stepper.block_solves,
                       wall_time=time.perf_counter() - start)
    return final, stats


def ensemble_solve(problem: EnsembleProblem, observer: Observer | None = None,
                   groups: Sequence[Sequence[int]] | None = None,
                   coefficients: list[np.ndarray] | None = None,
                   ) -> tuple[EnsembleState, SolveStats]:
    """Advance the members over the time grid with one factorization per group and step.

    Returns the final state, column j for member j, and the run's statistics.
    `groups` partitions the member indices; by default all members form one
    group. Initial data is the L2 projection of each member's u0 with tagged
    boundary DOFs overwritten by g(., 0). Only the observer sees the levels
    along the way: a copy of each level n = 0..N, column j for member j. The
    reported counts are this run's own and cover its stepping loop
    (initialization factorizes the mass matrix once on top of them if some u0
    has a nonzero load).

    For time-invariant members, `coefficients` may hand over their values at
    the space's assembly points, shape (J, points) in the order of
    `fem.coefficient_values` flattened, as a one-element list; the
    coefficients are then not called. The stepper takes the array out of the
    list, reads it and drops it, so the values are never copied, left
    unchanged and not held for the whole run.
    """
    return _solve(problem, [range(problem.size)] if groups is None else groups,
                  observer, coefficients)


def independent_solve(problem: EnsembleProblem, observer: Observer | None = None,
                      ) -> tuple[EnsembleState, SolveStats]:
    """Advance every member by standard backward Euler: J factorizations per step.
    Returns the final state and observes every level, as `ensemble_solve` does."""
    return _solve(problem, [[j] for j in range(problem.size)], observer)
