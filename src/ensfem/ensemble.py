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

import functools
import math
import numbers
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
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if not (isinstance(self.steps, numbers.Integral) and self.steps >= 1):
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")

    @property
    def dt(self) -> float:
        return self.t_final / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.steps + 1)


@dataclass(frozen=True)
class EnsembleMember:
    """One simulation: diffusion coefficient, source, Dirichlet data, initial datum.

    The solvers read each field as a sum of terms w(t) * part. A
    `fem.SeparableField` gives its own terms, whose spatial parts are
    assembled once per run; a separable field whose weights are all numbers is
    time-free. Any other callable f(x, y, t) is one term of weight 1 whose part
    may depend on t, so it is assembled again at every time level. When the a,
    f and g of every member of a run are time-free, the run assembles its
    matrices and vectors once instead of once per step; u0 is read at t = 0
    only, so it does not count.
    """

    a: Field
    f: Field
    g: Field
    u0: Field


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


def _named(member: int, step: int, evaluate, *args):
    """evaluate(*args); a ValueError is re-raised naming the member and the step."""
    try:
        return evaluate(*args)
    except ValueError as exc:
        raise ValueError(f"member {member} at step {step}: {exc}") from exc


def _assemble(space: FeSpace, constraint: fem.DirichletConstraint, kind: str, field: Field,
              member: int, step: int, t: float) -> np.ndarray:
    """One field or part of `kind` assembled at time t (a coefficient's stiffness data)."""
    if kind == "a":
        return _named(member, step, fem.assemble_stiffness, space, field, t).data
    if kind == "g":
        return _named(member, step, constraint.boundary_values, field, t)
    return _named(member, step, fem.assemble_load, space, field, t)


class _Terms:
    """One kind of member data (a, f, g or u0), column by column, as a sum of terms.

    Every field is read as terms w(t) * part. A `fem.SeparableField` gives its
    own, whose spatial parts do not move: their rows are evaluated at first
    use and kept. Any other callable is one term of weight 1 whose part is the
    callable itself and moves: its row is evaluated again at every level.
    `evaluate(part, member, step, t)` gives a part's row of `size` values.
    Parts are told apart by identity, so one that several columns hold is
    evaluated once, for the member in `holders` that first holds it.

    Columns that hold the same parts in the same order form one class, mixed
    by one (columns, terms) @ (terms, size) product. A one-term class is mixed
    by a broadcast product, which keeps the bits of a plain row, -0.0
    included. The kind is `steady`, the same at every level, when no part
    moves and no weight is callable; its weights are then read once.
    """

    def __init__(self, kind: str, members: Sequence, order: np.ndarray, size: int,
                 evaluate: Callable[[Field, int, int, float], np.ndarray]):
        self.kind, self.order, self.size, self._evaluate = kind, order, size, evaluate
        self.parts, self.holders, moves, self._fields = [], [], [], []
        index, classes = {}, {}  # (moves, id) of a part -> position; positions -> columns
        for column, j in enumerate(order.tolist()):
            field = getattr(members[j], kind)
            plain = not isinstance(field, fem.SeparableField)
            terms = ((1.0, field),) if plain else field.terms
            positions = []
            for _, part in terms:
                key = (plain, id(part))
                if key not in index:
                    index[key] = len(self.parts)
                    self.parts.append(part if plain else fem.stationary(part))
                    self.holders.append(j)
                    moves.append(plain)
                positions.append(index[key])
            classes.setdefault(tuple(positions), []).append(column)
            self._fields.append(fem.SeparableField(terms) if plain else field)
        # where each column's terms start among all terms' weights
        self._starts = np.cumsum([0] + [len(f.terms) for f in self._fields])
        # each class: its columns, its parts' positions and its terms' weight slots
        self._classes = [(np.array(columns), np.array(parts, dtype=np.intp),
                          self._starts[columns, None] + np.arange(len(parts)))
                         for parts, columns in classes.items()]
        self._moving = np.flatnonzero(moves)
        self.steady = not self._moving.size and not any(
            callable(w) for f in self._fields for w, _ in f.terms)
        self._rows = self._weights = None  # the rows kept; the last weights read

    def _weights_at(self, t: float, step: int) -> list[np.ndarray]:
        """Each class's (columns, terms) weights at time t; a non-finite weight raises
        ValueError naming the member, the field and the step. Steady weights are read once."""
        if self.steady and self._weights is not None:
            return self._weights
        values = np.concatenate([np.zeros(0)] + [f.weights(t) for f in self._fields])
        finite = np.isfinite(values)
        if not finite.all():
            term = int(np.argmin(finite))
            column = np.searchsorted(self._starts, term, side="right") - 1
            raise ValueError(f"member {self.order[column]} at step {step}: "
                             f"time weight of its {self.kind} is {values[term]}")
        self._weights = [values[slots] for _, _, slots in self._classes]
        return self._weights

    def rows(self, step: int, t: float) -> np.ndarray:
        """Every part's row at time t, shape (parts, size); the rows that do not move are
        those of their first use."""
        if self._rows is None:
            self._rows = np.reshape([self._evaluate(part, j, step, t) for part, j in
                                     zip(self.parts, self.holders)], (len(self.parts), self.size))
        else:
            for k in self._moving:
                self._rows[k] = np.ravel(self._evaluate(self.parts[k], self.holders[k], step, t))
        return self._rows

    def mix(self, rows: np.ndarray, step: int, t: float) -> np.ndarray:
        """Every column's data at time t from the parts' `rows`, shape (columns, size),
        C-ordered."""
        blocks = (w * rows[parts] if parts.size == 1 else w @ rows[parts]
                  for (_, parts, _), w in zip(self._classes, self._weights_at(t, step)))
        if len(self._classes) == 1:
            return next(blocks)
        data = np.empty((len(self._fields), rows.shape[1]))
        for (columns, _, _), block in zip(self._classes, blocks):
            data[columns] = block
        return data

    def __call__(self, step: int, t: float) -> np.ndarray:
        """Every column's data at level `step`, time t, shape (columns, size)."""
        return self.mix(self.rows(step, t), step, t)


class _GroupedStepper:
    """The scheme for one problem and one partition of its members into groups.

    All groups advance in lockstep. Column i of every block the stepper holds,
    its states among them, is member order[i], so each group's columns are one
    slice; `_solve` hands states out in member order. A group's system is
    M/dt + A(mean of its members' coefficients), solved for the increment
    u(t1) - u(t0) of its columns against F - A(a_j) u(t0); a one-member group
    so takes a backward-Euler step, on the same (n, 1) block path. Outside the
    group loop a step touches the (n, J) block once: one product with the
    members' interleaved stiffness on the C-ordered state, no load block for
    zero sources, one gather of the free rows, one addition of u(t0) and
    write-back. Each group refills the run's one Dirichlet constraint, lifts
    its own columns (the coupling is its own) and solves them in place. The
    tagged rows take g(t1).

    Member data are read as terms, one `_Terms` per kind, which assembles each
    part as stiffness data, a load or boundary values: a separable field's
    parts once per run, a plain field at every level, and mixes them per
    level, one product per class of columns. The run is `static` when its a, f
    and g are all steady, and then assembles the whole level once; u0, read
    at t = 0 only, does not count. A group's system data are M/dt plus the
    mean of its columns' stiffness data, for plain and separable coefficients
    alike: A is linear in the coefficient, so that mean is A(abar).
    """

    def __init__(self, problem: EnsembleProblem, groups: Sequence[Sequence[int]]):
        self.order, self.groups = _column_indexers(groups, problem.size)
        self.space = problem.space
        self.dt = problem.grid.dt
        self.mass = fem.assemble_mass(self.space)
        self.scaled_mass = self.mass.data * (1.0 / self.dt)
        self.constraint = fem.DirichletConstraint(self.mass, self.space,
                                                  problem.dirichlet_tags)
        # the evaluators hold no reference to the stepper: a cycle through it would keep
        # a finished run's matrices until the cycle collector, which arrays do not trigger
        n, nb = self.space.dof_count, self.constraint.bdofs.size
        assemble = functools.partial(_assemble, self.space, self.constraint)
        self.terms = {kind: _Terms(kind, problem.members, self.order, size,
                                   functools.partial(assemble, kind))
                      for kind, size in (("a", self.mass.nnz), ("f", n), ("g", nb), ("u0", n))}
        self.static = all(self.terms[k].steady for k in ("a", "f", "g"))
        # every member's A(a_j), interleaved in group order, made on first use (after the
        # initial projection, not to add up in peak memory), refilled through `_order`
        self.stiffness = self._order = None
        self._cache = None
        # this run's factorizations and solves in `step`; unlike the module
        # counters of `sparse`, they exclude work done meanwhile by other runs
        self.factorizations = 0
        self.block_solves = 0

    def initial_state(self) -> EnsembleState:
        """L2 projection of every member's u0, tagged boundary DOFs overwritten by g(., 0).

        The loads of the distinct u0 parts, separable or plain, are projected
        once, all in one block (one mass factorization, none for zero data),
        and the projections mixed into the members' columns."""
        u0 = self.terms.pop("u0")  # read here only
        loads = u0.rows(0, 0.0)
        if loads.any():
            loads = fem.mass_solver(self.mass)(np.ascontiguousarray(loads.T)).T
        u = np.ascontiguousarray(u0.mix(loads, 0, 0.0).T)
        u[self.constraint.bdofs] = self.terms["g"](0, 0.0).T
        return EnsembleState(n=0, t=0.0, u=u)

    def _pieces(self, n1: int):
        """Each group's system data, every member's stiffness, loads and g at level n1.

        A group's system data are M/dt plus the mean of its columns' stiffness data."""
        if self.static and self._cache is not None:
            return self._cache
        t1 = n1 * self.dt
        members = self.terms["a"](n1, t1)
        systems = [self.scaled_mass + members[group].mean(axis=0) for group in self.groups]
        if self.stiffness is None:
            self._order = None if self.static else sparse.interleave(  # for the refills
                self.mass, np.arange(members.size).reshape(members.shape))
            values = sparse.interleave(self.mass, members)
            del members  # freed before the index arrays are made
            self.stiffness = sparse.interleaved_block_diagonal(self.mass, values, self.order.size)
        else:
            np.take(members.ravel(), self._order, out=self.stiffness.data, mode="clip")
        f = self.terms["f"]
        loads = np.ascontiguousarray(f(n1, t1).T) if f.parts else None  # f = 0: none
        gvals = np.ascontiguousarray(self.terms["g"](n1, t1).T)
        pieces = (systems, self.stiffness, loads, gvals)
        if self.static:
            self._cache = pieces
            self.terms.clear()  # their kept rows are not read again
        return pieces

    def step(self, state: EnsembleState) -> EnsembleState:
        n1 = state.n + 1
        t1 = n1 * self.dt
        systems, stiffness, loads, gvals = self._pieces(n1)
        u0 = state.u
        # 0 - A u0 for zero sources: the same bytes as zero loads, -0.0 included
        rhs = (stiffness @ u0.ravel()).reshape(u0.shape)
        np.subtract(0.0 if loads is None else loads, rhs, out=rhs)
        if not np.isfinite(rhs).all():
            j = self.order[np.nonzero(~np.isfinite(rhs).all(axis=0))[0][0]]
            raise ValueError(f"non-finite right-hand side for member {j} at step {n1}")
        constraint = self.constraint
        u1 = np.empty_like(u0)
        u1[constraint.bdofs] = gvals
        boundary_increment = gvals - u0[constraint.bdofs]
        free = rhs[constraint.free]
        for k, (group, system) in enumerate(zip(self.groups, systems)):
            constraint.refill(system)
            constraint.lift(free[:, group], boundary_increment[:, group])
            try:
                factor = sparse.spd_factorize(constraint.matrix)
            except sparse.NotSpdError as exc:
                width = group.stop - group.start
                who = (f"member {self.order[group.start]}" if width == 1 else
                       f"group {k} ({width} members)")
                raise sparse.NotSpdError(f"system of {who} not SPD at step {n1}: {exc}",
                                         exc.pivot) from exc
            self.factorizations += 1
            free[:, group] = factor.solve(free[:, group])
            self.block_solves += 1
        free += u0[constraint.free]
        u1[constraint.free] = free
        return EnsembleState(n=n1, t=t1, u=u1)


def _solve(problem: EnsembleProblem, groups: Sequence[Sequence[int]],
           observer: Observer | None) -> tuple[EnsembleState, SolveStats]:
    start = time.perf_counter()
    stepper = _GroupedStepper(problem, groups)
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
                   ) -> tuple[EnsembleState, SolveStats]:
    """Advance the members over the time grid with one factorization per group and step.

    Returns the final state, column j for member j, and the run's statistics.
    `groups` partitions the member indices; by default all members form one
    group. A group's system is M/dt plus the mean of its members' stiffness
    matrices. Initial data is the L2 projection of each member's u0 with
    tagged boundary DOFs overwritten by g(., 0). Only the observer sees the
    levels along the way: a copy of each level n = 0..N, column j for member
    j. The reported counts are this run's own and cover its stepping loop
    (initialization factorizes the mass matrix once on top of them if some u0
    has a nonzero load).
    """
    return _solve(problem, [range(problem.size)] if groups is None else groups, observer)


def independent_solve(problem: EnsembleProblem, observer: Observer | None = None,
                      ) -> tuple[EnsembleState, SolveStats]:
    """Advance every member by standard backward Euler: J factorizations per step.
    Returns the final state and observes every level, as `ensemble_solve` does."""
    return _solve(problem, [[j] for j in range(problem.size)], observer)
