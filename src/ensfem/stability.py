"""Coercivity and deviation bounds gating the shared-matrix scheme.

The scheme is stable when the coercivity floor `theta` of the coefficients
exceeds `theta_plus`, the largest sup-norm deviation of any member from the
group mean. Both are continuum quantities, measured here on exactly the points
the solver sees: the assembly quadrature points of the mesh crossed with the
time grid. For the discrete scheme that is a certificate: A(c) is the sum over
those points of w_q c(x_q) grad phi_i . grad phi_j, every assembly rule has
positive weights and order >= 2 (degree - 1), so A(1) is the exact Dirichlet
form, and in the order of symmetric matrices A(c_j) >= theta A(1) and
-theta_plus A(1) <= A(c_j) - A(mean) <= theta_plus A(1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensemble import TimeGrid
from .fem import FeSpace, Field, SeparableField


@dataclass(frozen=True)
class SamplingGrid:
    """Spatial sample points and time levels for coefficient bound estimates."""

    x: np.ndarray
    y: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        if self.x.size == 0 or self.times.size == 0:
            raise ValueError("sampling grid must be nonempty")

    @classmethod
    def from_space(cls, space: FeSpace, grid: TimeGrid | None = None) -> "SamplingGrid":
        """Assembly quadrature points of the space, crossed with the time levels.

        With grid=None the coefficients are treated as time-invariant and
        sampled at t=0 only.
        """
        tab = space.tabulation(space.assembly_rule)
        times = np.array([0.0]) if grid is None else grid.times()
        return cls(x=tab.xq.ravel(), y=tab.yq.ravel(), times=times)


@dataclass(frozen=True)
class StabilityReport:
    theta: float
    theta_plus: float
    theta_minus: float
    satisfied: bool
    margin: float

    def to_json_dict(self) -> dict:
        return {"theta": self.theta, "theta_plus": self.theta_plus,
                "theta_minus": self.theta_minus, "satisfied": self.satisfied,
                "margin": self.margin}


def coefficient_block(coeffs: Sequence[Field], grid: SamplingGrid) -> np.ndarray:
    """Every coefficient at every grid point, shape (time levels, members, points).

    A `SeparableField`'s spatial parts are evaluated once per block, each
    distinct part once for all the members that hold it (parts are told apart
    by identity, as the stepper tells them). At each time level the members
    that hold the same parts in the same order read their weights into one
    (members, terms) array and are mixed term by term, in the operations and
    order of the field's own call, so each row is that call's value bit for
    bit. Any other coefficient is called once per time level. After each
    level, a non-finite value raises naming the first member that has one.
    """
    if len(coeffs) < 1:
        raise ValueError("need at least one coefficient")
    block = np.empty((grid.times.size, len(coeffs), grid.x.size))
    parts, index, classes, plain = [], {}, {}, []  # index: id of a part -> its row in `parts`
    for j, a in enumerate(coeffs):
        if not isinstance(a, SeparableField):
            plain.append(j)
            continue
        for _, part in a.terms:
            if id(part) not in index:
                index[id(part)] = len(parts)
                parts.append(np.asarray(part(grid.x, grid.y), dtype=float))
        classes.setdefault(tuple(index[id(part)] for _, part in a.terms), []).append(j)
    for t, level in zip(grid.times, block):
        for positions, members in classes.items():
            weights = np.array([coeffs[j].weights(float(t)) for j in members])
            # a class of consecutive members, as every class of a sampled run is, is
            # mixed in its rows of the block, so that no second block is held
            rows = slice(members[0], members[-1] + 1)
            inside = rows.stop - rows.start == len(members)
            total = level[rows] if inside else np.empty((len(members), grid.x.size))
            total[...] = 0.0
            for k, p in enumerate(positions):
                total += weights[:, k, None] * parts[p]
            if not inside:
                level[members] = total
        for j in plain:
            level[j] = np.asarray(coeffs[j](grid.x, grid.y, float(t)), dtype=float)
        finite = np.isfinite(level).all(axis=1)
        if not finite.all():
            raise ValueError(f"coefficient of member {int(np.argmin(finite))} "
                             f"evaluated non-finite at t={t}")
    return block


def _as_block(coeffs: Sequence[Field] | np.ndarray, grid: SamplingGrid) -> np.ndarray:
    """The coefficient block of `coeffs`: fields are evaluated, a block is checked."""
    if not isinstance(coeffs, np.ndarray):
        return coefficient_block(coeffs, grid)
    if not (coeffs.ndim == 3 and coeffs.shape[1] >= 1
            and coeffs.shape[::2] == (grid.times.size, grid.x.size)):
        raise ValueError(f"coefficient block of shape {coeffs.shape}, want "
                         f"({grid.times.size}, members, {grid.x.size})")
    finite = np.isfinite(coeffs).all(axis=(0, 2))
    if not finite.all():
        raise ValueError(f"coefficient of member {int(np.argmin(finite))} is non-finite")
    return coeffs


def _reduce_bounds(values, grid: SamplingGrid) -> StabilityReport:
    """Bounds from a group's coefficient values, one (members, points) array per time level."""
    theta = np.inf
    theta_plus = 0.0
    theta_minus = np.inf
    for t, vals in zip(grid.times, values):
        mean = vals.mean(axis=0)
        theta = min(theta, float(vals.min()), float(mean.min()))
        dev = vals - mean
        dev = np.abs(dev, out=dev).max(axis=1)  # sup over x, per member
        theta_plus = max(theta_plus, float(dev.max()))
        if t > 0.0 or grid.times.size == 1:
            theta_minus = min(theta_minus, float(dev.min()))
    if not np.isfinite(theta_minus):
        theta_minus = 0.0
    margin = theta - theta_plus
    return StabilityReport(theta=theta, theta_plus=theta_plus, theta_minus=theta_minus,
                           satisfied=margin > 0.0, margin=margin)


def estimate_bounds(coeffs: Sequence[Field] | np.ndarray,
                    grid: SamplingGrid) -> StabilityReport:
    """Sampled coercivity floor and deviation band for a group of coefficients.

    theta is the smaller of the members' floor and the mean's floor;
    theta_minus is measured over positive times only, since deviations may
    vanish identically at t=0, except on a one-level grid (time-invariant
    coefficients), where it is measured at that level. `coeffs` are fields,
    evaluated by `coefficient_block`, or their values as it returns them.
    """
    return _reduce_bounds(_as_block(coeffs, grid), grid)


def partition_ensemble(coeffs: Sequence[Field] | np.ndarray,
                       grid: SamplingGrid) -> list[list[int]]:
    """Greedy split of the group into subgroups that each pass the stability check.

    Members are swept in order of their mean signed deviation from the global
    average; a new group opens whenever adding the next member would break the
    condition within the current group. Singletons always pass, so the sweep
    terminates, provided every coefficient is individually coercive. `coeffs`
    are fields, evaluated by `coefficient_block`, or their values as it
    returns them.

    A trial costs O(points): the current group is held as its running sum,
    maximum and minimum per (time level, point). Its margin is that of
    `estimate_bounds` bit for bit: the sum adds the rows in the order in which
    ``mean(axis=0)`` adds them, and max_j |a_j - mean| is exactly
    max(max_j a_j - mean, mean - min_j a_j), since rounding a difference is
    monotone in each operand.
    """
    values = _as_block(coeffs, grid)
    scores = np.zeros(values.shape[1])
    for vals in values:
        nonpositive = np.nonzero(vals.min(axis=1) <= 0.0)[0]
        if nonpositive.size:
            raise ValueError(f"member {nonpositive[0]} has a non-positive coefficient; "
                             "cannot be grouped")
        scores += (vals - vals.mean(axis=0)).mean(axis=1)
    order = np.argsort(scores, kind="stable")

    groups: list[list[int]] = []
    current: list[int] = []
    for j in order:
        row = values[:, j]
        if current:
            total, high, low = total + row, np.maximum(high, row), np.minimum(low, row)
            mean = total / (len(current) + 1)
            theta = min(float(low.min()), float(mean.min()))
            theta_plus = max(float((high - mean).max()), float((mean - low).max()))
            if theta - theta_plus > 0.0:
                current.append(int(j))
                continue
            groups.append(sorted(current))
        current = [int(j)]
        total, high, low = row, row, row
    groups.append(sorted(current))
    return sorted(groups, key=lambda g: g[0])
