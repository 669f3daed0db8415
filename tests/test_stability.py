import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ensfem.ensemble import TimeGrid
from ensfem.fem import SeparableField, assemble_stiffness, build_space, constant_field
from ensfem.mesh import BoundaryTag, uniform_triangulation
from ensfem.stability import (SamplingGrid, coefficient_block, estimate_bounds,
                              partition_ensemble)
from ensfem.stochastic import RandomFieldSpec, draw_samples, sample_coefficient


@pytest.fixture
def grid():
    space = build_space(uniform_triangulation(8, 8), 1)
    return SamplingGrid.from_space(space, TimeGrid(t_final=1.0, steps=10))


@pytest.fixture
def static_grid():
    space = build_space(uniform_triangulation(8, 8), 1)
    return SamplingGrid.from_space(space)


def const(c):
    return constant_field(c)


class TestEstimateBounds:
    def test_single_member(self, grid):
        report = estimate_bounds([const(0.7)], grid)
        assert report.theta == pytest.approx(0.7)
        assert report.theta_plus == 0.0
        assert report.theta_minus == 0.0
        assert report.satisfied

    def test_theta_minus_on_one_time_level(self, static_grid):
        # time-invariant coefficients are sampled at t=0 only; the deviation band
        # is measured there, as it is at every positive time of a time grid
        report = estimate_bounds([const(1.0), const(3.0)], static_grid)
        assert report.theta_minus == pytest.approx(1.0)
        assert report.theta_plus == pytest.approx(1.0)

    def test_single_member_nonpositive_not_satisfied(self, grid):
        assert not estimate_bounds([const(-1.0)], grid).satisfied

    def test_two_constants_margin_zero(self, grid):
        report = estimate_bounds([const(1.0), const(3.0)], grid)
        assert report.theta == pytest.approx(1.0)
        assert report.theta_plus == pytest.approx(1.0)
        assert report.theta_minus == pytest.approx(1.0)
        assert report.margin == pytest.approx(0.0)
        assert not report.satisfied

    def test_perturbed_family_bounds(self):
        # fine sampling to approach the closed-form extrema
        space = build_space(uniform_triangulation(32, 32), 2)
        grid = SamplingGrid.from_space(space, TimeGrid(t_final=1.0, steps=80))
        eps = (0.6207, 0.1841, 0.2691)
        coeffs = [lambda x, y, t, c=1.0 + e:
                  1.0 + c * math.sin(t) * np.sin(np.asarray(x) * np.asarray(y))
                  for e in eps]
        report = estimate_bounds(coeffs, grid)
        mean_eps = sum(eps) / 3.0
        closed_form = max(abs(e - mean_eps) for e in eps) * math.sin(1.0) ** 2
        assert report.theta == pytest.approx(1.0, abs=1e-12)
        assert report.theta_plus == pytest.approx(closed_form, rel=0.03)
        assert report.satisfied
        assert report.margin == pytest.approx(1.0 - closed_form, rel=0.02)

    def test_nonfinite_coefficient_rejected(self, grid):
        bad = lambda x, y, t: np.full(np.shape(x), np.nan)
        with pytest.raises(ValueError, match="member 0"):
            estimate_bounds([bad], grid)

    def test_block_checked(self, static_grid):
        block = coefficient_block([const(1.0), const(2.0)], static_grid)
        with pytest.raises(ValueError, match="shape"):
            estimate_bounds(block[0], static_grid)
        with pytest.raises(ValueError, match="shape"):
            partition_ensemble(block[:, :0], static_grid)
        block[0, 1, 5] = np.nan
        with pytest.raises(ValueError, match="member 1"):
            estimate_bounds(block, static_grid)

    def test_determinism(self, grid):
        coeffs = [const(1.0), lambda x, y, t: 1.0 + 0.5 * np.asarray(y)]
        assert estimate_bounds(coeffs, grid) == estimate_bounds(coeffs, grid)

    def test_json_schema(self, grid):
        report = estimate_bounds([const(2.0)], grid)
        record = json.loads(json.dumps(report.to_json_dict()))
        assert set(record) == {"theta", "theta_plus", "theta_minus", "satisfied", "margin"}


class TestCheckCondition:
    def test_cases(self, grid):
        assert estimate_bounds([const(0.7)], grid).satisfied
        assert not estimate_bounds([const(1.0), const(3.0)], grid).satisfied
        assert estimate_bounds([const(2.0), const(2.5)], grid).satisfied


class TestPartition:
    def test_stable_ensemble_single_group(self, static_grid):
        groups = partition_ensemble([const(2.0), const(2.1), const(2.2)], static_grid)
        assert groups == [[0, 1, 2]]

    def test_far_constants_split_into_singletons(self, static_grid):
        groups = partition_ensemble([const(1.0), const(3.0)], static_grid)
        assert groups == [[0], [1]]

    def test_two_cluster_constants(self, static_grid):
        coeffs = [const(1.0), const(1.1), const(3.0), const(3.1)]
        groups = partition_ensemble(coeffs, static_grid)
        assert groups == [[0, 1], [2, 3]]
        # brute force: the returned grouping must satisfy the condition per group,
        # and must match an exhaustive search over all partitions of minimum size
        def satisfied(group):
            return estimate_bounds([coeffs[i] for i in group], static_grid).satisfied
        assert all(satisfied(g) for g in groups)
        best = min((p for p in _partitions(list(range(4))) if all(map(satisfied, p))),
                   key=len)
        assert len(best) == len(groups)

    def test_noncoercive_member_rejected(self, static_grid):
        with pytest.raises(ValueError, match="member 1"):
            partition_ensemble([const(1.0), const(-0.5)], static_grid)

    def test_singleton_guarantee(self, static_grid):
        rng = np.random.default_rng(11)
        coeffs = [const(c) for c in rng.uniform(0.1, 10.0, size=6)]
        for groups in (partition_ensemble(coeffs, static_grid),):
            for g in groups:
                assert estimate_bounds([coeffs[i] for i in g], static_grid).satisfied
        assert sorted(i for g in groups for i in g) == list(range(6))

    def test_deviant_member_raises_theta_plus(self, static_grid):
        base = [const(1.0), const(1.2)]
        before = estimate_bounds(base, static_grid).theta_plus
        after = estimate_bounds(base + [const(2.0)], static_grid).theta_plus
        assert after > before


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]
        yield [[first]] + sub


def closure_greedy(coeffs, grid):
    """Reference partition: the greedy sweep re-evaluating every member of every trial group."""
    scores = np.zeros(len(coeffs))
    for t in grid.times:
        vals = np.stack([np.broadcast_to(np.asarray(a(grid.x, grid.y, float(t)), float),
                                         grid.x.shape) for a in coeffs])
        scores += (vals - vals.mean(axis=0)).mean(axis=1)
    groups, current = [], []
    for j in np.argsort(scores, kind="stable"):
        trial = current + [int(j)]
        if estimate_bounds([coeffs[i] for i in trial], grid).satisfied:
            current = trial
        else:
            if current:
                groups.append(sorted(current))
            current = [int(j)]
    if current:
        groups.append(sorted(current))
    return sorted(groups, key=lambda g: g[0])


def drifting_family(seed, count, sigma, drift):
    """Sampled fields, each scaled by 1 + r_j t with its own rate r_j in [-drift, drift]."""
    spec = RandomFieldSpec(sigma=sigma)
    rates = np.random.default_rng(seed).uniform(-drift, drift, count)
    return [lambda x, y, t, a=sample_coefficient(spec, d), r=r: a(x, y, t) * (1.0 + r * t)
            for d, r in zip(draw_samples(seed, count, spec.n_modes), rates)]


@pytest.mark.parametrize("steps", [0, 4])
def test_block_and_fields_agree(steps):
    coeffs = drifting_family(seed=5, count=6, sigma=0.2, drift=0.4)
    space = build_space(uniform_triangulation(6, 6), 1)
    grid = SamplingGrid.from_space(space, TimeGrid(1.0, steps) if steps else None)
    block = coefficient_block(coeffs, grid)
    assert block.shape == (steps + 1, 6, grid.x.size)
    for group in ([0], [1, 3], [5, 2, 4], list(range(6))):
        assert (estimate_bounds(block[:, group], grid)
                == estimate_bounds([coeffs[i] for i in group], grid))


# spatial parts several members may hold; a part outside this list is one member's own
SHARED_PARTS = (lambda x, y: np.ones(np.shape(y)), lambda x, y: np.cos(np.pi * np.asarray(y)),
                lambda x, y: np.sin(2.0 * np.asarray(x)) * np.asarray(y), lambda x, y: -0.5)
weight = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))
term = st.tuples(st.integers(-1, len(SHARED_PARTS) - 1), weight, st.booleans())
member = st.one_of(st.lists(term, max_size=4), st.floats(0.1, 2.0))


def mixed_family(members):
    """Fields from `member` draws: a list of terms (shared part or -1 for an own one, weight,
    whether the weight is a callable of t) is a separable field, a number a plain callable."""
    fields = []
    for j, spec in enumerate(members):
        if isinstance(spec, float):
            fields.append(lambda x, y, t, c=spec: c + np.asarray(x) * np.asarray(y) * (1.0 + t))
            continue
        fields.append(SeparableField(tuple(
            ((lambda t, w=w: w * (1.0 + t)) if timed else w,
             SHARED_PARTS[p] if p >= 0 else lambda x, y, j=j: np.exp(-j * np.asarray(x)) + y)
            for p, w, timed in spec)))
    return fields


@settings(max_examples=60, deadline=None)
@given(members=st.lists(member, min_size=1, max_size=8),
       times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_is_each_members_own_call(members, times, seed):
    # shared parts are evaluated once and mixed class by class; every row must still be
    # the member's own call byte for byte, -0.0 and zero-term fields included
    points = np.random.default_rng(seed).uniform(0.0, 1.0, (2, 17))
    grid = SamplingGrid(x=points[0], y=points[1], times=np.array(times))
    fields = mixed_family(members)
    block = coefficient_block(fields, grid)
    for t, level in zip(times, block):
        for a, row in zip(fields, level):
            assert row.tobytes() == np.asarray(a(grid.x, grid.y, t), dtype=float).tobytes()


def test_nonfinite_weight_named_under_its_member(static_grid):
    # members 1..3 hold the same parts, one class; member 3's bad weight is named as 3
    part = SHARED_PARTS[1]
    coeffs = [const(1.0)] + [SeparableField(((w, part), (0.1, SHARED_PARTS[0])))
                             for w in (1.0, 2.0, np.nan)]
    with pytest.raises(ValueError, match="^coefficient of member 3 evaluated non-finite"):
        coefficient_block(coeffs, static_grid)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 30),
       sigma=st.floats(0.05, 0.21), nx=st.sampled_from([4, 6]),
       steps=st.sampled_from([0, 2, 5]), drift=st.floats(0.0, 0.5))
def test_partition_of_sampled_family(seed, count, sigma, nx, steps, drift):
    # steps=0 samples t=0 only; otherwise the fields drift apart over several time levels
    coeffs = drifting_family(seed, count, sigma, drift if steps else 0.0)
    space = build_space(uniform_triangulation(nx, nx), 1)
    grid = SamplingGrid.from_space(space, TimeGrid(1.0, steps) if steps else None)
    groups = partition_ensemble(coeffs, grid)
    assert sorted(i for g in groups for i in g) == list(range(count))
    for g in groups:
        assert estimate_bounds([coeffs[i] for i in g], grid).satisfied
    assert groups == closure_greedy(coeffs, grid)
    assert partition_ensemble(coefficient_block(coeffs, grid), grid) == groups


@settings(max_examples=20, deadline=None)
@given(degree=st.sampled_from([1, 2]), nx=st.integers(2, 3), members=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1), constant=st.booleans())
def test_sampled_bounds_certify_the_discrete_forms(degree, nx, members, seed, constant):
    # the assembly rule has positive weights and integrates grad u . grad v exactly,
    # so theta and theta_plus at its points bound the discrete forms on the free block;
    # members constant in space make both bounds tight
    space = build_space(uniform_triangulation(nx, nx), degree)
    rule = space.assembly_rule
    assert (rule.weights > 0.0).all() and rule.order >= 2 * (degree - 1)
    shape = space.tabulation(rule).xq.shape
    draw = (members, 1, 1) if constant else (members,) + shape
    values = np.broadcast_to(np.random.default_rng(seed).uniform(0.1, 10.0, draw),
                             (members,) + shape)
    report = estimate_bounds(values.reshape(1, members, -1), SamplingGrid.from_space(space))
    free = np.setdiff1d(np.arange(space.dof_count), space.tagged_dofs(tuple(BoundaryTag)))

    def form(c):
        return assemble_stiffness(space, c, 0.0).toarray()[np.ix_(free, free)]

    unit, mean = form(np.ones(shape)), form(values.mean(axis=0))
    tolerance = 1e-12 * values.max() * np.abs(unit).max()
    for c in values:
        deviation = form(c) - mean
        for semidefinite in (form(c) - report.theta * unit,
                             report.theta_plus * unit + deviation,
                             report.theta_plus * unit - deviation):
            assert np.linalg.eigvalsh(semidefinite).min() >= -tolerance
