import gc
import json
import math
import time
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensfem import fem, stochastic

from ensfem.fem import FeSpace, build_space
from ensfem.mesh import uniform_triangulation
from ensfem.stability import (SamplingGrid, coefficient_block, estimate_bounds,
                              partition_ensemble)
from ensfem.stochastic import (EmcConfig, RandomFieldSpec, SQRT3, StabilityError,
                               draw_samples, kl_eigenvalues, log_log_fit,
                               mc_rate_study, qoi_integral, run_emc,
                               sample_coefficient)


@pytest.fixture
def spec():
    return RandomFieldSpec()  # a0=1, sigma=0.15, corr_length=0.25, n_modes=3


def tiny_config(**overrides):
    kwargs = dict(samples=4, seed=7, nx=4, dt=0.05, t_final=0.2)
    kwargs.update(overrides)
    return EmcConfig(**kwargs)


def _numeric_separable(field):
    """True for a separable field whose weights are all numbers: a time-free field."""
    return (isinstance(field, fem.SeparableField)
            and not any(callable(w) for w, _ in field.terms))


def _reference_coefficient(spec, draw):
    """The expansion summed mode by mode, cos and sin together: the reference for
    the separable field that `sample_coefficient` builds."""
    yvec = np.asarray(draw.y, dtype=float)
    s = spec.sigma * np.sqrt(kl_eigenvalues(spec))
    nf = spec.n_modes

    def coeff(x, y, t):
        acc = spec.a0 + s[0] * yvec[0] + np.zeros(np.shape(y))
        for i in range(1, nf + 1):
            acc = acc + s[i] * (yvec[i] * np.cos(i * math.pi * np.asarray(y))
                                + yvec[nf + i] * np.sin(i * math.pi * np.asarray(y)))
        return acc

    return coeff


class TestModeWeights:
    def test_reference_values(self, spec):
        lam = kl_eigenvalues(spec)
        assert lam[0] == pytest.approx(math.sqrt(math.pi * 0.25) / 2.0, rel=1e-14)
        assert lam[0] == pytest.approx(0.4431135, abs=1e-7)
        assert lam[1] == pytest.approx(0.3797880, abs=1e-7)
        assert lam[2] == pytest.approx(0.2391224, abs=1e-7)
        assert lam[3] == pytest.approx(0.1105992, abs=1e-7)
        for i in (1, 2, 3):
            direct = math.sqrt(math.pi) * 0.25 * math.exp(-((i * math.pi * 0.25) ** 2) / 4.0)
            assert lam[i] == pytest.approx(direct, rel=1e-14)

    def test_strictly_decreasing(self, spec):
        lam = kl_eigenvalues(RandomFieldSpec(corr_length=0.25, n_modes=8))
        assert (np.diff(lam) < 0).all()

    def test_invalid_correlation_length(self):
        with pytest.raises(ValueError):
            RandomFieldSpec(corr_length=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(sigma=-0.1), "sigma must be non-negative and finite, got -0.1"),
        (dict(sigma=math.inf), "sigma must be non-negative and finite, got inf"),
        (dict(sigma=math.nan), "sigma must be non-negative and finite, got nan"),
        (dict(a0=0.0), "a0 must be positive and finite, got 0.0"),
        (dict(a0=-2.0), "a0 must be positive and finite, got -2.0"),
        (dict(a0=math.inf), "a0 must be positive and finite, got inf"),
        (dict(n_modes=-1), "n_modes must be non-negative, got -1"),
        (dict(corr_length=math.nan), "correlation length must be positive and finite, got nan"),
    ])
    def test_invalid_field_parameters_named(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RandomFieldSpec(**kwargs)


class TestSampleCoefficient:
    def test_zero_draw_gives_background(self, spec):
        draw = draw_samples(seed=0, count=1, n_modes=spec.n_modes)[0]
        field = sample_coefficient(spec, type(draw)(y=np.zeros(7), index=0,
                                                    replica=0, seed=0))
        assert field(0.3, 0.8, 0.0) == pytest.approx(1.0)

    def test_single_mode_amplitude(self, spec):
        y = np.zeros(7)
        y[0] = SQRT3
        draw = draw_samples(seed=0, count=1, n_modes=3)[0]
        field = sample_coefficient(spec, type(draw)(y=y, index=0, replica=0, seed=0))
        expected = 1.0 + 0.15 * math.sqrt(math.sqrt(math.pi * 0.25) / 2.0) * SQRT3
        assert field(0.2, 0.9, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.172946, abs=1e-6)

    def test_varies_in_y_only(self, spec):
        draw = draw_samples(seed=5, count=1, n_modes=3)[0]
        field = sample_coefficient(spec, draw)
        ys = np.linspace(0.0, 1.0, 11)
        line = field(np.zeros_like(ys), ys, 0.0)
        assert np.array_equal(field(np.ones_like(ys), ys, 3.5), line)
        assert np.ptp(line) > 0

    def test_pointwise_against_direct_sum(self, spec):
        draw = draw_samples(seed=9, count=1, n_modes=3)[0]
        field = sample_coefficient(spec, draw)
        lam = kl_eigenvalues(spec)
        y = 0.37
        direct = spec.a0 + spec.sigma * math.sqrt(lam[0]) * draw.y[0]
        for i in range(1, 4):
            direct += spec.sigma * math.sqrt(lam[i]) * (
                draw.y[i] * math.cos(i * math.pi * y)
                + draw.y[3 + i] * math.sin(i * math.pi * y))
        assert field(0.5, y, 0.0) == pytest.approx(direct, rel=1e-14)

    def test_wrong_length_rejected(self, spec):
        draw = draw_samples(seed=0, count=1, n_modes=2)[0]  # 5 entries, spec wants 7
        with pytest.raises(ValueError, match="entries"):
            sample_coefficient(spec, draw)(0.5, 0.5, 0.0)
        with pytest.raises(ValueError, match="^draw has 5 entries, expected 7$"):
            stochastic.build_emc_members(EmcConfig(spec=spec), [draw])


class TestDrawSamples:
    def test_deterministic(self):
        a = draw_samples(seed=123, count=5, n_modes=3)
        b = draw_samples(seed=123, count=5, n_modes=3)
        for da, db in zip(a, b):
            assert np.array_equal(da.y, db.y)

    def test_prefix_nesting(self):
        small = draw_samples(seed=42, count=5, n_modes=3)
        large = draw_samples(seed=42, count=12, n_modes=3)
        for da, db in zip(small, large):
            assert np.array_equal(da.y, db.y)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 63 - 1), replica=st.integers(0, 2 ** 16),
           n_modes=st.integers(0, 4), count=st.integers(1, 12), extra=st.integers(0, 12))
    def test_prefix_property(self, seed, replica, n_modes, count, extra):
        # the first `count` draws of a longer stream are the shorter stream, and
        # draw j is the j-th substream of the (seed, replica) key
        small = draw_samples(seed, count, n_modes, replica)
        large = draw_samples(seed, count + extra, n_modes, replica)
        for j, (ds, dl) in enumerate(zip(small, large)):
            assert ds.index == dl.index == j
            assert np.array_equal(ds.y, dl.y)
            key = stochastic._replica_key(seed, replica)
            direct = np.random.Generator(np.random.Philox(key=key).jumped(j)).uniform(
                -SQRT3, SQRT3, 2 * n_modes + 1)
            assert np.array_equal(ds.y, direct)

    def test_replicas_are_distinct(self):
        a = draw_samples(seed=42, count=3, n_modes=3, replica=0)
        b = draw_samples(seed=42, count=3, n_modes=3, replica=1)
        assert not np.array_equal(a[0].y, b[0].y)

    def test_bounds(self):
        draws = draw_samples(seed=3, count=200, n_modes=3)
        values = np.concatenate([d.y for d in draws])
        assert (np.abs(values) <= SQRT3).all()

    def test_moments(self):
        draws = draw_samples(seed=2024, count=100_000, n_modes=0)
        values = np.concatenate([d.y for d in draws])
        assert abs(values.mean()) <= 0.02
        assert 0.97 <= values.var() <= 1.03


def _gate_inputs(degree, nx, samples, seed, spec=None):
    config = EmcConfig(spec=spec or RandomFieldSpec(sigma=0.2), samples=samples, seed=seed,
                       nx=nx, dt=0.05, degree=degree, partition=True)
    space = build_space(uniform_triangulation(nx, nx), degree)
    return config, draw_samples(seed, samples, config.spec.n_modes), space


def _full_block(config, draws, space):
    """Every draw's `sample_coefficient` field at every assembly point, and the points."""
    sampling = SamplingGrid.from_space(space)
    return coefficient_block([sample_coefficient(config.spec, d) for d in draws],
                             sampling), sampling


class TestGateAndGroup:
    """The gate evaluates each y-only field on the distinct y rows and spreads them."""

    @settings(max_examples=25, deadline=None)
    @given(degree=st.sampled_from([1, 2]), nx=st.integers(1, 10),
           samples=st.integers(1, 12), seed=st.integers(0, 2 ** 32),
           a0=st.floats(0.5, 3.0), scale=st.floats(0.0, 1.0),
           corr_length=st.floats(0.1, 1.0), n_modes=st.integers(0, 4))
    def test_block_matches_full_grid(self, degree, nx, samples, seed, a0, scale,
                                     corr_length, n_modes):
        # every field stays positive: for these correlation lengths
        # sqrt(3) * (sqrt(lambda_0) + 2 sum_i sqrt(lambda_i)) < 12 < 16
        spec = RandomFieldSpec(a0=a0, sigma=scale * a0 / 16, corr_length=corr_length,
                               n_modes=n_modes)
        config, draws, space = _gate_inputs(degree, nx, samples, seed, spec)
        report, groups = stochastic.gate_and_group(config, draws, space)
        full, sampling = _full_block(config, draws, space)
        assert report == estimate_bounds(full, sampling)
        assert groups == (partition_ensemble(full, sampling) if not report.satisfied
                          else [list(range(samples))])

    @pytest.mark.parametrize("degree, nx, samples, seed", [
        (1, 8, 60, 20240), (1, 12, 60, 3), (1, 4, 24, 1), (2, 6, 30, 17)])
    def test_report_and_groups_match_full_block(self, degree, nx, samples, seed):
        config, draws, space = _gate_inputs(degree, nx, samples, seed)
        report, groups = stochastic.gate_and_group(config, draws, space)
        full, sampling = _full_block(config, draws, space)
        assert report == estimate_bounds(full, sampling)
        assert groups == partition_ensemble(full, sampling)
        if seed == 20240:
            # a block spread by `[:, :, inverse]` is not C-ordered, and its mean
            # adds in another order: theta_plus would end in ...290p-1
            assert report.theta_plus.hex() == "0x1.4962eb508b292p-1"

    @pytest.mark.parametrize("degree, nx, distinct, points", [
        (1, 12, 51, 864), (1, 32, 131, 6144), (2, 16, 138, 3072)])
    def test_each_field_called_once_on_distinct_rows(self, monkeypatch, degree, nx, distinct,
                                                     points):
        config, draws, space = _gate_inputs(degree, nx, 3, 5)
        assert SamplingGrid.from_space(space).x.size == points
        calls = []
        sample = stochastic.sample_coefficient

        def counted_coefficient(spec, draw):
            coeff = sample(spec, draw)

            def field(x, y, t):
                calls.append((draw.index, np.size(x), np.size(y)))
                return coeff(x, y, t)
            return field

        monkeypatch.setattr(stochastic, "sample_coefficient", counted_coefficient)
        stochastic.gate_and_group(config, draws, space)
        assert sorted(calls) == [(j, distinct, distinct) for j in range(3)]


class TestSeparableMembers:
    """emc members hold their draws' expansions as separable fields with shared parts."""

    @settings(max_examples=40, deadline=None)
    @given(n_modes=st.integers(0, 4), samples=st.integers(1, 6), seed=st.integers(0, 2 ** 32),
           a0=st.floats(0.1, 5.0), sigma=st.floats(0.0, 2.0), corr_length=st.floats(0.05, 2.0),
           points=st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
                           min_size=1, max_size=20))
    def test_member_field_is_the_sampled_expansion(self, n_modes, samples, seed, a0, sigma,
                                                   corr_length, points):
        spec = RandomFieldSpec(a0=a0, sigma=sigma, corr_length=corr_length, n_modes=n_modes)
        config = EmcConfig(spec=spec, samples=samples, seed=seed)
        draws = draw_samples(seed, samples, n_modes)
        members = stochastic.build_emc_members(config, draws)
        x, y = np.array(points).T
        parts = members[0].a.terms
        assert len(parts) == spec.dimension
        for member, draw in zip(members, draws):
            # the parts are held by every member, so a run assembles each once
            assert all(p is q for (_, p), (_, q) in zip(member.a.terms, parts))
            assert all(_numeric_separable(getattr(member, kind)) for kind in "afg")
            reference = _reference_coefficient(spec, draw)(x, y, 0.0)
            assert (np.abs(member.a(x, y, 0.0) - reference).max()
                    <= 1e-14 * np.abs(reference).max())

    @settings(max_examples=40, deadline=None)
    @given(n_modes=st.integers(0, 4), samples=st.integers(1, 6), seed=st.integers(0, 2 ** 32),
           a0=st.floats(0.1, 5.0), sigma=st.floats(0.0, 2.0), corr_length=st.floats(0.05, 2.0))
    def test_sample_coefficient_is_the_member_field(self, n_modes, samples, seed, a0, sigma,
                                                     corr_length):
        # one definition: the gate's field is the member's, and a spec computes
        # its mode weights once however many draws it serves
        spec = RandomFieldSpec(a0=a0, sigma=sigma, corr_length=corr_length, n_modes=n_modes)
        draws = draw_samples(seed, samples, n_modes)
        with mock.patch.object(stochastic, "kl_eigenvalues", wraps=kl_eigenvalues) as lam:
            members = stochastic.build_emc_members(EmcConfig(spec=spec, samples=samples,
                                                             seed=seed), draws)
            fields = [sample_coefficient(spec, d) for d in draws]
        assert lam.call_count == 1
        for member, field in zip(members, fields):
            assert isinstance(field, fem.SeparableField)
            assert ([w.hex() for w, _ in field.terms]
                    == [w.hex() for w, _ in member.a.terms])
            assert all(p is q for (_, p), (_, q) in zip(field.terms, member.a.terms))

    @settings(max_examples=40, deadline=None)
    @given(n_modes=st.integers(0, 4), samples=st.integers(1, 6), seed=st.integers(0, 2 ** 32),
           degree=st.sampled_from([1, 2]), nx=st.integers(1, 6), a0=st.floats(0.1, 5.0),
           sigma=st.floats(0.0, 2.0), corr_length=st.floats(0.05, 2.0))
    def test_sampled_field_above_continuum_floor(self, n_modes, samples, seed, degree, nx,
                                                 a0, sigma, corr_length):
        # a_j >= a0 + s_0 y_0 - sum_i s_i sqrt(y_i^2 + y_(n+i)^2) everywhere, since
        # y_i cos(t) + y_(n+i) sin(t) >= -sqrt(y_i^2 + y_(n+i)^2)
        spec = RandomFieldSpec(a0=a0, sigma=sigma, corr_length=corr_length, n_modes=n_modes)
        config = EmcConfig(spec=spec, samples=samples, seed=seed, nx=nx, degree=degree)
        draws = draw_samples(seed, samples, n_modes)
        space = build_space(uniform_triangulation(nx, nx), degree)
        tab = space.tabulation(space.assembly_rule)
        s = sigma * np.sqrt(kl_eigenvalues(spec))
        for member, draw in zip(stochastic.build_emc_members(config, draws), draws):
            y = draw.y
            floor = (a0 + s[0] * y[0]
                     - (s[1:] * np.hypot(y[1:n_modes + 1], y[n_modes + 1:])).sum())
            scale = a0 + (s * np.abs(np.concatenate([[y[0]], np.hypot(
                y[1:n_modes + 1], y[n_modes + 1:])]))).sum()
            assert member.a(tab.xq, tab.yq, 0.0).min() >= floor - 8 * np.spacing(scale)


class TestQoi:
    def test_constant(self):
        space = build_space(uniform_triangulation(4, 4), 1)
        assert qoi_integral(space, np.ones(space.dof_count)) == pytest.approx(1.0)

    def test_nodal_linear(self):
        space = build_space(uniform_triangulation(4, 4), 1)
        assert qoi_integral(space, space.dof_coords[:, 0]) == pytest.approx(0.5)

    def test_zero_and_block(self):
        space = build_space(uniform_triangulation(2, 2), 1)
        block = np.column_stack([np.zeros(space.dof_count), np.ones(space.dof_count)])
        vals = qoi_integral(space, block)
        assert vals == pytest.approx([0.0, 1.0])


class TestRunEmc:
    def test_single_sample_degenerate_std(self):
        result = run_emc(tiny_config(samples=1))
        assert result.std_degenerate
        assert not result.std_field.any()
        assert np.array_equal(result.mean_field,
                              result.mean_field)  # finite, defined
        assert result.qoi_samples.shape == (1,)

    def test_statistics_match_numpy(self):
        config = tiny_config(samples=6)
        result = run_emc(config)
        # reconstruct the per-sample block via a second run's observer
        final = {}
        run_emc(config, observer=lambda st: final.__setitem__("u", st.u))
        u = final["u"]
        assert np.abs(result.mean_field - u.mean(axis=1)).max() < 1e-13
        assert np.abs(result.std_field - u.std(axis=1, ddof=1)).max() < 1e-13

    def test_static_run_assembles_each_part_once(self, monkeypatch):
        # emc data are time-free, so a run assembles its 2n+1 stiffness parts and
        # its boundary drive once, however many steps it takes
        config = tiny_config(samples=6, t_final=0.5)
        draws = draw_samples(config.seed, config.samples, config.spec.n_modes)
        for member in stochastic.build_emc_members(config, draws):
            assert all(_numeric_separable(getattr(member, kind)) for kind in "afg")
        stiffness, drives = [], []
        assemble, boundary_values = fem.assemble_stiffness, fem.DirichletConstraint.boundary_values
        monkeypatch.setattr(fem, "assemble_stiffness",
                            lambda *args: stiffness.append(args[1]) or assemble(*args))
        monkeypatch.setattr(fem.DirichletConstraint, "boundary_values",
                            lambda *args: drives.append(args[1]) or boundary_values(*args))
        assert run_emc(config).stats.factorizations == 10
        assert len(stiffness) == config.spec.dimension == 7 and len(drives) == 1

    def test_bitwise_reproducibility(self):
        a = json.dumps(run_emc(tiny_config()).to_json_dict())
        b = json.dumps(run_emc(tiny_config()).to_json_dict())
        assert a == b

    def test_result_holds_no_space(self):
        # a caller holding many results must not hold each run's cached operators
        result = run_emc(tiny_config())
        seen, stack = set(), [result]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                                   types.FunctionType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, FeSpace)
            stack.extend(gc.get_referents(obj))
        assert result.to_json_dict()["mesh"]["dof_count"] == result.dof_count == 25

    def test_stability_gate_refuses_wild_fields(self):
        config = tiny_config(spec=RandomFieldSpec(a0=3.0, sigma=1.0), samples=8, seed=3)
        with pytest.raises(StabilityError) as err:
            run_emc(config)
        assert not err.value.report.satisfied

    def test_partition_rescues_wild_fields(self):
        config = tiny_config(spec=RandomFieldSpec(a0=3.0, sigma=1.0), samples=8, seed=3,
                             partition=True)
        result = run_emc(config)
        assert len(result.groups) > 1
        assert sorted(i for g in result.groups for i in g) == list(range(8))
        assert np.isfinite(result.mean_field).all()

    def test_partitioned_observer_sees_full_block(self):
        config = tiny_config(spec=RandomFieldSpec(a0=3.0, sigma=1.0), samples=8, seed=3,
                             partition=True)
        seen = []
        result = run_emc(config, observer=lambda st: seen.append((st.n, st.u.copy())))
        assert len(result.groups) > 1
        assert [n for n, _ in seen] == list(range(config.time_grid().steps + 1))
        assert all(u.shape == (result.dof_count, 8) for _, u in seen)
        assert np.array_equal(seen[-1][1].mean(axis=1), result.mean_field)

    def test_partitioned_run_calls_each_coefficient_once(self, monkeypatch):
        # the gate, the partition and the stepper all read one evaluation
        calls = []
        sample = stochastic.sample_coefficient

        def counted_coefficient(spec, draw):
            coeff = sample(spec, draw)

            def counted(x, y, t):
                calls.append(draw.index)
                return coeff(x, y, t)
            return counted

        monkeypatch.setattr(stochastic, "sample_coefficient", counted_coefficient)
        config = tiny_config(spec=RandomFieldSpec(a0=3.0, sigma=1.0), samples=8, seed=3,
                             partition=True)
        result = run_emc(config)
        assert len(result.groups) > 1
        assert sorted(calls) == list(range(8))

    def test_stats_counters_accumulate(self):
        config = tiny_config(samples=3)
        result = run_emc(config)
        assert result.stats.factorizations == config.time_grid().steps
        assert result.stats.block_solves == config.time_grid().steps

    def test_wall_time_covers_the_gate(self, monkeypatch):
        # a slow coefficient makes the gate take measurable time
        def slow_coefficient(spec, draw):
            coeff = sample_coefficient(spec, draw)

            def slow(x, y, t):
                time.sleep(0.01)
                return coeff(x, y, t)
            return slow

        timed = {}

        def timed_gate(*args, **kwargs):
            start = time.perf_counter()
            out = gate(*args, **kwargs)
            timed["gate"] = time.perf_counter() - start
            return out

        def timed_solve(*args, **kwargs):
            out = solve(*args, **kwargs)
            timed["stepping"] = out[1].wall_time
            return out

        gate, solve = stochastic.gate_and_group, stochastic.solve_sampled_groups
        monkeypatch.setattr(stochastic, "sample_coefficient", slow_coefficient)
        monkeypatch.setattr(stochastic, "gate_and_group", timed_gate)
        monkeypatch.setattr(stochastic, "solve_sampled_groups", timed_solve)
        start = time.perf_counter()
        result = run_emc(tiny_config(samples=6))
        total = time.perf_counter() - start
        assert timed["gate"] >= 0.05
        assert timed["gate"] + timed["stepping"] <= result.stats.wall_time <= total

    def test_mismatched_dt_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            tiny_config(dt=0.03)

    @pytest.mark.parametrize("t_final", [math.inf, math.nan])
    def test_nonfinite_t_final_named(self, t_final):
        with pytest.raises(ValueError, match=f"^t_final must be positive and finite, "
                                             f"got {t_final}$"):
            tiny_config(t_final=t_final)

    @pytest.mark.parametrize("field", ["seed", "replica"])
    def test_negative_seed_or_replica_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field}=-1 .*must be non-negative"):
            tiny_config(**{field: -1})

    @pytest.mark.parametrize("make, kwargs, message", [
        (tiny_config, dict(seed=1.5), "seed must be an integer, got 1.5"),
        (tiny_config, dict(replica=1.9), "replica must be an integer, got 1.9"),
        (tiny_config, dict(samples=2.5), "samples must be an integer, got 2.5"),
        (tiny_config, dict(nx=2.5), "nx must be an integer, got 2.5"),
        (tiny_config, dict(degree=1.0), "degree must be an integer, got 1.0"),
        (RandomFieldSpec, dict(n_modes=2.0), "n_modes must be an integer, got 2.0"),
        (lambda **kw: mc_rate_study(tiny_config(), **kw),
         dict(j_list=[2, 4], j_benchmark=8, replicas=2.7), "replicas must be an integer, got 2.7"),
        (lambda **kw: mc_rate_study(tiny_config(), **kw),
         dict(j_list=[2, 4], j_benchmark=8.5, replicas=1),
         "j_benchmark must be an integer, got 8.5"),
        (lambda **kw: mc_rate_study(tiny_config(), **kw),
         dict(j_list=[2, 4.0], j_benchmark=8, replicas=1),
         r"j_list\[1\] must be an integer, got 4.0"),
    ], ids=["seed", "replica", "samples", "nx", "degree", "n_modes", "replicas", "j_benchmark",
            "j_list"])
    def test_non_integer_counts_seed_and_replica_named(self, make, kwargs, message):
        # a float count, seed or replica is refused, not truncated or left to fail in numpy
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(**kwargs)


class TestRateStudy:
    def test_log_fit_recovers_half_order(self):
        j = np.array([10.0, 20.0, 40.0, 80.0])
        slope, c = log_log_fit(j, 0.3 / np.sqrt(j))
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert c == pytest.approx(0.3, rel=1e-12)

    def test_benchmark_must_exceed_j_list(self):
        with pytest.raises(ValueError, match="benchmark"):
            mc_rate_study(tiny_config(), j_list=[10], j_benchmark=10, replicas=1)

    @pytest.mark.parametrize("j_list", [[2], [2, 2]])
    def test_fit_needs_two_distinct_counts(self, j_list):
        # a one-point log-log fit has no slope
        with pytest.raises(ValueError, match="two distinct sample counts"):
            mc_rate_study(tiny_config(), j_list=j_list, j_benchmark=4, replicas=1)

    def test_self_distance_is_zero(self):
        # identical trajectories have zero study distance by construction
        from ensfem.stochastic import _mean_trajectory
        config = tiny_config(samples=3)
        a = _mean_trajectory(config)
        b = _mean_trajectory(config)
        assert np.array_equal(a, b)

    def test_smoke_run_produces_schema(self):
        result = mc_rate_study(tiny_config(samples=4), j_list=[2, 4],
                               j_benchmark=8, replicas=2)
        assert result.j_values == [2, 4]
        assert len(result.e_l2) == 2 and len(result.e_h1) == 2
        assert all(v > 0 for v in result.e_l2)
        assert result.e_l2[1] != result.e_l2[0]
        lines = result.csv_lines()
        assert lines[0] == "J,E_L2,E_H1"
        footer = result.footer_dict()
        assert set(footer) == {"slope_L2", "slope_H1", "fit_c_L2"}
