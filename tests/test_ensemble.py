import dataclasses
import functools
import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ensfem import fem, sparse
from ensfem.ensemble import (EnsembleMember, EnsembleProblem, TimeGrid,
                             _GroupedStepper, ensemble_solve, independent_solve)
from ensfem.fem import (assemble_load, assemble_mass, assemble_stiffness, build_space,
                        coefficient_values, constant_field, error_l2, zero_field)
from ensfem.harness import run_compare
from ensfem.mesh import BoundaryTag, uniform_triangulation
from ensfem.stochastic import EmcConfig, RandomFieldSpec, run_emc

from _dense_oracle import eliminate, shared_matrix_step


def heat_member(a=1.0, f=None, g=None, u0=None):
    return EnsembleMember(a=constant_field(a), f=f or zero_field,
                          g=g or zero_field, u0=u0 or zero_field)


def small_problem(members, nx=4, degree=1, t_final=0.5, steps=5):
    space = build_space(uniform_triangulation(nx, nx), degree)
    return EnsembleProblem(members=members, space=space,
                           grid=TimeGrid(t_final=t_final, steps=steps))


def member_rows(stiffness, columns):
    """The stiffness data of each column of an interleaved block diagonal, shape (columns,
    entries): column i's row k is matrix row k*columns + i, its entries in slot order."""
    rows = np.split(stiffness.data, stiffness.indptr[1:-1])
    return np.array([np.concatenate(rows[i::columns]) for i in range(columns)])


def run_levels(solver, problem, **kwargs):
    """Every level n = 0..N of a run, as its observer sees them, and the run's stats."""
    levels = []
    _, stats = solver(problem, observer=levels.append, **kwargs)
    return levels, stats


class TestTimeGrid:
    def test_spacing(self):
        grid = TimeGrid(t_final=1.0, steps=4)
        assert grid.dt == 0.25
        assert np.allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(t_final=1.0, steps=0)

    @pytest.mark.parametrize("t_final, steps, message", [
        (math.inf, 4, "t_final must be positive and finite, got inf"),
        (math.nan, 4, "t_final must be positive and finite, got nan"),
        (1.0, 2.5, "steps must be a positive integer, got 2.5"),
        (1.0, 2.0, "steps must be a positive integer, got 2.0"),
    ], ids=["t_final-inf", "t_final-nan", "steps-2.5", "steps-2.0"])
    def test_invalid_values_named(self, t_final, steps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TimeGrid(t_final=t_final, steps=steps)


# time-dependent members for the dense reference path of `_dense_oracle`
DENSE_MEMBERS = [
    dict(a=lambda x, y, t: 1.0 + 0.4 * np.sin(np.asarray(x) + t),
         f=lambda x, y, t: np.asarray(x) * np.asarray(y) + t,
         g=lambda x, y, t: 0.2 * np.asarray(y) * t),
    dict(a=lambda x, y, t: 2.0 + 0.3 * np.asarray(y),
         f=lambda x, y, t: np.cos(np.asarray(y)) - 0.5 * t,
         g=lambda x, y, t: 0.1 * np.asarray(x) ** 2),
]


class TestSingleStep:
    """One step of `ensemble_solve` from the projected initial data."""

    def test_single_member_equals_backward_euler(self):
        member = EnsembleMember(
            a=lambda x, y, t: 1.0 + 0.5 * np.asarray(x),
            f=lambda x, y, t: np.cos(np.asarray(y)) + t,
            g=lambda x, y, t: 0.1 * t * np.ones(np.shape(x)),
            u0=lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y))
        problem = small_problem([member], nx=4, steps=1)
        start, stepped = run_levels(ensemble_solve, problem)[0]
        manual = _independent_step(problem, start)
        assert np.abs(stepped.u - manual).max() < 1e-12

    def test_equal_coefficients_collapse_to_shared_step(self):
        members = [heat_member(2.0, u0=lambda x, y, t: x * (1 - x) * y * (1 - y))
                   for _ in range(3)]
        problem = small_problem(members, steps=1)
        stepped = ensemble_solve(problem)[0]
        assert stepped.u.any()
        assert np.abs(stepped.u - stepped.u[:, [0]]).max() < 1e-12

    def test_matches_dense_reimplementation(self):
        mesh = uniform_triangulation(2, 2)
        space = build_space(mesh, 1)
        members = DENSE_MEMBERS
        starts = (lambda x, y, t: np.sin(3.0 * x) * np.cos(2.0 * y),
                  lambda x, y, t: x * y - 0.5 * x)
        ens_members = [EnsembleMember(a=m["a"], f=m["f"], g=m["g"], u0=u0)
                       for m, u0 in zip(members, starts)]
        problem = EnsembleProblem(members=ens_members, space=space,
                                  grid=TimeGrid(t_final=0.1, steps=1))
        start, stepped = run_levels(ensemble_solve, problem)[0]
        bdofs = space.tagged_dofs(tuple(BoundaryTag))
        ref = shared_matrix_step(mesh.vertices, mesh.triangles, members, start.u,
                                 dt=0.1, t1=0.1, bdofs=bdofs)
        assert np.abs(stepped.u - ref).max() < 1e-12

    def test_nonfinite_rhs_names_member(self):
        members = [heat_member(), heat_member(f=lambda x, y, t: np.full(np.shape(x), np.nan))]
        problem = small_problem(members, steps=1)
        with pytest.raises(ValueError, match="member 1 at step 1"):
            ensemble_solve(problem)

    def test_nonfinite_rhs_named_under_a_partition(self, monkeypatch):
        # the stepper's column i is member order[i], here [3, 2, 0, 1]: an error
        # names the member, not its column, whether the source is caught where its
        # load is assembled or a non-finite load reaches the right-hand side block
        nan = lambda x, y, t: np.full(np.shape(x), np.nan)
        members = [heat_member(f=constant_field(1.0)) for _ in range(4)]
        members[2] = heat_member(f=nan)
        problem = small_problem(members, steps=1)
        groups = [[3, 2], [0, 1]]
        with pytest.raises(ValueError, match="member 2 at step 1"):
            ensemble_solve(problem, groups=groups)
        assemble_load = fem.assemble_load
        monkeypatch.setattr(fem, "assemble_load", lambda space, field, t: np.full(
            space.dof_count, np.nan) if field is nan else assemble_load(space, field, t))
        with pytest.raises(ValueError,
                           match="^non-finite right-hand side for member 2 at step 1$"):
            ensemble_solve(problem, groups=groups)

    def test_indefinite_system_reports_step(self):
        member = heat_member(a=-50.0)  # strongly negative diffusion: system loses SPD
        problem = small_problem([member], steps=1)
        with pytest.raises(sparse.NotSpdError, match="step 1"):
            ensemble_solve(problem)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_block_fluctuation_matches_member_loop(self, degree):
        members = [EnsembleMember(
            a=lambda x, y, t, c=c: 1.0 + c * np.sin(np.asarray(x) * np.asarray(y) + t),
            f=zero_field, g=zero_field, u0=zero_field) for c in (0.6, 0.2, 0.35, 0.9)]
        problem = small_problem(members, nx=4, degree=degree)
        space, t1 = problem.space, problem.grid.dt
        u = np.random.default_rng(4).normal(size=(space.dof_count, len(members)))
        data = []
        for groups in ([[0, 1, 2, 3]], [[0, 2], [3, 1]], [[0], [1], [2], [3]]):
            stepper = _GroupedStepper(problem, groups)
            _, stiffness, _, _ = stepper._pieces(1)
            # the stepper holds its columns in group order: column i is member order[i]
            assert np.array_equal(stepper.order, np.concatenate(groups))
            # members interleaved in the solver's layout: the product reads and writes
            # the C-ordered block, and its rows past the free ones are empty
            held = np.zeros((stiffness.shape[0] // len(members), len(members)))
            held[stepper.position] = u
            block = (stiffness @ held.ravel()).reshape(held.shape)
            free = stepper.constraint.free
            assert not block[free.size:].any()
            for i, j in enumerate(stepper.order):
                # every run holds -A(a_j), so the product is -A(a_j) u
                loop = -(assemble_stiffness(space, members[j].a, t1) @ u[:, i])
                assert np.abs(block[:free.size, i] - loop[free]).max() < 1e-13
            data.append(member_rows(stiffness, len(members))[np.argsort(stepper.order)])
        # column i's rows are member order[i]'s own stiffness, whatever the grouping
        assert all(np.array_equal(data[0], other) for other in data[1:])

    def test_nonfinite_coefficient_names_member(self):
        members = [heat_member(), EnsembleMember(
            a=lambda x, y, t: np.full(np.shape(x), np.inf), f=zero_field, g=zero_field,
            u0=zero_field)]
        problem = small_problem(members, steps=1)
        with pytest.raises(ValueError, match="member 1 at step 1"):
            ensemble_solve(problem)


def _independent_step(problem, state):
    """One backward-Euler step of every member from a state in DOF order."""
    stepper = _GroupedStepper(problem, [[j] for j in range(problem.size)])
    held = stepper.initial_state()
    held.u[stepper.position] = state.u  # into the stepper's layout
    return stepper.handed_out(stepper.step(held)).u


class TestSolvers:
    def test_independent_nonfinite_data_names_member_and_step(self):
        nan = lambda x, y, t: np.full(np.shape(x), np.nan)
        # a source is checked where its load is assembled
        problem = small_problem([heat_member(), heat_member(f=nan)])
        with pytest.raises(ValueError, match="member 1"):
            independent_solve(problem)
        # boundary data are checked where their values are taken, from step 0 on
        problem = small_problem([heat_member(), heat_member(g=nan)])
        with pytest.raises(ValueError, match="member 1 at step 0: boundary data"):
            independent_solve(problem)

    @pytest.mark.parametrize("solver", [ensemble_solve, independent_solve])
    def test_boundary_data_nonfinite_at_final_time(self, solver):
        # g turns NaN at t = T only: the last step must not be solved silently
        late = lambda x, y, t: np.full(np.shape(x), np.nan if t >= 0.5 else 0.1)
        problem = small_problem([heat_member(), heat_member(g=late)], t_final=0.5, steps=5)
        with pytest.raises(ValueError, match="member 1 at step 5: boundary data"):
            solver(problem)

    def test_independent_indefinite_system_names_member_and_step(self):
        problem = small_problem([heat_member(), heat_member(a=-50.0)], steps=2)
        with pytest.raises(sparse.NotSpdError, match="member 1 not SPD at step 1"):
            independent_solve(problem)

    def test_indefinite_group_named(self):
        problem = small_problem([heat_member(), heat_member(-80.0), heat_member(-80.0)])
        with pytest.raises(sparse.NotSpdError, match=r"group 1 \(2 members\) not SPD at step 1"):
            ensemble_solve(problem, groups=[[0], [1, 2]])

    @pytest.mark.parametrize("groups", [[], [[0, 1]], [[0], [0, 1, 2]], [[0, 1, 2], []],
                                        [[0, 1], [3]], [[0.0, 1.0, 2.0]]])
    def test_groups_must_cover_members_once(self, groups):
        problem = small_problem([heat_member()] * 3)
        with pytest.raises(ValueError, match="exactly once"):
            ensemble_solve(problem, groups=groups)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), count=st.integers(1, 6))
    def test_groups_step_in_lockstep(self, data, count):
        # each group's columns are those of a separate run of that group alone,
        # bit for bit, whatever the partition and the order of its groups and
        # members; singleton groups are the backward-Euler run. The members are
        # plain callables, then with f, g and u0 as separable fields mixed
        # per level, g with a callable weight: g moves, so every group
        # lifts nonzero boundary increments at every step. In the third set f,
        # g and u0 alternate between plain and separable across the members, so
        # each kind has several classes of columns mixed apart. a stays plain:
        # a one-column run mixes a separable a by a one-row matrix product, which
        # can differ in the last bit from that row of a wider product
        plain = [EnsembleMember(a=lambda x, y, t, c=c: 1.0 + c * np.asarray(y) + 0.1 * t,
                                f=lambda x, y, t, c=c: c * np.asarray(x),
                                g=lambda x, y, t, c=c: c * t * np.ones(np.shape(x)),
                                u0=lambda x, y, t, c=c: c * np.sin(np.pi * x) * y)
                 for c in (0.2, 0.7, 0.4, 0.9, 0.5, 0.3)[:count]]
        one, x_part = lambda x, y: np.ones(np.shape(x)), lambda x, y: np.asarray(x)
        wave = lambda x, y: np.sin(np.pi * x) * y
        separable = [dataclasses.replace(
            member, f=fem.SeparableField(((c, x_part),)),
            g=fem.SeparableField(((lambda t, c=c: c * t, one),)),
            u0=fem.SeparableField(((c, wave),)))
            for member, c in zip(plain, (0.2, 0.7, 0.4, 0.9, 0.5, 0.3))]
        plain_kinds = (("g",), ("f", "u0"), ("g", "u0"), ("f",), ("g",), ("f", "u0"))
        alternating = [dataclasses.replace(sep, **{kind: getattr(member, kind) for kind in kinds})
                       for member, sep, kinds in zip(plain, separable, plain_kinds)]
        order = data.draw(st.permutations(range(count)))
        cuts = sorted(data.draw(st.sets(st.integers(1, count - 1))) if count > 1 else [])
        groups = [order[a:b] for a, b in zip([0, *cuts], [*cuts, count])]
        for members in (plain, separable, alternating):
            problem = small_problem(members, nx=5, steps=4)
            traj, stats = run_levels(ensemble_solve, problem, groups=groups)
            assert [st.u.shape for st in traj] == [(problem.space.dof_count, count)] * 5
            assert stats.factorizations == stats.block_solves == 4 * len(groups)
            for group in groups:
                alone, _ = run_levels(ensemble_solve, EnsembleProblem(
                    members=[members[j] for j in group], space=problem.space,
                    grid=problem.grid))
                for mine, ref in zip(traj, alone):
                    assert np.array_equal(mine.u[:, group], ref.u)
            singletons, _ = run_levels(ensemble_solve, problem, groups=[[j] for j in order])
            independent, _ = run_levels(independent_solve, problem)
            for mine, ref in zip(singletons, independent):
                assert np.array_equal(mine.u, ref.u)

    @pytest.mark.parametrize("solver", [ensemble_solve, independent_solve])
    def test_finished_run_frees_its_stepper(self, monkeypatch, solver):
        # a run's stepper holds its matrices and member data; a reference cycle
        # through it would keep them alive until the cycle collector runs, which
        # large arrays do not trigger, so runs in a loop would pile up memory.
        # The members are time-dependent, so the stepper keeps its data to the end
        steppers, init = [], _GroupedStepper.__init__
        monkeypatch.setattr(_GroupedStepper, "__init__", lambda self, *args: steppers.append(
            weakref.ref(self)) or init(self, *args))
        members = [heat_member(f=lambda x, y, t: t * np.asarray(x)), EnsembleMember(
            a=lambda x, y, t: 1.0 + t * np.asarray(y), f=_separable([1.0]), g=zero_field,
            u0=lambda x, y, t: np.asarray(x) * y)]
        gc.disable()
        try:
            final, _ = solver(small_problem(members, steps=3))
            assert final.u.any() and len(steppers) == 1 and steppers[0]() is None
        finally:
            gc.enable()

    def test_observer_and_trajectory_policy(self):
        # the observer is the only trajectory: it sees every level n = 0..N, and
        # the run returns the final state alone, equal to the last level seen
        problem = small_problem([heat_member(f=constant_field(1.0))], steps=4)
        for solver in (ensemble_solve, independent_solve):
            levels, _ = run_levels(solver, problem)
            final, _ = solver(problem)
            assert [st.n for st in levels] == [0, 1, 2, 3, 4]
            assert final.n == 4 and final.t == levels[-1].t
            assert final.u.any() and final.u.tobytes() == levels[-1].u.tobytes()

    @pytest.mark.parametrize("grouped", [False, True])
    def test_observer_writes_leave_the_run_alone(self, grouped):
        # an observer gets a copy of every level in member order: writing into
        # it (here NaN, which a later step would refuse) changes neither the
        # later steps nor the returned final state
        members = [heat_member(1.0 + 0.3 * k, f=constant_field(1.0 + k), g=constant_field(0.5),
                               u0=lambda x, y, t, k=k: np.sin(np.pi * x) * y + k)
                   for k in range(3)]
        problem = small_problem(members, steps=3)
        seen = []

        def observe_then_write(state):
            seen.append(dataclasses.replace(state, u=state.u.copy()))
            state.u.fill(np.nan)

        groups = [[2, 0], [1]] if grouped else [[0], [1], [2]]
        solver = functools.partial(ensemble_solve, groups=groups) if grouped else independent_solve
        final, _ = solver(problem, observer=observe_then_write)
        assert [st.n for st in seen] == [0, 1, 2, 3]
        assert final.n == 3 and final.t == seen[-1].t
        assert final.u.tobytes() == seen[-1].u.tobytes()
        for group in groups:  # in member order: each group's columns are its run alone
            alone, _ = run_levels(ensemble_solve, EnsembleProblem(
                members=[members[j] for j in group], space=problem.space, grid=problem.grid))
            assert all(np.array_equal(mine.u[:, group], ref.u) for mine, ref in zip(seen, alone))

    def test_zero_data_stays_zero(self):
        problem = small_problem([heat_member(), heat_member(3.0)])
        traj, _ = run_levels(ensemble_solve, problem)
        assert all(not st.u.any() for st in traj)

    def test_zero_source_keeps_the_signs_of_zeros(self, monkeypatch):
        # zero sources hold no load block: 0 - A u0 must give the bytes that
        # zero loads minus A u0 give, -0.0 included (-(A u0) would flip +0.0).
        # A level adds u(t0) to the solved increment, and +0.0 + -0.0 is +0.0,
        # so the solves' right-hand sides are compared as well as the levels
        zeros = lambda x, y, t: np.zeros(np.shape(x))
        solve, seen = sparse.CholeskyFactor.solve, []
        monkeypatch.setattr(sparse.CholeskyFactor, "solve", lambda factor, b, **options:
                            seen[-1].append(b.tobytes()) or solve(factor, b, **options))
        levels = []
        for f in (zero_field, zeros):
            members = [EnsembleMember(a=constant_field(1.0 + 0.5 * k), f=f,
                                      g=lambda x, y, t, k=k: (k - 1.0) * t * np.asarray(y),
                                      u0=zero_field) for k in range(3)]
            problem = dataclasses.replace(small_problem(members, steps=4),
                                          dirichlet_tags=(BoundaryTag.LEFT,))
            seen.append([])
            levels.append(run_levels(ensemble_solve, problem, groups=[[0, 2], [1]])[0])
        assert [st.u.tobytes() for st in levels[0]] == [st.u.tobytes() for st in levels[1]]
        assert len(seen[0]) == 8 and seen[0] == seen[1]
        assert any(np.signbit(st.u[st.u == 0.0]).any() for st in levels[0])

    def test_j1_paths_identical(self):
        member = EnsembleMember(a=lambda x, y, t: 1.0 + 0.2 * np.asarray(y) + 0.1 * t,
                                f=lambda x, y, t: np.asarray(x) + np.asarray(y),
                                g=lambda x, y, t: 0.05 * t * np.ones(np.shape(x)),
                                u0=lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y))
        problem = small_problem([member], nx=8, steps=20, t_final=1.0)
        te, _ = run_levels(ensemble_solve, problem)
        ti, _ = run_levels(independent_solve, problem)
        gap = max(np.abs(a.u - b.u).max() for a, b in zip(te, ti))
        assert gap < 1e-12

    def test_equal_coefficients_degeneracy(self):
        # same diffusion everywhere, different sources and initial data
        members = [
            EnsembleMember(a=constant_field(1.5),
                           f=lambda x, y, t: np.asarray(x) * t, g=zero_field,
                           u0=lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y)),
            EnsembleMember(a=constant_field(1.5),
                           f=lambda x, y, t: np.cos(np.asarray(y)), g=zero_field,
                           u0=lambda x, y, t: x * (1 - x) * y * (1 - y)),
        ]
        problem = small_problem(members, nx=6, steps=8)
        te, _ = run_levels(ensemble_solve, problem)
        ti, _ = run_levels(independent_solve, problem)
        gap = max(np.abs(a.u - b.u).max() for a, b in zip(te, ti))
        assert gap < 1e-12

    def test_eigenmode_decay_factor(self):
        # heat equation, dominant mode decays by 1/(1 + 2 pi^2 dt) per step
        dt = 0.01
        member = EnsembleMember(a=constant_field(1.0), f=zero_field, g=zero_field,
                                u0=lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y))
        space = build_space(uniform_triangulation(16, 16), 2)
        problem = EnsembleProblem(members=[member], space=space,
                                  grid=TimeGrid(t_final=0.1, steps=10))
        traj, _ = run_levels(ensemble_solve, problem)
        norms = [error_l2(space, st.u[:, 0], None) for st in traj]
        expected = 1.0 / (1.0 + 2.0 * math.pi ** 2 * dt)
        for prev, cur in zip(norms, norms[1:]):
            assert cur / prev == pytest.approx(expected, rel=0.10)

    def test_counting_laws(self):
        for steps, j in ((10, 3), (20, 8)):
            members = [heat_member(1.0 + 0.1 * k,
                                   u0=lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y))
                       for k in range(j)]
            problem = small_problem(members, nx=4, steps=steps, t_final=1.0)
            _, stats_e = ensemble_solve(problem)
            assert stats_e.factorizations == steps
            assert stats_e.block_solves == steps
            _, stats_i = independent_solve(problem)
            assert stats_i.factorizations == steps * j

    def test_stats_count_only_the_run(self):
        # a run started by another run's observer adds nothing to the outer counts
        inner = small_problem([heat_member(), heat_member(2.0)], steps=5)
        outer = small_problem([heat_member()], steps=3)
        _, stats = ensemble_solve(outer, observer=lambda st: ensemble_solve(inner))
        assert (stats.factorizations, stats.block_solves) == (3, 3)

    def test_stats_json_schema(self):
        problem = small_problem([heat_member()], steps=3)
        _, stats = ensemble_solve(problem)
        record = json.loads(json.dumps(stats.to_json_dict()))
        assert set(record) == {"factorizations", "block_solves", "wall_time_s"}
        assert record["factorizations"] == 3

    def test_shared_load_assembled_once(self, monkeypatch):
        calls = []
        original = fem.assemble_load
        monkeypatch.setattr(fem, "assemble_load",
                            lambda *args: calls.append(args[1]) or original(*args))
        source = lambda x, y, t: np.asarray(x) * (1.0 + t)
        start = lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y)
        members = [EnsembleMember(a=constant_field(1.0 + 0.1 * k), f=source, g=zero_field,
                                  u0=start) for k in range(6)]
        problem = small_problem(members, steps=3)
        for solver in (ensemble_solve, independent_solve):
            calls.clear()
            traj, _ = run_levels(solver, problem)
            assert calls == [start] + [source] * 3  # one per time level, not per member
            first = traj[0].u
            assert np.array_equal(first, np.repeat(first[:, :1], len(members), axis=1))


class TestFixedPattern:
    """A run builds the system structure once and refills only its data per step."""

    @staticmethod
    def time_dependent_problem(steps):
        members = [EnsembleMember(a=m["a"], f=m["f"], g=m["g"],
                                  u0=lambda x, y, t: np.asarray(x) * np.asarray(y))
                   for m in DENSE_MEMBERS]
        mesh = uniform_triangulation(2, 2)
        return mesh, EnsembleProblem(members=members, space=build_space(mesh, 1),
                                     grid=TimeGrid(t_final=0.1 * steps, steps=steps))

    @pytest.mark.parametrize("solver, per_step", [(ensemble_solve, 1), (independent_solve, 2),
                                                  pytest.param(run_emc, None, id="run_emc")])
    def test_structure_built_once(self, monkeypatch, solver, per_step):
        orderings, constraints = [], []
        rcm = sparse.reverse_cuthill_mckee
        monkeypatch.setattr(sparse, "reverse_cuthill_mckee",
                            lambda *args, **kw: orderings.append(1) or rcm(*args, **kw))
        init = fem.DirichletConstraint.__init__

        def counted(self, *args, **kw):
            constraints.append(1)
            init(self, *args, **kw)

        monkeypatch.setattr(fem.DirichletConstraint, "__init__", counted)
        if solver is run_emc:
            # the wild fields of the partition test: several groups step in lockstep
            config = EmcConfig(spec=RandomFieldSpec(a0=3.0, sigma=1.0), samples=8, seed=3,
                               nx=4, dt=0.05, t_final=0.2, partition=True)
            result = run_emc(config)
            assert len(result.groups) >= 2
            stats, want = result.stats, config.time_grid().steps * len(result.groups)
        else:
            _, problem = self.time_dependent_problem(steps=6)
            _, stats = solver(problem)
            want = 6 * per_step
        assert stats.factorizations == want
        # the stepping system, and the initial mass projection unless every u0 is
        # zero, as it is for the emc members
        assert len(orderings) == (1 if solver is run_emc else 2)
        assert len(constraints) == 1

    def test_runs_match_dense_steps(self):
        # every refilled step against a dense rebuild of that step; a one-member
        # group of the shared scheme is backward Euler for that member
        mesh, problem = self.time_dependent_problem(steps=4)
        bdofs = problem.space.tagged_dofs(tuple(BoundaryTag))

        def dense_step(members, u, t1):
            return shared_matrix_step(mesh.vertices, mesh.triangles, members, u,
                                      dt=0.1, t1=t1, bdofs=bdofs)

        shared, _ = run_levels(ensemble_solve, problem)
        independent, _ = run_levels(independent_solve, problem)
        for prev, cur in zip(shared, shared[1:]):
            assert np.abs(cur.u - dense_step(DENSE_MEMBERS, prev.u, cur.t)).max() < 1e-12
        for prev, cur in zip(independent, independent[1:]):
            ref = np.column_stack([dense_step([m], prev.u[:, [j]], cur.t)
                                   for j, m in enumerate(DENSE_MEMBERS)])
            assert np.abs(cur.u - ref).max() < 1e-12


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(sparse.TILE, sparse.TILE + 8))
def test_member_permutation_permutes_columns(seed, count):
    # J >= TILE, the tiled_columns of the 8 x 8 P1 system (band width 7; pinned in
    # test_sparse), so every block solve runs the tiled path
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.0, 0.4, count)
    loads = rng.uniform(-1.0, 1.0, count)
    members = [EnsembleMember(
        a=lambda x, y, t, c=c: 1.0 + c * np.sin(3.0 * np.asarray(x) + np.asarray(y)),
        f=lambda x, y, t, s=s: s * np.ones(np.shape(x)), g=zero_field,
        u0=lambda x, y, t, s=s: s * np.sin(np.pi * x) * np.sin(np.pi * y))
        for c, s in zip(scales, loads)]
    order = rng.permutation(count)
    space = build_space(uniform_triangulation(8, 8), 1)
    grid = TimeGrid(t_final=0.1, steps=3)
    final = [ensemble_solve(EnsembleProblem(members=ms, space=space, grid=grid))[0].u
             for ms in (members, [members[k] for k in order])]
    assert np.abs(final[1] - final[0][:, order]).max() <= 1e-12


def paper_form_step(space, members, u_prev, dt, t1, bdofs):
    """One group step in the paper's form, dense, from the package's assembled matrices."""
    mass = assemble_mass(space).toarray()
    a_bar = assemble_stiffness(space, np.mean(
        [coefficient_values(space, m["a"], t1) for m in members], axis=0), t1).toarray()
    out = np.empty_like(u_prev)
    for j, member in enumerate(members):
        a_j = assemble_stiffness(space, member["a"], t1).toarray()
        rhs = (assemble_load(space, member["f"], t1) + mass @ u_prev[:, j] / dt
               - (a_j - a_bar) @ u_prev[:, j])
        gvals = member["g"](*space.dof_coords[bdofs].T, t1)
        out[:, j] = np.linalg.solve(*eliminate(mass / dt + a_bar, rhs, bdofs, gvals))
    return out


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), degree=st.sampled_from([1, 2]), nx=st.integers(1, 4),
       ny=st.integers(1, 4), steps=st.integers(1, 2),
       tags=st.sets(st.sampled_from(list(BoundaryTag)), min_size=1),
       scales=st.lists(st.floats(0.05, 0.9), min_size=1, max_size=6))
def test_increment_steps_match_paper_form(data, degree, nx, ny, steps, tags, scales):
    # time-dependent a, f and g, so every step lifts a nonzero boundary increment;
    # random labels give partitions with and without singletons
    labels = data.draw(st.lists(st.integers(0, len(scales) - 1), min_size=len(scales),
                                max_size=len(scales)))
    groups = [[j for j, k in enumerate(labels) if k == label] for label in sorted(set(labels))]
    members = [dict(a=lambda x, y, t, c=c: 1.0 + c * np.sin(3.0 * np.asarray(x) - y + 4.0 * t),
                    f=lambda x, y, t, c=c: np.cos(c * np.asarray(x) + t) - y,
                    g=lambda x, y, t, c=c: c * np.asarray(x) * y + np.sin(2.0 * t + c))
               for c in scales]
    mesh = uniform_triangulation(nx, ny, (0.0, 1.5, -0.5, 0.5))
    space = build_space(mesh, degree)
    problem = EnsembleProblem(
        members=[EnsembleMember(u0=lambda x, y, t, c=c: c * np.cos(x + 2.0 * y), **m)
                 for c, m in zip(scales, members)],
        space=space, grid=TimeGrid(t_final=0.05 * steps, steps=steps),
        dirichlet_tags=tuple(tags))
    bdofs = space.tagged_dofs(tags)
    traj, _ = run_levels(ensemble_solve, problem, groups=groups)
    for prev, cur in zip(traj, traj[1:]):
        for group in groups:
            group_members = [members[j] for j in group]
            if degree == 1:
                ref = shared_matrix_step(mesh.vertices, mesh.triangles, group_members,
                                         prev.u[:, group], dt=0.05, t1=cur.t, bdofs=bdofs)
            else:
                ref = paper_form_step(space, group_members, prev.u[:, group], 0.05, cur.t,
                                      bdofs)
            assert np.abs(cur.u[:, group] - ref).max() < 1e-12


class TestInitialState:
    def test_zero_initial_data_factorizes_only_the_steps(self):
        # the projection of zero data is zero: from u0 = 0 a run factorizes its
        # N * groups stepping systems and no mass matrix
        members = [heat_member(1.0 + 0.1 * k, f=constant_field(1.0), g=constant_field(0.5))
                   for k in range(3)]
        problem = small_problem(members, steps=4)
        before = sparse.counters().factorizations
        traj, _ = run_levels(ensemble_solve, problem, groups=[[0, 2], [1]])
        assert sparse.counters().factorizations - before == 4 * 2
        space = problem.space
        interior = np.setdiff1d(np.arange(space.dof_count), space.tagged_dofs(tuple(BoundaryTag)))
        assert not traj[0].u[interior].any()

    def test_projection_with_boundary_overwrite(self):
        # u0 is a polynomial the space reproduces; boundary DOFs carry g(., 0)
        poly = lambda x, y, t: 2.0 * x - y + 0.25
        member = EnsembleMember(a=constant_field(1.0), f=zero_field,
                                g=constant_field(7.0), u0=poly)
        problem = small_problem([member], nx=4, steps=1)
        traj, _ = run_levels(ensemble_solve, problem)
        initial = traj[0].u[:, 0]
        space = problem.space
        bdofs = space.tagged_dofs(problem.dirichlet_tags)
        assert np.allclose(initial[bdofs], 7.0)
        interior = np.setdiff1d(np.arange(space.dof_count), space.tagged_dofs(tuple(BoundaryTag)))
        exact = poly(space.dof_coords[interior, 0], space.dof_coords[interior, 1], 0.0)
        assert np.abs(initial[interior] - exact).max() < 1e-10

    def test_mixed_initial_data_projected_as_one_block(self):
        # a zero u0, one u0 two members share and one of its own: one mass
        # factorization projects them all, each column as its own projection
        shared = lambda x, y, t: np.sin(np.pi * x) * y
        own = lambda x, y, t: x * x - 0.5 * y + 0.2
        g = lambda x, y, t: 0.3 + np.asarray(x) * y
        members = [heat_member(1.0 + 0.2 * k, g=g, u0=u0)
                   for k, u0 in enumerate((None, shared, shared, own))]
        problem = small_problem(members, steps=1)
        before = sparse.counters().factorizations
        traj, stats = run_levels(ensemble_solve, problem, groups=[[3, 1], [0, 2]])
        assert sparse.counters().factorizations - before - stats.factorizations == 1
        space, initial = problem.space, traj[0].u
        bdofs = space.tagged_dofs(problem.dirichlet_tags)
        free = np.setdiff1d(np.arange(space.dof_count), bdofs)
        project = fem.mass_solver(assemble_mass(space))
        for j, member in enumerate(members):
            projection = project(assemble_load(space, member.u0, 0.0))
            assert np.array_equal(initial[free, j], projection[free])
            assert np.array_equal(initial[bdofs, j], g(*space.dof_coords[bdofs].T, 0.0))

    def test_shared_initial_datum_projected_once(self):
        # 40 members holding one u0: one mass factorization and one single-column
        # solve, the projection spread to every column
        shared = lambda x, y, t: np.sin(np.pi * x) * y
        members = [heat_member(1.0 + 0.01 * k, u0=shared) for k in range(40)]
        problem = small_problem(members, nx=6, steps=1)
        stepper = _GroupedStepper(problem, [range(20, 40), range(20)])
        before = sparse.counters()
        initial = stepper.handed_out(stepper.initial_state()).u
        after = sparse.counters()
        assert after.factorizations - before.factorizations == 1
        assert after.block_solves - before.block_solves == 1
        assert after.rhs_columns - before.rhs_columns == 1
        free, space = stepper.constraint.free, problem.space
        projection = fem.mass_solver(assemble_mass(space))(assemble_load(space, shared, 0.0))[free]
        assert initial.shape == (space.dof_count, 40)
        for column in initial.T:
            assert np.array_equal(column[free], projection)


# spatial parts that the separable members below share
SPATIAL_PARTS = (lambda x, y: np.ones(np.shape(x)),
                 lambda x, y: np.asarray(x) * np.asarray(y) - 0.5,
                 lambda x, y: np.sin(np.asarray(x) + 2.0 * np.asarray(y)),
                 lambda x, y: np.cos(3.0 * np.asarray(x)) * np.asarray(y))


def _separable(weights, parts=SPATIAL_PARTS):
    return fem.SeparableField(tuple(zip(weights, parts)))


def _as_plain(field):
    return lambda x, y, t: field(x, y, t)


class TestSeparableData:
    """Members whose data are sums of time weights times spatial parts."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), degree=st.sampled_from([1, 2]), nx=st.integers(1, 3),
           count=st.integers(1, 4), static=st.booleans(), grouped=st.booleans())
    def test_separable_members_match_plain_closures(self, data, degree, nx, count, static,
                                                    grouped):
        # each member's a, f, g and u0 is a random combination of the shared
        # parts; the run with some members separable matches the run with every
        # field written as a plain closure of the same sum, at every level
        coefficient = st.floats(-1.0, 1.0)

        def weights(scale, timed):
            draws = [data.draw(coefficient) * scale for _ in SPATIAL_PARTS]
            if not timed:
                return draws
            rates = [data.draw(st.floats(0.0, 6.0)) for _ in SPATIAL_PARTS]
            return [lambda t, w=w, r=r: w * math.cos(r * t) for w, r in zip(draws, rates)]

        members = []
        for _ in range(count):
            a = weights(0.25, not static)
            a[0] = 1.0  # the constant part keeps every mean coefficient above 0.25
            members.append(dict(a=_separable(a), f=_separable(weights(1.0, not static)),
                                g=_separable(weights(1.0, not static)),
                                u0=_separable(weights(1.0, False))))
        separable = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
        labels = data.draw(st.lists(st.integers(0, count - 1), min_size=count,
                                    max_size=count))
        groups = ([[j for j, k in enumerate(labels) if k == label]
                   for label in sorted(set(labels))] if grouped else [[j] for j in range(count)])
        space = build_space(uniform_triangulation(nx, nx), degree)
        grid = TimeGrid(t_final=0.3, steps=3)
        runs = []
        for mine in (separable, [False] * count):
            problem = EnsembleProblem(members=[
                EnsembleMember(**{kind: field if keep else _as_plain(field)
                                  for kind, field in m.items()})
                for m, keep in zip(members, mine)], space=space, grid=grid)
            runs.append(run_levels(ensemble_solve, problem, groups=groups)[0])
        for mine, plain in zip(*runs):
            assert np.abs(mine.u - plain.u).max() < 1e-12

    @pytest.mark.parametrize("steps", [5, 20])
    def test_parts_assembled_once_per_run(self, steps):
        calls = [0] * len(SPATIAL_PARTS)

        def counted(k):
            def part(x, y):
                calls[k] += 1
                return SPATIAL_PARTS[k](x, y)
            return part

        one, xy, wave, bump = (counted(k) for k in range(len(SPATIAL_PARTS)))
        # `one` is in every kind of the first three members, `xy` in their a,
        # `wave` in the f of two members and `bump` in one g
        members = [EnsembleMember(
            a=fem.SeparableField(((1.0, one), (lambda t, c=c: c * math.sin(t), xy))),
            f=fem.SeparableField(((lambda t: math.cos(t), one),)
                                 + (((c, wave),) if k < 2 else ())),
            g=fem.SeparableField(((lambda t: t, one),) + (((0.5, bump),) if k == 0 else ())),
            u0=fem.SeparableField(((c, one),)))
            for k, c in enumerate((0.1, 0.3, 0.2))]
        # plain fields, shared by the last two members, are evaluated at every level
        plain_calls = {"a": 0, "f": 0}

        def plain(kind, value):
            def field(x, y, t):
                plain_calls[kind] += 1
                return value * (1.0 + t) * np.ones(np.shape(x))
            return field

        shared = EnsembleMember(a=plain("a", 1.2), f=plain("f", 0.5), g=members[0].g,
                                u0=zero_field)
        problem = small_problem(members + [shared, shared], steps=steps, t_final=1.0)
        levels, stats = run_levels(ensemble_solve, problem, groups=[[0, 2, 4], [1, 3]])
        assert stats.factorizations == 2 * steps and levels[-1].u.any()
        assert calls == [4, 1, 1, 1]  # once per field kind that holds the part
        assert plain_calls == {"a": steps, "f": steps}

    def test_nonfinite_time_weight_names_member_field_and_step(self):
        late_nan = lambda t: math.nan if t > 0.25 else 1.0
        cases = {"f": (3, _separable([1.0, late_nan])), "g": (3, _separable([late_nan])),
                 "a": (3, _separable([1.0, lambda t: math.inf if t > 0.25 else 0.1])),
                 "u0": (0, _separable([math.inf]))}
        for kind, (step, field) in cases.items():
            problem = small_problem([heat_member(), dataclasses.replace(
                heat_member(), **{kind: field})], steps=5)
            for solver in (ensemble_solve, independent_solve):
                with pytest.raises(ValueError,
                                   match=f"member 1 at step {step}: time weight of its {kind}"):
                    solver(problem)

    def test_plain_field_evaluated_at_every_level(self):
        # time-free a and f beside a plain g = t: g is not frozen at its first
        # step, however static the rest of the data are
        member = EnsembleMember(a=_separable([1.0, 0.2]), f=zero_field,
                                g=lambda x, y, t: t * np.ones(np.shape(x)), u0=zero_field)
        space = build_space(uniform_triangulation(4, 4), 1)
        problem = EnsembleProblem(members=[member, member], space=space,
                                  grid=TimeGrid(t_final=1.0, steps=4),
                                  dirichlet_tags=(BoundaryTag.LEFT,))
        levels, _ = run_levels(ensemble_solve, problem)
        left = space.tagged_dofs((BoundaryTag.LEFT,))
        assert [level.t for level in levels] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for level in levels:
            assert np.array_equal(level.u[left], np.full((left.size, 2), level.t))

    def test_numeric_weights_read_once(self):
        # a number cannot change between grid times: separable data with numeric
        # weights are read at one level only
        reads = []

        class Counted(fem.SeparableField):
            def weights(self, t):
                reads.append(t)
                return super().weights(t)

        member = EnsembleMember(a=Counted(((1.0, SPATIAL_PARTS[0]), (0.2, SPATIAL_PARTS[1]))),
                                f=Counted(((0.5, SPATIAL_PARTS[2]),)), g=zero_field,
                                u0=zero_field)
        assert ensemble_solve(small_problem([member, member], steps=20))[1].factorizations == 20
        assert reads == [0.025] * 4  # a and f of each column, at the first step

    @pytest.mark.parametrize("degree, source", [
        (1, zero_field), (2, zero_field), (1, _separable([0.5])), (2, _separable([0.5]))],
        ids=["1", "2", "1-source", "2-source"])
    def test_group_system_is_mean_of_member_stiffness(self, degree, source):
        # one rule for plain and separable coefficients: a group's system data
        # are M/dt plus the mean of its columns' stiffness rows, bit for bit,
        # which is M/dt + A(mean of the coefficients) up to rounding
        weights = [(1.0, 0.3, -0.2, 0.1), (1.2, -0.1, 0.4, 0.0), (0.9, 0.2, 0.1, -0.3),
                   (1.1, 0.0, -0.4, 0.2), (1.0, -0.3, 0.0, 0.4)]
        separable = [_separable(w) for w in weights]
        groups = [[3, 0, 4], [1], [2]]
        for fields in (separable, [_as_plain(a) for a in separable]):
            problem = small_problem([dataclasses.replace(heat_member(f=source), a=a)
                                     for a in fields], nx=3, degree=degree, steps=2)
            space, t1 = problem.space, problem.grid.dt
            stepper = _GroupedStepper(problem, groups)
            systems, stiffness, loads, _ = stepper._pieces(1)
            # static and time-dependent runs, with and without sources, all hold -A(a_j)
            assert stepper.static == (fields is separable)
            assert (loads is None) == (source is zero_field)
            rows = -member_rows(stiffness, len(fields))
            scaled_mass = stepper.scaled_mass
            # the interleaved stiffness holds the free rows, in elimination order
            indptr = stepper.mass.indptr
            slots = np.concatenate([np.arange(indptr[i], indptr[i + 1])
                                    for i in stepper.constraint.free])
            assert np.array_equal(scaled_mass, assemble_mass(space).data * (1.0 / t1))
            for group, system, columns in zip(groups, systems, stepper.groups):
                mine = rows[columns]  # the group's columns, in group order
                own = np.array([assemble_stiffness(space, fields[j], t1).data[slots]
                                for j in group])
                assert np.abs(mine - own).max() <= 1e-14 * np.abs(own).max()
                assert np.array_equal(system[slots], scaled_mass[slots] + mine.mean(axis=0))
                values = np.mean([coefficient_values(space, fields[j], t1) for j in group],
                                 axis=0)
                reference = scaled_mass + assemble_stiffness(space, values, t1).data
                assert np.abs(system - reference).max() <= 1e-14 * np.abs(reference).max()

    def test_zero_fields_assemble_nothing(self, monkeypatch):
        # emc members hold the zero field as source and initial datum: no
        # load is assembled on either leg of a comparison, and none in an emc run
        loads = []
        original = fem.assemble_load
        monkeypatch.setattr(fem, "assemble_load",
                            lambda *args: loads.append(args[1]) or original(*args))
        config = EmcConfig(samples=4, seed=2, nx=4, dt=0.05, t_final=0.1, partition=True)
        run_emc(config)
        run_compare(config)
        assert loads == []
        assert fem.zero_field.terms == () and not fem.zero_field(np.ones(3), 0.5, 1.0).any()
