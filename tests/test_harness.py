import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import ensfem
from ensfem import defaults, fem, harness, stochastic
from ensfem.cli import cli
from ensfem.ensemble import EnsembleProblem, TimeGrid, ensemble_solve, independent_solve
from ensfem.harness import (CONVERGENCE_CSV_HEADER, convergence_csv,
                            manufactured_case, run_compare, run_convergence,
                            write_text_atomic)
from ensfem.mesh import uniform_triangulation
from ensfem.quadrature import triangle_rule
from ensfem.stochastic import EmcConfig, RandomFieldSpec


def reference_manufactured_case(epsilon):
    """The manufactured family in closed form, f composed by the chain rule at evaluation."""
    c = 1.0 + float(epsilon)
    two_pi = 2.0 * math.pi

    def a(x, y, t):
        return 1.0 + c * math.sin(t) * np.sin(np.asarray(x) * np.asarray(y))

    def u(x, y, t):
        return (c * np.sin(two_pi * np.asarray(x)) * np.sin(two_pi * np.asarray(y))
                + math.sin(4.0 * math.pi * t))

    def f(x, y, t):
        x = np.asarray(x)
        y = np.asarray(y)
        st = math.sin(t)
        xy = x * y
        a_val = 1.0 + c * st * np.sin(xy)
        a_x = c * st * y * np.cos(xy)
        a_y = c * st * x * np.cos(xy)
        sx, cx = np.sin(two_pi * x), np.cos(two_pi * x)
        sy, cy = np.sin(two_pi * y), np.cos(two_pi * y)
        u_t = 4.0 * math.pi * math.cos(4.0 * math.pi * t)
        u_x = c * two_pi * cx * sy
        u_y = c * two_pi * sx * cy
        lap_u = -2.0 * c * two_pi ** 2 * sx * sy
        return u_t - a_x * u_x - a_y * u_y - a_val * lap_u

    return {"a": a, "f": f, "g": u, "u0": lambda x, y, t: u(x, y, 0.0), "u": u}


class TestManufacturedCase:
    @pytest.mark.parametrize("epsilon", [0.6207, 0.1841, 0.2691, 0.0, -0.5])
    def test_separable_fields_match_the_closed_form(self, epsilon):
        # relative to each field's largest magnitude over the sample, since u
        # and f cross zero
        case, reference = manufactured_case(epsilon), reference_manufactured_case(epsilon)
        rng = np.random.default_rng(7)
        x, y = rng.uniform(-0.5, 1.5, (2, 2000))
        for t in rng.uniform(0.0, 2.0, 6):
            for name, exact in reference.items():
                mine, want = getattr(case, name)(x, y, t), exact(x, y, t)
                assert isinstance(getattr(case, name), fem.SeparableField)
                assert np.abs(mine - want).max() <= 1e-13 * np.abs(want).max()

    def test_source_matches_finite_difference_residual(self):
        # independent check: f must equal u_t - div(a grad u), built here by
        # nested central differences of u and a only
        case = manufactured_case(0.6207)
        h = 1e-4
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.1, 0.9, size=(40, 2))
        for t in (0.13, 0.57, 0.94):
            x, y = pts[:, 0], pts[:, 1]
            u_t = (case.u(x, y, t + h) - case.u(x, y, t - h)) / (2 * h)

            def flux_x(xx):
                ux = (case.u(xx + h, y, t) - case.u(xx - h, y, t)) / (2 * h)
                return case.a(xx, y, t) * ux

            def flux_y(yy):
                uy = (case.u(x, yy + h, t) - case.u(x, yy - h, t)) / (2 * h)
                return case.a(x, yy, t) * uy

            div = ((flux_x(x + h) - flux_x(x - h)) / (2 * h)
                   + (flux_y(y + h) - flux_y(y - h)) / (2 * h))
            assert np.abs(case.f(x, y, t) - (u_t - div)).max() < 1e-3

    def test_gradient_matches_finite_differences(self):
        case = manufactured_case(0.25)
        h = 1e-6
        x, y, t = 0.3, 0.7, 0.4
        gx, gy = case.grad_u(x, y, t)
        assert gx == pytest.approx((case.u(x + h, y, t) - case.u(x - h, y, t)) / (2 * h), abs=1e-6)
        assert gy == pytest.approx((case.u(x, y + h, t) - case.u(x, y - h, t)) / (2 * h), abs=1e-6)

    def test_boundary_and_initial_data_are_traces(self):
        case = manufactured_case(0.1)
        assert case.g(0.0, 0.4, 0.3) == pytest.approx(case.u(0.0, 0.4, 0.3))
        assert case.u0(0.2, 0.6, 99.0) == pytest.approx(case.u(0.2, 0.6, 0.0))


class TestRunConvergence:
    def test_single_level_row(self):
        rows = run_convergence(levels=1)
        assert len(rows) == 1
        row = rows[0]
        assert row.level == 1
        assert row.h == pytest.approx(math.sqrt(2.0) / 4.0)
        assert row.dt == 0.1
        assert row.e_l2.shape == (3,) and row.e_h1.shape == (3,)
        assert row.rate_l2 is None and row.rate_h1 is None
        assert row.stats.factorizations == 10

    def test_csv_schema(self):
        rows = run_convergence(levels=1)
        lines = convergence_csv(rows).strip().splitlines()
        assert lines[0] == CONVERGENCE_CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] == "1"
        assert first[5] == "" and first[7] == ""  # rates empty at level 1

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_convergence(levels=1, mode="both")


def per_column_errors(problem, levels, cases, output_stride):
    """The study's figures by one L2 and one H1 call per output level and member, each
    evaluating the exact u or gradient at its time: the oracle of the block pass."""
    space, grad_rule = problem.space, triangle_rule(2)
    e_l2, e_h1_sq = np.zeros(len(cases)), np.zeros(len(cases))
    for state in levels:
        for j, case in enumerate(cases):
            e_l2[j] = max(e_l2[j], fem.error_l2(space, state.u[:, j], case.u, state.t))
            e_h1_sq[j] += fem.error_h1_semi(space, state.u[:, j], case.grad_u, state.t,
                                            rule=grad_rule) ** 2
    return e_l2, np.sqrt(problem.grid.dt * output_stride * e_h1_sq)


def _xy(x, y):
    return np.asarray(x) * np.asarray(y)


def _grad_xy(x, y):
    return np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(x, dtype=float))


def drifting_cases():
    """Cases whose exact u carries t * x * y, so that the exact gradient depends on t:
    one with plain u and gradient, one separable with a callable weight, and one of
    the manufactured family."""
    plain, separable = manufactured_case(0.3), manufactured_case(0.5)

    def u(x, y, t):
        return plain.u(x, y, t) + t * _xy(x, y)

    def grad_u(x, y, t):
        gx, gy = plain.grad_u(x, y, t)
        dx, dy = _grad_xy(x, y)
        return gx + t * dx, gy + t * dy

    drift = (lambda t: t, _xy), (lambda t: t, _grad_xy)
    return [replace(plain, u=u, grad_u=grad_u),
            replace(separable, u=fem.SeparableField(separable.u.terms + (drift[0],)),
                    grad_u=fem.SeparableField(separable.grad_u.terms + (drift[1],))),
            manufactured_case(0.2691)]


class TestStudyErrors:
    @staticmethod
    def outputs(degree, mode, level):
        """A run of the manufactured members at one study level, and its output levels."""
        cases = [manufactured_case(e) for e in (0.6207, 0.1841, 0.2691)]
        nx, stride = 4 * 2 ** (level - 1), 2 ** (level - 1)
        problem = EnsembleProblem(members=[c.member() for c in cases],
                                  space=fem.build_space(uniform_triangulation(nx, nx), degree),
                                  grid=TimeGrid(1.0, 10 * stride))
        kept = []
        solve = ensemble_solve if mode == "ensemble" else independent_solve
        solve(problem, observer=lambda s: kept.append(s) if s.n and s.n % stride == 0
              else None)
        return problem, kept, cases, stride

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("mode", ["ensemble", "independent"])
    @pytest.mark.parametrize("level", [1, 2])
    def test_block_pass_matches_per_column_oracle(self, degree, mode, level):
        problem, kept, cases, stride = self.outputs(degree, mode, level)
        for exact in (cases, drifting_cases()):
            got = harness.study_errors(problem, kept, exact, output_stride=stride)
            want = per_column_errors(problem, kept, exact, output_stride=stride)
            for g, w in zip(got, want):
                assert np.all(np.abs(g - w) <= 1e-13 * np.abs(w))

    def test_one_block_norm_call_per_level_and_parts_evaluated_once(self, monkeypatch):
        problem, kept, cases, stride = self.outputs(2, "ensemble", 2)
        calls = []
        for name in ("error_l2", "error_h1_semi"):
            norm = getattr(fem, name)
            monkeypatch.setattr(fem, name, lambda space, u, *args, _n=norm, _name=name, **kw:
                                calls.append((_name, u.shape)) or _n(space, u, *args, **kw))
        evaluated = []

        def counted(part):
            return lambda x, y: evaluated.append(part) or part(x, y)

        parts = {id(p): counted(p) for c in cases for _, p in c.u.terms + c.grad_u.terms}
        shared = [replace(c, u=fem.SeparableField(tuple((w, parts[id(p)]) for w, p in c.u.terms)),
                          grad_u=fem.SeparableField(tuple((w, parts[id(p)])
                                                          for w, p in c.grad_u.terms)))
                  for c in cases]
        harness.study_errors(problem, kept, shared, output_stride=stride)
        shape = (problem.space.dof_count, len(cases))
        assert sorted(calls) == sorted([("error_l2", shape), ("error_h1_semi", shape)]
                                       * len(kept))
        assert len(evaluated) == len(parts) == 3  # S and 1 of u, grad S of the gradient


class TestRunCompare:
    def test_single_sample_paths_coincide(self):
        config = EmcConfig(samples=1, seed=5, nx=4, dt=0.05, t_final=0.2)
        result = run_compare(config)
        assert result.max_field_gap < 1e-12
        assert result.qoi_gaps.max() < 1e-12

    def test_identical_coefficients_coincide(self):
        config = EmcConfig(spec=RandomFieldSpec(sigma=0.0), samples=4, seed=5,
                           nx=4, dt=0.05, t_final=0.2)
        result = run_compare(config)
        assert result.max_field_gap < 1e-12

    def test_record_schema(self):
        config = EmcConfig(samples=3, seed=1, nx=4, dt=0.05, t_final=0.2)
        record = run_compare(config).to_json_dict()
        assert record["seed"] == 1 and record["samples"] == 3
        assert set(record["qoi_gap_histogram"]) == {"edges", "counts"}
        assert record["stats_ensemble"]["factorizations"] == 4
        assert record["stats_independent"]["factorizations"] == 12
        assert "wall_time_s" not in json.dumps(record)  # rerun-stable payload

    def test_ensemble_wall_time_covers_the_gate(self, monkeypatch):
        gate = harness.gate_and_group

        def slow_gate(*args, **kwargs):
            time.sleep(0.2)
            return gate(*args, **kwargs)

        monkeypatch.setattr(harness, "gate_and_group", slow_gate)
        result = run_compare(EmcConfig(samples=3, seed=1, nx=4, dt=0.05, t_final=0.2))
        assert result.stats_ensemble.wall_time >= 0.2


def _work_in_subdirectory(tmp_path, monkeypatch):
    """Run in tmp_path/cwd: an empty output path resolves to the working directory's
    parent, so a stray temporary file would land in tmp_path."""
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")


class TestAtomicWrite:
    def test_write_and_replace(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(str(target), "one\n")
        write_text_atomic(str(target), "two\n")
        assert target.read_text() == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_bad_path_named_and_nothing_left(self, tmp_path, monkeypatch):
        _work_in_subdirectory(tmp_path, monkeypatch)
        for path, reason in ((str(tmp_path / "missing" / "x.txt"), "does not exist"),
                             (str(tmp_path), "is a directory"),
                             ("", "has no file name"),
                             (str(tmp_path / "new") + os.sep, "has no file name"),
                             (os.path.join(tmp_path, "new", os.pardir), "has no file name")):
            with pytest.raises(ValueError, match=reason) as err:
                write_text_atomic(path, "one\n")
            assert f"output path {path} " in str(err.value) or repr(path) in str(err.value)
        assert [p.name for p in tmp_path.iterdir()] == ["cwd"]
        assert list((tmp_path / "cwd").iterdir()) == []


class TestCli:
    def test_converge_single_level(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert cli(["converge", "--levels", "1", "--mode", "ensemble",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CONVERGENCE_CSV_HEADER
        assert len(lines) == 4
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["factorizations"] == 10

    def test_converge_stats_cover_every_level(self, tmp_path, capsys):
        # levels of 10 and 20 steps, one group each: the line counts both
        assert cli(["converge", "--levels", "2", "--degree", "1",
                    "--out", str(tmp_path / "conv.csv")]) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["factorizations"] == stats["block_solves"] == 30

    def test_rate_rejects_benchmark_not_larger(self, tmp_path, capsys):
        assert cli(["rate", "--j-list", "10", "--j0", "10",
                    "--out", str(tmp_path / "r.csv")]) == 1
        assert "benchmark" in capsys.readouterr().err

    @staticmethod
    def _refuse_runs(monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("the run started")
        for module, name in ((stochastic, "run_emc"), (stochastic, "mc_rate_study"),
                             (harness, "run_compare"), (harness, "run_convergence")):
            monkeypatch.setattr(module, name, started)

    @pytest.mark.parametrize("command", ["emc", "compare", "rate", "converge"])
    @pytest.mark.parametrize("where", ["missing directory", "directory", "empty",
                                       "trailing separator"])
    def test_bad_out_path_exits_one_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                    command, where):
        _work_in_subdirectory(tmp_path, monkeypatch)
        out = {"missing directory": str(tmp_path / "missing" / "x.out"),
               "directory": str(tmp_path), "empty": "",
               "trailing separator": str(tmp_path / "new") + os.sep}[where]
        self._refuse_runs(monkeypatch)
        assert cli([command, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ensfem: error: ") and err.count("\n") == 1
        assert f"output path {out} " in err or repr(out) in err
        # no temporary file left behind
        assert [p.name for p in tmp_path.iterdir()] == ["cwd"]
        assert list((tmp_path / "cwd").iterdir()) == []

    @pytest.mark.parametrize("j_list", ["", "2,,4", "2,x"],
                             ids=["empty", "empty entry", "not an integer"])
    def test_malformed_j_list_is_a_usage_error(self, tmp_path, capsys, monkeypatch, j_list):
        self._refuse_runs(monkeypatch)
        out = tmp_path / "r.csv"
        assert cli(["rate", "--j-list", j_list, "--j0", "8", "--replicas", "1",
                    "--nx", "4", "--dt", "0.05", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"ensfem: error: argument --j-list: expected comma-separated integers, " \
               f"got {j_list!r}\n" in err
        assert "Traceback" not in err and not out.exists()

    def test_rate_passes_only_the_given_flags(self, tmp_path, monkeypatch):
        study, seen = stochastic.mc_rate_study, {}

        def capture(*args, **kwargs):
            bound = inspect.signature(study).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.update(bound.arguments)
            raise ValueError("captured")
        monkeypatch.setattr(stochastic, "mc_rate_study", capture)
        assert cli(["rate", "--nx", "4", "--j0", "8", "--out", str(tmp_path / "r.csv")]) == 1
        config = seen["config"]
        assert (config.nx, config.seed, config.dt, config.partition) == (
            4, defaults.RATE_STUDY["seed"], defaults.RATE_STUDY["dt"], True)
        assert (seen["j_list"], seen["j_benchmark"], seen["replicas"]) == (
            defaults.RATE_STUDY["j_list"], 8, defaults.RATE_STUDY["replicas"])

    @pytest.mark.parametrize("j_list", ["2", "2,2"])
    def test_rate_needs_two_sample_counts(self, tmp_path, capsys, j_list):
        out = tmp_path / "r.csv"
        assert cli(["rate", "--j-list", j_list, "--j0", "4", "--replicas", "1",
                    "--nx", "4", "--dt", "0.05", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("ensfem: error: the rate fit needs two")
        assert not out.exists()

    def test_unknown_flag_exits_one(self, capsys):
        assert cli(["converge", "--frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_command_exits_one(self, capsys):
        assert cli(["transmogrify"]) == 1

    @pytest.mark.parametrize("command", ["emc", "compare", "rate"])
    @pytest.mark.parametrize("dt, message", [
        *[pytest.param(dt, "dt must be positive and finite", id=dt)
          for dt in ("0", "-0.05", "nan", "inf")],
        pytest.param("1e-310", "dt=1e-310 is too small: t_final/dt=inf steps", id="1e-310"),
        pytest.param("1e-20", "dt=1e-20 is too small: t_final/dt=5e+19 steps", id="1e-20")])
    def test_bad_dt_exits_one(self, tmp_path, capsys, command, dt, message):
        out = tmp_path / "out"
        assert cli([command, "--nx", "4", "--dt", dt, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ensfem: error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["emc", "compare", "rate"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert cli([command, "--nx", "4", "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ensfem: error: seed=-1 and replica=0 must be non-negative")
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["-1", "-0.1", "nan", "inf"])
    def test_bad_sigma_exits_one(self, tmp_path, capsys, sigma):
        # refused by the field spec, before sampling and the stability gate
        out = tmp_path / "out"
        assert cli(["emc", "--j", "4", "--nx", "4", "--sigma", sigma, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("ensfem: error: sigma must be non-negative and finite, "
                       f"got {float(sigma)}\n")
        assert not out.exists()

    def test_emc_outputs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["emc", "--j", "4", "--seed", "7", "--nx", "4", "--dt", "0.05"]
        assert cli(args + ["--out", str(a)]) == 0
        assert cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        record = json.loads(a.read_text())
        assert record["seed"] == 7
        assert record["samples"] == 4
        assert "wall_time_s" not in json.dumps(record)  # deterministic payload

    def test_emc_stability_refusal_exit_two(self, tmp_path, capsys):
        rc = cli(["emc", "--j", "6", "--seed", "3", "--nx", "4", "--dt", "0.05",
                  "--sigma", "5.0", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        report = json.loads(capsys.readouterr().err.strip())
        assert report["satisfied"] is False
        assert not (tmp_path / "x.json").exists()

    def test_emc_partition_flag_rescues(self, tmp_path):
        # sigma=0.6/seed=3: every sample coercive, joint deviation breaks the gate
        args = ["emc", "--j", "6", "--seed", "3", "--nx", "4", "--dt", "0.05",
                "--sigma", "0.6"]
        assert cli(args + ["--out", str(tmp_path / "refused.json")]) == 2
        assert cli(args + ["--partition", "--out", str(tmp_path / "p.json")]) == 0
        record = json.loads((tmp_path / "p.json").read_text())
        assert len(record["groups"]) > 1
        assert sorted(i for g in record["groups"] for i in g) == list(range(6))

    def test_compare_smoke(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        assert cli(["compare", "--j", "2", "--seed", "1", "--nx", "4",
                    "--dt", "0.05", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["max_field_gap"] >= 0.0
        assert record["stats_independent"]["factorizations"] > record["stats_ensemble"]["factorizations"]
        # the wall times go to the stdout line, not to the file
        line = json.loads(capsys.readouterr().out)
        assert line["max_field_gap"] == record["max_field_gap"]
        assert set(line["wall_time_s"]) == {"ensemble", "independent"}

    def test_rate_output_schema(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert cli(["rate", "--j-list", "2,4", "--j0", "8", "--replicas", "2",
                    "--seed", "5", "--nx", "4", "--dt", "0.05",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "J,E_L2,E_H1"
        assert lines[1].startswith("2,") and lines[2].startswith("4,")
        footer = json.loads(lines[3])
        assert set(footer) == {"slope_L2", "slope_H1", "fit_c_L2"}

    def test_converge_degree_one(self, tmp_path):
        out = tmp_path / "c1.csv"
        assert cli(["converge", "--levels", "1", "--degree", "1",
                    "--out", str(out)]) == 0
        assert out.read_text().startswith(CONVERGENCE_CSV_HEADER)

    def test_emc_record_schema(self, tmp_path):
        out = tmp_path / "emc.json"
        assert cli(["emc", "--j", "3", "--seed", "2", "--nx", "4", "--dt", "0.05",
                    "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert set(record) >= {"seed", "samples", "mesh", "dt", "t_final", "groups",
                               "mean_field", "std_field", "std_degenerate",
                               "qoi_samples", "qoi_histogram", "stability", "stats"}
        assert len(record["mean_field"]) == record["mesh"]["dof_count"]
        assert set(record["stability"]) == {"theta", "theta_plus", "theta_minus",
                                            "satisfied", "margin"}


def _python(code, env_extra=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "ENSFEM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env.update(env_extra or {})
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestThreadKnob:
    def test_importing_cli_loads_no_numpy(self):
        out = _python("import sys, ensfem.cli; print('numpy' in sys.modules)")
        assert out.strip() == "False"

    def test_threads_env_is_set_before_numpy_loads(self, tmp_path):
        # record OPENBLAS_NUM_THREADS at the moment numpy is first imported
        code = f"""
import importlib.abc, json, os, sys
seen = {{}}
class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "numpy":
            seen.setdefault("threads", os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Probe())
import ensfem.cli
sys.argv = ["ensfem", "converge", "--levels", "1", "--degree", "1",
            "--out", {str(tmp_path / "c.csv")!r}]
try:
    ensfem.cli.main()
except SystemExit as exc:
    seen["code"] = exc.code
print(json.dumps(seen))
"""
        seen = json.loads(_python(code, {"ENSFEM_THREADS": "1"}).strip().splitlines()[-1])
        assert seen == {"threads": "1", "code": 0}

    @pytest.mark.parametrize("threads", ["abc", "0", "-3", "1.5"])
    def test_bad_threads_env_exits_one(self, tmp_path, threads):
        out = tmp_path / "c.csv"
        code = f"""
import contextlib, io, json, os, sys
import ensfem.cli
sys.argv = ["ensfem", "converge", "--levels", "1", "--degree", "1", "--out", {str(out)!r}]
err = io.StringIO()
with contextlib.redirect_stderr(err):
    try:
        ensfem.cli.main()
    except SystemExit as exc:
        code = exc.code
blas = [os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")]
print(json.dumps({{"code": code, "err": err.getvalue(), "blas": blas}}))
"""
        seen = json.loads(_python(code, {"ENSFEM_THREADS": threads}).strip().splitlines()[-1])
        assert seen["code"] == 1
        assert seen["err"].startswith("ensfem: error: ENSFEM_THREADS must be a positive integer")
        assert seen["blas"] == [None, None, None]
        assert not out.exists()


def test_public_names_resolve():
    # every exported name loads from the submodule `_EXPORTS` maps it to
    # and is listed by dir(), so a stale export fails here and not in a caller
    listed = dir(ensfem)
    for name in ensfem.__all__:
        assert name in listed
        module = importlib.import_module(f"ensfem.{ensfem._EXPORTS[name]}")
        assert getattr(ensfem, name) is getattr(module, name)
