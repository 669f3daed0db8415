"""Acceptance suite: every study-level claim checked at its pinned tolerance.

Each test prints one `ACCEPTANCE <name>: PASS/FAIL` line (visible with -s or on
failure). Heavy runs are shared through module-scoped fixtures. Expected values
for the standard three-member study are pinned reference numbers for this
configuration; tolerances are fixed here and nowhere else.
"""
import json
import math
import time

import numpy as np
import pytest

from ensfem import sparse
from ensfem.ensemble import (EnsembleMember, EnsembleProblem, TimeGrid,
                             ensemble_solve, independent_solve)
from ensfem.fem import (assemble_mass, build_space, constant_field, error_h1_semi,
                        error_l2, l2_project, zero_field)
from ensfem.harness import manufactured_case, run_compare, run_convergence
from ensfem.mesh import uniform_triangulation
from ensfem.quadrature import triangle_rule
from ensfem.stability import SamplingGrid, estimate_bounds, partition_ensemble
from ensfem.stochastic import (EmcConfig, draw_samples, mc_rate_study, run_emc)

# reference errors for the standard study: 4 levels x 3 members
REFERENCE_L2_ENSEMBLE = (
    (2.2271e-1, 2.2168e-1, 2.2177e-1),
    (1.1477e-1, 1.1623e-1, 1.1594e-1),
    (5.9080e-2, 5.9921e-2, 5.9756e-2),
    (3.0007e-2, 3.0445e-2, 3.0359e-2),
)
REFERENCE_H1_ENSEMBLE = (
    (1.3678e0, 1.0922e0, 1.1437e0),
    (4.7311e-1, 4.2423e-1, 4.3280e-1),
    (1.9969e-1, 1.9560e-1, 1.9618e-1),
    (9.5767e-2, 9.6972e-2, 9.6692e-2),
)
REFERENCE_L2_INDEPENDENT = (
    (2.2206e-1, 2.2215e-1, 2.2200e-1),
    (1.1469e-1, 1.1629e-1, 1.1597e-1),
    (5.9072e-2, 5.9928e-2, 5.9759e-2),
    (3.0007e-2, 3.0446e-2, 3.0359e-2),
)
REFERENCE_H1_INDEPENDENT = (
    (1.3641e0, 1.0955e0, 1.1453e0),
    (4.7186e-1, 4.2529e-1, 4.3331e-1),
    (1.9933e-1, 1.9588e-1, 1.9632e-1),
    (9.5677e-2, 9.7041e-2, 9.6726e-2),
)

L2_BAND = 0.05
H1_BAND = 0.08
CROSS_BAND = 0.02

STUDY_EPS = (0.6207, 0.1841, 0.2691)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def ensemble_rows():
    start = time.perf_counter()
    rows = run_convergence(mode="ensemble")
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def independent_rows():
    return run_convergence(mode="independent")


def _max_rel_dev(rows, ref_l2, ref_h1):
    dev_l2 = max(abs(row.e_l2[j] - ref_l2[k][j]) / ref_l2[k][j]
                 for k, row in enumerate(rows) for j in range(3))
    dev_h1 = max(abs(row.e_h1[j] - ref_h1[k][j]) / ref_h1[k][j]
                 for k, row in enumerate(rows) for j in range(3))
    return dev_l2, dev_h1


def test_reference_table_ensemble(ensemble_rows):
    rows, elapsed = ensemble_rows
    dev_l2, dev_h1 = _max_rel_dev(rows, REFERENCE_L2_ENSEMBLE, REFERENCE_H1_ENSEMBLE)
    report("table-ensemble",
           dev_l2 <= L2_BAND and dev_h1 <= H1_BAND and elapsed < 120.0,
           f"max L2 dev {dev_l2:.2%}, max H1 dev {dev_h1:.2%}, {elapsed:.1f}s")


def test_reference_table_independent(ensemble_rows, independent_rows):
    rows_e, _ = ensemble_rows
    rows_i = independent_rows
    dev_l2, dev_h1 = _max_rel_dev(rows_i, REFERENCE_L2_INDEPENDENT,
                                  REFERENCE_H1_INDEPENDENT)
    cross = max(abs(re.e_l2[j] - ri.e_l2[j]) / ri.e_l2[j]
                for re, ri in zip(rows_e, rows_i) for j in range(3))
    cross_h1 = max(abs(re.e_h1[j] - ri.e_h1[j]) / ri.e_h1[j]
                   for re, ri in zip(rows_e, rows_i) for j in range(3))
    report("table-independent",
           dev_l2 <= L2_BAND and dev_h1 <= H1_BAND
           and cross <= CROSS_BAND and cross_h1 <= CROSS_BAND,
           f"max L2 dev {dev_l2:.2%}, max H1 dev {dev_h1:.2%}, "
           f"cross {max(cross, cross_h1):.2%}")


def test_convergence_rates(ensemble_rows):
    rows, _ = ensemble_rows
    l2_rates = np.concatenate([row.rate_l2 for row in rows[1:]])
    h1_final = rows[-1].rate_h1
    ok = bool((l2_rates >= 0.90).all() and (l2_rates <= 1.05).all()
              and (h1_final >= 0.95).all() and (h1_final <= 1.10).all())
    report("convergence-rates", ok,
           f"L2 rates in [{l2_rates.min():.3f}, {l2_rates.max():.3f}], "
           f"final H1 rates in [{h1_final.min():.3f}, {h1_final.max():.3f}]")


def test_backward_euler_equivalence():
    space = build_space(uniform_triangulation(8, 8), 2)
    grid = TimeGrid(t_final=1.0, steps=20)
    single = EnsembleProblem(members=[manufactured_case(STUDY_EPS[0]).member()],
                             space=space, grid=grid)
    te, _ = ensemble_solve(single)
    ti, _ = independent_solve(single)
    gap_single = max(np.abs(a.u - b.u).max() for a, b in zip(te, ti))

    shared = manufactured_case(0.25)
    members = [EnsembleMember(a=shared.a, f=manufactured_case(e).f, g=shared.g,
                              u0=shared.u0) for e in STUDY_EPS]
    equal = EnsembleProblem(members=members, space=space, grid=grid)
    te, _ = ensemble_solve(equal)
    ti, _ = independent_solve(equal)
    gap_equal = max(np.abs(a.u - b.u).max() for a, b in zip(te, ti))
    report("backward-euler-equivalence", gap_single <= 1e-12 and gap_equal <= 1e-12,
           f"single-member gap {gap_single:.2e}, equal-coefficient gap {gap_equal:.2e}")


def test_counting_law_and_wall_time():
    ok = True
    details = []
    for steps, j in ((10, 3), (20, 8)):
        space = build_space(uniform_triangulation(8, 8), 1)
        members = [EnsembleMember(a=constant_field(1.0 + 0.05 * k), f=zero_field,
                                  g=zero_field,
                                  u0=lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y))
                   for k in range(j)]
        problem = EnsembleProblem(members=members, space=space,
                                  grid=TimeGrid(1.0, steps))
        _, se = ensemble_solve(problem)
        _, si = independent_solve(problem)
        ok &= (se.factorizations == steps and se.block_solves == steps
               and si.factorizations == steps * j)
        details.append(f"(N={steps},J={j}): ens {se.factorizations}/{se.block_solves}, "
                       f"ind {si.factorizations}")

    space = build_space(uniform_triangulation(32, 32), 1)
    draws = draw_samples(seed=11, count=8, n_modes=3)
    from ensfem.stochastic import RandomFieldSpec, sample_coefficient
    members = [EnsembleMember(a=sample_coefficient(RandomFieldSpec(), d),
                              f=zero_field, g=zero_field, u0=zero_field,
                              time_invariant=True) for d in draws]
    problem = EnsembleProblem(members=members, space=space, grid=TimeGrid(0.5, 20))
    _, se = ensemble_solve(problem)
    _, si = independent_solve(problem)
    ok &= se.wall_time < si.wall_time
    details.append(f"walls ens {se.wall_time:.2f}s < ind {si.wall_time:.2f}s")
    report("counting-law", ok, "; ".join(details))


def test_stability_gate():
    space = build_space(uniform_triangulation(32, 32), 2)
    grid = SamplingGrid.from_space(space, TimeGrid(t_final=1.0, steps=80))
    coeffs = [manufactured_case(e).a for e in STUDY_EPS]
    rep = estimate_bounds(coeffs, grid)
    mean_eps = sum(STUDY_EPS) / 3.0
    closed_form = max(abs(e - mean_eps) for e in STUDY_EPS) * math.sin(1.0) ** 2
    ok_family = (rep.satisfied and abs(rep.theta - 1.0) < 1e-9
                 and abs(rep.theta_plus - closed_form) <= 0.03 * closed_form
                 and 0.80 <= rep.margin <= 0.83)

    static = SamplingGrid.from_space(build_space(uniform_triangulation(8, 8), 1))
    two = [constant_field(1.0), constant_field(3.0)]
    rep2 = estimate_bounds(two, static)
    groups = partition_ensemble(two, static)
    ok_two = (not rep2.satisfied) and groups == [[0], [1]]
    report("stability-gate", ok_family and ok_two,
           f"family margin {rep.margin:.4f} (theta+ {rep.theta_plus:.5f} "
           f"vs closed-form {closed_form:.5f}); constants -> {groups}")


def test_discrete_energy_bound():
    space_probe = build_space(uniform_triangulation(16, 16), 2)
    grid_probe = SamplingGrid.from_space(space_probe, TimeGrid(1.0, 40))
    rep = estimate_bounds([manufactured_case(e).a for e in STUDY_EPS], grid_probe)
    weight = rep.margin  # theta - theta_plus

    energies = []
    for level in (1, 2, 3):
        nx = 4 * 2 ** (level - 1)
        steps = 10 * 2 ** (level - 1)
        space = build_space(uniform_triangulation(nx, nx), 2)
        problem = EnsembleProblem(
            members=[manufactured_case(e).member() for e in STUDY_EPS],
            space=space, grid=TimeGrid(1.0, steps))
        grad_sq = np.zeros(3)

        def accumulate(state):
            if state.n == 0:
                return
            for j in range(3):
                grad_sq[j] += error_h1_semi(space, state.u[:, j], None) ** 2

        trajectory, _ = ensemble_solve(problem, observer=accumulate,
                                       keep_trajectory=False)
        final = trajectory[-1].u
        dt = 1.0 / steps
        energies.append(np.array([
            error_l2(space, final[:, j], None) ** 2 + weight * dt * grad_sq[j]
            for j in range(3)]))

    growth = max(float((b / a).max()) for a, b in zip(energies, energies[1:]))
    report("energy-bound", growth <= 1.05,
           f"max growth ratio {growth:.4f} across refinements "
           f"(levels: {[f'{e.max():.4f}' for e in energies]})")


def test_sampling_rate_study():
    start = time.perf_counter()
    config = EmcConfig(samples=640, seed=20240, nx=16, dt=5e-3, t_final=0.5,
                       partition=True)
    result = mc_rate_study(config, j_list=(10, 20, 40, 80), j_benchmark=640,
                           replicas=5)
    elapsed = time.perf_counter() - start
    ok = -0.65 <= result.slope_l2 <= -0.35 and elapsed < 600.0
    report("sampling-rate", ok,
           f"slope_L2 {result.slope_l2:.4f}, slope_H1 {result.slope_h1:.4f}, "
           f"E_L2 {result.e_l2[0]:.3e}->{result.e_l2[-1]:.3e}, {elapsed:.0f}s")


def test_emc_vs_independent_agreement():
    config = EmcConfig(samples=500, seed=20240, nx=32, dt=2.5e-3, t_final=0.5,
                       partition=True)
    result = run_compare(config)
    ok = result.max_field_gap <= 1e-5
    report("emc-agreement", ok,
           f"max mean-field gap {result.max_field_gap:.2e}, "
           f"max QoI gap {result.qoi_gaps.max():.2e}, "
           f"factorizations {result.stats_ensemble.factorizations} vs "
           f"{result.stats_independent.factorizations}, "
           f"walls {result.stats_ensemble.wall_time:.1f}s vs "
           f"{result.stats_independent.wall_time:.1f}s")


def test_property_suite():
    details = []
    # quadrature exactness through order 2l+2
    worst = 0.0
    for order in (4, 6):
        rule = triangle_rule(order)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for p in range(order + 1):
            for q in range(order + 1 - p):
                exact = math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)
                worst = max(worst, abs(0.5 * np.sum(rule.weights * x**p * y**q) - exact))
    ok = worst < 1e-13
    details.append(f"quadrature dev {worst:.1e}")

    # mass SPD via successful factorization
    for nx, degree in ((16, 1), (32, 1), (16, 2)):
        sparse.spd_factorize(assemble_mass(build_space(uniform_triangulation(nx, nx),
                                                       degree)))
    details.append("mass SPD ok")

    # polynomial reproduction of the projection
    space = build_space(uniform_triangulation(8, 8), 2)
    poly = lambda x, y, t: x * x - 0.5 * x * y + y
    u = l2_project(space, poly)
    dev = np.abs(u - poly(space.dof_coords[:, 0], space.dof_coords[:, 1], 0.0)).max()
    ok &= dev < 1e-10
    details.append(f"projection dev {dev:.1e}")

    # generator moments at 1e5 draws
    values = np.concatenate([d.y for d in draw_samples(seed=2024, count=100_000,
                                                       n_modes=0)])
    ok &= abs(values.mean()) <= 0.02 and 0.97 <= values.var() <= 1.03
    details.append(f"moments mean {values.mean():+.4f}, var {values.var():.4f}")

    # bitwise reproducibility of a seeded sampled run
    config = EmcConfig(samples=6, seed=9, nx=8, dt=0.05, t_final=0.5)
    first = json.dumps(run_emc(config).to_json_dict())
    second = json.dumps(run_emc(config).to_json_dict())
    ok &= first == second
    details.append("seeded rerun byte-identical" if first == second
                   else "seeded rerun DIFFERS")
    report("property-suite", ok, "; ".join(details))
