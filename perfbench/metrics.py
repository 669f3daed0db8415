"""Names of the workloads, and names, units and directions of every metric.

`BENCHMARK.json` at the repository root lists the same workloads and metrics;
the smoke test checks that the two agree and that every workload emits every
metric. The workloads themselves are in `workloads.py`, which imports the
package; this file does not, so the parent process stays light.
"""

WORKLOAD_NAMES = ("emc_gate", "emc_wide", "compare_indep", "converge_p2")

# reported with --trace 0, from untraced cycles
END_TO_END = {
    "wall_ref": ("ref", "lower"),
    "member_steps_per_ref": ("1/ref", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# reported with --trace 1; a metric a workload does not exercise reads 0
PER_LAYER = {
    "stochastic.coeff_evals": ("count", "lower"),
    "stochastic.coeff_eval_s": ("s", "lower"),
    "stochastic.gate_s": ("s", "lower"),
    "stochastic.gate_frac": ("ratio", "lower"),
    "stochastic.qoi_s": ("s", "lower"),
    "stability.estimate_bounds_calls": ("count", "lower"),
    "stability.estimate_bounds_s": ("s", "lower"),
    "stability.partition_s": ("s", "lower"),
    "stability.groups": ("count", "lower"),
    "sparse.factorizations": ("count", "lower"),
    "sparse.block_solves": ("count", "lower"),
    "sparse.rhs_columns": ("count", "lower"),
    "sparse.factor_s": ("s", "lower"),
    "sparse.solve_s": ("s", "lower"),
    "sparse.add_scaled_s": ("s", "lower"),
    "sparse.ndof": ("count", "lower"),
    "sparse.bandwidth": ("count", "lower"),
    "sparse.factor_flops_computed": ("flop", "lower"),
    "sparse.solve_flops_computed": ("flop", "lower"),
    "sparse.factor_gflops_computed": ("Gflop/s", "higher"),
    "sparse.solve_gflops_computed": ("Gflop/s", "higher"),
    "fem.assemble_stiffness_calls": ("count", "lower"),
    "fem.assemble_stiffness_s": ("s", "lower"),
    "fem.assemble_load_s": ("s", "lower"),
    "fem.assemble_mass_s": ("s", "lower"),
    "fem.dirichlet_setup_s": ("s", "lower"),
    "fem.lift_s": ("s", "lower"),
    "fem.build_space_s": ("s", "lower"),
    "ensemble.stepping_s": ("s", "lower"),
    "ensemble.self_s": ("s", "lower"),
    "ensemble.member_step_us": ("us", "lower"),
    "ensemble.independent_over_shared": ("ratio", "higher"),
    "mesh.triangulation_s": ("s", "lower"),
    "harness.write_s": ("s", "lower"),
    "harness.output_bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
