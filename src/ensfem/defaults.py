"""Pinned default configurations so study runs are reproducible without flags.

Bump DEFAULTS_VERSION whenever a value here changes; output files embed it.
"""

DEFAULTS_VERSION = 1

# three-member manufactured convergence study
CASE_PERTURBATIONS = (0.6207, 0.1841, 0.2691)
CONVERGENCE = {
    "degree": 2,
    "levels": 4,
    "base_nx": 4,
    "base_dt": 0.1,
    "t_final": 1.0,
}

# random vertical diffusion field
RANDOM_FIELD = {
    "a0": 1.0,
    "sigma": 0.15,
    "corr_length": 0.25,
    "n_modes": 3,
}

# ensemble Monte Carlo run (unit square, left-edge drive, rest homogeneous)
EMC = {
    "nx": 32,
    "dt": 2.5e-3,
    "t_final": 0.5,
    "degree": 1,
    "samples": 500,
    "seed": 20240,
}

# sampling-rate study (desk-scale)
RATE_STUDY = {
    "nx": 16,
    "dt": 5e-3,
    "j_list": (10, 20, 40, 80),
    "j_benchmark": 640,
    "replicas": 5,
    "seed": 20240,
}
