"""Ensemble time stepping for groups of 2D linear parabolic PDEs.

Groups of simulations that differ in diffusion coefficient, source, boundary,
and initial data advance together: per time step the implicit diffusion term
uses the group-averaged coefficient so that a single SPD factorization serves
every member's right-hand side. A seeded Monte Carlo driver applies the same
scheme to PDEs with random diffusion fields.

Submodules load on first use (PEP 562), so `import ensfem.cli` loads no numpy
and the command line can cap the BLAS thread pools before they start.
"""
import importlib

# public name -> defining submodule
_EXPORTS = {
    **dict.fromkeys(("EnsembleMember", "EnsembleProblem", "EnsembleState", "SolveStats",
                     "TimeGrid", "ensemble_solve", "independent_solve"), "ensemble"),
    **dict.fromkeys(("FeSpace", "SeparableField", "assemble_load", "assemble_mass", "assemble_stiffness",
                     "build_space", "constant_field", "error_h1_semi", "error_l2",
                     "zero_field"), "fem"),
    **dict.fromkeys(("BoundaryTag", "Mesh", "uniform_triangulation"), "mesh"),
    **dict.fromkeys(("NotSpdError", "add_scaled", "counters", "spd_factorize"), "sparse"),
    **dict.fromkeys(("SamplingGrid", "StabilityReport", "coefficient_block",
                     "estimate_bounds", "partition_ensemble"), "stability"),
    **dict.fromkeys(("EmcConfig", "EmcResult", "RandomFieldSpec", "SampleDraw",
                     "StabilityError", "draw_samples", "kl_eigenvalues", "mc_rate_study",
                     "qoi_integral", "run_emc", "sample_coefficient"), "stochastic"),
}
_SUBMODULES = ("cli", "defaults", "ensemble", "fem", "harness", "mesh", "quadrature",
               "sparse", "stability", "stochastic")
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
