import os
import warnings

# keep BLAS pools quiet so runs are single-threaded and timing checks are stable
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

# hypothesis's report hook imports this module (and through it libcst) when a
# property test fails; one of those imports raises a DeprecationWarning, which
# under `-W error` ends the run with an INTERNALERROR in place of the falsifying
# example. Import it here once with that warning ignored; without libcst the
# hook has nothing to import either.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
