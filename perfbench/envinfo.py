"""What a result was measured on: BLAS and its live thread counts, cores, versions, speed."""
from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

# prefixes under which OpenBLAS builds export their query functions, and the
# suffixes of their 64-bit-integer variants
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("", "64_")


def _symbol(lib, name: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


def loaded_openblas() -> list[dict]:
    """Every OpenBLAS mapped into this process, with the thread count it uses now.

    The count is read back from the library itself, so it shows what the
    environment variables achieved, not what they asked for.
    """
    with open("/proc/self/maps") as handle:
        paths = sorted({line.split()[-1] for line in handle
                        if "openblas" in os.path.basename(line.split()[-1]).lower()
                        and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = _symbol(lib, "get_num_threads")
        config = _symbol(lib, "get_config")
        if threads is not None:
            threads.argtypes, threads.restype = [], ctypes.c_int
        if config is not None:
            config.argtypes, config.restype = [], ctypes.c_char_p
        found.append({"library": os.path.basename(path),
                      "threads": threads() if threads is not None else None,
                      "config": config().decode() if config is not None else None})
    return found


_REFERENCE_DATA: dict = {}


def _reference_pass() -> None:
    """Interpreter work, a dense matmul, two sweeps over 4 MB arrays, a banded
    Cholesky factorization and solve, and sines and cosines of a grid: the kinds
    of work the package's calls mix."""
    import numpy
    import scipy.linalg
    if not _REFERENCE_DATA:
        n, band = 2000, 40
        banded = numpy.full((band + 1, n), -0.5)
        banded[-1] = 2.0 * band + 2.0
        _REFERENCE_DATA.update(
            dense=numpy.arange(40000, dtype=float).reshape(200, 200) / 40000.0,
            stream=numpy.arange(500_000, dtype=float),
            scratch=numpy.empty(500_000),
            banded=banded, rhs=numpy.ones((n, 4)), grid=numpy.linspace(0.0, 1.0, 4096))
    data = _REFERENCE_DATA
    total = 0
    for i in range(50_000):
        total += i
    for _ in range(5):
        data["dense"] @ data["dense"]
    for _ in range(2):
        numpy.multiply(data["stream"], 1.0001, out=data["scratch"])
        data["scratch"].sum()
    factor = scipy.linalg.cholesky_banded(data["banded"])
    scipy.linalg.cho_solve_banded((factor, False), data["rhs"])
    for i in range(1, 16):
        numpy.cos(i * data["grid"]) + numpy.sin(i * data["grid"])


def reference_s(passes: int = 3) -> float:
    """Median time of a few passes of a fixed kernel that does not use the package
    (about 10 ms a pass on the development box).

    The machine's speed drifts by tens of percent over seconds, and the kernel
    slows and speeds up with it, so a package call's time over the kernel's
    time taken next to it is steadier than the call's time alone.
    """
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        _reference_pass()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def describe() -> dict:
    import numpy
    import scipy
    return {
        "blas": loaded_openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env_threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
