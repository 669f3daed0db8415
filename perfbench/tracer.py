"""Outside-in layer trace: wrappers around the public functions of each `ensfem` module.

Nothing inside the package is edited. `install` replaces each traced function
at every binding the product path resolves: the defining module's attribute
and every `from module import name` copy in the other `ensfem` modules and the
package namespace. Methods are replaced on their class, which covers every
caller. `uninstall` puts the originals back, so untraced cycles run the
package exactly as shipped. A workload names the spans it must record; a
traced cycle in which one of them records no call fails loudly.

Spans are kept in memory as (name, start, end, parent index) and written out
as JSON lines after each traced cycle, outside the timed calls. Calls to the sampled coefficient closures are
too many and too short for spans; they are counted and timed as leaf events.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = ("mesh", "fem", "sparse", "ensemble", "stability", "stochastic", "harness")

# (module, attribute path) of every traced boundary; the span is named
# "<module>.<attribute path>"
FUNCTIONS = (
    ("mesh", "uniform_triangulation"),
    ("fem", "build_space"),
    ("fem", "assemble_mass"),
    ("fem", "assemble_stiffness"),
    ("fem", "assemble_load"),
    ("sparse", "spd_factorize"),
    ("sparse", "add_scaled"),
    ("ensemble", "ensemble_solve"),
    ("ensemble", "independent_solve"),
    ("stability", "estimate_bounds"),
    ("stability", "partition_ensemble"),
    ("stochastic", "draw_samples"),
    ("stochastic", "build_emc_members"),
    ("stochastic", "gate_and_group"),
    ("stochastic", "solve_sampled_groups"),
    ("stochastic", "qoi_integral"),
    ("stochastic", "run_emc"),
    ("harness", "run_compare"),
    ("harness", "run_convergence"),
    ("harness", "study_errors"),
    ("harness", "write_text_atomic"),
)
METHODS = (
    ("sparse", "CholeskyFactor", "solve"),
    ("fem", "DirichletConstraint", "__init__"),
    ("fem", "DirichletConstraint", "lift"),
)
COEFF_EVAL = "stochastic.coeff_eval"


def _band(factor) -> tuple[int, int]:
    """(n, band width) of a banded factor; band width -1 if it is not banded."""
    n = factor.shape[0]
    banded = getattr(factor, "_cb", None)
    return n, (banded.shape[0] - 1 if banded is not None else -1)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_seconds: dict[str, float] = defaultdict(float)
        # per-call facts that the layer metrics need besides durations
        self.facts: dict[str, float] = defaultdict(float)
        self.factor_shapes: dict[tuple[int, int], int] = defaultdict(int)
        self._originals: list = []

    # --- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _leaf(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf_seconds[name] += time.perf_counter() - start
                self.leaf_calls[name] += 1

        return counted

    # --- per-boundary facts ----------------------------------------------------

    def _after_factorize(self, args, kwargs, factor):
        n, b = _band(factor)
        self.facts["factor_flops"] += n * max(b, 0) ** 2
        self.factor_shapes[n, b] += 1

    def _after_solve(self, args, kwargs, x):
        n, b = _band(args[0])
        cols = 1 if x.ndim == 1 else x.shape[1]
        self.facts["solve_flops"] += 4 * n * max(b, 0) * cols

    def _after_stepping(self, args, kwargs, result):
        problem = args[0] if args else kwargs["problem"]
        self.facts["member_steps"] += problem.size * problem.grid.steps

    def _after_gate(self, args, kwargs, result):
        self.facts["groups"] += len(result[1])

    def _after_write(self, args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.facts["output_bytes"] += len(text.encode())

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"ensfem.{m}") for m in MODULES}
        after = {"sparse.spd_factorize": self._after_factorize,
                 "sparse.CholeskyFactor.solve": self._after_solve,
                 "ensemble.ensemble_solve": self._after_stepping,
                 "ensemble.independent_solve": self._after_stepping,
                 "stochastic.gate_and_group": self._after_gate,
                 "harness.write_text_atomic": self._after_write}
        replaced = {}
        for module, attr in FUNCTIONS:
            original = getattr(mods[module], attr)
            name = f"{module}.{attr}"
            replaced[id(original)] = (original, self._wrap(name, original, after.get(name)))
        # sample_coefficient gets no span; the closures it returns are counted
        sample = mods["stochastic"].sample_coefficient
        sampler = functools.wraps(sample)(
            lambda *a, **k: self._leaf(COEFF_EVAL, sample(*a, **k)))
        replaced[id(sample)] = (sample, sampler)

        for mod in _ensfem_modules():
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals.append((mod, key, value))
                    setattr(mod, key, hit[1])
        for module, cls_name, method in METHODS:
            cls = getattr(mods[module], cls_name)
            original = cls.__dict__[method]
            name = f"{module}.{cls_name}" + ("" if method == "__init__" else f".{method}")
            self._originals.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, after.get(name)))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    # --- a traced cycle ------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.leaf_calls.clear()
        self.leaf_seconds.clear()
        self.facts.clear()
        self.factor_shapes.clear()

    def calls(self, name: str) -> int:
        if name in self.leaf_calls:
            return self.leaf_calls[name]
        return sum(1 for s in self.spans if s[0] == name)

    def seconds(self, *names: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] in names)

    def self_seconds(self, *names: str) -> float:
        """Duration of the named spans minus the time their direct children cover."""
        total = 0.0
        own = {i for i, s in enumerate(self.spans) if s[0] in names}
        for i, s in enumerate(self.spans):
            if i in own:
                total += s[2] - s[1]
            elif s[3] in own:
                total -= s[2] - s[1]
        return total

    def write_spans(self, path: str, cycle: int) -> None:
        with open(path, "a") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"cycle": cycle, "id": index, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")


def _ensfem_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "ensfem" or k.startswith("ensfem."))]


def layer_metrics(tracer: Tracer, counters, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced cycle, keyed by metric name.

    Times are summed over the cycle's run calls; `wall_s` is the cycle's
    summed call time. A layer the workload does not reach reads 0.
    """
    t = tracer
    factor_s = t.seconds("sparse.spd_factorize")
    solve_s = t.seconds("sparse.CholeskyFactor.solve")
    shared_s = t.seconds("ensemble.ensemble_solve")
    independent_s = t.seconds("ensemble.independent_solve")
    stepping_s = shared_s + independent_s
    member_steps = t.facts["member_steps"]
    gate_s = t.seconds("stochastic.gate_and_group")
    # the system factorized most often on the finest mesh of the run
    ndof = max((n for n, _ in t.factor_shapes), default=0)
    bandwidth = max(((count, b) for (n, b), count in t.factor_shapes.items() if n == ndof),
                    default=(0, 0))[1]
    return {
        "stochastic.coeff_evals": t.leaf_calls[COEFF_EVAL],
        "stochastic.coeff_eval_s": t.leaf_seconds[COEFF_EVAL],
        "stochastic.gate_s": gate_s,
        "stochastic.gate_frac": gate_s / wall_s,
        "stochastic.qoi_s": t.seconds("stochastic.qoi_integral"),
        "stability.estimate_bounds_calls": t.calls("stability.estimate_bounds"),
        "stability.estimate_bounds_s": t.seconds("stability.estimate_bounds"),
        "stability.partition_s": t.seconds("stability.partition_ensemble"),
        "stability.groups": t.facts["groups"],
        "sparse.factorizations": counters.factorizations,
        "sparse.block_solves": counters.block_solves,
        "sparse.rhs_columns": counters.rhs_columns,
        "sparse.factor_s": factor_s,
        "sparse.solve_s": solve_s,
        "sparse.add_scaled_s": t.seconds("sparse.add_scaled"),
        "sparse.ndof": ndof,
        "sparse.bandwidth": bandwidth,
        "sparse.factor_flops_computed": t.facts["factor_flops"],
        "sparse.solve_flops_computed": t.facts["solve_flops"],
        "sparse.factor_gflops_computed": t.facts["factor_flops"] / factor_s / 1e9
        if factor_s > 0 else 0.0,
        "sparse.solve_gflops_computed": t.facts["solve_flops"] / solve_s / 1e9
        if solve_s > 0 else 0.0,
        "fem.assemble_stiffness_calls": t.calls("fem.assemble_stiffness"),
        "fem.assemble_stiffness_s": t.seconds("fem.assemble_stiffness"),
        "fem.assemble_load_s": t.seconds("fem.assemble_load"),
        "fem.assemble_mass_s": t.seconds("fem.assemble_mass"),
        "fem.dirichlet_setup_s": t.seconds("fem.DirichletConstraint"),
        "fem.lift_s": t.seconds("fem.DirichletConstraint.lift"),
        "ensemble.stepping_s": stepping_s,
        "ensemble.self_s": t.self_seconds("ensemble.ensemble_solve",
                                          "ensemble.independent_solve"),
        "ensemble.member_step_us": stepping_s / member_steps * 1e6 if member_steps else 0.0,
        "ensemble.independent_over_shared": independent_s / shared_s if shared_s else 0.0,
        "mesh.triangulation_s": t.seconds("mesh.uniform_triangulation"),
        "fem.build_space_s": t.seconds("fem.build_space"),
        "harness.write_s": t.seconds("harness.write_text_atomic"),
        "harness.output_bytes": t.facts["output_bytes"],
    }


# the metrics that must repeat exactly across traced runs of one seed
COUNT_METRICS = ("sparse.factorizations", "sparse.block_solves", "sparse.rhs_columns",
                 "stochastic.coeff_evals", "stability.estimate_bounds_calls",
                 "fem.assemble_stiffness_calls", "stability.groups",
                 "sparse.ndof", "sparse.bandwidth")
