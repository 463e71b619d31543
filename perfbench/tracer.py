"""Layer spans for one in-process fracflow run, recorded from outside.

``Tracer.installed()`` wraps the public functions in ``FUNCTIONS`` and the
pair-table methods of ``OperatorContext`` for the duration of a ``with``
block.  A function is replaced wherever its object is bound, not only in
its defining module: ``scenarios`` holds its own ``well_depth`` and
``build_context``, ``evolution`` its own ``energy_gradient`` and
``classify``, ``energy`` its own ``gagliardo_seminorm``, and the package
re-exports most names (``fracflow.energy`` is the function, which shadows
the module, hence ``importlib.import_module``).

Each call records a span ``[name, start, end, parent]`` in memory; counts
read from arguments and results (root-find iterations, pair entries swept,
accepted steps) are taken at the same boundary.  ``layer_metrics`` turns
them into the per-layer metrics named in BENCHMARK.json.
"""

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

#: (module, function) pairs wrapped wherever the function object is bound
FUNCTIONS = (
    ("config", "load_config"),
    ("exponents", "validate_assumptions"),
    ("nonlocal_operator", "build_context"),
    ("modular", "gagliardo_seminorm"),
    ("modular", "luxemburg_norm"),
    ("energy", "energy"),
    ("energy", "energy_gradient"),
    ("energy", "nehari_lambda"),
    ("energy", "classify"),
    ("energy", "estimate_embedding_constant"),
    ("energy", "well_depth"),
    ("evolution", "run"),
    ("evolution", "step_explicit"),
    ("evolution", "step_imex"),
    ("report", "trajectory_to_csv"),
    ("report", "audit_to_csv"),
    ("report", "geometry_report"),
    ("scenarios", "run_scenario"),
)

#: OperatorContext methods that sweep the pair table, and whether a sweep
#: covers every row (True) or the interior rows only (False)
SWEEPS = {
    "pair_stats": True,
    "apply": False,
    "pair_coeffs": True,
    "sp_dlambda": True,
    "sp_modular": True,
    "i1": True,
    "weak": True,
    "gap": True,
    "sp_grad_interior": False,
}

ROOT_FINDS = ("modular.gagliardo_seminorm", "modular.luxemburg_norm")
STEPS = ("evolution.step_explicit", "evolution.step_imex")
WRITERS = ("report.trajectory_to_csv", "report.audit_to_csv", "report.geometry_report")


def _fracflow_modules():
    return [m for n, m in sys.modules.items() if n == "fracflow" or n.startswith("fracflow.")]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after(self, name):
        if name in ROOT_FINDS:
            def count_iters(args, report):
                self.counts[name + ".iters"] += report.bisection_iterations
            return count_iters
        if name == "evolution.run":
            def count_accepted(args, record):
                self.counts["steps_accepted"] += len(record.samples) - 1
            return count_accepted
        return None

    def _count_sweep(self, all_rows):
        def count(args, result):
            grid = args[0].grid
            n_tot, n_int = grid.n_total, grid.n
            if all_rows:
                swept = n_tot * n_tot
                useful = n_tot * (n_tot - 1) - (n_tot - n_int) * (n_tot - n_int - 1)
            else:
                swept = n_int * n_tot
                useful = n_int * (n_tot - 1)
            self.counts["pairs_swept"] += swept
            self.counts["pairs_useful"] += useful
        return count

    def _install(self):
        modules = _fracflow_modules()
        for modname, attr in FUNCTIONS:
            name = modname + "." + attr
            orig = getattr(importlib.import_module("fracflow." + modname), attr)
            traced = self._wrap(name, orig, self._after(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, traced)
        cls = importlib.import_module("fracflow.nonlocal_operator").OperatorContext
        for meth, all_rows in SWEEPS.items():
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap("nonlocal_operator." + meth, orig, self._count_sweep(all_rows)))

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            for owner, key, orig in reversed(self._undo):
                setattr(owner, key, orig)
            self._undo.clear()

    def layer_metrics(self, overhead_s):
        """Per-layer metrics as {name: value}; times in seconds unless the
        name says ms.  Self time is a span's duration minus its children's."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, self_s = Counter(), Counter(), Counter()
        for k, (name, t0, t1, _) in enumerate(spans):
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child[k]
        inner = sum(
            1
            for name, _, _, parent in spans
            if name == "nonlocal_operator.apply"
            and parent >= 0
            and spans[parent][0] == "evolution.step_imex"
        )
        c = self.counts
        attempted = sum(calls[s] for s in STEPS)

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for fn in ("pair_stats", "apply", "pair_coeffs", "sp_dlambda"):
            name = "nonlocal_operator." + fn
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_s[name]
        m["nonlocal_operator.build_context_s"] = incl["nonlocal_operator.build_context"]
        m["nonlocal_operator.pairs_swept"] = c["pairs_swept"]
        m["nonlocal_operator.useful_pair_ratio"] = ratio(c["pairs_useful"], c["pairs_swept"])
        for name in ROOT_FINDS:
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_s[name]
            m[name + ".iters_per_call"] = ratio(c[name + ".iters"], calls[name])
        m["energy.well_depth_s"] = incl["energy.well_depth"]
        m["energy.estimate_embedding_constant_s"] = incl["energy.estimate_embedding_constant"]
        for fn in ("nehari_lambda", "energy", "classify", "energy_gradient"):
            name = "energy." + fn
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_s[name]
        m["evolution.run_s"] = incl["evolution.run"]
        m["evolution.steps_accepted"] = c["steps_accepted"]
        m["evolution.steps_attempted"] = attempted
        m["evolution.step_accept_ratio"] = ratio(c["steps_accepted"], attempted)
        m["evolution.step_ms"] = 1000.0 * ratio(sum(incl[s] for s in STEPS), attempted)
        m["evolution.imex_inner_per_step"] = ratio(inner, calls["evolution.step_imex"])
        m["exponents.validate_assumptions_s"] = incl["exponents.validate_assumptions"]
        m["config.load_s"] = incl["config.load_config"]
        m["report.write_s"] = sum(incl[w] for w in WRITERS)
        m["trace.overhead_s"] = overhead_s
        return m
