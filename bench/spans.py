"""Spans around glauberlab's public functions, recorded from outside.

Each traced name is patched at the module attribute where its caller looks
it up (solver.apply_generator is what the Taylor loop calls, harness.save_hierarchy
what cmd_evolve calls), so the program runs unmodified.  A span is
(span id, call id, parent span id, name, start, end); spans stay in memory
and are written once at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""

import json
import os
import time
from collections import Counter, defaultdict

from glauberlab import generators, harness, hierarchy, lattice, solver, vlasov

ROOT_SPAN = "harness.cmd"


def _file_bytes(key):
    return lambda args, result: {key: os.path.getsize(args[1])}


def _birth_bytes(args, result):
    k = args[0]
    return {"generators.apply_birth_bytes": k.grid.n_sites * sum(t.nbytes for t in k.tensors)}


def _rk4_counts(args, result):
    rho0, cfg = args[0], args[1]
    steps = round(cfg.t_final / cfg.dt)
    n = rho0.grid.n_sites
    # four right-hand sides per step, each an N x N multiply and sum
    return {"vlasov.rk4_steps": steps, "vlasov.rhs_flops": 4 * steps * 2 * n * n}


# (module, attribute, span name, counter hook)
PATCHES = (
    (harness, "evolve_global", "solver.evolve_global", None),
    (solver, "taylor_evolve", "solver.taylor_evolve", None),
    (solver, "apply_generator", "generators.apply_generator", None),
    (generators, "apply_birth", "generators.apply_birth", _birth_bytes),
    (generators, "substitute_affine", "hierarchy.substitute_affine", None),
    (harness, "birth_gf_term", "generators.birth_gf_term", None),
    (generators, "birth_gf_term", "generators.birth_gf_term", None),
    (generators, "evaluate_gf", "hierarchy.evaluate_gf", None),
    (harness, "random_ruelle_hierarchy", "hierarchy.random_ruelle_hierarchy", None),
    (harness, "save_hierarchy", "hierarchy.save_hierarchy", _file_bytes("hierarchy.snapshot_bytes")),
    (harness, "write_csv", "harness.write_csv", _file_bytes("harness.csv_bytes")),
    (harness, "integrate", "vlasov.integrate", _rk4_counts),
    (generators, "displacement_matrix", "lattice.displacement_matrix", None),
    (vlasov, "displacement_matrix", "lattice.displacement_matrix", None),
    (lattice, "displacement_matrix", "lattice.displacement_matrix", None),
)

SPAN_NAMES = tuple(dict.fromkeys([ROOT_SPAN] + [name for _, _, name, _ in PATCHES]))
COUNTER_UNITS = {
    "hierarchy.constructions": "count",
    "generators.apply_birth_bytes": "B",
    "hierarchy.snapshot_bytes": "B",
    "harness.csv_bytes": "B",
    "vlasov.rk4_steps": "count",
    "vlasov.rhs_flops": "flop",
}


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._call_id = -1
        self._saved = []

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, self._call_id, parent, name, start, end)
            if hook is not None:
                self.counters.update(hook(args, result))
            return result

        return traced

    def call(self, fn, *args):
        """Run one top-level harness call, traced, as a root span with a new call id."""
        self._call_id += 1
        with self:
            return self._wrap(ROOT_SPAN, fn, None)(*args)

    def __enter__(self):
        for module, attr, name, hook in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))
        init = hierarchy.CorrelationHierarchy.__init__
        self._saved.append((hierarchy.CorrelationHierarchy, "__init__", init))
        counters = self.counters

        def counted_init(obj, *args, **kwargs):
            counters["hierarchy.constructions"] += 1
            init(obj, *args, **kwargs)

        hierarchy.CorrelationHierarchy.__init__ = counted_init
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def mark(self):
        """Position to pass to summary() for the spans and counters recorded after now."""
        return len(self.spans), Counter(self.counters)

    def summary(self, mark):
        """Per span name: total seconds, self seconds and calls; plus counter deltas."""
        first, counters_before = mark
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[name + "_s"] = 0.0
            out[name + "_self_s"] = 0.0
            out[name + "_calls"] = 0
        for span_id, _, _, name, start, end in spans:
            out[name + "_s"] += end - start
            out[name + "_self_s"] += end - start - child_time[span_id]
            out[name + "_calls"] += 1
        for name in COUNTER_UNITS:
            out[name] = self.counters[name] - counters_before[name]
        out["trace.spans"] = len(spans)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["span_id", "call_id", "parent_id", "name", "start_s", "end_s"],
                 "spans": self.spans},
                fh,
            )
