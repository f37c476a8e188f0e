"""Span tracing from outside the program.

Public functions of orbifold24 are replaced, at every module attribute and
class attribute through which callers reach them, by wrappers that record a
span (name, start, end, parent, count, detail) in memory.  Self time is a
span's duration minus the durations of its direct children; the one
exception is scenarios.run_scenario.<name>.s, the whole time of each
scenario.  Nothing in the program is edited; the wrappers exist only in a
traced worker process.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
from time import perf_counter


def _size(result):
    return len(result)


def _records(report):
    return len(report.records())


# (module, attribute, span name, count of the result, name of that count)
# Callers reach a function through any module that imported it by name, so
# every binding of the same function object is replaced.
TARGETS = [
    ("rootsys", "min_pairing", "rootsys.min_pairing", None, None),
    ("rootsys", "support_contains", "rootsys.support_contains", None, None),
    ("rootsys", "weight_support", "rootsys.weight_support", _size, "weights"),
    ("rootsys", "build_root_datum", "rootsys.build_root_datum", None, None),
    ("affine", "twisted_lowest", "affine.twisted_lowest", None, None),
    ("affine", "twisted_positivity_certificate", "affine.twisted_positivity_certificate", None, None),
    ("affine", "integral_spectrum_table", "affine.integral_spectrum_table", _size, "labels"),
    ("affine", "enumerate_modules", "affine.enumerate_modules", _size, "modules"),
    ("qseries", "dimension_identities", "qseries.dimension_identities", None, None),
    ("orbifold", "fixed_subalgebra", "orbifold.fixed_subalgebra", None, None),
    ("orbifold", "assemble_root_subsystem", "orbifold.assemble_root_subsystem", None, None),
    ("orbifold", "identify", "orbifold.identify", _size, "shapes"),
    ("orbifold", "verlinde_simple_current", "orbifold.verlinde_simple_current", None, None),
    ("orbifold", "embeds", "orbifold.embeds", None, None),
    ("lattice", "NiemeierLattice.__init__", "lattice.NiemeierLattice", None, None),
    ("lattice", "NiemeierLattice.vectors_of_norm_at_most", "lattice.vectors_of_norm_at_most", _size, "vectors"),
    ("lattice", "min_norm_shifted", "lattice.min_norm_shifted", None, None),
    ("lattice", "twisted_weight_one", "lattice.twisted_weight_one", None, None),
    ("lattice", "twisted_sector_min_shift", "lattice.twisted_sector_min_shift", None, None),
    ("scenarios", "parse_scenario", "scenarios.parse_scenario", None, None),
    ("scenarios", "run_scenario", "scenarios.run_scenario", _records, None),
]

# every module that binds a traced function, callers included
PACKAGE = ("rootsys", "affine", "qseries", "orbifold", "lattice", "scenarios", "cli")

RUN_SCENARIOS = ("M1", "M2", "M3", "M4", "M5")

# every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    [(f"{name}.s", "s") for name in (
        "rootsys.min_pairing", "rootsys.support_contains", "rootsys.weight_support",
        "rootsys.build_root_datum", "affine.twisted_lowest",
        "affine.twisted_positivity_certificate", "affine.integral_spectrum_table",
        "qseries.dimension_identities", "orbifold.fixed_subalgebra",
        "orbifold.assemble_root_subsystem", "orbifold.identify",
        "orbifold.verlinde_simple_current", "lattice.NiemeierLattice",
        "lattice.vectors_of_norm_at_most", "lattice.min_norm_shifted",
        "lattice.twisted_weight_one", "lattice.twisted_sector_min_shift",
        "scenarios.parse_scenario")]
    + [(f"scenarios.run_scenario.{sc}.s", "s") for sc in RUN_SCENARIOS]
    + [("orbifold.embeds.first_s", "s"), ("orbifold.embeds.search_s", "s")]
    + [(name, "count") for name in (
        "rootsys.min_pairing.calls", "rootsys.support_contains.calls",
        "rootsys.weight_support.weights", "rootsys.build_root_datum.calls",
        "affine.twisted_lowest.calls", "affine.integral_spectrum_table.labels",
        "affine.enumerate_modules.modules", "qseries.dimension_identities.calls",
        "orbifold.identify.shapes", "orbifold.embeds.calls",
        "lattice.vectors_of_norm_at_most.vectors", "scenarios.checks")]
)


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, count, detail)
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            detail = None
            if name == "scenarios.run_scenario":
                detail = (args[0] if args else kwargs["sc"]).name
            elif name == "orbifold.embeds":
                detail = str(args[1] if len(args) > 1 else kwargs["y"])
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, 0, detail)
            if count:
                spans[idx] = (name, start, end, parent, count(result), detail)
            return result

        return traced

    def install(self):
        """Wrap every target at each binding inside the orbifold24 package."""
        modules = {name: importlib.import_module(f"orbifold24.{name}") for name in PACKAGE}
        for modname, attr, name, count, _ in TARGETS:
            owner = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def per_layer(self):
        """Self times and counts, keyed like PER_LAYER."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        acc = collections.Counter()
        suffix = {name: sfx for _, _, name, _, sfx in TARGETS}
        seen_targets = set()
        for i, (name, start, end, parent, n, detail) in enumerate(self.spans):
            self_time = end - start - child[i]
            if name == "orbifold.embeds":
                # the first query into a target pays for its pairing matrix
                key = "first_s" if detail not in seen_targets else "search_s"
                seen_targets.add(detail)
                acc[f"{name}.{key}"] += self_time
            elif name == "scenarios.run_scenario":
                # whole span: the runner's own code is glue around the layers
                acc[f"{name}.{detail}.s"] += end - start
                acc["scenarios.checks"] += n
                continue
            else:
                acc[f"{name}.s"] += self_time
            acc[f"{name}.calls"] += 1
            if suffix[name]:
                acc[f"{name}.{suffix[name]}"] += n
        return {metric: acc[metric] for metric, _ in PER_LAYER}

    def dump(self, path):
        """Write the raw spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
