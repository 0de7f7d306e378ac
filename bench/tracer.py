"""Span tracer that wraps qvl's functions from outside the package.

Each target is replaced by a wrapper at every place it is bound: the module
that defines it and every qvl module that imported it by name (for example
``hom_basis`` in qvl.reps, qvl.counting, qvl.cli and qvl).  A target that
no longer exists is reported as absent, so the tracer keeps working while
the package is refactored.  A span's self time is its duration minus the
time covered by its child spans; a layer's self time is the sum over the
spans of that layer.  Generators get one span per resumption.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


def _loop_coords(a, k):
    pres, field, dims = a[0], a[1], a[2]
    quiver = pres.quiver
    n = sum(dims.get(quiver.source(x), 0) ** 2
            for x in quiver.arrow_names() if quiver.is_loop(x))
    return {"tried": field.p ** n}


def _ambient_coords(a, k):
    pres, field, dims = a[0], a[1], a[2]
    n = sum(dims.get(t, 0) * dims.get(s, 0) for _, s, t in pres.quiver.arrows)
    return {"tried": field.p ** n}


# (module:attribute, span name, options).  Options: "before"/"after" give
# counters computed from (args, kwargs) before the call or (args, result)
# after it; "gen" marks a generator function, whose yields are counted;
# "top" counts a call only when it comes from another layer.
TARGETS = [
    ("qvl.cli:run_command", "cli.run_command", {}),
    ("qvl.dsl:parse_quiver_spec", "dsl.parse",
     {"before": lambda a, k: {"chars": len(a[0])}}),
    ("qvl.dsl:print_quiver_spec", "dsl.print", {}),
    *((f"qvl.families:{fn}", "families.build", {"top": True})
      for fn in ("build_family", "family_a", "family_a_prime",
                 "family_a_prime_commuting", "family_lambda", "family_b")),
    ("qvl.families:is_geometrically_irreducible_family", "families.classify",
     {}),
    ("qvl.quiver:BoundQuiver._check_truncation_bound", "quiver.bound_check",
     {}),
    ("qvl.quiver:ideal_subspace", "quiver.ideal_subspace", {}),
    ("qvl.quiver:ext2_dimension", "quiver.ext2_dimension", {}),
    ("qvl.linalg:Matrix.__init__", "linalg.matrix_init",
     {"after": lambda a, r: {"entries": a[0].nrows * a[0].ncols}}),
    ("qvl.linalg:Matrix.__matmul__", "linalg.matmul",
     {"before": lambda a, k: {"mults": a[0].nrows * a[0].ncols * a[1].ncols}}),
    ("qvl.linalg:Matrix.rref", "linalg.rref",
     {"before": lambda a, k: {"cells": a[0].nrows * a[0].ncols}}),
    ("qvl.linalg:Matrix.kernel_basis", "linalg.kernel_basis", {}),
    *((f"qvl.linalg:Matrix.{fn}", f"linalg.{fn.strip('_')}", {})
      for fn in ("__add__", "__sub__", "__neg__", "scale", "__pow__",
                 "transpose", "apply", "rank", "inverse", "is_invertible",
                 "is_zero")),
    *((f"qvl.linalg:{fn}", f"linalg.{fn}", {})
      for fn in ("hstack", "vstack", "block2x2")),
    ("qvl.reps:Representation.is_valid", "reps.is_valid", {}),
    ("qvl.reps:hom_basis", "reps.hom_basis", {}),
    ("qvl.extensions:cocycle_space_basis", "extensions.cocycle_space_basis",
     {}),
    ("qvl.extensions:cocycle_value", "extensions.cocycle_value", {}),
    ("qvl.extensions:build_extension", "extensions.build_extension", {}),
    ("qvl.extensions:splitting_from_mono", "extensions.splitting_from_mono",
     {}),
    ("qvl.counting:_iter_loop_assignments", "counting.loop_locus",
     {"gen": True, "before": _loop_coords}),
    ("qvl.counting:_linear_system_for_arrows", "counting.arrow_system", {}),
    ("qvl.counting:iter_rep_points_odometer", "counting.odometer",
     {"gen": True, "before": _ambient_coords}),
    *((f"qvl.counting:{fn}", f"counting.{fn}", {"gen": True})
      for fn in ("iter_rep_points_layered", "iter_hom_points",
                 "iter_mono_points", "iter_ext_points")),
    ("qvl.counting:mono_reducibility_witness", "counting.witness", {}),
    ("qvl.counting:hom_counterexample_census", "counting.census", {}),
    *((f"qvl.counting:{fn}", f"counting.{fn}", {})
      for fn in ("count_points", "count_rep_points", "count_rep_points_layered",
                 "count_hom_points", "count_mono_points", "count_ext_points",
                 "product_count_check", "leading_coefficient_probe",
                 "iter_rep_points")),
    *((f"qvl.serialize:{fn}", "serialize", {"top": True})
      for fn in ("field_to_json", "field_from_json", "matrix_to_json",
                 "matrix_from_json", "rep_to_json", "rep_from_json",
                 "morphism_to_json", "morphism_from_json", "blocks_to_json",
                 "blocks_from_json")),
]

# Streams whose yields are points handed to a caller (mono points are hom
# points filtered, so they are not counted twice).
POINT_STREAMS = ("counting.odometer", "counting.iter_rep_points_layered",
                 "counting.iter_hom_points", "counting.iter_ext_points")


# Spans this many levels deep (a query, the qvl command it runs and the
# layer call under that) are kept in the span log; deeper spans, such as
# every Matrix.__init__, only add to the counters.
LOG_DEPTH = 3


class _Stat:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}


class Tracer:
    """Collects spans in memory; shallow spans are also kept as a log."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.absent: list[str] = []
        self.log: list[tuple] = []      # (id, parent id, name, start, end)
        self._stack: list[list] = []    # [name, start, child time, id]
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # --- spans -------------------------------------------------------------

    def enter(self, name: str):
        span_id = len(self.log) if len(self._stack) < LOG_DEPTH else -1
        if span_id >= 0:
            self.log.append(None)       # filled in by exit
        self._stack.append([name, time.perf_counter(), 0.0, span_id])

    def exit(self):
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.stats[name].self_s += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if span_id >= 0:
            parent = self._stack[-1][3] if self._stack else -1
            self.log[span_id] = (span_id, parent, name, start, end)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self.stats.setdefault(name, _Stat()).calls += 1
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # --- wrapping ----------------------------------------------------------

    def _count(self, name, stat, counter, *args):
        try:
            for key, value in counter(*args).items():
                stat.counts[key] = stat.counts.get(key, 0) + value
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            self.absent.append(f"{name} counter ({exc!r})")
            return False
        return True

    def _wrap(self, fn, name: str, opts: dict):
        tracer = self
        stat = self.stats.setdefault(name, _Stat())
        layer = name.split(".")[0]
        top_only = opts.get("top", False)
        before, after = [opts.get("before")], [opts.get("after")]

        def record_call(a, k):
            if not (top_only and tracer._stack
                    and tracer._stack[-1][0].split(".")[0] == layer):
                stat.calls += 1
            if before[0] and not tracer._count(name, stat, before[0], a, k):
                before[0] = None

        if opts.get("gen"):
            def traced(gen):
                while True:
                    tracer.enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    stat.counts["yielded"] = stat.counts.get("yielded", 0) + 1
                    yield item

            @functools.wraps(fn)
            def wrapper(*a, **k):
                record_call(a, k)
                return traced(fn(*a, **k))
        else:
            @functools.wraps(fn)
            def wrapper(*a, **k):
                record_call(a, k)
                tracer.enter(name)
                try:
                    result = fn(*a, **k)
                finally:
                    tracer.exit()
                if after[0] and not tracer._count(name, stat, after[0], a,
                                                  result):
                    after[0] = None
                return result
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qvl" or n.startswith("qvl.")]
        for target, name, opts in TARGETS:
            mod_name, attr = target.split(":")
            path = attr.split(".")
            owner = sys.modules.get(mod_name)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(original, name, opts)
            if len(path) > 1:           # a method: patch its class once
                places = [(owner, path[-1])]
            else:
                places = [(m, key) for m in modules
                          for key, value in list(vars(m).items())
                          if value is original]
            for place, key in places:
                self._patches.append((place, key, original))
                setattr(place, key, wrapper)

    def uninstall(self):
        for place, key, original in reversed(self._patches):
            setattr(place, key, original)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def count(self, name: str, key: str) -> int:
        stat = self.stats.get(name)
        return stat.counts.get(key, 0) if stat else 0

    def self_s(self, prefix: str) -> float:
        """Self time of one span, or of a whole layer given its name."""
        return sum(s.self_s for n, s in self.stats.items()
                   if n == prefix or n.startswith(prefix + "."))

    def layer_metrics(self) -> dict:
        tried = self.count("counting.loop_locus", "tried")
        accepted = self.count("counting.loop_locus", "yielded")
        return {
            "cli.run_command.calls": self.calls("cli.run_command"),
            "cli.self_s": self.self_s("cli"),
            "dsl.parse.calls": self.calls("dsl.parse"),
            "dsl.parse.chars": self.count("dsl.parse", "chars"),
            "dsl.self_s": self.self_s("dsl"),
            "families.build.calls": self.calls("families.build"),
            "families.self_s": self.self_s("families"),
            "quiver.bound_check.calls": self.calls("quiver.bound_check"),
            "quiver.bound_check.self_s": self.self_s("quiver.bound_check"),
            "quiver.ideal_subspace.calls": self.calls("quiver.ideal_subspace"),
            "quiver.ideal_subspace.self_s":
                self.self_s("quiver.ideal_subspace"),
            "quiver.ext2_dimension.self_s":
                self.self_s("quiver.ext2_dimension"),
            "linalg.matrix_init.calls": self.calls("linalg.matrix_init"),
            "linalg.matrix_init.entries":
                self.count("linalg.matrix_init", "entries"),
            "linalg.matrix_init.self_s": self.self_s("linalg.matrix_init"),
            "linalg.matmul.calls": self.calls("linalg.matmul"),
            "linalg.matmul.mults": self.count("linalg.matmul", "mults"),
            "linalg.matmul.self_s": self.self_s("linalg.matmul"),
            "linalg.rref.calls": self.calls("linalg.rref"),
            "linalg.rref.cells": self.count("linalg.rref", "cells"),
            "linalg.rref.self_s": self.self_s("linalg.rref"),
            "linalg.kernel_basis.calls": self.calls("linalg.kernel_basis"),
            "linalg.self_s": self.self_s("linalg"),
            "reps.is_valid.calls": self.calls("reps.is_valid"),
            "reps.is_valid.self_s": self.self_s("reps.is_valid"),
            "reps.hom_basis.calls": self.calls("reps.hom_basis"),
            "reps.hom_basis.self_s": self.self_s("reps.hom_basis"),
            "extensions.cocycle_space_basis.calls":
                self.calls("extensions.cocycle_space_basis"),
            "extensions.cocycle_space_basis.self_s":
                self.self_s("extensions.cocycle_space_basis"),
            "extensions.cocycle_value.calls":
                self.calls("extensions.cocycle_value"),
            "extensions.cocycle_value.self_s":
                self.self_s("extensions.cocycle_value"),
            "extensions.build_extension.calls":
                self.calls("extensions.build_extension"),
            "extensions.splitting_from_mono.calls":
                self.calls("extensions.splitting_from_mono"),
            "counting.loop_locus.tried": tried,
            "counting.loop_locus.accepted": accepted,
            "counting.loop_locus.accept_ratio":
                accepted / tried if tried else 0.0,
            "counting.loop_locus.self_s": self.self_s("counting.loop_locus"),
            "counting.arrow_system.calls": self.calls("counting.arrow_system"),
            "counting.arrow_system.self_s":
                self.self_s("counting.arrow_system"),
            "counting.odometer.tried": self.count("counting.odometer", "tried"),
            "counting.points_yielded":
                sum(self.count(n, "yielded") for n in POINT_STREAMS),
            "counting.witness.self_s": self.self_s("counting.witness"),
            "counting.census.self_s": self.self_s("counting.census"),
            "serialize.calls": self.calls("serialize"),
            "serialize.self_s": self.self_s("serialize"),
        }
