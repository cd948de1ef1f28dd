"""In-memory span tracing of fracspec's layers, installed from outside the package.

`Tracer.install()` replaces each public function named in BINDINGS, at every
module that binds it, with a wrapper that records one span per call: name,
start and end (integer nanoseconds), parent span, operation id, an optional
amount of work, and whether the call raised.  The benchmark opens a root span
named "op" around each timed operation.  Spans stay in memory; `dump()`
writes them out once the run has ended.

A span's self time is its duration minus the part of it that its child spans
cover.  Within one operation the self times add up to the root's duration
exactly when every child lies inside its parent and siblings do not overlap,
which `check_self_times()` verifies.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import threading
import time


def _rule_points(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n"]


def _table_evals(args, kwargs, result):
    return result.size


# (module, attribute, span name, amount of work per call).  A function is
# wrapped at each module that binds it, because callers look it up there.
BINDINGS = (
    ("fracspec.orthopoly", "gauss_jacobi_rule", "orthopoly.gauss_jacobi_rule", _rule_points),
    ("fracspec.ode_solver", "gauss_jacobi_rule", "orthopoly.gauss_jacobi_rule", _rule_points),
    ("fracspec.pde_solver", "gauss_jacobi_rule", "orthopoly.gauss_jacobi_rule", _rule_points),
    ("fracspec.orthopoly", "jacobi_table", "orthopoly.jacobi_table", _table_evals),
    ("fracspec.ode_solver", "jacobi_table", "orthopoly.jacobi_table", _table_evals),
    ("fracspec.orthopoly", "gjp_table", "orthopoly.gjp_table", None),
    ("fracspec.ode_solver", "gjp_table", "orthopoly.gjp_table", None),
    ("fracspec.pde_solver", "gjp_table", "orthopoly.gjp_table", None),
    ("fracspec.ode_solver", "assemble_stiffness", "ode_solver.assemble_stiffness", None),
    ("fracspec.pde_solver", "assemble_stiffness", "ode_solver.assemble_stiffness", None),
    ("fracspec.ode_solver", "assemble_mass", "ode_solver.assemble_mass", None),
    ("fracspec.pde_solver", "assemble_mass", "ode_solver.assemble_mass", None),
    ("fracspec.ode_solver", "assemble_load", "ode_solver.assemble_load", None),
    ("fracspec.pde_solver", "assemble_load", "ode_solver.assemble_load", None),
    ("fracspec.ode_solver", "assemble_load_powers", "ode_solver.assemble_load_powers", None),
    ("fracspec.pde_solver", "assemble_load_powers", "ode_solver.assemble_load_powers", None),
    ("fracspec.ode_solver", "solve_linear", "ode_solver.solve_linear", None),
    ("fracspec.pde_solver", "solve_linear", "ode_solver.solve_linear", None),
    ("fracspec.ode_solver", "solve", "ode_solver.solve", None),
    ("fracspec.analysis", "solve", "ode_solver.solve", None),
    ("fracspec.cli", "solve", "ode_solver.solve", None),
    ("fracspec.ode_solver", "evaluate", "ode_solver.evaluate", None),
    ("fracspec.pde_solver", "eigh", "pde_solver.eigh", None),
    ("fracspec.pde_solver", "space_mass_matrix", "pde_solver.space_mass_matrix", None),
    ("fracspec.pde_solver", "assemble_spacetime_load", "pde_solver.assemble_spacetime_load", None),
    ("fracspec.pde_solver", "solve_spacetime", "pde_solver.solve_spacetime", None),
    ("fracspec.cli", "solve_spacetime", "pde_solver.solve_spacetime", None),
    ("fracspec.pde_solver", "evaluate_spacetime", "pde_solver.evaluate_spacetime", None),
    ("fracspec.analysis", "error_linf", "analysis.error_linf", None),
    ("fracspec.cli", "error_linf", "analysis.error_linf", None),
    ("fracspec.analysis", "error_l2", "analysis.error_l2", None),
    ("fracspec.cli", "error_l2", "analysis.error_l2", None),
    ("fracspec.analysis", "self_convergence_reference", "analysis.self_convergence_reference", None),
    ("fracspec.cli", "self_convergence_reference", "analysis.self_convergence_reference", None),
    ("fracspec.analysis", "run_convergence_study", "analysis.run_convergence_study", None),
    ("fracspec.cli", "run_convergence_study", "analysis.run_convergence_study", None),
    ("fracspec.analysis", "pde_errors_at_final_time", "analysis.pde_errors_at_final_time", None),
    ("fracspec.cli", "pde_errors_at_final_time", "analysis.pde_errors_at_final_time", None),
    ("fracspec.cli", "main", "cli.main", None),
)

ROOT = "op"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.amounts: list[int] = []
        self.raised: list[bool] = []
        self.off_main: list[bool] = []
        self.op = -1
        self.missing: list[str] = []
        self._main = threading.get_ident()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []
        self._lock = threading.Lock()  # keeps the parallel lists aligned across threads

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        on_main = stack is self._main_stack
        if stack:
            parent = stack[-1]
        else:
            # A worker thread's first span hangs under the main thread's open span.
            parent = self._main_stack[-1] if (not on_main and self._main_stack) else -1
        with self._lock:
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.ops.append(self.op)
            self.amounts.append(0)
            self.raised.append(False)
            self.off_main.append(not on_main)
            self.ends.append(0)
            self.starts.append(0)
        stack.append(idx)
        self.starts[idx] = time.perf_counter_ns()
        return idx

    def end(self, idx: int, amount: int = 0, raised: bool = False):
        self.ends[idx] = time.perf_counter_ns()
        self.amounts[idx] = amount
        self.raised[idx] = raised
        self._stack().pop()

    def wrap(self, name: str, fn, amount=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, raised=True)
                raise
            self.end(idx, amount(args, kwargs, result) if amount else 0)
            return result

        return traced

    def install(self):
        """Wrap every binding that exists; record the ones that do not."""
        for module_name, attr, name, amount in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, amount))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def self_times(self) -> list[int]:
        """Duration minus the union of child intervals, clipped to the span."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(len(self.names)):
            start, end = self.starts[i], self.ends[i]
            covered, reach = 0, start
            for c in sorted(children.get(i, ()), key=self.starts.__getitem__):
                lo, hi = max(self.starts[c], reach), min(self.ends[c], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def check_self_times(self, selfs: list[int]) -> tuple[int, int, int]:
        """(ops checked, ops whose self times do not add up to the root, ops threaded).

        On one thread the self times within an operation must sum to the
        root's duration exactly.  Spans from worker threads overlap, so each
        covers its own time while the parent loses only the union of its
        children: there the sum must be at least the root's duration.
        """
        total: dict[int, int] = {}
        root: dict[int, int] = {}
        threaded: set[int] = set()
        for i, op in enumerate(self.ops):
            total[op] = total.get(op, 0) + selfs[i]
            if self.parents[i] < 0:
                if self.names[i] == ROOT:
                    root[op] = self.ends[i] - self.starts[i]
                else:
                    root[op] = -1  # a layer span outside any operation
            if self.off_main[i]:
                threaded.add(op)
        bad = sum(
            1 for op, dur in root.items()
            if dur < 0 or (total[op] < dur if op in threaded else total[op] != dur)
        )
        return len(root), bad, len(threaded)

    def dump(self, path: str):
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        rows = [
            [index[self.names[i]], self.starts[i], self.ends[i], self.parents[i], self.ops[i],
             self.amounts[i], int(self.raised[i])]
            for i in range(len(self.names))
        ]
        doc = {
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "amount", "raised"],
            "names": names,
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _under(tracer: Tracer, ancestor: str) -> list[bool]:
    """Per span: does `ancestor` appear on its parent chain?"""
    flags: list[bool] = []
    for i, p in enumerate(tracer.parents):
        flags.append(p >= 0 and (flags[p] or tracer.names[p] == ancestor))
    return flags


def layer_metrics(tracer: Tracer, selfs: list[int], op_pass: list[int]) -> tuple[dict, dict]:
    """Per-layer figures, each the median over passes of the per-pass total.

    Returns (metrics by name, per-pass counts by name); times are in ms.
    """
    in_spacetime = _under(tracer, "pde_solver.solve_spacetime")
    n_passes = max(op_pass) + 1 if op_pass else 0
    per_pass: dict[str, list[float]] = {}

    def add(metric: str, p: int, value: float):
        per_pass.setdefault(metric, [0.0] * n_passes)[p] += value

    for i, name in enumerate(tracer.names):
        op = tracer.ops[i]
        if op < 0 or name == ROOT:
            continue
        p = op_pass[op]
        ms = (tracer.ends[i] - tracer.starts[i]) / 1e6
        self_ms = selfs[i] / 1e6
        add(f"{name}.calls", p, 1)
        add(f"{name}.ms", p, ms)
        add(f"{name}.self_ms", p, self_ms)
        add(f"{name}.amount", p, tracer.amounts[i])
        add(f"{name}.failed", p, int(tracer.raised[i]))
        if name == "ode_solver.assemble_load_powers":
            add("ode_solver.assemble_load.self_ms", p, self_ms)
        if name == "ode_solver.solve_linear" and in_spacetime[i]:
            add("pde_solver.mode_solves", p, 1)
            add("pde_solver.mode_solve.ms", p, ms)
    aliases = {
        "orthopoly.gauss_jacobi_rule.points": "orthopoly.gauss_jacobi_rule.amount",
        "orthopoly.jacobi_table.evals": "orthopoly.jacobi_table.amount",
    }
    for alias, source in aliases.items():
        if source in per_pass:
            per_pass[alias] = per_pass[source]
    medians = {k: statistics.median(v) for k, v in per_pass.items()}
    return medians, per_pass


def op_counts(tracer: Tracer, op_names: list[str]) -> dict[str, list[tuple[float, int]]]:
    """Per operation name, the distinct (rule builds per scalar solve, mode solves) seen.

    One entry per name means the counts repeated exactly across passes.
    """
    in_solve = _under(tracer, "ode_solver.solve")
    in_spacetime = _under(tracer, "pde_solver.solve_spacetime")
    rows: dict[int, list[int]] = {}
    for i, name in enumerate(tracer.names):
        row = rows.setdefault(tracer.ops[i], [0, 0, 0])
        if name == "ode_solver.solve":
            row[0] += 1
        elif name == "orthopoly.gauss_jacobi_rule" and in_solve[i]:
            row[1] += 1
        elif name == "ode_solver.solve_linear" and in_spacetime[i]:
            row[2] += 1
    seen: dict[str, set] = {}
    for op, (solves, rules, modes) in rows.items():
        if op >= 0:
            seen.setdefault(op_names[op], set()).add((rules / solves if solves else 0, modes))
    return {name: sorted(counts) for name, counts in seen.items()}
