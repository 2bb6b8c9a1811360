"""Outside-in tracing of the engine's layers from the benchmark's own code.

The engine imports functions by name, so a wrapper installed only where a
function is defined would miss most calls.  :meth:`Tracer.install` replaces
every binding of each target function in the measured modules and
:meth:`Tracer.uninstall` restores them.  Spans (name, start, end, parent,
request) are kept in memory; counts are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("kbfile", "events", "conditionals", "coherence", "simplex", "inference", "cli")

# (defining module, function, span name)
TARGETS = (
    ("simplex", "solve_eq_lp", "simplex.solve_eq_lp"),
    ("conditionals", "constituents", "conditionals.constituents"),
    ("conditionals", "gn_includes", "conditionals.gn_includes"),
    ("coherence", "check_coherence", "coherence.check_coherence"),
    ("coherence", "extension_interval", "coherence.extension_interval"),
    ("inference", "p_entails", "inference.p_entails"),
    ("inference", "p_entails_qc", "inference.p_entails_qc"),
    ("events", "enumerate_worlds", "events.enumerate_worlds"),
    ("events", "is_impossible", "events.is_impossible"),
    ("kbfile", "load_kb", "kbfile.load_kb"),
    ("cli", "main", "cli.main"),
)

LP, CHECK, EXTEND = "simplex.solve_eq_lp", "coherence.check_coherence", "coherence.extension_interval"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.stack: list[int] = []
        self.request = -1
        self.lp_inputs: list[tuple] = []
        self.lp_infeasible = 0
        self.lp_cells = 0
        self.check_levels = 0
        self.constituents_built = 0
        self.worlds_enumerated = 0
        self._installed: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        if name == "events.enumerate_worlds":
            # A generator: consume it inside the span so the span covers the
            # enumeration (Context.worlds builds a tuple from it anyway).
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    worlds = tuple(fn(*args, **kwargs))
                finally:
                    tracer.close(idx)
                tracer.worlds_enumerated += len(worlds)
                return iter(worlds)

            return wrapper

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result) -> None:
        if name == LP:
            rows, rhs = args[0], args[1]
            self.lp_inputs.append((rows, rhs))
            self.lp_cells += len(rows) * len(rows[0])
            if result.status == "infeasible":
                self.lp_infeasible += 1
        elif name == CHECK:
            self.check_levels += len(result.trace)
        elif name == "conditionals.constituents":
            self.constituents_built += len(result)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"cohere.{m}") for m in MODULES}
        for home, attr, name in TARGETS:
            original = getattr(modules[home], attr)
            wrapper = self._wrap(original, name)
            for mod in modules.values():
                if mod.__dict__.get(attr) is original:
                    self._installed.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, request]) + "\n")

    def counts(self) -> dict[str, int]:
        """Every count the layer metrics use; two passes over the same
        queries must give identical values."""
        calls: dict[str, int] = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        nearest = {CHECK: [], EXTEND: []}
        in_check = in_extend = checks_in_extend = 0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            for kind, arr in nearest.items():
                arr.append(i if name == kind else (arr[parent] if parent >= 0 else -1))
            if name == LP:
                in_check += nearest[CHECK][i] >= 0
                in_extend += nearest[EXTEND][i] >= 0
            elif name == CHECK and parent >= 0 and nearest[EXTEND][parent] >= 0:
                checks_in_extend += 1
        out = {f"calls.{name}": calls.get(name, 0) for _, _, name in TARGETS}
        out.update(
            lp_infeasible=self.lp_infeasible,
            lp_cells=self.lp_cells,
            lps_in_check=in_check,
            lps_in_extend=in_extend,
            checks_in_extend=checks_in_extend,
            check_levels=self.check_levels,
            constituents_built=self.constituents_built,
            worlds_enumerated=self.worlds_enumerated,
        )
        return out

    def self_times(self) -> dict[str, float]:
        """Span time minus the time its child spans cover, summed by name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out

    def replay_phase1(self, solve) -> float:
        """Seconds to re-solve every recorded LP for feasibility only.

        Callers pass one system to several LPs with different objectives
        (one per conditional in ``solution_functionals``); such a system is
        solved once and its time counted once per LP that used it."""
        uses: dict[tuple[int, int], list] = {}
        for rows, rhs in self.lp_inputs:
            uses.setdefault((id(rows), id(rhs)), [rows, rhs, 0])[2] += 1
        total = 0.0
        for rows, rhs, n in uses.values():
            start = time.perf_counter()
            solve(rows, rhs)
            total += n * (time.perf_counter() - start)
        return total


def layer_metrics(tracer: Tracer, counts: dict[str, int], phase1_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass, as
    name -> (value, unit)."""
    st = tracer.self_times()

    def calls(name):
        return counts[f"calls.{name}"]

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    def count(value):
        return (value, "count")

    def seconds(name):
        return (st.get(name, 0.0), "s")

    return {
        "simplex.lp_calls": count(calls(LP)),
        "simplex.lp_infeasible": count(counts["lp_infeasible"]),
        "simplex.lp_cells": count(counts["lp_cells"]),
        "simplex.lp_s": seconds(LP),
        "simplex.phase1_s": (phase1_s, "s"),
        "simplex.lps_per_check": ratio(counts["lps_in_check"], calls(CHECK)),
        "simplex.lps_per_extend": ratio(counts["lps_in_extend"], calls(EXTEND)),
        "coherence.check_calls": count(calls(CHECK)),
        "coherence.check_levels": count(counts["check_levels"]),
        "coherence.check_self_s": seconds(CHECK),
        "coherence.extend_calls": count(calls(EXTEND)),
        "coherence.extend_self_s": seconds(EXTEND),
        "coherence.checks_per_extend": ratio(counts["checks_in_extend"], calls(EXTEND)),
        "inference.entail_calls": count(calls("inference.p_entails")),
        "inference.entail_self_s": seconds("inference.p_entails"),
        "inference.qc_calls": count(calls("inference.p_entails_qc")),
        "inference.qc_self_s": seconds("inference.p_entails_qc"),
        "conditionals.constituents_calls": count(calls("conditionals.constituents")),
        "conditionals.constituents_built": count(counts["constituents_built"]),
        "conditionals.constituents_self_s": seconds("conditionals.constituents"),
        "conditionals.gn_includes_calls": count(calls("conditionals.gn_includes")),
        "events.worlds_enumerated": count(counts["worlds_enumerated"]),
        "events.enumerate_s": seconds("events.enumerate_worlds"),
        "events.is_impossible_calls": count(calls("events.is_impossible")),
        "events.is_impossible_self_s": seconds("events.is_impossible"),
        "kbfile.parse_calls": count(calls("kbfile.load_kb")),
        "kbfile.parse_self_s": seconds("kbfile.load_kb"),
        "cli.commands": count(calls("cli.main")),
        "cli.self_s": seconds("cli.main"),
    }
