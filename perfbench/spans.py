"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each public function named in ``TARGETS`` with a
wrapper at every ``graphgames`` module attribute that holds it, so calls made
through any import path are seen; ``uninstall`` puts the originals back.
Wrappers record spans only while ``active`` is set, which the benchmark does
around each timed operation and never around its output checks.  Spans are
kept in memory as ``(group, start, end, parent)`` and reduced to per-layer
metrics by ``Tracer.metrics``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function, span group).  Functions of one group that call each
# other (``report_to_json`` -> ``machine_to_json``) open a single span.
TARGETS = [
    ("graphgames.cli", "main", "cli.main"),
    ("graphgames.jsonio", "graph_game_from_json", "jsonio.load"),
    ("graphgames.jsonio", "winlose_from_json", "jsonio.load"),
    ("graphgames.jsonio", "profile_from_json", "jsonio.load"),
    ("graphgames.jsonio", "dumps", "jsonio.emit"),
    ("graphgames.jsonio", "arena_to_dot", "jsonio.dot"),
    ("graphgames.jsonio", "machine_to_dot", "jsonio.dot"),
    ("graphgames.arena", "validate_arena", "arena.validate"),
    ("graphgames.arena", "closed_strongly_connected_sets", "arena.recurrence_sets"),
    ("graphgames.arena", "feasible_inf_sets", "arena.recurrence_sets"),
    ("graphgames.arena", "minimize_machine", "arena.minimize"),
    ("graphgames.arena", "walk_configurations", "arena.walk"),
    ("graphgames.winlose", "solve_parity", "winlose.solve_parity"),
    ("graphgames.winlose", "solve_muller", "winlose.solve_muller"),
    ("graphgames.guarantees", "guarantee_table", "guarantees.guarantee_table"),
    ("graphgames.guarantees", "optimal_strategy", "guarantees.optimal_strategy"),
    ("graphgames.equilibria", "synthesize_ne", "equilibria.synthesize"),
    ("graphgames.equilibria", "muller_pareto_ne", "equilibria.synthesize"),
    ("graphgames.equilibria", "synthesize_antagonistic_spe", "equilibria.synthesize"),
    ("graphgames.equilibria", "verify_ne", "equilibria.verify_ne"),
    ("graphgames.equilibria", "verify_spe", "equilibria.verify_spe"),
]
EMIT_SUFFIX = "_to_json"  # every jsonio.*_to_json also belongs to jsonio.emit
BOOKKEEPING = "trace.bookkeeping"

# (metric, unit) in report order; the names match BENCHMARK.json.
METRICS = [
    ("cli.main.self_s", "s"),
    ("jsonio.load.self_s", "s"),
    ("jsonio.emit.s", "s"),
    ("jsonio.dot.s", "s"),
    ("jsonio.dot.calls", "count"),
    ("arena.validate.s", "s"),
    ("arena.recurrence_sets.s", "s"),
    ("arena.recurrence_sets.calls", "count"),
    ("arena.recurrence_sets.sets", "count"),
    ("arena.recurrence_sets.hit_ratio", "ratio"),
    ("arena.minimize.s", "s"),
    ("arena.minimize.calls", "count"),
    ("arena.minimize.states_in", "count"),
    ("arena.minimize.states_out", "count"),
    ("arena.walk.s", "s"),
    ("arena.walk.calls", "count"),
    ("winlose.solve_parity.s", "s"),
    ("winlose.solve_parity.calls", "count"),
    ("winlose.solve_muller.self_s", "s"),
    ("winlose.solve_muller.calls", "count"),
    ("winlose.solve_muller.memory_bits_max", "bits"),
    ("winlose.records.s", "s"),
    ("winlose.records.count", "count"),
    ("guarantees.guarantee_table.self_s", "s"),
    ("guarantees.optimal_strategy.self_s", "s"),
    ("guarantees.threshold.useful_ratio", "ratio"),
    ("equilibria.synthesize.self_s", "s"),
    ("equilibria.verify_ne.self_s", "s"),
    ("equilibria.verify_ne.calls", "count"),
    ("equilibria.verify_spe.self_s", "s"),
    ("equilibria.verify_spe.configs", "count"),
    ("equilibria.witness_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []        # [group, start, end, parent index or -1]
        self.stack = []        # indices of open spans
        self.counts = {}       # counter name -> number
        self.patched = []      # (module, attribute, original)

    # -- recording -------------------------------------------------------

    def _open(self, group):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([group, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    def _wrap(self, fn, group, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer.stack and tracer.spans[tracer.stack[-1]][0] == group:
                return fn(*args, **kwargs)
            note = None
            if before is not None:
                tracer._open(BOOKKEEPING)
                note = before(*args, **kwargs)
                tracer._close()
            tracer._open(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                tracer._open(BOOKKEEPING)
                after(result, note, *args, **kwargs)
                tracer._close()
            return result

        return wrapper

    # -- hooks measuring sizes at the layer boundary ---------------------

    def _after_sets(self, result, note, arena, *args, **kwargs):
        self.add("arena.recurrence_sets.sets", len(result))
        self.add("arena.recurrence_sets.scanned", (1 << len(arena.vertices)) - 1)

    def _before_minimize(self, machine, *args, **kwargs):
        return machine.state_count()

    def _after_minimize(self, result, states_in, *args, **kwargs):
        self.add("arena.minimize.states_in", states_in)
        self.add("arena.minimize.states_out", result.state_count())

    def _after_muller(self, result, note, *args, **kwargs):
        self.peak("winlose.solve_muller.memory_bits_max", result.memory_bits_used)

    def _after_records(self, result, note, *args, **kwargs):
        self.add("winlose.records.count", len(result))

    def _after_verify_ne(self, result, note, *args, **kwargs):
        self.add("equilibria.witnesses", result is not None)
        # runs inside a bookkeeping span that shares verify_ne's parent
        parent = self.spans[self.stack[-1]][3]
        if parent >= 0 and self.spans[parent][0] == "equilibria.verify_spe":
            self.add("equilibria.verify_spe.configs")

    def _after_best_guarantee(self, row, note, *args, **kwargs):
        # threshold solve j certifies class j + 1; it was useful when some
        # vertex ended in exactly that class
        self.add("guarantees.threshold.solves", row.order.num_classes())
        self.add("guarantees.threshold.useful", len({r for r in row.class_rank.values() if r >= 1}))

    # -- installation ----------------------------------------------------

    def _targets(self):
        jsonio = importlib.import_module("graphgames.jsonio")
        targets = list(TARGETS)
        for name in sorted(vars(jsonio)):
            if name.endswith(EMIT_SUFFIX) and callable(getattr(jsonio, name)):
                targets.append(("graphgames.jsonio", name, "jsonio.emit"))
        # counted without a span of its own, so its time stays with the caller
        targets.append(("graphgames.guarantees", "best_guarantee", None))
        return targets

    def install(self):
        hooks = {
            "closed_strongly_connected_sets": (None, self._after_sets),
            "feasible_inf_sets": (None, self._after_sets),
            "minimize_machine": (self._before_minimize, self._after_minimize),
            "solve_muller": (None, self._after_muller),
            "verify_ne": (None, self._after_verify_ne),
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "graphgames"]
        for mod_name, attr, group in self._targets():
            original = getattr(sys.modules[mod_name], attr)
            if group is None:
                wrapper = self._count_only(original, self._after_best_guarantee)
            else:
                wrapper = self._wrap(original, group, *hooks.get(attr, (None, None)))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self.patched.append((mod, name, original))
                        setattr(mod, name, wrapper)
        lar = importlib.import_module("graphgames.winlose").LarContext
        original = lar.reachable_records
        self.patched.append((lar, "reachable_records", original))
        lar.reachable_records = self._wrap(original, "winlose.records", None, self._after_records)

    def _count_only(self, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                after(result, None, *args, **kwargs)
            return result

        return wrapper

    def uninstall(self):
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched = []

    # -- reduction -------------------------------------------------------

    def metrics(self, overhead_s: float, overhead_frac: float) -> dict:
        total = {}
        self_time = {}
        calls = {}
        for group, start, end, parent in self.spans:
            d = end - start
            total[group] = total.get(group, 0.0) + d
            self_time[group] = self_time.get(group, 0.0) + d
            calls[group] = calls.get(group, 0) + 1
            if parent >= 0:
                pg = self.spans[parent][0]
                self_time[pg] = self_time.get(pg, 0.0) - d
        c = self.counts

        def ratio(num, den):
            return c.get(num, 0) / c[den] if c.get(den) else 0.0

        values = {
            "cli.main.self_s": self_time.get("cli.main", 0.0),
            "jsonio.load.self_s": self_time.get("jsonio.load", 0.0),
            "jsonio.emit.s": total.get("jsonio.emit", 0.0),
            "jsonio.dot.s": total.get("jsonio.dot", 0.0),
            "jsonio.dot.calls": calls.get("jsonio.dot", 0),
            "arena.validate.s": total.get("arena.validate", 0.0),
            "arena.recurrence_sets.s": total.get("arena.recurrence_sets", 0.0),
            "arena.recurrence_sets.calls": calls.get("arena.recurrence_sets", 0),
            "arena.recurrence_sets.sets": c.get("arena.recurrence_sets.sets", 0),
            "arena.recurrence_sets.hit_ratio": ratio(
                "arena.recurrence_sets.sets", "arena.recurrence_sets.scanned"
            ),
            "arena.minimize.s": total.get("arena.minimize", 0.0),
            "arena.minimize.calls": calls.get("arena.minimize", 0),
            "arena.minimize.states_in": c.get("arena.minimize.states_in", 0),
            "arena.minimize.states_out": c.get("arena.minimize.states_out", 0),
            "arena.walk.s": total.get("arena.walk", 0.0),
            "arena.walk.calls": calls.get("arena.walk", 0),
            "winlose.solve_parity.s": total.get("winlose.solve_parity", 0.0),
            "winlose.solve_parity.calls": calls.get("winlose.solve_parity", 0),
            "winlose.solve_muller.self_s": self_time.get("winlose.solve_muller", 0.0),
            "winlose.solve_muller.calls": calls.get("winlose.solve_muller", 0),
            "winlose.solve_muller.memory_bits_max": c.get("winlose.solve_muller.memory_bits_max", 0),
            "winlose.records.s": total.get("winlose.records", 0.0),
            "winlose.records.count": c.get("winlose.records.count", 0),
            "guarantees.guarantee_table.self_s": self_time.get("guarantees.guarantee_table", 0.0),
            "guarantees.optimal_strategy.self_s": self_time.get("guarantees.optimal_strategy", 0.0),
            "guarantees.threshold.useful_ratio": ratio(
                "guarantees.threshold.useful", "guarantees.threshold.solves"
            ),
            "equilibria.synthesize.self_s": self_time.get("equilibria.synthesize", 0.0),
            "equilibria.verify_ne.self_s": self_time.get("equilibria.verify_ne", 0.0),
            "equilibria.verify_ne.calls": calls.get("equilibria.verify_ne", 0),
            "equilibria.verify_spe.self_s": self_time.get("equilibria.verify_spe", 0.0),
            "equilibria.verify_spe.configs": c.get("equilibria.verify_spe.configs", 0),
            "equilibria.witness_ratio": (
                c.get("equilibria.witnesses", 0) / calls["equilibria.verify_ne"]
                if calls.get("equilibria.verify_ne")
                else 0.0
            ),
            "trace.overhead_s": overhead_s,
            "trace.overhead_frac": overhead_frac,
        }
        return values

    def absent(self) -> list:
        """Metrics of layers that saw no call while tracing."""
        seen = {s[0] for s in self.spans} | {k.rsplit(".", 1)[0] for k in self.counts}
        source = {
            "equilibria.witness_ratio": "equilibria.verify_ne",
            "equilibria.verify_spe.configs": "equilibria.verify_spe",
        }
        return [
            m for m, _ in METRICS
            if not m.startswith("trace.") and source.get(m, m.rsplit(".", 1)[0]) not in seen
        ]
