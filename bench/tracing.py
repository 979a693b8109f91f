"""Span recording around planicheck's public functions, from outside.

Nothing under ``src/`` knows about this module.  ``Instrumentation`` rebinds
each traced function in every planicheck module that holds it (so calls from
``cli``, ``suites`` and ``ssa`` alike pass through the wrapper), counts
``Scalar`` constructions per backend by wrapping ``Scalar.__init__``, and
swaps each scanned scenario's residual for one that counts and times its
calls.  ``restore`` undoes it all.

A span is (name, start, end, parent, run id).  Spans stay in memory in flat
lists and are written out once, after the traced run; a span's self time is
its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns


class SpanRecorder:
    """In-memory spans in parallel lists, indexed by span id."""

    def __init__(self):
        self.names: List[str] = []
        self.parents: List[int] = []
        self.runs: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.run_labels: List[str] = []
        self._stack: List[int] = []

    def start_run(self, label: str):
        self.run_labels.append(label)

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(len(self.run_labels) - 1)
        self.starts.append(_now())
        self.ends.append(0)
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.ends[sid] = _now()
        self._stack.pop()

    def wrap(self, fn: Callable, name, after: Optional[Callable] = None):
        """``fn`` inside a span; ``name`` is a string or a function of the
        call's arguments, ``after(result)`` sees each return value."""
        rec = self

        def traced(*args, **kwargs):
            sid = rec.open(name if isinstance(name, str)
                           else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def durations(self) -> List[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        dur = self.durations()
        child = [0] * len(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[sid]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, name in enumerate(self.names):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += dur[sid] / 1e9
            agg["self_s"] += (dur[sid] - child[sid]) / 1e9
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        n = 0
        for sid, span_name in enumerate(self.names):
            if span_name != name:
                continue
            p = self.parents[sid]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            n += p >= 0
        return n

    def count_with_parent(self, name: str, parents) -> int:
        return sum(1 for sid, span_name in enumerate(self.names)
                   if span_name == name and self.parents[sid] >= 0
                   and self.names[self.parents[sid]] in parents)

    def write(self, path, header: Dict):
        """One JSON header line, then one line per span:
        [id, parent, run, name, start_ns, end_ns]."""
        with open(path, "w") as out:
            out.write(json.dumps({**header, "runs": self.run_labels,
                                  "fields": ["id", "parent", "run", "name",
                                             "start_ns", "end_ns"]}) + "\n")
            for sid in range(len(self.names)):
                out.write(json.dumps([sid, self.parents[sid], self.runs[sid],
                                      self.names[sid], self.starts[sid],
                                      self.ends[sid]]) + "\n")


class Instrumentation:
    """Installs span wrappers on the planicheck modules and removes them."""

    def __init__(self, pc, recorder: SpanRecorder):
        # ``pc`` maps module names to the imported planicheck modules
        self.pc = pc
        self.rec = recorder
        self.modules = list(pc.values())
        self.undo: List = []
        self.scalars_constructed = {"float": 0, "exact": 0}
        self.logic_rows = 0
        self.report_bytes = 0
        self.suite_samples: Dict[str, int] = defaultdict(int)
        self.scans: Dict[str, Dict] = {}

    def _rebind(self, fn: Callable, wrapper: Callable):
        for mod in self.modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                setattr(mod, attr, wrapper)
                self.undo.append((mod, attr, fn))

    def _trace(self, fn: Callable, name, after=None):
        self._rebind(fn, self.rec.wrap(fn, name, after))

    def install(self):
        pc, rec = self.pc, self.rec
        kernel, congruence, ssa = pc["kernel"], pc["congruence"], pc["ssa"]
        suites, scenarios, logic = pc["suites"], pc["scenarios"], pc["logic"]
        report, scalars = pc["report"], pc["scalars"]

        self._trace(kernel.angle_cos, "kernel.angle_cos")
        self._trace(kernel.concyclic, "kernel.concyclic")
        self._trace(congruence.measure, "congruence.measure")
        self._trace(congruence.congruent_any, "congruence.congruent_any")
        float_backend = scalars.FloatBackend
        self._trace(ssa.solve_ssa, lambda spec: (
            "ssa.solve_ssa.float" if isinstance(spec.backend, float_backend)
            else "ssa.solve_ssa.exact"))
        self._trace(ssa.classify_pair, "ssa.classify_pair")
        self._trace(ssa.lemma_common_side_check,
                    "ssa.lemma_common_side_check")
        self._trace(suites.law_of_sines_oracle, "suites.law_of_sines_oracle")
        self._trace(suites.sample_two_solution_spec, "suites.sampler")
        self._trace(suites.run_verify_suites, "suites.run_verify_suites")
        self._trace(suites.run_scenario_suites, "scenarios.forward")
        self._trace(logic.parse_formula, "logic.parse")
        self._trace(logic.equivalent, "logic.equivalent",
                    after=self._count_rows)
        self._trace(report.build_report, "report.build")
        self._trace(report.render_json, "report.render",
                    after=self._count_bytes)

        # the verify runner looks its suites up in this table on every call
        self.undo.append((suites, "VERIFY_SUITES", suites.VERIFY_SUITES))
        suites.VERIFY_SUITES = tuple(
            (name, divisor, rec.wrap(fn, f"suites.{name}",
                                     after=self._count_samples))
            for name, divisor, fn in suites.VERIFY_SUITES)

        self._rebind(scenarios.level_set_scan,
                     self._scan_wrapper(scenarios, scenarios.level_set_scan))

        init = scalars.Scalar.__init__

        def counting_init(scalar, backend, payload):
            self.scalars_constructed[
                "float" if isinstance(backend, float_backend)
                else "exact"] += 1
            init(scalar, backend, payload)

        self.undo.append((scalars.Scalar, "__init__", init))
        scalars.Scalar.__init__ = counting_init

    def restore(self):
        for obj, attr, value in reversed(self.undo):
            setattr(obj, attr, value)
        self.undo.clear()

    def _count_rows(self, result):
        self.logic_rows += result.rows

    def _count_bytes(self, text):
        self.report_bytes += len(text.encode())

    def _count_samples(self, check):
        self.suite_samples[check.name] += check.samples

    def _scan_wrapper(self, scenarios, level_set_scan):
        """Span per scan; inside it, every residual call is counted and timed
        into the grid or the bisection phase, told apart by call order: the
        grid pass evaluates nodes in increasing (alpha, beta) order and ends
        before the first bisection, whose midpoint breaks that order.  The
        scan's own bookkeeping (the grid dict, the sign-change walk, branch
        attribution) is in neither phase."""
        rec, registry = self.rec, scenarios.SCENARIOS

        def traced_scan(name, *args, **kwargs):
            stats = {"grid_evals": 0, "bisect_evals": 0, "grid_ns": 0,
                     "bisect_ns": 0}
            original = registry[name]
            residual = original.residual
            last = (-1.0, -1.0)
            in_grid = True

            def counting_residual(a, b, **kw):
                nonlocal last, in_grid
                if in_grid and (a, b) > last:
                    last = (a, b)
                    phase = "grid"
                else:
                    in_grid = False
                    phase = "bisect"
                start = _now()
                value = residual(a, b, **kw)
                stats[phase + "_ns"] += _now() - start
                stats[phase + "_evals"] += 1
                return value

            registry[name] = dataclasses.replace(original,
                                                 residual=counting_residual)
            sid = rec.open(f"scenarios.{name}.scan")
            try:
                result = level_set_scan(name, *args, **kwargs)
            finally:
                rec.close(sid)
                registry[name] = original
            stats["roots"] = len(result.roots)
            self.scans[name] = stats
            return result

        traced_scan.__wrapped__ = level_set_scan
        return traced_scan
