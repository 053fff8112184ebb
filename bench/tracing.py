"""Spans around the benchmark's calls into finarith's public functions.

A span is (name, start, end, parent index, job id, raised).  Spans are
kept in memory and written out once the run ends.  Untraced runs call the
library functions directly, so they pay nothing for this module.
"""
from __future__ import annotations

import time

import finarith
from finarith import cli

# Public entry points the jobs call, with the span name that times them.
# A span name is "<layer>.<call kind>"; layers are finarith's modules.
LIBRARY_CALLS = {
    "make_truncation": ("core.build", finarith.make_truncation),
    "make_subset_world": ("core.build", finarith.make_subset_world),
    "check_fa_axioms": ("core.axioms", finarith.check_fa_axioms),
    "build_plus_model": ("interp.build", finarith.build_plus_model),
    "build_tower": ("interp.build", finarith.build_tower),
    "limit_eval": ("interp.limit_eval", finarith.limit_eval),
    "parse_formula": ("logic.parse", finarith.parse_formula),
    "eval_formula": ("logic.eval", finarith.eval_formula),
    "aristotelian_system": ("modal.build", finarith.aristotelian_system),
    "arbitrary_set_system": ("modal.build", finarith.arbitrary_set_system),
    "fork_system": ("modal.build", finarith.fork_system),
    "load_system": ("modal.build", finarith.load_system),
    "frame_properties": ("modal.frame", finarith.frame_properties),
    "check_schema": ("modal.schema", finarith.check_schema),
    "search_dot3_counterexample": ("modal.dot3", finarith.search_dot3_counterexample),
    "check_translation_theorem": ("modal.translation", finarith.check_translation_theorem),
    "eval_modal": ("modal.eval", finarith.eval_modal),
}

# Methods of a lifted model (or tower stage) timed per operation.
MODEL_OPS = ("element", "plus", "times", "succ", "less")

# In-process `fa` invocations, one span name per verb the jobs use.
CLI_CALLS = ("cli.eval_trace", "cli.validate_search", "cli.modal_eval")

# Every span name with the unit its per-call self time is reported in.
SPAN_UNITS = {
    **{name: "ms" for name, _ in LIBRARY_CALLS.values()},
    **{f"interp.{op}": "us" for op in MODEL_OPS},
    **{name: "ms" for name in CLI_CALLS},
    "core.build": "us",
    "interp.limit_eval": "us",
    "logic.parse": "us",
}


class Tracer:
    """Collects spans; `job` is the id stamped on spans opened meanwhile."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job, raised)

        return traced

    def self_times(self):
        """{span name: [self time of each span, in seconds]} and
        {span name: number of spans that raised}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        times, raised = {}, {}
        for (name, start, end, _parent, _job, err), inner in zip(self.spans, child):
            times.setdefault(name, []).append(end - start - inner)
            raised[name] = raised.get(name, 0) + err
        return times, raised

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\traised\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")


class Api:
    """The library calls a job may make; traced when a tracer is given."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        for attr, (name, fn) in LIBRARY_CALLS.items():
            setattr(self, attr, self._maybe_wrap(name, fn))
        self._cli = {name: self._maybe_wrap(name, cli.main) for name in CLI_CALLS}

    def _maybe_wrap(self, name, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def ops(self, model):
        """The model's element constructor and operations, as a dict."""
        return {op: self._maybe_wrap(f"interp.{op}", getattr(model, op)) for op in MODEL_OPS}

    def cli(self, name, argv, out):
        return self._cli[name](argv, out=out)
