"""Spans around g2heights functions, for the benchmark's traced runs.

Each function is replaced at the module attribute through which the program
(or the benchmark) calls it: `theta_all` is reached through `theta.chi10`,
so it is wrapped in `theta`; `log_gamma` and `poly_roots` are imported by
name into `colmez` and `cmperiod`, so they are wrapped there.  A span
records its name, its parent span, a tag set by the caller, and its start
and end; self time is a span's duration minus that of its children.
"""

import time

# metric name -> the "module.attribute" names wrapped under it
TARGETS = {
    "theta.theta_all": ("theta.theta_all",),
    "theta.archimedean_term": ("theta.archimedean_term", "heights.archimedean_term"),
    "siegel.reduce": ("siegel.reduce",),
    "siegel.act": ("siegel.act",),
    "prec.log_gamma": ("colmez.log_gamma",),
    "colmez.colmez_height": ("heights.colmez_height",),
    "prec.poly_roots": ("cmperiod.poly_roots",),
    "cmperiod.select_tau": ("cmperiod.select_tau",),
    "cmperiod.period_matrix": ("cmperiod.period_matrix",),
    "igusa.igusa_invariants": ("heights.igusa_invariants",),
    "igusa.finite_height_part": ("heights.finite_height_part",),
    "cli.job": ("cli.parse_job", "cli.job_ctx", "cli.job_curve",
                "cli.job_character", "cli.job_periods"),
    "heights.height_local": ("heights.height_local",),
    "heights.compare": ("heights.compare",),
}

OP = "op"  # the root span the benchmark opens around each operation


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, tag, start, end]
        self.tag = "setup"  # set by the caller: "warmup", or the timed operation's index
        self._stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, self.tag,
                    time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap every target; modules maps a short module name to the module."""
        for name, targets in TARGETS.items():
            for target in targets:
                mod, attr = target.split(".")
                setattr(modules[mod], attr, self.wrap(name, getattr(modules[mod], attr)))

    def totals(self, weights):
        """{name: [calls, self seconds, total seconds]} over the spans whose
        tag is a key of weights, each duration scaled by its tag's weight."""
        out = {}
        for name, parent, tag, start, end in self.spans:
            if tag not in weights:
                continue
            dur = (end - start) * weights[tag]
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur
            if parent >= 0:
                pname = self.spans[parent][0]
                out.setdefault(pname, [0, 0.0, 0.0])[1] -= dur
        return out
