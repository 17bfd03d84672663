"""Spans and counters around the calls into each drmfuse module.

The package is not modified: ``Tracer.install`` replaces each function below
with a wrapper at every binding a caller looks it up by. The package imports
with ``from .x import y``, so one function can be bound in several modules
(``validate`` in core, inference, simulation, cli and the package itself);
every ``drmfuse.*`` module attribute that *is* the original function is
patched, and ``uninstall`` puts the originals back. A function missing at
some commit is recorded as absent instead of failing.

A span is ``[name, start, end, parent, op_id]``; spans stay in memory until
the run ends, when ``write`` saves them. Self time is a span's duration minus its direct children's
durations (the calls are single-threaded and properly nested).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "drmfuse"

# (module, function). The span name is "<layer>.<function>", where the layer
# is the module name without a leading underscore (metric names must start
# with a letter).
SPANNED = (
    ("core", "validate"),
    ("_kernels", "log_denominators"),
    ("_kernels", "softmax_ratios"),
    ("likelihood", "fit"),
    ("likelihood", "profile_loglik"),
    ("likelihood", "_score_hessian"),
    ("asymptotics", "blocks_at"),
    ("asymptotics", "S_matrix"),
    ("asymptotics", "Sigma_matrix"),
    ("asymptotics", "sigma_t"),
    ("inference", "threshold_probability"),
    ("inference", "refine_tilts"),
    ("inference", "chi_square_beta_test"),
    ("inference", "z_tests"),
    ("inference", "drm_cdf"),
    ("inference", "empirical_cdf"),
    ("simulation", "run_comparison"),
    ("simulation", "generate"),
    ("simulation", "miae_mise"),
    ("cli", "ingest"),
)
# Counted, not spanned: replicate failures by exception class, and CSV rows.
REPLICATE = ("simulation", "_replicate_errors")
READ_ROWS = ("cli", "_read_rows")
FAILURE_CLASSES = ("NonFinite", "NoConvergence", "SingularHessian", "SingularMatrix", "other")


def span_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._op_id = -1

    # -- installing ---------------------------------------------------------

    def install(self, op_id: int) -> None:
        self._op_id = op_id
        for module, function in SPANNED:
            self._patch(module, function, self._spanned(span_name(module, function)))
        self._patch(*REPLICATE, self._failure_counter)
        self._patch(*READ_ROWS, self._row_counter)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _patch(self, module: str, function: str, make_wrapper) -> None:
        orig = getattr(sys.modules.get(f"{PACKAGE}.{module}"), function, None)
        if orig is None:
            self.absent.add(span_name(module, function))
            return
        wrapper = functools.wraps(orig)(make_wrapper(orig))
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str):
        counter = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([name, time.perf_counter(), None,
                              stack[-1] if stack else -1, self._op_id])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[idx][2] = time.perf_counter()
                    stack.pop()
                if counter is not None:
                    counter(self.counts, args, kwargs, result)
                return result
            return wrapper
        return make

    def _failure_counter(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                cls = type(e).__name__
                key = cls if cls in FAILURE_CLASSES else "other"
                self.counts[f"simulation.failures.{key}"] += 1
                raise
        return wrapper

    def _row_counter(self, fn):
        def wrapper(*args, **kwargs):
            for row in fn(*args, **kwargs):
                self.counts["cli.rows_read"] += 1
                yield row
        return wrapper

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as JSON lines, times in ms from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start_ms": 1e3 * (start - t0),
                                     "end_ms": 1e3 * (end - t0), "parent": parent,
                                     "op": op_id}) + "\n")


    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) ms and self ms."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for (name, start, end, _, _), covered in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["total_ms"] += 1e3 * (end - start)
            agg["self_ms"] += 1e3 * (end - start - covered)
        return out


def _exponent_bytes(counts, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    counts["kernels.log_denominators.bytes"] += 8 * data.n * (data.m + 1)


def _newton_iters(counts, args, kwargs, result):
    counts["likelihood.fit.newton_iters"] += result.iterations


_COUNTERS = {
    "kernels.log_denominators": _exponent_bytes,
    "likelihood.fit": _newton_iters,
}


# Per-layer metrics reported by a traced run, with units. Counts and times
# are per traced op; "share_pct" is inclusive time over traced op time.
PER_LAYER = (
    ("kernels.log_denominators.calls", "count/op"),
    ("kernels.log_denominators.self_ms", "ms/op"),
    ("kernels.log_denominators.mb_computed", "MB/op"),
    ("kernels.softmax_ratios.calls", "count/op"),
    ("kernels.softmax_ratios.self_ms", "ms/op"),
    ("likelihood.fit.calls", "count/op"),
    ("likelihood.fit.total_ms", "ms/op"),
    ("likelihood.fit.self_ms", "ms/op"),
    ("likelihood.fit.newton_iters", "count/op"),
    ("likelihood.fit.evals_per_iter", "ratio"),
    ("likelihood.profile_loglik.calls", "count/op"),
    ("likelihood.profile_loglik.self_ms", "ms/op"),
    ("likelihood.profile_loglik.total_ms", "ms/op"),
    ("likelihood._score_hessian.calls", "count/op"),
    ("likelihood._score_hessian.self_ms", "ms/op"),
    ("likelihood._score_hessian.total_ms", "ms/op"),
    ("asymptotics.blocks_at.calls", "count/op"),
    ("asymptotics.blocks_at.self_ms", "ms/op"),
    ("asymptotics.blocks_at.total_ms", "ms/op"),
    ("asymptotics.blocks_per_fit", "ratio"),
    ("asymptotics.S_matrix.self_ms", "ms/op"),
    ("asymptotics.Sigma_matrix.self_ms", "ms/op"),
    ("asymptotics.sigma_t.calls", "count/op"),
    ("asymptotics.sigma_t.self_ms", "ms/op"),
    ("inference.threshold_probability.calls", "count/op"),
    ("inference.threshold_probability.total_ms", "ms/op"),
    ("inference.refine_tilts.calls", "count/op"),
    ("inference.refine_tilts.total_ms", "ms/op"),
    ("inference.chi_square_beta_test.calls", "count/op"),
    ("inference.chi_square_beta_test.self_ms", "ms/op"),
    ("inference.z_tests.calls", "count/op"),
    ("inference.z_tests.self_ms", "ms/op"),
    ("inference.drm_cdf.self_ms", "ms/op"),
    ("inference.empirical_cdf.self_ms", "ms/op"),
    ("simulation.run_comparison.total_ms", "ms/op"),
    ("simulation.generate.self_ms", "ms/op"),
    ("simulation.miae_mise.self_ms", "ms/op"),
    *((f"simulation.failures.{c}", "count/op") for c in FAILURE_CLASSES),
    ("cli.ingest.calls", "count/op"),
    ("cli.ingest.self_ms", "ms/op"),
    ("cli.ingest.per_cmd", "ratio"),
    ("cli.rows_read", "count/op"),
    ("core.validate.calls", "count/op"),
    ("core.validate.self_ms", "ms/op"),
    ("share_pct.likelihood.fit", "%"),
    ("share_pct.asymptotics.blocks_at_sigma_t", "%"),
    ("share_pct.cli.ingest", "%"),
    ("trace.op_ms_p50", "ms"),
    ("trace.untraced_op_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
)

# The span each derived metric reads, where its name does not start with it.
_SOURCE = {
    "asymptotics.blocks_per_fit": "asymptotics.blocks_at",
    "cli.rows_read": span_name(*READ_ROWS),
    "share_pct.likelihood.fit": "likelihood.fit",
    "share_pct.asymptotics.blocks_at_sigma_t": "asymptotics.blocks_at",
    "share_pct.cli.ingest": "cli.ingest",
    **{f"simulation.failures.{c}": span_name(*REPLICATE) for c in FAILURE_CLASSES},
}


def _source(metric: str) -> str:
    return _SOURCE.get(metric, metric.rsplit(".", 1)[0])


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def per_layer(tracer: Tracer, traced_ms: list[float], traced_scaled: list[float],
              untraced_scaled: list[float]):
    """(values, absent): every PER_LAYER metric, and the names whose span is gone.

    ``traced_ms`` are the traced ops' times, against which spans are shares.
    The overhead compares host-scaled times of traced ops and of the
    untraced ops interleaved with them.
    """
    agg = tracer.aggregate()
    counts = tracer.counts
    n = len(traced_ms)
    op_total = sum(traced_ms)
    values: dict[str, float] = {}
    for module, function in SPANNED:
        name = span_name(module, function)
        for key, value in agg[name].items():
            values[f"{name}.{key}"] = value / n

    def calls(name):
        return agg[name]["calls"]

    iters = counts["likelihood.fit.newton_iters"]
    evals = calls("likelihood.profile_loglik") + calls("likelihood._score_hessian")
    values.update({
        "kernels.log_denominators.mb_computed": counts["kernels.log_denominators.bytes"] / 1e6 / n,
        "likelihood.fit.newton_iters": iters / n,
        "likelihood.fit.evals_per_iter": evals / iters if iters else 0.0,
        "asymptotics.blocks_per_fit": (calls("asymptotics.blocks_at") / calls("likelihood.fit")
                                       if calls("likelihood.fit") else 0.0),
        "cli.ingest.per_cmd": calls("cli.ingest") / n,
        "cli.rows_read": counts["cli.rows_read"] / n,
        "share_pct.likelihood.fit": 100 * agg["likelihood.fit"]["total_ms"] / op_total,
        "share_pct.asymptotics.blocks_at_sigma_t": 100 * (
            agg["asymptotics.blocks_at"]["total_ms"] + agg["asymptotics.sigma_t"]["total_ms"]
        ) / op_total,
        "share_pct.cli.ingest": 100 * agg["cli.ingest"]["total_ms"] / op_total,
        "trace.op_ms_p50": _median(traced_scaled),
        "trace.untraced_op_ms_p50": _median(untraced_scaled),
    })
    values["trace.overhead_pct"] = 100 * (
        values["trace.op_ms_p50"] / values["trace.untraced_op_ms_p50"] - 1)
    for c in FAILURE_CLASSES:
        values[f"simulation.failures.{c}"] = counts[f"simulation.failures.{c}"] / n
    absent = {m for m, _ in PER_LAYER if _source(m) in tracer.absent}
    return {m: (0.0 if m in absent else values[m]) for m, _ in PER_LAYER}, absent
