"""In-memory span tracing around calls into the sagep modules.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent) and the id of the training run it
belongs to.  Spans stay in memory until `write` dumps them at the end of
the benchmark.  A span's self time is its duration minus the durations of
its child spans; calls nest strictly on one thread, so children never
overlap and their durations add up to the part of the parent they cover.

`instrument` patches each module attribute under the name its caller looks
it up by, so no file of the package changes:

* `selection` imports `predict_multi_batch` from `surrogate` by name, so
  that name is patched in `selection`;
* `select_survivors` calls `rank_population` and `fit` calls
  `log_marginal_likelihood` through their own module globals, so patching
  the module attribute reaches those inner calls too.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# Fields of one span record, in order.
RUN, SPAN, PARENT, NAME, START, END = range(6)


class Tracer:
    """Collects nested spans and named counters for one benchmark process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.records: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.run_id = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        span = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append([self.run_id, span, parent, name, self.clock(),
                             None])
        self._stack.append(span)
        return span

    def close(self, span: int) -> None:
        self.records[span][END] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.run_id][name] += amount

    def wrap(self, name: str, fn: Callable,
             on_result: Callable | None = None) -> Callable:
        """Return fn timed as span `name`; on_result(self, args, result)
        records counters after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def run_layers(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (inclusive) and self seconds."""
        records = [r for r in self.records if r[RUN] == run_id]
        child_time: dict[int, float] = defaultdict(float)
        for r in records:
            if r[PARENT] is not None:
                child_time[r[PARENT]] += r[END] - r[START]
        layers: dict[str, dict[str, float]] = {}
        for r in records:
            layer = layers.setdefault(r[NAME], {"calls": 0, "busy_s": 0.0,
                                                "self_s": 0.0})
            duration = r[END] - r[START]
            layer["calls"] += 1
            layer["busy_s"] += duration
            layer["self_s"] += duration - child_time[r[SPAN]]
        return layers

    def write(self, path: str | Path) -> Path:
        """Dump every span as one JSON array per line:
        [run, span, parent, name, start_s, end_s]."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(json.dumps(r) + "\n")
        return path


def _on_fit(tracer: Tracer, args, model) -> None:
    counts = tracer.counts[tracer.run_id]
    counts["surrogate.fit.history_rows"] = max(
        counts["surrogate.fit.history_rows"], model.n)
    tracer.count("surrogate.fit.fallbacks", int(model.warned))
    tracer.count("surrogate.fit.jitter_fits", int(model.jitter > 0))


def _on_select(tracer: Tracer, args, decision) -> None:
    tracer.count("selection.pool", len(args[1]))
    tracer.count("selection.selected", len(decision.selected_ids))


def _on_evaluate(tracer: Tracer, args, outcome) -> None:
    tracer.count("evaluators.iterations", outcome.iterations)
    tracer.count("evaluators.diverged", int(not outcome.converged))


def _on_rank(tracer: Tracer, args, ranks) -> None:
    tracer.count("symreg.rank_population.rows", len(ranks))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the package's layer functions with traced wrappers, and
    restore the originals on exit."""
    from sagep import embedding, evaluators, metrics, orchestrator
    from sagep import selection, surrogate, symreg

    targets = [
        (surrogate, "fit_multi", "surrogate.fit_multi", None),
        (surrogate, "fit", "surrogate.fit", _on_fit),
        (surrogate, "log_marginal_likelihood", "surrogate.lml", None),
        (selection, "predict_multi_batch", "surrogate.predict", None),
        (selection, "select_generation", "selection.select_generation",
         _on_select),
        (selection, "convergence_weights", "selection.convergence_weights",
         None),
        (evaluators.ChannelEvaluator, "evaluate", "evaluators.evaluate",
         _on_evaluate),
        (evaluators.SymbolicBenchmark, "evaluate", "evaluators.evaluate",
         _on_evaluate),
        (orchestrator, "build_evaluator", "evaluators.build", None),
        (symreg, "rank_population", "symreg.rank_population", _on_rank),
        (symreg, "select_survivors", "symreg.select_survivors", None),
        (symreg, "evolve_generation", "symreg.evolve_generation", None),
        (symreg, "decode", "symreg.decode", None),
        (symreg, "canonical_key", "symreg.canonical_key", None),
        (embedding, "embed", "embedding.embed", None),
        (embedding, "normalize", "embedding.normalize", None),
        (orchestrator, "metrics_from_records", "metrics.report", None),
        (metrics, "pareto_front", "metrics.pareto_front", None),
        (metrics, "hypervolume", "metrics.hypervolume", None),
    ]
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, on_result in targets:
            setattr(owner, attr,
                    tracer.wrap(name, getattr(owner, attr), on_result))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
