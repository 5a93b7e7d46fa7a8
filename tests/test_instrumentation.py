"""The benchmark's per-layer trace still reaches every function it wraps.

perfbench/spans.py patches package functions through their module
attributes, so a renamed function or a call that bypasses the attribute
would leave its span empty without failing anything else.
"""

import importlib.util
import json
from pathlib import Path

from sagep import orchestrator

ROOT = Path(__file__).resolve().parents[1]

# Every span perfbench/spans.py `instrument` opens.
SPAN_NAMES = {
    "surrogate.fit_multi", "surrogate.fit", "surrogate.lml",
    "surrogate.predict", "selection.select_generation",
    "selection.convergence_weights", "evaluators.evaluate",
    "evaluators.build", "symreg.rank_population", "symreg.select_survivors",
    "symreg.evolve_generation", "symreg.decode", "symreg.canonical_key",
    "embedding.embed", "embedding.normalize", "metrics.report",
    "metrics.pareto_front", "metrics.hypervolume",
}


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_records_a_call():
    raw = json.loads((ROOT / "configs" / "symbolic_quadratic.json").read_text())
    raw.update(population=12, offspring=6, generations=3,
               surrogate={"restarts": 1})
    config = orchestrator.build_run_config(raw, base_dir=ROOT / "configs")
    spans = load_spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        db, _ = orchestrator.run_training(config)
    layers = tracer.run_layers(tracer.run_id)
    assert set(layers) == SPAN_NAMES
    assert all(layer["calls"] >= 1 for layer in layers.values())

    # The counters keep their meaning: each generation after the first ranks
    # the survivors, then survivors and offspring together; selection is
    # offered each new phenotype the surrogate predicts, and picks the
    # expensive records of generations 1 on.
    counts = tracer.counts[tracer.run_id]
    assert counts["symreg.rank_population.rows"] == (
        (config.generations - 1) * (2 * config.population + config.offspring))
    assert counts["selection.selected"] == sum(
        r.provenance == "expensive" and r.generation > 0 for r in db.records)
    assert counts["selection.pool"] == len({(r.generation, r.keys)
                                            for r in db.records
                                            if r.predicted is not None})
