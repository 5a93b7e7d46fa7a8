"""Training loop, persistence, metrics assembly, and passive replay.

A run proceeds generation by generation: the engine proposes candidates,
each candidate is embedded, the selection policy decides who gets an
expensive evaluation (everyone, when the surrogate is disabled), outcomes
are appended to a line-delimited database, the surrogate is refit on all
converged expensive data, and the combined truth/predicted fitness feeds
back into survivor selection.  Selection only decides; the generation step
here is the one place that writes a candidate's objectives, convergence
flag and provenance.

Everything is deterministic per seed: random streams are spawned from one
seed sequence per purpose and generation, costs are counted in abstract
evaluation units rather than wall time, and floats are serialized with
round-trip repr, so identical configurations produce byte-identical
databases and reports.

Passive replay runs the same generation step against a stored baseline
database, without evolution: stored objectives stand in for the expensive
evaluator, which is never constructed, let alone called.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import embedding as emb_mod
from . import evaluators as eval_mod
from . import metrics as metrics_mod
from . import selection as sel_mod
from . import surrogate as sur_mod
from . import symreg

__all__ = [
    "ConfigError",
    "RunError",
    "ReplayError",
    "GepSettings",
    "EmbeddingSettings",
    "SurrogateSettings",
    "EvaluatorSpec",
    "RunConfig",
    "EvaluationRecord",
    "EvaluationDatabase",
    "load_run_config",
    "build_run_config",
    "build_evaluator",
    "run_training",
    "passive_replay",
    "metrics_from_records",
]

log = logging.getLogger("sagep")

# Objectives are clamped here before the optional log10 transform; a perfect
# candidate would otherwise send the regression target to -inf.
_LOG_FLOOR = 1e-12


class ConfigError(ValueError):
    """A run configuration is malformed or references missing files."""


class RunError(RuntimeError):
    """A training run cannot proceed."""


class ReplayError(RuntimeError):
    """A stored database cannot be replayed."""


def _require_integers(settings, *names: str) -> None:
    """ConfigError unless each named field of settings holds an integer; a
    bool is not one."""
    for name in names:
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GepSettings:
    head_len: int = 8
    operators: tuple[str, ...] = ("+", "-", "*")
    n_constants: int = 5
    const_range: tuple[float, float] = (-2.0, 2.0)
    mutation_rate: float = 0.1
    crossover_rate: float = 0.9

    def __post_init__(self):
        _require_integers(self, "head_len", "n_constants")


@dataclass(frozen=True)
class EmbeddingSettings:
    feature_table: str | None = None
    average_inputs_first: bool = False


@dataclass(frozen=True)
class SurrogateSettings:
    restarts: int = 8
    log_error: bool = True
    bounds: sur_mod.ParamBounds = field(default_factory=sur_mod.ParamBounds)

    def __post_init__(self):
        _require_integers(self, "restarts")
        if self.restarts < 1:
            raise ConfigError("surrogate restarts must be >= 1")


@dataclass(frozen=True)
class EvaluatorSpec:
    kind: str = "channel"
    case: str | dict | None = None
    table: str | None = None
    targets: tuple[str, ...] = ()
    slot_of_objective: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("channel", "symbolic"):
            raise ConfigError(f"unknown evaluator kind {self.kind!r}")
        if self.kind == "symbolic" and (self.table is None or not self.targets):
            raise ConfigError("symbolic evaluator needs a table and targets")
        # A field the chosen kind never reads would be silently ignored.
        ignored = (("case",) if self.kind == "symbolic"
                   else ("slot_of_objective", "table", "targets"))
        for name in ignored:
            if getattr(self, name) not in (None, ()):
                raise ConfigError(f"{self.kind} evaluator takes no {name}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    generations: int = 10
    population: int = 96
    offspring: int = 48
    surrogate_enabled: bool = True
    output_dir: str = "runs/out"
    gep: GepSettings = field(default_factory=GepSettings)
    embedding: EmbeddingSettings = field(default_factory=EmbeddingSettings)
    surrogate: SurrogateSettings = field(default_factory=SurrogateSettings)
    selection: sel_mod.SelectionConfig | None = None
    evaluator: EvaluatorSpec = field(default_factory=EvaluatorSpec)

    def __post_init__(self):
        _require_integers(self, "seed", "generations", "population",
                          "offspring")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        # population 2 is the floor because embedding normalization fits its
        # statistics on the generation-0 population
        if self.population < 2 or self.offspring < 1:
            raise ConfigError("population must be >= 2 and offspring >= 1")

    def selection_config(self) -> sel_mod.SelectionConfig:
        if self.selection is not None:
            return self.selection
        return sel_mod.default_selection_config(self.population)


# Settings blocks nested in a config object, and the fields that name files.
_BLOCKS = {"gep": GepSettings, "embedding": EmbeddingSettings,
           "surrogate": SurrogateSettings, "bounds": sur_mod.ParamBounds,
           "evaluator": EvaluatorSpec}
_PATH_FIELDS = ("output_dir", "feature_table", "case", "table")


def _settings(cls, raw: dict, base_dir: Path | None):
    """cls built from one JSON object: nested blocks are built the same way,
    arrays become tuples, and relative paths resolve against base_dir."""
    kwargs = {}
    for name, value in dict(raw).items():
        if name in _BLOCKS:
            value = _settings(_BLOCKS[name], value, base_dir)
        elif isinstance(value, list):
            value = tuple(value)
        elif name in _PATH_FIELDS and isinstance(value, str):
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                value = str(base_dir / path)
        kwargs[name] = value
    return cls(**kwargs)


def build_run_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    """Build a validated RunConfig from a parsed mapping.

    Relative paths are resolved against the configuration file's directory
    so a config plus its referenced files stay relocatable as a unit.
    """
    raw = dict(raw)
    sel_raw = raw.pop("selection", None)
    try:
        config = _settings(RunConfig, raw, base_dir)
        if sel_raw is not None:
            # Overrides apply on top of the defaults for the real population.
            config = dataclasses.replace(config, selection=dataclasses.replace(
                sel_mod.default_selection_config(config.population),
                **sel_raw))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid run configuration: {exc}") from None

    for label, path in (("feature table", config.embedding.feature_table),
                        ("evaluator case",
                         config.evaluator.case
                         if isinstance(config.evaluator.case, str) else None),
                        ("evaluator table", config.evaluator.table)):
        if path is not None and not Path(path).exists():
            raise ConfigError(f"{label} not found: {path}")
    return config


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return build_run_config(raw, base_dir=path.parent)


# ---------------------------------------------------------------------------
# Records and database


@dataclass(frozen=True)
class EvaluationRecord:
    """One candidate's outcome, as persisted."""

    generation: int
    id: int
    keys: tuple[str, ...]
    embedding: tuple[float, ...]
    objectives: tuple[float, ...]
    converged: bool
    provenance: str
    wall_time: float
    predicted: tuple[float, ...] | None = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "EvaluationRecord":
        payload = json.loads(line)
        return cls(generation=int(payload["generation"]),
                   id=int(payload["id"]),
                   keys=tuple(payload["keys"]),
                   embedding=tuple(float(v) for v in payload["embedding"]),
                   objectives=tuple(float(v) for v in payload["objectives"]),
                   converged=bool(payload["converged"]),
                   provenance=str(payload["provenance"]),
                   wall_time=float(payload["wall_time"]),
                   predicted=(None if payload.get("predicted") is None
                              else tuple(float(v) for v in payload["predicted"])))


@dataclass
class EvaluationDatabase:
    """Append-only store of evaluation records, one JSON object per line."""

    records: list[EvaluationRecord] = field(default_factory=list)

    def append(self, record: EvaluationRecord) -> None:
        if self.records:
            last = self.records[-1]
            if (record.generation, record.id) <= (last.generation, last.id):
                raise ValueError("records must arrive in (generation, id) order")
        self.records.append(record)

    def by_generation(self) -> dict[int, list[EvaluationRecord]]:
        out: dict[int, list[EvaluationRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.generation, []).append(rec)
        return out

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(rec.to_json() + "\n")
        return path

    @classmethod
    def read(cls, path: str | Path) -> "EvaluationDatabase":
        db = cls()
        try:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        db.append(EvaluationRecord.from_json(line))
        except OSError as exc:
            raise ReplayError(f"cannot read database {path}: {exc}") from None
        except (KeyError, ValueError) as exc:
            raise ReplayError(f"malformed database {path}: {exc}") from None
        return db


# ---------------------------------------------------------------------------
# Run assembly helpers


def build_evaluator(spec: EvaluatorSpec):
    if spec.kind == "channel":
        case = (eval_mod.default_channel_case() if spec.case is None
                else eval_mod.load_channel_case(spec.case))
        return eval_mod.ChannelEvaluator(case)
    table = emb_mod.ingest_feature_table(spec.table)
    return eval_mod.SymbolicBenchmark(table, spec.targets,
                                      spec.slot_of_objective)


def _gp_target_map(log_error: bool) -> tuple[Callable[[np.ndarray], np.ndarray],
                                             Callable[[np.ndarray], np.ndarray]]:
    """The map from raw objectives to GP regression targets, and its
    inverse from posterior means back to objectives."""
    if log_error:
        return (lambda objs: np.log10(np.maximum(objs, _LOG_FLOOR)),
                lambda means: np.power(10.0, np.clip(means, -300.0, 300.0)))
    return (lambda objs: objs, lambda means: np.maximum(means, 0.0))


def _fit_surrogate(history: sel_mod.SelectionHistory,
                   settings: SurrogateSettings,
                   rng: np.random.Generator) -> sur_mod.MultiGp:
    """Fit the GP on every converged expensive outcome so far."""
    if history.converged_points.shape[0] == 0:
        raise RunError("no converged expensive data to fit the surrogate")
    to_gp, _ = _gp_target_map(settings.log_error)
    return sur_mod.fit_multi(history.converged_points,
                             to_gp(history.converged_objectives),
                             bounds=settings.bounds,
                             restarts=settings.restarts, rng=rng)


def _streams(seed: int, generations: int):
    """The run's random streams, all spawned from one seed: the generation-0
    population rng, the constants-pool seed, and per-generation evolve,
    select and fit rngs."""
    init_ss, pool_ss, *per_gen = np.random.SeedSequence(seed).spawn(5)
    evolve, select, fit = ([np.random.default_rng(s)
                            for s in ss.spawn(generations)]
                           for ss in per_gen)
    return (np.random.default_rng(init_ss), int(pool_ss.generate_state(1)[0]),
            evolve, select, fit)


def _gen0_norm_stats(embeddings: list) -> emb_mod.NormStats | None:
    """Training's and replay's one rule for the embedding scale: statistics
    of the finite generation-0 embeddings, None if there are none."""
    finite = [e for e in embeddings if np.all(np.isfinite(e))]
    return emb_mod.fit_norm_stats(finite) if finite else None


# The outcome of one expensive evaluation: (objectives, converged).
_Oracle = Callable[[symreg.Candidate], tuple[Sequence[float], bool]]


def _generation_step(gen: int, current: list[symreg.Candidate],
                     norm_stats: emb_mod.NormStats,
                     history: sel_mod.SelectionHistory,
                     config: RunConfig, p: int,
                     select_rng: np.random.Generator,
                     fit_rng: np.random.Generator,
                     oracle: _Oracle) -> tuple[list[int],
                                               dict[int, np.ndarray]]:
    """One generation of the loop, shared by training and replay, and the
    only code that writes a candidate's outcome.

    Normalizes the embeddings; a candidate whose normalized embedding is not
    finite gets the divergence sentinel.  The surrogate chooses which of the
    rest get an expensive outcome (all of them when it is disabled), the
    oracle gives each chosen one its outcome, which joins the history, and
    every other candidate gets its predicted objectives.  Training's oracle
    is the live evaluator, replay's the stored record.  Returns the selected
    ids and the predicted objectives by id.
    """
    usable = []
    for cand in current:
        cand.embedding_norm = emb_mod.normalize(cand.embedding, norm_stats)
        if np.all(np.isfinite(cand.embedding_norm)):
            usable.append(cand)
        else:
            cand.objectives = np.full(p, symreg.DIVERGENCE_SENTINEL)
            cand.converged = False
            cand.provenance = "surrogate"

    if config.surrogate_enabled:
        model = (_fit_surrogate(history, config.surrogate, fit_rng)
                 if gen >= 1 else None)
        decision = sel_mod.select_generation(
            gen, usable, model, history, config.selection_config(),
            select_rng)
    else:
        decision = sel_mod.select_all(usable)

    predicted: dict[int, np.ndarray] = {}
    if decision.means is not None:
        _, to_objective = _gp_target_map(config.surrogate.log_error)
        predicted = dict(zip([c.id for c in usable],
                             to_objective(decision.means)))
    by_id = {c.id: c for c in usable}
    for cid in decision.selected_ids:
        cand = by_id[cid]
        objectives, cand.converged = oracle(cand)
        cand.objectives = np.asarray(objectives, dtype=float)
        cand.provenance = "expensive"
        history.add(cand.embedding_norm, cand.phenotype_keys,
                    cand.objectives, cand.converged)
    for cid in predicted.keys() - set(decision.selected_ids):
        cand = by_id[cid]
        cand.objectives = predicted[cid]
        cand.converged = True
        cand.provenance = "surrogate"
    return decision.selected_ids, predicted


# Per generation: (generation, candidate count, (objectives, converged) of
# each expensive outcome, truth and prediction by id for relative error).
_GenerationInputs = tuple[int, int, list, dict[int, np.ndarray],
                         dict[int, np.ndarray]]


def _run_metrics(generations: Iterable[_GenerationInputs],
                 p: int) -> metrics_mod.RunMetrics:
    """Metric rows over cumulative expensive outcomes, one per generation."""
    metrics = metrics_mod.RunMetrics()
    points: list = []
    expensive = seen = 0
    truth_all: dict[int, np.ndarray] = {}
    pred_all: dict[int, np.ndarray] = {}
    for gen, n_candidates, outcomes, truth, pred in generations:
        seen += n_candidates
        expensive += len(outcomes)
        points += [obj for obj, converged in outcomes if converged]
        truth_all.update(truth)
        pred_all.update(pred)
        if points:
            front = np.asarray(points, dtype=float)
            coverage = metrics_mod.hypervolume_coverage(front)
            best = tuple(float(v) for v in front.min(axis=0))
        else:
            coverage = 0.0
            best = tuple(float("nan") for _ in range(p))
        metrics.append(metrics_mod.GenerationMetrics(
            generation=gen, expensive_cumulative=expensive, coverage=coverage,
            selection_ratio=expensive / seen,
            relative_error=metrics_mod.surrogate_relative_error(truth, pred),
            best_objectives=best))
    metrics.final_selection_ratio = expensive / seen
    metrics.final_relative_error = metrics_mod.surrogate_relative_error(
        truth_all, pred_all)
    return metrics


def metrics_from_records(records: Sequence[EvaluationRecord]) -> metrics_mod.RunMetrics:
    """Reconstruct per-generation metrics from stored records alone.

    Relative error compares the prediction made for an expensive candidate
    before its evaluation with the outcome.
    """
    if not records:
        raise ValueError("no records to summarize")
    by_gen = EvaluationDatabase(list(records)).by_generation()

    def generations():
        for gen in sorted(by_gen):
            rows = by_gen[gen]
            expensive = [r for r in rows if r.provenance == "expensive"]
            scored = [r for r in expensive
                      if r.converged and r.predicted is not None]
            yield (gen, len(rows),
                   [(r.objectives, r.converged) for r in expensive],
                   {r.id: np.asarray(r.objectives) for r in scored},
                   {r.id: np.asarray(r.predicted) for r in scored})

    return _run_metrics(generations(), len(records[0].objectives))


# ---------------------------------------------------------------------------
# Training


def run_training(config: RunConfig) -> tuple[EvaluationDatabase,
                                             metrics_mod.RunMetrics]:
    """Execute a full training run; deterministic per seed.

    Everything wrong with the config or the files it names surfaces during
    set-up, before generation 0, as a ConfigError.
    """
    init_rng, pool_seed, evolve_rngs, select_rngs, fit_rngs = _streams(
        config.seed, config.generations)
    try:
        evaluator = build_evaluator(config.evaluator)
        if config.embedding.feature_table is not None:
            table = emb_mod.ingest_feature_table(config.embedding.feature_table)
            missing = set(evaluator.terminals) - set(table.names)
            if missing:
                raise ConfigError(
                    f"feature table lacks terminals {sorted(missing)}")
        else:
            table = evaluator.baseline_table()
        symbols = symreg.SymbolSet(operators=config.gep.operators,
                                   terminals=tuple(evaluator.terminals),
                                   n_constants=config.gep.n_constants)
        gep_config = symreg.GepConfig(symbols=symbols,
                                      head_len=config.gep.head_len,
                                      mutation_rate=config.gep.mutation_rate,
                                      crossover_rate=config.gep.crossover_rate)
        pool = symreg.ConstantsPool.from_seed(
            pool_seed, size=config.gep.n_constants,
            low=config.gep.const_range[0], high=config.gep.const_range[1])
    except (eval_mod.SetupError, emb_mod.IngestError,
            symreg.ConfigurationError, symreg.ExpressionSyntaxError) as exc:
        raise ConfigError(str(exc)) from exc
    p = evaluator.n_objectives
    n_slots = evaluator.n_slots

    population = [symreg.Candidate(
        genotypes=tuple(symreg.random_genotype(init_rng, gep_config)
                        for _ in range(n_slots)),
        generation=0, id=i) for i in range(config.population)]
    next_id = config.population

    db = EvaluationDatabase()
    history = sel_mod.SelectionHistory.empty(n_slots, p)
    survivors: list[symreg.Candidate] = []
    trees_by_id: dict[int, list[symreg.ExprTree]] = {}

    def evaluate(cand: symreg.Candidate):
        outcome = evaluator.evaluate(trees_by_id[cand.id], pool)
        return outcome.objectives, outcome.converged

    for gen in range(config.generations):
        if gen == 0:
            current = population
        else:
            ranks = symreg.rank_population(survivors)
            current = symreg.evolve_generation(survivors, ranks,
                                               evolve_rngs[gen], gep_config,
                                               config.offspring, next_id, gen)
            next_id += config.offspring

        trees_by_id.clear()
        for cand in current:
            trees = [symreg.decode(g) for g in cand.genotypes]
            trees_by_id[cand.id] = trees
            cand.phenotype_keys = tuple(symreg.canonical_key(t, pool)
                                        for t in trees)
            cand.embedding = emb_mod.embed(
                trees, table, pool,
                average_inputs_first=config.embedding.average_inputs_first)

        if gen == 0:
            norm_stats = _gen0_norm_stats([c.embedding for c in current])
            if norm_stats is None:
                raise RunError("no usable embeddings in generation 0")

        selected, predicted = _generation_step(
            gen, current, norm_stats, history, config, p, select_rngs[gen],
            fit_rngs[gen], evaluate)

        for cand in sorted(current, key=lambda c: c.id):
            if cand.objectives is None:
                raise RunError(
                    f"candidate {cand.id} left without objectives")
            pred = predicted.get(cand.id)
            db.append(EvaluationRecord(
                generation=gen, id=cand.id,
                keys=tuple(cand.phenotype_keys),
                embedding=tuple(float(v) for v in cand.embedding),
                objectives=tuple(float(v) for v in cand.objectives),
                converged=bool(cand.converged),
                provenance=cand.provenance,
                wall_time=float(cand.provenance == "expensive"),
                predicted=(None if pred is None
                           else tuple(float(v) for v in pred))))

        survivors = (list(current) if gen == 0
                     else symreg.select_survivors(survivors + current,
                                                  config.population))
        log.info("generation %d: %d expensive, %d total",
                 gen, len(selected), len(current))

    return db, metrics_from_records(db.records)


# ---------------------------------------------------------------------------
# Passive replay


def passive_replay(db: EvaluationDatabase,
                   config: RunConfig) -> metrics_mod.RunMetrics:
    """Emulate a surrogate-assisted run against stored expensive outcomes.

    Walks the stored generations through the training step with the stored
    records as the oracle: only the selected candidates' objectives are
    revealed, the rest are predicted.  Relative error compares those
    predictions with the stored truth.  No evaluator is built or called.
    """
    by_gen = db.by_generation()
    if not by_gen:
        raise ReplayError("database is empty")
    gens = sorted(by_gen)
    if gens != list(range(len(gens))):
        raise ReplayError(f"database generations are not contiguous: {gens}")
    for gen, rows in by_gen.items():
        for rec in rows:
            if rec.provenance != "expensive":
                raise ReplayError(
                    "replay needs a baseline database in which every record "
                    f"is expensive (generation {gen}, id {rec.id})")

    norm_stats = _gen0_norm_stats([rec.embedding for rec in by_gen[0]])
    if norm_stats is None:
        raise ReplayError("no finite generation-0 embeddings in database")

    first = by_gen[0][0]
    p = len(first.objectives)
    history = sel_mod.SelectionHistory.empty(len(first.embedding), p)
    _, _, _, select_rngs, fit_rngs = _streams(config.seed, len(gens))
    stored = operator.attrgetter("objectives", "converged")
    generations: list[_GenerationInputs] = []
    for gen in gens:
        rec_by_id = {rec.id: rec for rec in by_gen[gen]}
        stand_ins = [symreg.Candidate(genotypes=(), generation=gen, id=rec.id,
                                      phenotype_keys=rec.keys,
                                      embedding=np.asarray(rec.embedding))
                     for rec in by_gen[gen]]
        selected, predicted = _generation_step(
            gen, stand_ins, norm_stats, history, config, p, select_rngs[gen],
            fit_rngs[gen], lambda c: stored(rec_by_id[c.id]))
        revealed = [rec_by_id[cid] for cid in selected]
        hidden = {cid: pred for cid, pred in predicted.items()
                  if cid not in selected and rec_by_id[cid].converged}
        generations.append((gen, len(stand_ins),
                            [(r.objectives, r.converged) for r in revealed],
                            {cid: np.asarray(rec_by_id[cid].objectives)
                             for cid in hidden},
                            hidden))
    return _run_metrics(generations, p)
