"""Training loop, persistence, metrics assembly, and passive replay.

A run proceeds generation by generation: the engine proposes candidates,
each candidate is embedded, a candidate whose phenotype keys already have
an outcome reuses it, one candidate per remaining phenotype is offered, the
selection policy decides which offered candidates get a true outcome (all
of them in generation 0 and when the surrogate is disabled), the evaluator
runs on those, outcomes are appended to a line-delimited database, the
surrogate is refit on the converged true outcomes, one row per evaluated
phenotype, and the combined truth/predicted fitness feeds back into
survivor selection.  Selection only decides; the generation step here is
the one place that asks whether a phenotype has an outcome, the one place
that writes a candidate's objectives and the one builder of the
generation's records, which training appends to the database and from
which training, replay and report compute metrics.

Each config block, `gep` being the engine's own symreg.GepConfig, checks
its fields when the config loads; set-up then builds the evaluator and
the GEP alphabet, the run's constants included.

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
from .fields import ConfigError, check_fields, field_types, integer, number

__all__ = [
    "ConfigError",
    "RunError",
    "ReplayError",
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

# The GP regresses log10 of the objectives, clamped here first; a perfect
# candidate would otherwise send the regression target to -inf.
_LOG_FLOOR = 1e-12

# A record's provenance: an evaluator call, the reuse of an earlier call's
# outcome for the same phenotype keys, or a surrogate prediction (or the
# divergence sentinel).  The first two are true outcomes.
_TRUE_OUTCOMES = ("expensive", "cache")
_PROVENANCES = _TRUE_OUTCOMES + ("surrogate",)


class RunError(RuntimeError):
    """A training run cannot proceed."""


class ReplayError(RuntimeError):
    """A stored database cannot be replayed."""


@dataclass(frozen=True)
class SurrogateSettings:
    restarts: int = sur_mod.RESTARTS

    def __post_init__(self):
        check_fields(self)
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
        check_fields(self)
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
    gep: symreg.GepConfig = field(default_factory=symreg.GepConfig)
    surrogate: SurrogateSettings = field(default_factory=SurrogateSettings)
    selection: sel_mod.SelectionConfig = field(
        default_factory=sel_mod.SelectionConfig)
    evaluator: EvaluatorSpec = field(default_factory=EvaluatorSpec)

    def __post_init__(self):
        check_fields(self)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        # population 2 is the floor because embedding normalization fits its
        # statistics on the generation-0 population
        if self.population < 2 or self.offspring < 1:
            raise ConfigError("population must be >= 2 and offspring >= 1")
        # Selection thresholds the surrogate's picks from generation 2 on.
        if (self.surrogate_enabled and self.generations >= 3
                and not self.selection.has_threshold()):
            raise ConfigError(
                "selection: a surrogate run of 3 or more generations needs "
                "at least one of m_fixed, m_rel, m_pareto")


# Fields that name files; every one but output_dir names an input.
_PATH_FIELDS = ("output_dir", "case", "table")


def _settings(cls, raw: dict, base_dir: Path | None):
    """cls built from one JSON object: an object given for a field typed as
    a config block is built the same way, relative paths resolve against
    base_dir, and an input file must exist."""
    types = field_types(cls)
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} fields {sorted(unknown)}")
    kwargs = {}
    for name, value in raw.items():
        if isinstance(value, dict) and dataclasses.is_dataclass(types[name]):
            value = _settings(types[name], value, base_dir)
        elif name in _PATH_FIELDS and isinstance(value, str):
            if base_dir is not None and not Path(value).is_absolute():
                value = str(base_dir / value)
            if name != "output_dir" and not Path(value).exists():
                raise ConfigError(f"{name} not found: {value}")
        kwargs[name] = value
    return cls(**kwargs)


def build_run_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    """Build a validated RunConfig from a parsed mapping.

    Relative paths are resolved against the configuration file's directory
    so a config plus its referenced files stay relocatable as a unit.
    """
    return _settings(RunConfig, raw, base_dir)


def load_run_config(path: str | Path, **overrides) -> RunConfig:
    """The config a JSON file holds, with overrides in place of its
    top-level fields of the same names."""
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
    return build_run_config({**raw, **overrides}, base_dir=path.parent)


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
        # Field by field: dataclasses.asdict would deep-copy every tuple.
        return json.dumps({name: getattr(self, name)
                           for name in _RECORD_FIELDS}, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "EvaluationRecord":
        """The record one line holds; ValueError (KeyError for a missing
        field) unless every field has its type: a bool is neither an
        integer nor a number, and only `predicted` may be null."""
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ValueError("a record must be a JSON object")
        if payload["provenance"] not in _PROVENANCES:
            raise ValueError(f"unknown provenance {payload['provenance']!r}")

        def typed(name: str, what: str, ok: Callable[[object], bool]):
            value = payload[name]
            if not ok(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
            return value

        list_of = lambda ok: lambda v: isinstance(v, list) and all(map(ok, v))
        strings = list_of(lambda v: isinstance(v, str))

        def numbers(name: str) -> tuple[float, ...]:
            return tuple(float(v) for v in typed(name, "a list of numbers",
                                                 list_of(number)))

        return cls(generation=typed("generation", "an integer", integer),
                   id=typed("id", "an integer", integer),
                   keys=tuple(typed("keys", "a list of strings", strings)),
                   embedding=numbers("embedding"),
                   objectives=numbers("objectives"),
                   converged=typed("converged", "a bool",
                                   lambda v: isinstance(v, bool)),
                   provenance=payload["provenance"],
                   wall_time=float(typed("wall_time", "a number", number)),
                   predicted=(None if payload.get("predicted") is None
                              else numbers("predicted")))


_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(EvaluationRecord))


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


def _to_gp_target(objectives: np.ndarray) -> np.ndarray:
    """GP regression targets: log10 of the objectives."""
    return np.log10(np.maximum(objectives, _LOG_FLOOR))


def _to_objective(means: np.ndarray) -> np.ndarray:
    """Objectives from GP posterior means: the inverse of _to_gp_target."""
    return np.power(10.0, np.clip(means, -300.0, 300.0))


def _fit_surrogate(history: sel_mod.SelectionHistory,
                   settings: SurrogateSettings,
                   rng: np.random.Generator) -> sur_mod.MultiGp:
    """The GP on every converged expensive outcome so far, after the
    history's last fit (`fit_multi` decides whether to search)."""
    if history.converged_points.shape[0] == 0:
        raise RunError("no converged expensive data to fit the surrogate")
    return sur_mod.fit_multi(history.converged_points,
                             _to_gp_target(history.converged_objectives),
                             restarts=settings.restarts, rng=rng,
                             last=history.last_fit)


def _streams(seed: int, generations: int):
    """The run's random streams, all spawned from one seed: the generation-0
    population rng, the seed the run's constants are drawn with, and
    per-generation evolve, select and fit rngs."""
    init_ss, constants_ss, *per_gen = np.random.SeedSequence(seed).spawn(5)
    evolve, select, fit = ([np.random.default_rng(s)
                            for s in ss.spawn(generations)]
                           for ss in per_gen)
    return (np.random.default_rng(init_ss),
            int(constants_ss.generate_state(1)[0]), evolve, select, fit)


def _gen0_norm_stats(embeddings: list) -> emb_mod.NormStats | None:
    """Training's and replay's one rule for the embedding scale: statistics
    of the finite generation-0 embeddings, None if there are none."""
    finite = [e for e in embeddings if np.all(np.isfinite(e))]
    return emb_mod.fit_norm_stats(finite) if finite else None


def _generation_step(gen: int, current: list[symreg.Candidate],
                     norm_stats: emb_mod.NormStats,
                     history: sel_mod.SelectionHistory,
                     config: RunConfig, p: int,
                     select_rng: np.random.Generator,
                     fit_rng: np.random.Generator,
                     oracle: Callable[[list[symreg.Candidate]], list]
                     ) -> list[EvaluationRecord]:
    """One generation of the loop, shared by training and replay: the only
    code that asks whether a phenotype already has an outcome, the only code
    that writes a candidate's objectives and the only builder of records.

    Normalizes the embeddings; a candidate whose normalized embedding is not
    finite gets the divergence sentinel.  A usable candidate whose keys have
    an outcome in the history reuses it (provenance "cache").  The lowest-id
    candidate of each other phenotype is offered.  In generation 0 and
    without a surrogate every offered candidate is selected; otherwise the
    surrogate, refit from generation 1 on and kept in the history for the
    next refit, predicts the offered candidates and selection
    ranks them.  The oracle takes the selected candidates, in id order, in
    one call and returns their outcomes in that order ("expensive"); each
    joins the history: one row per evaluated phenotype.  Every other
    candidate reuses its keys' outcome if they now have one ("cache"), and
    otherwise gets its phenotype's prediction ("surrogate").  Only
    expensive and surrogate records carry a prediction.  An oracle outcome
    has .objectives and .converged: the evaluator's EvaluationOutcome in
    training, the stored EvaluationRecord in replay.  Returns the
    generation's records in id order.
    """
    current = sorted(current, key=lambda c: c.id)
    converged: dict[int, bool] = {}
    offered: dict[tuple, symreg.Candidate] = {}
    usable = []
    points = emb_mod.normalize(np.array([c.embedding for c in current]),
                               norm_stats)
    for cand, point in zip(current, points):
        cand.embedding_norm = point
        if np.all(np.isfinite(point)):
            usable.append(cand)
            if cand.phenotype_keys not in history.outcomes:
                offered.setdefault(cand.phenotype_keys, cand)
        else:
            cand.objectives = np.full(p, symreg.DIVERGENCE_SENTINEL)
            converged[cand.id] = False

    selected = list(offered.values())
    predicted: dict[tuple, np.ndarray] = {}
    if config.surrogate_enabled and gen >= 1:
        model = history.last_fit = _fit_surrogate(history, config.surrogate,
                                                  fit_rng)
        if offered:
            decision = sel_mod.select_generation(
                gen, selected, model, history,
                config.selection.for_population(config.population), select_rng)
            predicted = dict(zip(offered, _to_objective(decision.means)))
            chosen = set(decision.selected_ids)
            selected = [c for c in selected if c.id in chosen]

    provenance: dict[int, str] = {}
    for cand, outcome in zip(selected, oracle(selected), strict=True):
        history.add(cand.embedding_norm, cand.phenotype_keys,
                    outcome.objectives, outcome.converged)
        provenance[cand.id] = "expensive"
    for cand in usable:
        keys = cand.phenotype_keys
        if keys in history.outcomes:
            provenance.setdefault(cand.id, "cache")
            objectives, converged[cand.id] = history.outcomes[keys]
        else:
            provenance[cand.id] = "surrogate"
            objectives, converged[cand.id] = predicted[keys], True
        cand.objectives = np.asarray(objectives, dtype=float)

    records = []
    for cand in current:
        kind = provenance.get(cand.id)
        pred = (predicted.get(cand.phenotype_keys)
                if kind in ("expensive", "surrogate") else None)
        records.append(EvaluationRecord(
            generation=gen, id=cand.id, keys=tuple(cand.phenotype_keys),
            embedding=tuple(float(v) for v in cand.embedding),
            objectives=tuple(float(v) for v in cand.objectives),
            converged=converged[cand.id], provenance=kind or "surrogate",
            wall_time=float(kind == "expensive"),
            predicted=None if pred is None else tuple(float(v) for v in pred)))
    return records


def _run_metrics(generations: Iterable[tuple[list[EvaluationRecord], list]]
                 ) -> metrics_mod.RunMetrics:
    """Metric rows over cumulative true outcomes, one per generation; the
    expensive count is the evaluator calls, which cache records do not make.

    The run's reference is the componentwise max of the converged true
    outcomes of the first generation that has any: generation 0 evaluates
    every phenotype in training and in replay, so the runs and replays of
    one seed share it.  Each row's hypervolume is that of the true outcomes
    so far against it, so it never decreases; a row before the reference
    exists reads 0.0 with NaN best objectives.  Each generation gives its
    records and the (truth, prediction) pairs its relative error scores.
    """
    metrics = metrics_mod.RunMetrics()
    front = None
    scored_all: list = []
    expensive = seen = 0
    for records, scored in generations:
        seen += len(records)
        expensive += sum(r.provenance == "expensive" for r in records)
        new = [r.objectives for r in records
               if r.provenance in _TRUE_OUTCOMES and r.converged]
        scored_all += scored
        if new:
            if front is None:
                metrics.reference = tuple(
                    float(v) for v in np.max(new, axis=0))
                front = np.empty((0, len(metrics.reference)))
            # The front of the outcomes so far is that of the last front
            # and the new outcomes.
            front = metrics_mod.pareto_front(np.vstack([front, new]))
        if front is not None:
            volume = metrics_mod.hypervolume(front, metrics.reference)
            best = tuple(float(v) for v in front.min(axis=0))
        else:
            volume = 0.0
            best = tuple(float("nan") for _ in records[0].objectives)
        metrics.append(metrics_mod.GenerationMetrics(
            generation=records[0].generation, expensive_cumulative=expensive,
            hypervolume=volume, selection_ratio=expensive / seen,
            relative_error=metrics_mod.surrogate_relative_error(scored),
            best_objectives=best))
    metrics.final_relative_error = metrics_mod.surrogate_relative_error(
        scored_all)
    return metrics


def metrics_from_records(records: Sequence[EvaluationRecord]) -> metrics_mod.RunMetrics:
    """Reconstruct per-generation metrics from stored records alone.

    Relative error compares each true outcome with the prediction made for
    it beforehand.
    """
    if not records:
        raise ValueError("no records to summarize")
    by_gen = EvaluationDatabase(list(records)).by_generation()
    return _run_metrics(
        (rows, [(r.objectives, r.predicted) for r in rows
                if r.provenance in _TRUE_OUTCOMES and r.converged
                and r.predicted is not None])
        for _, rows in sorted(by_gen.items()))


# ---------------------------------------------------------------------------
# Training


def run_training(config: RunConfig) -> tuple[EvaluationDatabase,
                                             metrics_mod.RunMetrics]:
    """Execute a full training run; deterministic per seed.

    Everything wrong with the config or the files it names surfaces during
    set-up, before generation 0, as a ConfigError.
    """
    init_rng, constants_seed, evolve_rngs, select_rngs, fit_rngs = _streams(
        config.seed, config.generations)
    evaluator = build_evaluator(config.evaluator)
    table = evaluator.baseline_table()
    gep = config.gep
    symbols = symreg.SymbolSet.build(gep, evaluator.terminals, constants_seed)
    p = evaluator.n_objectives
    n_slots = evaluator.n_slots

    population = [symreg.Candidate(
        genotypes=tuple(symreg.random_genotype(init_rng, gep, symbols)
                        for _ in range(n_slots)),
        id=i) for i in range(config.population)]
    next_id = config.population

    db = EvaluationDatabase()
    history = sel_mod.SelectionHistory.empty(n_slots, p)
    survivors: list[symreg.Candidate] = []
    for gen in range(config.generations):
        if gen == 0:
            current = population
        else:
            ranks = symreg.rank_population(survivors)
            current = symreg.evolve_generation(survivors, ranks,
                                               evolve_rngs[gen], gep, symbols,
                                               config.offspring, next_id)
            next_id += config.offspring

        # Each slot's polynomial is built once, then keyed, embedded and
        # handed to the evaluator.
        polys = {cand.id: [symreg.tree_polynomial(symreg.decode(g))
                           for g in cand.genotypes] for cand in current}
        points = emb_mod.embed(list(polys.values()), table)
        for cand, point in zip(current, points):
            cand.embedding = point
            cand.phenotype_keys = tuple(map(symreg.canonical_key,
                                            polys[cand.id]))

        if gen == 0:
            norm_stats = _gen0_norm_stats([c.embedding for c in current])
            if norm_stats is None:
                raise RunError("no usable embeddings in generation 0")

        records = _generation_step(
            gen, current, norm_stats, history, config, p, select_rngs[gen],
            fit_rngs[gen], lambda cands: evaluator.evaluate_batch(
                [polys[c.id] for c in cands]))
        for record in records:
            db.append(record)

        survivors = (list(current) if gen == 0
                     else symreg.select_survivors(survivors + current,
                                                  config.population))
        log.info("generation %d: %d expensive, %d cache hits, %d total", gen,
                 sum(r.provenance == "expensive" for r in records),
                 sum(r.provenance == "cache" for r in records), len(records))

    return db, metrics_from_records(db.records)


# ---------------------------------------------------------------------------
# Passive replay


def passive_replay(db: EvaluationDatabase,
                   config: RunConfig) -> metrics_mod.RunMetrics:
    """Emulate a surrogate-assisted run against stored true outcomes.

    Every stored record must be a true outcome, "expensive" or "cache".
    Walks the stored generations through the training step with the stored
    records as the oracle: only the selected candidates' stored outcomes
    are read, a candidate whose phenotype already has one reuses it, and
    the rest are predicted.  Relative error compares those predictions with
    the stored truth.  No evaluator is built or called.
    """
    by_gen = db.by_generation()
    if not by_gen:
        raise ReplayError("database is empty")
    gens = sorted(by_gen)
    if gens != list(range(len(gens))):
        raise ReplayError(f"database generations are not contiguous: {gens}")
    for gen, rows in by_gen.items():
        for rec in rows:
            if rec.provenance not in _TRUE_OUTCOMES:
                raise ReplayError(
                    "replay needs a baseline database in which every record "
                    'is a true outcome, "expensive" or "cache"; '
                    f"generation {gen}, id {rec.id} is {rec.provenance!r}")

    norm_stats = _gen0_norm_stats([rec.embedding for rec in by_gen[0]])
    if norm_stats is None:
        raise ReplayError("no finite generation-0 embeddings in database")

    first = by_gen[0][0]
    p = len(first.objectives)
    history = sel_mod.SelectionHistory.empty(len(first.embedding), p)
    _, _, _, select_rngs, fit_rngs = _streams(config.seed, len(gens))
    generations = []
    for gen in gens:
        rec_by_id = {rec.id: rec for rec in by_gen[gen]}
        stand_ins = [symreg.Candidate(genotypes=(), id=rec.id,
                                      phenotype_keys=rec.keys,
                                      embedding=np.asarray(rec.embedding))
                     for rec in by_gen[gen]]
        records = _generation_step(
            gen, stand_ins, norm_stats, history, config, p, select_rngs[gen],
            fit_rngs[gen], lambda cands: [rec_by_id[c.id] for c in cands])
        generations.append((records, [
            (rec_by_id[r.id].objectives, r.predicted) for r in records
            if r.provenance == "surrogate" and r.predicted is not None
            and rec_by_id[r.id].converged]))
    return _run_metrics(generations)
