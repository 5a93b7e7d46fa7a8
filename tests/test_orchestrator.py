"""End-to-end training loop, database, replay, and command-line interface."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import sagep.evaluators as ev
import sagep.orchestrator as orch
import sagep.selection as sel
import sagep.surrogate as surrogate
import sagep.symreg as symreg
from sagep.cli import main
from sagep.embedding import FeatureTable, NormStats, write_feature_table
from sagep.metrics import RunMetrics
from sagep.orchestrator import (
    ConfigError,
    EvaluationDatabase,
    EvaluationRecord,
    ReplayError,
    RunConfig,
    build_run_config,
    load_run_config,
    metrics_from_records,
    passive_replay,
    run_training,
)
from sagep.selection import SelectionConfig, SelectionHistory
from sagep.surrogate import KernelParams, build_gp
from sagep.symreg import DIVERGENCE_SENTINEL, Candidate, parse_expression

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TARGETS = ["I1*I1 - 0.5*I2", "0.3 + I2"]
# A channel case's own reference profiles, finite and n_cells long.
GIVEN_PROFILES = {"n_cells": 16,
                  "reference_u": [k / 15 for k in range(16)],
                  "reference_t": [0.5 - k / 15 for k in range(16)]}


def write_features(tmp_path):
    rng = np.random.default_rng(3)
    table = FeatureTable(columns={"I1": rng.uniform(0.2, 1.2, size=10),
                                  "I2": rng.uniform(-1.0, -0.2, size=10)})
    write_feature_table(table, tmp_path / "features.csv")


def write_config(tmp_path, **overrides):
    write_features(tmp_path)
    raw = {
        "seed": 0,
        "generations": 4,
        "population": 12,
        "offspring": 6,
        "surrogate_enabled": True,
        "output_dir": "out",
        "gep": {"head_len": 4, "n_constants": 2},
        "surrogate": {"restarts": 2},
        "evaluator": {"kind": "symbolic", "table": "features.csv",
                      "targets": TARGETS},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestConfig:
    def test_load_and_resolve_paths(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path))
        assert cfg.population == 12
        assert cfg.evaluator.table.endswith("features.csv")
        assert "/" in cfg.evaluator.table  # resolved against the config dir
        assert cfg.output_dir.endswith("out")

    def test_selection_defaults_scale_with_population(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path))
        sel = cfg.selection.for_population(cfg.population)
        assert sel.metric == "lcb"
        assert sel.n_init == 5
        assert sel.m_fixed == 1
        # Resolved where it is used, so a changed population rescales it.
        assert cfg.selection.for_population(96).n_init == 38

    def test_selection_block_override(self, tmp_path):
        cfg = load_run_config(write_config(
            tmp_path, selection={"metric": "ei", "m_fixed": 2}))
        sel = cfg.selection.for_population(cfg.population)
        assert sel.metric == "ei"
        assert sel.m_fixed == 2
        assert sel.n_init == 5  # still scaled from the population

    def test_empty_selection_block_keeps_defaults(self, tmp_path):
        plain = load_run_config(write_config(tmp_path))
        empty = load_run_config(write_config(tmp_path, selection={}))
        assert empty.selection == plain.selection == SelectionConfig()

    def test_partial_selection_block_keeps_other_defaults(self):
        # population omitted: the RunConfig default of 96 sets n_init.
        cfg = build_run_config({"selection": {"m_fixed": 1}})
        sel = cfg.selection.for_population(cfg.population)
        assert sel.n_init == 38
        assert sel.m_init_rel == 0.5
        assert cfg.selection == RunConfig().selection

    @pytest.mark.parametrize("block", ["gep", "selection"])
    def test_null_block_rejected(self, block):
        with pytest.raises(ConfigError, match=f"^{block} must be a "):
            build_run_config({block: None})

    def test_missing_table_rejected(self, tmp_path):
        path = write_config(tmp_path)
        (tmp_path / "features.csv").unlink()
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(path)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"bogus_knob": 1})

    def test_tiny_population_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(write_config(tmp_path, population=1))

    def test_nonpositive_generations_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(write_config(tmp_path, generations=0))

    @pytest.mark.parametrize("field, value", [
        ("slot_of_objective", [0, 1]),
        ("table", "features.csv"),
        ("targets", TARGETS),
    ])
    def test_channel_rejects_symbolic_fields(self, tmp_path, field, value):
        write_features(tmp_path)
        with pytest.raises(ConfigError, match=field):
            build_run_config({"evaluator": {"kind": "channel", field: value}},
                             base_dir=tmp_path)

    @pytest.mark.parametrize("name, overrides", [
        ("surrogate_enabled", {"surrogate_enabled": "false"}),
        ("surrogate_enabled", {"surrogate_enabled": 0}),
        ("log_error", {"surrogate": {"log_error": "false"}}),
        ("log_error", {"surrogate": {"log_error": True}}),
        ("log_error", {"surrogate": {"log_error": False}}),
        ("embedding", {"embedding": {"average_inputs_first": "no"}}),
        ("embedding", {"embedding": {"average_inputs_first": True}}),
        ("embedding", {"embedding": {"average_inputs_first": False}}),
        ("n_init", {"selection": {"n_init": 2.5}}),
        ("m_fixed", {"selection": {"m_fixed": 1.5}}),
        ("m_fixed", {"selection": {"m_fixed": True}}),
        ("m_pareto", {"selection": {"m_pareto": 1.5}}),
        ("mutation_rate", {"gep": {"head_len": 4, "mutation_rate": "0.1"}}),
        ("crossover_rate", {"gep": {"head_len": 4, "crossover_rate": None}}),
        ("const_range", {"gep": {"head_len": 4, "const_range": ["-2", 2]}}),
        ("const_range", {"gep": {"head_len": 4, "const_range": None}}),
        ("const_range", {"gep": {"head_len": 4, "const_range": [1.0]}}),
        # Each end is a finite float, but high - low overflows.
        ("const_range", {"gep": {"head_len": 4,
                                 "const_range": [-1e308, 1e308]}}),
        ("beta", {"selection": {"beta": True}}),
        ("xi", {"selection": {"xi": False}}),
        ("delta", {"selection": {"delta": True}}),
        ("m_rel", {"selection": {"m_rel": True}}),
        ("m_init_rel", {"selection": {"m_init_rel": False}}),
        ("beta", {"selection": {"beta": float("nan")}}),
        ("xi", {"selection": {"metric": "ei", "xi": float("inf")}}),
        ("delta", {"selection": {"delta": "0.75"}}),
        ("bounds", {"surrogate": {"bounds": {"sigma": [True, 10.0]}}}),
        ("bounds", {"surrogate": {"bounds": {"ell": [0.01, True]}}}),
        ("output_dir", {"output_dir": 5}),
        ("output_dir", {"output_dir": None}),
        ("embedding", {"embedding": {"feature_table": 3}}),
        ("case", {"evaluator": {"kind": "channel", "case": 7}}),
        ("table", {"evaluator": {"kind": "symbolic", "table": 4,
                                 "targets": TARGETS}}),
        ("slot_of_objective", {"evaluator": {
            "kind": "symbolic", "table": "features.csv", "targets": TARGETS,
            "slot_of_objective": ["0", "1"]}}),
        ("slot_of_objective", {"evaluator": {
            "kind": "symbolic", "table": "features.csv", "targets": TARGETS,
            "slot_of_objective": [0.0, 1.0]}}),
        ("slot_of_objective", {"evaluator": {
            "kind": "symbolic", "table": "features.csv", "targets": TARGETS,
            "slot_of_objective": [True, False]}}),
        ("targets", {"evaluator": {"kind": "symbolic", "table": "features.csv",
                                   "targets": [1, 2]}}),
        ("targets", {"evaluator": {"kind": "symbolic", "table": "features.csv",
                                   "targets": "I1"}}),
        ("operators", {"gep": {"head_len": 4, "operators": "+-"}}),
        # The gep block is the engine's GepConfig, so its range faults
        # are found at load too, not at set-up.
        ("operators", {"gep": {"operators": ["/"]}}),
        ("operators", {"gep": {"operators": []}}),
        ("head_len", {"gep": {"head_len": 0}}),
        ("n_constants", {"gep": {"n_constants": -1}}),
        ("mutation_rate", {"gep": {"mutation_rate": 2}}),
        ("crossover_rate", {"gep": {"crossover_rate": -0.1}}),
    ], ids=["surrogate_enabled_string", "surrogate_enabled_int",
            "log_error", "log_error_true", "log_error_false",
            "average_inputs_first", "average_inputs_first_true",
            "average_inputs_first_false", "n_init", "m_fixed_float",
            "m_fixed_bool", "m_pareto", "mutation_rate", "crossover_rate",
            "const_range_string", "const_range_null", "const_range_short",
            "const_range_overflow",
            "beta_bool", "xi_bool", "delta_bool", "m_rel_bool",
            "m_init_rel_bool", "beta_nan", "xi_infinite", "delta_string",
            "bounds_sigma_bool", "bounds_ell_bool",
            "output_dir_int", "output_dir_null", "feature_table_int",
            "case_int", "table_int", "slot_of_objective_strings",
            "slot_of_objective_floats", "slot_of_objective_bools",
            "targets_numbers", "targets_string", "operators_string",
            "operator_unknown", "operators_empty", "head_len_zero",
            "n_constants_negative", "mutation_rate_two",
            "crossover_rate_negative"])
    def test_ill_typed_field_rejected_on_load(self, tmp_path, capsys, name,
                                              overrides):
        # Each is caught while the config loads, and `sagep run` exits 1
        # instead of running with another meaning or crashing mid-run.  The
        # removed switch surrogate.log_error, and the removed embedding and
        # surrogate.bounds blocks, are rejected whatever their value.
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=name):
            load_run_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_surrogate_run_needs_a_threshold(self, tmp_path, capsys):
        # From generation 2 on the thresholds cut selection's ranking, so
        # a surrogate run that reaches it needs one; shorter or baseline
        # runs never apply them.
        none = {"m_fixed": None, "m_rel": None, "m_pareto": None}
        path = write_config(tmp_path, selection=none, generations=3)
        with pytest.raises(ConfigError, match="m_fixed, m_rel, m_pareto"):
            load_run_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")
        assert main(["run", "--config", str(path), "--baseline"]) == 0
        path = write_config(tmp_path, selection=none, generations=2)
        assert main(["run", "--config", str(path)]) == 0

    def test_symbolic_rejects_case(self, tmp_path):
        evaluator = {"kind": "symbolic", "table": "features.csv",
                     "targets": TARGETS, "case": {"n_cells": 16}}
        with pytest.raises(ConfigError, match="case"):
            load_run_config(write_config(tmp_path, evaluator=evaluator))


class TestDatabase:
    def make_record(self, gen=0, cid=0, **overrides):
        base = dict(generation=gen, id=cid, keys=("I1",),
                    embedding=(0.5, 1.5), objectives=(0.1, 0.2),
                    converged=True, provenance="expensive", wall_time=1.0,
                    predicted=None)
        base.update(overrides)
        return EvaluationRecord(**base)

    def test_json_round_trip(self):
        rec = self.make_record(predicted=(0.15, 0.25))
        back = EvaluationRecord.from_json(rec.to_json())
        assert back == rec

    def test_json_is_sorted_and_stable(self):
        rec = self.make_record()
        assert rec.to_json() == rec.to_json()
        keys = list(json.loads(rec.to_json()))
        assert keys == sorted(keys)

    def test_append_requires_monotone_order(self):
        db = EvaluationDatabase()
        db.append(self.make_record(gen=0, cid=0))
        db.append(self.make_record(gen=0, cid=1))
        db.append(self.make_record(gen=1, cid=2))
        with pytest.raises(ValueError):
            db.append(self.make_record(gen=0, cid=3))
        with pytest.raises(ValueError):
            db.append(self.make_record(gen=1, cid=2))

    def test_write_read_round_trip(self, tmp_path):
        db = EvaluationDatabase()
        db.append(self.make_record(gen=0, cid=0))
        db.append(self.make_record(gen=1, cid=1, provenance="surrogate",
                                   wall_time=0.0))
        db.append(self.make_record(gen=1, cid=2, provenance="cache",
                                   wall_time=0.0))
        path = db.write(tmp_path / "db.jsonl")
        back = EvaluationDatabase.read(path)
        assert back.records == db.records
        assert path.read_bytes() == db.write(tmp_path / "again.jsonl").read_bytes()

    def test_unknown_provenance_is_malformed(self, tmp_path):
        db = EvaluationDatabase()
        db.append(self.make_record(provenance="bogus"))
        path = db.write(tmp_path / "db.jsonl")
        with pytest.raises(ReplayError, match="malformed database"):
            EvaluationDatabase.read(path)
        assert main(["report", "--db", str(path),
                     "--out", str(tmp_path / "rep")]) == 2

    @pytest.mark.parametrize("name, value", [
        ("generation", 1.0), ("generation", True), ("id", 1.7), ("id", "1"),
        ("id", False), ("converged", "false"), ("converged", 1),
        ("keys", "I1"), ("keys", None), ("keys", [1]),
        ("embedding", None), ("embedding", ["0.5", 1.5]),
        ("embedding", [True, 1.5]), ("objectives", 0.1),
        ("objectives", [0.1, None]), ("predicted", "x"),
        ("predicted", [0.1, "0.2"]), ("wall_time", "1.0"),
        ("wall_time", None), ("wall_time", True)])
    def test_wrongly_typed_field_is_malformed(self, tmp_path, name, value):
        payload = json.loads(self.make_record().to_json())
        payload[name] = value
        line = json.dumps(payload)
        with pytest.raises(ValueError, match=name):
            EvaluationRecord.from_json(line)
        path = tmp_path / "db.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ReplayError, match="malformed database"):
            EvaluationDatabase.read(path)
        assert main(["report", "--db", str(path),
                     "--out", str(tmp_path / "rep")]) == 2

    def test_non_object_line_is_malformed(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text(json.dumps([self.make_record().to_json()]) + "\n")
        with pytest.raises(ReplayError, match="malformed database"):
            EvaluationDatabase.read(path)
        assert main(["report", "--db", str(path),
                     "--out", str(tmp_path / "rep")]) == 2

    def test_integral_numbers_read_as_floats(self):
        payload = json.loads(self.make_record(predicted=(0.15, 0.25)).to_json())
        payload.update(embedding=[1, 2], objectives=[0, 1], predicted=[3, 4],
                       wall_time=1)
        rec = EvaluationRecord.from_json(json.dumps(payload))
        assert rec == self.make_record(embedding=(1.0, 2.0),
                                       objectives=(0.0, 1.0),
                                       predicted=(3.0, 4.0))
        assert all(type(v) is float for v in rec.embedding + rec.objectives
                   + rec.predicted + (rec.wall_time,))

    @pytest.mark.parametrize("surrogate_enabled", [True, False])
    @pytest.mark.parametrize("name", ["channel_run", "symbolic_quadratic"])
    def test_shipped_run_records_round_trip(self, name, surrogate_enabled):
        cfg = dataclasses.replace(load_run_config(CONFIGS / f"{name}.json"),
                                  surrogate_enabled=surrogate_enabled,
                                  generations=3)
        db, _ = run_training(cfg)
        assert [EvaluationRecord.from_json(r.to_json())
                for r in db.records] == db.records

    def test_by_generation_groups(self):
        db = EvaluationDatabase()
        db.append(self.make_record(gen=0, cid=0))
        db.append(self.make_record(gen=0, cid=1))
        db.append(self.make_record(gen=1, cid=2))
        grouped = db.by_generation()
        assert sorted(grouped) == [0, 1]
        assert [r.id for r in grouped[0]] == [0, 1]


class TestGenerationStep:
    """The step writes every outcome: oracle, prediction or sentinel."""

    IDENTITY = NormStats(mean=np.zeros(2), std=np.ones(2))

    def population(self, *embeddings):
        return [Candidate(genotypes=(), id=i,
                          phenotype_keys=(f"k{i}",),
                          embedding=np.asarray(e, dtype=float))
                for i, e in enumerate(embeddings)]

    def step(self, gen, pop, history, surrogate_enabled=True):
        config = RunConfig(
            surrogate_enabled=surrogate_enabled,
            selection=SelectionConfig(metric="lcb", beta=50.0, n_init=1,
                                      m_init_rel=None, m_rel=None))
        calls = []

        def oracle(cands):
            calls.append([c.id for c in cands])
            return [ev.EvaluationOutcome(objectives=np.array([0.1, 0.2]),
                                         converged=True) for _ in cands]

        records = orch._generation_step(
            gen, pop, self.IDENTITY, history, config, 2,
            np.random.default_rng(0), np.random.default_rng(1), oracle)
        assert [r.id for r in records] == sorted(c.id for c in pop)
        selected = [r.id for r in records if r.provenance == "expensive"]
        # One oracle call per generation, with the selected ids in order.
        assert calls == [selected]
        return selected, records

    def tight_fit(self, monkeypatch):
        """A fixed-hyperparameter GP on the targets the step passes in;
        returns the list those targets are appended to."""
        tight = KernelParams(ell=1.0, alpha=1.0, noise=1e-8)
        targets = []

        def fit_multi(X, Y, **_):
            targets.append(Y)
            return build_gp(X, Y, tight, np.ones(Y.shape[1]))

        monkeypatch.setattr(orch.sur_mod, "fit_multi", fit_multi)
        return targets

    def history(self, objectives):
        history = SelectionHistory.empty(2, 2)
        for i, point in enumerate([[0.0, 0.0], [1.0, 1.0]]):
            history.add(np.array(point), (f"seen{i}",),
                        np.asarray(objectives, dtype=float), True)
        return history

    def test_generation_zero_selects_all_finite(self):
        # Surrogate on at generation 0; off at generations 0 and 2.  The
        # candidate with an unusable embedding gets the sentinel.
        for gen, surrogate_enabled in [(0, True), (0, False), (2, False)]:
            pop = self.population([0.0, 0.0], [1.0, 1.0], [np.nan, 0.0])
            history = SelectionHistory.empty(2, 2)
            selected, records = self.step(gen, pop, history,
                                          surrogate_enabled)
            assert selected == [0, 1]
            assert all(r.predicted is None for r in records)
            assert [r.provenance for r in records] == ["expensive",
                                                      "expensive",
                                                      "surrogate"]
            assert np.array_equal(pop[2].objectives,
                                  [DIVERGENCE_SENTINEL, DIVERGENCE_SENTINEL])
            assert records[2].objectives == (DIVERGENCE_SENTINEL,
                                             DIVERGENCE_SENTINEL)
            assert records[2].converged is False
            assert history.outcomes == {("k0",): ((0.1, 0.2), True),
                                        ("k1",): ((0.1, 0.2), True)}
            assert history.converged_objectives.tolist() == [[0.1, 0.2]] * 2

    def test_oracle_takes_the_selected_in_id_order(self):
        # The population arrives in reverse id order; step asserts that the
        # one oracle call lists the selected ids in order.
        pop = self.population([0.0, 0.0], [1.0, 1.0], [2.0, 2.0])[::-1]
        selected, _ = self.step(0, pop, SelectionHistory.empty(2, 2))
        assert selected == [0, 1, 2]

    @pytest.mark.parametrize("surrogate_enabled", [True, False])
    def test_repeated_key_is_evaluated_once(self, surrogate_enabled):
        # Two candidates with one key: the second reuses the first's
        # outcome, costs nothing, and adds no row to the GP history.
        pop = self.population([0.0, 0.0], [1.0, 1.0])
        pop[1].phenotype_keys = pop[0].phenotype_keys
        history = SelectionHistory.empty(2, 2)
        selected, records = self.step(0, pop, history, surrogate_enabled)
        assert selected == [0]  # one candidate evaluated
        assert [r.provenance for r in records] == ["expensive", "cache"]
        assert [r.wall_time for r in records] == [1.0, 0.0]
        assert records[1].objectives == records[0].objectives == (0.1, 0.2)
        assert records[1].converged is True
        assert history.converged_points.tolist() == [[0.0, 0.0]]
        assert history.converged_objectives.tolist() == [[0.1, 0.2]]
        assert history.outcomes == {("k0",): ((0.1, 0.2), True)}

    def offered_to_selection(self, monkeypatch):
        """The ids of each select_generation call's population."""
        offered = []
        select = sel.select_generation

        def spy(gen, population, *args):
            offered.append([c.id for c in population])
            return select(gen, population, *args)

        monkeypatch.setattr(sel, "select_generation", spy)
        return offered

    def test_known_phenotype_reuses_its_outcome_unranked(self, monkeypatch):
        # Candidate 0 repeats an evaluated phenotype far from the data, where
        # beta = 50 would rank it first: it reuses the stored outcome, with
        # no prediction, and only candidate 1 is offered.
        self.tight_fit(monkeypatch)
        offered = self.offered_to_selection(monkeypatch)
        pop = self.population([9.0, 9.0], [0.1, 0.1])
        pop[0].phenotype_keys = ("seen0",)
        history = self.history([1.0, 2.0])
        selected, records = self.step(2, pop, history)
        assert offered == [[1]]
        assert selected == [1]
        assert (records[0].provenance, records[0].objectives,
                records[0].predicted) == ("cache", (1.0, 2.0), None)
        assert records[1].predicted is not None
        assert history.converged_points.shape == (3, 2)

    @pytest.mark.parametrize("twin_at, twin_selected", [(5.0, True),
                                                        (0.2, False)])
    def test_phenotype_twins_share_one_outcome(self, monkeypatch, twin_at,
                                                twin_selected):
        # Candidates 0 and 1 share a phenotype, so only 0 is offered.  When
        # it is evaluated, 1 reuses its outcome; when not, 1 carries 0's
        # prediction even though its own embedding differs.
        self.tight_fit(monkeypatch)
        offered = self.offered_to_selection(monkeypatch)
        pop = self.population([twin_at] * 2, [twin_at + 0.1] * 2,
                              [7.0 - twin_at] * 2)
        pop[1].phenotype_keys = pop[0].phenotype_keys
        selected, records = self.step(2, pop, self.history([1.0, 2.0]))
        assert offered == [[0, 2]]
        assert selected == ([0] if twin_selected else [2])
        if twin_selected:
            assert records[1].provenance == "cache"
            assert records[1].objectives == records[0].objectives
            assert records[1].predicted is None
        else:
            assert [r.provenance for r in records[:2]] == ["surrogate"] * 2
            assert records[1].predicted == records[0].predicted
            assert records[1].objectives == records[0].objectives

    def test_nothing_offered_still_refits(self, monkeypatch):
        # Every phenotype is known: no ranking, but the surrogate is refit and
        # kept in the history for the next refit.
        self.tight_fit(monkeypatch)
        offered = self.offered_to_selection(monkeypatch)
        pop = self.population([9.0, 9.0], [0.1, 0.1])
        for i, cand in enumerate(pop):
            cand.phenotype_keys = (f"seen{i}",)
        history = self.history([1.0, 2.0])
        selected, records = self.step(3, pop, history)
        assert (offered, selected) == ([], [])
        assert [r.provenance for r in records] == ["cache", "cache"]
        assert history.last_fit is not None

    def test_unselected_candidates_get_surrogate_predictions(self,
                                                             monkeypatch):
        self.tight_fit(monkeypatch)
        pop = self.population([0.0, 0.0], [7.0, 7.0], [np.inf, 0.0])
        selected, records = self.step(2, pop, self.history([1.0, 2.0]))
        assert selected == [1]
        filled = records[0]
        assert filled.provenance == "surrogate"
        assert filled.converged is True
        assert np.allclose(pop[0].objectives, [1.0, 2.0], atol=1e-3)
        assert [r.predicted is not None for r in records] == [True, True,
                                                              False]
        assert np.array_equal(filled.predicted, pop[0].objectives)
        assert filled.objectives == filled.predicted
        assert records[1].provenance == "expensive"
        assert records[2].converged is False

    def test_mean_transform_applied_to_predictions(self, monkeypatch):
        # The GP regresses log10 of the objectives, and the step maps the
        # posterior means back with 10**mean.
        targets = self.tight_fit(monkeypatch)
        pop = self.population([0.0, 0.0], [6.0, 6.0])
        self.step(2, pop, self.history([10.0, 100.0]))
        assert np.array_equal(targets[0], [[1.0, 2.0], [1.0, 2.0]])
        assert np.allclose(pop[0].objectives, [10.0, 100.0], rtol=1e-3)


class TestRunTraining:
    def test_baseline_evaluates_everything(self, tmp_path):
        # Every candidate gets a true outcome, and the evaluator is called
        # once per distinct key; only those calls cost anything.
        cfg = load_run_config(write_config(tmp_path,
                                           surrogate_enabled=False))
        before = ev.expensive_call_count()
        db, metrics = run_training(cfg)
        calls = ev.expensive_call_count() - before
        assert all(r.provenance in ("expensive", "cache") for r in db.records)
        # mu in generation 0, lambda offspring per later generation.
        assert len(db.records) == 12 + 6 * 3
        distinct = {r.keys for r in db.records}
        assert len(distinct) < len(db.records)  # some keys repeat
        assert calls == metrics.total_expensive == len(distinct)
        assert all(r.wall_time == float(r.provenance == "expensive")
                   for r in db.records)

    def test_wide_constants_keep_every_embedding_coordinate(self, tmp_path):
        # Constants near 1e150 spread generation 0's embeddings past 1e154,
        # where the plain std overflows (a RuntimeWarning, an error in this
        # suite) and normalization would map the coordinate to 0 all run.
        cfg = load_run_config(write_config(tmp_path, gep={
            "head_len": 4, "n_constants": 2, "const_range": [1e150, 1e151]}))
        db, _ = run_training(cfg)
        stats = orch._gen0_norm_stats(
            [r.embedding for r in db.records if r.generation == 0])
        assert np.all(np.isfinite(stats.std)) and np.all(stats.std > 0.0)

    def test_key_and_embedding_share_one_polynomial_per_slot(
            self, tmp_path, monkeypatch):
        cfg = load_run_config(write_config(tmp_path))
        roots, expanded, keyed, embedded, evaluated = {}, [], [], [], []
        decode, expand = symreg.decode, symreg.tree_polynomial
        key, embed = symreg.canonical_key, orch.emb_mod.embed
        evaluate = ev.SymbolicBenchmark.evaluate

        def decode_spy(genotype):
            tree = decode(genotype)
            roots[id(tree)] = tree
            return tree

        def expand_spy(tree):
            if id(tree) in roots:
                expanded.append(id(tree))
            return expand(tree)

        def key_spy(poly):
            keyed.append(poly)
            return key(poly)

        def embed_spy(polys, table):
            embedded.extend(poly for slots in polys for poly in slots)
            return embed(polys, table)

        def evaluate_spy(self, slots):
            evaluated.extend(slots)
            return evaluate(self, slots)

        monkeypatch.setattr(symreg, "decode", decode_spy)
        monkeypatch.setattr(symreg, "tree_polynomial", expand_spy)
        monkeypatch.setattr(ev, "tree_polynomial", expand_spy)
        monkeypatch.setattr(symreg, "canonical_key", key_spy)
        monkeypatch.setattr(orch.emb_mod, "embed", embed_spy)
        monkeypatch.setattr(ev.SymbolicBenchmark, "evaluate", evaluate_spy)
        run_training(cfg)
        # Each decoded tree is expanded once, by the generation step or by
        # the evaluator alike, and that polynomial is keyed, embedded and
        # handed to the evaluator.
        assert len(roots) == (12 + 6 * 3) * 2
        assert sorted(expanded) == sorted(roots)
        assert all(isinstance(poly, dict) for poly in keyed)
        assert list(map(id, keyed)) == list(map(id, embedded))
        assert evaluated
        assert {id(poly) for poly in evaluated} <= set(map(id, keyed))

    def test_baseline_is_deterministic(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path,
                                           surrogate_enabled=False))
        db_a, _ = run_training(cfg)
        db_b, _ = run_training(cfg)
        assert [r.to_json() for r in db_a.records] == [r.to_json()
                                                       for r in db_b.records]

    def test_surrogate_run_saves_evaluations(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path))
        db, metrics = run_training(cfg)
        by_gen = db.by_generation()
        gen0 = by_gen[0]
        assert all(r.provenance in ("expensive", "cache") for r in gen0)
        assert len(gen0) == 12
        for gen in range(2, 4):
            expensive = [r for r in by_gen[gen]
                         if r.provenance == "expensive"]
            assert len(expensive) <= 1  # m_fixed=1 under default settings
        assert metrics.total_expensive < 12 + 6 * 3
        assert {r.provenance for r in db.records} == {"expensive", "cache",
                                                      "surrogate"}

    def test_surrogate_rows_cost_nothing(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path))
        db, _ = run_training(cfg)
        for rec in db.records:
            if rec.provenance == "surrogate":
                assert rec.wall_time == 0.0
                assert rec.converged
                assert np.all(np.isfinite(rec.objectives))
            else:
                assert rec.wall_time == float(rec.provenance == "expensive")

    def test_same_seed_shares_generation_zero(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path))
        base = dataclasses.replace(cfg, surrogate_enabled=False)
        db_s, _ = run_training(cfg)
        db_b, _ = run_training(base)
        gen0_s = [r for r in db_s.records if r.generation == 0]
        gen0_b = [r for r in db_b.records if r.generation == 0]
        assert [r.keys for r in gen0_s] == [r.keys for r in gen0_b]
        assert [r.objectives for r in gen0_s] == [r.objectives
                                                  for r in gen0_b]

    def test_metrics_derive_from_records(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path))
        db, metrics = run_training(cfg)
        rebuilt = metrics_from_records(db.records)
        assert rebuilt.rows == metrics.rows
        assert rebuilt.final_selection_ratio == metrics.final_selection_ratio

    def test_metrics_shape(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path))
        _, metrics = run_training(cfg)
        assert len(metrics.rows) == 4
        cums = [row.expensive_cumulative for row in metrics.rows]
        assert cums == sorted(cums)
        assert 0.0 < metrics.final_selection_ratio <= 1.0

    def test_seed_changes_outcomes(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path))
        db_a, _ = run_training(cfg)
        db_b, _ = run_training(dataclasses.replace(cfg, seed=1))
        a = [r.to_json() for r in db_a.records]
        b = [r.to_json() for r in db_b.records]
        assert a != b

    @pytest.mark.parametrize("name, generations", [("channel_run", 2),
                                                   ("symbolic_quadratic", 8)])
    def test_stored_keys_reproduce_objectives(self, name, generations):
        # An outcome is a function of the phenotype keys alone: evaluating
        # the parsed keys gives the stored objectives.
        cfg = dataclasses.replace(load_run_config(CONFIGS / f"{name}.json"),
                                  surrogate_enabled=False,
                                  generations=generations)
        db, _ = run_training(cfg)
        evaluator = orch.build_evaluator(cfg.evaluator)
        outcomes = {}
        for rec in db.records:
            if not rec.converged:
                continue
            if rec.keys not in outcomes:
                outcomes[rec.keys] = evaluator.evaluate(
                    [parse_expression(key) for key in rec.keys])
            assert outcomes[rec.keys].converged
            assert tuple(outcomes[rec.keys].objectives) == rec.objectives


class TestOutcomeCache:
    """A phenotype's outcome is computed once per run; later candidates with
    its keys reuse it as "cache" records."""

    @pytest.mark.parametrize("surrogate_enabled", [True, False])
    @pytest.mark.parametrize("name", ["channel_run", "symbolic_quadratic"])
    def test_evaluator_called_once_per_distinct_key(self, name,
                                                    surrogate_enabled):
        cfg = dataclasses.replace(load_run_config(CONFIGS / f"{name}.json"),
                                  surrogate_enabled=surrogate_enabled,
                                  generations=3)
        before = ev.expensive_call_count()
        db, metrics = run_training(cfg)
        calls = ev.expensive_call_count() - before
        true = [r for r in db.records if r.provenance != "surrogate"]
        assert calls == len({r.keys for r in true}) == metrics.total_expensive
        first: dict = {}
        for rec in true:
            if rec.keys not in first:
                assert rec.provenance == "expensive"
                first[rec.keys] = rec
                continue
            assert rec.provenance == "cache"
            assert rec.wall_time == 0.0
            assert rec.objectives == first[rec.keys].objectives
            assert rec.converged == first[rec.keys].converged
        assert len(first) < len(true)  # the cache was used

    @pytest.mark.parametrize("mode", ["training", "replay"])
    def test_one_outcome_and_one_gp_row_per_phenotype(self, monkeypatch,
                                                      mode):
        # A surrogate run, and the replay of its config's baseline database:
        # each phenotype has one "expensive" record, every "cache" record
        # repeats it, and the GP history holds one row per converged one.
        cfg = dataclasses.replace(
            load_run_config(CONFIGS / "symbolic_quadratic.json"),
            generations=4)
        if mode == "replay":
            db, _ = run_training(dataclasses.replace(cfg,
                                                     surrogate_enabled=False))
        steps = []
        step = orch._generation_step

        def spy(gen, current, norm_stats, history, *rest):
            records = step(gen, current, norm_stats, history, *rest)
            steps.append((records, history.converged_points.shape[0]))
            return records

        monkeypatch.setattr(orch, "_generation_step", spy)
        if mode == "training":
            run_training(cfg)
        else:
            passive_replay(db, cfg)
        assert len(steps) == cfg.generations
        evaluated: dict = {}
        for records, gp_rows in steps:
            for rec in records:
                if rec.provenance == "expensive":
                    assert rec.keys not in evaluated
                    evaluated[rec.keys] = rec
            for rec in records:
                if rec.provenance == "cache":
                    first = evaluated[rec.keys]
                    assert rec.objectives == first.objectives
                    assert rec.converged == first.converged
            assert gp_rows == sum(r.converged for r in evaluated.values())
        later = [r for records, _ in steps[1:] for r in records]
        assert {r.provenance for r in later} == {"expensive", "cache",
                                                 "surrogate"}


class TestSearchGrowth:
    """Each generation's GP comes from `fit_multi`, which searches the
    hyperparameters (a `fit` from `restarts` cold starts) only when there is
    no usable last fit or the history has grown to SEARCH_GROWTH times the
    rows of the last search, and otherwise refits with the kept kernel."""

    # Seed 1 at five generations searches at n = 11 and n = 15, then keeps
    # that kernel at n = 16 and 17, in training and in replay alike.
    GROWS = dict(seed=1, generations=5)

    def run(self, tmp_path, mode, **overrides):
        cfg = load_run_config(write_config(
            tmp_path, surrogate_enabled=mode == "training", **overrides))
        if mode == "training":
            return cfg, run_training(cfg)[0]
        db, _ = run_training(cfg)
        cfg = dataclasses.replace(cfg, surrogate_enabled=True)
        passive_replay(db, cfg)
        return cfg, db

    def spy(self, monkeypatch, warn_first=False):
        """Log [n, searched restarts or None, the fit's searched_n] per
        fit_multi call; with warn_first, the first search falls back."""
        calls = []
        fit, fit_multi = orch.sur_mod.fit, orch.sur_mod.fit_multi

        def fit_spy(X, Y, restarts, rng):
            calls[-1][1] = restarts
            model = fit(X, Y, restarts=restarts, rng=rng)
            if warn_first and sum(c[1] is not None for c in calls) == 1:
                model = dataclasses.replace(model, warned=True)
            return model

        def fit_multi_spy(X, Y, **kwargs):
            calls.append([len(X), None, None])
            model = fit_multi(X, Y, **kwargs)
            calls[-1][2] = model.searched_n
            return model

        monkeypatch.setattr(orch.sur_mod, "fit", fit_spy)
        monkeypatch.setattr(orch.sur_mod, "fit_multi", fit_multi_spy)
        return calls

    @pytest.mark.parametrize("mode", ["training", "replay"])
    @pytest.mark.parametrize("restarts", [8, 3])
    def test_searches_exactly_on_growth(self, tmp_path, monkeypatch, mode,
                                        restarts):
        calls = self.spy(monkeypatch)
        cfg, _ = self.run(tmp_path, mode, surrogate={"restarts": restarts},
                          **self.GROWS)
        assert len(calls) == cfg.generations - 1
        searched_n = None
        for n, searched_restarts, model_searched_n in calls:
            search = (searched_n is None
                      or n >= orch.sur_mod.SEARCH_GROWTH * searched_n)
            if search:
                searched_n = n
            assert searched_restarts == (restarts if search else None)
            assert model_searched_n == searched_n
        searches = sum(c[1] is not None for c in calls)
        assert searches == 2 and len(calls) - searches == 2

    @pytest.mark.parametrize("mode", ["training", "replay"])
    def test_fallback_fit_is_searched_again(self, tmp_path, monkeypatch,
                                            mode):
        # Seed 0 grows 12 -> 13 -> 13 rows: only the fallback forces the
        # second search, and the third generation keeps its kernel.
        calls = self.spy(monkeypatch, warn_first=True)
        self.run(tmp_path, mode)
        assert [c[:2] for c in calls] == [[12, 2], [13, 2], [13, None]]
        assert calls[2][2] == 13

    def test_same_seed_writes_identical_db(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, **self.GROWS))
        first = run_training(cfg)[0].write(tmp_path / "first.jsonl")
        second = run_training(cfg)[0].write(tmp_path / "second.jsonl")
        assert first.read_bytes() == second.read_bytes()


class TestPassiveReplay:
    def baseline_db(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path,
                                           surrogate_enabled=False))
        db, _ = run_training(cfg)
        return db, cfg

    def test_reveals_only_selected(self, tmp_path):
        db, cfg = self.baseline_db(tmp_path)
        replay_cfg = dataclasses.replace(cfg, surrogate_enabled=True)
        metrics = passive_replay(db, replay_cfg)
        assert metrics.total_expensive < len(db.records)
        assert metrics.final_selection_ratio == (metrics.total_expensive
                                                 / len(db.records))
        assert len(metrics.rows) == cfg.generations

    def test_never_calls_an_evaluator(self, tmp_path):
        db, cfg = self.baseline_db(tmp_path)
        before = ev.expensive_call_count()
        passive_replay(db, dataclasses.replace(cfg, surrogate_enabled=True))
        assert ev.expensive_call_count() == before

    def test_deterministic(self, tmp_path):
        db, cfg = self.baseline_db(tmp_path)
        replay_cfg = dataclasses.replace(cfg, surrogate_enabled=True)
        first = passive_replay(db, replay_cfg)
        second = passive_replay(db, replay_cfg)
        assert first.rows == second.rows
        assert first.final_relative_error == second.final_relative_error

    def test_rejects_surrogate_database(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path))
        db, _ = run_training(cfg)
        with pytest.raises(ReplayError, match="expensive"):
            passive_replay(db, cfg)

    def test_rejects_empty_database(self, tmp_path):
        _, cfg = self.baseline_db(tmp_path)
        with pytest.raises(ReplayError):
            passive_replay(EvaluationDatabase(), cfg)

    def test_relative_error_scores_hidden_truth_only(self, tmp_path,
                                                     monkeypatch):
        # The stored objectives of converged records replay does not read
        # are the truth of its relative error and feed nothing else.  Replay
        # reads a stored record only for an "expensive" replay record; a
        # "cache" one reuses the outcome read for its phenotype.
        db, cfg = self.baseline_db(tmp_path)
        replay_cfg = dataclasses.replace(cfg, surrogate_enabled=True)
        revealed = set()
        step = orch._generation_step

        def spy(*args):
            records = step(*args)
            revealed.update(r.id for r in records
                            if r.provenance == "expensive")
            return records

        monkeypatch.setattr(orch, "_generation_step", spy)
        first = passive_replay(db, replay_cfg)
        hidden = [r for r in db.records
                  if r.converged and r.id not in revealed]
        assert hidden
        scaled = EvaluationDatabase([
            dataclasses.replace(r, objectives=tuple(1.5 * v
                                                    for v in r.objectives))
            if r in hidden else r for r in db.records])
        second = passive_replay(scaled, replay_cfg)

        def shown(metrics):
            return [(row.expensive_cumulative, row.hypervolume,
                     row.selection_ratio, row.best_objectives)
                    for row in metrics.rows]

        assert shown(second) == shown(first)
        assert second.final_relative_error != first.final_relative_error

    def test_select_all_strategy_reveals_everything(self, tmp_path):
        # Every record is revealed; each distinct key once through the
        # stored outcome, each repeat from the cache, as in training.
        db, cfg = self.baseline_db(tmp_path)
        metrics = passive_replay(db, cfg)  # surrogate disabled: select all
        distinct = len({r.keys for r in db.records})
        assert metrics.total_expensive == distinct == sum(
            r.provenance == "expensive" for r in db.records)
        assert metrics.final_selection_ratio == distinct / len(db.records)

    @pytest.mark.parametrize("surrogate_enabled", [True, False])
    def test_cache_records_replay_without_evaluator_calls(
            self, tmp_path, surrogate_enabled):
        db, cfg = self.baseline_db(tmp_path)
        assert any(r.provenance == "cache" for r in db.records)
        before = ev.expensive_call_count()
        metrics = passive_replay(db, dataclasses.replace(
            cfg, surrogate_enabled=surrogate_enabled))
        assert ev.expensive_call_count() == before
        assert len(metrics.rows) == cfg.generations

    def test_rejects_a_surrogate_record(self, tmp_path):
        db, cfg = self.baseline_db(tmp_path)
        records = list(db.records)
        records[5] = dataclasses.replace(records[5], provenance="surrogate",
                                         wall_time=0.0)
        with pytest.raises(ReplayError, match="id 5 is 'surrogate'"):
            passive_replay(EvaluationDatabase(records), cfg)

    def test_select_all_replay_matches_stored_metrics(self, tmp_path):
        # Replay runs the training step; with the surrogate off it reveals
        # every record, so it must give the metrics the records give.
        db, cfg = self.baseline_db(tmp_path)
        replayed = passive_replay(db, cfg)
        stored = metrics_from_records(db.records)
        assert replayed.rows == stored.rows
        assert replayed.final_selection_ratio == stored.final_selection_ratio
        assert replayed.final_relative_error == stored.final_relative_error


class TestRunReference:
    """Every hypervolume of a run is measured against one reference, the
    componentwise max of its first generation's converged true outcomes."""

    @staticmethod
    def record(gen, rid, objectives, converged=True, provenance="expensive"):
        return EvaluationRecord(
            generation=gen, id=rid, keys=(f"k{gen}_{rid}",),
            embedding=(float(rid),), objectives=objectives,
            converged=converged, provenance=provenance,
            wall_time=float(provenance == "expensive"))

    @staticmethod
    def small_channel():
        return dataclasses.replace(
            load_run_config(CONFIGS / "channel_run.json"), generations=3,
            population=12, offspring=6)

    @pytest.mark.parametrize("surrogate_enabled", [True, False])
    def test_hypervolume_never_decreases(self, tmp_path, surrogate_enabled):
        for cfg in (load_run_config(write_config(tmp_path)),
                    self.small_channel()):
            _, metrics = run_training(dataclasses.replace(
                cfg, surrogate_enabled=surrogate_enabled))
            volumes = [row.hypervolume for row in metrics.rows]
            assert volumes == sorted(volumes)
            assert volumes[-1] > 0.0

    def test_baseline_and_surrogate_runs_share_it(self):
        cfg = self.small_channel()
        _, surrogate = run_training(cfg)
        db_b, baseline = run_training(
            dataclasses.replace(cfg, surrogate_enabled=False))
        assert len(surrogate.reference) == 2
        assert surrogate.reference == baseline.reference
        # It is the nadir of generation 0, which both runs evaluate alike.
        gen0 = [r.objectives for r in db_b.records
                if r.generation == 0 and r.converged]
        assert baseline.reference == tuple(np.max(gen0, axis=0))

    def test_report_and_replay_reproduce_it(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, surrogate_enabled=False))
        db, metrics = run_training(cfg)
        assert metrics_from_records(db.records).reference == metrics.reference
        for surrogate_enabled in (True, False):
            replayed = passive_replay(db, dataclasses.replace(
                cfg, surrogate_enabled=surrogate_enabled))
            assert replayed.reference == metrics.reference
        db_path = db.write(tmp_path / "db.jsonl")
        assert main(["report", "--db", str(db_path),
                     "--out", str(tmp_path / "rep")]) == 0
        summary = (tmp_path / "rep" / "summary.txt").read_text().splitlines()
        assert summary[-1] == f"reference: {list(metrics.reference)!r}"

    def test_rows_before_the_first_true_outcome(self):
        nan = float("nan")
        records = [
            self.record(0, 0, (9999.0, 9999.0), converged=False),
            self.record(0, 1, (0.5, 0.5), provenance="surrogate"),
            self.record(1, 2, (1.0, 3.0)),
            self.record(1, 3, (3.0, 1.0)),
            self.record(2, 4, (2.0, 2.0)),
            self.record(2, 5, (5.0, 0.5), provenance="cache"),
        ]
        metrics = metrics_from_records(records)
        first = metrics.rows[0]
        assert first.hypervolume == 0.0
        assert all(np.isnan(v) for v in first.best_objectives)
        # Fixed by generation 1 and kept: the point beyond it in generation
        # 2 adds no volume.
        assert metrics.reference == (3.0, 3.0)
        assert [row.hypervolume for row in metrics.rows] == [0.0, 0.0, 1.0]
        assert metrics.rows[2].best_objectives == (1.0, 0.5)


class TestCli:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert (out / "db.jsonl").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "summary.txt").exists()
        stdout = capsys.readouterr().out
        assert "expensive evaluations" in stdout

    def test_run_baseline_flag(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--baseline"]) == 0
        db = EvaluationDatabase.read(tmp_path / "out" / "db.jsonl")
        assert all(r.provenance in ("expensive", "cache") for r in db.records)
        assert sum(r.provenance == "expensive" for r in db.records) == len(
            {r.keys for r in db.records})

    def test_run_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--seed", "5"]) == 0
        first = (tmp_path / "out" / "db.jsonl").read_bytes()
        assert main(["run", "--config", str(cfg_path), "--seed", "6"]) == 0
        assert (tmp_path / "out" / "db.jsonl").read_bytes() != first

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("overrides", [
        {"gep": {"operators": ["/"]}},
        {"gep": {"head_len": 0}},
        {"gep": {"const_range": [2, -2]}},
        {"gep": {"mutation_rate": 2}},
        {"evaluator": {"kind": "symbolic", "table": "features.csv",
                       "targets": ["I1/I2"]}},
        {"evaluator": {"kind": "symbolic", "table": "features.csv",
                       "targets": ["I1 + Q"]}},
        {"evaluator": {"kind": "symbolic", "table": "features.csv",
                       "targets": ["I1*I1 + True", "0.3 + I2"]}},
        {"evaluator": {"kind": "symbolic", "table": "features.csv",
                       "targets": TARGETS[:1], "slot_of_objective": [-1]}},
        {"evaluator": {"kind": "channel", "case": {"n_cells": 4}}},
        {"evaluator": {"kind": "channel", "case": {"bogus": 1}}},
        {"evaluator": {"kind": "channel", "case": {"truth": {
            "g": "-0.1 - I2", "alpha": "0.945 - 2.108*J1"}}}},
        {"evaluator": {"kind": "channel", "case": {"truth": {
            "g": "-0.1 - I1", "alpha": "False - 2.108*J1"}}}},
        # embedding is no field, whatever it holds.
        {"evaluator": {"kind": "channel"},
         "embedding": {"feature_table": "features.csv"}},
        # surrogate.bounds is no field, whatever it holds.
        {"surrogate": {"bounds": {"sigma": [0.001, float("inf")]}}},
        {"surrogate": {"bounds": {"ell": [1e-300, 1e-200]}}},
        # Truths that given reference profiles must not let past set-up.
        {"evaluator": {"kind": "channel", "case": {
            **GIVEN_PROFILES, "truth": {"g": "I1/2", "alpha": "0"}}}},
        {"evaluator": {"kind": "channel", "case": {
            **GIVEN_PROFILES, "truth": {"g": "K9", "alpha": "0"}}}},
        {"evaluator": {"kind": "channel", "case": {
            **GIVEN_PROFILES, "truth": {"g": "0", "alpha": "-1000"}}}},
    ], ids=["operator", "head_len", "const_range", "mutation_rate",
            "target_syntax", "target_column", "target_bool", "negative_slot",
            "case_n_cells", "case_field", "case_truth_feature",
            "case_truth_bool",
            "table_terminals", "bounds_infinite", "bounds_ell_underflow",
            "profiles_truth_syntax", "profiles_truth_feature",
            "profiles_truth_diverges"])
    def test_set_up_faults_are_config_errors(self, tmp_path, capsys,
                                             overrides):
        cfg_path = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_surrogate_bounds_is_an_unknown_field(self, tmp_path, capsys):
        path = write_config(tmp_path, surrogate={"bounds": {
            "ell": [0.01, 100.0]}})
        with pytest.raises(ConfigError,
                           match=r"unknown SurrogateSettings fields \['bounds'\]"):
            load_run_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("overrides, args", [
        ({"population": 6.5}, []),
        ({"offspring": True}, []),
        ({"gep": {"head_len": 2.5}}, []),
        ({"gep": {"n_constants": 1.5}}, []),
        ({"surrogate": {"restarts": 2.5}}, []),
        ({"surrogate": {"restarts": 0}}, []),
        ({"surrogate": {"restarts": -3}}, []),
        ({"evaluator": {"kind": "channel", "case": {"n_cells": 16.5}}}, []),
        ({"evaluator": {"kind": "channel", "case": {"max_iters": 10.5}}}, []),
        ({"seed": -1}, []),
        ({}, ["--seed", "-1"]),
    ], ids=["population", "offspring_bool", "head_len", "n_constants",
            "restarts_float", "restarts_zero", "restarts_negative",
            "case_n_cells", "case_max_iters", "seed", "seed_flag"])
    def test_ill_typed_or_negative_counts_are_config_errors(
            self, tmp_path, capsys, overrides, args):
        cfg_path = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg_path), *args]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("case", [
        {"wall_u": [0, 0, 0]}, {"wall_u": [0]}, {"wall_t": 0.5},
        {"nu": "1.0"}, {"coupling": True}, {"omega": float("inf")},
        {"tol": float("nan")}, [{"n_cells": 16}],
        {"n_cells": 16, "reference_u": [float("nan")] * 16,
         "reference_t": [0.0] * 16},
        {"n_cells": 16, "reference_u": ["1.0"] * 16,
         "reference_t": [0.0] * 16},
        {"n_cells": 16, "reference_u": [0.0] * 16},
    ], ids=["wall_triple", "wall_single", "wall_number", "nu_string",
            "coupling_bool", "omega_infinite", "tol_nan", "array",
            "reference_nan", "reference_strings", "reference_u_only"])
    def test_ill_typed_channel_case_file_is_config_error(
            self, tmp_path, capsys, case):
        (tmp_path / "case.json").write_text(json.dumps(case))
        cfg_path = write_config(tmp_path, evaluator={"kind": "channel",
                                                     "case": "case.json"})
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("truth", [["g"], 5, "abc"],
                             ids=["list", "number", "string"])
    def test_channel_truth_must_be_an_object(self, tmp_path, capsys, truth):
        (tmp_path / "case.json").write_text(json.dumps({"truth": truth}))
        cfg_path = write_config(tmp_path, evaluator={"kind": "channel",
                                                     "case": "case.json"})
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: truth must be an object, got ")

    def test_replay_round_trip(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--baseline"]) == 0
        db_path = tmp_path / "out" / "db.jsonl"
        assert main(["replay", "--db", str(db_path),
                     "--config", str(cfg_path)]) == 0
        assert "revealed expensive records" in capsys.readouterr().out

    def test_replay_on_surrogate_db_is_runtime_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        db_path = tmp_path / "out" / "db.jsonl"
        assert main(["replay", "--db", str(db_path),
                     "--config", str(cfg_path)]) == 2

    @pytest.mark.filterwarnings("ignore:GP hyperparameter search failed")
    def test_failed_factorization_is_runtime_error(self, tmp_path, capsys,
                                                   monkeypatch):
        # A kernel matrix LAPACK cannot factor is a fault found in the run.
        monkeypatch.setattr(surrogate.lapack, "dpotrf",
                            lambda a, **kwargs: (a, 1))
        cfg_path = write_config(tmp_path, generations=3)
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: kernel matrix not positive definite")

    def test_report_from_database(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        db_path = tmp_path / "out" / "db.jsonl"
        assert main(["report", "--db", str(db_path),
                     "--out", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "metrics.csv").exists()
        assert (tmp_path / "rep" / "summary.txt").exists()


@pytest.mark.parametrize("name", ["channel_run", "symbolic_quadratic"])
def test_shipped_runs_factor_on_the_first_attempt(monkeypatch, name):
    # K + tau I is positive definite in exact arithmetic, and the GP makes
    # one Cholesky attempt on it.  A kernel or embedding change that makes
    # a shipped run's matrix numerically indefinite shows here, not as a
    # failed evaluation scored 1e25 inside the search.
    infos = []
    dpotrf = surrogate.lapack.dpotrf

    def recorded(*args, **kwargs):
        L, info = dpotrf(*args, **kwargs)
        infos.append(info)
        return L, info

    monkeypatch.setattr(surrogate.lapack, "dpotrf", recorded)
    config = dataclasses.replace(
        load_run_config(CONFIGS / f"{name}.json"), seed=0,
        surrogate_enabled=True)
    run_training(config)
    baseline, _ = run_training(dataclasses.replace(
        config, surrogate_enabled=False))
    training = len(infos)
    passive_replay(baseline, config)
    assert 0 < training < len(infos)
    assert set(infos) == {0}
