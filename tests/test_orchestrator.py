"""End-to-end training loop, database, replay, and command-line interface."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import sagep.evaluators as ev
import sagep.orchestrator as orch
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
from sagep.surrogate import KernelParams, MultiGp, build_gp
from sagep.symreg import DIVERGENCE_SENTINEL, Candidate, parse_expression

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TARGETS = ["I1*I1 - 0.5*I2", "0.3 + I2"]


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
        sel = cfg.selection_config()
        assert sel.metric == "lcb"
        assert sel.n_init == 5
        assert sel.m_fixed == 1

    def test_selection_block_override(self, tmp_path):
        cfg = load_run_config(write_config(
            tmp_path, selection={"metric": "ei", "m_fixed": 2}))
        sel = cfg.selection_config()
        assert sel.metric == "ei"
        assert sel.m_fixed == 2
        assert sel.n_init == 5  # still scaled from the population

    def test_empty_selection_block_keeps_defaults(self, tmp_path):
        plain = load_run_config(write_config(tmp_path))
        empty = load_run_config(write_config(tmp_path, selection={}))
        assert empty.selection_config() == plain.selection_config()

    def test_partial_selection_block_keeps_other_defaults(self):
        # population omitted: the RunConfig default of 96 sets n_init.
        cfg = build_run_config({"selection": {"m_fixed": 1}})
        sel = cfg.selection_config()
        assert sel.n_init == 38
        assert sel.m_init_rel == 0.5
        assert sel == RunConfig().selection_config()

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
        path = db.write(tmp_path / "db.jsonl")
        back = EvaluationDatabase.read(path)
        assert back.records == db.records
        assert path.read_bytes() == db.write(tmp_path / "again.jsonl").read_bytes()

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
        return [Candidate(genotypes=(), generation=0, id=i,
                          phenotype_keys=(f"k{i}",),
                          embedding=np.asarray(e, dtype=float))
                for i, e in enumerate(embeddings)]

    def step(self, gen, pop, history, surrogate_enabled=True,
             log_error=False):
        config = RunConfig(
            surrogate_enabled=surrogate_enabled,
            surrogate=orch.SurrogateSettings(log_error=log_error),
            selection=SelectionConfig(metric="lcb", beta=50.0, m_fixed=1))
        calls = []

        def oracle(cand):
            calls.append(cand.id)
            return (0.1, 0.2), True

        selected, predicted = orch._generation_step(
            gen, pop, self.IDENTITY, history, config, 2,
            np.random.default_rng(0), np.random.default_rng(1), oracle)
        assert calls == selected
        return selected, predicted

    def tight_fit(self, monkeypatch):
        # A fixed-hyperparameter GP on the targets the step passes in.
        tight = KernelParams(sigma=1.0, ell=1.0, alpha=1.0, noise=1e-8)

        def fit_multi(X, Y, **_):
            return MultiGp(models=tuple(build_gp(X, Y[:, k], tight)
                                        for k in range(Y.shape[1])))

        monkeypatch.setattr(orch.sur_mod, "fit_multi", fit_multi)

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
            selected, predicted = self.step(gen, pop, history,
                                            surrogate_enabled)
            assert selected == [0, 1]
            assert predicted == {}
            assert [c.provenance for c in pop] == ["expensive", "expensive",
                                                  "surrogate"]
            assert np.array_equal(pop[2].objectives,
                                  [DIVERGENCE_SENTINEL, DIVERGENCE_SENTINEL])
            assert pop[2].converged is False
            assert history.evaluated_keys == {("k0",), ("k1",)}
            assert history.converged_objectives.tolist() == [[0.1, 0.2]] * 2

    def test_unselected_candidates_get_surrogate_predictions(self,
                                                             monkeypatch):
        self.tight_fit(monkeypatch)
        pop = self.population([0.0, 0.0], [7.0, 7.0], [np.inf, 0.0])
        selected, predicted = self.step(2, pop, self.history([1.0, 2.0]))
        assert selected == [1]
        filled = pop[0]
        assert filled.provenance == "surrogate"
        assert filled.converged is True
        assert np.allclose(filled.objectives, [1.0, 2.0], atol=1e-3)
        assert set(predicted) == {0, 1}
        assert np.array_equal(predicted[0], filled.objectives)
        assert pop[1].provenance == "expensive"
        assert pop[2].converged is False

    def test_mean_transform_applied_to_predictions(self, monkeypatch):
        # log_error: the GP regresses log10 of the objectives, and the step
        # maps the posterior means back with 10**mean.
        self.tight_fit(monkeypatch)
        pop = self.population([0.0, 0.0], [6.0, 6.0])
        self.step(2, pop, self.history([10.0, 10.0]), log_error=True)
        assert np.allclose(pop[0].objectives, [10.0, 10.0], rtol=1e-3)


class TestRunTraining:
    def test_baseline_evaluates_everything(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path,
                                           surrogate_enabled=False))
        db, metrics = run_training(cfg)
        assert all(r.provenance == "expensive" for r in db.records)
        # mu in generation 0, lambda offspring per later generation.
        assert len(db.records) == 12 + 6 * 3
        assert metrics.total_expensive == 12 + 6 * 3
        assert all(r.wall_time == 1.0 for r in db.records)

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
        assert all(r.provenance == "expensive" for r in gen0)
        assert len(gen0) == 12
        for gen in range(2, 4):
            expensive = [r for r in by_gen[gen]
                         if r.provenance == "expensive"]
            assert len(expensive) <= 1  # m_fixed=1 under default settings
        assert metrics.total_expensive < 12 + 6 * 3
        assert {r.provenance for r in db.records} <= {"expensive",
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
                assert rec.wall_time == 1.0

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

    def test_plain_error_regression_mode(self, tmp_path):
        cfg = load_run_config(write_config(
            tmp_path, surrogate={"restarts": 2, "log_error": False}))
        db, metrics = run_training(cfg)
        for rec in db.records:
            if rec.provenance == "surrogate":
                assert np.all(np.asarray(rec.objectives) >= 0.0)

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
        # the parsed keys without a pool gives the stored objectives.
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
                    [parse_expression(key) for key in rec.keys], None)
            assert outcomes[rec.keys].converged
            assert tuple(outcomes[rec.keys].objectives) == rec.objectives


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

    def test_select_all_strategy_reveals_everything(self, tmp_path):
        db, cfg = self.baseline_db(tmp_path)
        metrics = passive_replay(db, cfg)  # surrogate disabled: select all
        assert metrics.total_expensive == len(db.records)
        assert metrics.final_selection_ratio == 1.0

    def test_select_all_replay_matches_stored_metrics(self, tmp_path):
        # Replay runs the training step; with the surrogate off it reveals
        # every record, so it must give the metrics the records give.
        db, cfg = self.baseline_db(tmp_path)
        replayed = passive_replay(db, cfg)
        stored = metrics_from_records(db.records)
        assert replayed.rows == stored.rows
        assert replayed.final_selection_ratio == stored.final_selection_ratio
        assert replayed.final_relative_error == stored.final_relative_error


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
        assert all(r.provenance == "expensive" for r in db.records)

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
                       "targets": TARGETS[:1], "slot_of_objective": [-1]}},
        {"evaluator": {"kind": "channel", "case": {"n_cells": 4}}},
        {"evaluator": {"kind": "channel", "case": {"bogus": 1}}},
        {"evaluator": {"kind": "channel", "case": {"truth": {
            "g": "-0.1 - I2", "alpha": "0.945 - 2.108*J1"}}}},
        {"evaluator": {"kind": "channel"},
         "embedding": {"feature_table": "features.csv"}},  # lacks J1
    ], ids=["operator", "head_len", "const_range", "mutation_rate",
            "target_syntax", "target_column", "negative_slot",
            "case_n_cells", "case_field", "case_truth_feature",
            "table_terminals"])
    def test_set_up_faults_are_config_errors(self, tmp_path, capsys,
                                             overrides):
        cfg_path = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg_path)]) == 1
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

    def test_report_from_database(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        db_path = tmp_path / "out" / "db.jsonl"
        assert main(["report", "--db", str(db_path),
                     "--out", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "metrics.csv").exists()
        assert (tmp_path / "rep" / "summary.txt").exists()

    def test_hv_of_points_file(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("1.0,3.0\n2.0,2.0\n3.0,1.0\n")
        assert main(["hv", "--points", str(points)]) == 0
        out = capsys.readouterr().out
        assert "coverage: 0.25" in out

    def test_hv_missing_file(self, tmp_path):
        assert main(["hv", "--points", str(tmp_path / "nope.csv")]) == 1

    def test_hv_non_numeric_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["hv", "--points", str(bad)]) == 1
