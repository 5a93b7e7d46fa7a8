"""Acceptance battery.

Each test prints exactly one `criterion <n>: PASS|FAIL (...)` line so the
battery's outcome can be read off the captured output, then asserts.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sagep.evaluators as ev
import sagep.orchestrator as orch
from sagep.embedding import FeatureTable, write_feature_table
from sagep.evaluators import (
    DIVERGENCE_SENTINEL,
    default_channel_case,
    solve_channel,
)
from sagep.metrics import (
    compare_coverage,
    emit_report,
    hypervolume,
    pareto_front,
)
from sagep.orchestrator import (
    EvaluationDatabase,
    EvaluatorSpec,
    RunConfig,
    SurrogateSettings,
    passive_replay,
    run_training,
)
from sagep.selection import (
    SelectionConfig,
    SelectionHistory,
    apply_thresholds,
    convergence_weights,
    ei,
    lcb,
)
from sagep.surrogate import (
    KernelParams,
    build_gp,
    log_marginal_likelihood,
    predict_multi_batch,
    rq_gram,
)
from sagep.symreg import (
    Genotype,
    canonical_key,
    decode,
    eval_tree,
    op_symbol,
    parse_expression,
    terminal,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. Genotype decoding worked example


def test_criterion_1_decoding_worked_example():
    I1, I2 = terminal("I1"), terminal("I2")
    MUL, ADD = op_symbol("*"), op_symbol("+")
    base = Genotype(symbols=(MUL, ADD, I1, I1, I2), head_len=2)
    edited = Genotype(symbols=(MUL, MUL, I1, I1, I2), head_len=2)

    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        sum_tree = decode(base)
        square_tree = decode(edited)
        best = min(best, time.perf_counter() - t0)

    row = {"I1": 2.0, "I2": 3.0}
    ok = (eval_tree(sum_tree, row) == 12.0
          and canonical_key(sum_tree) == "2.0*I1*I2"
          and eval_tree(square_tree, row) == 12.0
          and canonical_key(square_tree) == "I1*I1*I2"
          and eval_tree(square_tree, {"I1": 3.0, "I2": 1.0}) == 9.0
          and best < 1e-3)
    report(1, ok, f"decode worked example exact, {best * 1e6:.0f} us")
    assert ok


# ---------------------------------------------------------------------------
# 2. Gaussian process correctness


def test_criterion_2_gp_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)

    interp_ok = True
    for _ in range(5):
        X = rng.uniform(-2, 2, size=(6, 2))
        y = np.sin(X[:, 0]) - 0.5 * X[:, 1]
        model = build_gp(X, y, KernelParams(ell=1.0, alpha=2.0, noise=1e-8),
                         [1.5])
        mean, _ = predict_multi_batch(model, X)
        interp_ok &= bool(np.max(np.abs(mean[:, 0] - y)) < 1e-6)

    lml_ok = True
    for _ in range(20):
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        params = KernelParams(sigma=float(rng.uniform(0.2, 2.0)),
                              ell=float(rng.uniform(0.3, 2.0)),
                              alpha=float(rng.uniform(0.5, 5.0)),
                              noise=float(rng.uniform(1e-4, 1e-1)))
        K = rq_gram(X, X, params) + params.noise * np.eye(5)
        sign, logdet = np.linalg.slogdet(K)
        dense = (-0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet
                 - 2.5 * np.log(2 * np.pi))
        lml_ok &= bool(abs(log_marginal_likelihood(X, y, params) - dense)
                       < 1e-8)

    # The separable model against one joint system whose Gram matrix is
    # diag(B) (x) (RQ(ell, alpha; 1) + tau I), B_jj = sigma_j^2 (p = 2,
    # n = 4).
    X = rng.uniform(-1, 1, size=(4, 2))
    Y = np.column_stack([np.sin(X[:, 0]), np.cos(X[:, 1])])
    kernel = KernelParams(ell=0.7, alpha=1.5, noise=1e-4)
    sigmas = np.array([1.2, 0.9])
    multi = build_gp(X, Y, kernel, sigmas)
    Xq = rng.uniform(-1, 1, size=(6, 2))
    mean, var = predict_multi_batch(multi, Xq)
    n = 4
    joint_ok = True
    B = np.diag(sigmas ** 2)
    K = np.kron(B, rq_gram(X, X, kernel) + kernel.noise * np.eye(n))
    y_joint = np.concatenate([Y[:, 0], Y[:, 1]])
    for k in range(2):
        k_star = np.kron(B[:, [k]], rq_gram(X, Xq, kernel))
        mean_joint = k_star.T @ np.linalg.solve(K, y_joint)
        prior = B[k, k] * (1.0 + kernel.noise)
        var_joint = prior - np.einsum("ij,ij->j", k_star,
                                      np.linalg.solve(K, k_star))
        joint_ok &= bool(np.max(np.abs(mean[:, k] - mean_joint)) < 1e-10)
        joint_ok &= bool(np.max(np.abs(var[:, k] - var_joint)) < 1e-10)

    elapsed = time.perf_counter() - t0
    ok = interp_ok and lml_ok and joint_ok and elapsed < 5.0
    report(2, ok, f"interp<1e-6 lml<1e-8 joint<1e-10, {elapsed:.2f} s")
    assert ok


# ---------------------------------------------------------------------------
# 3. Acquisition correctness


def test_criterion_3_acquisition_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    draws = rng.normal(size=1_000_000)

    ei_ok = True
    f_best = 0.5
    for mu in np.linspace(-1.0, 1.0, 5):
        for sigma in np.linspace(0.5, 2.5, 5):
            mc = float(np.mean(np.maximum(0.0, f_best - (mu + sigma * draws))))
            ei_ok &= bool(abs(ei(mu, sigma, f_best) - mc) <= 0.02 * mc)

    lcb_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 50))
        means = rng.normal(size=n)
        stds = rng.uniform(0.1, 2.0, size=n)
        lcb_ok &= bool(np.argmax(lcb(means, stds, 0.0)) == np.argmin(means))

    conv = np.array([[1.0, 0.0]])
    div = np.array([[0.0, 0.0]])
    cw = [convergence_weights(np.array([x]), conv, div, 0.5)
          for x in ([0.6, 0.0], [0.2, 0.0], [0.0, 0.0])]
    cw_ok = (all(w.shape == (1,) for w in cw)
             and cw[0][0] == 1.0
             and cw[1][0] == pytest.approx(0.4, abs=1e-12)
             and cw[2][0] == 0.0)

    elapsed = time.perf_counter() - t0
    ok = ei_ok and lcb_ok and bool(cw_ok) and elapsed < 30.0
    report(3, ok, f"ei mc<2% lcb argmax cw boundary exact, {elapsed:.2f} s")
    assert ok


# ---------------------------------------------------------------------------
# 4. Hypervolume against a Monte Carlo dominated-area oracle


def test_criterion_4_hypervolume_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    ref = np.array([1.0, 1.0])
    ok = True
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 9))
        pts = rng.uniform(0.0, 0.7, size=(n, 2))
        exact = hypervolume(pts, ref)
        samples = rng.random((1_000_000, 2))
        dominated = np.zeros(len(samples), dtype=bool)
        for p in pts:
            dominated |= np.all(samples >= p, axis=1)
        mc = float(dominated.mean())
        rel = abs(exact - mc) / mc
        worst = max(worst, rel)
        ok &= rel <= 0.01
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(4, ok, f"10 fronts, worst rel err {worst:.4f}, {elapsed:.2f} s")
    assert ok


# ---------------------------------------------------------------------------
# 5. Threshold battery against brute force


def brute_thresholds(scalar, front, config):
    passing = [i for i in range(len(scalar))
               if (config.m_rel is None or scalar[i] >= config.m_rel)
               and (config.m_pareto is None or front[i] < config.m_pareto)]
    if config.m_fixed is not None:
        passing = sorted(passing,
                         key=lambda i: (-scalar[i], i))[:config.m_fixed]
    return sorted(passing)


def test_criterion_5_thresholds_exhaustive():
    paper_rule = SelectionConfig(m_fixed=10, m_rel=0.5)
    ok = True

    # Small populations: literally every scalar/front combination on a
    # coarse grid.
    levels = (0.0, 0.5, 1.0)
    for n in range(1, 5):
        for scalars in itertools.product(levels, repeat=n):
            for fronts in itertools.product((0, 1), repeat=n):
                scalar = np.asarray(scalars)
                front = np.asarray(fronts)
                got = apply_thresholds(scalar, front, paper_rule)
                ok &= got == brute_thresholds(scalar, front, paper_rule)

    # All sizes up to 12: randomized scalar vectors with heavy ties, random
    # front indices, and sampled threshold combinations.
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 5)
    for n in range(1, 13):
        for _ in range(200):
            scalar = rng.choice(grid, size=n)
            front = rng.integers(0, 4, size=n)
            configs = [paper_rule,
                       SelectionConfig(m_fixed=int(rng.integers(1, 13))),
                       SelectionConfig(m_rel=float(rng.choice(grid))),
                       SelectionConfig(m_pareto=int(rng.integers(1, 5))),
                       SelectionConfig(m_fixed=int(rng.integers(1, 13)),
                                       m_rel=float(rng.choice(grid)),
                                       m_pareto=int(rng.integers(1, 5)))]
            for config in configs:
                got = apply_thresholds(scalar, front, config)
                ok &= got == brute_thresholds(scalar, front, config)
                if config.m_fixed is not None:
                    ok &= len(got) <= config.m_fixed

    report(5, ok, "exhaustive small grids + randomized populations <= 12")
    assert ok


# ---------------------------------------------------------------------------
# 6. End-to-end efficiency on the default channel case


def expensive_front(db):
    pts = np.array([r.objectives for r in db.records
                    if r.converged and r.provenance == "expensive"])
    return pareto_front(pts)


def test_criterion_6_surrogate_efficiency():
    t0 = time.perf_counter()
    cov_ratios = []
    eval_ratios = []
    for seed in range(10):
        base = RunConfig(seed=seed, generations=12, population=96,
                         offspring=24, surrogate_enabled=False,
                         evaluator=EvaluatorSpec(kind="channel"))
        db_base, met_base = run_training(base)
        db_surr, met_surr = run_training(
            dataclasses.replace(base, surrogate_enabled=True))
        cov_base, cov_surr = compare_coverage([expensive_front(db_base),
                                               expensive_front(db_surr)])
        cov_ratios.append(cov_surr / cov_base if cov_base > 0 else np.nan)
        eval_ratios.append(met_surr.total_expensive
                           / met_base.total_expensive)
    elapsed = time.perf_counter() - t0
    med_cov = float(np.median(cov_ratios))
    med_eval = float(np.median(eval_ratios))
    ok = med_cov >= 0.95 and med_eval <= 0.70 and elapsed < 600.0
    report(6, ok, f"median coverage ratio {med_cov:.3f} >= 0.95, "
                  f"median eval ratio {med_eval:.3f} <= 0.70, "
                  f"{elapsed:.0f} s over 10 seeds")
    assert ok


# ---------------------------------------------------------------------------
# 7. Passive replay determinism


def test_criterion_7_replay_determinism(tmp_path):
    rng = np.random.default_rng(3)
    table = FeatureTable(columns={"I1": rng.uniform(0.2, 1.2, size=10),
                                  "I2": rng.uniform(-1.0, -0.2, size=10)})
    write_feature_table(table, tmp_path / "features.csv")
    config = RunConfig(seed=0, generations=4, population=12, offspring=6,
                       surrogate_enabled=False,
                       output_dir=str(tmp_path / "out"),
                       surrogate=SurrogateSettings(restarts=2),
                       evaluator=EvaluatorSpec(
                           kind="symbolic",
                           table=str(tmp_path / "features.csv"),
                           targets=("I1*I1 - 0.5*I2", "0.3 + I2")))
    db, _ = run_training(config)
    db_path = db.write(tmp_path / "db.jsonl")
    stored = EvaluationDatabase.read(db_path)

    replay_cfg = dataclasses.replace(config, surrogate_enabled=True)
    calls_before = ev.expensive_call_count()
    first = passive_replay(stored, replay_cfg)
    second = passive_replay(stored, replay_cfg)
    calls_after = ev.expensive_call_count()

    csv_a, sum_a = emit_report(first, tmp_path / "rep_a")
    csv_b, sum_b = emit_report(second, tmp_path / "rep_b")
    byte_identical = (csv_a.read_bytes() == csv_b.read_bytes()
                      and sum_a.read_bytes() == sum_b.read_bytes())
    no_calls = calls_after == calls_before
    partial = first.total_expensive < len(stored.records)
    ok = byte_identical and no_calls and partial
    report(7, ok, f"byte-identical metrics, evaluator calls {calls_after - calls_before}, "
                  f"revealed {first.total_expensive}/{len(stored.records)}")
    assert ok


# ---------------------------------------------------------------------------
# 8. Divergence sentinel handling


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-1000.0, max_value=-10.5))
def test_criterion_8_sentinel_property(alpha_const):
    case = default_channel_case()
    # alpha correction below -alpha_base/nut_max makes the effective thermal
    # diffusivity non-positive somewhere in the channel.
    out = solve_channel(case, parse_expression("0"), None,
                        parse_expression(repr(alpha_const)))
    assert not out.converged
    assert np.array_equal(out.objectives,
                          [DIVERGENCE_SENTINEL, DIVERGENCE_SENTINEL])

    history = SelectionHistory.empty(2, 2)
    history.add(np.array([0.0, 0.0]), ("good_a",), np.array([0.1, 0.2]),
                converged=True)
    history.add(np.array([1.0, 1.0]), ("good_b",), np.array([0.2, 0.1]),
                converged=True)
    history.add(np.array([2.0, 2.0]), ("diverged",), out.objectives,
                converged=False)
    model = orch._fit_surrogate(history, SurrogateSettings(restarts=1),
                                np.random.default_rng(0))
    assert model.n == 2
    assert float(np.max(model.Y[:, 0])) < np.log10(DIVERGENCE_SENTINEL)

    assert history.diverged_points.shape == (1, 2)
    near = np.array([2.05, 2.05])  # inside delta times the local separation
    weight = convergence_weights(near[None, :], history.converged_points,
                                 history.diverged_points, 0.75)
    assert weight.shape == (1,) and weight[0] < 1.0
    on_point = convergence_weights(np.array([[2.0, 2.0]]),
                                   history.converged_points,
                                   history.diverged_points, 0.75)
    assert on_point.shape == (1,) and on_point[0] == 0.0


def test_criterion_8_report():
    report(8, True, "sentinel exact, GP excludes diverged, neighbor weight < 1")
