"""sagep.lapack: scipy's compiled LAPACK routines without scipy.linalg, bit
for bit the ones scipy.linalg calls, and the checks of solve_triangular
kept where the surrogate calls dtrtrs itself."""

import importlib
import re

import numpy as np
import pytest
import scipy
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lapack as scipy_lapack
from scipy.linalg import solve_triangular

from sagep import evaluators, lapack
from sagep.surrogate import (KernelParams, build_gp, predict_multi_batch,
                             rq_gram)

seeds = st.integers(0, 2 ** 32 - 1)


def same_bits(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def spd(rng, n):
    M = rng.normal(size=(n, n))
    return M @ M.T + n * np.eye(n)


def reference_predict(model, Xq):
    """predict_multi_batch with the triangular solve through scipy's
    checked solve_triangular."""
    K_star = rq_gram(model.X, Xq, model.kernel)
    v = solve_triangular(model.L, K_star, lower=True)
    var = 1.0 + model.kernel.noise - np.einsum("ij,ij->j", v, v)
    return (K_star.T @ model.weights,
            np.maximum(var, 0.0)[:, None] * model.sigmas ** 2)


def random_model(seed, n, p, d):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = rng.normal(size=(n, p))
    kernel = KernelParams(ell=float(rng.uniform(0.3, 3.0)),
                          alpha=float(rng.uniform(0.5, 10.0)),
                          noise=float(10 ** rng.uniform(-6, -1)))
    return build_gp(X, Y, kernel, rng.uniform(0.5, 2.0, p)), rng


@given(seeds, st.integers(2, 40), st.integers(1, 3))
def test_dgtsv_equals_scipys_bitwise(seed, n, nrhs):
    rng = np.random.default_rng(seed)
    dl, du = rng.normal(size=(2, n - 1))
    d = (np.abs(np.r_[0.0, dl]) + np.abs(np.r_[du, 0.0])
         + rng.uniform(0.1, 2.0, n)) * rng.choice([-1.0, 1.0], n)
    b = rng.normal(size=(n, nrhs))
    got = lapack.dgtsv(dl, d, du, b)
    same_bits(got, scipy_lapack.dgtsv(dl, d, du, b))
    assert got[-1] == 0


@given(seeds, st.integers(1, 30), st.integers(1, 3))
def test_dpotrf_and_dpotrs_equal_scipys_bitwise(seed, n, p):
    rng = np.random.default_rng(seed)
    A = spd(rng, n)
    B = rng.normal(size=(n, p))
    got = lapack.dpotrf(A, lower=1, clean=1)
    same_bits(got, scipy_lapack.dpotrf(A, lower=1, clean=1))
    assert got[1] == 0
    same_bits(lapack.dpotrs(got[0], B, lower=1),
              scipy_lapack.dpotrs(got[0], B, lower=1))


@given(seeds, st.integers(1, 30), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 12))
def test_prediction_solve_equals_solve_triangular_bitwise(seed, n, p, d, q):
    model, rng = random_model(seed, n, p, d)
    assert model.L.flags.f_contiguous
    Xq = rng.normal(size=(q, d))
    same_bits(predict_multi_batch(model, Xq), reference_predict(model, Xq))


def test_nan_query_raises_value_error():
    model, _ = random_model(0, 8, 2, 3)
    Xq = np.zeros((2, 3))
    Xq[1, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        predict_multi_batch(model, Xq)


def test_empty_query_gives_empty_predictions():
    model, _ = random_model(1, 8, 2, 3)
    mean, var = predict_multi_batch(model, np.zeros((0, 3)))
    assert mean.shape == var.shape == (0, 2)


def test_linalg_error_is_scipys():
    assert evaluators.LinAlgError is scipy.linalg.LinAlgError


def test_missing_extension_names_the_searched_directories(monkeypatch,
                                                          tmp_path):
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(f"{tmp_path}/linalg")):
        importlib.reload(lapack)
    monkeypatch.undo()
    importlib.reload(lapack)
    A = spd(np.random.default_rng(0), 5)
    same_bits(lapack.dpotrf(A, lower=1), scipy_lapack.dpotrf(A, lower=1))
