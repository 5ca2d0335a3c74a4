"""Weighted (tensor) observables, quadratics among them, against brute-force
loop oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rmsde.dynamics import IntegratorConfig, ParameterError, SystemParams, simulate
from rmsde.observables import (BuildingBlock, ObservableError, TensorObservable,
                               autocorrelation, block_values, eval_tensor,
                               grad_sq_density, hamiltonian_density)
from rmsde.rng import PURPOSE_NOISE, RngStream

ONE, X, G, M = (BuildingBlock.ONE, BuildingBlock.X, BuildingBlock.G,
                BuildingBlock.M)


def make_traj(n=4, seed=0, sigma0=0.6, horizon=0.4, dt=0.05):
    rng = np.random.default_rng(seed)
    j = rng.standard_normal((n, n)) / math.sqrt(n)
    lam = np.diag(-rng.uniform(0.5, 1.5, size=n))
    sigma = np.zeros((n + 1, n))
    sigma[0] = sigma0
    params = SystemParams(j, lam, rng.uniform(-1, 1, size=n), sigma)
    cfg = IntegratorConfig.every_step(dt, horizon)
    x0 = rng.uniform(-1, 1, size=n)
    return simulate(params, x0, cfg, RngStream(seed, 0, PURPOSE_NOISE))


def brute_block(traj, block, i, t):
    """Loop-level definition of a single block coordinate (1-based i)."""
    row = traj.config.row(t)
    if block is ONE:
        return 1.0
    if block is X:
        return float(traj.x[row, i - 1])
    if block is M:
        return float(traj.m[row, i - 1])
    j = traj.coupling
    return float(sum(traj.x[row, k] * j[k, i - 1] for k in range(traj.x.shape[1])))


# ---------------------------------------------------------------- blocks

def test_block_values_against_loops():
    traj = make_traj()
    n = traj.x.shape[1]
    for block in BuildingBlock:
        for t in (0.0, 0.2, 0.4):
            vals = block_values(traj, block, t)
            for i in range(1, n + 1):
                assert vals[i - 1] == pytest.approx(brute_block(traj, block, i, t),
                                                    rel=1e-13, abs=1e-13)


def test_field_block_hand_case():
    # J feeds coordinate 1 into the field of coordinate 2 only
    params = SystemParams(np.array([[0.0, 1.0], [0.0, 0.0]]) / math.sqrt(2.0),
                          np.zeros((2, 2)), np.zeros(2), np.zeros((3, 2)))
    cfg = IntegratorConfig(0.1, 0.0, (0.0,))
    traj = simulate(params, np.array([1.0, 1.0]), cfg, RngStream(0))
    assert np.allclose(block_values(traj, G, 0.0),
                       [0.0, 1.0 / math.sqrt(2.0)], atol=1e-15)


def test_martingale_block_is_zero_at_start():
    traj = make_traj()
    assert np.all(block_values(traj, M, 0.0) == 0.0)


def test_block_from_name():
    assert BuildingBlock.from_name("x") is X
    assert BuildingBlock.from_name(" ONE ") is ONE
    assert BuildingBlock.from_name("g") is G
    assert BuildingBlock.from_name("M") is M
    with pytest.raises(ObservableError, match="q"):
        BuildingBlock.from_name("q")


def test_off_grid_time_rejected():
    traj = make_traj()
    with pytest.raises(ParameterError, match="not on the step grid"):
        block_values(traj, X, 0.123)


# ------------------------------------------------------------- quadratics

def quadratic(a, y, y2, t, t2):
    """``(1/N) sum_i a_i Y_i(t) Y'_i(t2)``: the arity-1 tensor over two times."""
    return TensorObservable(((y, y2),), (t, t2), a)


def brute_quadratic(traj, obs):
    (y, y2), (t, t2) = obs.blocks[0], obs.times
    n = traj.x.shape[1]
    total = 0.0
    for i in range(1, n + 1):
        total += (obs.a[i - 1] * brute_block(traj, y, i, t)
                  * brute_block(traj, y2, i, t2))
    return total / n


@pytest.mark.parametrize("y,y2", [(X, X), (X, M), (G, X), (M, M), (ONE, G)])
def test_quadratic_against_loop_oracle(y, y2):
    traj = make_traj(n=5, seed=3)
    a = np.random.default_rng(1).uniform(-1, 1, size=5)
    obs = quadratic(a, y, y2, 0.2, 0.4)
    assert eval_tensor(traj, obs) == pytest.approx(brute_quadratic(traj, obs),
                                                   rel=1e-12, abs=1e-14)


def test_quadratic_weight_validation():
    with pytest.raises(ObservableError, match="non-empty"):
        quadratic(np.array([]), X, X, 0.0, 0.0)
    with pytest.raises(ObservableError, match="finite"):
        quadratic(np.array([np.nan]), X, X, 0.0, 0.0)


def test_quadratic_dimension_mismatch():
    traj = make_traj(n=4)
    obs = quadratic(np.ones(3), X, X, 0.0, 0.0)
    with pytest.raises(ObservableError, match="dimension"):
        eval_tensor(traj, obs)


def test_autocorrelation_is_weighted_quadratic():
    traj = make_traj(n=6, seed=8)
    n = 6
    obs = quadratic(np.ones(n), X, X, 0.1, 0.3)
    assert autocorrelation(traj, 0.1, 0.3) == pytest.approx(
        eval_tensor(traj, obs), rel=1e-14)
    assert autocorrelation(traj, 0.1, 0.3) == autocorrelation(traj, 0.3, 0.1)
    assert autocorrelation(traj, 0.2, 0.2) >= 0.0


def test_hamiltonian_density_hand_case():
    params = SystemParams(np.array([[0.0, 1.0], [0.0, 0.0]]) / math.sqrt(2.0),
                          np.zeros((2, 2)), np.zeros(2), np.zeros((3, 2)))
    cfg = IntegratorConfig(0.1, 0.0, (0.0,))
    traj = simulate(params, np.array([1.0, 1.0]), cfg, RngStream(0))
    # x.(Jx) = x1 J12 x2 = 1/sqrt(2); density divides by N = 2
    assert hamiltonian_density(traj, 0.0) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))


def test_grad_sq_density_is_mean_square_field():
    traj = make_traj(n=5, seed=11)
    g = block_values(traj, G, 0.2)
    assert grad_sq_density(traj, 0.2) == pytest.approx(float(g @ g) / 5, rel=1e-13)


def test_grad_sq_vs_quadratic_form():
    traj = make_traj(n=5, seed=12)
    obs = quadratic(np.ones(5), G, G, 0.2, 0.2)
    assert grad_sq_density(traj, 0.2) == pytest.approx(eval_tensor(traj, obs),
                                                       rel=1e-13)


# ---------------------------------------------------------------- tensors

def brute_tensor_dense(traj, obs):
    n = traj.x.shape[1]
    m = obs.arity
    total = 0.0
    for idx in np.ndindex(*(n,) * m):
        term = float(obs.a[idx])
        for axis, i in enumerate(idx):
            for block, t in zip(obs.blocks[axis], obs.times):
                term *= brute_block(traj, block, i + 1, t)
        total += term
    return total / n ** m


def test_tensor_arity1_matches_quadratic():
    # 1.0 * X(t) is exact, so the tensor path forms the quadratic's own
    # product X(t) * M(t2) and the same a @ v: the bytes match, not just the value
    traj = make_traj(n=4, seed=5)
    a = np.random.default_rng(2).uniform(-1, 1, size=4)
    tens = TensorObservable(blocks=((X, M),), times=(0.1, 0.3), a=a)
    v = block_values(traj, X, 0.1) * block_values(traj, M, 0.3)
    assert eval_tensor(traj, tens) == float(a @ v) / 4


def test_tensor_arity2_against_loops():
    traj = make_traj(n=3, seed=6)
    a = np.random.default_rng(3).uniform(-1, 1, size=(3, 3))
    obs = TensorObservable(blocks=((X, ONE), (G, X)), times=(0.0, 0.2), a=a)
    assert eval_tensor(traj, obs) == pytest.approx(brute_tensor_dense(traj, obs),
                                                   rel=1e-12, abs=1e-14)


def test_tensor_arity3_against_loops():
    traj = make_traj(n=3, seed=7)
    a = np.random.default_rng(4).uniform(-1, 1, size=(3, 3, 3))
    obs = TensorObservable(blocks=((X,), (X,), (M,)), times=(0.4,), a=a)
    assert eval_tensor(traj, obs) == pytest.approx(brute_tensor_dense(traj, obs),
                                                   rel=1e-12, abs=1e-14)


def test_tensor_validation():
    with pytest.raises(ObservableError, match="at least one"):
        TensorObservable(blocks=(), times=(), a=np.zeros(()))
    with pytest.raises(ObservableError, match="per time"):
        TensorObservable(blocks=((X, X), (X,)), times=(0.0, 0.1), a=np.zeros((2, 2)))
    with pytest.raises(ObservableError, match="building block"):
        TensorObservable(blocks=(("x",),), times=(0.0,), a=np.zeros(2))
    with pytest.raises(ObservableError, match="arity"):
        TensorObservable(blocks=((X,),), times=(0.0,), a=np.zeros((2, 2)))
    with pytest.raises(ObservableError, match="arity 3"):
        TensorObservable(blocks=((X,),) * 4, times=(0.0,), a=np.zeros((2,) * 4))


def test_tensor_dense_shape_checked_at_eval():
    traj = make_traj(n=3, seed=16)
    obs = TensorObservable(blocks=((X,),), times=(0.0,), a=np.ones(4))
    with pytest.raises(ObservableError, match="shape"):
        eval_tensor(traj, obs)


@given(seed=st.integers(0, 2**32), arity=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_tensor_matches_loops_property(seed, arity):
    traj = make_traj(n=3, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(3,) * arity)
    rows = tuple(tuple(rng.choice(list(BuildingBlock)) for _ in range(2))
                 for _ in range(arity))
    obs = TensorObservable(blocks=rows, times=(0.0, 0.2), a=a)
    assert eval_tensor(traj, obs) == pytest.approx(brute_tensor_dense(traj, obs),
                                                   rel=1e-11, abs=1e-13)

