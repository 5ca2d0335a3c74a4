"""Suite items (tensor observables, quadratics among them) against brute-force
loop oracles, and the block evaluator against the per-replica arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rmsde.dynamics import IntegratorConfig, ParameterError, SystemParams, simulate
from rmsde.experiments import autocorr_item, gradsq_item, hamiltonian_item, overlap_item
from rmsde.observables import (BuildingBlock, ObservableError, SuiteItem, _constant, _factor,
                               evaluate)
from rmsde.rng import PURPOSE_NOISE, RngStream

ONE, X, G, M, JX = (BuildingBlock.ONE, BuildingBlock.X, BuildingBlock.G,
                    BuildingBlock.M, BuildingBlock.JX)


def make_traj(n=4, seed=0, sigma0=0.6, horizon=0.4, dt=0.05):
    rng = np.random.default_rng(seed)
    j = rng.standard_normal((n, n)) / math.sqrt(n)
    lam = np.diag(-rng.uniform(0.5, 1.5, size=n))
    sigma = np.zeros((n + 1, n))
    sigma[0] = sigma0
    params = SystemParams(j, lam, rng.uniform(-1, 1, size=n), sigma)
    cfg = IntegratorConfig(dt, horizon, tuple(k * dt for k in range(round(horizon / dt) + 1)))
    x0 = rng.uniform(-1, 1, size=n)
    return simulate(params, x0, cfg, RngStream(seed, 0, PURPOSE_NOISE))


def value(traj, item):
    """``item`` on one path, evaluated as a block of one replica."""
    (v,) = evaluate(item, item.rows(traj.config), traj.x[None], traj.m[None],
                    traj.coupling[None])
    return float(v)


def block_values(traj, block, t):
    """All N coordinates of one block of one path at a recorded time."""
    row = traj.config.row(t)
    return _factor(block, row, traj.x[None], traj.m[None], traj.coupling[None])[0]


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
    if block is JX:
        return float(sum(j[i - 1, k] * traj.x[row, k] for k in range(traj.x.shape[1])))
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
    assert np.allclose(block_values(traj, JX, 0.0),
                       [1.0 / math.sqrt(2.0), 0.0], atol=1e-15)


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
    with pytest.raises(ObservableError, match="jx"):  # the built-in energy's factor only
        BuildingBlock.from_name("jx")


def test_off_grid_time_rejected():
    traj = make_traj()
    with pytest.raises(ParameterError, match="not on the step grid"):
        autocorr_item(0.0, 0.123).rows(traj.config)


# ------------------------------------------------------------- quadratics

def quadratic(a, y, y2, t, t2):
    """``(1/N) sum_i a_i Y_i(t) Y'_i(t2)``: the arity-1 tensor over two times."""
    return SuiteItem("quadratic", ((y, y2),), (t, t2), a)


def brute_quadratic(traj, obs):
    (y, y2), (t, t2) = obs.blocks[0], obs.times
    n = traj.x.shape[1]
    total = 0.0
    for i in range(1, n + 1):
        total += (obs.weights[i - 1] * brute_block(traj, y, i, t)
                  * brute_block(traj, y2, i, t2))
    return total / n


@pytest.mark.parametrize("y,y2", [(X, X), (X, M), (G, X), (M, M), (ONE, G)])
def test_quadratic_against_loop_oracle(y, y2):
    traj = make_traj(n=5, seed=3)
    a = np.random.default_rng(1).uniform(-1, 1, size=5)
    obs = quadratic(a, y, y2, 0.2, 0.4)
    assert value(traj, obs) == pytest.approx(brute_quadratic(traj, obs),
                                             rel=1e-12, abs=1e-14)


def test_quadratic_weight_validation():
    with pytest.raises(ObservableError, match="non-empty"):
        quadratic(np.array([]), X, X, 0.0, 0.0)
    with pytest.raises(ObservableError, match="finite"):
        quadratic(np.array([np.nan]), X, X, 0.0, 0.0)
    with pytest.raises(ObservableError, match="finite"):
        quadratic(math.inf, X, X, 0.0, 0.0)


def test_quadratic_dimension_mismatch():
    traj = make_traj(n=4)
    obs = quadratic(np.ones(3), X, X, 0.0, 0.0)
    with pytest.raises(ObservableError, match="dimension"):
        value(traj, obs)


def test_autocorrelation_is_weighted_quadratic():
    traj = make_traj(n=6, seed=8)
    n = 6
    obs = quadratic(np.ones(n), X, X, 0.1, 0.3)
    autocorr = value(traj, autocorr_item(0.1, 0.3))
    assert autocorr == pytest.approx(value(traj, obs), rel=1e-14)
    assert autocorr == value(traj, autocorr_item(0.3, 0.1))
    assert value(traj, autocorr_item(0.2, 0.2)) >= 0.0


def test_hamiltonian_density_hand_case():
    params = SystemParams(np.array([[0.0, 1.0], [0.0, 0.0]]) / math.sqrt(2.0),
                          np.zeros((2, 2)), np.zeros(2), np.zeros((3, 2)))
    cfg = IntegratorConfig(0.1, 0.0, (0.0,))
    traj = simulate(params, np.array([1.0, 1.0]), cfg, RngStream(0))
    # x.(Jx) = x1 J12 x2 = 1/sqrt(2); density divides by N = 2
    assert value(traj, hamiltonian_item(0.0)) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))


def test_grad_sq_density_is_mean_square_field():
    traj = make_traj(n=5, seed=11)
    g = block_values(traj, G, 0.2)
    assert value(traj, gradsq_item(0.2)) == pytest.approx(float(g @ g) / 5, rel=1e-13)


def test_grad_sq_vs_quadratic_form():
    traj = make_traj(n=5, seed=12)
    obs = quadratic(np.ones(5), G, G, 0.2, 0.2)
    assert value(traj, gradsq_item(0.2)) == pytest.approx(value(traj, obs), rel=1e-13)


# ---------------------------------------------------------------- tensors

def brute_tensor_dense(traj, obs):
    n = traj.x.shape[1]
    m = obs.arity
    a = np.reshape(obs.weights, (n,) * m)
    total = 0.0
    for idx in np.ndindex(*(n,) * m):
        term = float(a[idx])
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
    tens = SuiteItem("tensor", blocks=((X, M),), times=(0.1, 0.3), weights=a)
    v = block_values(traj, X, 0.1) * block_values(traj, M, 0.3)
    assert value(traj, tens) == float(a @ v) / 4


def test_tensor_arity2_against_loops():
    traj = make_traj(n=3, seed=6)
    a = np.random.default_rng(3).uniform(-1, 1, size=(3, 3))
    obs = SuiteItem("tensor", blocks=((X, ONE), (G, X)), times=(0.0, 0.2), weights=a)
    assert value(traj, obs) == pytest.approx(brute_tensor_dense(traj, obs),
                                             rel=1e-12, abs=1e-14)


def test_tensor_arity3_against_loops():
    traj = make_traj(n=3, seed=7)
    a = np.random.default_rng(4).uniform(-1, 1, size=(3, 3, 3))
    obs = SuiteItem("tensor", blocks=((X,), (X,), (M,)), times=(0.4,), weights=a)
    assert value(traj, obs) == pytest.approx(brute_tensor_dense(traj, obs),
                                             rel=1e-12, abs=1e-14)


def test_tensor_validation():
    with pytest.raises(ObservableError, match="at least one"):
        SuiteItem("t", blocks=(), times=(), weights=np.zeros(()))
    with pytest.raises(ObservableError, match="per time"):
        SuiteItem("t", blocks=((X, X), (X,)), times=(0.0, 0.1), weights=np.zeros((2, 2)))
    with pytest.raises(ObservableError, match="building block"):
        SuiteItem("t", blocks=(("x",),), times=(0.0,), weights=np.zeros(2))
    with pytest.raises(ObservableError, match="arity"):
        SuiteItem("t", blocks=((X,),), times=(0.0,), weights=np.zeros((2, 2)))
    with pytest.raises(ObservableError, match="arity"):  # unit weight is arity 1 only
        SuiteItem("t", blocks=((X,), (X,)), times=(0.0,))
    with pytest.raises(ObservableError, match="arity 3"):
        SuiteItem("t", blocks=((X,),) * 4, times=(0.0,), weights=np.zeros((2,) * 4))


def test_tensor_dense_shape_checked_at_eval():
    traj = make_traj(n=3, seed=16)
    obs = SuiteItem("t", blocks=((X,),), times=(0.0,), weights=np.ones(4))
    with pytest.raises(ObservableError, match="shape"):
        value(traj, obs)


def test_constant_weights_keep_the_sign_of_zero():
    # -0.0 == 0.0 and both hash alike, so the cached dense weights of one
    # must not be handed to the other
    traj = make_traj(n=3, seed=2)
    for w in (0.0, -0.0, 0.0):
        value(traj, SuiteItem("t", ((X,),), (0.0,), w))
        assert np.signbit(_constant(w.hex(), (3,))).all() == np.signbit(w)


@given(seed=st.integers(0, 2**32), arity=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_tensor_matches_loops_property(seed, arity):
    traj = make_traj(n=3, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(3,) * arity)
    rows = tuple(tuple(rng.choice(list(BuildingBlock)) for _ in range(2))
                 for _ in range(arity))
    obs = SuiteItem("t", blocks=rows, times=(0.0, 0.2), weights=a)
    assert value(traj, obs) == pytest.approx(brute_tensor_dense(traj, obs),
                                             rel=1e-11, abs=1e-13)


# ------------------------------------------------- block against replicas

def per_replica(item, x, m, j, rows):
    """One replica's value in the arithmetic of the per-replica suite:
    ``x_s @ x_t``, ``x @ (J @ x)``, ``g @ g`` with ``g = x @ J``, and for
    weighted items ``a @ v``, ``v0 @ a @ v1`` or the contraction."""
    n = x.shape[-1]
    kind = item.name.split("[")[0]
    if kind in ("autocorr", "overlap"):
        return float(x[rows[0]] @ x[rows[1]]) / n
    if kind == "hamiltonian":
        xt = x[rows[0]]
        return float(xt @ (j @ xt)) / n
    if kind == "gradsq":
        g = x[rows[0]] @ j
        return float(g @ g) / n
    arity = item.arity
    if isinstance(item.weights, float):
        a = np.full((n,) * arity, item.weights)
    else:
        a = item.weights.reshape((n,) * arity)
    vs = []
    for blocks in item.blocks:
        v = np.ones(n)
        for block, r in zip(blocks, rows):
            v = v * {ONE: np.ones(n), X: x[r], M: m[r], G: x[r] @ j}[block]
        vs.append(v)
    if arity == 1:
        return float(a @ vs[0]) / n
    if arity == 2:
        return float(vs[0] @ a @ vs[1]) / n ** 2
    return float(np.einsum("ijk,i,j,k->", a, *vs)) / n ** 3


def suite_items(n, rng):
    return [
        autocorr_item(0.1, 0.3), overlap_item(0.3), hamiltonian_item(0.2), gradsq_item(0.2),
        quadratic(rng.uniform(-1, 1, n), X, M, 0.1, 0.3),
        quadratic(2.0, G, X, 0.2, 0.2),
        SuiteItem("tensor", ((X, ONE), (G, X)), (0.0, 0.2), rng.uniform(-1, 1, n * n)),
        SuiteItem("tensor", ((M,), (X,)), (0.3,), 1.0),
        SuiteItem("tensor", ((X,), (G,), (M,)), (0.3,), rng.uniform(-1, 1, (n,) * 3)),
    ]


@pytest.mark.parametrize("n", [3, 4, 17, 64, 128])
@pytest.mark.parametrize("k", [1, 2, 8])
def test_block_evaluation_is_byte_identical_to_replicas(n, k):
    rng = np.random.default_rng(100 * n + k)
    cfg = IntegratorConfig(0.1, 0.3, (0.0, 0.1, 0.2, 0.3))
    xs = rng.standard_normal((k, 4, n))
    ms = rng.standard_normal((k, 4, n))
    coupling = rng.standard_normal((k, n, n)) / math.sqrt(n)
    for item in suite_items(n, rng):
        if item.arity == 3 and n > 17:
            continue
        rows = item.rows(cfg)
        got = evaluate(item, rows, xs, ms, coupling)
        want = np.array([per_replica(item, xs[i], ms[i], coupling[i], rows) for i in range(k)])
        assert got.shape == (k,)
        assert got.tobytes() == want.tobytes(), item.name
