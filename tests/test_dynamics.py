"""Euler-Maruyama integrator, decomposition bookkeeping, exact linear mean.

Oracles: closed-form Ornstein-Uhlenbeck formulas, a high-accuracy ODE
solve for the mean (independent of the matrix-exponential route), and
the exact per-step decomposition identity of the scheme itself.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from conftest import traced_peak
from hypothesis import given, settings
import hypothesis.strategies as st

from rmsde import dynamics
from rmsde.dynamics import (IntegratorConfig, ParameterError, SystemParams,
                            SimulationBlowupError, SystemTemplate,
                            drift, euler_maruyama, exact_mean_linear, simulate,
                            simulate_paths)
from rmsde.ensembles import EntryDistribution, VarianceProfile, sample_couplings
from rmsde.rng import PURPOSE_COUPLING, PURPOSE_NOISE, RngStream


def noise_stream(seed=0, stream=0):
    return RngStream(seed, stream, PURPOSE_NOISE)


def source(xi):
    """Noise source serving the increments of the (steps, C, N) array ``xi``."""
    return lambda lo, hi: xi[lo:hi]


def every_step(dt, horizon):
    """Grid recording every step of [0, horizon]."""
    return IntegratorConfig(dt, horizon, tuple(k * dt for k in range(round(horizon / dt) + 1)))


def plain_params(n, coupling=None, lam=None, h=None, sigma0=0.0):
    """Constant-diffusion system with the given pieces (zeros by default)."""
    sigma = np.zeros((n + 1, n))
    sigma[0] = sigma0
    return SystemParams(coupling=np.zeros((n, n)) if coupling is None else coupling,
                        lam=np.zeros((n, n)) if lam is None else lam,
                        h=np.zeros(n) if h is None else h,
                        sigma=sigma)


def random_params(n, seed, sigma0=0.5):
    p = VarianceProfile.offdiagonal(n)
    j = sample_couplings(EntryDistribution.GAUSSIAN, p, False,
                         [RngStream(seed, 0, PURPOSE_COUPLING).generator()])[0]
    rng = np.random.default_rng(seed + 1)
    lam = np.diag(-1.0 - rng.uniform(size=n))
    h = rng.uniform(-1, 1, size=n)
    return plain_params(n, coupling=j, lam=lam, h=h, sigma0=sigma0)


# ------------------------------------------------------------- parameters

def test_params_shape_validation():
    with pytest.raises(ParameterError, match="square"):
        SystemParams(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2), np.zeros((3, 2)))
    with pytest.raises(ParameterError, match="sigma"):
        SystemParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ParameterError, match="h"):
        SystemParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(3), np.zeros((3, 2)))


def test_params_reject_non_finite():
    with pytest.raises(ParameterError, match="finite"):
        plain_params(2, h=np.array([1.0, np.inf]))


def test_support_counts():
    lam = np.zeros((3, 3))
    lam[0, 1] = 1.0
    lam[2, 1] = 1.0  # column 1 has two nonzero rows
    sigma = np.zeros((4, 3))
    sigma[0, 0] = 1.0
    p = SystemParams(np.zeros((3, 3)), lam, np.zeros(3), sigma)
    assert p.n_lam == 2
    assert p.n_sigma == 1
    assert p.constant_diffusion
    assert not p.diagonal_lam
    assert plain_params(3, lam=np.diag([1.0, 0.0, -2.0])).diagonal_lam


def test_state_dependent_diffusion_flag():
    sigma = np.zeros((3, 2))
    sigma[1, 0] = 0.3
    p = SystemParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), sigma)
    assert not p.constant_diffusion
    assert p.n_sigma == 1


def test_drift_matrix_matches_drift_function():
    p = random_params(4, seed=3)
    x = np.random.default_rng(0).standard_normal(4)
    assert np.allclose(p.drift_matrix() @ x, drift(p, x) - p.h, atol=1e-14)


def test_params_hold_read_only_views():
    j = np.ones((2, 2))
    p = plain_params(2, coupling=j)
    assert np.shares_memory(p.coupling, j)
    assert not p.coupling.flags.writeable
    assert j.flags.writeable


def test_stacked_build_matches_one_build_per_path():
    template = SystemTemplate(confinement=2.0, beta=3.0, thresholds=0.4, langevin=True)
    js = np.stack([random_params(4, seed=s).coupling for s in (5, 6, 7)])
    stacked = template.build(js.copy())
    assert stacked.coupling.shape == (3, 4, 4)
    assert stacked.drift_matrix().strides == (16 * 8, 8, 4 * 8)
    for k in range(3):
        one = template.build(js[k].copy())
        assert np.array_equal(stacked.drift_matrix()[k], one.drift_matrix())
        assert np.array_equal(stacked.lam, one.lam) and np.array_equal(stacked.h, one.h)
    with pytest.raises(ParameterError, match="square"):
        template.build(np.zeros((3, 4, 5)))
    with pytest.raises(ParameterError, match="finite"):
        template.build(np.where(np.eye(4) > 0, np.nan, js))


def test_build_forms_the_shared_parts_once_per_size():
    template = SystemTemplate(confinement=2.0, beta=3.0, thresholds=0.4, langevin=True)
    js = np.stack([random_params(3, seed=s).coupling for s in (5, 6)])
    first = template.build(js[0].copy())
    stacked = template.build(js.copy())
    assert stacked.lam is first.lam and stacked.h is first.h and stacked.sigma is first.sigma
    assert np.array_equal(stacked.coupling, 2.0 * js)
    fresh = SystemParams(2.0 * js, first.lam, first.h, first.sigma)
    assert {k: v for k, v in vars(stacked).items() if not isinstance(v, np.ndarray)} == \
        {k: v for k, v in vars(fresh).items() if not isinstance(v, np.ndarray)}
    assert template.build(np.zeros((2, 2))).lam.shape == (2, 2)  # another size, its own parts
    again = template.build(js[1].copy())
    assert again.lam is not first.lam and np.array_equal(again.lam, first.lam)
    with pytest.raises(ParameterError, match="finite"):  # the coupling is still validated
        template.build(np.full((3, 3), np.inf))


# ------------------------------------------------------------- integrator

def test_euler_step_diffusion_formula():
    # one step from x: dM_j = sqrt(2 dt) * (sigma_0j + sum_i sigma_ij x_i) * xi_j
    sigma = np.array([[0.5, 0.0], [0.2, 0.0], [0.0, 0.1]])
    xi = np.array([[[0.7, -1.3]]])
    cfg = IntegratorConfig(0.01, 0.01, (0.01,))
    p = SystemParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), sigma)
    _, ms = euler_maruyama(p, np.array([[2.0, 3.0]]), cfg, source(xi))
    want = math.sqrt(2.0 * 0.01) * np.array([0.5 + 0.2 * 2.0, 0.1 * 3.0]) * xi[0, 0]
    assert np.allclose(ms[0, 0], want, atol=1e-15)


def test_snapshot_rounding_and_dedup():
    cfg = IntegratorConfig(0.1, 1.0, (0.0, 0.31, 0.29, 1.0))
    assert cfg.n_steps == 10
    assert cfg.snapshot_steps == (0, 3, 10)
    assert cfg.rounding == pytest.approx(0.01)
    assert np.allclose(cfg.times, [0.0, 0.3, 1.0])


def test_recorded_times_are_kept_outside_the_fields():
    # the times and the row lookup are formed once per config, and neither
    # enters eq, hash or repr
    cfg = IntegratorConfig(0.1, 1.0, (0.3, 1.0))
    same = IntegratorConfig(0.1, 1.0, (0.3, 1.0))
    assert cfg == same and hash(cfg) == hash(same)
    assert repr(cfg) == "IntegratorConfig(dt=0.1, horizon=1.0, snapshots=(0.3, 1.0))"
    assert cfg.times is cfg.times and not cfg.times.flags.writeable
    # 3 * 0.1 is not 0.3: the exact lookup misses and the 1e-9 match finds it
    assert cfg.times[0] != 0.3 and cfg.row(0.3) == 0 and cfg.row(cfg.times[0]) == 0


def test_snapshot_outside_horizon_rejected():
    with pytest.raises(ParameterError, match="outside"):
        IntegratorConfig(0.1, 1.0, (1.2,))
    with pytest.raises(ParameterError):
        IntegratorConfig(0.1, 1.0, (-0.2,))


def test_every_step_grid():
    # k * 0.1 is inexact for most k, yet each rounds to step k
    cfg = every_step(0.1, 0.7)
    assert cfg.snapshot_steps == tuple(range(8))
    assert cfg.rounding < 1e-15


def test_bad_step_size():
    with pytest.raises(ParameterError):
        IntegratorConfig(0.0, 1.0)
    with pytest.raises(ParameterError):
        IntegratorConfig(-0.1, 1.0)
    with pytest.raises(ParameterError):
        IntegratorConfig(0.1, math.inf)


# ----------------------------------------------------------- replica blocks

def replica_stack(n, c, seed, state_sigma=0.0):
    """Parameters of ``c`` random systems of size ``n`` as one stack, and their x0s."""
    rng = np.random.default_rng(seed)
    j = rng.standard_normal((c, n, n)) / math.sqrt(n)
    sigma = np.zeros((n + 1, n))
    sigma[0] = 0.7
    sigma[1:] = state_sigma * rng.standard_normal((n, n))
    params = SystemParams(j, -1.5 * np.eye(n), rng.uniform(-1, 1, n), sigma)
    return params, rng.standard_normal((c, n))


def replicas_per_block(monkeypatch, n, replicas):
    monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_BYTES", 8 * n * n * replicas)


def full_stack_euler(drift_mat, params, x0s, cfg, xi):
    """Additive-noise Euler on the whole (C, N, N) drift stack at once."""
    x = x0s.copy()
    m = np.zeros_like(x)
    lin = np.empty_like(x)
    amp = math.sqrt(2.0 * cfg.dt) * params.sigma[0]
    xs, ms = [x.copy()], [m.copy()]
    for step in range(1, cfg.n_steps + 1):
        dm = amp * xi[step - 1]
        np.matmul(drift_mat, x[:, :, None], out=lin[:, :, None])
        lin += params.h
        lin *= cfg.dt
        x += lin
        x += dm
        m += dm
        xs.append(x.copy())
        ms.append(m.copy())
    rows = list(cfg.snapshot_steps)
    return np.stack(xs, 1)[:, rows], np.stack(ms, 1)[:, rows]


@pytest.mark.parametrize("state_sigma", [0.0, 0.05])
@pytest.mark.parametrize("n", [3, 17, 128])
def test_replica_blocks_give_the_same_bytes(monkeypatch, n, state_sigma):
    # each block's drift is the stack itself; an additive noise run gives the
    # bytes of the whole drift stack's transposed view
    c, steps = 7, 40
    params, x0s = replica_stack(n, c, seed=n, state_sigma=state_sigma)
    xi = np.random.default_rng(1).standard_normal((steps, c, n))
    cfg = IntegratorConfig(0.01, 0.4, (0.0, 0.05, 0.23, 0.4))
    replicas_per_block(monkeypatch, n, c)
    xs, ms = euler_maruyama(params, x0s, cfg, source(xi))
    if not state_sigma:
        want = full_stack_euler(params.drift_matrix(), params, x0s, cfg, xi)
        assert want[0].tobytes() == xs.tobytes()
        assert want[1].tobytes() == ms.tobytes()
    for replicas in (1, 3, c):
        replicas_per_block(monkeypatch, n, replicas)
        got = euler_maruyama(params, x0s, cfg, source(xi))
        assert got[0].tobytes() == xs.tobytes()
        assert got[1].tobytes() == ms.tobytes()


def test_replica_block_width_depends_on_n_only(monkeypatch):
    widths = []

    def recorded(*args, **kwargs):
        x = args[4]
        widths.append(len(x))
        return real(*args, **kwargs)

    real = dynamics._euler_block
    monkeypatch.setattr(dynamics, "_euler_block", recorded)
    cfg = IntegratorConfig(0.01, 0.02, (0.02,))

    def run(n, c, state_sigma=0.0, shared=False):
        widths.clear()
        params, x0s = replica_stack(n, c, seed=0, state_sigma=state_sigma)
        if shared:
            params = SystemParams(params.coupling[0], params.lam, params.h, params.sigma)
        euler_maruyama(params, x0s, cfg, source(np.zeros((2, c, n))))
        return widths[:]

    assert run(128, 20) == [8, 8, 4]   # 1 MB of drift is 8 replicas at N = 128
    assert run(128, 5) == [5]
    assert run(256, 5) == [2, 2, 1]
    assert run(363, 3) == [1, 1, 1]
    assert run(3, 64) == [64]
    assert run(128, 20, shared=True) == [20]
    assert run(128, 20, state_sigma=0.01) == [8, 8, 4]


@pytest.mark.parametrize("read_only", [False, True])
def test_drift_buffer_starts_on_a_cache_line(monkeypatch, read_only):
    # the drift is the caller's stack, which a caller that reuses it aligns,
    # read through its transposed view; a read-only stack is copied into a
    # buffer on a cache line, since 1 MB buffers come from fresh mappings and
    # smaller ones from the heap, and the batched product is slower on a
    # drift that does not start on 64 bytes
    starts = []

    def recorded(*args, **kwargs):
        starts.append(args[0])
        return real(*args, **kwargs)

    real = dynamics._euler_block
    monkeypatch.setattr(dynamics, "_euler_block", recorded)
    cfg = IntegratorConfig(0.01, 0.02, (0.02,))
    for n, c in ((128, 20), (256, 1), (17, 5), (3, 64)):
        params, x0s = replica_stack(n, c, seed=0)
        if read_only:
            frozen = params.coupling.copy()
            frozen.setflags(write=False)
            params = SystemParams(frozen, params.lam, params.h, params.sigma)
        starts.clear()
        euler_maruyama(params, x0s, cfg, source(np.zeros((2, c, n))))
        assert len(starts) == -(-c // (2 ** 20 // (8 * n * n)))
        for mat in starts:
            assert np.shares_memory(mat, params.coupling) != read_only
            assert mat.strides == (8 * n * n, 8, 8 * n)
        if read_only:
            assert starts[0].ctypes.data % 64 == 0
        else:
            assert starts[0].ctypes.data == params.coupling.ctypes.data


def test_drift_buffer_is_one_block():
    # the in-place drift allocates no (N, N) array at all: the call holds its
    # state, snapshots and the saved diagonal, and four block-sized buffers
    # (work, constant drift, chunk start), under seven (C, N) arrays, never a
    # (C, N, N) drift stack of 3.3 MB
    n, c = 64, 100
    params, x0s = replica_stack(n, c, seed=2)
    cfg = IntegratorConfig(0.01, 0.02, (0.02,))
    noise = np.zeros((2, c, n))
    assert dynamics._DRIFT_BLOCK_BYTES < params.coupling.nbytes
    peak = traced_peak(lambda: euler_maruyama(params, x0s, cfg, source(noise)))
    assert peak < 7 * 8 * c * n


@pytest.mark.parametrize("n,replicas", [(4, 2), (17, 1), (64, 3)])
def test_stack_bytes_are_restored_after_a_call(monkeypatch, n, replicas):
    # the drift is folded into the stack's diagonal for the call only
    c = 6
    params, x0s = replica_stack(n, c, seed=n)
    before = params.coupling.tobytes()
    replicas_per_block(monkeypatch, n, replicas)
    cfg = IntegratorConfig(0.01, 0.05, (0.05,))
    euler_maruyama(params, x0s, cfg, source(np.zeros((5, c, n))))
    assert params.coupling.tobytes() == before
    assert not params.coupling.flags.writeable


def test_stack_bytes_are_restored_after_a_blowup_or_a_failing_source():
    n, c = 2, 4
    coupling = 9.0 * np.stack([np.eye(n)] * c) + 0.25
    params = SystemParams(coupling, -0.5 * np.eye(n), np.zeros(n), np.zeros((n + 1, n)))
    before = coupling.tobytes()
    x0s = np.full((c, n), 1e300)
    cfg = IntegratorConfig(1.0, 12.0, (12.0,))
    with pytest.raises(SimulationBlowupError):
        euler_maruyama(params, x0s, cfg, source(np.zeros((12, c, n))))
    assert coupling.tobytes() == before

    def failing(lo, hi):
        raise KeyError("no noise")

    with pytest.raises(KeyError):
        euler_maruyama(params, np.ones((c, n)), cfg, failing)
    assert coupling.tobytes() == before


def test_stack_needs_a_diagonal_lam():
    params, x0s = replica_stack(3, 2, seed=0)
    lam = params.lam.copy()
    lam[0, 1] = 0.5
    bent = SystemParams(params.coupling, lam, params.h, params.sigma)
    cfg = IntegratorConfig(0.01, 0.02, (0.02,))
    with pytest.raises(ParameterError, match="diagonal lam"):
        euler_maruyama(bent, x0s, cfg, source(np.zeros((2, 2, 3))))


def test_stack_in_read_only_memory_is_copied_not_written():
    n, c = 5, 3
    params, x0s = replica_stack(n, c, seed=4)
    frozen = params.coupling.copy()
    frozen.setflags(write=False)
    shared = np.broadcast_to(params.coupling[0], (c, n, n))  # one matrix, three views
    cfg = IntegratorConfig(0.01, 0.05, (0.05,))
    xi = np.random.default_rng(3).standard_normal((5, c, n))
    want = euler_maruyama(params, x0s, cfg, source(xi))
    got = euler_maruyama(SystemParams(frozen, params.lam, params.h, params.sigma),
                         x0s, cfg, source(xi))
    assert got[0].tobytes() == want[0].tobytes()
    first = params.coupling[0].tobytes()
    one = euler_maruyama(SystemParams(shared, params.lam, params.h, params.sigma),
                         x0s, cfg, source(xi))
    assert params.coupling[0].tobytes() == first
    assert np.all(np.isfinite(one[0]))


@pytest.mark.parametrize("state_sigma", [0.0, 0.05])
@pytest.mark.parametrize("n,replicas", [(3, 8), (3, 4), (3, 3), (17, 2), (17, 1)])
def test_noise_rows_repeat_over_the_copies(monkeypatch, n, replicas, state_sigma):
    # k noise rows serve 2k or 3k stack rows, path r reading row r % k, with
    # the bytes of k rows drawn out in full for every copy: blocks of whole
    # copies (8, 4), within one copy (3 of 4 rows, 2, 1), at either diffusion
    k = 4
    for copies in (2, 3):
        params, x0s = replica_stack(n, copies * k, seed=copies, state_sigma=state_sigma)
        xi = np.random.default_rng(5).standard_normal((9, k, n))
        cfg = IntegratorConfig(0.01, 0.09, (0.03, 0.09))
        replicas_per_block(monkeypatch, n, 64)
        want = euler_maruyama(params, x0s, cfg, source(np.concatenate([xi] * copies, axis=1)))
        replicas_per_block(monkeypatch, n, replicas)
        got = euler_maruyama(params, x0s, cfg, source(xi))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_noise_rows_must_divide_the_paths():
    params, x0s = replica_stack(3, 6, seed=0)
    cfg = IntegratorConfig(0.01, 0.02, (0.02,))
    for rows in (4, 7):
        with pytest.raises(ParameterError, match="K dividing 6"):
            euler_maruyama(params, x0s, cfg, source(np.zeros((2, rows, 3))))


def test_blowup_step_is_the_earliest_over_replica_blocks(monkeypatch):
    # x grows tenfold per step: 1e300 overflows at step 9, 1e305 at step 4
    n, c = 2, 6
    coupling = np.zeros((c, n, n))
    coupling[0] = coupling[-1] = 9.0 * np.eye(n)
    params = SystemParams(coupling, np.zeros((n, n)), np.zeros(n), np.zeros((n + 1, n)))
    x0s = np.ones((c, n))
    x0s[0], x0s[-1] = 1e300, 1e305
    cfg = IntegratorConfig(1.0, 12.0, (12.0,))
    noise = np.zeros((12, c, n))
    steps = []
    for replicas in (c, 2, 1):  # one block first, the reference
        replicas_per_block(monkeypatch, n, replicas)
        with pytest.raises(SimulationBlowupError) as exc:
            euler_maruyama(params, x0s, cfg, source(noise))
        steps.append(exc.value.step)
    assert steps == [4, 4, 4]


def one_pass(xi, calls):
    """Noise source that serves ``xi`` only in step order, each step once,
    recording the (lo, hi) of every call."""
    def draw(lo, hi):
        assert lo == (calls[-1][1] if calls else 0)
        calls.append((lo, hi))
        return xi[lo:hi]
    return draw


def steps_per_chunk(monkeypatch, c, n, steps):
    monkeypatch.setattr(dynamics, "_NOISE_CHUNK_BYTES", 8 * c * n * steps)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_noise_chunks_give_the_same_bytes(monkeypatch, chunk):
    # the golden simulate shape, one path at N = 5 over 4500 steps, is one
    # chunk by default; 1000-step chunks end on a short one of 500 steps
    n = 5
    p = random_params(n, seed=5)
    sigma = p.sigma.copy()
    sigma[1:] = 0.05 * np.random.default_rng(5).standard_normal((n, n))
    p = SystemParams(p.coupling, p.lam, p.h, sigma)
    cfg = IntegratorConfig(1e-4, 0.45, tuple(k * 1e-4 for k in range(0, 4501, 9)))
    assert cfg.n_steps == 4500
    assert dynamics._NOISE_CHUNK_BYTES // (8 * n) >= cfg.n_steps
    want = simulate(p, np.ones(n), cfg, noise_stream(3))
    steps_per_chunk(monkeypatch, 1, n, chunk)
    got = simulate(p, np.ones(n), cfg, noise_stream(3))
    assert got.x.tobytes() == want.x.tobytes()
    assert got.m.tobytes() == want.m.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_noise_source_draws_each_generator_in_one_stream(chunk):
    # the source the Monte Carlo and paired runs share: one generator for C
    # rows gives one draw of the whole run, a generator per replica gives
    # each row its own stream, at any chunk split
    steps, c, n = 40, 5, 3

    def gen(r):
        return RngStream(7, r, PURPOSE_NOISE).generator()

    def run(gens, rows):
        draw = dynamics._noise_source(gens, rows, n)
        return np.concatenate([draw(lo, min(lo + chunk, steps)).copy()
                               for lo in range(0, steps, chunk)])

    assert run([gen(0)], c).tobytes() == gen(0).standard_normal((steps, c, n)).tobytes()
    got = run([gen(r) for r in range(c)], 1)
    assert got.shape == (steps, c, n)
    for r in range(c):
        assert got[:, r].tobytes() == gen(r).standard_normal((steps, n)).tobytes()


def test_noise_source_keeps_its_buffer_when_the_generators_change():
    # the paired worker swaps the list's generators per block and keeps one
    # source for its whole share, so every block draws into the same buffer
    n = 3
    gens = [RngStream(7, r, PURPOSE_NOISE).generator() for r in (0, 1)]
    draw = dynamics._noise_source(gens, 1, n)
    first = draw(0, 4)
    pointer = first.ctypes.data
    gens[:] = [RngStream(7, r, PURPOSE_NOISE).generator() for r in (2, 3)]
    second = draw(0, 4)
    assert second.ctypes.data == pointer
    assert second[:, 1].tobytes() == \
        RngStream(7, 3, PURPOSE_NOISE).generator().standard_normal((4, n)).tobytes()
    assert draw(4, 6).ctypes.data == pointer  # a shorter chunk, the same buffer


@pytest.mark.parametrize("state_sigma", [0.0, 0.05])
def test_one_pass_source_serves_a_stack_of_blocks(monkeypatch, state_sigma):
    # 7 replicas in blocks of 2, 40 steps in chunks of 6: the source is asked
    # for each chunk exactly once, in order, the last one short
    n, c, steps = 17, 7, 40
    params, x0s = replica_stack(n, c, seed=4, state_sigma=state_sigma)
    xi = np.random.default_rng(2).standard_normal((steps, c, n))
    cfg = IntegratorConfig(0.01, 0.4, (0.0, 0.05, 0.23, 0.4))
    want = euler_maruyama(params, x0s, cfg, source(xi))
    replicas_per_block(monkeypatch, n, 2)
    steps_per_chunk(monkeypatch, c, n, 6)
    calls = []
    got = euler_maruyama(params, x0s, cfg, one_pass(xi, calls))
    assert calls == [(lo, min(lo + 6, steps)) for lo in range(0, steps, 6)]
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_blowup_step_across_a_noise_chunk_boundary(monkeypatch):
    # the 1e305 start overflows at step 4, the first step of the second
    # 3-step chunk, in the last of three blocks; no chunk after it is drawn
    n, c = 2, 6
    coupling = np.zeros((c, n, n))
    coupling[-1] = 9.0 * np.eye(n)
    params = SystemParams(coupling, np.zeros((n, n)), np.zeros(n), np.zeros((n + 1, n)))
    x0s = np.ones((c, n))
    x0s[-1] = 1e305
    cfg = IntegratorConfig(1.0, 12.0, (12.0,))
    noise = np.zeros((12, c, n))
    replicas_per_block(monkeypatch, n, 2)
    steps_per_chunk(monkeypatch, c, n, 3)
    calls = []
    with pytest.raises(SimulationBlowupError) as exc:
        euler_maruyama(params, x0s, cfg, one_pass(noise, calls))
    assert exc.value.step == 4
    assert calls == [(0, 3), (3, 6)]


@pytest.mark.parametrize("martingale", [False, True])
@pytest.mark.parametrize("state_sigma", [0.0, 0.01])
def test_blowup_step_inside_a_noise_chunk(monkeypatch, state_sigma, martingale):
    # x grows about tenfold per step: 1e301 overflows at step 8, 1e302 at
    # step 7, both inside the chunk of steps 6..10, which runs unchecked and
    # is replayed step by step; whichever of the first and the last block
    # blows up first, the call reports step 7, and the chunk of steps 11..12
    # is never drawn, whether or not the martingale part is summed
    n, c = 2, 6
    coupling = np.zeros((c, n, n))
    coupling[0] = coupling[-1] = 9.0 * np.eye(n)
    sigma = np.zeros((n + 1, n))
    sigma[0] = 0.5
    sigma[1:] = state_sigma * np.eye(n)
    params = SystemParams(coupling, np.zeros((n, n)), np.zeros(n), sigma)
    x0s = np.ones((c, n))
    cfg = IntegratorConfig(1.0, 12.0, (3.0, 12.0))
    noise = np.full((12, c, n), 0.5)
    replicas_per_block(monkeypatch, n, 2)
    for starts in ((1e301, 1e302), (1e302, 1e301)):
        x0s[0], x0s[-1] = starts
        for chunk, drawn in ((5, [(0, 5), (5, 10)]), (1, [(lo, lo + 1) for lo in range(7)])):
            steps_per_chunk(monkeypatch, c, n, chunk)
            calls = []
            with pytest.raises(SimulationBlowupError) as exc:
                euler_maruyama(params, x0s, cfg, one_pass(noise, calls), martingale=martingale)
            assert exc.value.step == 7
            assert calls == drawn
    # alone, the first block's replay finds its own step 8
    x0s[0], x0s[-1] = 1e301, 1.0
    steps_per_chunk(monkeypatch, c, n, 5)
    with pytest.raises(SimulationBlowupError) as exc:
        euler_maruyama(params, x0s, cfg, source(noise), martingale=martingale)
    assert exc.value.step == 8


def test_numpy_overflow_is_an_error_in_every_test():
    # pyproject.toml turns numpy's RuntimeWarning into an error for the whole
    # suite, so an overflow that leaks out of the Euler loop's unchecked pass
    # fails the blow-up tests above instead of passing with a warning
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.array([1e300]) * 1e300


@pytest.mark.parametrize("state_sigma", [0.0, 0.05])
def test_martingale_off_keeps_the_state_bytes(monkeypatch, state_sigma):
    # the martingale part is neither summed nor recorded, so no (C, S, N)
    # array of it is allocated, and the states are the same bytes
    n, c, steps = 16, 64, 200
    params, x0s = replica_stack(n, c, seed=3, state_sigma=state_sigma)
    xi = np.random.default_rng(4).standard_normal((steps, c, n))
    cfg = every_step(0.005, steps * 0.005)
    steps_per_chunk(monkeypatch, c, n, 30)
    xs, ms = euler_maruyama(params, x0s, cfg, source(xi))
    got, none = euler_maruyama(params, x0s, cfg, source(xi), martingale=False)
    assert none is None
    assert got.tobytes() == xs.tobytes()
    on, off = (traced_peak(lambda: euler_maruyama(params, x0s, cfg, source(xi), martingale=m))
               for m in (True, False))
    assert on > xs.nbytes + ms.nbytes
    assert off < xs.nbytes + ms.nbytes // 4


def test_noise_memory_does_not_grow_with_the_step_count():
    # the increments are drawn 1 MB of steps at a time, so four times the
    # steps add nothing beyond the chunk: a draw of the whole run's noise
    # would be 6.4 MB at 1000 steps and 25.6 MB at 4000
    n, paths = 4, 200
    p = random_params(n, seed=6)

    def peak(steps):
        cfg = IntegratorConfig(1e-3, steps * 1e-3, (steps * 1e-3,))
        return traced_peak(
            lambda: simulate_paths(p, np.ones(n), cfg, noise_stream(1), n_paths=paths))

    short, long = peak(1000), peak(4000)
    assert long < short + 2 ** 20


# -------------------------------------------------------------- simulate

def test_single_path_equals_batch_of_one():
    p = random_params(3, seed=9)
    cfg = every_step(0.01, 0.2)
    traj = simulate(p, np.ones(3), cfg, noise_stream(1))
    batch = simulate_paths(p, np.ones(3), cfg, noise_stream(1), n_paths=1)
    assert np.array_equal(traj.x, batch.x[0])
    assert np.array_equal(traj.m, batch.m[0])


def test_simulation_is_reproducible():
    p = random_params(3, seed=9, sigma0=1.0)
    cfg = IntegratorConfig(0.01, 0.5, (0.5,))
    a = simulate(p, np.ones(3), cfg, noise_stream(4))
    b = simulate(p, np.ones(3), cfg, noise_stream(4))
    assert np.array_equal(a.x, b.x)


def test_noiseless_path_ignores_the_seed():
    p = random_params(3, seed=2, sigma0=0.0)
    cfg = IntegratorConfig(0.01, 0.5, (0.5,))
    a = simulate(p, np.ones(3), cfg, noise_stream(0))
    b = simulate(p, np.ones(3), cfg, noise_stream(12345))
    assert np.array_equal(a.x, b.x)
    assert np.all(a.m == 0.0)


def test_decomposition_identity_on_every_step_grid():
    p = random_params(4, seed=7, sigma0=0.8)
    cfg = every_step(0.01, 0.3)
    traj = simulate(p, np.ones(4), cfg, noise_stream(3))
    assert traj.decomposition_residual(p) <= 1e-12


def test_martingale_starts_at_zero_and_x_at_x0():
    p = random_params(2, seed=5, sigma0=1.0)
    cfg = IntegratorConfig(0.01, 0.1, (0.0, 0.1))
    traj = simulate(p, np.array([0.3, -0.7]), cfg, noise_stream(8))
    assert np.array_equal(traj.x[0], np.array([0.3, -0.7]))
    assert np.all(traj.m[0] == 0.0)


def test_trajectory_time_lookup():
    p = plain_params(1)
    cfg = IntegratorConfig(0.1, 1.0, (0.0, 0.5, 1.0))
    traj = simulate(p, np.ones(1), cfg, noise_stream())
    assert traj.config.row(0.5) == 1
    assert cfg.row(0.5 + 1e-10) == 1
    with pytest.raises(ParameterError, match="not on the step grid"):
        cfg.row(0.25)
    with pytest.raises(ParameterError, match="not on the step grid"):
        IntegratorConfig(0.1, 1.0).row(0.0)


def test_blowup_raises_with_step_index():
    p = plain_params(1, lam=np.array([[9.0]]))
    cfg = IntegratorConfig(1.0, 5.0, (5.0,))
    with pytest.raises(SimulationBlowupError) as exc, np.errstate(over="ignore"):
        simulate(p, np.array([1e308]), cfg, noise_stream())
    assert exc.value.step == 1


def test_x0_validation():
    p = plain_params(2)
    cfg = IntegratorConfig(0.1, 0.1)
    with pytest.raises(ParameterError):
        simulate(p, np.ones(3), cfg, noise_stream())
    with pytest.raises(ParameterError):
        simulate_paths(p, np.ones(2), cfg, noise_stream(), n_paths=0)


def test_ou_mean_against_closed_form():
    # dX = -X dt + sqrt(2) s dB from x0 = 1: E X_t = exp(-t)
    p = plain_params(1, lam=np.array([[-1.0]]), sigma0=0.7)
    dt = 1e-3
    cfg = IntegratorConfig(dt, 1.0, (1.0,))
    batch = simulate_paths(p, np.ones(1), cfg, noise_stream(42), n_paths=10_000)
    err = abs(batch.mean_x()[0, 0] - math.exp(-1.0))
    assert err <= 3 * batch.se_x()[0, 0] + 10 * dt


def test_martingale_moments_additive_noise():
    # J = Lam = h = 0, sigma_0 = s: M_t is centered with variance 2 s^2 t
    s, t = 0.6, 0.25
    p = plain_params(1, sigma0=s)
    cfg = IntegratorConfig(0.01, t, (t,))
    batch = simulate_paths(p, np.ones(1), cfg, noise_stream(17), n_paths=20_000)
    m = batch.m[:, 0, 0]
    se1 = m.std(ddof=1) / math.sqrt(len(m))
    assert abs(m.mean()) <= 4 * se1
    m2 = m ** 2
    se2 = m2.std(ddof=1) / math.sqrt(len(m2))
    assert abs(m2.mean() - 2 * s * s * t) <= 4 * se2


def test_deterministic_weak_error_is_first_order():
    # noiseless x' = -x: the Euler error at t=1 should halve with dt
    errs = []
    for dt in (0.02, 0.01, 0.005):
        p = plain_params(1, lam=np.array([[-1.0]]))
        traj = simulate(p, np.ones(1), IntegratorConfig(dt, 1.0, (1.0,)),
                        noise_stream())
        errs.append(abs(traj.x[traj.config.row(1.0), 0] - math.exp(-1.0)))
    assert 1.8 <= errs[0] / errs[1] <= 2.2
    assert 1.8 <= errs[1] / errs[2] <= 2.2


@given(seed=st.integers(0, 2**32), n=st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_decomposition_residual_property(seed, n):
    p = random_params(n, seed=seed, sigma0=0.5)
    cfg = every_step(0.05, 0.25)
    traj = simulate(p, np.ones(n), cfg, noise_stream(seed))
    assert traj.decomposition_residual(p) <= 1e-12


# ------------------------------------------------------------- exact mean

def test_exact_mean_at_time_zero():
    p = random_params(3, seed=1)
    x0 = np.array([0.5, -1.0, 2.0])
    assert np.allclose(exact_mean_linear(p, x0, 0.0), x0, atol=1e-14)


def test_exact_mean_scalar_formula():
    # m' = -2 m + 3 from 0: m(t) = 1.5 (1 - exp(-2t))
    p = plain_params(1, lam=np.array([[-2.0]]), h=np.array([3.0]))
    t = 0.7
    want = 1.5 * (1.0 - math.exp(-2.0 * t))
    assert exact_mean_linear(p, np.zeros(1), t)[0] == pytest.approx(want, rel=1e-12)


def test_exact_mean_nilpotent_coupling():
    # J = [[0, c], [0, 0]] feeds coordinate 1 into coordinate 2 linearly
    c = 0.8
    p = plain_params(2, coupling=np.array([[0.0, c], [0.0, 0.0]]))
    x0 = np.array([2.0, -1.0])
    m = exact_mean_linear(p, x0, 1.3)
    assert m[0] == pytest.approx(2.0, rel=1e-14)
    assert m[1] == pytest.approx(-1.0 + c * 2.0 * 1.3, rel=1e-13)


def test_exact_mean_against_ode_oracle():
    # independent route: integrate the mean ODE with a high-accuracy solver
    p = random_params(4, seed=23)
    x0 = np.array([1.0, 0.5, -0.5, 2.0])
    t = 0.9
    sol = scipy.integrate.solve_ivp(
        lambda _, m: p.drift_matrix() @ m + p.h, (0.0, t), x0,
        rtol=1e-11, atol=1e-13, dense_output=True)
    assert np.allclose(exact_mean_linear(p, x0, t), sol.y[:, -1], atol=1e-8)


def test_simulated_mean_matches_exact_mean():
    p = random_params(4, seed=31, sigma0=0.4)
    dt = 1e-3
    cfg = IntegratorConfig(dt, 0.5, (0.5,))
    batch = simulate_paths(p, np.ones(4), cfg, noise_stream(77), n_paths=4000)
    want = exact_mean_linear(p, np.ones(4), 0.5)
    err = np.abs(batch.mean_x()[0] - want)
    assert np.all(err <= 3 * batch.se_x()[0] + 10 * dt)


def test_exact_mean_rejects_bad_time():
    p = plain_params(1)
    with pytest.raises(ParameterError):
        exact_mean_linear(p, np.ones(1), -0.5)
    with pytest.raises(ParameterError):
        exact_mean_linear(p, np.ones(1), math.inf)


# ---------------------------------------------------------- langevin form

def langevin(j, beta, confinement):
    # the system owns its coupling, and these tests reuse theirs
    return SystemTemplate(confinement=confinement, beta=beta, langevin=True).build(j.copy())


def test_langevin_params_layout():
    j = np.array([[0.0, 0.3], [0.3, 0.0]])
    p = langevin(j, beta=2.0, confinement=1.5)
    assert np.array_equal(p.coupling, 2.0 * j)
    assert np.array_equal(p.lam, -1.5 * np.eye(2))
    assert np.all(p.h == 0.0)
    assert np.allclose(p.sigma[0], 1.0 / math.sqrt(4.0))
    assert p.constant_diffusion


def test_langevin_zero_temperature():
    j = np.zeros((3, 3))
    p = langevin(j, beta=math.inf, confinement=1.0)
    assert np.all(p.sigma == 0.0)


def test_langevin_accepts_coupling_matrix():
    j = sample_couplings(EntryDistribution.GAUSSIAN, VarianceProfile.offdiagonal(4),
                         True, [RngStream(0, 0, PURPOSE_COUPLING).generator()])[0]
    p = langevin(j, beta=math.inf, confinement=2.0)
    assert np.array_equal(p.coupling, 2.0 * j)


def test_langevin_build_accepts_asymmetric_coupling():
    # the asymmetric Hopfield drift 2J - K I, which is not a gradient
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = langevin(j, beta=1.0, confinement=1.0)
    assert np.array_equal(p.drift_matrix(), (2.0 * j - np.eye(2)).T)
    with pytest.raises(ParameterError, match="beta"):
        langevin(np.zeros((2, 2)), beta=0.0, confinement=1.0)


def test_langevin_gradient_consistency():
    # drift must be -grad of H(x) = -x.J x + K|x|^2/2 for symmetric J
    rng = np.random.default_rng(3)
    j = rng.standard_normal((5, 5))
    j = (j + j.T) / 2.0
    k = 1.2
    p = langevin(j, beta=math.inf, confinement=k)
    x = rng.standard_normal(5)
    eps = 1e-6
    grad = np.empty(5)
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        hp = -xp @ j @ xp + k * xp @ xp / 2.0
        hm = -xm @ j @ xm + k * xm @ xm / 2.0
        grad[i] = (hp - hm) / (2 * eps)
    assert np.allclose(drift(p, x), -grad, atol=1e-6)
