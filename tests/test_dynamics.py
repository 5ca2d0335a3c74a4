"""Euler-Maruyama integrator, decomposition bookkeeping, exact linear mean.

Oracles: closed-form Ornstein-Uhlenbeck formulas, a high-accuracy ODE
solve for the mean (independent of the matrix-exponential route), and
the exact per-step decomposition identity of the scheme itself.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
import hypothesis.strategies as st

from rmsde.dynamics import (IntegratorConfig, ParameterError, SystemParams,
                            SimulationBlowupError, SystemTemplate, Trajectory, diffusion_row,
                            drift, exact_mean_linear, langevin_params,
                            simulate, simulate_paths)
from rmsde.ensembles import EntryDistribution, VarianceProfile, sample_coupling
from rmsde.rng import PURPOSE_COUPLING, PURPOSE_NOISE, RngStream


def noise_stream(seed=0, stream=0):
    return RngStream(seed, stream, PURPOSE_NOISE)


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
    a = sample_coupling(EntryDistribution.GAUSSIAN, p, False,
                        RngStream(seed, 0, PURPOSE_COUPLING).generator())
    rng = np.random.default_rng(seed + 1)
    lam = np.diag(-1.0 - rng.uniform(size=n))
    h = rng.uniform(-1, 1, size=n)
    return plain_params(n, coupling=a / math.sqrt(n), lam=lam, h=h, sigma0=sigma0)


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


def test_declared_constants_must_cover_derived():
    lam = np.array([[0.0, 2.0], [0.0, 0.0]])
    p = SystemParams(np.zeros((2, 2)), lam, np.zeros(2), np.zeros((3, 2)), c_lam=5.0)
    assert p.c_lam == 5.0
    with pytest.raises(ParameterError, match="c_lam"):
        SystemParams(np.zeros((2, 2)), lam, np.zeros(2), np.zeros((3, 2)), c_lam=1.0)


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


def test_with_coupling_checks_only_the_new_coupling():
    j = random_params(4, seed=5).coupling
    template = SystemTemplate(confinement=2.0, beta=3.0, thresholds=0.4)
    base = template.build(np.zeros((4, 4)))
    swapped = base.with_coupling(j)
    assert np.array_equal(swapped.coupling, j)
    assert not swapped.coupling.flags.writeable
    assert swapped.lam is base.lam and swapped.h is base.h and swapped.sigma is base.sigma
    x = np.random.default_rng(1).standard_normal(4)
    assert np.array_equal(drift(swapped, x), drift(template.build(j), x))
    with pytest.raises(ParameterError, match="shape"):
        base.with_coupling(np.zeros((3, 3)))
    with pytest.raises(ParameterError, match="finite"):
        base.with_coupling(np.where(np.eye(4) > 0, np.nan, j))


def test_diffusion_row_formula():
    sigma = np.array([[0.5, 0.0], [0.2, 0.0], [0.0, 0.1]])
    p = SystemParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), sigma)
    x = np.array([2.0, 3.0])
    want = math.sqrt(2.0) * np.array([0.5 + 0.2 * 2.0, 0.1 * 3.0])
    assert np.allclose(diffusion_row(p, x), want, atol=1e-15)


# ------------------------------------------------------------- integrator

def test_snapshot_rounding_and_dedup():
    cfg = IntegratorConfig(0.1, 1.0, (0.0, 0.31, 0.29, 1.0))
    assert cfg.n_steps == 10
    assert cfg.snapshot_steps == (0, 3, 10)
    assert cfg.rounding == pytest.approx(0.01)
    assert np.allclose(cfg.times, [0.0, 0.3, 1.0])


def test_snapshot_outside_horizon_rejected():
    with pytest.raises(ParameterError, match="outside"):
        IntegratorConfig(0.1, 1.0, (1.2,))
    with pytest.raises(ParameterError):
        IntegratorConfig(0.1, 1.0, (-0.2,))


def test_every_step_grid():
    cfg = IntegratorConfig.every_step(0.25, 1.0)
    assert cfg.snapshot_steps == (0, 1, 2, 3, 4)


def test_bad_step_size():
    with pytest.raises(ParameterError):
        IntegratorConfig(0.0, 1.0)
    with pytest.raises(ParameterError):
        IntegratorConfig(-0.1, 1.0)
    with pytest.raises(ParameterError):
        IntegratorConfig(0.1, math.inf)


# -------------------------------------------------------------- simulate

def test_single_path_equals_batch_of_one():
    p = random_params(3, seed=9)
    cfg = IntegratorConfig.every_step(0.01, 0.2)
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
    cfg = IntegratorConfig.every_step(0.01, 0.3)
    traj = simulate(p, np.ones(4), cfg, noise_stream(3))
    assert traj.decomposition_residual() <= 1e-12


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
    assert traj.at(0.5) == 1
    with pytest.raises(KeyError):
        traj.at(0.25)


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
        errs.append(abs(traj.x[traj.at(1.0), 0] - math.exp(-1.0)))
    assert 1.8 <= errs[0] / errs[1] <= 2.2
    assert 1.8 <= errs[1] / errs[2] <= 2.2


@given(seed=st.integers(0, 2**32), n=st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_decomposition_residual_property(seed, n):
    p = random_params(n, seed=seed, sigma0=0.5)
    cfg = IntegratorConfig.every_step(0.05, 0.25)
    traj = simulate(p, np.ones(n), cfg, noise_stream(seed))
    assert traj.decomposition_residual() <= 1e-12


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

def test_langevin_params_layout():
    j = np.array([[0.0, 0.3], [0.3, 0.0]])
    p = langevin_params(j, beta=2.0, confinement=1.5)
    assert np.array_equal(p.coupling, 2.0 * j)
    assert np.array_equal(p.lam, -1.5 * np.eye(2))
    assert np.all(p.h == 0.0)
    assert np.allclose(p.sigma[0], 1.0 / math.sqrt(4.0))
    assert p.constant_diffusion


def test_langevin_zero_temperature():
    j = np.zeros((3, 3))
    p = langevin_params(j, beta=math.inf, confinement=1.0)
    assert np.all(p.sigma == 0.0)


def test_langevin_accepts_coupling_matrix():
    a = sample_coupling(EntryDistribution.GAUSSIAN, VarianceProfile.offdiagonal(4),
                        True, RngStream(0, 0, PURPOSE_COUPLING).generator())
    j = a / math.sqrt(4)
    p = langevin_params(j, beta=math.inf, confinement=2.0)
    assert np.array_equal(p.coupling, 2.0 * j)


def test_langevin_rejects_asymmetric_coupling():
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ParameterError, match="symmetric"):
        langevin_params(j, beta=1.0, confinement=1.0)
    with pytest.raises(ParameterError, match="beta"):
        langevin_params(np.zeros((2, 2)), beta=0.0, confinement=1.0)


def test_langevin_gradient_consistency():
    # drift must be -grad of H(x) = -x.J x + K|x|^2/2 for symmetric J
    rng = np.random.default_rng(3)
    j = rng.standard_normal((5, 5))
    j = (j + j.T) / 2.0
    k = 1.2
    p = langevin_params(j, beta=math.inf, confinement=k)
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
