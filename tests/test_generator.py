"""Letter application, Taylor expansion of moments, term-count bounds.

Oracles: hand-computed generator actions on tiny systems, closed-form
Ornstein-Uhlenbeck moments, the matrix-exponential mean as a second
route for the numeric-coupling path, and Monte Carlo for one annealed
observable.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rmsde.algebra import (AlgebraError, Monomial, MomentOracle, Polynomial,
                           expected_value)
from rmsde.dynamics import (IntegratorConfig, SystemParams, SystemTemplate,
                            exact_mean_linear, simulate)
from rmsde.ensembles import (EntryDistribution, InitialLaw, VarianceProfile,
                             sample_coupling, sample_initial)
from rmsde.generator import (DEFAULT_TRUNCATION_CAP, Letter, TruncationError,
                             apply_generator, apply_letter, count_bound_check,
                             taylor_mean, taylor_mean_multitime,
                             taylor_mean_numericJ, taylor_terms)
from rmsde.rng import (PURPOSE_COUPLING, PURPOSE_INITIAL, PURPOSE_NOISE,
                       RngStream)

GAUSSIAN = EntryDistribution.GAUSSIAN


def params_with(n, coupling=None, lam=None, h=None, sigma=None):
    return SystemParams(
        coupling=np.zeros((n, n)) if coupling is None else np.asarray(coupling, float),
        lam=np.zeros((n, n)) if lam is None else np.asarray(lam, float),
        h=np.zeros(n) if h is None else np.asarray(h, float),
        sigma=np.zeros((n + 1, n)) if sigma is None else np.asarray(sigma, float))


def gaussian_oracle(n):
    return MomentOracle.from_ensemble(GAUSSIAN, VarianceProfile.offdiagonal(n),
                                      InitialLaw.uniform(GAUSSIAN, n))


# ----------------------------------------------------------------- letters

def test_constant_letter_on_product():
    p = params_with(2, h=[3.0, 5.0])
    out = apply_letter(Polynomial.from_x(1, 2), Letter.CONSTANT, p)
    assert len(out) == 2
    # replacing x_1 leaves x_2 and a placeholder, weighted by h_1
    assert out.coeff_of(((), (0, 2))) == 3.0
    assert out.coeff_of(((), (0, 1))) == 5.0


def test_constant_letter_skips_zero_entries():
    p = params_with(2, h=[3.0, 0.0])
    out = apply_letter(Polynomial.from_x(1, 2), Letter.CONSTANT, p)
    assert len(out) == 1


def test_coupling_letter_sums_over_sources():
    p = params_with(2)
    out = apply_letter(Polynomial.from_x(1), Letter.COUPLING, p)
    assert len(out) == 2
    assert out.coeff_of(Monomial(j_pairs=((1, 1),), x_idx=(1,)).key) == 1.0
    assert out.coeff_of(Monomial(j_pairs=((2, 1),), x_idx=(2,)).key) == 1.0


def test_coupling_letter_respects_multiplicity():
    p = params_with(1)
    out = apply_letter(Polynomial.from_x(1, 1), Letter.COUPLING, p)
    # both copies of x_1 can be hit: coefficient 2, one new J factor
    assert out.coeff_of(Monomial(j_pairs=((1, 1),), x_idx=(1, 1)).key) == 2.0


def test_drift_letter_uses_sparse_column():
    lam = np.array([[0.0, 0.0], [5.0, 0.0]])
    p = params_with(2, lam=lam)
    out = apply_letter(Polynomial.from_x(1), Letter.DRIFT, p)
    assert len(out) == 1
    assert out.coeff_of(((), (2,))) == 5.0
    assert len(apply_letter(Polynomial.from_x(2), Letter.DRIFT, p)) == 0


def test_diffusion_letter_needs_a_square():
    sigma = np.zeros((2, 1))
    sigma[0, 0] = 0.7
    p = params_with(1, sigma=sigma)
    assert len(apply_letter(Polynomial.from_x(1), Letter.DIFFUSION, p)) == 0
    out = apply_letter(Polynomial.from_x(1, 1), Letter.DIFFUSION, p)
    assert len(out) == 1
    m = out.terms()[0]
    assert m.coeff == pytest.approx(2 * 0.7 * 0.7)
    assert m.key == ((), (0, 0))


def test_diffusion_letter_state_dependent():
    # sigma_01 = s, sigma_11 = u acting on x_1^2:
    # L f = 2 (s + u x_1)^2 = 2 s^2 + 4 s u x_1 + 2 u^2 x_1^2
    s, u = 0.5, 0.25
    sigma = np.array([[s], [u]])
    p = params_with(1, sigma=sigma)
    out = apply_letter(Polynomial.from_x(1, 1), Letter.DIFFUSION, p)
    got = {m.x_idx: m.coeff for m in out}
    assert got[(0, 0)] == pytest.approx(2 * s * s)
    assert got[(0, 1)] == pytest.approx(4 * s * u)
    assert got[(1, 1)] == pytest.approx(2 * u * u)


def test_generator_is_sum_of_letters():
    p = params_with(2, coupling=[[0.1, 0.2], [0.3, 0.4]],
                    lam=[[-1.0, 0.0], [0.0, -2.0]], h=[1.0, 2.0],
                    sigma=[[0.5, 0.5], [0.1, 0.0], [0.0, 0.2]])
    f = Polynomial.from_x(1, 2) + Polynomial.from_x(2, 2)
    total = apply_generator(f, p)
    by_hand = Polynomial([])
    for letter in Letter:
        by_hand = by_hand + apply_letter(f, letter, p)
    assert total.terms() == by_hand.terms()


def test_generator_collects_on_coupling_and_state():
    # drift, constant-drift and diffusion factors live in the coefficient,
    # so terms that differ only in how they were derived are one term
    p = SystemTemplate().build(np.zeros((3, 3)))
    poly = Polynomial.from_x(1, 1)
    for _ in range(5):
        poly = apply_generator(poly, p)
    keys = [(m.j_pairs, m.x_idx) for m in poly]
    assert len(set(keys)) == len(keys)


def test_generator_scalar_linear_case():
    # N = 1: L x = (J_11 + lam_11) x + h_1
    p = params_with(1, coupling=[[0.0]], lam=[[-2.0]], h=[3.0])
    out = apply_generator(Polynomial.from_x(1), p)
    assert len(out) == 3
    assert out.coeff_of((((1, 1),), (1,))) == 1.0
    assert out.coeff_of(((), (1,))) == -2.0
    assert out.coeff_of(((), (0,))) == 3.0


def test_apply_letter_checks_dimensions():
    p = params_with(2)
    with pytest.raises(AlgebraError, match="coordinate 3"):
        apply_letter(Polynomial.from_x(3), Letter.COUPLING, p)


@given(seed=st.integers(0, 10_000), word=st.lists(st.sampled_from(list(Letter)),
                                                  max_size=4))
@settings(max_examples=40, deadline=None)
def test_state_degree_is_invariant(seed, word):
    rng = np.random.default_rng(seed)
    n = 3
    p = params_with(n, coupling=rng.standard_normal((n, n)),
                    lam=np.diag(rng.standard_normal(n)),
                    h=rng.standard_normal(n),
                    sigma=rng.standard_normal((n + 1, n)))
    poly = Polynomial.from_x(1, 2, 3)
    for letter in word:
        poly = apply_letter(poly, letter, p)
        assert all(m.degree == 3 for m in poly)


# ------------------------------------------------------------- term counts

def test_count_bound_example():
    p = params_with(3, h=[1.0, 1.0, 1.0])
    word = (Letter.CONSTANT, Letter.COUPLING)
    actual, bound = count_bound_check(word, Monomial.from_x(1, 2), p)
    assert (actual, bound) == (6, 12)


def test_count_bound_diffusion_factor():
    sigma = np.ones((3, 2))
    p = params_with(2, sigma=sigma)
    actual, bound = count_bound_check((Letter.DIFFUSION,), Monomial.from_x(1, 1), p)
    assert bound == 2 * p.n_sigma ** 2
    assert actual == 9  # 3 nonzero rows, two slots


def test_count_bound_empty_word():
    p = params_with(2)
    assert count_bound_check((), Monomial.from_x(1), p) == (1, 1)


def test_count_bound_rejects_long_words_and_junk():
    p = params_with(2)
    with pytest.raises(TruncationError):
        count_bound_check([Letter.CONSTANT] * (DEFAULT_TRUNCATION_CAP + 1),
                          Monomial.from_x(1), p)
    with pytest.raises(AlgebraError):
        count_bound_check(["J"], Monomial.from_x(1), p)


@given(seed=st.integers(0, 10_000),
       word=st.lists(st.sampled_from(list(Letter)), max_size=5),
       degree=st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_count_never_exceeds_bound(seed, word, degree):
    rng = np.random.default_rng(seed)
    n = 3
    p = params_with(n, coupling=rng.standard_normal((n, n)),
                    lam=rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5),
                    h=rng.standard_normal(n) * (rng.random(n) < 0.7),
                    sigma=rng.standard_normal((n + 1, n)) * (rng.random((n + 1, n)) < 0.5))
    f0 = Monomial.from_x(*rng.integers(1, n + 1, size=degree))
    actual, bound = count_bound_check(word, f0, p)
    assert actual <= bound


# ----------------------------------------------------------- taylor, exact

def test_taylor_additive_noise_terminates():
    # pure additive noise: E[x_1^2](t) = 1 + 2 s^2 t, series exact at order 1
    s = 0.6
    sigma = np.zeros((2, 1))
    sigma[0, 0] = s
    p = params_with(1, sigma=sigma)
    res = taylor_mean(Polynomial.from_x(1, 1), p, gaussian_oracle(1), t=0.8, k=3)
    assert res.value == pytest.approx(1.0 + 2 * s * s * 0.8, rel=1e-14)
    assert res.tail_bound == 0.0
    assert not res.diverging


def test_taylor_ou_second_moment():
    # dX = -X dt + sqrt(2) s dB: E[x^2](t) = e^{-2t} + s^2 (1 - e^{-2t})
    s, t = 0.5, 0.3
    sigma = np.zeros((2, 1))
    sigma[0, 0] = s
    p = params_with(1, lam=[[-1.0]], sigma=sigma)
    res = taylor_mean(Polynomial.from_x(1, 1), p, gaussian_oracle(1), t=t, k=14)
    want = math.exp(-2 * t) + s * s * (1 - math.exp(-2 * t))
    assert res.value == pytest.approx(want, rel=1e-10)
    assert res.tail_bound < 1e-10
    assert not res.diverging


def test_taylor_terms_sum_to_mean():
    p = params_with(1, lam=[[-1.0]])
    f = Polynomial.from_x(1, 1)
    terms = taylor_terms(f, p, gaussian_oracle(1), t=0.2, k=6)
    res = taylor_mean(f, p, gaussian_oracle(1), t=0.2, k=6)
    assert sum(terms) == pytest.approx(res.value, rel=1e-14)
    assert len(terms) == 7


def test_taylor_at_time_zero():
    p = params_with(2)
    res = taylor_mean(Polynomial.from_x(1, 1), p, gaussian_oracle(2), t=0.0, k=0)
    assert res == (1.0, 0.0, False, (1.0,))


def test_taylor_annealed_coupling_variance():
    # J float, zero confinement: E[x_1(t)^2] picks up doubled-pair terms;
    # cross-check against Monte Carlo over couplings, noise, and x_0
    n = 2
    profile = VarianceProfile.offdiagonal(n)
    law = InitialLaw.uniform(GAUSSIAN, n)
    oracle = MomentOracle.from_ensemble(GAUSSIAN, profile, law)
    sigma = np.zeros((n + 1, n))
    sigma[0] = 0.3
    t, dt = 0.2, 0.004
    vals = []
    cfg = IntegratorConfig(dt, t, (t,))
    for r in range(1500):
        a = sample_coupling(GAUSSIAN, profile, False,
                            RngStream(9, r, PURPOSE_COUPLING).generator())
        p = params_with(n, coupling=a / math.sqrt(n), sigma=sigma)
        x0 = sample_initial(law, RngStream(9, r, PURPOSE_INITIAL))
        traj = simulate(p, x0, cfg, RngStream(9, r, PURPOSE_NOISE))
        vals.append(traj.x[traj.at(t), 0] ** 2)
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))

    p_sym = params_with(n, coupling=np.zeros((n, n)), sigma=sigma)
    # odd truncation order: the pairwise term pattern keeps the geometric
    # tail heuristic happy there
    res = taylor_mean(Polynomial.from_x(1, 1), p_sym, oracle, t=t, k=9)
    assert not res.diverging
    assert res.tail_bound < 1e-10
    assert abs(res.value - vals.mean()) <= 4 * se + 20 * dt


def test_taylor_truncation_caps():
    p = params_with(1)
    with pytest.raises(TruncationError):
        taylor_mean(Polynomial.from_x(1), p, gaussian_oracle(1), 0.1, k=-1)
    with pytest.raises(TruncationError):
        taylor_mean(Polynomial.from_x(1), p, gaussian_oracle(1), 0.1, k=17)
    taylor_mean(Polynomial.from_x(1), p, gaussian_oracle(1), 0.1, k=17, cap=20)


def test_taylor_symbolic_dimension_cap():
    p = params_with(9)
    with pytest.raises(TruncationError, match="dimension"):
        taylor_mean(Polynomial.from_x(1), p, gaussian_oracle(9), 0.1, k=2)
    # the numeric-coupling path has no such cap
    taylor_mean_numericJ(Polynomial.from_x(1), p, np.ones(9), 0.1, k=2)


def test_taylor_oracle_dimension_mismatch():
    p = params_with(2)
    with pytest.raises(AlgebraError, match="dimension"):
        taylor_mean(Polynomial.from_x(1), p, gaussian_oracle(3), 0.1, k=2)


# ------------------------------------------------------- numeric coupling

def test_numericj_at_time_zero_is_f_of_x():
    p = params_with(3, coupling=np.eye(3) * 0.2)
    f = Polynomial.from_x(1, 2) + Polynomial.from_x(3)
    x = np.array([0.5, -2.0, 4.0])
    assert taylor_mean_numericJ(f, p, x, 0.0, k=0) == pytest.approx(
        0.5 * -2.0 + 4.0, rel=1e-15)


def test_numericj_additive_noise_is_exact():
    s = 0.45
    sigma = np.zeros((2, 1))
    sigma[0, 0] = s
    p = params_with(1, sigma=sigma)
    x = np.array([1.3])
    got = taylor_mean_numericJ(Polynomial.from_x(1, 1), p, x, 0.7, k=2)
    assert got == pytest.approx(1.3 ** 2 + 2 * s * s * 0.7, rel=1e-14)


def test_numericj_matches_matrix_exponential_mean():
    rng = np.random.default_rng(12)
    n = 3
    p = params_with(n, coupling=rng.standard_normal((n, n)) / math.sqrt(n),
                    lam=np.diag(-rng.uniform(0.5, 1.0, size=n)),
                    h=rng.uniform(-1, 1, size=n))
    x0 = rng.uniform(-1, 1, size=n)
    want = exact_mean_linear(p, x0, 0.5)
    for i in range(1, n + 1):
        got = taylor_mean_numericJ(Polynomial.from_x(i), p, x0, 0.5, k=14)
        assert got == pytest.approx(want[i - 1], abs=1e-10)


def test_numericj_folds_coupling_factors():
    # a polynomial carrying explicit J factors is evaluated at the numeric J
    p = params_with(2, coupling=[[0.0, 0.25], [0.0, 0.0]])
    f = Polynomial([Monomial(coeff=4.0, j_pairs=((1, 2),), x_idx=(2,))])
    x = np.array([0.0, 3.0])
    assert taylor_mean_numericJ(f, p, x, 0.0, k=0) == pytest.approx(4 * 0.25 * 3.0)


def test_numericj_validates_state_shape():
    p = params_with(2)
    with pytest.raises(AlgebraError, match="shape"):
        taylor_mean_numericJ(Polynomial.from_x(1), p, np.ones(3), 0.1, k=1)


# -------------------------------------------------------------- multitime

def test_multitime_equal_times_reduce_to_products():
    p = params_with(1, lam=[[-1.0]], sigma=[[0.4], [0.0]])
    oracle = gaussian_oracle(1)
    f = Polynomial.from_x(1)
    both = taylor_mean_multitime([f, f], [0.3, 0.3], p, oracle, k=8)
    squared = taylor_mean(Polynomial.from_x(1, 1), p, oracle, 0.3, k=8)
    assert both == pytest.approx(squared.value, rel=1e-12)


def test_multitime_independent_gap_hand_case():
    # no coupling, additive noise: E[x^2(0) x^2(t)] = E[x^4] - ... reduces to
    # E[x0^2 (x0 + M_t)^2] = E[x0^4] + E[x0^2] 2 s^2 t
    s, t = 0.7, 0.4
    p = params_with(1, sigma=[[s], [0.0]])
    oracle = gaussian_oracle(1)
    f = Polynomial.from_x(1, 1)
    got = taylor_mean_multitime([f, f], [0.0, t], p, oracle, k=6)
    assert got == pytest.approx(3.0 + 2 * s * s * t, rel=1e-12)


def test_multitime_single_time_matches_taylor_mean():
    p = params_with(2, coupling=np.zeros((2, 2)), lam=-np.eye(2), h=[0.5, 0.0])
    oracle = gaussian_oracle(2)
    f = Polynomial.from_x(1, 2)
    one = taylor_mean_multitime([f], [0.25], p, oracle, k=8)
    ref = taylor_mean(f, p, oracle, 0.25, k=8)
    assert one == pytest.approx(ref.value, rel=1e-12)


def test_multitime_validation():
    p = params_with(1)
    oracle = gaussian_oracle(1)
    f = Polynomial.from_x(1)
    with pytest.raises(AlgebraError, match="non-decreasing"):
        taylor_mean_multitime([f, f], [0.5, 0.2], p, oracle, k=2)
    with pytest.raises(AlgebraError, match="per time"):
        taylor_mean_multitime([f], [0.1, 0.2], p, oracle, k=2)
    with pytest.raises(AlgebraError, match="non-negative"):
        taylor_mean_multitime([f], [-0.1], p, oracle, k=2)


def test_multitime_martingale_orthogonality():
    # centered initial law, pure noise: E[x(0) x(t)] = E[x0^2] = 1 for all t
    p = params_with(1, sigma=[[0.9], [0.0]])
    oracle = gaussian_oracle(1)
    f = Polynomial.from_x(1)
    got = taylor_mean_multitime([f, f], [0.0, 0.6], p, oracle, k=6)
    assert got == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------- truncation diagnostics

def test_error_shrinks_with_order():
    p = params_with(1, lam=[[-1.0]], sigma=[[0.5], [0.0]])
    oracle = gaussian_oracle(1)
    f = Polynomial.from_x(1, 1)
    t = 0.4
    want = math.exp(-2 * t) + 0.25 * (1 - math.exp(-2 * t))
    errs = [abs(taylor_mean(f, p, oracle, t, k=k).value - want) for k in (2, 4, 8)]
    assert errs[1] <= errs[0]
    assert errs[2] <= errs[1]


def test_diverging_flag_on_growing_terms():
    # unstable drift at a large time: partial terms grow for many orders
    p = params_with(1, lam=[[4.0]])
    res = taylor_mean(Polynomial.from_x(1, 1), p, gaussian_oracle(1), t=2.0, k=6)
    assert res.diverging
    assert res.tail_bound == math.inf
