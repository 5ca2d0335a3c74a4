"""Entry laws, variance profiles, coupling draws, operator norm.

The exact moment formulas are checked three ways: against a frozen hand
table, against symbolic integration, and against large-sample Monte
Carlo.  The power-iteration norm is checked against numpy's SVD.
"""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
import hypothesis.strategies as st

from rmsde.ensembles import (EnsembleError, EntryDistribution, InitialLaw,
                             PowerIterationError, VarianceProfile, entry_moment,
                             moment_growth_constant, operator_norm, sample_coupling,
                             sample_entries, sample_initial)
from rmsde.rng import PURPOSE_COUPLING, PURPOSE_INITIAL, RngStream

ALL_DISTS = list(EntryDistribution)

_x = sp.Symbol("x", real=True)


def symbolic_moment(dist, ell, absolute=False):
    """Independent oracle: E[A**ell] (or E[|A|**ell]) by symbolic integration."""
    p = sp.Abs(_x) ** ell if absolute else _x ** ell
    if dist is EntryDistribution.GAUSSIAN:
        pdf = sp.exp(-(_x ** 2) / 2) / sp.sqrt(2 * sp.pi)
        val = sp.integrate(p * pdf, (_x, -sp.oo, sp.oo))
    elif dist is EntryDistribution.RADEMACHER:
        val = (p.subs(_x, 1) + p.subs(_x, -1)) / 2
    elif dist is EntryDistribution.UNIFORM_CENTERED:
        r = sp.sqrt(3)
        val = sp.integrate(p / (2 * r), (_x, -r, r))
    elif dist is EntryDistribution.EXPONENTIAL_CENTERED:
        val = sp.integrate(p.subs(_x, _x - 1) * sp.exp(-_x), (_x, 0, sp.oo))
    else:
        raise AssertionError(dist)
    return float(sp.nsimplify(val))


# hand table, ell = 0..8; exponential row is the derangement sequence
FROZEN_MOMENTS = {
    EntryDistribution.GAUSSIAN: [1, 0, 1, 0, 3, 0, 15, 0, 105],
    EntryDistribution.RADEMACHER: [1, 0, 1, 0, 1, 0, 1, 0, 1],
    EntryDistribution.UNIFORM_CENTERED: [1, 0, 1, 0, 9 / 5, 0, 27 / 7, 0, 9],
    EntryDistribution.EXPONENTIAL_CENTERED: [1, 0, 1, 2, 9, 44, 265, 1854, 14833],
}


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.name.lower())
def test_moments_match_frozen_table(dist):
    for ell, expected in enumerate(FROZEN_MOMENTS[dist]):
        assert entry_moment(dist, ell) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.name.lower())
def test_moments_match_symbolic_integration(dist):
    for ell in range(13):
        exact = symbolic_moment(dist, ell)
        assert entry_moment(dist, ell) == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_exponential_moments_are_subfactorials():
    for ell in range(1, 10):
        want = float(sp.subfactorial(ell))
        assert entry_moment(EntryDistribution.EXPONENTIAL_CENTERED, ell) == want


def test_all_laws_are_centered_with_unit_variance():
    for dist in ALL_DISTS:
        assert entry_moment(dist, 0) == 1.0
        assert entry_moment(dist, 1) == 0.0
        assert entry_moment(dist, 2) == 1.0


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        entry_moment(EntryDistribution.GAUSSIAN, -1)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.name.lower())
def test_moment_growth_bound(dist):
    # E[|A|^ell] <= (ell-1)! * C^(ell/2), the sub-exponential witness
    c = moment_growth_constant(dist)
    for ell in range(1, 11):
        abs_moment = symbolic_moment(dist, ell, absolute=True)
        assert abs_moment <= math.factorial(ell - 1) * c ** (ell / 2) + 1e-9


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.name.lower())
def test_sampled_moments_agree_with_exact(dist):
    rng = RngStream(2024, 0, PURPOSE_COUPLING).generator()
    x = sample_entries(dist, 400_000, rng)
    for ell in range(1, 7):
        pw = x ** ell
        se = pw.std(ddof=1) / math.sqrt(len(pw))
        assert abs(pw.mean() - entry_moment(dist, ell)) <= 5 * se


def test_rademacher_samples_are_signs():
    rng = RngStream(7).generator()
    x = sample_entries(EntryDistribution.RADEMACHER, 1000, rng)
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_uniform_samples_stay_in_range():
    rng = RngStream(7).generator()
    x = sample_entries(EntryDistribution.UNIFORM_CENTERED, 10_000, rng)
    assert np.all(np.abs(x) <= math.sqrt(3.0))


def test_exponential_samples_bounded_below():
    rng = RngStream(7).generator()
    x = sample_entries(EntryDistribution.EXPONENTIAL_CENTERED, 10_000, rng)
    assert x.min() > -1.0


@pytest.mark.parametrize("name,want", [
    ("gaussian", EntryDistribution.GAUSSIAN),
    ("normal", EntryDistribution.GAUSSIAN),
    ("rademacher", EntryDistribution.RADEMACHER),
    ("sign", EntryDistribution.RADEMACHER),
    ("uniform", EntryDistribution.UNIFORM_CENTERED),
    ("exponential", EntryDistribution.EXPONENTIAL_CENTERED),
    ("  Gaussian ", EntryDistribution.GAUSSIAN),
])
def test_distribution_from_name(name, want):
    assert EntryDistribution.from_name(name) is want


def test_distribution_from_name_rejects_unknown():
    with pytest.raises(EnsembleError, match="poisson"):
        EntryDistribution.from_name("poisson")


# ---------------------------------------------------------------- profiles

def test_offdiagonal_profile():
    p = VarianceProfile.offdiagonal(4)
    assert p.n == 4
    assert np.all(np.diag(p.m) == 0.0)
    assert p.m[0, 1] == 1.0
    assert p.is_symmetric
    assert p.bound == 1.0


def test_full_profile_bound_defaults_to_max():
    p = VarianceProfile.full(3, 2.5)
    assert p.bound == 2.5


def test_profile_rejects_nonsquare():
    with pytest.raises(EnsembleError, match="square"):
        VarianceProfile(np.ones((2, 3)))


def test_profile_rejects_negative_entries():
    with pytest.raises(EnsembleError):
        VarianceProfile(np.array([[1.0, -0.5], [0.0, 1.0]]))


def test_profile_rejects_undersized_bound():
    with pytest.raises(EnsembleError, match="bound"):
        VarianceProfile(np.full((2, 2), 4.0), bound=1.0)


def test_profile_is_frozen():
    p = VarianceProfile.full(2)
    with pytest.raises(ValueError):
        p.m[0, 0] = 9.0


# ------------------------------------------------------- coupling matrices

def draw(dist, profile, symmetric, seed=0, replica=0):
    """Unscaled entries ``A`` of one coupling from its replica stream."""
    return sample_coupling(dist, profile, symmetric,
                           RngStream(seed, replica, PURPOSE_COUPLING).generator())


def test_sampling_is_reproducible():
    p = VarianceProfile.offdiagonal(6)
    a = draw(EntryDistribution.GAUSSIAN, p, False)
    b = draw(EntryDistribution.GAUSSIAN, p, False)
    assert np.array_equal(a, b)


def test_replicas_differ():
    p = VarianceProfile.offdiagonal(6)
    a = draw(EntryDistribution.GAUSSIAN, p, False, 0, 0)
    b = draw(EntryDistribution.GAUSSIAN, p, False, 0, 1)
    assert not np.array_equal(a, b)


def test_symmetric_sample_is_exactly_symmetric():
    p = VarianceProfile.offdiagonal(16)
    a = draw(EntryDistribution.EXPONENTIAL_CENTERED, p, True)
    assert np.array_equal(a, a.T)


def test_zero_variance_entries_are_exactly_zero():
    p = VarianceProfile.offdiagonal(8)
    a = draw(EntryDistribution.GAUSSIAN, p, False)
    assert np.all(np.diag(a) == 0.0)


def test_profile_scales_entries():
    # rademacher entries through variance 4 must land exactly on +-2
    p = VarianceProfile(np.full((3, 3), 4.0))
    a = draw(EntryDistribution.RADEMACHER, p, False)
    assert set(np.unique(np.abs(a))) == {2.0}


def test_j_is_a_over_sqrt_n():
    # the draw is unscaled, so J = A / sqrt(N) has entries of size 1/sqrt(N)
    p = VarianceProfile.offdiagonal(5)
    j = draw(EntryDistribution.RADEMACHER, p, False) / math.sqrt(5)
    assert set(np.unique(np.abs(j[p.m > 0]))) == {1.0 / math.sqrt(5)}


def test_symmetric_needs_symmetric_profile():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0  # no matching (1, 0) entry
    with pytest.raises(EnsembleError, match="symmetric"):
        draw(EntryDistribution.GAUSSIAN, VarianceProfile(m), True)


@given(n=st.integers(2, 12), dist=st.sampled_from(ALL_DISTS),
       seed=st.integers(0, 2**32), symmetric=st.booleans())
@settings(max_examples=40, deadline=None)
def test_sampled_matrix_respects_profile_support(n, dist, seed, symmetric):
    p = VarianceProfile.offdiagonal(n)
    a = draw(dist, p, symmetric, seed)
    assert np.all(a[p.m == 0.0] == 0.0)
    if symmetric:
        assert np.array_equal(a, a.T)
    assert a.shape == (n, n)


def test_offdiagonal_second_moment_statistics():
    # pooled second moment over entries and replicas ~ m_ij = 1
    p = VarianceProfile.offdiagonal(10)
    sq = []
    for r in range(200):
        a = draw(EntryDistribution.UNIFORM_CENTERED, p, False, 3, r)
        sq.append(a[p.m > 0] ** 2)
    sq = np.concatenate(sq)
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 1.0) <= 5 * se


# ----------------------------------------------------------- initial laws

def test_uniform_initial_law():
    law = InitialLaw.uniform(EntryDistribution.GAUSSIAN, 4)
    assert law.n == 4
    assert law.moment(1, 2) == 1.0
    assert law.moment(4, 4) == 3.0


def test_initial_law_moment_is_one_based():
    law = InitialLaw((EntryDistribution.GAUSSIAN, EntryDistribution.RADEMACHER))
    assert law.moment(2, 4) == 1.0  # rademacher coordinate
    assert law.moment(1, 4) == 3.0
    with pytest.raises(IndexError):
        law.moment(0, 2)
    with pytest.raises(IndexError):
        law.moment(3, 2)


def test_initial_law_rejects_empty_and_junk():
    with pytest.raises(EnsembleError):
        InitialLaw(())
    with pytest.raises(EnsembleError):
        InitialLaw(("gaussian",))  # names must be resolved first


def test_sample_initial_shapes_and_determinism():
    law = InitialLaw.uniform(EntryDistribution.UNIFORM_CENTERED, 7)
    s = RngStream(11, 0, PURPOSE_INITIAL)
    x = sample_initial(law, s)
    assert x.shape == (7,)
    assert np.array_equal(x, sample_initial(law, s))


def test_sample_initial_mixed_marginals():
    law = InitialLaw((EntryDistribution.GAUSSIAN, EntryDistribution.RADEMACHER,
                      EntryDistribution.GAUSSIAN, EntryDistribution.RADEMACHER))
    hits = []
    for r in range(500):
        x = sample_initial(law, RngStream(1, r, PURPOSE_INITIAL))
        assert x[1] in (-1.0, 1.0)
        assert x[3] in (-1.0, 1.0)
        hits.append(x[0])
    # the gaussian coordinate is almost surely never a unit sign
    assert not any(v in (-1.0, 1.0) for v in hits)


# ---------------------------------------------------------- operator norm

def test_operator_norm_matches_svd_oracle():
    rng = np.random.default_rng(5)
    for shape in [(4, 4), (6, 3), (3, 6), (20, 20)]:
        m = rng.standard_normal(shape)
        top = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(top, rel=1e-5)


def test_operator_norm_symmetric_matches_eigenvalue():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((12, 12))
    a = a + a.T
    top = np.max(np.abs(np.linalg.eigvalsh(a)))
    assert operator_norm(a) == pytest.approx(top, rel=1e-5)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([3.0, -7.0, 2.0])) == pytest.approx(7.0, rel=1e-6)


def test_operator_norm_restarts_out_of_kernel():
    # the all-ones start lies in ker(M^T M); the fallback start must save it
    m = np.array([[1.0, -1.0], [0.0, 0.0]])
    assert operator_norm(m) == pytest.approx(math.sqrt(2.0), rel=1e-6)


def test_operator_norm_reports_best_estimate_on_failure():
    with pytest.raises(PowerIterationError) as exc:
        operator_norm(np.eye(2), max_iter=1)
    assert exc.value.best == pytest.approx(1.0)


def test_operator_norm_rejects_vectors():
    with pytest.raises(ValueError):
        operator_norm(np.ones(4))


@given(st.integers(2, 10), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_operator_norm_agrees_with_svd_property(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    top = np.linalg.svd(m, compute_uv=False)[0]
    assert operator_norm(m) == pytest.approx(top, rel=1e-4, abs=1e-8)
