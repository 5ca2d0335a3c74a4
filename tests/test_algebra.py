"""Monomial algebra, moment oracle, and the pair-multiplicity counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rmsde.algebra import (AlgebraError, Monomial, MomentOracle, Polynomial,
                           canonical_pair, difference_vanishes, expected_value,
                           state_counts)
from rmsde.ensembles import (EntryDistribution, InitialLaw, VarianceProfile,
                             sample_couplings, sample_initial)
from rmsde.rng import PURPOSE_COUPLING, PURPOSE_INITIAL, RngStream

GAUSSIAN = EntryDistribution.GAUSSIAN
EXPONENTIAL = EntryDistribution.EXPONENTIAL_CENTERED


def constant(c):
    """The constant polynomial ``c``: multiplying by it scales."""
    return Polynomial([Monomial(coeff=c)])


def gaussian_oracle(n, symmetric=False, profile=None):
    profile = profile or VarianceProfile.offdiagonal(n)
    return MomentOracle.from_ensemble(GAUSSIAN, profile,
                                      InitialLaw.uniform(GAUSSIAN, n),
                                      symmetric=symmetric)


# --------------------------------------------------------------- monomials

def test_monomial_sorts_its_parts():
    m = Monomial(coeff=2.0, j_pairs=((3, 1), (1, 2)), x_idx=(2, 1, 1))
    assert m.j_pairs == ((1, 2), (3, 1))
    assert m.x_idx == (1, 1, 2)
    assert m.degree == 3
    assert state_counts(m.x_idx) == ((1, 2), (2, 1))


def test_placeholder_zero_is_not_a_state_factor():
    m = Monomial(x_idx=(0, 1, 0, 2))
    assert m.degree == 4
    assert state_counts(m.x_idx) == ((1, 1), (2, 1))


def test_monomial_validation():
    with pytest.raises(AlgebraError):
        Monomial(j_pairs=((0, 1),))
    with pytest.raises(AlgebraError):
        Monomial(x_idx=(-1,))


def test_monomial_product():
    a = Monomial(coeff=2.0, j_pairs=((1, 2),), x_idx=(1,))
    b = Monomial(coeff=-3.0, x_idx=(2,))
    c = a * b
    assert c.coeff == -6.0
    assert c.key == (((1, 2),), (1, 2))


def test_monomial_evaluate():
    j = np.array([[0.0, 5.0], [0.0, 0.0]])
    m = Monomial(coeff=2.0, j_pairs=((1, 2),), x_idx=(0, 1, 2))
    assert m.evaluate(j, np.array([3.0, 4.0])) == 2.0 * 5.0 * 3.0 * 4.0


def test_key_ignores_coefficient():
    assert Monomial(coeff=1.0, x_idx=(1,)).key == Monomial(coeff=7.0, x_idx=(1,)).key


# ------------------------------------------------------------- polynomials

def test_polynomial_collects_like_terms():
    p = Polynomial([Monomial.from_x(1), Monomial.from_x(1, coeff=2.0)])
    (m,) = p
    assert m.coeff == 3.0


def test_polynomial_drops_exact_cancellation():
    p = Polynomial([Monomial.from_x(1), Monomial.from_x(1, coeff=-1.0)])
    assert len(p) == 0
    assert tuple(p) == ()


def test_polynomial_addition_and_scaling():
    p = Polynomial.from_x(1) + Polynomial.from_x(2)
    assert len(p) == 2
    q = p * constant(4.0)
    assert sorted(m.coeff for m in q) == [4.0, 4.0]
    assert len(p * constant(0.0)) == 0


def test_polynomial_square_expands():
    p = Polynomial.from_x(1) + Polynomial.from_x(2)
    sq = p * p
    coeffs = {m.key: m.coeff for m in sq}
    assert len(coeffs) == 3
    assert coeffs[Monomial.from_x(1, 2).key] == 2.0
    assert coeffs[Monomial.from_x(1, 1).key] == 1.0


def test_polynomial_one_and_evaluate():
    j = np.zeros((2, 2))
    x = np.array([2.0, -1.0])
    assert Polynomial.one().evaluate(j, x) == 1.0
    p = Polynomial.from_x(1, 2, coeff=3.0)
    assert p.evaluate(j, x) == 3.0 * 2.0 * -1.0


def test_polynomial_rejects_non_monomials():
    with pytest.raises(AlgebraError):
        Polynomial([1.0])


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3),
                          st.integers(-3, 3)), max_size=6))
def test_polynomial_collection_is_idempotent(spec):
    monos = [Monomial(coeff=c, x_idx=(i, k)) for i, k, c in spec]
    p = Polynomial(monos)
    assert tuple(Polynomial(p)) == tuple(p)
    doubled = Polynomial(list(p) + list(p))
    assert tuple(doubled) == tuple(p * constant(2.0))


# ----------------------------------------------------------- multiplicity

def test_canonical_pair():
    assert canonical_pair((2, 1), True) == (1, 2)
    assert canonical_pair((2, 1), False) == (2, 1)
    assert canonical_pair((1, 2), True) == (1, 2)


def test_multiplicity_profile_symmetric_merging():
    # a symmetric ensemble counts (1, 2) and (2, 1) as one entry of multiplicity
    # two, E[J_12^2] = 1/N; otherwise they are two singletons
    mono = Monomial(j_pairs=((1, 2), (2, 1)))
    assert expected_value(mono, gaussian_oracle(2, symmetric=True)) == 0.5
    assert expected_value(mono, gaussian_oracle(2, symmetric=False)) == 0.0


@pytest.mark.parametrize("pairs,symmetric,want", [
    ((), False, True),                            # no coupling factors at all
    (((1, 2),), False, True),                     # singleton kills both sides
    (((1, 2), (1, 2)), False, True),              # doubled: variance only
    (((1, 2), (1, 2), (1, 2)), False, False),     # third moment leaks through
    (((1, 2), (1, 2), (3, 1)), False, True),      # singleton elsewhere rescues
    (((1, 2), (2, 1), (1, 2)), False, True),      # (2,1) is a separate singleton
    (((1, 2), (2, 1), (1, 2)), True, False),      # ... but merges when symmetric
    (((1, 2), (1, 2), (3, 4), (3, 4)), False, True),
])
def test_difference_vanishes_cases(pairs, symmetric, want):
    assert difference_vanishes(Monomial(j_pairs=pairs), symmetric=symmetric) is want


# ------------------------------------------------------------ expectations

def test_oracle_requires_matching_dimensions():
    with pytest.raises(AlgebraError):
        MomentOracle.from_ensemble(GAUSSIAN, VarianceProfile.offdiagonal(2),
                                   InitialLaw.uniform(GAUSSIAN, 3))
    with pytest.raises(AlgebraError):
        MomentOracle(0, lambda p, l: 0.0, lambda i, l: 0.0)


def test_symmetric_oracle_needs_symmetric_profile():
    m = np.zeros((2, 2))
    m[0, 1] = 1.0
    with pytest.raises(AlgebraError, match="symmetric"):
        MomentOracle.from_ensemble(GAUSSIAN, VarianceProfile(m),
                                   InitialLaw.uniform(GAUSSIAN, 2), symmetric=True)


def test_expected_value_doubled_pair():
    # E[J_12^2] = m_12 / N for any unit-variance entry law
    oracle = gaussian_oracle(2)
    mono = Monomial(j_pairs=((1, 2), (1, 2)))
    assert expected_value(mono, oracle) == pytest.approx(0.5)


def test_expected_value_singleton_is_zero():
    oracle = gaussian_oracle(3)
    assert expected_value(Monomial(j_pairs=((1, 2),)), oracle) == 0.0
    assert expected_value(Monomial(j_pairs=((1, 2), (1, 2), (2, 3))), oracle) == 0.0


def test_expected_value_zero_variance_pair():
    oracle = gaussian_oracle(3)  # diagonal variances vanish
    assert expected_value(Monomial(j_pairs=((1, 1), (1, 1))), oracle) == 0.0


def test_expected_value_gaussian_fourth_power():
    # E[J_12^4] = 3 m^2 / N^2
    oracle = gaussian_oracle(2)
    mono = Monomial(j_pairs=((1, 2),) * 4)
    assert expected_value(mono, oracle) == pytest.approx(3.0 / 4.0)


def test_expected_value_exponential_third_moment():
    profile = VarianceProfile.offdiagonal(2)
    oracle = MomentOracle.from_ensemble(EXPONENTIAL, profile,
                                        InitialLaw.uniform(GAUSSIAN, 2))
    mono = Monomial(j_pairs=((1, 2),) * 3)
    assert expected_value(mono, oracle) == pytest.approx(2.0 * 2 ** -1.5)


def test_expected_value_symmetric_pairing():
    oracle = gaussian_oracle(4, symmetric=True)
    mono = Monomial(j_pairs=((1, 2), (2, 1)))
    assert expected_value(mono, oracle) == pytest.approx(0.25)
    assert expected_value(mono, gaussian_oracle(4)) == 0.0


def test_expected_value_initial_factors():
    oracle = gaussian_oracle(2)
    assert expected_value(Monomial(x_idx=(1,)), oracle) == 0.0
    assert expected_value(Monomial(x_idx=(1, 1)), oracle) == 1.0
    assert expected_value(Monomial(x_idx=(1, 1, 1, 1)), oracle) == 3.0
    assert expected_value(Monomial(x_idx=(1, 1, 2, 2)), oracle) == 1.0
    assert expected_value(Monomial(coeff=2.5, x_idx=(0, 0)), oracle) == 2.5


def test_expected_value_product_formula():
    oracle = gaussian_oracle(3)
    mono = Monomial(coeff=6.0, j_pairs=((1, 2), (1, 2)), x_idx=(3, 3))
    assert expected_value(mono, oracle) == pytest.approx(6.0 * (1.0 / 3.0) * 1.0)


@pytest.mark.parametrize("dist,pairs,x_idx", [
    (GAUSSIAN, ((1, 2), (1, 2)), (1, 1)),
    (EXPONENTIAL, ((1, 2), (1, 2), (1, 2)), ()),
    (GAUSSIAN, ((1, 2), (2, 1)), (2, 2)),
    (EntryDistribution.RADEMACHER, ((1, 2), (1, 2), (2, 3), (2, 3)), (1,)),
])
def test_expected_value_against_monte_carlo(dist, pairs, x_idx):
    n = 3
    profile = VarianceProfile.offdiagonal(n)
    law = InitialLaw.uniform(GAUSSIAN, n)
    oracle = MomentOracle.from_ensemble(dist, profile, law)
    mono = Monomial(j_pairs=pairs, x_idx=x_idx)
    vals = []
    js = sample_couplings(dist, profile, False,
                          [RngStream(3, r, PURPOSE_COUPLING).generator() for r in range(40_000)])
    for r, j in enumerate(js):
        x0 = sample_initial(law, RngStream(3, r, PURPOSE_INITIAL))
        vals.append(mono.evaluate(j, x0))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - expected_value(mono, oracle)) <= 5 * se + 1e-12


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                min_size=1, max_size=4))
@settings(max_examples=60)
def test_singleton_rule_property(pairs):
    # a pair of multiplicity one forces a zero expectation
    from collections import Counter
    mono = Monomial(j_pairs=tuple(pairs), x_idx=())
    counts = Counter(pairs)
    oracle = gaussian_oracle(3, profile=VarianceProfile.full(3))
    if any(c == 1 for c in counts.values()):
        assert expected_value(mono, oracle) == 0.0
