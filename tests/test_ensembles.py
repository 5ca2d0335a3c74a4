"""Entry laws, variance profiles, coupling draws.

The exact moment formulas are checked three ways: against a frozen hand
table, against symbolic integration, and against large-sample Monte
Carlo.  The coupling sampler is checked byte for byte against the
one-matrix-at-a-time algorithm it replaced, which pins the draw order.
"""

import math
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import traced_peak
from rmsde import ensembles, experiments
from rmsde.algebra import Polynomial
from rmsde.ensembles import (EnsembleError, EntryDistribution, InitialLaw,
                             VarianceProfile, entry_moment, moment_growth_constant,
                             sample_couplings, sample_entries, sample_initial)
from rmsde.rng import PURPOSE_COUPLING, PURPOSE_INITIAL, RngStream

ALL_DISTS = list(EntryDistribution)

_x = sp.Symbol("x", real=True)
_u = sp.Symbol("u", nonnegative=True)


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
        # A = E - 1 with E ~ Exp(1): split E at 1 and write u = |E - 1| on
        # both sides, so sympy never integrates |E - 1|**ell across the kink
        val = (sp.integrate(p.subs(_x, -_u) * sp.exp(_u - 1), (_u, 0, 1))
               + sp.integrate(p.subs(_x, _u) * sp.exp(-_u - 1), (_u, 0, sp.oo)))
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


def two_bits_minus_one(size, rng):
    """The Rademacher formula the sign lookup replaced: ``2 * bit - 1``."""
    signs = rng.integers(0, 2, size=size).astype(np.float64)
    signs *= 2.0
    signs -= 1.0
    return signs


@pytest.mark.parametrize("size", [1, 7, 63, 1025, (3, 5), (4, 129), 0, 32896, (2, 3, 7)])
def test_rademacher_signs_have_the_bytes_of_two_bits_minus_one(size):
    # three consecutive calls on one generator, as the tiles of one draw make
    got_rng, want_rng = RngStream(7).generator(), RngStream(7).generator()
    for _ in range(3):
        got = sample_entries(EntryDistribution.RADEMACHER, size, got_rng)
        want = two_bits_minus_one(size, want_rng)
        assert (got.dtype, got.shape, got.flags.c_contiguous) == \
            (want.dtype, want.shape, True)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "full"])
@pytest.mark.parametrize("n, repeated", [(100, False), (20, True)],
                         ids=["tiles", "repeated-generator"])
def test_rademacher_couplings_keep_the_bytes_of_two_bits_minus_one(
        monkeypatch, symmetric, n, repeated):
    # at n = 100 each matrix draws two tiles of rows from its own generator;
    # at n = 20 one repeated generator draws groups of matrices at a time
    def stack():
        gens = [RngStream(4, r, PURPOSE_COUPLING).generator() for r in range(5)]
        if repeated:
            gens = [gens[0]] * 50
        return sample_couplings(EntryDistribution.RADEMACHER, VarianceProfile.offdiagonal(n),
                                symmetric, gens)

    got = stack()
    monkeypatch.setattr(ensembles, "sample_entries",
                        lambda dist, size, rng: two_bits_minus_one(size, rng))
    assert got.tobytes() == stack().tobytes()


def test_uniform_samples_stay_in_range():
    rng = RngStream(7).generator()
    x = sample_entries(EntryDistribution.UNIFORM_CENTERED, 10_000, rng)
    assert np.all(np.abs(x) <= math.sqrt(3.0))


def test_exponential_samples_bounded_below():
    rng = RngStream(7).generator()
    x = sample_entries(EntryDistribution.EXPONENTIAL_CENTERED, 10_000, rng)
    assert x.min() > -1.0


@pytest.mark.parametrize("first,second", [(1, 1), (1, 2), (3, 5), (7, 64), (0, 9)])
@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.value)
def test_consecutive_entry_draws_equal_one_draw(dist, first, second):
    # the coupling sampler draws each matrix tile by tile; its bytes rest on this,
    # also where an odd count leaves half of a 64-bit word to the next draw
    def one(size):
        return sample_entries(dist, size, RngStream(5, 2, PURPOSE_COUPLING).generator())

    def two(size1, size2):
        gen = RngStream(5, 2, PURPOSE_COUPLING).generator()
        return np.concatenate([sample_entries(dist, size1, gen), sample_entries(dist, size2, gen)])

    assert one(first + second).tobytes() == two(first, second).tobytes()
    for n in (1, 3, 65):  # (rows, N) tiles of full rows
        assert one((first + second, n)).tobytes() == two((first, n), (second, n)).tobytes()


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

def variances(profile):
    """The profile's (N, N) variances, built densely."""
    n = profile.n
    return np.array([[profile.variance(i, j) for j in range(n)] for i in range(n)])


def test_offdiagonal_profile():
    p = VarianceProfile.offdiagonal(4)
    assert p.n == 4 and p.m is None  # a preset holds no matrix
    m = variances(p)
    assert np.all(np.diag(m) == 0.0)
    assert np.all(m[~np.eye(4, dtype=bool)] == 1.0)
    assert p.variance(0, 1) == 1.0 and p.variance(2, 2) == 0.0
    assert p.is_symmetric


def test_full_profile_is_all_ones():
    p = VarianceProfile.full(3)
    assert p.m is None
    assert np.all(variances(p) == 1.0)
    assert p.is_symmetric


def test_dense_profile_variances_are_its_matrix():
    m = np.array([[0.0, 2.0], [0.5, 1.0]])
    p = VarianceProfile(m)
    assert p.n == 2 and p.diagonal is None
    assert variances(p).tobytes() == m.tobytes()
    assert not p.is_symmetric


@pytest.mark.parametrize("preset", [VarianceProfile.offdiagonal, VarianceProfile.full])
def test_preset_profile_holds_no_matrix(preset):
    # at N = 2048 a coupling is 32 MiB; a preset is its size and its diagonal,
    # and it knows it is symmetric without an N x N compare
    n = 2048
    assert traced_peak(lambda: preset(n).is_symmetric) < 0.01 * 8 * n * n


@pytest.mark.parametrize("n,diagonal", [(-1, 0.0), (3, 0.5), (3, None), (2.0, 1.0)])
def test_preset_profile_rejects_a_bad_size_or_diagonal(n, diagonal):
    with pytest.raises(EnsembleError, match="preset"):
        VarianceProfile(None, n, diagonal)


def test_profile_rejects_nonsquare():
    with pytest.raises(EnsembleError, match="square"):
        VarianceProfile(np.ones((2, 3)))


def test_profile_rejects_negative_entries():
    with pytest.raises(EnsembleError):
        VarianceProfile(np.array([[1.0, -0.5], [0.0, 1.0]]))


def test_profile_is_frozen():
    p = VarianceProfile(np.ones((2, 2)))
    with pytest.raises(ValueError):
        p.m[0, 0] = 9.0
    with pytest.raises(FrozenInstanceError):
        VarianceProfile.full(2).diagonal = 0.0


# ------------------------------------------------------- coupling matrices

def draw(dist, profile, symmetric, seed=0, replica=0):
    """Scaled coupling ``J = A / sqrt(N)`` of one replica from its stream."""
    return sample_couplings(dist, profile, symmetric,
                            [RngStream(seed, replica, PURPOSE_COUPLING).generator()])[0]


def reference_coupling(dist, profile, symmetric, gen):
    """One ``J``, drawn one matrix at a time: the algorithm the sampler replaced.
    ``profile`` is dense."""
    n = profile.n
    scale = np.sqrt(profile.m)
    if symmetric:
        iu = np.triu_indices(n)
        a = np.zeros((n, n))
        a[iu] = scale[iu] * sample_entries(dist, len(iu[0]), gen)
        a = a + np.triu(a, 1).T
    else:
        a = scale * sample_entries(dist, (n, n), gen)
    return a / math.sqrt(n)


def banded(n):
    """Symmetric tridiagonal profile: zero variances off the band."""
    return VarianceProfile(np.eye(n) + 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1)))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 63, 64, 65, 129, 256])
@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.value)
def test_sampler_is_byte_identical_to_reference(dist, n):
    # one stream per replica, and one stream shared by every path (the Monte Carlo form)
    def per_replica():
        return [RngStream(5, r, PURPOSE_COUPLING).generator() for r in range(3)]

    def shared():
        return [RngStream(5, 0, PURPOSE_COUPLING).generator()] * 3

    for profile in (VarianceProfile.offdiagonal(n), VarianceProfile.full(n), banded(n)):
        # a profile file that holds the same variances: for a preset, the general path
        file = VarianceProfile(variances(profile))
        for symmetric in (True, False):
            for gens in (per_replica, shared):
                got = sample_couplings(dist, profile, symmetric, gens())
                want = np.stack([reference_coupling(dist, file, symmetric, g)
                                 for g in gens()])
                assert got.shape == (3, n, n)
                assert got.tobytes() == want.tobytes()
                assert sample_couplings(dist, file, symmetric, gens()).tobytes() == got.tobytes()


@pytest.mark.parametrize("n", [3, 4, 70])
@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.value)
def test_repeated_generator_draws_like_one_matrix_at_a_time(dist, n):
    # a list of one generator repeated is one draw of all its matrices; one
    # call per matrix on the same generator walks the per-generator tile path
    c = 5
    for profile in (VarianceProfile.offdiagonal(n), banded(n)):
        for symmetric in (True, False):
            gen = RngStream(9, 1, PURPOSE_COUPLING).generator()
            want = np.empty((c, n, n))
            for k in range(c):
                sample_couplings(dist, profile, symmetric, [gen], out=want[k:k + 1])
            got = sample_couplings(dist, profile, symmetric,
                                   [RngStream(9, 1, PURPOSE_COUPLING).generator()] * c)
            assert got.tobytes() == want.tobytes()


def test_sampler_fills_a_workspace_like_fresh_draws():
    # blocks of 4, 4 and a partial 2 drawn into one NaN-filled workspace match the
    # fresh stack byte for byte; the banded profile has zero variances
    n, width, replicas = 6, 4, 10
    profile = banded(n)
    zero = profile.m == 0.0

    def gens(rows):
        return [RngStream(5, r, PURPOSE_COUPLING).generator() for r in rows]

    for dist in ALL_DISTS:
        for symmetric in (True, False):
            fresh = sample_couplings(dist, profile, symmetric, gens(range(replicas)))
            work = np.empty((width, n, n))
            for lo in range(0, replicas, width):
                rows = range(lo, min(lo + width, replicas))
                work.fill(np.nan)
                got = sample_couplings(dist, profile, symmetric, gens(rows),
                                       out=work[:len(rows)])
                assert np.shares_memory(got, work) and got.shape == (len(rows), n, n)
                assert got.tobytes() == fresh[lo:rows.stop].tobytes()
                assert np.all(np.isnan(work[len(rows):]))  # the rest is left alone
                if symmetric:  # + 0.0: no -0.0 where the variance is zero
                    assert not np.signbit(got[:, zero]).any()


def packed_draws(dist, profile, gens):
    """Packed upper triangles of the symmetric draws of ``gens()``, and the
    full draws' upper triangles, row-major."""
    n = profile.n
    got = sample_couplings(dist, profile, True, gens(),
                           out=np.full((len(gens()), n * (n + 1) // 2), np.nan))
    upper = np.triu_indices(n)
    return got, sample_couplings(dist, profile, True, gens())[:, upper[0], upper[1]]


@pytest.mark.parametrize("n", [1, 3, 64, 65, 200])
@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.value)
def test_packed_draw_is_the_full_draws_upper_triangle(dist, n):
    # per-replica streams, and one stream repeated, which the full draw takes as one group
    def per_replica():
        return [RngStream(5, r, PURPOSE_COUPLING).generator() for r in range(3)]

    def shared():
        return [RngStream(5, 0, PURPOSE_COUPLING).generator()] * 3

    for profile in (VarianceProfile.offdiagonal(n), VarianceProfile.full(n), banded(n)):
        for gens in (per_replica, shared):
            got, want = packed_draws(dist, profile, gens)
            assert got.shape == (3, n * (n + 1) // 2)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["profile_3x3.csv", "profile_4x4_band.csv"])
@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.value)
def test_packed_draw_of_a_profile_file(dist, name):
    # the banded file's zero variances come out +0.0 in the packed layout too
    m = np.loadtxt(Path(__file__).with_name(name), delimiter=",", ndmin=2)
    profile = VarianceProfile(m)
    got, want = packed_draws(dist, profile,
                             lambda: [RngStream(2, r, PURPOSE_COUPLING).generator()
                                      for r in range(4)])
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[:, m[np.triu_indices(len(m))] == 0.0]).any()


def test_packed_workspace_needs_a_symmetric_ensemble_and_its_length():
    gens = [RngStream(0, r, PURPOSE_COUPLING).generator() for r in range(2)]
    with pytest.raises(EnsembleError, match="symmetric"):
        sample_couplings(EntryDistribution.GAUSSIAN, VarianceProfile.full(3), False, gens,
                         out=np.empty((2, 6)))
    for out in (np.empty((2, 5)), np.empty((2, 9)), np.empty((1, 6)),
                np.empty((2, 6), dtype=np.float32), np.empty((2, 12))[:, ::2]):
        with pytest.raises(EnsembleError, match=r"out must be .* shape \(2, 6\)"):
            sample_couplings(EntryDistribution.GAUSSIAN, VarianceProfile.full(3), True, gens,
                             out=out)


def test_sampler_rejects_a_workspace_of_the_wrong_layout():
    profile = VarianceProfile.full(3)
    gens = [RngStream(0, r, PURPOSE_COUPLING).generator() for r in range(2)]
    for out in (np.empty((3, 3, 3)), np.empty((2, 3, 3), dtype=np.float32),
                np.empty((2, 3, 6))[:, :, ::2]):
        with pytest.raises(EnsembleError, match="out must be"):
            sample_couplings(EntryDistribution.GAUSSIAN, profile, False, gens, out=out)


@pytest.mark.parametrize("n,paths", [(3, 8192), (64, 64), (130, 16)])
def test_symmetric_draw_holds_no_second_stack(n, paths):
    # numpy copies a transposed source that overlaps its target whole, so a
    # mirror of the whole stack at once would hold a second stack: the Monte
    # Carlo form, thousands of small matrices, reads 1.0 stacks that way
    out = np.empty((paths, n, n))
    profile = VarianceProfile.offdiagonal(n)
    gens = [RngStream(0, 0, PURPOSE_COUPLING).generator()] * paths
    peak = traced_peak(lambda: sample_couplings(EntryDistribution.GAUSSIAN, profile, True,
                                                gens, out=out))
    assert peak <= 0.2 * out.nbytes


def counting_sampler(monkeypatch):
    """Wrap the sampler the experiments call; each call's generators and
    ``out`` are recorded."""
    calls = []

    def counted(dist, profile, symmetric, gens, out=None):
        calls.append((list(gens), out))
        return sample_couplings(dist, profile, symmetric, gens, out=out)

    monkeypatch.setattr(experiments, "sample_couplings", counted)
    return calls


def test_paired_chunk_samples_once_per_arm(monkeypatch):
    states = []

    def counted(dist, profile, symmetric, gens, out=None):
        states.append([g.bit_generator.state for g in gens])
        return sample_couplings(dist, profile, symmetric, gens, out=out)

    monkeypatch.setattr(experiments, "sample_couplings", counted)
    # 19 replicas at n = 128 run as blocks of 4, 4, 4, 4 and 3 per arm
    cfg = experiments.ExperimentConfig(sizes=(128,), replicas=19, dt=0.05, horizon=0.1,
                                       seed=4, coupling_seed=9)
    assert experiments._block_width(128, 2) == 4
    experiments.run_universality(cfg)
    want = []
    for block in (range(0, 4), range(4, 8), range(8, 12), range(12, 16), range(16, 19)):
        drawn = [RngStream(9, r, PURPOSE_COUPLING).generator().bit_generator.state
                 for r in block]
        want += [drawn, drawn]  # arm a, then arm b, from the same fresh streams
    assert states == want


def test_monte_carlo_samples_once_per_chunk(monkeypatch):
    calls = counting_sampler(monkeypatch)
    # 8200 paths at n = 2 run as chunks of 8192 and 8, each on one shared stream
    cfg = experiments.ExperimentConfig(sizes=(2,), dt=0.05, mc_paths=8200)
    experiments._mc_moments(cfg, 2, [([Polynomial.from_x(1)], (0.1,))])
    assert [len(gens) for gens, _ in calls] == [8192, 8]
    assert all(len({id(g) for g in gens}) == 1 for gens, _ in calls)


@pytest.mark.parametrize("scale", [2.0, 1.0], ids=["aging", "rayleigh"])
def test_spectra_draw_every_replica_arm_into_one_coupling(monkeypatch, scale):
    # one worker's 2 * 3 replica-arms at n = 9 reuse one packed (1, N(N+1)/2)
    # coupling, and their rules, with aging's doubled nodes, have the bytes of
    # the rules of fresh packed draws of scale * J
    n, replicas = 9, 3
    cfg = experiments.ExperimentConfig(sizes=(n,), replicas=replicas)
    args = (cfg, cfg.make_profile(n), InitialLaw(cfg.init_dist, n), replicas)
    calls = counting_sampler(monkeypatch)
    got = experiments._spectra(*args)
    outs = [out for _, out in calls]
    assert len(outs) == 2 * replicas and outs[0].shape == (1, n * (n + 1) // 2)
    assert all(out is outs[0] for out in outs)
    monkeypatch.setattr(experiments, "sample_couplings",
                        lambda dist, profile, symmetric, gens, out=None:
                        scale * sample_couplings(dist, profile, symmetric, gens,
                                                 out=np.empty(out.shape)))
    want = experiments._spectra(*args)
    assert [(arm, r, (scale * theta).tobytes(), w.tobytes()) for arm, r, theta, w in got] == \
        [(arm, r, theta.tobytes(), w.tobytes()) for arm, r, theta, w in want]


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
    # rademacher entries through variance 4 must land exactly on +-2 / sqrt(N)
    p = VarianceProfile(np.full((3, 3), 4.0))
    j = draw(EntryDistribution.RADEMACHER, p, False)
    assert set(np.unique(np.abs(j))) == {2.0 / math.sqrt(3)}


def test_j_is_a_over_sqrt_n():
    # the draw is scaled, so J = A / sqrt(N) has entries of size 1/sqrt(N)
    p = VarianceProfile.offdiagonal(5)
    j = draw(EntryDistribution.RADEMACHER, p, False)
    assert set(np.unique(np.abs(j[variances(p) > 0]))) == {1.0 / math.sqrt(5)}


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
    assert np.all(a[variances(p) == 0.0] == 0.0)
    if symmetric:
        assert np.array_equal(a, a.T)
    assert a.shape == (n, n)


def test_offdiagonal_second_moment_statistics():
    # pooled second moment over entries and replicas ~ m_ij = 1
    p = VarianceProfile.offdiagonal(10)
    js = sample_couplings(EntryDistribution.UNIFORM_CENTERED, p, False,
                          [RngStream(3, r, PURPOSE_COUPLING).generator() for r in range(200)])
    sq = 10 * js[:, variances(p) > 0].ravel() ** 2  # A^2 = N J^2
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 1.0) <= 5 * se


# ----------------------------------------------------------- initial laws

def test_uniform_initial_law():
    law = InitialLaw(EntryDistribution.GAUSSIAN, 4)
    assert law.n == 4
    assert law.moment(1, 2) == 1.0
    assert law.moment(4, 4) == 3.0


def test_initial_law_moment_is_one_based():
    law = InitialLaw(EntryDistribution.RADEMACHER, 2)
    assert law.moment(1, 4) == 1.0
    assert law.moment(2, 4) == 1.0
    with pytest.raises(IndexError):
        law.moment(0, 2)
    with pytest.raises(IndexError):
        law.moment(3, 2)


def test_initial_law_rejects_empty_and_junk():
    for n in (0, -1):
        with pytest.raises(EnsembleError):
            InitialLaw(EntryDistribution.GAUSSIAN, n)
    with pytest.raises(EnsembleError):
        InitialLaw("gaussian", 3)  # names must be resolved first


def test_sample_initial_shapes_and_determinism():
    law = InitialLaw(EntryDistribution.UNIFORM_CENTERED, 7)
    s = RngStream(11, 0, PURPOSE_INITIAL)
    x = sample_initial(law, s)
    assert x.shape == (7,)
    assert np.array_equal(x, sample_initial(law, s))


@pytest.mark.parametrize("dist", list(EntryDistribution))
def test_sample_initial_is_one_draw_of_the_entry_law(dist):
    # the initial condition is n iid entries, drawn from the stream's
    # generator in one call
    for n in (1, 5):
        s = RngStream(4, 2, PURPOSE_INITIAL)
        got = sample_initial(InitialLaw(dist, n), s)
        assert got.tobytes() == sample_entries(dist, n, s.generator()).tobytes()

