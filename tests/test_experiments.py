"""Paired-ensemble experiment drivers: pairing exactness, drop handling,
thread-count invariance, and the spectral flow computations with their
Lanczos-Gauss rule checked against the eigh oracle."""

import math
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import traced_peak

from rmsde import dynamics, experiments
from rmsde.algebra import Polynomial
from rmsde.config import experiment_config, parse_config
from rmsde.dynamics import ParameterError, SimulationBlowupError, SystemParams
from rmsde.ensembles import (EntryDistribution, InitialLaw, VarianceProfile, sample_couplings,
                             sample_initial)
from rmsde.experiments import (AgingReport, ExperimentConfig, ExperimentError,
                               SystemTemplate, autocorr_item, default_suite,
                               gradsq_item, hamiltonian_item, hopfield_suite,
                               overlap_item, rayleigh_quotient_curve,
                               run_aging, run_concentration, run_hopfield,
                               run_rayleigh, run_taylor_vs_mc,
                               run_universality, _aging_ratios_one, _gauss_rule,
                               _paired_values)
from rmsde.observables import BuildingBlock, SuiteItem
from rmsde.rng import PURPOSE_COUPLING, PURPOSE_INITIAL, RngStream

GAUSSIAN = EntryDistribution.GAUSSIAN
RADEMACHER = EntryDistribution.RADEMACHER


def small_cfg(**kw):
    base = dict(sizes=(4, 8), replicas=24, dt=0.02, horizon=0.1, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- template

def scaled_coupling(n):
    return sample_couplings(GAUSSIAN, VarianceProfile.offdiagonal(n), True,
                            [RngStream(0, 0, PURPOSE_COUPLING).generator()])[0]


def test_template_build_plain():
    j = scaled_coupling(3)
    t = SystemTemplate(confinement=2.0, beta=8.0, thresholds=0.3)
    p = t.build(j)
    assert np.array_equal(p.coupling, j)
    assert np.array_equal(p.lam, -2.0 * np.eye(3))
    assert np.allclose(p.h, 0.3)
    assert np.allclose(p.sigma[0], 0.25)
    assert p.constant_diffusion


def test_template_langevin_doubles_coupling():
    j = scaled_coupling(3)
    p = SystemTemplate(langevin=True, beta=math.inf).build(j.copy())
    assert np.array_equal(p.coupling, 2.0 * j)
    assert np.all(p.sigma == 0.0)


def test_template_langevin_doubles_the_coupling_in_place():
    j = scaled_coupling(3)
    want = 2.0 * j
    p = SystemTemplate(langevin=True).build(j)
    assert np.shares_memory(p.coupling, j)
    assert np.array_equal(p.coupling, want)
    # a read-only coupling is doubled into a new array instead
    j.flags.writeable = False
    assert np.array_equal(SystemTemplate(langevin=True).build(j).coupling, 2.0 * want)


def test_template_vector_thresholds():
    p = SystemTemplate(thresholds=(0.1, -0.2)).build(scaled_coupling(2))
    assert np.array_equal(p.h, [0.1, -0.2])


def test_template_rejects_bad_beta():
    with pytest.raises(ParameterError, match="beta"):
        SystemTemplate(beta=0.0).build(scaled_coupling(2))


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ExperimentError):
        ExperimentConfig(replicas=0)
    with pytest.raises(ExperimentError):
        ExperimentConfig(sizes=())
    with pytest.raises(ExperimentError):
        ExperimentConfig(threads=0)


def test_coupling_seed_defaults_to_seed():
    assert ExperimentConfig(seed=9).jseed == 9
    assert ExperimentConfig(seed=9, coupling_seed=4).jseed == 4


def test_make_profile_presets():
    full = ExperimentConfig(profile="full").make_profile(3)
    assert all(full.variance(i, j) == 1.0 for i in range(3) for j in range(3))
    off = ExperimentConfig().make_profile(3)
    assert all(off.variance(i, i) == 0.0 for i in range(3))
    with pytest.raises(ExperimentError, match="preset"):
        ExperimentConfig(profile="banded").make_profile(3)


def test_make_profile_fixed_matrix():
    fixed = VarianceProfile.offdiagonal(4)
    cfg = ExperimentConfig(profile=fixed, sizes=(4,))
    assert cfg.make_profile(4) is fixed
    with pytest.raises(ExperimentError, match="cannot run at size"):
        cfg.make_profile(8)


def test_suite_item_names_and_times():
    assert autocorr_item(0.5, 0.5).name == "autocorr[0.5,0.5]"
    assert hamiltonian_item(1.0).name == "hamiltonian[1]"
    assert gradsq_item(0.25).times == (0.25, 0.25)
    assert overlap_item(0.7).times == (0.0, 0.7)
    assert len(default_suite()) == 2
    assert len(hopfield_suite()) == 4


# ------------------------------------------------------------ universality

def test_identical_distributions_pair_exactly():
    cfg = small_cfg(dist_a=GAUSSIAN, dist_b=GAUSSIAN)
    report = run_universality(cfg)
    for row in report.rows:
        assert row.delta == 0.0
        assert row.se == 0.0
        assert row.mean_a == row.mean_b
    # no positive deltas, so no slope can be fit
    assert all(fit is None for fit in report.slopes.values())


def test_zero_profile_pairs_exactly_across_distributions():
    # all variances zero: both arms see the same (zero) coupling even
    # though the entry laws differ, so the pairing cancels exactly
    cfg = small_cfg(sizes=(4,), profile=VarianceProfile(np.zeros((4, 4))),
                    dist_a=GAUSSIAN, dist_b=RADEMACHER)
    report = run_universality(cfg)
    for row in report.rows:
        assert row.delta == 0.0
        assert row.se == 0.0


def test_universality_distinct_arms():
    cfg = small_cfg(replicas=40)
    report = run_universality(cfg)
    names = {r.observable for r in report.rows}
    assert names == {"autocorr[0.1,0.1]", "hamiltonian[0.1]"}
    for row in report.rows:
        assert row.replicas == 40
        assert row.se > 0.0
        assert math.isfinite(row.delta)
    assert {r.n for r in report.rows} == {4, 8}


def test_universality_row_lookup():
    report = run_universality(small_cfg())
    (row,) = [r for r in report.rows if r.n == 4 and r.observable == "hamiltonian[0.1]"]
    assert row.n == 4
    assert not [r for r in report.rows if r.n == 5]


def test_universality_slope_fit_with_three_sizes():
    cfg = small_cfg(sizes=(4, 8, 16), replicas=60)
    report = run_universality(cfg)
    for fit in report.slopes.values():
        assert fit is not None
        assert fit.lo <= fit.slope <= fit.hi


def test_universality_builds_one_system_per_arm_and_chunk(monkeypatch):
    calls = []
    build = SystemTemplate.build

    def counted(self, coupling):
        calls.append(np.shape(coupling))
        return build(self, coupling)

    monkeypatch.setattr(SystemTemplate, "build", counted)
    run_universality(small_cfg(sizes=(4, 8, 16), replicas=5))
    # each size is one block of 5 replicas, both arms in one stack
    assert calls == [(10, 4, 4), (10, 8, 8), (10, 16, 16)]


class DoubledCoupling(SystemTemplate):
    def build(self, coupling):
        return super().build(2 * np.asarray(coupling))


def test_universality_integrates_the_system_build_returns():
    # the paired path must not rebuild the drift around an overridden build
    cfg = small_cfg(replicas=6)
    doubled = run_universality(replace(cfg, template=DoubledCoupling()))
    flow = run_universality(replace(cfg, template=SystemTemplate(langevin=True)))
    assert doubled.rows == flow.rows
    assert doubled.rows != run_universality(cfg).rows


def paired_peak(langevin, replicas, n=128, steps=50):
    # traced peak of one _paired_values run at N = n
    cfg = small_cfg(sizes=(n,), replicas=replicas, dt=0.02, horizon=0.02 * steps,
                    template=SystemTemplate(langevin=langevin),
                    suite=default_suite(0.02 * steps))
    return traced_peak(lambda: _paired_values(cfg, n))


@pytest.mark.parametrize("langevin,arms", [(False, 2), (True, 2)])
def test_paired_chunk_frees_each_arm_before_the_next(langevin, arms):
    # N = 128 at 200 steps streams blocks of 4 replicas per arm through one
    # workspace: the stack's starts, one (2 * width, N, N) coupling block that
    # both arms sample into and the integrator reads as its drift, and one
    # noise chunk of 128 of its steps for the 4 replicas only, with a quarter
    # of a block of slack for the snapshots, rows and streams; a drift
    # buffer, a block's system that outlived it or a Langevin doubling into a
    # new array would add a block, the noise of both arms half a block, and
    # the noise of all 200 steps 0.28 of a block
    n, steps, width = 128, 200, 4
    assert experiments._block_width(n, arms) == width
    c = arms * width
    chunk = min(steps, dynamics._NOISE_CHUNK_BYTES // (8 * c * n))
    assert chunk == 128
    block = 8 * c * n * n
    workspace = 8 * (c * n + chunk * width * n) + block
    assert paired_peak(langevin, 32, steps=steps) < workspace + block // 4


@pytest.mark.parametrize("n", [8, 300])
def test_paired_source_draws_the_replicas_rows_once(monkeypatch, n):
    # the arms share one noise chunk of k rows, which the integrator reads for
    # both arms' 2k rows; at N = 300 a block is one replica, whose two rows
    # fall in different drift blocks and read the same noise row
    shapes = []
    real = experiments.euler_maruyama

    def recorded(params, x0s, icfg, draw, **kwargs):
        def traced(lo, hi):
            xi = draw(lo, hi)
            shapes.append((len(x0s), xi.shape))
            return xi
        return real(params, x0s, icfg, traced, **kwargs)

    monkeypatch.setattr(experiments, "euler_maruyama", recorded)
    width = experiments._block_width(n, 2)
    cfg = small_cfg(sizes=(n,), replicas=3, dt=0.05, horizon=0.1,
                    suite=default_suite(0.1))
    _paired_values(cfg, n)
    k = [min(width, 3 - lo) for lo in range(0, 3, width)]
    assert shapes == [(2 * rows, (2, rows, n)) for rows in k]


def test_paired_drift_starts_on_a_cache_line(monkeypatch):
    # the coupling workspace is the drift of every block, so it is aligned,
    # and the build returns the same memory unless a template copies it
    starts = []
    real = dynamics._euler_block

    def recorded(*args, **kwargs):
        starts.append(args[0].ctypes.data % 64)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_euler_block", recorded)
    for n, replicas, langevin in ((128, 6, False), (17, 5, True), (300, 2, False)):
        cfg = small_cfg(sizes=(n,), replicas=replicas, dt=0.05, horizon=0.1,
                        template=SystemTemplate(langevin=langevin), suite=default_suite(0.1))
        _paired_values(cfg, n)
    assert len(starts) == 2 + 1 + 4
    assert set(starts) == {0}


def test_paired_noise_memory_does_not_grow_with_the_step_count():
    # the noise streams through one chunk buffer, so 5000 steps hold no more
    # than 50: the noise of the whole run would be 5000 * 8 * 128 * 8 bytes,
    # 39 MiB, for each block of 4 replicas per arm
    short, long = (paired_peak(False, 8, steps=steps) for steps in (50, 5000))
    assert abs(long - short) < 2 ** 20


def test_paired_values_hold_one_coupling_stack():
    # one workspace however many replicas: the peak is the same within 1 MiB
    # for 16 and 128 replicas, with either template
    for langevin in (False, True):
        peaks = [paired_peak(langevin, replicas) for replicas in (16, 128)]
        assert abs(peaks[1] - peaks[0]) < 2 ** 20


@pytest.mark.parametrize("threads", [1, 2])
def test_blowup_step_is_the_earliest_over_every_block(monkeypatch, threads):
    # the state grows about tenfold per step, so a start of 1e300 overflows
    # several steps after one of 1e305; blocks of one replica per arm put
    # replicas 1 and 66 in blocks that 2 workers deal to different workers
    n = 4
    monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_BYTES", 2 * 8 * n * n)
    cfg = small_cfg(sizes=(n,), replicas=70, dt=1.0, horizon=12.0, threads=threads,
                    template=SystemTemplate(confinement=-9.0))

    def blowup_step(scales):  # the starts of the replicas in scales, scaled
        monkeypatch.setattr(experiments, "sample_initial", lambda law, stream: sample_initial(
            law, stream) * scales.get(stream.stream, 1.0))
        with pytest.raises(SimulationBlowupError) as exc:
            run_universality(cfg)
        return exc.value.step

    late = blowup_step({1: 1e300})
    early = blowup_step({66: 1e305})
    assert early < late
    assert blowup_step({1: 1e300, 66: 1e305}) == early


def test_universality_needs_two_replicas():
    with pytest.raises(ExperimentError, match="replicas"):
        run_universality(small_cfg(replicas=1))


def test_universality_custom_suite():
    cfg = small_cfg(suite=(overlap_item(0.1),))
    report = run_universality(cfg)
    assert {r.observable for r in report.rows} == {"overlap[0.1]"}


def test_universality_deterministic_and_thread_invariant():
    cfg = small_cfg(sizes=(4,), replicas=100)
    base = run_universality(cfg)
    again = run_universality(cfg)
    threaded = run_universality(replace(cfg, threads=3))
    assert base.rows == again.rows
    assert base.rows == threaded.rows


def test_many_workers_on_small_blocks_write_the_same_rows(monkeypatch):
    # 8 worker processes, more than there are cores, each send back the rows
    # of their blocks; a lost or misplaced row, or a mixed-up size, would
    # change the report
    monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_BYTES", 2 * 8 * 8 * 8)
    cfg = small_cfg(sizes=(4, 8), replicas=40, template=SystemTemplate(langevin=True))
    base = run_universality(cfg)
    threaded = run_universality(replace(cfg, threads=8))
    assert threaded.rows == base.rows


# ---------------------------------------------------------------- workers

class UnpicklableError(Exception):
    def __init__(self, what, code):  # the default reduce rebuilds it from one argument
        super().__init__(f"{what} ({code})")


def test_fan_out_runs_later_shares_in_other_processes():
    done = experiments._fan_out(lambda share: (share, os.getpid()), [0, 1, 2])
    assert [share for share, _ in done] == [0, 1, 2]
    pids = [pid for _, pid in done]
    assert pids[0] == os.getpid() and len(set(pids)) == 3


def test_fan_out_holds_blas_at_one_thread_and_restores_the_count():
    # every share runs at one BLAS thread, which the forked workers inherit;
    # the caller's count comes back after the run, also when a share fails
    get, set_threads = experiments._blas_threads()  # numpy's wheels bundle OpenBLAS
    saved = get()
    set_threads(2)
    try:
        assert experiments._fan_out(lambda share: get(), [0, 1, 2]) == [1, 1, 1]
        assert get() == 2
        for bad in (0, 1):
            def work(share):
                if share == bad:
                    raise KeyError(share)
                return get()

            with pytest.raises(KeyError):
                experiments._fan_out(work, [0, 1, 2])
            assert get() == 2
        assert experiments._fan_out(lambda share: get(), [0]) == [2]  # one share: untouched
    finally:
        set_threads(saved)


def test_fan_out_runs_without_the_blas_library(monkeypatch):
    monkeypatch.setattr(experiments, "_blas_threads", lambda: None)
    done = experiments._fan_out(lambda share: (share, os.getpid()), [0, 1])
    assert [share for share, _ in done] == [0, 1]


@pytest.mark.parametrize("exc", [ExperimentError("share 1 failed"), SimulationBlowupError(7),
                                 KeyboardInterrupt("share 1 interrupted")])
def test_fan_out_reraises_a_failure_of_the_second_share(exc):
    def work(share):
        if share == 1:
            raise exc
        return share

    with pytest.raises(type(exc)) as got:
        experiments._fan_out(work, [0, 1, 2])
    assert str(got.value) == str(exc)
    assert getattr(got.value, "step", None) == getattr(exc, "step", None)


def test_fan_out_reraises_the_first_failure_in_share_order():
    def work(share):
        if share == 2:
            raise KeyError("share 2")
        if share == 1:
            time.sleep(0.2)  # fails last, but comes first in share order
            raise ValueError("share 1")
        return share

    with pytest.raises(ValueError, match="share 1"):
        experiments._fan_out(work, [0, 1, 2])


def test_fan_out_names_a_failure_it_cannot_send():
    def work(share):
        if share:
            raise UnpicklableError("no reduce", 3)

    with pytest.raises(RuntimeError, match=r"^UnpicklableError: no reduce \(3\)$"):
        experiments._fan_out(work, [0, 1])


def test_fan_out_reports_a_worker_that_sends_nothing():
    def work(share):
        if share:
            os._exit(3)
        return share

    with pytest.raises(RuntimeError, match="without sending its result"):
        experiments._fan_out(work, [0, 1])


def test_fan_out_kills_its_workers_when_its_own_share_fails():
    # the worker would sleep a minute; the caller kills and reaps it instead
    def work(share):
        if share == 0:
            raise ExperimentError("own share failed")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ExperimentError, match="own share failed"):
        experiments._fan_out(work, [0, 1])
    assert time.monotonic() - start < 30


def test_coupling_seed_changes_only_the_matrices():
    # identical arms stay exactly paired whatever the coupling seed is
    cfg = small_cfg(dist_a=GAUSSIAN, dist_b=GAUSSIAN, coupling_seed=123)
    report = run_universality(cfg)
    assert all(row.delta == 0.0 for row in report.rows)
    other = run_universality(replace(cfg, coupling_seed=124))
    same_streams = run_universality(replace(cfg, coupling_seed=None, seed=123))
    # different couplings move the per-arm means
    assert any(a.mean_a != b.mean_a for a, b in zip(report.rows, other.rows))
    # jseed = seed reproduces an explicit coupling_seed equal to it
    explicit = run_universality(replace(cfg, seed=123, coupling_seed=123))
    assert same_streams.rows == explicit.rows


# ---------------------------------------------------------------- hopfield

def test_hopfield_forces_flow_and_suite():
    cfg = small_cfg(replicas=16, template=SystemTemplate(beta=4.0,
                                                         thresholds=0.1))
    report = run_hopfield(cfg)
    names = {r.observable for r in report.rows}
    assert names == {"autocorr[0.1,0.1]", "hamiltonian[0.1]", "gradsq[0.1]",
                     "overlap[0.1]"}
    forced = replace(cfg, template=SystemTemplate(beta=4.0, thresholds=0.1,
                                                  langevin=True),
                     suite=hopfield_suite(0.1))
    assert run_universality(forced).rows == report.rows


# ----------------------------------------------------------- concentration

def test_concentration_shrinks_with_size():
    cfg = small_cfg(sizes=(8, 32), replicas=60, grid_points=6)
    report = run_concentration(cfg)
    small, big = report.rows
    assert (small.n, big.n) == (8, 32)
    assert small.observable == big.observable == "autocorr[t,t]"
    assert small.sup_std > 0
    assert big.sup_std <= 0.8 * small.sup_std
    assert small.replicas == 60


def test_concentration_tail_counts_decrease():
    cfg = small_cfg(sizes=(8,), replicas=50, grid_points=5,
                    tail_thresholds=(0.01, 0.1, 0.5, 5.0))
    row = run_concentration(cfg).rows[0]
    counts = [c for _, c in row.tails]
    assert counts == sorted(counts, reverse=True)
    assert row.tails[-1][1] == 0  # nothing deviates by 5 in so tame a system
    assert row.dev_mean >= 0.0


def test_concentration_snaps_grid_to_steps():
    cfg = small_cfg(sizes=(4,), replicas=8, dt=0.01, horizon=0.1, grid_points=7)
    report = run_concentration(cfg)  # would raise on any off-grid lookup
    assert len(report.rows) == 1


def test_concentration_accepts_fixed_profile():
    cfg = small_cfg(sizes=(8,), replicas=6, grid_points=3)
    fixed = replace(cfg, profile=VarianceProfile.offdiagonal(8))
    assert run_concentration(fixed).rows == run_concentration(cfg).rows


def test_concentration_rejects_state_dependent_noise():
    class Multiplicative(SystemTemplate):
        def build(self, coupling):
            p = super().build(coupling)
            sigma = p.sigma.copy()
            sigma[1, 0] = 0.1
            return SystemParams(p.coupling, p.lam, p.h, sigma)

    cfg = small_cfg(template=Multiplicative())
    with pytest.raises(ExperimentError, match="constant diffusion"):
        run_concentration(cfg)


# ----------------------------------------------------------------- aging

def aging_cfg(**kw):
    base = dict(sizes=(8,), replicas=12, seed=3,
                template=SystemTemplate(beta=math.inf, langevin=True),
                s_values=(1.0, 2.0), lambdas=(1.0, 2.0))
    base.update(kw)
    return ExperimentConfig(**base)


def test_aging_needs_noise_free_flow():
    with pytest.raises(ExperimentError, match="beta"):
        run_aging(aging_cfg(template=SystemTemplate(beta=2.0)))
    with pytest.raises(ExperimentError, match="replicas"):
        run_aging(aging_cfg(replicas=1))


def test_aging_lambda_one_is_exactly_one():
    report = run_aging(aging_cfg())
    for s in (1.0, 2.0):
        (row,) = [r for r in report.rows if (r.n, r.s, r.lam) == (8, s, 1.0)]
        assert row.mean_a == 1.0
        assert row.se_a == 0.0
        assert row.mean_b == 1.0
        assert row.gap == 0.0


def test_aging_ratios_are_correlation_bounded():
    report = run_aging(aging_cfg(replicas=20))
    for row in report.rows:
        assert 0.0 < row.mean_a <= 1.0
        assert 0.0 < row.mean_b <= 1.0


def test_aging_identical_arms_gap_zero():
    report = run_aging(aging_cfg(dist_b=GAUSSIAN))
    assert all(row.gap == 0.0 for row in report.rows)
    assert (report.dropped_a, report.dropped_b) == (0, 0)


def test_aging_confinement_cancels_exactly():
    auto = run_aging(aging_cfg())
    fixed = run_aging(aging_cfg(confinement_mode="fixed",
                                template=SystemTemplate(beta=math.inf,
                                                        langevin=True,
                                                        confinement=1e6)))
    assert auto.rows == fixed.rows
    assert fixed.dropped_a == 0


def test_aging_drops_all_replicas_is_an_error():
    cfg = aging_cfg(confinement_mode="fixed",
                    template=SystemTemplate(beta=math.inf, langevin=True,
                                            confinement=1e-9))
    with pytest.raises(ExperimentError, match="dropped"):
        run_aging(cfg)


def test_aging_drop_message_counts_at_the_failing_size():
    # sizes 8 and 16 both drop replicas; the message must count only n=16
    cfg = aging_cfg(sizes=(8, 16), replicas=20, seed=5, confinement_mode="fixed",
                    template=SystemTemplate(beta=math.inf, langevin=True,
                                            confinement=3.2))
    with pytest.raises(ExperimentError, match="at n=16") as err:
        run_aging(cfg)
    kept, dropped = re.search(r"only (\d+) replicas .* \((\d+) dropped\)",
                              str(err.value)).groups()
    assert int(kept) + int(dropped) == 20


def test_aging_report_lookup():
    report = run_aging(aging_cfg())
    assert isinstance(report, AgingReport)
    assert not [r for r in report.rows if (r.n, r.s, r.lam) == (8, 3.0, 1.0)]


# --------------------------------------------------------------- rayleigh

def rayleigh_cfg(**kw):
    base = dict(sizes=(12,), seed=5, template=SystemTemplate(beta=math.inf),
                rayleigh_horizon=30.0, rayleigh_points=31, rayleigh_replicas=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_rayleigh_quotient_curve_hand_case():
    # two eigenvalues 0 and 1, equal weights: q(t) = 1/(1 + exp(-4t))
    times = np.array([0.0, 0.5, 2.0])
    got = rayleigh_quotient_curve(np.array([0.0, 1.0]), np.array([1.0, 1.0]), times)
    want = 1.0 / (1.0 + np.exp(-4.0 * times))
    assert np.allclose(got, want, rtol=1e-12)


def test_rayleigh_quotient_exact_start():
    curve = rayleigh_quotient_curve(np.array([1.0, 2.0, 5.0]),
                                    np.array([0.0, 0.0, 1.0]),
                                    np.linspace(0, 10, 5))
    assert np.all(curve == 5.0)


def test_rayleigh_quotient_needs_mass():
    with pytest.raises(ExperimentError, match="component"):
        rayleigh_quotient_curve(np.array([1.0]), np.array([0.0]), np.array([0.0]))


def test_rayleigh_run_converges_upward():
    report = run_rayleigh(rayleigh_cfg())
    assert len(report.rows) == 10  # two arms, five replicas
    assert len(report.times) == 31
    for row in report.rows:
        assert row.deficit >= -1e-12
        assert row.monotone
        assert row.final_quotient <= row.top_eigenvalue + 1e-12
        assert row.deficit < 0.2  # 30 time units get close to the top
    finals_a = [r.final_quotient for r in report.rows if r.arm == "a"]
    finals_b = [r.final_quotient for r in report.rows if r.arm == "b"]
    assert report.mean_gap == pytest.approx(
        abs(float(np.mean(finals_a)) - float(np.mean(finals_b))))


def test_rayleigh_needs_noise_free_flow():
    with pytest.raises(ExperimentError, match="beta"):
        run_rayleigh(rayleigh_cfg(template=SystemTemplate(beta=1.0)))


# ------------------------------------------- Lanczos-Gauss rule vs eigh oracle

def eigh_rule(a, x0):
    """The oracle: all eigenvalues and the squared eigenbasis coefficients."""
    w, v = np.linalg.eigh(a)
    return w, (v.T @ x0) ** 2


def moment_errors(theta, weights, a, x0, top):
    """Per p < top, |sum w theta^p - x0^T a^p x0| over sum w |theta|^p
    (when that is nonzero), so that odd moments whose terms cancel are
    judged against their size."""
    y, out = x0.copy(), []
    for p in range(top):
        err = abs(weights @ theta ** p - x0 @ y)
        size = weights @ np.abs(theta) ** p
        out.append(err / size if size else err)
        y = a @ y
    return np.array(out)


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER, EntryDistribution.UNIFORM_CENTERED])
@pytest.mark.parametrize("n", [4, 16, 64, 512])
def test_gauss_rule_matches_eigh(n, dist, scale):
    j = sample_couplings(dist, VarianceProfile.offdiagonal(n), True,
                         [RngStream(11, 0, PURPOSE_COUPLING).generator()])[0]
    x0 = sample_initial(InitialLaw.uniform(GAUSSIAN, n), RngStream(11, 0, PURPOSE_INITIAL))
    a = scale * j
    theta, weights = _gauss_rule(a, x0)
    w, c2 = eigh_rule(a, x0)
    m = len(theta)
    assert m <= n and (m == n or m % 16 == 0)
    assert np.all(np.diff(theta) >= 0) and np.all(weights >= 0)
    assert np.max(moment_errors(theta, weights, a, x0, 2 * m)) <= 1e-12
    pairs = [(s, lam) for s in (1.0, 2.0, 4.0, 8.0) for lam in (1.0, 2.0, 3.0)]
    np.testing.assert_allclose(_aging_ratios_one(theta, weights, pairs),
                               _aging_ratios_one(w, c2, pairs), rtol=1e-12, atol=0)
    times = np.linspace(0.0, 20.0, 81)
    np.testing.assert_allclose(rayleigh_quotient_curve(theta, weights, times),
                               rayleigh_quotient_curve(w, c2, times), rtol=1e-12, atol=1e-12)
    radius = np.abs(w).max()
    assert abs(theta[0] - w[0]) <= 1e-13 * radius
    assert abs(theta[-1] - w[-1]) <= 1e-13 * radius


def test_one_replica_arm_holds_its_coupling_and_half_a_coupling_more():
    # one N = 2048 aging replica-arm: the profile, built as a run builds it per
    # size, the draw into a reused coupling, then the Gauss rule
    n = 2048
    coupling = np.empty((1, n, n))
    x0 = sample_initial(InitialLaw.uniform(GAUSSIAN, n), RngStream(3, 0, PURPOSE_INITIAL))

    def replica_arm():
        j = sample_couplings(GAUSSIAN, ExperimentConfig().make_profile(n), True,
                             [RngStream(3, 0, PURPOSE_COUPLING).generator()], out=coupling)[0]
        j *= 2.0
        return _gauss_rule(j, x0)

    assert traced_peak(replica_arm) + coupling.nbytes <= 1.5 * coupling.nbytes


@pytest.mark.parametrize("m", [1, 2, 5, 128])
def test_tridiagonal_is_the_sum_of_its_diagonals(m):
    rng = np.random.default_rng(m)
    alpha = list(rng.standard_normal(m))
    alpha[0] = -0.0  # the sum reads +0.0 there
    beta = list(np.abs(rng.standard_normal(m - 1)))
    want = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    assert experiments._tridiagonal(alpha, beta).tobytes() == want.tobytes()


def dense_solvers():
    """numpy's dense drivers on the Lanczos matrix: the solvers' oracle."""
    return (lambda alpha, beta: np.linalg.eigvalsh(experiments._tridiagonal(alpha, beta)),
            lambda alpha, beta: np.linalg.eigh(experiments._tridiagonal(alpha, beta)))


def assert_solvers_give_dense_bytes(alpha, beta):
    eigvalsh, eigh = experiments._tridiagonal_solvers()
    want_eigvalsh, want_eigh = dense_solvers()
    assert eigvalsh(alpha, beta).tobytes() == want_eigvalsh(alpha, beta).tobytes()
    theta, s = eigh(alpha, beta)
    want_theta, want_s = want_eigh(alpha, beta)
    assert theta.tobytes() == want_theta.tobytes()
    assert s.shape == want_s.shape and s.tobytes() == want_s.tobytes()


# 25 and 26 sit either side of dstedc's switch to divide and conquer
@pytest.mark.parametrize("m", [1, 2, 25, 26, 96])
def test_tridiagonal_solvers_give_the_bytes_of_the_dense_drivers(m):
    rng = np.random.default_rng(m)
    alpha = list(rng.standard_normal(m))
    alpha[0] = -0.0  # reads +0.0, as on _tridiagonal's diagonal
    beta = [float(b) for b in np.abs(rng.standard_normal(m - 1))]
    assert_solvers_give_dense_bytes(alpha, beta)


def test_tridiagonal_solvers_give_the_dense_bytes_on_an_aging_run(monkeypatch):
    # the Lanczos matrices of a size-40 aging run: two convergence checks
    # (m = 16, 32) and the final rule (m = 40) per replica-arm
    seen = []
    eigvalsh, eigh = experiments._tridiagonal_solvers()

    def recorded(solve):
        def run(alpha, beta):
            seen.append((list(alpha), list(beta)))
            return solve(alpha, beta)
        return run

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_tridiagonal_solvers",
                      lambda: (recorded(eigvalsh), recorded(eigh)))
        run_aging(experiment_config(parse_config(
            "[system]\nbeta = inf\n[experiment]\nsizes = 40\nreplicas = 2\n")))
    assert sorted({len(alpha) for alpha, _ in seen}) == [16, 32, 40]
    for alpha, beta in seen:
        assert_solvers_give_dense_bytes(alpha, beta)


def test_tridiagonal_solvers_skip_the_dense_drivers(monkeypatch):
    def dense(*args):
        raise AssertionError("a dense driver ran")

    alpha, beta = [1.0, 2.0, 3.0], [0.5, 0.25]
    eigvalsh, eigh = experiments._tridiagonal_solvers()
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    monkeypatch.setattr(np.linalg, "eigh", dense)
    assert len(eigvalsh(alpha, beta)) == 3 and len(eigh(alpha, beta)[0]) == 3


@pytest.mark.parametrize("lib", [None, object()], ids=["no-library", "no-symbols"])
def test_tridiagonal_solvers_fall_back_to_the_dense_drivers(monkeypatch, openblas, lib):
    openblas(lib)
    assert experiments._blas_threads() is None
    alpha, beta = [1.0, -0.0, 3.0], [0.5, 0.25]
    want = [solve(alpha, beta) for solve in dense_solvers()]
    calls = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda t, real=real, name=name: calls.append(name) or real(t))
    eigvalsh, eigh = experiments._tridiagonal_solvers()
    assert eigvalsh(alpha, beta).tobytes() == want[0].tobytes()
    assert [x.tobytes() for x in eigh(alpha, beta)] == [x.tobytes() for x in want[1]]
    assert calls == ["eigvalsh", "eigh"]


def block_diagonal_case(n=64, k=20):
    j = scaled_coupling(n)
    j[:k, k:] = 0.0
    j[k:, :k] = 0.0
    x0 = np.zeros(n)
    x0[:k] = np.arange(1.0, k + 1)
    return j, x0


def eigenvector_case(n=64, k=5):
    # an exact eigenvector, so no rounding leaks weight onto the others
    j = scaled_coupling(n)
    j[k, :] = 0.0
    j[:, k] = 0.0
    x0 = np.zeros(n)
    x0[k] = 3.0
    return j, x0


@pytest.mark.parametrize("case", [block_diagonal_case, eigenvector_case])
def test_gauss_rule_closes_early_with_exact_ends(case):
    # the Krylov space of x0 closes before N steps: the rule is exact for
    # every moment, and the spectrum's ends join it as zero-weight nodes,
    # so the drop radius of a fixed confinement is the one eigh gives
    a, x0 = case()
    with np.errstate(all="raise"):
        theta, weights = _gauss_rule(a, x0)
    w, _ = eigh_rule(a, x0)
    assert len(theta) < len(x0)
    assert np.all(np.isfinite(theta)) and np.all(np.isfinite(weights))
    assert (weights[0], weights[-1]) == (0.0, 0.0)
    assert (theta[0], theta[-1]) == tuple(np.linalg.eigvalsh(a)[[0, -1]])
    assert abs(theta[-1] - w[-1]) <= 1e-13 * np.abs(w).max()
    assert np.max(moment_errors(theta, weights, a, x0, 2 * len(x0))) <= 1e-12


@pytest.mark.parametrize("case", ["gaussian-16", "gaussian-512", "rademacher-64",
                                  "block-diagonal", "eigenvector"])
def test_gauss_rule_of_2j_is_the_rule_of_j_with_doubled_nodes(case):
    # aging doubles the nodes of J's rule instead of running Lanczos on 2J:
    # a run to m = N, one stopped by the convergence check, and two whose
    # Krylov space closes early, where the dense eigvalsh ends join the rule
    if case in ("block-diagonal", "eigenvector"):
        j, x0 = {"block-diagonal": block_diagonal_case, "eigenvector": eigenvector_case}[case]()
    else:
        name, n = case.split("-")
        j = sample_couplings(EntryDistribution[name.upper()], VarianceProfile.offdiagonal(int(n)),
                             True, [RngStream(5, 0, PURPOSE_COUPLING).generator()])[0]
        x0 = sample_initial(InitialLaw.uniform(GAUSSIAN, int(n)), RngStream(5, 0, PURPOSE_INITIAL))
    theta, weights = _gauss_rule(j, x0)
    theta2, weights2 = _gauss_rule(2.0 * j, x0)
    assert (theta2.tobytes(), weights2.tobytes()) == ((2.0 * theta).tobytes(), weights.tobytes())
    # each case takes the branch it names: the closed ones end on zero-weight
    # nodes, and only gaussian-512 stops on the check, after 96 steps
    closed = case in ("block-diagonal", "eigenvector")
    assert (weights[0] == 0.0) == closed
    assert (len(theta) < len(x0)) == (closed or case == "gaussian-512")


def test_fixed_aging_drops_what_the_eigh_oracle_drops(monkeypatch):
    from test_golden import FIXED_AGING
    cfg = experiment_config(parse_config(FIXED_AGING))
    got = run_aging(cfg)
    monkeypatch.setattr(experiments, "_gauss_rule", eigh_rule)
    want = run_aging(cfg)
    assert (got.dropped_a, got.dropped_b) == (want.dropped_a, want.dropped_b)
    assert got.dropped_a >= 1 and got.dropped_b >= 1
    for g, w in zip(got.rows, want.rows):
        np.testing.assert_allclose([g.mean_a, g.mean_b], [w.mean_a, w.mean_b], rtol=1e-12)


def recorded_chunks(monkeypatch):
    """Step counts of the noise chunks the experiments' integrator draws, in order."""
    sizes = []
    real = experiments.euler_maruyama

    def integrate(params, x0s, icfg, draw, **kwargs):
        def recorded(lo, hi):
            sizes.append(hi - lo)
            return draw(lo, hi)
        return real(params, x0s, icfg, recorded, **kwargs)

    monkeypatch.setattr(experiments, "euler_maruyama", integrate)
    return sizes


def test_paired_noise_chunks_give_the_same_bytes(monkeypatch):
    # 5 replicas at N = 8 are one block over 100 steps, both arms in one
    # stack of 10, one noise chunk by default; 7-step chunks end on a short
    # one of 2 steps
    n = 8
    cfg = small_cfg(sizes=(n,), replicas=5, dt=0.01, horizon=1.0, suite=default_suite(1.0))
    chunks = recorded_chunks(monkeypatch)
    want = _paired_values(cfg, n)
    assert chunks == [100]
    monkeypatch.setattr(dynamics, "_NOISE_CHUNK_BYTES", 8 * 10 * n * 7)
    chunks.clear()
    got = _paired_values(cfg, n)
    assert chunks == [7] * 14 + [2]
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_paired_values_do_not_depend_on_the_block_width(monkeypatch):
    # 9 replicas at N = 128 over 600 steps, in blocks of 1, 2 and 4 replicas
    # per arm, each block one drift block; a full block's noise comes in
    # 512, 256 and 128-step chunks, and no block's in one chunk
    n = 128
    cfg = small_cfg(sizes=(n,), replicas=9, dt=0.002, horizon=1.2,
                    suite=hopfield_suite(1.2) + (autocorr_item(0.5, 1.2),))
    chunks = recorded_chunks(monkeypatch)
    want = None
    for width in (1, 2, 4):
        monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_BYTES", 2 * width * 8 * n * n)
        assert experiments._block_width(n, 2) == width
        for threads in (1, 2):
            chunks.clear()
            got = [v.tobytes() for v in _paired_values(replace(cfg, threads=threads), n)]
            want = want or got
            assert got == want
        assert chunks[0] == 512 // width and max(chunks) < 600


# ----------------------------------------------------------- series vs MC

X1, X2 = Polynomial.from_x(1), Polynomial.from_x(2)


def test_mc_noise_chunks_give_the_same_bytes(monkeypatch):
    # 300 paths at n = 3 over 100 steps are one noise chunk by default;
    # 7-step chunks end on a short one of 2 steps
    n = 3
    cfg = ExperimentConfig(sizes=(n,), dt=2e-3, mc_paths=300, seed=3)
    specs = [([X1], (0.1,)), ([X1, X2], (0.06, 0.2))]
    chunks = recorded_chunks(monkeypatch)
    want = experiments._mc_moments(cfg, n, specs)
    assert chunks == [100]
    monkeypatch.setattr(dynamics, "_NOISE_CHUNK_BYTES", 8 * 300 * n * 7)
    chunks.clear()
    got = experiments._mc_moments(cfg, n, specs)
    assert chunks == [7] * 14 + [2]
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_martingale_is_summed_only_when_a_suite_item_reads_it(monkeypatch):
    # the integrator sums M only for a paired suite with an m block, and the
    # states, so every item that reads none, are the same bytes either way;
    # the series-vs-MC Monte Carlo never reads it
    asked = []
    real = experiments.euler_maruyama

    def integrate(*args, **kwargs):
        asked.append(kwargs.get("martingale", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "euler_maruyama", integrate)
    n = 8
    plain = default_suite(0.1)
    mart = SuiteItem("mx", ((BuildingBlock.M, BuildingBlock.X),), (0.1, 0.1))
    cfg = small_cfg(sizes=(n,), replicas=5, suite=plain)
    want = _paired_values(cfg, n)
    assert asked and not any(asked)
    asked.clear()
    got = _paired_values(replace(cfg, suite=plain + (mart,)), n)
    assert asked and all(asked)
    for g, w in zip(got, want):
        assert g[:, :len(plain)].tobytes() == w.tobytes()
        assert np.all(g[:, -1] != 0.0)
    asked.clear()
    experiments._mc_moments(ExperimentConfig(sizes=(3,), mc_paths=50), 3, [([X1], (0.1,))])
    assert asked == [False]


def test_mc_noise_memory_does_not_grow_with_the_step_count():
    # 2000 paths at n = 3 are one path chunk at 200 and at 800 steps (its
    # width is 3491 paths at 800), with the same snapshots; the noise streams
    # in 1 MB step chunks, where one draw of it would be 9.6 and 38.4 MB
    n = 3
    cfg = ExperimentConfig(sizes=(n,), dt=1e-3, mc_paths=2000)

    def peak(t):
        return traced_peak(lambda: experiments._mc_moments(cfg, n, [([X1], (t,))]))

    assert peak(0.8) < peak(0.2) + 2 ** 20



def test_taylor_vs_mc_small_system():
    cfg = ExperimentConfig(sizes=(2,), seed=11, truncation=6, time=0.2,
                           mc_paths=6000, dt=2e-3,
                           template=SystemTemplate(beta=math.inf))
    report = run_taylor_vs_mc(cfg)
    names = [r.observable for r in report.rows]
    assert names == ["x1", "x1^2", "x1*x2", "x1(t/2)*x1(t)"]
    assert not report.any_diverging
    for row in report.rows:
        assert abs(row.z) <= 5.0
    # per-order partial sums end at the reported value
    for name in ("x1", "x1^2", "x1*x2"):
        rows = [o for o in report.orders if o.observable == name]
        assert rows[-1].partial_sum == pytest.approx(
            report.rows[names.index(name)].value, rel=1e-12)
        assert [o.order for o in rows] == list(range(cfg.truncation + 1))


def test_taylor_vs_mc_expands_each_observable_once(monkeypatch):
    import rmsde.generator
    real = rmsde.generator.taylor_mean_multitime
    calls = []

    def counting(fs, *args, **kwargs):
        calls.append(fs)
        return real(fs, *args, **kwargs)

    # taylor_mean reaches taylor_mean_multitime through the generator module,
    # and the multi-time row imports it from there when the run starts
    monkeypatch.setattr(rmsde.generator, "taylor_mean_multitime", counting)
    report = run_taylor_vs_mc(ExperimentConfig(sizes=(3,), truncation=2, time=0.2,
                                               mc_paths=50, dt=0.05))
    assert len(calls) == 4 == len(report.rows)
    assert len(report.orders) == 3 * 3


def test_taylor_vs_mc_series_share_one_memo(monkeypatch):
    # at n = 3, k = 5 the four series meet 539 distinct keys and 1323 distinct
    # factor keys; with a memo per series they computed 808 and 1755
    import rmsde.algebra
    import rmsde.generator
    real_actions = rmsde.generator._letter_actions
    real_factors = rmsde.algebra._expectation_factors
    actions, factors = [], []

    def counting_actions(key, letter, params):
        actions.append(key)
        return real_actions(key, letter, params)

    def counting_factors(key, oracle):
        factors.append(key)
        return real_factors(key, oracle)

    monkeypatch.setattr(rmsde.generator, "_letter_actions", counting_actions)
    monkeypatch.setattr(rmsde.algebra, "_expectation_factors", counting_factors)
    run_taylor_vs_mc(ExperimentConfig(sizes=(3,), truncation=5, seed=1, mc_paths=50))
    assert len(actions) == 4 * len(set(actions)) == 4 * 539  # one call per letter
    assert len(factors) == len(set(factors)) == 1323


def test_taylor_vs_mc_multitime_row_reads_its_series():
    report = run_taylor_vs_mc(ExperimentConfig(sizes=(2,), truncation=4, time=0.2,
                                               mc_paths=50, dt=0.05))
    row = report.rows[-1]
    assert row.observable == "x1(t/2)*x1(t)"
    assert math.isfinite(row.tail_bound)
    assert not row.diverging


def test_taylor_vs_mc_preconditions():
    with pytest.raises(ExperimentError, match="dimension"):
        run_taylor_vs_mc(ExperimentConfig(sizes=(8,)))
    with pytest.raises(ExperimentError, match="times"):
        run_taylor_vs_mc(ExperimentConfig(sizes=(2,), time=0.9))
