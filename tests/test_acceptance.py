"""Whole-package acceptance gate.

Ten go/no-go checks tie the stack to independent oracles at desk
scale.  Each test prints one pass/fail line; run

    pytest tests/test_acceptance.py -s

to see all ten.  Tolerances and runtime budgets are fixed here, not
tuned per machine or per run.
"""

import itertools
import math
import time

import numpy as np

from rmsde.algebra import (Monomial, MomentOracle, Polynomial,
                           difference_vanishes, expected_value)
from rmsde.cli import main
from rmsde.config import config_hash, parse_config
from rmsde.dynamics import (IntegratorConfig, SystemParams, exact_mean_linear,
                            simulate_paths)
from rmsde.ensembles import EntryDistribution, InitialLaw, VarianceProfile
from rmsde.experiments import (ExperimentConfig, SystemTemplate, autocorr_item,
                               hamiltonian_item, run_aging, run_concentration,
                               run_rayleigh, run_universality)
from rmsde.generator import Letter, apply_letter, count_bound_check, \
    taylor_mean_numericJ
from rmsde.rng import PURPOSE_NOISE, RngStream

SEED = 20260814


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {num:2d}. {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _full_params(n: int, rng) -> SystemParams:
    """Every drift and diffusion channel active, coefficients O(1)."""
    return SystemParams(np.zeros((n, n)),
                        rng.uniform(-0.6, 0.6, (n, n)),
                        rng.uniform(0.2, 1.0, n),
                        rng.uniform(-0.5, 0.5, (n + 1, n)))


def test_01_integrator_mean_vs_exact_semigroup():
    start = time.perf_counter()
    n, dt, horizon = 8, 1e-3, 1.0
    rng = np.random.default_rng(SEED)
    params = SystemParams(rng.standard_normal((n, n)) / math.sqrt(n),
                          -1.5 * np.eye(n),
                          0.3 * rng.standard_normal(n),
                          np.vstack([np.full(n, 0.7), np.zeros((n, n))]))
    x0 = rng.uniform(-1.0, 1.0, n)
    cfg = IntegratorConfig(dt, horizon, (horizon,))
    batch = simulate_paths(params, x0, cfg, RngStream(SEED, 0, PURPOSE_NOISE),
                           n_paths=10_000)
    gap = np.abs(batch.mean_x()[0] - exact_mean_linear(params, x0, horizon))
    slack = 3.0 * batch.se_x()[0] + 10.0 * dt
    elapsed = time.perf_counter() - start
    _verdict(1, "sampled mean matches the exact linear semigroup",
             bool(np.all(gap <= slack)) and elapsed < 30.0,
             f"max gap {gap.max():.2e}, min slack {slack.min():.2e}, "
             f"{elapsed:.1f}s")


def test_02_series_engine_vs_exact_semigroup():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for n in (1, 2, 3, 4):
        params = SystemParams(0.8 * rng.standard_normal((n, n)) / math.sqrt(n),
                              rng.uniform(-0.4, 0.4, (n, n)),
                              rng.uniform(-0.5, 0.5, n),
                              np.vstack([np.full(n, 0.5), np.zeros((n, n))]))
        x0 = rng.uniform(-1.0, 1.0, n)
        for t in (0.3, 1.0):
            exact = exact_mean_linear(params, x0, t)
            for j in range(1, n + 1):
                got = taylor_mean_numericJ(Polynomial.from_x(j), params, x0, t, k=20)
                worst = max(worst, abs(got - exact[j - 1]))
    _verdict(2, "order-20 series reproduces the linear mean to 1e-8",
             worst <= 1e-8, f"worst abs gap {worst:.2e}")


def _mc_monomial(mono: Monomial, a: np.ndarray, x0: np.ndarray) -> tuple:
    n = a.shape[1]
    vals = np.full(a.shape[0], mono.coeff)
    for i, j in mono.j_pairs:
        vals = vals * (a[:, i - 1, j - 1] / math.sqrt(n))
    for i in mono.x_idx:
        if i:
            vals = vals * x0[:, i - 1]
    return float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(len(vals))


def test_03_moment_evaluator_vs_sampling():
    start = time.perf_counter()
    n, samples = 3, 1_000_000
    rng = np.random.default_rng(SEED + 2)
    monomials = []
    for _ in range(50):
        pairs = tuple((int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
                      for _ in range(rng.integers(0, 5)))
        x_idx = tuple(int(rng.integers(1, n + 1))
                      for _ in range(rng.integers(0, 4)))
        monomials.append(Monomial(coeff=float(rng.choice((1.0, -1.0, 2.5))),
                                  j_pairs=pairs, x_idx=x_idx))
    profile = VarianceProfile.full(n)
    init = InitialLaw(EntryDistribution.GAUSSIAN, n)
    mc = np.random.default_rng(SEED + 3)
    x0 = mc.standard_normal((samples, n))
    worst_z = 0.0
    ok = True
    for symmetric in (False, True):
        a = mc.standard_normal((samples, n, n))
        if symmetric:
            a = np.triu(a) + np.swapaxes(np.triu(a, 1), 1, 2)
        oracle = MomentOracle.from_ensemble(EntryDistribution.GAUSSIAN,
                                            profile, init, symmetric=symmetric)
        for mono in monomials:
            exact = expected_value(mono, oracle)
            est, se = _mc_monomial(mono, a, x0)
            ok = ok and abs(est - exact) <= 4.0 * se + 1e-12
            if se:
                worst_z = max(worst_z, abs(est - exact) / se)
    elapsed = time.perf_counter() - start
    _verdict(3, "exact monomial expectations match 1e6-sample estimates",
             ok and elapsed < 120.0, f"worst |z| {worst_z:.2f}, {elapsed:.1f}s")


def test_04_vanishing_criterion_is_exact():
    start = time.perf_counter()
    n = 3
    params = _full_params(n, np.random.default_rng(SEED + 4))
    profile = VarianceProfile.full(n)
    init = InitialLaw(EntryDistribution.GAUSSIAN, n)
    oracles = {
        sym: tuple(MomentOracle.from_ensemble(d, profile, init, symmetric=sym)
                   for d in (EntryDistribution.GAUSSIAN,
                             EntryDistribution.RADEMACHER))
        for sym in (False, True)
    }
    worst = 0.0
    vanishing = surviving = 0
    for f in (Polynomial.from_x(1), Polynomial.from_x(1, 2)):
        for length in range(5):
            for word in itertools.product(Letter, repeat=length):
                poly = f
                for letter in word:
                    poly = apply_letter(poly, letter, params)
                for mono in poly:
                    for sym, (o_g, o_r) in oracles.items():
                        if difference_vanishes(mono, symmetric=sym):
                            vanishing += 1
                            gap = abs(expected_value(mono, o_g)
                                      - expected_value(mono, o_r))
                            worst = max(worst, gap)
                        else:
                            surviving += 1
    elapsed = time.perf_counter() - start
    _verdict(4, "flagged monomials agree across entry laws to 1e-12",
             worst <= 1e-12 and vanishing > 0 and surviving > 0
             and elapsed < 60.0,
             f"worst gap {worst:.1e} over {vanishing} vanishing "
             f"(+{surviving} surviving), {elapsed:.1f}s")


def test_05_word_counts_never_exceed_bounds():
    n = 3
    rng = np.random.default_rng(SEED + 5)
    params = _full_params(n, rng)
    letters = tuple(Letter)
    checked = 0
    ok = True
    for _ in range(200):
        word = [letters[i] for i in rng.integers(0, len(letters),
                                                 size=rng.integers(1, 6))]
        degree = int(rng.integers(1, 3))
        f0 = Monomial(x_idx=tuple(int(rng.integers(1, n + 1))
                                  for _ in range(degree)))
        actual, bound = count_bound_check(word, f0, params)
        ok = ok and isinstance(actual, int) and actual <= bound
        checked += 1
    _verdict(5, "term counts stay under the per-letter product bounds",
             ok and checked == 200, f"{checked} random words")


def test_06_paired_arm_differences_shrink():
    start = time.perf_counter()
    cfg = ExperimentConfig(symmetric=True,
                           template=SystemTemplate(langevin=True, beta=1.0,
                                                   confinement=4.5),
                           suite=(autocorr_item(1.0, 1.0),
                                  hamiltonian_item(1.0)),
                           sizes=(32, 64, 128, 256), replicas=2000,
                           dt=0.02, horizon=1.0, seed=SEED, threads=4)
    rep = run_universality(cfg)
    gaps_ok = all(abs(r.delta) <= 3.0 * r.se + 5.0 / math.sqrt(r.n)
                  for r in rep.rows)
    slopes = {}
    for item in cfg.suite:
        rows = [r for r in rep.rows if r.observable == item.name]
        level = [max(abs(r.delta), r.se) for r in rows]
        slopes[item.name] = float(np.polyfit(np.log([r.n for r in rows]),
                                             np.log(level), 1)[0])
    slopes_ok = all(-1.1 <= s <= -0.2 for s in slopes.values())
    elapsed = time.perf_counter() - start
    _verdict(6, "entry-law sensitivity decays with size on both observables",
             gaps_ok and slopes_ok and elapsed < 600.0,
             ", ".join(f"{k} slope {v:.2f}" for k, v in sorted(slopes.items()))
             + f", {elapsed:.0f}s")


def test_07_replica_spread_shrinks_with_size():
    start = time.perf_counter()
    cfg = ExperimentConfig(symmetric=True, sizes=(32, 256), replicas=400,
                           dt=0.02, horizon=1.0, grid_points=21,
                           seed=SEED, threads=4)
    rep = run_concentration(cfg)
    ratio = rep.rows[-1].sup_std / rep.rows[0].sup_std
    elapsed = time.perf_counter() - start
    _verdict(7, "sup-grid autocorrelation spread at n=256 vs n=32",
             ratio <= 0.6 and elapsed < 600.0,
             f"ratio {ratio:.3f} <= 0.6, {elapsed:.0f}s")


def test_08_noise_free_flow_ratios_agree_across_laws():
    start = time.perf_counter()
    cfg = ExperimentConfig(symmetric=True,
                           template=SystemTemplate(langevin=True,
                                                   beta=math.inf),
                           sizes=(512,), replicas=200,
                           s_values=(2.0, 4.0, 8.0), lambdas=(1.0, 2.0),
                           confinement_mode="auto", seed=SEED, threads=4)
    rep = run_aging(cfg)
    gaps_ok = all(r.gap <= 0.05 for r in rep.rows)
    unit = [r for r in rep.rows if r.lam == 1.0]
    unit_ok = bool(unit) and all(r.mean_a == 1.0 and r.mean_b == 1.0
                                 for r in unit)
    elapsed = time.perf_counter() - start
    _verdict(8, "two-time ratios match across arms; equal times exactly 1",
             gaps_ok and unit_ok and elapsed < 300.0,
             f"max gap {max(r.gap for r in rep.rows):.3f}, {elapsed:.0f}s")


def test_09_ascent_quotient_reaches_the_top_eigenvalue():
    cfg = ExperimentConfig(template=SystemTemplate(langevin=True,
                                                   beta=math.inf),
                           sizes=(256,), seed=SEED, rayleigh_horizon=20.0,
                           rayleigh_points=81, rayleigh_replicas=8)
    rep = run_rayleigh(cfg)
    monotone = all(r.monotone for r in rep.rows)
    mean_gap = dict(rep.summary)["mean_gap"]
    _verdict(9, "quotient climbs monotonically to within 0.05 of the top",
             mean_gap <= 0.05 and monotone,
             f"mean gap {mean_gap:.4f}, {len(rep.rows)} curves monotone")


def test_10_reruns_and_thread_counts_are_byte_identical(tmp_path):
    text = ("[experiment]\nsizes = 8, 16\nreplicas = 30\n"
            "[integrator]\ndt = 0.02\nhorizon = 0.1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    blobs = []
    for sub, threads in (("u1", 1), ("u3", 3), ("u3b", 3)):
        out = tmp_path / sub
        assert main(["universality", "--config", str(cfg),
                     "--threads", str(threads), "--out", str(out)]) == 0
        blobs.append((out / "universality.csv").read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    digest = config_hash(parse_config(text).replaced("run", "experiment",
                                                     "universality"))
    stamped = blobs[0].startswith(f"# config-hash: {digest}".encode())
    _verdict(10, "rerun and thread-count variation leave output bytes fixed",
             identical and stamped,
             f"3 runs, {len(blobs[0])} bytes each")
