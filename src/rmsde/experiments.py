"""Paired-ensemble studies at desk scale.

The central estimator is common-random-number pairing: two coupling
ensembles with the same variance profile are compared by sharing the
initial condition and the driving noise within each replica while
sampling the coupling independently per arm.  The product structure of
the randomness makes this legitimate, and the pairing removes most of
the replica variance from the arm difference, so the decay of the
difference with dimension is visible with a few thousand replicas.

Replicas are independent units of work keyed by their stream id.
Chunks of replicas integrate in one batched matrix-vector loop; chunk
boundaries depend only on the problem size, never on the thread count,
and chunk results are reduced in submission order, so reports are
deterministic functions of (config, seed).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .dynamics import IntegratorConfig, SystemTemplate, Trajectory, euler_maruyama
from .ensembles import (EntryDistribution, InitialLaw, VarianceProfile,
                        sample_couplings, sample_entries, sample_initial)
from .generator import DEFAULT_TRUNCATION_CAP, taylor_mean, taylor_mean_multitime
from .algebra import MomentOracle, Polynomial
from .observables import autocorrelation, grad_sq_density, hamiltonian_density
from .rng import PURPOSE_COUPLING, PURPOSE_INITIAL, PURPOSE_NOISE, RngStream

__all__ = [
    "SystemTemplate",
    "SuiteItem",
    "ExperimentConfig",
    "UniversalityReport",
    "ConcentrationReport",
    "AgingReport",
    "TaylorVsMcReport",
    "RayleighReport",
    "run_universality",
    "run_concentration",
    "run_aging",
    "run_taylor_vs_mc",
    "run_hopfield",
    "run_rayleigh",
    "default_suite",
    "hopfield_suite",
    "autocorr_item",
    "hamiltonian_item",
    "gradsq_item",
    "overlap_item",
    "rayleigh_quotient_curve",
    "check_preconditions",
    "ExperimentError",
]


class ExperimentError(ValueError):
    """Invalid experiment configuration."""


# Largest Gaussian noise of one replica's whole run, steps * N * 8 bytes.
# The paired and Monte Carlo paths hold it for every replica of a chunk
# at once, and a chunk has at least one replica.  The same cap bounds
# the float64 array of each count key below.
_NOISE_CAP = 2 ** 28

# Count keys whose whole array an experiment allocates at once:
# moments-check draws every sample in one call, and rayleigh and
# concentration lay out their time grids with np.linspace.
_WHOLE_COUNTS = {"moments-check": "mc_paths", "rayleigh": "rayleigh_points",
                 "concentration": "grid_points"}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SuiteItem:
    """Named scalar observable with the snapshot times it needs.

    ``weights``, when set, are weights read from a file; at size N they
    must number ``N ** arity``.
    """

    name: str
    times: tuple
    fn: Callable
    weights: Optional[np.ndarray] = None
    arity: int = 1


def autocorr_item(s: float, t: float) -> SuiteItem:
    return SuiteItem(f"autocorr[{s:g},{t:g}]", (float(s), float(t)),
                     lambda traj, s=float(s), t=float(t): autocorrelation(traj, s, t))


def hamiltonian_item(t: float) -> SuiteItem:
    return SuiteItem(f"hamiltonian[{t:g}]", (float(t),),
                     lambda traj, t=float(t): hamiltonian_density(traj, t))


def gradsq_item(t: float) -> SuiteItem:
    return SuiteItem(f"gradsq[{t:g}]", (float(t),),
                     lambda traj, t=float(t): grad_sq_density(traj, t))


def overlap_item(t: float) -> SuiteItem:
    """Overlap with the initial state, (1/N) sum X_i(t) X_i(0)."""
    return SuiteItem(f"overlap[{t:g}]", (0.0, float(t)),
                     lambda traj, t=float(t): autocorrelation(traj, 0.0, t))


def default_suite(t: float = 1.0) -> tuple:
    return (autocorr_item(t, t), hamiltonian_item(t))


def hopfield_suite(t: float = 1.0) -> tuple:
    return (autocorr_item(t, t), hamiltonian_item(t), gradsq_item(t), overlap_item(t))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on, seed included.

    Fields beyond the common block apply only to specific experiments
    and keep their defaults elsewhere (documented per run function).
    """

    dist_a: EntryDistribution = EntryDistribution.GAUSSIAN
    dist_b: EntryDistribution = EntryDistribution.RADEMACHER
    symmetric: bool = True
    profile: object = "offdiagonal"  # preset name or a VarianceProfile
    init_dist: EntryDistribution = EntryDistribution.GAUSSIAN
    template: SystemTemplate = SystemTemplate()
    suite: tuple = ()
    sizes: tuple = (32, 64, 128, 256)
    replicas: int = 2000
    dt: float = 1e-3
    horizon: float = 1.0
    seed: int = 0
    coupling_seed: Optional[int] = None  # separate seed for the coupling streams
    threads: int = 1
    # aging
    s_values: tuple = (2.0, 4.0, 8.0)
    lambdas: tuple = (1.0, 2.0)
    confinement_mode: str = "auto"
    # concentration
    tail_thresholds: tuple = (0.05, 0.1, 0.2, 0.4)
    grid_points: int = 21
    # taylor vs MC
    truncation: int = 8
    time: float = 0.2
    mc_paths: int = 100_000
    # rayleigh
    rayleigh_horizon: float = 20.0
    rayleigh_points: int = 81
    rayleigh_replicas: int = 8

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ExperimentError("replica count must be positive")
        if not self.sizes:
            raise ExperimentError("need at least one system size")
        if self.threads < 1:
            raise ExperimentError("thread count must be positive")

    def make_profile(self, n: int) -> VarianceProfile:
        if isinstance(self.profile, VarianceProfile):
            if self.profile.n != n:
                raise ExperimentError(
                    f"fixed variance profile is {self.profile.n}x{self.profile.n}, "
                    f"cannot run at size {n}")
            return self.profile
        if self.profile == "offdiagonal":
            return VarianceProfile.offdiagonal(n)
        if self.profile == "full":
            return VarianceProfile.full(n)
        raise ExperimentError(f"unknown profile preset {self.profile!r}")

    @property
    def jseed(self) -> int:
        return self.seed if self.coupling_seed is None else self.coupling_seed


def check_preconditions(kind: str, cfg: ExperimentConfig) -> None:
    """Raise :class:`ExperimentError` if ``cfg`` cannot run experiment ``kind``.

    ``kind`` is a command-line experiment name; kinds without
    kind-specific preconditions (and the empty name) only need a fixed
    profile to be symmetric when the ensemble is.  The checks read only
    the configuration, so a run that cannot succeed fails before any work.

    ``universality`` and ``hopfield`` accept an asymmetric ensemble under
    the gradient-flow template: that is the asymmetric Hopfield model,
    whose drift ``2J - K I`` is not a gradient.  The eigen-exact
    ``aging`` and ``rayleigh`` flows need a symmetric ``J`` and no
    thresholds; they always run the gradient flow ``2J - K I``, whatever
    ``system.template`` says, so the template is not checked for them.
    A count key whose whole float64 array would exceed 256 MB is
    rejected by name: ``mc_paths`` of ``moments-check`` (``taylor-check``
    draws its paths in chunks), ``rayleigh_points`` and ``grid_points``.
    """
    every_size = kind in ("universality", "hopfield", "concentration", "aging")
    if every_size and cfg.replicas < 2:
        raise ExperimentError("need at least 2 replicas for a standard error")
    if kind in ("universality", "hopfield"):  # the kinds that evaluate cfg.suite
        for item in [item for item in cfg.suite if item.weights is not None]:
            for n in cfg.sizes:
                if item.weights.size != n ** item.arity:
                    raise ExperimentError(f"{item.name} has {item.weights.size} weights "
                                          f"but size {n} needs {n ** item.arity}")
    if kind in ("aging", "rayleigh"):
        if math.isfinite(cfg.template.beta):
            raise ExperimentError(f"{kind} runs are defined for beta = inf (noise-free flow)")
        if not cfg.symmetric:
            raise ExperimentError(f"{kind} runs need a symmetric ensemble: "
                                  "the eigendecomposition reads one triangle of J")
        if np.any(cfg.template.thresholds):
            raise ExperimentError(f"{kind} runs need thresholds = 0: "
                                  "the eigen-exact flow has no constant drift")
    if kind == "concentration":
        n0 = cfg.sizes[0]
        if not cfg.template.build(np.zeros((n0, n0))).constant_diffusion:
            raise ExperimentError("concentration runs need constant diffusion")
    if kind == "taylor-check":
        if cfg.sizes[0] > 4:
            raise ExperimentError("series-vs-MC runs are limited to dimension <= 4")
        if cfg.time > 0.5:
            raise ExperimentError("series-vs-MC runs are limited to times <= 0.5")
        if cfg.truncation > DEFAULT_TRUNCATION_CAP:
            raise ExperimentError(f"truncation order {cfg.truncation} exceeds the cap "
                                  f"{DEFAULT_TRUNCATION_CAP}")
    if kind in ("simulate", "universality", "hopfield", "concentration", "taylor-check"):
        n = max(cfg.sizes) if every_size else cfg.sizes[0]
        span = cfg.time if kind == "taylor-check" else max(
            [cfg.horizon] + [t for item in cfg.suite for t in item.times])
        steps = span / cfg.dt if cfg.dt > 0 else math.inf
        if steps * n * 8 > _NOISE_CAP:
            raise ExperimentError(f"{steps:.6g} Euler steps at size {n} need more than "
                                  f"{_NOISE_CAP >> 20} MB of noise per replica")
    if kind in _WHOLE_COUNTS:
        key = _WHOLE_COUNTS[kind]
        count = getattr(cfg, key)
        if count * 8 > _NOISE_CAP:
            raise ExperimentError(f"experiment.{key} = {count} needs more than "
                                  f"{_NOISE_CAP >> 20} MB in one array")
    if isinstance(cfg.profile, VarianceProfile):
        if cfg.symmetric and not cfg.profile.is_symmetric:
            raise ExperimentError("symmetric ensemble requires a symmetric variance profile")
        if every_size or kind in ("simulate", "taylor-check", "rayleigh"):
            for n in cfg.sizes if every_size else cfg.sizes[:1]:
                cfg.make_profile(n)


# ---------------------------------------------------------------------------
# batched integration of one chunk of replicas


def _chunk_size(n: int, steps: int) -> int:
    # keep the per-chunk noise buffer around 32 MB; never a function of
    # the thread count, so outputs cannot depend on parallelism
    budget = 32 * 2 ** 20 // max(1, steps * n * 8)
    return max(1, min(64, budget))


def _time_grid(dt: float, times, horizon: float = 0.0) -> IntegratorConfig:
    """Step grid recording ``times``, each of which must be a step multiple."""
    times = sorted(set(times))
    icfg = IntegratorConfig(dt, max([horizon] + times), tuple(times))
    for t in times:
        icfg.row(t)
    return icfg


def _paired_chunk(cfg: ExperimentConfig, profile: VarianceProfile, law: InitialLaw,
                  icfg: IntegratorConfig, chunk: range, arms: tuple = ("a", "b")) -> list:
    """Per-replica suite values, one array of shape (C, len(suite)) per arm.

    Initial conditions and noise are drawn once per replica and shared
    by every arm; only the coupling streams differ.
    """
    n = profile.n
    dists = {"a": cfg.dist_a, "b": cfg.dist_b}
    x0s = np.stack([sample_initial(law, RngStream(cfg.seed, r, PURPOSE_INITIAL))
                    for r in chunk])
    xi = np.empty((icfg.n_steps, len(chunk), n))
    for k, r in enumerate(chunk):
        gen = RngStream(cfg.seed, r, PURPOSE_NOISE).generator()
        xi[:, k, :] = gen.standard_normal((icfg.n_steps, n))
    return [_arm_values(cfg, dists[arm], profile, x0s, xi, icfg, chunk) for arm in arms]


def _arm_values(cfg: ExperimentConfig, dist: EntryDistribution, profile: VarianceProfile,
                x0s: np.ndarray, xi: np.ndarray, icfg: IntegratorConfig,
                chunk: range) -> np.ndarray:
    """One arm's suite values, shape (C, len(suite)).

    The arm's coupling stack, drift and snapshots die with the call, so
    they are freed before the next arm is drawn.
    """
    gens = [RngStream(cfg.jseed, r, PURPOSE_COUPLING).generator() for r in chunk]
    params = cfg.template.build(sample_couplings(dist, profile, cfg.symmetric, gens))
    xs, ms = euler_maruyama(params.drift_matrix(), params.h, params.sigma, x0s, icfg, (xi,))
    vals = np.empty((len(chunk), len(cfg.suite)))
    # an overflow leaves a non-finite value, which _finite_rows reports
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(chunk)):
            traj = Trajectory(params.coupling[k], xs[k], ms[k], icfg)
            for q, item in enumerate(cfg.suite):
                vals[k, q] = item.fn(traj)
    return vals


def _map_chunks(cfg: ExperimentConfig, work: Callable, chunks: list) -> list:
    if cfg.threads == 1 or len(chunks) <= 1:
        return [work(ch) for ch in chunks]
    with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
        return list(ex.map(work, chunks))


def _paired_values(cfg: ExperimentConfig, n: int, arms: tuple = ("a", "b")) -> list:
    """One array of shape (replicas, len(suite)) per arm."""
    profile = cfg.make_profile(n)
    law = InitialLaw.uniform(cfg.init_dist, n)
    icfg = _time_grid(cfg.dt, [t for item in cfg.suite for t in item.times], cfg.horizon)
    size = _chunk_size(n, icfg.n_steps)
    chunks = [range(lo, min(lo + size, cfg.replicas))
              for lo in range(0, cfg.replicas, size)]
    parts = _map_chunks(cfg, lambda ch: _paired_chunk(cfg, profile, law, icfg, ch, arms), chunks)
    return [np.concatenate([part[k] for part in parts], axis=0) for k in range(len(arms))]


# ---------------------------------------------------------------------------
# universality


@dataclass(frozen=True)
class UniversalityRow:
    n: int
    observable: str
    delta: float
    se: float
    mean_a: float
    mean_b: float
    replicas: int


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    lo: float
    hi: float


@dataclass(frozen=True)
class UniversalityReport:
    rows: tuple
    slopes: dict


def _fit_loglog(ns, values) -> Optional[SlopeFit]:
    pts = [(math.log(n), math.log(v)) for n, v in zip(ns, values) if v > 0]
    if len(pts) < 3:
        return None
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0:
        return None
    slope = float(xc @ y) / sxx
    resid = y - (y.mean() + slope * xc)
    dof = len(pts) - 2  # >= 1: fewer than three points returned above
    stderr = math.sqrt(float(resid @ resid) / dof / sxx)
    return SlopeFit(slope, slope - 1.96 * stderr, slope + 1.96 * stderr)


def _finite_rows(rows: list) -> tuple:
    """``rows`` as a tuple; :class:`ExperimentError` if a statistic is not finite."""
    for row in rows:
        for name, value in vars(row).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ExperimentError(
                    f"non-finite {name} = {value} at n={row.n} for {row.observable}: "
                    "the integration is numerically unstable")
    return tuple(rows)


def run_universality(cfg: ExperimentConfig) -> UniversalityReport:
    """Paired-arm expectation differences across sizes.

    Per replica the initial condition and the noise are shared between
    arms and only the coupling is redrawn, so with identical entry
    distributions the per-replica difference is exactly zero.
    """
    check_preconditions("universality", cfg)
    if not cfg.suite:
        cfg = replace(cfg, suite=default_suite(cfg.horizon))
    rows = []
    per_obs_delta: dict = {item.name: [] for item in cfg.suite}
    for n in cfg.sizes:
        va, vb = _paired_values(cfg, n)
        # an unstable run overflows here; _finite_rows reports it, not numpy
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = va - vb
            for q, item in enumerate(cfg.suite):
                d = diffs[:, q]
                delta = float(d.mean())
                se = float(d.std(ddof=1)) / math.sqrt(len(d))
                rows.append(UniversalityRow(n, item.name, delta, se,
                                            float(va[:, q].mean()), float(vb[:, q].mean()),
                                            len(d)))
                per_obs_delta[item.name].append(abs(delta))
    slopes = {name: _fit_loglog(cfg.sizes, deltas)
              for name, deltas in per_obs_delta.items()}
    return UniversalityReport(_finite_rows(rows), slopes)


def run_hopfield(cfg: ExperimentConfig) -> UniversalityReport:
    """Universality for the thresholded gradient flow.

    Forces the gradient-flow drift with the configured thresholds and
    the four-observable suite (autocorrelation, energy density, squared
    field strength, overlap with the start); otherwise identical to
    :func:`run_universality`, to which it delegates.
    """
    template = cfg.template
    if not template.langevin:
        template = replace(template, langevin=True)
    suite = cfg.suite if cfg.suite else hopfield_suite(cfg.horizon)
    forced = replace(cfg, template=template, suite=suite)
    return run_universality(forced)


# ---------------------------------------------------------------------------
# concentration


@dataclass(frozen=True)
class ConcentrationRow:
    n: int
    observable: str
    sup_std: float
    dev_std: float
    dev_mean: float
    replicas: int
    tails: tuple  # ((threshold, count), ...)


@dataclass(frozen=True)
class ConcentrationReport:
    rows: tuple


def run_concentration(cfg: ExperimentConfig) -> ConcentrationReport:
    """Replica spread of sup-over-grid observables, single arm.

    Requires an additive-noise template (state-dependent diffusion is
    outside the concentration statement this checks).  The deviation
    statistics center each grid point at its replica mean and take the
    sup over the grid per replica.
    """
    check_preconditions("concentration", cfg)
    # Snap the evaluation grid to step multiples so lookups are exact.
    steps = sorted({int(round(t / cfg.dt))
                    for t in np.linspace(0.0, cfg.horizon, cfg.grid_points)})
    grid = tuple(k * cfg.dt for k in steps)
    suite = tuple(autocorr_item(t, t) for t in grid)
    sub = replace(cfg, suite=suite)
    rows = []
    for n in cfg.sizes:
        (curve,) = _paired_values(sub, n, arms=("a",))  # (replicas, grid)
        with np.errstate(over="ignore", invalid="ignore"):  # see run_universality
            sups = curve.max(axis=1)
            dev = np.abs(curve - curve.mean(axis=0)).max(axis=1)
            tails = tuple((lam, int((dev > lam).sum())) for lam in cfg.tail_thresholds)
            rows.append(ConcentrationRow(n, "autocorr[t,t]",
                                         float(sups.std(ddof=1)),
                                         float(dev.std(ddof=1)),
                                         float(dev.mean()),
                                         sub.replicas, tails))
    return ConcentrationReport(_finite_rows(rows))


# ---------------------------------------------------------------------------
# aging (noise-free flow, exact in the eigenbasis)


@dataclass(frozen=True)
class AgingRow:
    n: int
    s: float
    lam: float
    mean_a: float
    se_a: float
    mean_b: float
    se_b: float
    gap: float


@dataclass(frozen=True)
class AgingReport:
    rows: tuple
    dropped_a: int
    dropped_b: int


def _spectra(cfg: ExperimentConfig, profile: VarianceProfile, law: InitialLaw,
             replicas: int, scale: float):
    """Per arm and replica, ``(arm, r, w, c2)``: the eigenvalues ``w`` of
    ``scale * J`` and the squared eigenbasis coefficients
    ``c2 = (v^T x0)^2`` of the replica's start.

    A generator over both arms, so each replica's coupling ``J`` stays
    referenced until the next draw replaces it, across the arm switch
    too; freeing it before a draw made glibc trim and re-fault the
    heap.  The eigenvectors are freed before the yield, so peak memory
    stays at one replica in flight.
    """
    for arm, dist in (("a", cfg.dist_a), ("b", cfg.dist_b)):
        for r in range(replicas):
            j = sample_couplings(dist, profile, cfg.symmetric,
                                 [RngStream(cfg.jseed, r, PURPOSE_COUPLING).generator()])[0]
            w, v = np.linalg.eigh(scale * j)
            x0 = sample_initial(law, RngStream(cfg.seed, r, PURPOSE_INITIAL))
            c2 = (v.T @ x0) ** 2
            del v
            yield arm, r, w, c2


def _aging_ratios_one(w: np.ndarray, c2: np.ndarray, pairs: list) -> list:
    """Normalized autocorrelation ratios of the noise-free flow.

    The flow ``x_t = exp((2J - K I) t) x0`` gives
    ``C(s, t) = (1/N) sum_i c_i^2 exp((mu_i - K)(s + t))`` over the
    eigenvalues ``w = mu`` of ``2J`` (ascending) and the squared
    eigenbasis coefficients ``c2`` of ``x0``.  The confinement cancels
    from the normalized ratio exactly, so the computation shifts all
    exponents by the spectral top and never forms the (possibly huge or
    tiny) bare correlations.
    """
    shifted = w - w[-1]

    def corr(sum_t: float) -> float:
        return float(c2 @ np.exp(shifted * sum_t))

    out = []
    for s, lam in pairs:
        t = lam * s
        num = corr(s + t)
        den = math.sqrt(corr(2 * s) * corr(2 * t))
        out.append(num / den)
    return out


def run_aging(cfg: ExperimentConfig) -> AgingReport:
    """Two-time autocorrelation ratios of the noise-free gradient flow.

    The flow is always the gradient flow ``2J - K I``, as for
    ``hopfield``; ``system.template`` is not read.  Requires
    ``beta = inf``.  With ``confinement_mode = "auto"`` each
    replica uses a confinement just above its own spectral radius (the
    normalized ratio does not depend on the choice); with a fixed
    confinement, replicas whose sampled operator norm reaches it are
    dropped and counted.
    """
    check_preconditions("aging", cfg)
    pairs = [(float(s), float(lam)) for s in cfg.s_values for lam in cfg.lambdas]
    fixed = cfg.confinement_mode != "auto"
    rows = []
    dropped = {"a": 0, "b": 0}
    for n in cfg.sizes:
        profile = cfg.make_profile(n)
        law = InitialLaw.uniform(cfg.init_dist, n)
        per_arm = {"a": [], "b": []}
        for arm, _, w, c2 in _spectra(cfg, profile, law, cfg.replicas, 2.0):
            if not (fixed and cfg.template.confinement <= max(-w[0], w[-1])):
                per_arm[arm].append(_aging_ratios_one(w, c2, pairs))
        for arm, vals in per_arm.items():
            lost = cfg.replicas - len(vals)
            dropped[arm] += lost
            if len(vals) < 2:
                raise ExperimentError(
                    f"arm {arm!r} at n={n}: only {len(vals)} replicas below the "
                    f"confinement {cfg.template.confinement} ({lost} dropped)")
            per_arm[arm] = np.asarray(vals)
        for q, (s, lam) in enumerate(pairs):
            stats = {}
            for arm in ("a", "b"):
                col = per_arm[arm][:, q]
                stats[arm] = (float(col.mean()),
                              float(col.std(ddof=1)) / math.sqrt(len(col)))
            rows.append(AgingRow(n, s, lam, stats["a"][0], stats["a"][1],
                                 stats["b"][0], stats["b"][1],
                                 abs(stats["a"][0] - stats["b"][0])))
    return AgingReport(tuple(rows), dropped["a"], dropped["b"])


# ---------------------------------------------------------------------------
# truncated series vs Monte Carlo


@dataclass(frozen=True)
class TaylorRow:
    observable: str
    value: float
    tail_bound: float
    diverging: bool
    mc_mean: float
    mc_se: float
    z: float


@dataclass(frozen=True)
class OrderRow:
    observable: str
    order: int
    term: float
    partial_sum: float


@dataclass(frozen=True)
class TaylorVsMcReport:
    rows: tuple
    orders: tuple
    any_diverging: bool


def _mc_moments(cfg: ExperimentConfig, n: int, specs: list) -> tuple:
    """Monte Carlo of ``E[prod_k f_k(X_{t_k})]`` over coupling, start, noise.

    Each spec is (list of x-polynomials, matching times).  Chunks are
    keyed by their index, so the estimate is deterministic in the seed
    and independent of the chunk width heuristic staying fixed.
    """
    profile = cfg.make_profile(n)
    icfg = _time_grid(cfg.dt, [t for _, ts in specs for t in ts])
    steps = icfg.n_steps
    chunk = max(1, min(8192, 64 * 2 ** 20 // max(1, (steps + 1) * n * 8)))
    sums = np.zeros(len(specs))
    sums_sq = np.zeros(len(specs))
    total = 0
    cid = 0
    while total < cfg.mc_paths:
        c = min(chunk, cfg.mc_paths - total)
        gen_j = RngStream(cfg.jseed, cid, PURPOSE_COUPLING).generator()
        gen_x0 = RngStream(cfg.seed, cid, PURPOSE_INITIAL).generator()
        gen_b = RngStream(cfg.seed, cid, PURPOSE_NOISE).generator()
        params = cfg.template.build(
            sample_couplings(cfg.dist_a, profile, cfg.symmetric, [gen_j] * c))
        x0s = sample_entries(cfg.init_dist, (c, n), gen_x0)
        xi = gen_b.standard_normal((steps, c, n))
        # keep the C-contiguous copy: this layout is pinned by the golden bytes
        xs, _ = euler_maruyama(params.drift_matrix().copy(), params.h, params.sigma, x0s,
                               icfg, (xi,))
        # an overflow leaves a non-finite sum of squares, which is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            for q, (poly_list, ts) in enumerate(specs):
                vals = np.ones(c)
                for f, t in zip(poly_list, ts):
                    vals *= f.evaluate(None, xs[:, icfg.row(t)].T)
                sums[q] += vals.sum()
                sums_sq[q] += (vals * vals).sum()
        total += c
        cid += 1
    if not np.all(np.isfinite(sums_sq)):  # then the sums and moments are finite too
        raise ExperimentError("non-finite Monte Carlo moment: "
                              "the integration is numerically unstable")
    mean = sums / total
    var = np.maximum(sums_sq / total - mean ** 2, 0.0)
    se = np.sqrt(var / total)
    return mean, se


def run_taylor_vs_mc(cfg: ExperimentConfig) -> TaylorVsMcReport:
    """Symbolic truncated means against a full Monte Carlo, small systems.

    Uses the first configured size (must be at most 4) and the
    configured time (at most 0.5).  The report carries per-order terms
    for the single-time observables plus z-scores, and propagates the
    divergence warning of the symbolic engine for every row, the
    multi-time one included.
    """
    check_preconditions("taylor-check", cfg)
    n = cfg.sizes[0]
    t = cfg.time
    profile = cfg.make_profile(n)
    law = InitialLaw.uniform(cfg.init_dist, n)
    oracle = MomentOracle.from_ensemble(cfg.dist_a, profile, law, cfg.symmetric)
    # the symbolic engine reads only the deterministic parts of the template
    params = cfg.template.build(np.zeros((n, n)))

    singles = [("x1", Polynomial.from_x(1)), ("x1^2", Polynomial.from_x(1, 1))]
    if n >= 2:
        singles.append(("x1*x2", Polynomial.from_x(1, 2)))
    multi_name = "x1(t/2)*x1(t)"
    multi_fs = [Polynomial.from_x(1), Polynomial.from_x(1)]
    multi_ts = (t / 2, t)
    specs = [([f], (t,)) for _, f in singles] + [(multi_fs, multi_ts)]
    mean, se = _mc_moments(cfg, n, specs)

    rows = []
    orders = []
    for q, (name, f) in enumerate(singles):
        res = taylor_mean(f, params, oracle, t, cfg.truncation)
        z = (res.value - mean[q]) / se[q] if se[q] > 0 else 0.0
        rows.append(TaylorRow(name, res.value, res.tail_bound, res.diverging,
                              float(mean[q]), float(se[q]), float(z)))
        partial = 0.0
        for k, term in enumerate(res.terms):
            partial += term
            orders.append(OrderRow(name, k, term, partial))
    mv = taylor_mean_multitime(multi_fs, multi_ts, params, oracle, cfg.truncation)
    q = len(singles)
    z = (mv.value - mean[q]) / se[q] if se[q] > 0 else 0.0
    rows.append(TaylorRow(multi_name, mv.value, mv.tail_bound, mv.diverging, float(mean[q]),
                          float(se[q]), float(z)))
    return TaylorVsMcReport(tuple(rows), tuple(orders), any(r.diverging for r in rows))


# ---------------------------------------------------------------------------
# rayleigh quotient along the noise-free flow


@dataclass(frozen=True)
class RayleighRow:
    arm: str
    replica: int
    top_eigenvalue: float
    final_quotient: float
    deficit: float
    monotone: bool


@dataclass(frozen=True)
class RayleighReport:
    rows: tuple
    times: tuple
    mean_gap: float


def rayleigh_quotient_curve(eigvals: np.ndarray, coeffs_sq: np.ndarray,
                            times: np.ndarray) -> np.ndarray:
    """Quotient ``<x_t, J x_t>/|x_t|^2`` of the flow, eigen-exactly.

    ``eigvals`` are the eigenvalues of the coupling itself and
    ``coeffs_sq`` the squared eigenbasis coefficients of the start.
    Weights are shifted by the top eigenvalue so late times never
    overflow; the confinement cancels identically.
    """
    lam = np.asarray(eigvals, dtype=np.float64)
    c2 = np.asarray(coeffs_sq, dtype=np.float64)
    if c2.sum() <= 0:
        raise ExperimentError("start vector has no component in the eigenbasis")
    shifted = lam - lam.max()
    out = np.empty(len(times))
    for k, t in enumerate(times):
        w = c2 * np.exp(4.0 * shifted * t)
        out[k] = float((lam * w).sum() / w.sum())
    return out


def run_rayleigh(cfg: ExperimentConfig) -> RayleighReport:
    """Gradient ascent of the quotient toward the spectral top.

    The flow is always the gradient flow ``2J - K I``, as for
    ``hopfield``; ``system.template`` is not read.  Noise-free flow
    only; per replica the quotient curve is computed in the eigenbasis
    and compared with the top eigenvalue of the sampled coupling.  Monotonicity is recorded per replica as a strict
    step-by-step check.
    """
    check_preconditions("rayleigh", cfg)
    n = cfg.sizes[0]
    profile = cfg.make_profile(n)
    law = InitialLaw.uniform(cfg.init_dist, n)
    times = np.linspace(0.0, cfg.rayleigh_horizon, cfg.rayleigh_points)
    rows = []
    finals = {"a": [], "b": []}
    for arm, r, lam, c2 in _spectra(cfg, profile, law, cfg.rayleigh_replicas, 1.0):
        curve = rayleigh_quotient_curve(lam, c2, times)
        # the exact quotient is nondecreasing; allow ulp-level rounding
        # wiggle once the curve has plateaued at the top
        tol = 8 * np.finfo(np.float64).eps * max(1.0, float(np.abs(lam).max()))
        monotone = bool(np.all(np.diff(curve) >= -tol))
        top = float(lam[-1])
        final = float(curve[-1])
        rows.append(RayleighRow(arm, r, top, final, top - final, monotone))
        finals[arm].append(final)
    gap = abs(float(np.mean(finals["a"])) - float(np.mean(finals["b"])))
    return RayleighReport(tuple(rows), tuple(times), gap)
