"""Paired-ensemble studies at desk scale.

The central estimator is common-random-number pairing: two coupling
ensembles with the same variance profile are compared by sharing the
initial condition and the driving noise within each replica while
sampling the coupling independently per arm.  The product structure of
the randomness makes this legitimate, and the pairing removes most of
the replica variance from the arm difference, so the decay of the
difference with dimension is visible with a few thousand replicas.

Replicas are independent units of work keyed by their stream id, and
``threads`` counts the worker processes they are dealt to
(:func:`_fan_out`).  A paired run streams them in blocks whose width
depends only on N and the arm count, never on the step or worker count:
each block integrates every arm in one batched matrix-vector loop, and
each worker runs its blocks through one workspace it allocates once,
noise included, so memory grows neither with the replica count nor with
the step count.  Every replica's values depend only on its
own streams and land in its own row, so reports are deterministic
functions of (config, seed).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import dynamics
# Trajectory is unused here, but perfbench/spans.py wraps experiments.Trajectory
from .dynamics import (IntegratorConfig, ParameterError, SimulationBlowupError, SystemTemplate,
                       Trajectory, euler_maruyama)
from .ensembles import (EntryDistribution, InitialLaw, VarianceProfile,
                        sample_couplings, sample_entries, sample_initial)
from .generator import DEFAULT_TRUNCATION_CAP, taylor_mean, taylor_mean_multitime
from .algebra import MomentOracle, Polynomial
from .observables import BuildingBlock, SuiteItem, evaluate
from .rng import PURPOSE_COUPLING, PURPOSE_INITIAL, PURPOSE_NOISE, RngStream

__all__ = [
    "SystemTemplate",
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


# Cap on 8 * steps * N of one Euler run at its largest size, so 2^25
# steps times N.  Every Euler path streams its noise in 1 MB chunks of
# steps, so no array of this size is allocated; the cap bounds the work
# of one run.  The same cap bounds the float64 array of each count key
# below.
_NOISE_CAP = 2 ** 28

# Count keys whose whole array an experiment allocates at once:
# moments-check draws every sample in one call, and rayleigh and
# concentration lay out their time grids with np.linspace.
_WHOLE_COUNTS = {"moments-check": "mc_paths", "rayleigh": "rayleigh_points",
                 "concentration": "grid_points"}


# ---------------------------------------------------------------------------
# configuration


def autocorr_item(s: float, t: float) -> SuiteItem:
    """Autocorrelation ``C(s, t) = (1/N) sum_i X_i(s) X_i(t)``."""
    return SuiteItem(f"autocorr[{s:g},{t:g}]", ((BuildingBlock.X, BuildingBlock.X),), (s, t))


def hamiltonian_item(t: float) -> SuiteItem:
    """Energy density ``H(X_t)/N`` of ``H(x) = x . (J x)``."""
    return SuiteItem(f"hamiltonian[{t:g}]", ((BuildingBlock.X, BuildingBlock.JX),), (t, t))


def gradsq_item(t: float) -> SuiteItem:
    """Squared field strength per site, ``(1/N) sum_i G_i(t)^2``."""
    return SuiteItem(f"gradsq[{t:g}]", ((BuildingBlock.G, BuildingBlock.G),), (t, t))


def overlap_item(t: float) -> SuiteItem:
    """Overlap with the initial state, (1/N) sum X_i(t) X_i(0)."""
    return SuiteItem(f"overlap[{t:g}]", ((BuildingBlock.X, BuildingBlock.X),), (0.0, t))


def default_suite(t: float = 1.0) -> tuple:
    return (autocorr_item(t, t), hamiltonian_item(t))


def hopfield_suite(t: float = 1.0) -> tuple:
    return (autocorr_item(t, t), hamiltonian_item(t), gradsq_item(t), overlap_item(t))


def _suite(kind: str, cfg: "ExperimentConfig") -> tuple:
    """The suite a paired ``kind`` evaluates: the configured one, else the
    kind's default at ``horizon``; for ``concentration`` the
    autocorrelations on ``grid_points`` times snapped to step multiples."""
    if kind == "concentration":
        steps = sorted({int(round(t / cfg.dt))
                        for t in np.linspace(0.0, cfg.horizon, cfg.grid_points)})
        return tuple(autocorr_item(k * cfg.dt, k * cfg.dt) for k in steps)
    if cfg.suite:
        return cfg.suite
    return (hopfield_suite if kind == "hopfield" else default_suite)(cfg.horizon)


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
            raise ExperimentError("worker count must be positive")

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
    whose drift ``2J - K I`` is not a gradient.  The spectral
    ``aging`` and ``rayleigh`` flows need a symmetric ``J`` and no
    thresholds; they always run the gradient flow ``2J - K I``, whatever
    ``system.template`` says, so the template is not checked for them.
    A run of more than 2^25 Euler steps times N at its largest size is
    rejected, and so, by name, is a count key whose whole float64 array
    would exceed 256 MB: ``mc_paths`` of ``moments-check``
    (``taylor-check`` draws its paths in chunks), ``rayleigh_points``
    and ``grid_points``.
    Every time the Euler kinds record must lie on the step grid: the
    suite of ``universality``, ``hopfield`` and ``concentration``
    (:func:`_suite`, the defaults at ``horizon`` included) and the
    Monte Carlo times ``time / 2`` and ``time`` of ``taylor-check``.
    """
    every_size = kind in ("universality", "hopfield", "concentration", "aging")
    if every_size and cfg.replicas < 2:
        raise ExperimentError("need at least 2 replicas for a standard error")
    if kind in ("universality", "hopfield"):  # the kinds that evaluate cfg.suite
        for item in [item for item in cfg.suite if isinstance(item.weights, np.ndarray)]:
            for n in cfg.sizes:
                if item.weights.size != n ** item.arity:
                    raise ExperimentError(f"{item.name} has {item.weights.size} weights "
                                          f"but size {n} needs {n ** item.arity}")
    if kind in ("aging", "rayleigh"):
        if math.isfinite(cfg.template.beta):
            raise ExperimentError(f"{kind} runs are defined for beta = inf (noise-free flow)")
        if not cfg.symmetric:
            raise ExperimentError(f"{kind} runs need a symmetric ensemble: "
                                  "Lanczos quadrature needs J = J^T")
        if np.any(cfg.template.thresholds):
            raise ExperimentError(f"{kind} runs need thresholds = 0: "
                                  "the spectral flow has no constant drift")
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
            raise ExperimentError(f"{steps:.6g} Euler steps at size {n} exceed the cap of "
                                  f"{_NOISE_CAP >> 3} steps times N of one run")
    if kind in _WHOLE_COUNTS:
        key = _WHOLE_COUNTS[kind]
        count = getattr(cfg, key)
        if count * 8 > _NOISE_CAP:
            raise ExperimentError(f"experiment.{key} = {count} needs more than "
                                  f"{_NOISE_CAP >> 20} MB in one array")
    if kind in ("universality", "hopfield", "concentration", "taylor-check"):
        times = ([cfg.time / 2, cfg.time] if kind == "taylor-check"
                 else [t for item in _suite(kind, cfg) for t in item.times])
        try:
            _time_grid(cfg.dt, times)
        except ParameterError as exc:
            raise ExperimentError(str(exc)) from None
    if isinstance(cfg.profile, VarianceProfile):
        if cfg.symmetric and not cfg.profile.is_symmetric:
            raise ExperimentError("symmetric ensemble requires a symmetric variance profile")
        if every_size or kind in ("simulate", "taylor-check", "rayleigh"):
            for n in cfg.sizes if every_size else cfg.sizes[:1]:
                cfg.make_profile(n)


# ---------------------------------------------------------------------------
# worker processes


def _fan_out(work: Callable, shares: list) -> list:
    """``[work(share) for share in shares]``, each share after the first
    run by a forked worker process.

    The workers start before this process runs ``shares[0]`` itself.
    Each sends back ``work(share)``, or the exception it raised, pickled
    through its own pipe, and ends with ``os._exit``, so it never returns
    into the caller's frames.  This process reads every pipe to its end,
    reaps every worker, and then re-raises the first failure in share
    order with its type and message.  If its own share raises, it kills
    and reaps the workers first.  With one share, or where ``os.fork`` is
    missing, every share runs in this process.

    Fork, not spawn: the package starts no threads, and a spawned worker
    would import numpy again, which costs more than a paired share.
    Processes run at once where threads would take turns on the
    interpreter lock between the short numpy calls of a replica block.
    """
    if len(shares) < 2 or not hasattr(os, "fork"):
        return [work(share) for share in shares]
    workers = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _worker(work, share, write)
            os.close(write)
            workers.append((pid, read))
        outcomes = [(True, work(shares[0]))]
        for _, read in workers:
            outcomes.append(_receive(read))
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in workers:
            os.close(read)
            os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _worker(work: Callable, share, write: int) -> None:
    """A forked worker's whole life: run ``share``, send the outcome
    through the pipe end ``write``, and exit without returning."""
    status = 1
    try:
        try:
            outcome = (True, work(share))
        except BaseException as exc:  # sent to the parent, which re-raises it
            outcome = (False, exc)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(_pickled(outcome))
        status = 0
    finally:
        os._exit(status)


def _pickled(outcome: tuple) -> bytes:
    """``outcome`` pickled; a failure that does not survive the round trip
    goes as a :class:`RuntimeError` naming its type and message."""
    ok, value = outcome
    if ok:
        return pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        data = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        substitute = RuntimeError(f"{type(value).__name__}: {value}")
        return pickle.dumps((False, substitute), protocol=pickle.HIGHEST_PROTOCOL)


def _receive(read: int) -> tuple:
    """The outcome a worker wrote to the pipe end ``read``, read to its end."""
    chunks = []
    while chunk := os.read(read, 1 << 20):
        chunks.append(chunk)
    if not chunks:
        return False, RuntimeError("a worker process ended without sending its result")
    return pickle.loads(b"".join(chunks))


# ---------------------------------------------------------------------------
# paired replicas, streamed one block at a time


def _block_width(n: int, arms: int) -> int:
    """Replicas per paired block: the block's (arms * width, N, N) coupling
    stack is one drift block of the integrator (1 MB).  A function of N
    and the arm count only, never of the step or worker count: with two
    arms, 4 at N = 128 and 1 from N = 256 up."""
    return max(1, dynamics._DRIFT_BLOCK_BYTES // (8 * n * n) // arms)


def _time_grid(dt: float, times, horizon: float = 0.0) -> IntegratorConfig:
    """Step grid recording ``times``, each of which must be a step multiple."""
    times = sorted(set(times))
    icfg = IntegratorConfig(dt, max([horizon] + times), tuple(times))
    for t in times:
        icfg.row(t)
    return icfg


def _paired_chunk(cfg: ExperimentConfig, profile: VarianceProfile, law: InitialLaw,
                  icfg: IntegratorConfig, blocks: list, arms: tuple = ("a", "b")) -> tuple:
    """One worker's share of the paired run: the replica ``blocks`` in turn.

    A block of k replicas integrates every arm in one
    :func:`euler_maruyama` call on an (arms * k, N, N) coupling stack,
    arm a's rows first, then arm b's.  The worker reuses one workspace
    for every block: the stack's starts and couplings, sized for its
    widest block, and one noise buffer, sized to the largest chunk the
    integrator asks for.  Per block, each replica's start is drawn into
    every arm's rows, each arm samples its couplings into its rows, and
    one ``SystemTemplate.build`` makes the stack's system.  The noise
    source keeps each replica's generator for the whole block; each call
    draws the chunk's steps of every replica and copies them into the
    other arms' rows, and consecutive draws give the values of one draw
    of the whole run.  Each suite item is one :func:`evaluate` call on
    the whole stack, its states and the coupling the build returned, on
    rows resolved once per share, and its values are split by arm rows;
    the stacked products keep each replica's bits.  Returns an array of
    shape (arms, replicas of ``blocks`` in order, len(suite)), and the
    earliest blow-up step over the worker's replicas and arms, ``inf``
    if none.
    """
    n, copies = profile.n, len(arms)
    width = max(len(block) for block in blocks)
    dists = {"a": cfg.dist_a, "b": cfg.dist_b}
    rows = [item.rows(icfg) for item in cfg.suite]
    values = np.empty((copies, sum(map(len, blocks)), len(cfg.suite)))
    x0s = np.empty((copies * width, n))
    couplings = np.empty((copies * width, n, n))
    noise = np.empty(0)
    gens = []  # the noise generators of the block in flight

    def draw(lo, hi):
        nonlocal noise
        size = copies * len(gens) * (hi - lo) * n
        if noise.size < size:
            noise = np.empty(size)
        xi = noise[:size].reshape(copies, len(gens), hi - lo, n)
        for gen, out in zip(gens, xi[0]):
            gen.standard_normal(out=out)
        xi[1:] = xi[0]
        return xi.reshape(copies * len(gens), hi - lo, n).swapaxes(0, 1)

    first = math.inf
    row = 0
    for block in blocks:
        k = len(block)
        starts = x0s[:copies * k].reshape(copies, k, n)
        for i, r in enumerate(block):
            starts[0, i] = sample_initial(law, RngStream(cfg.seed, r, PURPOSE_INITIAL))
        starts[1:] = starts[0]
        for a, arm in enumerate(arms):
            sample_couplings(dists[arm], profile, cfg.symmetric,
                             [RngStream(cfg.jseed, r, PURPOSE_COUPLING).generator() for r in block],
                             out=couplings[a * k:(a + 1) * k])
        params = cfg.template.build(couplings[:copies * k])
        gens[:] = [RngStream(cfg.seed, r, PURPOSE_NOISE).generator() for r in block]
        try:
            xs, ms = euler_maruyama(params, x0s[:copies * k], icfg, draw)
        except SimulationBlowupError as exc:
            first = min(first, exc.step)
        if first < math.inf:
            continue  # the run fails; the rest only looks for an earlier step
        # an overflow leaves a non-finite value, which _finite_rows reports
        with np.errstate(over="ignore", invalid="ignore"):
            for q, (item, item_rows) in enumerate(zip(cfg.suite, rows)):
                values[:, row:row + k, q] = evaluate(item, item_rows, xs, ms,
                                                     params.coupling).reshape(copies, k)
        row += k
    return values, first


def _paired_values(cfg: ExperimentConfig, n: int, arms: tuple = ("a", "b")) -> list:
    """One array of shape (replicas, len(suite)) per arm.

    The replicas run in blocks of :func:`_block_width`, every arm of a
    block in one integration, dealt round-robin to ``threads`` worker
    processes (:func:`_fan_out`), each of which runs its share through
    :func:`_paired_chunk`.  A replica's values depend
    only on its own streams, so the arrays do not depend on the blocks or
    the worker count.  A blow-up raises :class:`SimulationBlowupError`
    with the earliest step over every replica and arm of the size.
    """
    profile = cfg.make_profile(n)
    law = InitialLaw.uniform(cfg.init_dist, n)
    icfg = _time_grid(cfg.dt, [t for item in cfg.suite for t in item.times], cfg.horizon)
    width = _block_width(n, len(arms))
    blocks = [range(lo, min(lo + width, cfg.replicas)) for lo in range(0, cfg.replicas, width)]
    workers = min(cfg.threads, len(blocks))
    shares = [blocks[w::workers] for w in range(workers)]
    done = _fan_out(lambda share: _paired_chunk(cfg, profile, law, icfg, share, arms), shares)
    values = [np.empty((cfg.replicas, len(cfg.suite))) for _ in arms]
    first = math.inf
    for share, (rows, share_first) in zip(shares, done):
        replicas = [r for block in share for r in block]
        for vals, got in zip(values, rows):
            vals[replicas] = got
        first = min(first, share_first)
    if first < math.inf:
        raise SimulationBlowupError(first)
    return values


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
    cfg = replace(cfg, suite=_suite("universality", cfg))
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
    forced = replace(cfg, template=template, suite=_suite("hopfield", cfg))
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
    sub = replace(cfg, suite=_suite("concentration", cfg))
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
# aging (noise-free flow, a Gauss rule of the spectral measure)


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


# Lanczos steps between two convergence checks of the Gauss rule.
_LANCZOS_CHECK = 16


def _tridiagonal(alpha: list, beta: list) -> np.ndarray:
    """The Lanczos matrix: ``alpha`` on the diagonal, ``beta`` on both sides."""
    m = len(alpha)
    t = np.zeros((m, m))
    flat = t.reshape(-1)
    np.add(alpha, 0.0, out=flat[::m + 1])  # a -0.0 reads +0.0, as in a sum of diagonals
    flat[1::m + 1] = beta
    flat[m::m + 1] = beta
    return t


def _gauss_rule(a: np.ndarray, x0: np.ndarray) -> tuple:
    """Gauss rule ``(theta, weights)`` of the spectral measure of the
    symmetric ``a`` seen from ``x0``: ``sum(weights * f(theta))`` equals
    ``x0^T f(a) x0`` for every polynomial ``f`` of degree below ``2m``,
    with ``m`` Lanczos steps (Golub & Welsch 1969; Golub & Meurant 2010).

    Lanczos from ``x0`` runs with full reorthogonalization (classical
    Gram-Schmidt, twice) and builds the tridiagonal ``T``.  The nodes are
    its eigenvalues, the Ritz values, ascending; the weights are
    ``|x0|^2`` times the squared first components of its eigenvectors.
    Every ``_LANCZOS_CHECK`` steps the extreme Ritz values are compared
    with the last check's.  The run stops when both moved by at most
    ``1e-14 * max|theta|``, when the Krylov space closes (the next
    ``beta`` is at rounding level), or at ``m = N``.  The stop depends
    only on ``(a, x0)``.

    Ritz values lie inside the spectrum.  When the space closes before
    ``N`` steps the rule is exact, but its extremes need not be the
    spectrum's ends: those ends, from ``eigvalsh``, then join the rule as
    two zero-weight nodes.  So ``theta[0]`` and ``theta[-1]`` are the
    spectrum's ends either way, to the stopping tolerance when the run
    stopped on convergence.
    """
    n = len(x0)
    mass = float(x0 @ x0)
    tol = n * np.finfo(np.float64).eps * float(np.linalg.norm(a))
    basis = np.empty((min(n, 2 * _LANCZOS_CHECK), n))
    alpha, beta = [], []
    r, b, ends = x0, math.sqrt(mass), None
    while len(alpha) < n and b > tol:
        m = len(alpha)
        if m == len(basis):
            basis = np.concatenate([basis, np.empty((min(n, 2 * m) - m, n))])
        if m:
            beta.append(b)
        basis[m] = r / b
        q = basis[:m + 1]
        r = a @ basis[m]
        h = q @ r
        r -= h @ q
        h2 = q @ r
        r -= h2 @ q
        alpha.append(h[m] + h2[m])
        b = math.sqrt(r @ r)
        if len(alpha) % _LANCZOS_CHECK == 0 and b > tol:
            now = np.linalg.eigvalsh(_tridiagonal(alpha, beta))[[0, -1]]
            if ends is not None and np.all(np.abs(now - ends) <= 1e-14 * np.abs(now).max()):
                break
            ends = now
    theta, s = np.linalg.eigh(_tridiagonal(alpha, beta))
    weights = mass * s[0] ** 2
    if len(alpha) < n and b <= tol:
        lo, hi = np.linalg.eigvalsh(a)[[0, -1]]
        theta = np.concatenate([[lo], theta, [hi]])
        weights = np.concatenate([[0.0], weights, [0.0]])
    return theta, weights


def _spectra(cfg: ExperimentConfig, profile: VarianceProfile, law: InitialLaw,
             replicas: int, scale: float) -> list:
    """Per arm and replica, ``(arm, r, theta, w)``: the Gauss rule of
    :func:`_gauss_rule` for ``scale * J`` seen from the replica's start
    ``x0``.  It stands in for the eigenvalues of ``scale * J`` and the
    squared eigenbasis coefficients ``(v^T x0)^2`` of ``x0``: every
    quadratic form ``x0^T f(scale * J) x0`` the flows read is a sum over
    its nodes, and its extreme nodes are the ends of the spectrum.

    The arm-replica pairs are dealt round-robin to ``threads`` worker
    processes (:func:`_fan_out`) and come back in order, arm ``a``
    first.  Each worker keeps one replica in flight: it draws every
    replica-arm into one reused (1, N, N) coupling through
    ``sample_couplings(..., out=)``, which streams the draw in tiles of
    rows, and runs one Lanczos basis of at most ``N`` rows on it.  So a
    replica-arm holds one coupling, its basis and a few tiles of rows.
    """
    jobs = [(arm, dist, r) for arm, dist in (("a", cfg.dist_a), ("b", cfg.dist_b))
            for r in range(replicas)]

    def work(share: list) -> list:
        out = []
        coupling = np.empty((1, profile.n, profile.n))
        for arm, dist, r in share:
            j = sample_couplings(dist, profile, cfg.symmetric,
                                 [RngStream(cfg.jseed, r, PURPOSE_COUPLING).generator()],
                                 out=coupling)[0]
            x0 = sample_initial(law, RngStream(cfg.seed, r, PURPOSE_INITIAL))
            if scale != 1.0:
                j *= scale  # the coupling is this worker's own
            out.append((arm, r) + _gauss_rule(j, x0))
        return out

    workers = min(cfg.threads, len(jobs))
    done = _fan_out(work, [jobs[w::workers] for w in range(workers)])
    return [done[i % workers][i // workers] for i in range(len(jobs))]


def _aging_ratios_one(w: np.ndarray, c2: np.ndarray, pairs: list) -> list:
    """Normalized autocorrelation ratios of the noise-free flow.

    The flow ``x_t = exp((2J - K I) t) x0`` gives
    ``C(s, t) = (1/N) sum_i c_i^2 exp((mu_i - K)(s + t))`` over the
    nodes ``w = mu`` (ascending) and weights ``c2`` of the spectral
    measure of ``2J`` seen from ``x0``: its eigenvalues and squared
    eigenbasis coefficients, or a Gauss rule.  The confinement cancels
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
    and independent of the chunk width heuristic staying fixed.  A
    chunk's noise generator is drawn by :func:`euler_maruyama` as it
    walks its step chunks, into one reused buffer, which gives the values
    of one draw of the whole (steps, c, N) array, so at most 1 MB of it
    is held at once.
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
        # the C-contiguous (J + Lam)^T: this layout is pinned by the golden bytes
        xs, _ = euler_maruyama(params, x0s, icfg, dynamics._generator_source(gen_b, (c, n)),
                               contiguous=True)
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
    memos = ({}, {})  # every series of the run reads the same params and oracle
    for q, (name, f) in enumerate(singles):
        res = taylor_mean(f, params, oracle, t, cfg.truncation, memos=memos)
        z = (res.value - mean[q]) / se[q] if se[q] > 0 else 0.0
        rows.append(TaylorRow(name, res.value, res.tail_bound, res.diverging,
                              float(mean[q]), float(se[q]), float(z)))
        partial = 0.0
        for k, term in enumerate(res.terms):
            partial += term
            orders.append(OrderRow(name, k, term, partial))
    mv = taylor_mean_multitime(multi_fs, multi_ts, params, oracle, cfg.truncation,
                               memos=memos)
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
    """Quotient ``<x_t, J x_t>/|x_t|^2`` of the flow.

    ``eigvals`` and ``coeffs_sq`` are the nodes and weights of the
    spectral measure of the coupling itself seen from the start: its
    eigenvalues and squared eigenbasis coefficients, or a Gauss rule.
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
    only; per replica the quotient curve is a sum over the Gauss rule of
    :func:`_spectra` and is compared with the top eigenvalue of the
    sampled coupling, the rule's top node.  Monotonicity is recorded per
    replica as a strict step-by-step check.
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
