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
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import dynamics
# Trajectory is unused here, but perfbench/spans.py wraps experiments.Trajectory
from .dynamics import (IntegratorConfig, ParameterError, SimulationBlowupError, SystemTemplate,
                       Trajectory, euler_maruyama)
from .ensembles import (PROFILE_PRESETS, EntryDistribution, InitialLaw, VarianceProfile,
                        sample_couplings, sample_entries, sample_initial)
from .observables import BuildingBlock, SuiteItem, evaluate
from .rng import PURPOSE_COUPLING, PURPOSE_INITIAL, PURPOSE_NOISE, RngStream
from .spectral import _aging_ratios_one, _blas_threads, _gauss_rule

__all__ = [
    "SystemTemplate",
    "ExperimentConfig",
    "Report",
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
    "CONFINEMENT_MODES",
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

# Highest truncation order a series-vs-MC run may ask for, the one
# truncation cap: the symbolic engine's series take any order.
DEFAULT_TRUNCATION_CAP = 16

# confinement_mode name -> whether aging holds the confinement fixed
CONFINEMENT_MODES = {"auto": False, "fixed": True}

# Count keys whose whole array an experiment allocates at once:
# moments-check draws every sample in one call, and rayleigh and
# concentration lay out their time grids with np.linspace.
_WHOLE_COUNTS = {"moments-check": "mc_paths", "rayleigh": "rayleigh_points",
                 "concentration": "grid_points"}

Report = namedtuple("Report", "csv header rows summary")
Report.__doc__ = """One run's result: the CSV file name, its header, its rows (tuples in
header order) and the ordered ``(key, value)`` pairs of ``summary.txt``.

A row type's fields are the CSV columns, except where a column name is
not an identifier (aging's ``lambda``, concentration's ``tail[x]``), so
the header travels with the rows.

The ``run_*`` functions only compute, in no floating-point scope of their
own: an overflow or a 0/0 stays in the report as a non-finite value, which
:func:`rmsde.cli.run`, the one scope of a run, rejects."""


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
        if not isinstance(self.profile, VarianceProfile) and self.profile not in PROFILE_PRESETS:
            raise ExperimentError(f"unknown profile preset {self.profile!r}")
        if self.confinement_mode not in CONFINEMENT_MODES:
            raise ExperimentError(f"confinement_mode must be one of {tuple(CONFINEMENT_MODES)}, "
                                  f"got {self.confinement_mode!r}")

    def make_profile(self, n: int) -> VarianceProfile:
        if not isinstance(self.profile, VarianceProfile):
            return PROFILE_PRESETS[self.profile](n)
        if self.profile.n != n:
            raise ExperimentError(f"fixed variance profile is {self.profile.n}x{self.profile.n}, "
                                  f"cannot run at size {n}")
        return self.profile

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
    While the shares run, numpy's bundled OpenBLAS is held at one thread
    (:func:`_blas_threads`), which the workers inherit, so the workers
    are the run's parallelism and do not oversubscribe the cores; the
    caller's thread count is restored afterwards, also when a share
    fails.  Where that library is missing the count is left alone.
    """
    if len(shares) < 2 or not hasattr(os, "fork"):
        return [work(share) for share in shares]
    blas = _blas_threads()
    if blas is not None:
        blas_threads = blas[0]()
        blas[1](1)
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
        if blas is not None:
            blas[1](blas_threads)
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
    widest block, the couplings on a 64-byte boundary because the
    integrator reads them as the drift, and one noise source
    (:func:`dynamics._noise_source`) whose generator list is set to the
    block's k replicas.  Per block, each replica's start is drawn into
    every arm's rows, each arm samples its couplings into its rows, and
    one ``SystemTemplate.build`` makes the stack's system.  Each chunk
    draws the k replicas' noise rows only, which the integrator
    broadcasts over the arms.  The martingale part is summed only when a
    suite item reads block ``m``.  Each suite
    item is one :func:`evaluate` call on the whole stack, its states and the
    coupling the build returned, on rows resolved once per share, and its
    values are split by arm rows; the stacked products keep each
    replica's bits, overflows included (:class:`Report`).  Returns an
    array of shape (arms, replicas of ``blocks`` in order, len(suite)),
    and the earliest blow-up step over its replicas and arms, ``inf`` if none.
    """
    n, copies = profile.n, len(arms)
    width = max(len(block) for block in blocks)
    dists = {"a": cfg.dist_a, "b": cfg.dist_b}
    rows = [item.rows(icfg) for item in cfg.suite]
    martingale = any(BuildingBlock.M in row for item in cfg.suite for row in item.blocks)
    values = np.empty((copies, sum(map(len, blocks)), len(cfg.suite)))
    x0s = np.empty((copies * width, n))
    couplings = dynamics._aligned_empty((copies * width, n, n))
    gens = []  # the noise generators of the block in flight
    draw = dynamics._noise_source(gens, 1, n)
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
            xs, ms = euler_maruyama(params, x0s[:copies * k], icfg, draw, martingale=martingale)
        except SimulationBlowupError as exc:
            first = min(first, exc.step)
        if first < math.inf:
            continue  # the run fails; the rest only looks for an earlier step
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
    law = InitialLaw(cfg.init_dist, n)
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


_Universality = namedtuple("_Universality", "n observable delta se mean_a mean_b replicas")


def _fit_loglog(ns, values) -> Optional[tuple]:
    """``(slope, lo, hi)`` of log ``values`` against log ``ns``, the 95 %
    band included; ``None`` with fewer than three positive values or a
    single size."""
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
    return slope, slope - 1.96 * stderr, slope + 1.96 * stderr


def run_universality(cfg: ExperimentConfig) -> Report:
    """Paired-arm expectation differences across sizes.

    Per replica the initial condition and the noise are shared between
    arms and only the coupling is redrawn, so with identical entry
    distributions the per-replica difference is exactly zero.  The
    summary gives, per observable in name order, the log-log slope of
    ``|delta|`` against N and its 95 % band, or ``n/a`` when fewer than
    three sizes have a positive ``|delta|``.  Only computes (:class:`Report`).
    """
    check_preconditions("universality", cfg)
    cfg = replace(cfg, suite=_suite("universality", cfg))
    rows = []
    per_obs_delta: dict = {item.name: [] for item in cfg.suite}
    for n in cfg.sizes:
        va, vb = _paired_values(cfg, n)
        diffs = va - vb
        for q, item in enumerate(cfg.suite):
            d = diffs[:, q]
            delta = float(d.mean())
            se = float(d.std(ddof=1)) / math.sqrt(len(d))
            rows.append(_Universality(n, item.name, delta, se,
                                      float(va[:, q].mean()), float(vb[:, q].mean()), len(d)))
            per_obs_delta[item.name].append(abs(delta))
    summary = []
    for name, deltas in sorted(per_obs_delta.items()):
        fit = _fit_loglog(cfg.sizes, deltas)
        if fit is None:
            summary.append((f"slope[{name}]", "n/a"))
        else:
            summary += zip((f"slope[{name}]", f"slope_lo[{name}]", f"slope_hi[{name}]"), fit)
    return Report("universality.csv", _Universality._fields, tuple(rows), summary)


def run_hopfield(cfg: ExperimentConfig) -> Report:
    """Universality for the thresholded gradient flow.

    Forces the gradient-flow drift with the configured thresholds and
    the four-observable suite (autocorrelation, energy density, squared
    field strength, overlap with the start); otherwise identical to
    :func:`run_universality`, to which it delegates, apart from the CSV
    name.  Only computes (:class:`Report`).
    """
    template = cfg.template
    if not template.langevin:
        template = replace(template, langevin=True)
    forced = replace(cfg, template=template, suite=_suite("hopfield", cfg))
    return run_universality(forced)._replace(csv="hopfield.csv")


# ---------------------------------------------------------------------------
# concentration


def run_concentration(cfg: ExperimentConfig) -> Report:
    """Replica spread of sup-over-grid observables, single arm.

    Every template's noise is additive, which the concentration statement
    this checks assumes.  The deviation statistics center each grid point
    at its replica mean and take the sup over the grid per replica; the
    ``tail[x]`` columns count the replicas whose deviation exceeds ``x``
    (row fields ``_6``, ``_7``, ...).  The summary's ``sup_std`` ratio reads
    ``n/a`` when the first size's is 0.  Only computes (:class:`Report`).
    """
    check_preconditions("concentration", cfg)
    sub = replace(cfg, suite=_suite("concentration", cfg))
    header = (("n", "observable", "sup_std", "dev_std", "dev_mean", "replicas")
              + tuple(f"tail[{lam:g}]" for lam in cfg.tail_thresholds))
    row = namedtuple("_Concentration", header, rename=True)
    rows = []
    for n in cfg.sizes:
        (curve,) = _paired_values(sub, n, arms=("a",))  # (replicas, grid)
        sups = curve.max(axis=1)
        dev = np.abs(curve - curve.mean(axis=0)).max(axis=1)
        tails = tuple(int((dev > lam).sum()) for lam in cfg.tail_thresholds)
        rows.append(row(n, "autocorr[t,t]", float(sups.std(ddof=1)),
                        float(dev.std(ddof=1)), float(dev.mean()), sub.replicas, *tails))
    ratio = rows[-1].sup_std / rows[0].sup_std if rows[0].sup_std else "n/a"
    return Report("concentration.csv", header, tuple(rows),
                  [("sup_std_ratio_last_over_first", ratio)])


# ---------------------------------------------------------------------------
# aging (noise-free flow, a Gauss rule of the spectral measure)


_Aging = namedtuple("_Aging", "n s lam mean_a se_a mean_b se_b gap")


def _spectra(cfg: ExperimentConfig, profile: VarianceProfile, law: InitialLaw,
             replicas: int, watch: Callable | None = None) -> list:
    """Per arm and replica, ``(arm, r, theta, w)``: the Gauss rule of
    :func:`_gauss_rule` for the sampled ``J`` seen from the replica's
    start ``x0``.  It stands in for the eigenvalues of ``J`` and the
    squared eigenbasis coefficients ``(v^T x0)^2`` of ``x0``: every
    quadratic form ``x0^T f(J) x0`` the flows read is a sum over its
    nodes, and its extreme nodes are the ends of the spectrum (Ritz
    values if ``watch`` stopped it).  A flow of ``2J`` doubles the
    nodes, which gives the rule of ``2J`` bit for bit.

    The arm-replica pairs are dealt round-robin to ``threads`` worker
    processes (:func:`_fan_out`) and come back in order, arm ``a``
    first.  Each worker keeps one replica in flight: it draws every
    replica-arm into one reused packed upper triangle, of shape
    (1, N(N+1)/2), through ``sample_couplings(..., out=)``, which streams
    the draw in tiles of rows, and runs one Lanczos basis of at most
    ``N`` rows on it, whose matvec is ``dspmv`` on that triangle.  So a
    replica-arm holds half a coupling, its basis and a few tiles of rows.
    """
    jobs = [(arm, dist, r) for arm, dist in (("a", cfg.dist_a), ("b", cfg.dist_b))
            for r in range(replicas)]

    def work(share: list) -> list:
        out = []
        coupling = np.empty((1, profile.n * (profile.n + 1) // 2))
        for arm, dist, r in share:
            j = sample_couplings(dist, profile, cfg.symmetric,
                                 [RngStream(cfg.jseed, r, PURPOSE_COUPLING).generator()],
                                 out=coupling)[0]
            x0 = sample_initial(law, RngStream(cfg.seed, r, PURPOSE_INITIAL))
            out.append((arm, r) + _gauss_rule(j, x0, watch))
        return out

    workers = min(cfg.threads, len(jobs))
    done = _fan_out(work, [jobs[w::workers] for w in range(workers)])
    return [done[i % workers][i // workers] for i in range(len(jobs))]


def run_aging(cfg: ExperimentConfig) -> Report:
    """Two-time autocorrelation ratios of the noise-free gradient flow.

    The flow is always the gradient flow ``2J - K I``, as for
    ``hopfield``; ``system.template`` is not read.  Requires
    ``beta = inf``.  With ``confinement_mode = "auto"`` each
    replica uses a confinement just above its own spectral radius (the
    normalized ratio does not depend on the choice), and each rule stops
    when the replica-arm's ratios converge, so its ``theta[0]`` and
    ``theta[-1]`` are Ritz values and a row can differ in its last bits
    between configs with different ``(s, lambda)`` sets; with a fixed
    confinement, replicas whose sampled operator norm reaches it are
    dropped and counted in the summary's ``dropped_a`` and ``dropped_b``.
    Only computes (:class:`Report`): a ratio of underflowed correlations is NaN.
    """
    check_preconditions("aging", cfg)
    pairs = [(float(s), float(lam)) for s in cfg.s_values for lam in cfg.lambdas]
    fixed = CONFINEMENT_MODES[cfg.confinement_mode]
    watch = None if fixed else lambda theta, c2: _aging_ratios_one(2.0 * theta, c2, pairs)
    rows = []
    dropped = {"a": 0, "b": 0}
    for n in cfg.sizes:
        profile = cfg.make_profile(n)
        law = InitialLaw(cfg.init_dist, n)
        per_arm = {"a": [], "b": []}
        for arm, _, theta, c2 in _spectra(cfg, profile, law, cfg.replicas, watch):
            w = 2.0 * theta  # the rule of 2J
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
            rows.append(_Aging(n, s, lam, stats["a"][0], stats["a"][1],
                               stats["b"][0], stats["b"][1],
                               abs(stats["a"][0] - stats["b"][0])))
    summary = [("dropped_a", dropped["a"]), ("dropped_b", dropped["b"]),
               ("max_gap", max((r.gap for r in rows), default=0.0))]
    header = ("n", "s", "lambda", "mean_a", "se_a", "mean_b", "se_b", "gap")
    return Report("aging.csv", header, tuple(rows), summary)


# ---------------------------------------------------------------------------
# truncated series vs Monte Carlo


_Order = namedtuple("_Order", "observable k term partial_sum mc_reference mc_se")


def _mc_moments(cfg: ExperimentConfig, n: int, specs: list) -> tuple:
    """Monte Carlo of ``E[prod_k f_k(X_{t_k})]`` over coupling, start, noise.

    Each spec is (list of x-polynomials, matching times).  Chunks are
    keyed by their index, so the estimate is deterministic in the seed
    and independent of the chunk width heuristic staying fixed.  A
    chunk's noise generator is drawn by :func:`euler_maruyama` as it
    walks its step chunks, through one :func:`dynamics._noise_source`,
    which gives the values of one draw of the whole (steps, c, N) array,
    so at most 1 MB of it is held at once.
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
        xs, _ = euler_maruyama(params, x0s, icfg, dynamics._noise_source([gen_b], c, n),
                               martingale=False)
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


def run_taylor_vs_mc(cfg: ExperimentConfig) -> Report:
    """Symbolic truncated means against a full Monte Carlo, small systems.

    Uses the first configured size (must be at most 4) and the
    configured time (at most 0.5).  The rows are the per-order terms of
    the single-time observables beside their Monte Carlo reference.  The
    series expand the coupling the Monte Carlo runs, ``c J`` with ``c`` the
    template's :attr:`~rmsde.dynamics.SystemTemplate.coupling_scale`: the
    oracle's entry moments of order ``ell`` are scaled by ``c ** ell``,
    exactly for ``c = 2``.  The summary propagates the divergence warning
    of the symbolic engine over every series, the multi-time one included,
    then gives each series' value and z-score, then the largest ``|z|``.
    Only computes (:class:`Report`), but :func:`_mc_moments` raises
    before any series is expanded.
    """
    check_preconditions("taylor-check", cfg)
    # the symbolic engine loads only for the kind that expands a series
    from .algebra import MomentOracle, Polynomial
    from .generator import taylor_mean, taylor_mean_multitime

    n = cfg.sizes[0]
    t = cfg.time
    profile = cfg.make_profile(n)
    law = InitialLaw(cfg.init_dist, n)
    oracle = MomentOracle.from_ensemble(cfg.dist_a, profile, law, cfg.symmetric)
    scale = cfg.template.coupling_scale
    if scale != 1.0:
        moment = oracle.entry_moment
        oracle = replace(oracle, entry_moment=lambda pair, ell: scale ** ell * moment(pair, ell))
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

    series = []  # (name, result) per observable, the multi-time one last
    orders = []
    memos = ({}, {}, {})  # every series of the run reads the same params and oracle
    for q, (name, f) in enumerate(singles):
        res = taylor_mean(f, params, oracle, t, cfg.truncation, memos=memos)
        series.append((name, res))
        partial = 0.0
        for k, term in enumerate(res.terms):
            partial += term
            orders.append(_Order(name, k, term, partial, float(mean[q]), float(se[q])))
    series.append((multi_name, taylor_mean_multitime(multi_fs, multi_ts, params, oracle,
                                                     cfg.truncation, memos=memos)))
    summary = [("any_diverging", any(res.diverging for _, res in series))]
    worst = 0.0
    for q, (name, res) in enumerate(series):
        z = float((res.value - mean[q]) / se[q]) if se[q] > 0 else 0.0
        summary += [(f"value[{name}]", res.value), (f"z[{name}]", z)]
        worst = max(worst, abs(z))
    summary.append(("max_abs_z", worst))
    return Report("taylor.csv", _Order._fields, tuple(orders), summary)


# ---------------------------------------------------------------------------
# rayleigh quotient along the noise-free flow


_Rayleigh = namedtuple("_Rayleigh", "arm replica top_eigenvalue final_quotient deficit monotone")


def rayleigh_quotient_curve(eigvals: np.ndarray, coeffs_sq: np.ndarray,
                            times: np.ndarray) -> np.ndarray:
    """Quotient ``<x_t, J x_t>/|x_t|^2`` of the flow.

    ``eigvals`` and ``coeffs_sq`` are the nodes and weights of the
    spectral measure of the coupling itself seen from the start: its
    eigenvalues and squared eigenbasis coefficients, or a Gauss rule.
    Over the nodes of positive weight, each time ``t`` shifts the
    exponents ``log c2 + 4 lam t`` by their largest, so no time
    overflows and the weights never all underflow; the confinement
    cancels identically.
    """
    lam = np.asarray(eigvals, dtype=np.float64)
    c2 = np.asarray(coeffs_sq, dtype=np.float64)
    if c2.sum() <= 0:
        raise ExperimentError("start vector has no component in the eigenbasis")
    keep = c2 > 0.0
    lam, lc = lam[keep], np.log(c2[keep])
    rate = 4.0 * lam
    out = np.empty(len(times))
    for k, t in enumerate(times):
        e = lc + rate * t
        w = np.exp(e - e.max())
        out[k] = float((lam * w).sum() / w.sum())
    return out


def run_rayleigh(cfg: ExperimentConfig) -> Report:
    """Gradient ascent of the quotient toward the spectral top.

    The flow is always the gradient flow ``2J - K I``, as for
    ``hopfield``; ``system.template`` is not read.  Noise-free flow
    only; per replica the quotient curve is a sum over the Gauss rule of
    :func:`_spectra` and is compared with the top eigenvalue of the
    sampled coupling, the rule's top node.  Monotonicity is recorded per
    replica as a strict step-by-step check.  The summary's ``mean_gap``
    is the distance between the arms' mean final quotients.  Only computes
    (:class:`Report`).
    """
    check_preconditions("rayleigh", cfg)
    n = cfg.sizes[0]
    profile = cfg.make_profile(n)
    law = InitialLaw(cfg.init_dist, n)
    times = np.linspace(0.0, cfg.rayleigh_horizon, cfg.rayleigh_points)
    rows = []
    finals = {"a": [], "b": []}
    for arm, r, lam, c2 in _spectra(cfg, profile, law, cfg.rayleigh_replicas):
        curve = rayleigh_quotient_curve(lam, c2, times)
        # the exact quotient is nondecreasing; allow ulp-level rounding
        # wiggle once the curve has plateaued at the top
        tol = 8 * np.finfo(np.float64).eps * max(1.0, float(np.abs(lam).max()))
        monotone = bool(np.all(np.diff(curve) >= -tol))
        top = float(lam[-1])
        final = float(curve[-1])
        rows.append(_Rayleigh(arm, r, top, final, top - final, monotone))
        finals[arm].append(final)
    gap = abs(float(np.mean(finals["a"])) - float(np.mean(finals["b"])))
    summary = [("mean_gap", gap), ("all_monotone", all(r.monotone for r in rows))]
    return Report("rayleigh.csv", _Rayleigh._fields, tuple(rows), summary)
