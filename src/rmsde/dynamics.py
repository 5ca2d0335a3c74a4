"""Linear-drift diffusions with multiplicative noise.

The state ``X in R^N`` follows

    dX_j = (J^T X)_j dt + (Lam^T X)_j dt + h_j dt
           + sqrt(2) * (sigma_0j + sum_i sigma_ij X_i) dB_j

driven by independent Brownian motions ``B_j``.  The convention
``X_0 == 1`` folds constant diffusion into row 0 of ``sigma``.  The
martingale part ``M`` (``M(0) = 0``) is accumulated alongside ``X`` so
trajectories decompose exactly into drift plus martingale.

Integration is Euler-Maruyama on a fixed step, in one loop that serves
a single shared system and a per-path stack of couplings alike.  A
stack runs in cache-sized blocks of paths, each block's drift formed in
one buffer that the call reuses, so no (C, N, N) drift stack is built.
The Brownian increments come from a source the caller passes, asked
for 1 MB chunks of steps at a time, and read only until the next chunk,
so a source holds one reused chunk buffer and no noise array of the
whole run.  The recorded snapshot grid is a subset of the step
grid; requested times are rounded to step multiples at construction
time and the rounding error is kept for inspection.  A
:class:`SystemTemplate` turns a sampled coupling, or a stack of them,
into the one parameter set every integration reads.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

__all__ = [
    "SystemParams",
    "SystemTemplate",
    "IntegratorConfig",
    "Trajectory",
    "PathBatch",
    "simulate",
    "simulate_paths",
    "euler_maruyama",
    "drift",
    "exact_mean_linear",
    "SimulationBlowupError",
    "ParameterError",
]

# Drift bytes per replica block of euler_maruyama, and so the size of its
# one drift buffer per call: a block's drift stays in a core's L2 across
# all steps.  A function of N only, never of the worker count or a
# detected cache size.  The paired experiments size their replica blocks
# from it, so each of their blocks, every arm's couplings stacked, is one
# drift block.
_DRIFT_BLOCK_BYTES = 2 ** 20

# Increment bytes euler_maruyama asks its noise source for at once: it walks
# the steps in chunks of this much (steps, C, N) noise, so a streamed source
# holds at most this much of it, whatever the step count.
_NOISE_CHUNK_BYTES = 2 ** 20


class ParameterError(ValueError):
    """Inconsistent system or integrator parameters."""


class SimulationBlowupError(RuntimeError):
    """State left the finite range; ``step`` is the offending step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step

    def __reduce__(self):  # rebuilt from the step, as a worker process sends it
        return type(self), (self.step,)


def _frozen(arr, shape, name) -> np.ndarray:
    """Read-only float64 view of ``arr`` (no copy when it already is float64)."""
    out = np.asarray(arr, dtype=np.float64).view()
    if out.shape != shape:
        raise ParameterError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ParameterError(f"{name} contains non-finite entries")
    out.setflags(write=False)
    return out


def _frozen_coupling(arr) -> np.ndarray:
    """:func:`_frozen` for a square (N, N) coupling or a (C, N, N) stack."""
    shape = np.shape(arr)
    if len(shape) not in (2, 3) or shape[-1] != shape[-2]:
        raise ParameterError("coupling must be a square matrix or a stack of them")
    if shape[-1] == 0:
        raise ParameterError("system dimension must be positive")
    return _frozen(arr, shape, "coupling")


@dataclass(frozen=True)
class SystemParams:
    """Drift and diffusion coefficients of one system.

    Parameters
    ----------
    coupling : ndarray, shape (N, N) or (C, N, N)
        Random-matrix part ``J`` of the drift (already scaled), or a
        stack with one coupling per path; the other parts are shared.
    lam : ndarray, shape (N, N)
        Deterministic drift matrix, sparse by assumption.
    h : ndarray, shape (N,)
        Constant drift.
    sigma : ndarray, shape (N+1, N)
        Diffusion coefficients; row 0 is the constant part, row i >= 1
        multiplies ``X_i``.

    The arrays are kept as read-only views of the arguments, not copies.

    Attributes
    ----------
    n_lam, n_sigma : int
        Maximum column support of ``lam`` and of ``sigma`` (row 0
        included), floored at 1.  These drive the term-count bounds of
        the expansion engine.
    constant_diffusion : bool
        True when every state-dependent diffusion coefficient is zero.
    """

    coupling: np.ndarray
    lam: np.ndarray
    h: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coupling", _frozen_coupling(self.coupling))
        n = self.coupling.shape[-1]
        object.__setattr__(self, "lam", _frozen(self.lam, (n, n), "lam"))
        object.__setattr__(self, "h", _frozen(self.h, (n,), "h"))
        object.__setattr__(self, "sigma", _frozen(self.sigma, (n + 1, n), "sigma"))

        lam, sigma = self.lam, self.sigma
        n_lam = max(1, int(np.count_nonzero(lam, axis=0).max(initial=0)))
        n_sigma = max(1, int(np.count_nonzero(sigma, axis=0).max(initial=0)))
        object.__setattr__(self, "n_lam", n_lam)
        object.__setattr__(self, "n_sigma", n_sigma)
        object.__setattr__(self, "constant_diffusion", not sigma[1:].any())

    @property
    def n(self) -> int:
        return self.coupling.shape[-1]

    def _with_coupling(self, coupling) -> "SystemParams":
        """This system with ``coupling``, of the same N, in place of its
        own.  Only ``coupling`` is validated: ``lam``, ``h``, ``sigma`` and
        their counts are this system's."""
        out = copy.copy(self)
        object.__setattr__(out, "coupling", _frozen_coupling(coupling))
        return out

    def drift_matrix(self) -> np.ndarray:
        """Combined linear drift ``(J + Lam)^T`` acting on column states.

        For a stack this is the transposed view of a whole (C, N, N)
        ``J + Lam``, with strides (N^2, 1, N).  :func:`euler_maruyama`
        does not call it: it forms the same layout one replica block at
        a time.
        """
        return np.swapaxes(self.coupling + self.lam, -1, -2)


def drift(params: SystemParams, x: np.ndarray) -> np.ndarray:
    """Drift vector at state ``x``."""
    return x @ params.coupling + x @ params.lam + params.h


@dataclass(frozen=True)
class IntegratorConfig:
    """Euler-Maruyama step size, horizon, and snapshot grid.

    Requested snapshot times are rounded to the nearest step multiple;
    ``rounding`` records the largest adjustment made.
    """

    dt: float
    horizon: float
    snapshots: tuple = ()

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ParameterError("dt must be positive and finite")
        if not (self.horizon >= 0 and math.isfinite(self.horizon)):
            raise ParameterError("horizon must be non-negative and finite")
        n_steps = int(round(self.horizon / self.dt))
        requested = tuple(float(t) for t in np.atleast_1d(np.asarray(self.snapshots, dtype=np.float64)))
        steps = []
        rounding = 0.0
        for t in requested:
            if t < -self.dt / 2 or t > self.horizon + self.dt / 2:
                raise ParameterError(f"snapshot time {t} outside [0, horizon]")
            k = int(round(t / self.dt))
            k = min(max(k, 0), n_steps)
            rounding = max(rounding, abs(t - k * self.dt))
            steps.append(k)
        steps = sorted(set(steps))
        times = self.dt * np.asarray(steps, dtype=np.float64)
        times.setflags(write=False)
        object.__setattr__(self, "snapshots", requested)
        object.__setattr__(self, "n_steps", n_steps)
        object.__setattr__(self, "snapshot_steps", tuple(steps))
        object.__setattr__(self, "rounding", float(rounding))
        # not fields, so eq, hash and repr do not see them
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_rows", {t: k for k, t in enumerate(times.tolist())})

    @property
    def times(self) -> np.ndarray:
        """Rounded snapshot times actually recorded (read-only)."""
        return self._times

    def row(self, t: float) -> int:
        """Index of time ``t`` in :attr:`times`, which it must match to 1e-9."""
        k = self._rows.get(t)
        if k is not None:
            return k
        times = self._times
        k = int(np.argmin(np.abs(times - t))) if len(times) else -1
        if k < 0 or abs(times[k] - t) > 1e-9:
            raise ParameterError(f"time {t:g} is not on the step grid of dt = {self.dt:g}")
        return k


@dataclass(frozen=True)
class Trajectory:
    """Recorded states and martingale part on the snapshot grid.

    One path has ``x`` and ``m`` of shape (len(times), N) and its
    (N, N) ``coupling``; a block of k paths, as the paired experiments
    record one per replica block and arm, has a leading axis k on all
    three.  ``coupling`` is as the system holds it, which the field
    observables read.
    """

    coupling: np.ndarray  # (N, N), or (k, N, N) for a block
    x: np.ndarray  # (len(times), N), or (k, len(times), N)
    m: np.ndarray
    config: IntegratorConfig

    @property
    def times(self) -> np.ndarray:
        return self.config.times

    def decomposition_residual(self, params: SystemParams) -> float:
        """Largest relative defect of X_{t+dt} = X_t + dt*drift + dM under
        ``params``, for one path.

        Only adjacent recorded steps (one dt apart) are checkable; if
        the grid has none, returns 0.
        """
        cfg = self.config
        steps = cfg.snapshot_steps
        worst = 0.0
        for a, b in zip(range(len(steps) - 1), range(1, len(steps))):
            if steps[b] - steps[a] != 1:
                continue
            xa, xb = self.x[a], self.x[b]
            dm = self.m[b] - self.m[a]
            lhs = xb - xa - cfg.dt * drift(params, xa) - dm
            scale = max(float(np.abs(xb).max()), 1.0)
            worst = max(worst, float(np.abs(lhs).max()) / scale)
        return worst


@dataclass(frozen=True)
class PathBatch:
    """Snapshot states of many independent paths of one system."""

    times: np.ndarray
    x: np.ndarray  # (paths, len(times), N)
    m: np.ndarray

    def mean_x(self) -> np.ndarray:
        return self.x.mean(axis=0)

    def se_x(self) -> np.ndarray:
        p = self.x.shape[0]
        return self.x.std(axis=0, ddof=1) / math.sqrt(p)


def _check_x0(params: SystemParams, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (params.n,):
        raise ParameterError(f"x0 must have shape ({params.n},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ParameterError("x0 contains non-finite entries")
    return x0.copy()


def simulate(params: SystemParams, x0, config: IntegratorConfig,
             stream: RngStream) -> Trajectory:
    """Integrate one path, recording states on the snapshot grid.

    Raises :class:`SimulationBlowupError` (with the step index) as soon
    as the state stops being finite.
    """
    batch = simulate_paths(params, x0, config, stream, n_paths=1)
    return Trajectory(params.coupling, batch.x[0], batch.m[0], config)


def simulate_paths(params: SystemParams, x0, config: IntegratorConfig,
                   stream: RngStream, n_paths: int) -> PathBatch:
    """Integrate ``n_paths`` independent paths of the same system.

    All paths share ``params`` and ``x0``.  The Brownian increments of
    every step and path come from one generator of ``stream``, drawn as
    the integrator walks its step chunks; consecutive draws give the
    values of one draw of the whole run, so the result does not depend
    on the chunk size, and a batch of one path is bitwise identical to
    :func:`simulate`.
    """
    if n_paths < 1:
        raise ParameterError("n_paths must be at least 1")
    x0 = _check_x0(params, x0)
    shape = (n_paths, params.n)
    xs, ms = euler_maruyama(params, np.broadcast_to(x0, shape), config,
                            _generator_source(stream.generator(), shape))
    return PathBatch(config.times, xs, ms)


def _generator_source(gen: np.random.Generator, shape: tuple):
    """Noise source of :func:`euler_maruyama` that draws the increments of
    steps ``lo + 1 .. hi`` from ``gen`` as an array of shape
    ``(hi - lo,) + shape``, into one buffer that every call reuses.

    The buffer is sized by the first chunk, which is the largest.
    Consecutive draws give the values of one draw of the whole run.
    """
    buf = np.empty((0,) + shape)

    def draw(lo, hi):
        nonlocal buf
        if len(buf) < hi - lo:
            buf = np.empty((hi - lo,) + shape)
        return gen.standard_normal(out=buf[:hi - lo])
    return draw


def _aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte boundary.

    glibc serves a large request from a fresh mapping 16 bytes past a page
    boundary, and a smaller one wherever the heap happens to leave it; the
    batched product of the Euler loop runs 15-35 % slower on a drift that
    does not start on a cache line, and the bytes are the same.
    """
    size = math.prod(shape)
    raw = np.empty(size + 8)
    lo = (-raw.ctypes.data % 64) // 8
    return raw[lo:lo + size].reshape(shape)


def euler_maruyama(params: SystemParams, x0s: np.ndarray, config: IntegratorConfig,
                   draw, contiguous: bool = False) -> tuple:
    """Euler-Maruyama for C paths of ``params``; snapshot arrays of shape (C, S, N).

    ``params.coupling`` is one (N, N) coupling shared by every path or a
    (C, N, N) stack with one per path; the other parts are shared.
    ``draw(lo, hi)`` returns the standard-normal increments of steps
    ``lo + 1 .. hi`` for every path, an array of shape (hi - lo, C, N).
    The integrator reads that array only until its next call to ``draw``,
    so a source may draw every chunk into one buffer.

    The steps run in chunks of ``_NOISE_CHUNK_BYTES`` (1 MB) of
    increments, at least one step each, and ``draw`` is called exactly
    once per chunk, in step order, so a one-pass stream can serve it.
    No chunk is drawn after a blow-up.

    A stack is integrated one block of replicas at a time within each
    chunk, each block's state carried across chunks.  The block's drift
    ``J[rows] + Lam`` is formed in one buffer of ``_DRIFT_BLOCK_BYTES``
    (1 MB), a function of N alone: 8 replicas at N = 128, 1 above N = 256.
    A single block, as a shared drift always is, forms it once per call;
    a stack of several blocks forms it once per chunk and block.  The
    buffer starts on a 64-byte boundary (:func:`_aligned_empty`), so the
    loop's speed does not depend on where the heap puts it.  It is
    allocated per call, so each worker has its own, and no
    (C, N, N) drift stack is built.  The batched product reads the block's
    drift from cache on every step, and the snapshots are the same bytes
    at any block or chunk size.  The drift enters as the transposed view
    of ``J + Lam`` (strides (N^2, 1, N)), or with ``contiguous`` as a
    C-contiguous ``(J + Lam)^T``; the two round differently, and the
    golden bytes pin the view for the paired runs and the copy for the
    series-vs-MC check.  The state-dependent diffusion is one product per
    path, whose bits do not depend on the block either.

    Raises :class:`SimulationBlowupError` with the first step at which
    any path's state stops being finite.
    """
    c, n = x0s.shape
    coupling, lam = params.coupling, params.lam
    sig_state = None if params.constant_diffusion else params.sigma[1:]
    width = max(1, c)
    if coupling.ndim == 3:
        width = max(1, _DRIFT_BLOCK_BYTES // (8 * n * n))
        buf = _aligned_empty((min(width, c), n, n))
    blocks = [slice(lo, min(c, lo + width)) for lo in range(0, c, width)]

    def block_drift(rows):
        if coupling.ndim == 2:
            return coupling + lam  # right-multiplies the row states
        if contiguous:
            return np.add(np.swapaxes(coupling[rows], 1, 2), lam.T, out=buf[:rows.stop - rows.start])
        return np.swapaxes(np.add(coupling[rows], lam, out=buf[:rows.stop - rows.start]), 1, 2)

    shared = block_drift(blocks[0]) if len(blocks) == 1 else None
    # the step's work buffers, shared by the blocks; each block keeps its own state
    size = (min(width, c), n)
    work = (np.empty(size), np.empty(size), np.empty(size, dtype=bool))
    states = [(x0s[rows].copy(), np.zeros((rows.stop - rows.start, n))) for rows in blocks]
    want = {s: i for i, s in enumerate(config.snapshot_steps)}
    xs = np.empty((c, len(want), n))
    ms = np.empty((c, len(want), n))
    if 0 in want:
        xs[:, want[0]] = x0s
        ms[:, want[0]] = 0.0
    steps = config.n_steps
    chunk = max(1, _NOISE_CHUNK_BYTES // max(1, 8 * c * n))
    first = math.inf
    # an overflow is reported as SimulationBlowupError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, chunk):
            if first < math.inf:
                break
            xi = draw(lo, min(steps, lo + chunk))
            for rows, (x, m) in zip(blocks, states):
                mat = shared if shared is not None else block_drift(rows)
                first = _euler_block(mat, params.h, params.sigma, sig_state, x, m,
                                     [w[:len(x)] for w in work], xi[:, rows], lo, config.dt,
                                     want, xs[rows], ms[rows], first)
    if first < math.inf:
        raise SimulationBlowupError(first)
    return xs, ms


def _euler_block(mat, h, sigma, sig_state, x, m, work, xi, lo, dt, want, xs, ms, first):
    """Advance one block's state ``x``/``m`` in place through steps
    ``lo + 1 .. lo + len(xi)``, with ``xi`` its increments of those steps,
    recording into its snapshot slices ``xs``/``ms``.

    ``mat`` is the block's (k, N, N) drift ``(J + Lam)^T`` acting on
    column states, or a shared (N, N) ``J + Lam`` acting on row states.
    ``work`` holds the (k, N) buffers ``lin`` and ``dm`` and the boolean
    finiteness mask, so a step allocates no array.  Non-finiteness is
    sticky, so the block stops before step ``first`` (the earliest
    blow-up so far) and returns the smaller of its own first non-finite
    step and ``first``.
    """
    sqrt2dt = math.sqrt(2.0 * dt)
    amp = sqrt2dt * sigma[0]
    lin, dm, mask = work
    for step, xi_step in enumerate(xi, lo + 1):
        if step >= first:
            return first
        if sig_state is None:
            np.multiply(amp, xi_step, out=dm)
        else:
            # sqrt(2 dt) * (sigma_0 + x sigma_state) * xi, in this order
            np.matmul(x[:, None], sig_state, out=dm[:, None])
            np.add(sigma[0], dm, out=dm)
            np.multiply(sqrt2dt, dm, out=dm)
            np.multiply(dm, xi_step, out=dm)
        if mat.ndim == 3:
            np.matmul(mat, x[:, :, None], out=lin[:, :, None])
        else:
            np.matmul(x, mat, out=lin)
        lin += h
        lin *= dt
        x += lin
        x += dm
        m += dm
        if not np.isfinite(x, out=mask).all():
            return step
        if step in want:
            xs[:, want[step]] = x
            ms[:, want[step]] = m
    return first


def exact_mean_linear(params: SystemParams, x0, t: float) -> np.ndarray:
    """Closed-form mean of the state at time t.

    The mean solves ``m' = (J + Lam)^T m + h`` regardless of the
    diffusion, which the augmented matrix exponential
    ``expm(t * [[D, h], [0, 0]])`` integrates exactly.
    """
    x0 = _check_x0(params, x0)
    if not (t >= 0 and math.isfinite(t)):
        raise ParameterError("t must be non-negative and finite")
    import scipy.linalg  # only this oracle needs scipy; keep it off the CLI import path

    n = params.n
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = params.drift_matrix()
    aug[:n, n] = params.h
    phi = scipy.linalg.expm(t * aug)
    return phi[:n, :n] @ x0 + phi[:n, n]


@dataclass(frozen=True)
class SystemTemplate:
    """How a sampled coupling becomes a full parameter set.

    ``langevin=True`` uses the drift ``2J - K I``: for a symmetric ``J``
    the gradient flow of ``H(x) = -x.J x + K |x|^2 / 2``, for an
    asymmetric one the asymmetric Hopfield dynamics, which has no
    energy; otherwise the coupling enters unscaled, ``J - K I``.
    ``beta`` sets the additive noise ``sigma_0j = 1/sqrt(2 beta)``
    (``inf`` for a noiseless flow) and ``thresholds`` the constant
    drift, either one value for all coordinates or a full vector.
    """

    confinement: float = 1.0
    beta: float = 1.0
    langevin: bool = False
    thresholds: object = 0.0

    def __post_init__(self) -> None:
        # the shared parts of the last size built, on a zero-stride zero coupling
        object.__setattr__(self, "_shared", None)

    def build(self, coupling) -> SystemParams:
        """Parameters for the scaled coupling ``J = A / sqrt(N)`` from
        ``sample_couplings``: one (N, N) matrix, or a (C, N, N) stack
        with one system per path.

        The system takes ownership of ``coupling``: the Langevin doubling
        runs in place in a writeable float64 array, so no second stack is
        allocated.  A caller that still needs its array passes a copy.
        The shared parts ``lam``, ``h`` and ``sigma`` are formed and
        validated by the first build at a size; the builds at that size
        that follow reuse them and validate only their coupling, so a run
        that builds one system per replica block pays for them once.
        """
        if not self.beta > 0:
            raise ParameterError("beta must be positive (use math.inf for zero noise)")
        j = np.asarray(coupling, dtype=np.float64)
        if self.langevin:
            j = np.multiply(j, 2.0, out=j if j.flags.writeable else None)
        n = j.shape[-1]
        shared = self._shared
        if shared is not None and shared.n == n:
            return shared._with_coupling(j)
        sigma = np.zeros((n + 1, n))
        if math.isfinite(self.beta):
            sigma[0] = 1.0 / math.sqrt(2.0 * self.beta)
        h = np.broadcast_to(np.asarray(self.thresholds, dtype=np.float64), (n,))
        params = SystemParams(coupling=j,
                              lam=-self.confinement * np.eye(n),
                              h=np.array(h), sigma=sigma)
        object.__setattr__(self, "_shared", params._with_coupling(np.broadcast_to(0.0, (n, n))))
        return params
