"""Linear-drift diffusions with multiplicative noise.

The state ``X in R^N`` follows

    dX_j = (J^T X)_j dt + (Lam^T X)_j dt + h_j dt
           + sqrt(2) * (sigma_0j + sum_i sigma_ij X_i) dB_j

driven by independent Brownian motions ``B_j``.  The convention
``X_0 == 1`` folds constant diffusion into row 0 of ``sigma``.  The
martingale part ``M`` (``M(0) = 0``) is accumulated alongside ``X``,
when the caller reads it, so trajectories decompose exactly into drift
plus martingale.

Integration is Euler-Maruyama on a fixed step, in one loop that serves
a single shared system and a per-path stack of couplings alike.  A
stack runs in cache-sized blocks of paths and is its own drift: the
diagonal ``Lam`` is added into it for the call and taken out after, so
no drift array is built.  The Brownian increments come from a source
the caller passes, asked for 1 MB chunks of steps at a time, and read
only until the next chunk, so a source holds one reused chunk buffer
and no noise array of the whole run; copies of the same paths may
share its rows.  The recorded snapshot grid is a subset of the step
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

# Coupling bytes per replica block of euler_maruyama: a block's drift stays
# in a core's L2 across all steps.  A function of N only, never of the
# worker count or a detected cache size.  The paired experiments size their
# replica blocks from it, so each of their blocks, every arm's couplings
# stacked, is one drift block.
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
    diagonal_lam : bool
        True when ``lam`` has no nonzero entry off its diagonal, which
        the integrator needs to fold it into a coupling stack.
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
        object.__setattr__(self, "diagonal_lam",
                           np.count_nonzero(lam) == np.count_nonzero(np.diagonal(lam)))

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
        does not call it: it reads the same layout from the stack itself,
        with ``Lam``'s diagonal added in place.
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
    (N, N) ``coupling``, as the system holds it.
    """

    coupling: np.ndarray  # (N, N)
    x: np.ndarray  # (len(times), N)
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
                            _noise_source([stream.generator()], n_paths, params.n))
    return PathBatch(config.times, xs, ms)


def _noise_source(gens: list, rows: int, n: int):
    """Noise source of :func:`euler_maruyama` that draws the increments of
    steps ``lo + 1 .. hi`` of ``rows`` paths from each generator of
    ``gens``, in list order, and returns them as an array of shape
    ``(hi - lo, len(gens) * rows, n)``.

    Every call draws into one buffer, grown only when a chunk needs more,
    and reads the list as it is then, so a caller may swap the list's
    generators between runs and keep the buffer.  Each generator draws its
    paths' chunk in one call, so consecutive draws give the values of one
    draw of the whole run.  The result is a view of the buffer when one
    generator or one row per generator is asked for, as every caller does.
    """
    buf = np.empty(0)

    def draw(lo, hi):
        nonlocal buf
        shape = (len(gens), hi - lo, rows, n)
        size = math.prod(shape)
        if buf.size < size:
            buf = np.empty(size)
        xi = buf[:size].reshape(shape)
        for gen, out in zip(gens, xi):
            gen.standard_normal(out=out)
        return np.swapaxes(xi, 0, 1).reshape(hi - lo, -1, n)
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
                   draw, martingale: bool = True) -> tuple:
    """Euler-Maruyama for C paths of ``params``; snapshot arrays of shape (C, S, N).

    ``params.coupling`` is one (N, N) coupling shared by every path or a
    (C, N, N) stack with one per path; the other parts are shared.
    ``draw(lo, hi)`` returns the standard-normal increments of steps
    ``lo + 1 .. hi`` as an array of shape (hi - lo, K, N), K dividing C,
    whose row ``r % K`` drives path r: K = C for independent paths, and
    the paired experiments pass the k rows of the replicas that their
    C / k arm copies share.  Each step's rows are broadcast over the
    copies as they are scaled into ``dM``, the same product per element,
    so the bits do not depend on K.  The integrator reads that array
    only until its next call to ``draw``, so a source may draw every
    chunk into one buffer.

    Returns the states ``xs`` and the martingale parts ``ms``.  With
    ``martingale`` false the martingale part is neither summed nor
    recorded, ``ms`` is None, and ``xs`` has the same bytes.

    The steps run in chunks of ``_NOISE_CHUNK_BYTES`` (1 MB) of (steps,
    C, N) increments, at least one step each, and ``draw`` is called
    exactly once per chunk, in step order, so a one-pass stream can
    serve it.  No chunk is drawn after a blow-up.

    A stack is integrated one block of paths at a time within each
    chunk, each block's state carried across chunks.  A block holds at
    most ``_DRIFT_BLOCK_BYTES`` (1 MB) of couplings, a function of N
    alone (8 paths at N = 128, 1 above N = 256), and holds whole copies
    of the K noise rows or lies within one copy.  The batched product
    reads the block's drift from cache on every step, and the snapshots
    are the same bytes at any block or chunk size.

    A stack is its own drift: :func:`_fold_diagonal` adds the diagonal
    ``Lam`` into it for the call, and the loop reads its transposed view
    (strides (N^2, 1, N)).  So no drift array is built, and one system
    must not be integrated from two threads at once.  A shared coupling
    forms ``J + Lam`` once.  The state-dependent diffusion is one product
    per path, whose bits do not depend on the block either.

    A non-finite state stays non-finite at every later step, so each
    block runs a chunk's steps unchecked and its state is tested once at
    the chunk's end.  If it is not finite, the block's state is restored
    from its copy at the chunk's start and the chunk replayed with a
    test after every step, which finds the first non-finite step; the
    blocks left in that chunk are replayed the same way, up to the
    earliest step so far.  Raises :class:`SimulationBlowupError` with the
    first step at which any path's state stops being finite.
    """
    c, n = x0s.shape
    coupling = params.coupling
    sig_state = None if params.constant_diffusion else params.sigma[1:]
    stacked = coupling.ndim == 3
    width = max(1, _DRIFT_BLOCK_BYTES // (8 * n * n)) if stacked else max(1, c)
    if stacked:
        j, diag, saved = _fold_diagonal(params)
    else:
        shared = coupling + params.lam  # right-multiplies the row states
    # shared by the blocks: the step's work buffers, the constant drift in
    # rows, and a block's state at the start of its chunk
    size = (min(width, c), n)
    lin, dm, h, start = np.empty(size), np.empty(size), np.empty(size), np.empty(size)
    h[...] = params.h
    x = x0s.copy()  # each block advances its rows in place
    m = np.zeros((c, n)) if martingale else None
    want = {s: i for i, s in enumerate(config.snapshot_steps)}
    xs = np.empty((c, len(want), n))
    ms = np.empty((c, len(want), n)) if martingale else None
    if 0 in want:
        xs[:, want[0]] = x0s
        if martingale:
            ms[:, want[0]] = 0.0
    steps = config.n_steps
    chunk = max(1, _NOISE_CHUNK_BYTES // max(1, 8 * c * n))
    first = math.inf
    blocks = None
    try:
        # a blow-up is reported as SimulationBlowupError below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, steps, chunk):
                if first < math.inf:
                    break
                xi = draw(lo, min(steps, lo + chunk))
                if blocks is None:
                    k = xi.shape[1]
                    if not 0 < k <= c or c % k:
                        raise ParameterError(f"{k} noise rows cannot serve {c} paths: "
                                             f"need K dividing {c}")
                    blocks = _blocks(c, width, k)
                for rows in blocks:
                    b, r = rows.stop - rows.start, rows.start % k
                    mat = np.swapaxes(j[rows], 1, 2) if stacked else shared
                    args = (mat, h[:b], params.sigma, sig_state, x[rows], lin[:b], dm[:b],
                            xi[:, r:r + min(k, b)], lo, config.dt)
                    if first == math.inf:
                        start[:b] = x[rows]
                        _euler_block(*args, m=None if m is None else m[rows], want=want,
                                     xs=xs[rows], ms=None if ms is None else ms[rows])
                        if np.isfinite(x[rows]).all():
                            continue
                        x[rows] = start[:b]
                    first = _euler_block(*args, first=first)
    finally:
        if stacked:
            diag[...] = saved
    if first < math.inf:
        raise SimulationBlowupError(first)
    return xs, ms


def _fold_diagonal(params: SystemParams) -> tuple:
    """``(j, diag, saved)``: the stack ``params.coupling`` as a writeable
    array ``j`` with ``lam``'s diagonal added into its diagonal ``diag``,
    and the (C, N) diagonal it held, for the caller to write back before
    it returns or raises.

    ``lam`` must be diagonal.  Every :class:`SystemTemplate` builds
    ``-K I`` with ``K >= 0``, whose ``-0.0`` zeros leave every J entry's
    bits as they are, so ``j`` holds the bits of a formed ``J + Lam``; a
    ``+0.0`` zero would turn an entry ``-0.0`` into ``+0.0``, which can
    change only the sign of a zero.  A stack in read-only or
    non-contiguous memory is copied first.  The Euler loop is slower on a
    drift that does not start on 64 bytes, so a caller that reuses a
    stack allocates it with :func:`_aligned_empty`.
    """
    if not params.diagonal_lam:
        raise ParameterError("a coupling stack needs a diagonal lam: "
                             "the integrator adds it into the stack in place")
    coupling = params.coupling
    j = coupling.view()
    try:
        if not j.flags.c_contiguous:  # a broadcast or strided stack may alias itself
            raise ValueError
        j.flags.writeable = True
    except ValueError:
        j = _aligned_empty(coupling.shape)
        j[...] = coupling
    c, n = j.shape[:2]
    diag = j.reshape(c, n * n)[:, ::n + 1]
    saved = diag.copy()
    diag += np.diagonal(params.lam)
    return j, diag, saved


def _blocks(c: int, width: int, k: int) -> list:
    """Row slices of the C paths in blocks of at most ``width`` rows, each
    holding whole copies of the ``k`` noise rows or lying within one copy."""
    if width >= k:
        width, span = width - width % k, c
    else:
        span = k
    return [slice(lo, min(lo + width, base + span))
            for base in range(0, c, span) for lo in range(base, base + span, width)]


def _euler_block(mat, h, sigma, sig_state, x, lin, dm, xi, lo, dt,
                 m=None, want=None, xs=None, ms=None, first=None):
    """Advance one block's state ``x`` in place through steps
    ``lo + 1 .. lo + len(xi)``, with ``xi`` its increments of those steps.

    ``mat`` is the block's (b, N, N) drift ``(J + Lam)^T`` acting on
    column states, or a shared (N, N) ``J + Lam`` acting on row states,
    and ``h`` the constant drift in b rows.  ``xi`` has shape (steps, K,
    N) with K dividing b, and its rows repeat over the block's b / K
    copies.  ``lin`` and ``dm`` are (b, N) work buffers, so an unchecked
    step allocates no array.

    Without ``first`` the steps run unchecked: each step's ``dM`` is added
    into ``m`` unless it is None, and the snapshot steps in ``want`` are
    recorded into the block's slices ``xs`` and ``ms``.  With ``first``
    (the earliest blow-up so far, or ``inf``) the steps are a replay that
    checks ``x`` after each one, records nothing and stops before step
    ``first``; it returns the smaller of its own first non-finite step
    and ``first``.
    """
    sqrt2dt = math.sqrt(2.0 * dt)
    amp = sqrt2dt * sigma[0]
    copies = dm.reshape(-1, xi.shape[1], x.shape[1])  # dm, one row of xi per row
    for step, xi_step in enumerate(xi, lo + 1):
        if first is not None and step >= first:
            return first
        if sig_state is None:
            np.multiply(amp, xi_step, out=copies)
        else:
            # sqrt(2 dt) * (sigma_0 + x sigma_state) * xi, in this order
            np.matmul(x[:, None], sig_state, out=dm[:, None])
            np.add(sigma[0], dm, out=dm)
            np.multiply(sqrt2dt, dm, out=dm)
            np.multiply(copies, xi_step, out=copies)
        if mat.ndim == 3:
            np.matmul(mat, x[:, :, None], out=lin[:, :, None])
        else:
            np.matmul(x, mat, out=lin)
        lin += h
        lin *= dt
        x += lin
        x += dm
        if first is not None:
            if not np.isfinite(x).all():
                return step
            continue
        if m is not None:
            m += dm
        if step in want:
            xs[:, want[step]] = x
            if ms is not None:
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
