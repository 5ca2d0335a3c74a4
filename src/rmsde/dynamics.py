"""Linear-drift diffusions with multiplicative noise.

The state ``X in R^N`` follows

    dX_j = (J^T X)_j dt + (Lam^T X)_j dt + h_j dt
           + sqrt(2) * (sigma_0j + sum_i sigma_ij X_i) dB_j

driven by independent Brownian motions ``B_j``.  The convention
``X_0 == 1`` folds constant diffusion into row 0 of ``sigma``.  The
martingale part ``M`` (``M(0) = 0``) is accumulated alongside ``X`` so
trajectories decompose exactly into drift plus martingale.

Integration is Euler-Maruyama on a fixed step, in one loop that serves
a single shared system and a per-path stack of drift matrices alike.
The recorded snapshot grid is a subset of the step grid; requested times
are rounded to step multiples at construction time and the rounding
error is kept for inspection.  A :class:`SystemTemplate` turns a
sampled coupling into a full parameter set.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    "diffusion_row",
    "exact_mean_linear",
    "langevin_params",
    "SimulationBlowupError",
    "ParameterError",
]

_NOISE_BLOCK = 4096  # steps of Gaussian increments drawn per chunk


class ParameterError(ValueError):
    """Inconsistent system or integrator parameters."""


class SimulationBlowupError(RuntimeError):
    """State left the finite range; ``step`` is the offending step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


def _frozen(arr, shape, name) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    if out.shape != shape:
        raise ParameterError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ParameterError(f"{name} contains non-finite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SystemParams:
    """Drift and diffusion coefficients of one system.

    Parameters
    ----------
    coupling : ndarray, shape (N, N)
        Random-matrix part ``J`` of the drift (already scaled).
    lam : ndarray, shape (N, N)
        Deterministic drift matrix, sparse by assumption.
    h : ndarray, shape (N,)
        Constant drift.
    sigma : ndarray, shape (N+1, N)
        Diffusion coefficients; row 0 is the constant part, row i >= 1
        multiplies ``X_i``.
    c_lam, c_h, c_sigma : float, optional
        Declared size constants.  Derived from the arrays when omitted;
        an explicit value smaller than the derived one is rejected.

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
    c_lam: float = None  # type: ignore[assignment]
    c_h: float = None  # type: ignore[assignment]
    c_sigma: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        coupling = np.asarray(self.coupling, dtype=np.float64)
        if coupling.ndim != 2 or coupling.shape[0] != coupling.shape[1]:
            raise ParameterError("coupling must be a square matrix")
        n = coupling.shape[0]
        if n == 0:
            raise ParameterError("system dimension must be positive")
        object.__setattr__(self, "coupling", _frozen(coupling, (n, n), "coupling"))
        object.__setattr__(self, "lam", _frozen(self.lam, (n, n), "lam"))
        object.__setattr__(self, "h", _frozen(self.h, (n,), "h"))
        object.__setattr__(self, "sigma", _frozen(self.sigma, (n + 1, n), "sigma"))

        lam, sigma = self.lam, self.sigma
        n_lam = max(1, int(np.count_nonzero(lam, axis=0).max(initial=0)))
        n_sigma = max(1, int(np.count_nonzero(sigma, axis=0).max(initial=0)))
        object.__setattr__(self, "n_lam", n_lam)
        object.__setattr__(self, "n_sigma", n_sigma)

        derived_c_lam = max(float(np.abs(lam).sum(axis=1).max(initial=0.0)),
                            n_lam * float(np.abs(lam).max(initial=0.0)))
        derived_c_h = float(np.abs(self.h).max(initial=0.0))
        state_rows = sigma[1:]
        derived_c_sigma = max(float(np.abs(sigma[0]).max(initial=0.0)),
                              n_sigma * float(np.abs(state_rows).max(initial=0.0)))
        for name, declared, derived in (("c_lam", self.c_lam, derived_c_lam),
                                        ("c_h", self.c_h, derived_c_h),
                                        ("c_sigma", self.c_sigma, derived_c_sigma)):
            if declared is None:
                declared = derived
            elif declared < derived - 1e-12:
                raise ParameterError(
                    f"declared {name}={declared} is below the derived value {derived}")
            object.__setattr__(self, name, float(declared))
        object.__setattr__(self, "constant_diffusion", not state_rows.any())

    @property
    def n(self) -> int:
        return self.coupling.shape[0]

    def drift_matrix(self) -> np.ndarray:
        """Combined linear drift ``(J + Lam)^T`` acting on column states."""
        return (self.coupling + self.lam).T

    def with_coupling(self, coupling) -> "SystemParams":
        """Copy with ``J`` replaced; only ``coupling`` is checked, the rest is shared."""
        out = copy.copy(self)
        object.__setattr__(out, "coupling", _frozen(coupling, (self.n, self.n), "coupling"))
        return out


def drift(params: SystemParams, x: np.ndarray) -> np.ndarray:
    """Drift vector at state ``x``."""
    return x @ params.coupling + x @ params.lam + params.h


def diffusion_row(params: SystemParams, x: np.ndarray) -> np.ndarray:
    """Diffusion amplitudes: component j is sqrt(2)*(sigma_0j + sum_i sigma_ij x_i)."""
    return math.sqrt(2.0) * (params.sigma[0] + x @ params.sigma[1:])


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
        object.__setattr__(self, "snapshots", requested)
        object.__setattr__(self, "n_steps", n_steps)
        object.__setattr__(self, "snapshot_steps", tuple(steps))
        object.__setattr__(self, "rounding", float(rounding))

    @property
    def times(self) -> np.ndarray:
        """Rounded snapshot times actually recorded."""
        return self.dt * np.asarray(self.snapshot_steps, dtype=np.float64)

    @classmethod
    def every_step(cls, dt: float, horizon: float) -> "IntegratorConfig":
        n = int(round(horizon / dt))
        return cls(dt, horizon, tuple(k * dt for k in range(n + 1)))


@dataclass(frozen=True)
class Trajectory:
    """Recorded states and martingale part on the snapshot grid."""

    times: np.ndarray
    x: np.ndarray  # (len(times), N)
    m: np.ndarray  # (len(times), N)
    x0: np.ndarray
    params: SystemParams
    config: IntegratorConfig

    def at(self, t: float) -> int:
        """Row index of recorded time t (exact up to 1e-9)."""
        hits = np.nonzero(np.abs(self.times - t) <= 1e-9)[0]
        if len(hits) != 1:
            raise KeyError(f"time {t} is not on the recorded grid")
        return int(hits[0])

    def decomposition_residual(self) -> float:
        """Largest relative defect of X_{t+dt} = X_t + dt*drift + dM.

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
            lhs = xb - xa - cfg.dt * drift(self.params, xa) - dm
            scale = max(float(np.abs(xb).max()), 1.0)
            worst = max(worst, float(np.abs(lhs).max()) / scale)
        return worst


@dataclass(frozen=True)
class PathBatch:
    """Snapshot states of many independent paths of one system."""

    times: np.ndarray
    x: np.ndarray  # (paths, len(times), N)
    m: np.ndarray
    x0: np.ndarray
    params: SystemParams
    config: IntegratorConfig

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
    return Trajectory(batch.times, batch.x[0], batch.m[0], batch.x0,
                      params, config)


def simulate_paths(params: SystemParams, x0, config: IntegratorConfig,
                   stream: RngStream, n_paths: int) -> PathBatch:
    """Integrate ``n_paths`` independent paths of the same system.

    All paths share ``params`` and ``x0``; the Brownian draws come from
    ``stream`` in a fixed order, so the result is reproducible and a
    batch of one path is bitwise identical to :func:`simulate`.
    """
    if n_paths < 1:
        raise ParameterError("n_paths must be at least 1")
    x0 = _check_x0(params, x0)
    rng = stream.generator()
    shape = (n_paths, params.n)
    noise = (rng.standard_normal((min(_NOISE_BLOCK, config.n_steps - lo),) + shape)
             for lo in range(0, config.n_steps, _NOISE_BLOCK))
    xs, ms = euler_maruyama(params.drift_matrix(), params.h, params.sigma,
                            np.broadcast_to(x0, shape), config, noise)
    return PathBatch(config.times, xs, ms, x0, params, config)


def euler_maruyama(drift_mat: np.ndarray, h: np.ndarray, sigma: np.ndarray,
                   x0s: np.ndarray, config: IntegratorConfig, noise) -> tuple:
    """Euler-Maruyama for C paths; snapshot arrays of shape (C, S, N).

    ``drift_mat`` is the combined drift ``(J + Lam)^T``, either one
    (N, N) matrix shared by every path or a (C, N, N) stack with one
    per path.  ``h`` and ``sigma`` (shape (N+1, N)) are shared.
    ``noise`` yields blocks of standard-normal increments of shape
    (steps, C, N) that together cover ``config.n_steps`` steps.

    Raises :class:`SimulationBlowupError` (with the step index) as soon
    as the state stops being finite.
    """
    c, n = x0s.shape
    sqrt2dt = math.sqrt(2.0 * config.dt)
    shared = drift_mat.T if drift_mat.ndim == 2 else None  # right-multiply: x @ shared
    sig0 = sigma[0]
    sig_state = sigma[1:] if sigma[1:].any() else None
    x = x0s.copy()
    m = np.zeros((c, n))
    want = {s: i for i, s in enumerate(config.snapshot_steps)}
    xs = np.empty((c, len(want), n))
    ms = np.empty((c, len(want), n))
    if 0 in want:
        xs[:, want[0]] = x
        ms[:, want[0]] = m

    step = 0
    for block in noise:
        for xi in block:
            step += 1
            amp = sig0 if sig_state is None else sig0 + x @ sig_state
            dm = sqrt2dt * amp * xi
            if shared is None:
                lin = np.matmul(drift_mat, x[:, :, None])[:, :, 0]
            else:
                lin = x @ shared
            x = x + config.dt * (lin + h) + dm
            m = m + dm
            if not np.all(np.isfinite(x)):
                raise SimulationBlowupError(step)
            if step in want:
                xs[:, want[step]] = x
                ms[:, want[step]] = m
    return xs, ms


def exact_mean_linear(params: SystemParams, x0, t: float) -> np.ndarray:
    """Closed-form mean of the state at time t.

    The mean solves ``m' = (J + Lam)^T m + h`` regardless of the
    diffusion, which the augmented matrix exponential
    ``expm(t * [[D, h], [0, 0]])`` integrates exactly.
    """
    x0 = _check_x0(params, x0)
    if not (t >= 0 and math.isfinite(t)):
        raise ParameterError("t must be non-negative and finite")
    n = params.n
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = params.drift_matrix()
    aug[:n, n] = params.h
    phi = scipy.linalg.expm(t * aug)
    return phi[:n, :n] @ x0 + phi[:n, n]


def langevin_params(coupling, beta: float, confinement: float) -> SystemParams:
    """Gradient flow of ``H(x) = -x.J x`` with confinement and temperature.

    Drift ``(2 J - K I) x`` for a symmetric coupling ``J`` and
    confinement strength ``K``; additive noise of amplitude
    ``sqrt(2/beta) dB`` enters through constant diffusion
    ``sigma_0j = 1/sqrt(2 beta)``.  ``beta = inf`` gives the noiseless
    flow.
    """
    j = np.asarray(coupling, dtype=np.float64)
    if not (j.ndim == 2 and j.shape[0] == j.shape[1] and np.array_equal(j, j.T)):
        raise ParameterError("langevin dynamics needs a symmetric coupling")
    return SystemTemplate(confinement=confinement, beta=beta, langevin=True).build(j)


@dataclass(frozen=True)
class SystemTemplate:
    """How a sampled coupling becomes a full parameter set.

    ``langevin=True`` uses the gradient-flow drift ``2J - K I`` of the
    quadratic energy; otherwise the coupling enters unscaled,
    ``J - K I``.  ``beta`` sets the additive noise ``sigma_0j =
    1/sqrt(2 beta)`` (``inf`` for a noiseless flow) and ``thresholds``
    the constant drift, either one value for all coordinates or a full
    vector.
    """

    confinement: float = 1.0
    beta: float = 1.0
    langevin: bool = False
    thresholds: object = 0.0

    def coupling_drift(self, j: np.ndarray) -> np.ndarray:
        """The coupling's part of the drift: ``2J`` for the gradient flow, else ``J``."""
        return 2.0 * j if self.langevin else j

    def build(self, coupling) -> SystemParams:
        """Parameters for a scaled coupling ``J = A / sqrt(N)``."""
        if not self.beta > 0:
            raise ParameterError("beta must be positive (use math.inf for zero noise)")
        j = np.asarray(coupling, dtype=np.float64)
        n = j.shape[0]
        sigma = np.zeros((n + 1, n))
        if math.isfinite(self.beta):
            sigma[0] = 1.0 / math.sqrt(2.0 * self.beta)
        h = np.broadcast_to(np.asarray(self.thresholds, dtype=np.float64), (n,))
        return SystemParams(coupling=self.coupling_drift(j),
                            lam=-self.confinement * np.eye(n),
                            h=np.array(h), sigma=sigma)
