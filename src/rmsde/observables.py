"""Observables evaluated on recorded trajectories.

Everything here is a pure function of a :class:`~rmsde.dynamics.Trajectory`.
The building blocks are the unit constant, the state ``X_i(t)``, the
field ``G_i(t) = sum_k J_ki X_k(t)``, and the martingale part
``M_i(t)``; observables are weighted empirical averages of products of
blocks, normalized so that bounded weights give O(1) values as the
dimension grows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
import numpy as np

from .dynamics import Trajectory

__all__ = [
    "BuildingBlock",
    "TensorObservable",
    "block_values",
    "eval_tensor",
    "autocorrelation",
    "hamiltonian_density",
    "grad_sq_density",
    "ObservableError",
]


class ObservableError(ValueError):
    """Malformed observable."""


class BuildingBlock(enum.Enum):
    """The four primitive per-coordinate factors."""

    ONE = "one"
    X = "x"
    G = "g"
    M = "m"

    @classmethod
    def from_name(cls, name: str) -> "BuildingBlock":
        key = name.strip().lower()
        for b in cls:
            if key in (b.value, b.name.lower()):
                return b
        raise ObservableError(f"unknown building block {name!r}")


def block_values(traj: Trajectory, block: BuildingBlock, t: float) -> np.ndarray:
    """All N coordinates of one block at a recorded time."""
    row = traj.config.row(t)
    if block is BuildingBlock.ONE:
        return np.ones(traj.x.shape[1])
    if block is BuildingBlock.X:
        return traj.x[row]
    if block is BuildingBlock.G:
        return traj.x[row] @ traj.coupling
    if block is BuildingBlock.M:
        return traj.m[row]
    raise ObservableError(f"unhandled block {block}")


@dataclass(frozen=True)
class TensorObservable:
    """``N^{-m} sum a_{i_1..i_m} prod_l prod_k block[l][k]_{i_l}(t_k)``.

    ``blocks`` has one row per outer factor and one column per time in
    ``times``.  Weights are a dense ndarray of arity m <= 3.  The quadratic
    ``(1/N) sum_i a_i Y_i(t) Y'_i(t2)`` is ``blocks=((Y, Y'),)``,
    ``times=(t, t2)``.
    """

    blocks: tuple  # m rows, each a tuple of p BuildingBlock
    times: tuple  # p floats
    a: np.ndarray

    def __post_init__(self) -> None:
        blocks = tuple(tuple(row) for row in self.blocks)
        if not blocks:
            raise ObservableError("tensor observable needs at least one factor")
        times = tuple(float(t) for t in self.times)
        p = len(times)
        for row in blocks:
            if len(row) != p:
                raise ObservableError("each block row must have one entry per time")
            for b in row:
                if not isinstance(b, BuildingBlock):
                    raise ObservableError(f"not a building block: {b!r}")
        m = len(blocks)
        if m > 3:
            raise ObservableError(f"tensor observables are limited to arity 3, got {m}")
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != m:
            raise ObservableError(f"weights must have arity {m}, got {a.ndim}")
        if a.size == 0 or not np.all(np.isfinite(a)):
            raise ObservableError("weights must be non-empty and finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "a", a)

    @property
    def arity(self) -> int:
        return len(self.blocks)


def _factor_vectors(traj: Trajectory, obs: TensorObservable) -> list:
    out = []
    for row in obs.blocks:
        v = np.ones(traj.x.shape[1])
        for block, t in zip(row, obs.times):
            v = v * block_values(traj, block, t)
        out.append(v)
    return out


def eval_tensor(traj: Trajectory, obs: TensorObservable) -> float:
    n = traj.x.shape[1]
    m = obs.arity
    vs = _factor_vectors(traj, obs)
    a = obs.a
    if a.shape != (n,) * m:
        raise ObservableError(f"weights shape {a.shape} does not match dimension {n}")
    if m == 1:
        return float(a @ vs[0]) / n
    if m == 2:
        return float(vs[0] @ a @ vs[1]) / n ** 2
    return float(np.einsum("ijk,i,j,k->", a, vs[0], vs[1], vs[2])) / n ** 3


def autocorrelation(traj: Trajectory, s: float, t: float) -> float:
    """``C_N(s, t) = (1/N) sum_i X_i(s) X_i(t)``."""
    xs = traj.x[traj.config.row(s)]
    xt = traj.x[traj.config.row(t)]
    return float(xs @ xt) / traj.x.shape[1]


def hamiltonian_density(traj: Trajectory, t: float) -> float:
    """``H(X_t)/N`` for the quadratic energy ``H(x) = x . (J x)``."""
    x = traj.x[traj.config.row(t)]
    return float(x @ (traj.coupling @ x)) / traj.x.shape[1]


def grad_sq_density(traj: Trajectory, t: float) -> float:
    """``(1/N) sum_i G_i(X_t)^2``, the squared field strength per site."""
    x = traj.x[traj.config.row(t)]
    g = x @ traj.coupling
    return float(g @ g) / traj.x.shape[1]

