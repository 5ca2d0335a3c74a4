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
from typing import Optional

import numpy as np

from .dynamics import Trajectory

__all__ = [
    "BuildingBlock",
    "QuadraticObservable",
    "TensorObservable",
    "block_values",
    "eval_quadratic",
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
        return traj.x[row] @ traj.params.coupling
    if block is BuildingBlock.M:
        return traj.m[row]
    raise ObservableError(f"unhandled block {block}")


@dataclass(frozen=True)
class QuadraticObservable:
    """``(1/N) sum_i a_i * Y_i(t) * Y'_i(t2)``.

    Parameters
    ----------
    a : ndarray, shape (N,)
    y, y2 : BuildingBlock
    t, t2 : float
        Evaluation times, must lie on the snapshot grid of the
        trajectory the observable is applied to.
    c_a : float, optional
        Declared sup-norm bound on the weights (derived when omitted).
    """

    a: np.ndarray
    y: BuildingBlock
    y2: BuildingBlock
    t: float
    t2: float
    c_a: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 1 or a.size == 0:
            raise ObservableError("weights must be a non-empty vector")
        if not np.all(np.isfinite(a)):
            raise ObservableError("weights must be finite")
        sup = float(np.abs(a).max())
        c_a = sup if self.c_a is None else float(self.c_a)
        if sup > c_a + 1e-12:
            raise ObservableError(f"sup-norm of weights {sup} exceeds declared bound {c_a}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c_a", c_a)


def eval_quadratic(traj: Trajectory, obs: QuadraticObservable) -> float:
    if obs.a.shape[0] != traj.x.shape[1]:
        raise ObservableError("weight vector length does not match the trajectory dimension")
    v = block_values(traj, obs.y, obs.t)
    w = block_values(traj, obs.y2, obs.t2)
    return float(obs.a @ (v * w)) / traj.x.shape[1]


@dataclass(frozen=True)
class TensorObservable:
    """``N^{-m} sum a_{i_1..i_m} prod_l prod_k block[l][k]_{i_l}(t_k)``.

    ``blocks`` has one row per outer factor and one column per time in
    ``times``.  Weights are a dense ndarray for arity up to 3; beyond
    that (or for sparse tensors) pass a callable together with
    ``support``, the list of index tuples (1-based) it is nonzero on.
    """

    blocks: tuple  # m rows, each a tuple of p BuildingBlock
    times: tuple  # p floats
    a: object  # ndarray or callable
    support: Optional[tuple] = None
    c_a: float = None  # type: ignore[assignment]

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
        a = self.a
        c_a = self.c_a
        if callable(a):
            if self.support is None:
                raise ObservableError("callback weights need an explicit support list")
            support = tuple(tuple(int(i) for i in idx) for idx in self.support)
            for idx in support:
                if len(idx) != m:
                    raise ObservableError(f"support tuple {idx} does not have arity {m}")
            object.__setattr__(self, "support", support)
        else:
            a = np.asarray(a, dtype=np.float64)
            if a.ndim != m:
                raise ObservableError(f"dense weights must have arity {m}, got {a.ndim}")
            if m > 3:
                raise ObservableError(
                    "dense evaluation is limited to arity 3; pass a callback with support")
            if not np.all(np.isfinite(a)):
                raise ObservableError("weights must be finite")
            sup = float(np.abs(a).max()) if a.size else 0.0
            if c_a is None:
                c_a = sup
            elif sup > c_a + 1e-12:
                raise ObservableError(f"sup-norm {sup} exceeds declared bound {c_a}")
            a = a.copy()
            a.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c_a", c_a)

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
    if callable(obs.a):
        total = 0.0
        for idx in obs.support:
            entry = float(obs.a(idx))
            if obs.c_a is not None and abs(entry) > obs.c_a + 1e-12:
                raise ObservableError(f"weight at {idx} exceeds declared bound {obs.c_a}")
            term = entry
            for axis, i in enumerate(idx):
                if not 1 <= i <= n:
                    raise ObservableError(f"support index {idx} out of range")
                term *= vs[axis][i - 1]
            total += term
        return total / n ** m
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
    return float(x @ (traj.params.coupling @ x)) / traj.x.shape[1]


def grad_sq_density(traj: Trajectory, t: float) -> float:
    """``(1/N) sum_i G_i(X_t)^2``, the squared field strength per site."""
    x = traj.x[traj.config.row(t)]
    g = x @ traj.params.coupling
    return float(g @ g) / traj.x.shape[1]

