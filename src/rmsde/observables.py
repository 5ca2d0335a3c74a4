"""Suite items: the observables of the universality theorem, as data.

The theorem covers weighted site averages of products of building
blocks, each at a fixed recorded time: the unit constant, the state
``X_i(t)``, the field ``G_i(t) = sum_k J_ki X_k(t)`` and the martingale
part ``M_i(t)``.  A :class:`SuiteItem` holds one as m rows of blocks over
p times plus weights ``a``, the value being
``N^{-m} sum_{i_1..i_m} a_{i_1..i_m} prod_l prod_k block[l][k]_{i_l}(t_k)``,
O(1) as N grows for bounded weights.

:func:`evaluate` computes an item on a block of k replicas at once, from
their (k, S, N) snapshots and (k, N, N) couplings, at rows resolved once
per run (:meth:`SuiteItem.rows`).  Its products are stacked ``matmul``
calls of the per-replica forms (``x_s . x_t``, ``x . (J x)``, ``a . v``,
``(v0 a) . v1``), which round each replica exactly as those forms do;
``einsum`` and 2-D ``v @ a`` would not.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["BuildingBlock", "SuiteItem", "evaluate", "ObservableError"]


class ObservableError(ValueError):
    """Malformed observable."""


class BuildingBlock(enum.Enum):
    """The four primitive per-coordinate factors, and ``JX_i = sum_k J_ik X_k``,
    which only the built-in energy ``x . (J x)`` reads (``x . G`` rounds
    differently) and a configuration cannot name."""

    ONE = "one"
    X = "x"
    G = "g"
    M = "m"
    JX = "jx"

    @classmethod
    def from_name(cls, name: str) -> "BuildingBlock":
        key = name.strip().lower()
        for b in cls:
            if b is not cls.JX and key in (b.value, b.name.lower()):
                return b
        raise ObservableError(f"unknown building block {name!r}")


@dataclass(frozen=True)
class SuiteItem:
    """A named observable ``N^{-m} sum a prod_l prod_k block[l][k](t_k)``.

    ``blocks`` has one row per outer index, m <= 3 of them, and one
    column per time in ``times``; the quadratic
    ``(1/N) sum_i a_i Y_i(t) Y'_i(t2)`` is ``((Y, Y'),)`` at ``(t, t2)``.
    ``weights`` is ``None`` (unit weight, arity 1 only: the dot product of
    the last factor with the product of the others, as ``x_s . x_t``), a
    number (a dense constant array, so ``1.0`` and ``None`` differ in the
    last bits), or ``N ** m`` weights in C order, flat or of arity m.
    """

    name: str
    blocks: tuple  # m rows, each a tuple of p BuildingBlock
    times: tuple  # p floats
    weights: object = None

    def __post_init__(self) -> None:
        blocks = tuple(tuple(row) for row in self.blocks)
        if not blocks:
            raise ObservableError("an observable needs at least one factor")
        times = tuple(float(t) for t in self.times)
        for row in blocks:
            if len(row) != len(times):
                raise ObservableError("each block row must have one entry per time")
            for b in row:
                if not isinstance(b, BuildingBlock):
                    raise ObservableError(f"not a building block: {b!r}")
        if len(blocks) > 3:
            raise ObservableError(f"observables are limited to arity 3, got {len(blocks)}")
        weights = self.weights
        if weights is not None:
            a = np.array(weights, dtype=np.float64)
            if a.size == 0 or not np.all(np.isfinite(a)):
                raise ObservableError("weights must be non-empty and finite")
            if a.ndim not in (0, 1, len(blocks)):
                raise ObservableError(f"weights must have arity {len(blocks)}, got {a.ndim}")
            a.setflags(write=False)
            weights = float(a) if a.ndim == 0 else a
        elif len(blocks) != 1:
            raise ObservableError("unit weight needs arity 1; give the weights")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "weights", weights)

    @property
    def arity(self) -> int:
        return len(self.blocks)

    def rows(self, config) -> tuple:
        """Rows of :attr:`times` in the snapshots of an ``IntegratorConfig``."""
        return tuple(config.row(t) for t in self.times)


@functools.lru_cache(maxsize=1)
def _constant(value: str, shape: tuple) -> np.ndarray:
    """Read-only constant weights, keyed on ``float.hex`` as ``-0.0 == 0.0``."""
    a = np.full(shape, float.fromhex(value))
    a.setflags(write=False)
    return a


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``u[i] . v[i]`` of two (k, N) stacks."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _factor(block: BuildingBlock, row: int, xs, ms, coupling) -> np.ndarray:
    """(k, N) values of ``block`` at snapshot ``row`` of every replica."""
    if block is BuildingBlock.X:
        return xs[:, row]
    if block is BuildingBlock.M:
        return ms[:, row]
    if block is BuildingBlock.G:
        return (xs[:, row, None, :] @ coupling)[:, 0]
    if block is BuildingBlock.JX:
        return (coupling @ xs[:, row, :, None])[:, :, 0]
    return np.ones(xs[:, row].shape)


def _product(blocks: tuple, rows: tuple, factor) -> np.ndarray:
    """``1 * block_0 * block_1 ...`` at ``rows``; the exact ``1 *`` keeps each
    factor's bits."""
    v = factor(BuildingBlock.ONE, 0)
    for block, row in zip(blocks, rows):
        v = v * factor(block, row)
    return v


def evaluate(item: SuiteItem, rows: tuple, xs: np.ndarray, ms: np.ndarray,
             coupling: np.ndarray) -> np.ndarray:
    """Values of ``item`` on a block of k replicas, shape (k,).

    ``rows`` are the snapshot rows of ``item.times``
    (:meth:`SuiteItem.rows`); ``xs`` and ``ms`` are the block's (k, S, N)
    states and martingale parts (``ms`` may be None if ``item`` reads no
    ``m``), and ``coupling`` its (k, N, N)
    couplings as the systems hold them.  Arity 1 and 2 are one stacked
    product over the block; arity 3 contracts replica by replica.
    """
    k, _, n = xs.shape
    # each (block, row) factor is formed once per call: gradsq's G is G
    factor = functools.cache(lambda block, row: _factor(block, row, xs, ms, coupling))
    if item.weights is None:
        *head, last = item.blocks[0]
        return _dot(_product(head, rows, factor), factor(last, rows[-1])) / n
    shape = (n,) * item.arity
    if isinstance(item.weights, float):
        a = _constant(item.weights.hex(), shape)
    elif item.weights.size == n ** item.arity:
        a = item.weights.reshape(shape)
    else:
        raise ObservableError(f"{item.name}: weights shape {item.weights.shape} "
                              f"does not match dimension {n}")
    vs = [_product(row, rows, factor) for row in item.blocks]
    if item.arity == 1:
        vals = _dot(np.broadcast_to(a, vs[0].shape), vs[0])
    elif item.arity == 2:
        vals = ((vs[0][:, None, :] @ a) @ vs[1][:, :, None])[:, 0, 0]
    else:
        vals = np.array([np.einsum("ijk,i,j,k->", a, *(v[i] for v in vs)) for i in range(k)])
    return vals / n ** item.arity
