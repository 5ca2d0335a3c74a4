"""Random matrix ensembles with unit-variance entry laws.

The coupling matrices studied here are ``J = A / sqrt(N)`` where the
entries ``A_ij`` are independent (or independent up to the symmetry
``A_ij = A_ji``), centered, and have variance ``m_ij`` given by a
variance profile.  Four entry laws are supported, all normalized to
mean zero and unit variance, and all with sub-exponential tails:

==========================  ============================================
kind                        moments of order ell
==========================  ============================================
``GAUSSIAN``                (ell-1)!! for even ell, 0 for odd
``RADEMACHER``              1 for even ell, 0 for odd
``UNIFORM_CENTERED``        3**(ell/2) / (ell+1) for even ell, 0 for odd
``EXPONENTIAL_CENTERED``    derangement number D_ell
==========================  ============================================

The exact moment table is what the expansion engine consumes; sampling
is only ever used for Monte Carlo cross-checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

__all__ = [
    "EntryDistribution",
    "entry_moment",
    "moment_growth_constant",
    "VarianceProfile",
    "sample_coupling",
    "InitialLaw",
    "sample_initial",
    "operator_norm",
    "PowerIterationError",
    "EnsembleError",
]


class EnsembleError(ValueError):
    """Invalid ensemble construction (bad profile, shape, or law)."""


class EntryDistribution(enum.Enum):
    """Centered unit-variance entry laws."""

    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    UNIFORM_CENTERED = "uniform_centered"
    EXPONENTIAL_CENTERED = "exponential_centered"

    @classmethod
    def from_name(cls, name: str) -> "EntryDistribution":
        key = name.strip().lower()
        for dist in cls:
            if dist.value == key or dist.name.lower() == key:
                return dist
        # short aliases used in config files
        aliases = {
            "normal": cls.GAUSSIAN,
            "sign": cls.RADEMACHER,
            "uniform": cls.UNIFORM_CENTERED,
            "exponential": cls.EXPONENTIAL_CENTERED,
        }
        if key in aliases:
            return aliases[key]
        raise EnsembleError(f"unknown entry distribution {name!r}")


def _derangements(n: int) -> int:
    # D_0 = 1, D_1 = 0, D_n = (n-1) (D_{n-1} + D_{n-2})
    a, b = 1, 0
    if n == 0:
        return a
    for k in range(2, n + 1):
        a, b = b, (k - 1) * (b + a)
    return b


def entry_moment(dist: EntryDistribution, ell: int) -> float:
    """Exact raw moment E[A**ell] of the unit-variance entry law.

    Parameters
    ----------
    dist : EntryDistribution
    ell : int
        Non-negative moment order.
    """
    if ell < 0:
        raise ValueError("moment order must be non-negative")
    if ell == 0:
        return 1.0
    if dist is EntryDistribution.GAUSSIAN:
        if ell % 2:
            return 0.0
        return float(math.prod(range(1, ell, 2)))  # (ell-1)!!
    if dist is EntryDistribution.RADEMACHER:
        return 0.0 if ell % 2 else 1.0
    if dist is EntryDistribution.UNIFORM_CENTERED:
        # uniform on [-sqrt(3), sqrt(3)]
        if ell % 2:
            return 0.0
        return float(3 ** (ell // 2)) / (ell + 1)
    if dist is EntryDistribution.EXPONENTIAL_CENTERED:
        # Exp(1) - 1; E[(X-1)^ell] is the number of derangements of ell items
        return float(_derangements(ell))
    raise EnsembleError(f"unhandled distribution {dist}")


def moment_growth_constant(dist: EntryDistribution) -> float:
    """Smallest convenient C with E[|A|^ell] <= (ell-1)! * C**(ell/2).

    Witnesses the sub-exponential tail hypothesis for each law; used in
    tests and in the a-priori bound reporting.
    """
    if dist is EntryDistribution.EXPONENTIAL_CENTERED:
        return 2.0
    return 1.0


def sample_entries(dist: EntryDistribution, size, rng: np.random.Generator) -> np.ndarray:
    """Draw iid samples of the unit-variance law."""
    if dist is EntryDistribution.GAUSSIAN:
        return rng.standard_normal(size)
    if dist is EntryDistribution.RADEMACHER:
        return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    if dist is EntryDistribution.UNIFORM_CENTERED:
        s = math.sqrt(3.0)
        return rng.uniform(-s, s, size=size)
    if dist is EntryDistribution.EXPONENTIAL_CENTERED:
        return rng.standard_exponential(size=size) - 1.0
    raise EnsembleError(f"unhandled distribution {dist}")


@dataclass(frozen=True)
class VarianceProfile:
    """Entrywise variances ``m_ij = E[A_ij**2]`` with a uniform bound.

    Parameters
    ----------
    m : ndarray, shape (N, N)
        Non-negative variance matrix.
    bound : float, optional
        Declared uniform bound on the entries.  Defaults to ``max(m)``.
    """

    m: np.ndarray
    bound: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise EnsembleError(f"variance profile must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise EnsembleError("variance profile entries must be finite and non-negative")
        bound = self.bound
        if bound is None:
            bound = float(m.max()) if m.size else 0.0
        if float(m.max(initial=0.0)) > bound + 1e-15:
            raise EnsembleError("declared bound is smaller than the largest profile entry")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "bound", float(bound))

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.m, self.m.T))

    @classmethod
    def offdiagonal(cls, n: int, value: float = 1.0) -> "VarianceProfile":
        """Unit variances off the diagonal, zero on it (the default)."""
        m = np.full((n, n), value)
        np.fill_diagonal(m, 0.0)
        return cls(m)

    @classmethod
    def full(cls, n: int, value: float = 1.0) -> "VarianceProfile":
        return cls(np.full((n, n), value))


def sample_coupling(dist: EntryDistribution,
                    profile: VarianceProfile,
                    symmetric: bool,
                    rng: np.random.Generator) -> np.ndarray:
    """Unscaled entries ``A`` of one coupling, drawn from ``rng``.

    For a symmetric ensemble only the upper triangle (diagonal
    included) is drawn and mirrored, so the profile must be symmetric.
    Entries with ``m_ij = 0`` come out exactly zero.
    """
    n = profile.n
    scale = np.sqrt(profile.m)
    if symmetric:
        if not profile.is_symmetric:
            raise EnsembleError("symmetric ensemble requires a symmetric variance profile")
        iu = np.triu_indices(n)
        a = np.zeros((n, n))
        a[iu] = scale[iu] * sample_entries(dist, len(iu[0]), rng)
        return a + np.triu(a, 1).T
    return scale * sample_entries(dist, (n, n), rng)


@dataclass(frozen=True)
class InitialLaw:
    """Product law of the initial condition: coordinate i ~ dists[i].

    All supported marginals are the centered unit-variance entry laws,
    so the exact moments are available through :func:`entry_moment`.
    """

    dists: tuple

    def __post_init__(self) -> None:
        dists = tuple(self.dists)
        if not dists:
            raise EnsembleError("initial law needs at least one coordinate")
        for d in dists:
            if not isinstance(d, EntryDistribution):
                raise EnsembleError(f"not an entry distribution: {d!r}")
        object.__setattr__(self, "dists", dists)

    @classmethod
    def uniform(cls, dist: EntryDistribution, n: int) -> "InitialLaw":
        return cls((dist,) * n)

    @property
    def n(self) -> int:
        return len(self.dists)

    def moment(self, i: int, ell: int) -> float:
        """Exact E[X_i(0)**ell] for coordinate i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"coordinate {i} out of range 1..{self.n}")
        return entry_moment(self.dists[i - 1], ell)


def sample_initial(law: InitialLaw, stream: RngStream) -> np.ndarray:
    """One draw of the initial condition."""
    rng = stream.generator()
    out = np.empty(law.n)
    kinds = set(law.dists)
    if len(kinds) == 1:
        return sample_entries(law.dists[0], law.n, rng)
    # mixed marginals: draw per kind in enum order so results do not
    # depend on set iteration order
    for dist in EntryDistribution:
        idx = [k for k, d in enumerate(law.dists) if d is dist]
        if idx:
            out[idx] = sample_entries(dist, len(idx), rng)
    return out


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; ``best`` holds the last estimate."""

    def __init__(self, message: str, best: float):
        super().__init__(message)
        self.best = best


def operator_norm(mat: np.ndarray, tol: float = 1e-6, max_iter: int = 10_000) -> float:
    """Largest singular value via power iteration on ``M.T @ M``.

    Deterministic start vectors, no randomness.  Raises
    :class:`PowerIterationError` carrying the best estimate when the
    relative change has not dropped below ``tol`` within ``max_iter``
    sweeps.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("operator_norm expects a matrix")
    n = mat.shape[1]
    if n == 0 or mat.shape[0] == 0 or not mat.any():
        return 0.0
    starts = [np.ones(n), 1.0 + np.arange(n, dtype=np.float64)]
    starts.append(np.eye(n)[0] if n else np.ones(1))
    est = 0.0
    for v0 in starts:
        v = v0 / np.linalg.norm(v0)
        est = 0.0
        stalled = False
        for _ in range(max_iter):
            w = mat.T @ (mat @ v)
            nw = float(np.linalg.norm(w))
            if nw == 0.0:
                stalled = True  # start vector lies in the kernel; try the next one
                break
            v = w / nw
            new = math.sqrt(nw)
            if abs(new - est) <= tol * max(new, 1e-300):
                return new
            est = new
        if not stalled:
            raise PowerIterationError(
                f"power iteration did not converge within {max_iter} sweeps", est)
    # every deterministic start collapsed into the kernel; the matrix is
    # nonzero, so this should be unreachable for any sane input
    raise PowerIterationError("power iteration made no progress from any start", est)
