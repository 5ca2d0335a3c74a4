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

The exact moment table is what the expansion engine consumes; every
simulation draws its couplings, scaled to ``J = A / sqrt(N)``, through
:func:`sample_couplings`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import RngStream

__all__ = [
    "EntryDistribution",
    "entry_moment",
    "moment_growth_constant",
    "VarianceProfile",
    "sample_couplings",
    "InitialLaw",
    "sample_initial",
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

    Witnesses the sub-exponential tail hypothesis for each law.
    """
    if dist is EntryDistribution.EXPONENTIAL_CENTERED:
        return 2.0
    return 1.0


def sample_entries(dist: EntryDistribution, size, rng: np.random.Generator) -> np.ndarray:
    """Draw iid samples of the unit-variance law."""
    if dist is EntryDistribution.GAUSSIAN:
        return rng.standard_normal(size)
    if dist is EntryDistribution.RADEMACHER:
        signs = rng.integers(0, 2, size=size).astype(np.float64)
        signs *= 2.0
        signs -= 1.0
        return signs
    if dist is EntryDistribution.UNIFORM_CENTERED:
        s = math.sqrt(3.0)
        return rng.uniform(-s, s, size=size)
    if dist is EntryDistribution.EXPONENTIAL_CENTERED:
        return rng.standard_exponential(size=size) - 1.0
    raise EnsembleError(f"unhandled distribution {dist}")


@dataclass(frozen=True)
class VarianceProfile:
    """Entrywise variances ``m_ij = E[A_ij**2]``.

    Parameters
    ----------
    m : ndarray, shape (N, N)
        Non-negative variance matrix.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise EnsembleError(f"variance profile must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise EnsembleError("variance profile entries must be finite and non-negative")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @cached_property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.m, self.m.T))

    @cached_property
    def upper_plan(self) -> tuple:
        """Flat indices of the upper triangle (row-major, diagonal included),
        of their mirror images, and ``sqrt(m)`` there: the symmetric draw."""
        n = self.n
        iu, ju = np.triu_indices(n)
        return iu * n + ju, ju * n + iu, np.sqrt(self.m[iu, ju])

    @cached_property
    def full_scale(self) -> np.ndarray:
        """``sqrt(m)`` flattened row-major: the scale of a full draw."""
        return np.sqrt(self.m).ravel()

    @classmethod
    def offdiagonal(cls, n: int) -> "VarianceProfile":
        """Unit variances off the diagonal, zero on it (the default)."""
        m = np.ones((n, n))
        np.fill_diagonal(m, 0.0)
        return cls(m)

    @classmethod
    def full(cls, n: int) -> "VarianceProfile":
        return cls(np.ones((n, n)))


def sample_couplings(dist: EntryDistribution, profile: VarianceProfile, symmetric: bool,
                     gens: list, out: np.ndarray = None) -> np.ndarray:
    """Scaled couplings ``J = A / sqrt(N)``, one per generator, shape (C, N, N).

    Each generator, in list order, draws one ``A``: the upper triangle
    row-major, diagonal included, mirrored for a symmetric ensemble (which
    needs a symmetric profile), else the full matrix row-major.  Entries
    with ``m_ij = 0`` come out zero (``+0.0`` in a symmetric ensemble).
    The index plan and the scales are computed once per profile.

    ``out``, when given, is a C-contiguous float64 array of shape
    (C, N, N) that receives the stack and is returned; every entry is
    overwritten, with the same bytes as a fresh draw.
    """
    n = profile.n
    root = math.sqrt(n)
    if symmetric:
        if not profile.is_symmetric:
            raise EnsembleError("symmetric ensemble requires a symmetric variance profile")
        upper, lower, scale = profile.upper_plan
    else:
        scale = profile.full_scale
    shape = (len(gens), n, n)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise EnsembleError(f"out must be a C-contiguous float64 array of shape {shape}")
    # the plan is cached on the profile, so a draw allocates only one row of entries
    # at a time besides the stack: nothing per call for glibc to trim and re-fault
    for row, gen in zip(out.reshape(len(gens), n * n), gens):
        if symmetric:
            # + 0.0 turns the -0.0 of a zero variance times a negative draw into +0.0
            vals = sample_entries(dist, len(scale), gen)
            vals *= scale
            vals += 0.0
            row[upper] = vals
            row[lower] = vals
        else:
            np.multiply(scale, sample_entries(dist, n * n, gen), out=row)
        row /= root
    return out


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

    @cached_property
    def groups(self) -> tuple:
        """``(dist, coordinates)`` per entry law present, in enum order."""
        return tuple((dist, [k for k, d in enumerate(self.dists) if d is dist])
                     for dist in EntryDistribution if dist in self.dists)

    def moment(self, i: int, ell: int) -> float:
        """Exact E[X_i(0)**ell] for coordinate i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"coordinate {i} out of range 1..{self.n}")
        return entry_moment(self.dists[i - 1], ell)


def sample_initial(law: InitialLaw, stream: RngStream) -> np.ndarray:
    """One draw of the initial condition."""
    rng = stream.generator()
    if len(law.groups) == 1:
        return sample_entries(law.dists[0], law.n, rng)
    # mixed marginals: one draw per kind, in enum order
    out = np.empty(law.n)
    for dist, idx in law.groups:
        out[idx] = sample_entries(dist, len(idx), rng)
    return out

