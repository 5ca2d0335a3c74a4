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
:func:`sample_couplings`.  Its draw order is part of the reproducibility
contract: the generators run in list order, each drawing the upper
triangle row-major (the full matrix for an asymmetric ensemble).  The
draw streams into the output tile by tile, so a call needs the output
and a few tiles of rows, whatever N is.  The tiles' row ranges and
entry counts are formed once per (N, symmetric); nothing is cached per
profile.

A variance profile read from a file stays a dense (N, N) matrix.  The
presets, ``offdiagonal`` and ``full``, hold no N x N array: they are a
size and a diagonal variance, and the sampler only divides their tiles
by ``sqrt(N)``.  So a spectral replica-arm, drawn into a reused
coupling, holds one coupling plus a few tiles of 64 rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .rng import RngStream

__all__ = [
    "EntryDistribution",
    "entry_moment",
    "moment_growth_constant",
    "VarianceProfile",
    "PROFILE_PRESETS",
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
        # numpy's draw in [0, 2) is the top bit of the same 32-bit value, so
        # the bytes are those of that draw.  2 * bit - 1 is formed in float64:
        # in int32 it is faster, but it raised the paired runs' peak RSS by
        # 0.06 MB (heap layout)
        bits = rng.integers(0, 1 << 32, size, dtype=np.uint32)
        bits >>= 31
        signs = bits.astype(np.float64)
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

    A profile read from a file is dense: ``VarianceProfile(m)`` holds its
    (N, N) matrix ``m``.  A preset, :meth:`offdiagonal` or :meth:`full`,
    holds no N x N array: ``m`` is None, and the profile is its size
    ``n``, unit variance off the diagonal and ``diagonal`` (0 or 1) on
    it.  Read the variances through :meth:`variance`.

    Parameters
    ----------
    m : ndarray, shape (N, N), or None
        Non-negative variance matrix; None for a preset.
    n : int
        Size of a preset; a dense profile takes it from ``m``.
    diagonal : float
        Diagonal variance of a preset, 0.0 or 1.0.
    """

    m: np.ndarray
    n: int = None
    diagonal: float = None

    def __post_init__(self) -> None:
        if self.m is None:
            if (not isinstance(self.n, (int, np.integer)) or self.n < 0
                    or self.diagonal not in (0.0, 1.0)):
                raise EnsembleError("a preset profile needs a size n >= 0 and a diagonal "
                                    f"variance of 0 or 1, got {self.n!r}, {self.diagonal!r}")
            object.__setattr__(self, "n", int(self.n))
            object.__setattr__(self, "diagonal", float(self.diagonal))
            return
        m = np.asarray(self.m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise EnsembleError(f"variance profile must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise EnsembleError("variance profile entries must be finite and non-negative")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", m.shape[0])
        object.__setattr__(self, "diagonal", None)

    @cached_property
    def is_symmetric(self) -> bool:
        return self.m is None or bool(np.array_equal(self.m, self.m.T))

    def variance(self, i: int, j: int) -> float:
        """``m_ij`` at 0-based indices ``i`` and ``j``."""
        if self.m is not None:
            return self.m[i, j]
        return self.diagonal if i == j else 1.0

    @classmethod
    def offdiagonal(cls, n: int) -> "VarianceProfile":
        """Unit variances off the diagonal, zero on it (the default)."""
        return cls(None, n, 0.0)

    @classmethod
    def full(cls, n: int) -> "VarianceProfile":
        return cls(None, n, 1.0)


# preset name -> its profile at size n; ensemble.profile names one or a file
PROFILE_PRESETS = {"offdiagonal": VarianceProfile.offdiagonal, "full": VarianceProfile.full}


# rows per tile of a coupling draw: a tile's entries, mask and scales are all
# the memory a draw takes besides its output
_TILE = 64

# entries of one draw of a repeated generator's matrices: a tile at N = 128
_GROUP_ENTRIES = _TILE * 128


@lru_cache(maxsize=4)
def _tile_plan(n: int, symmetric: bool) -> tuple:
    """``(tiles, counts)`` of an (N, N) draw, formed once per (N, symmetric):
    the tiles' row ranges and the entries each draws, its upper staircase
    (row i of the tile from column lo + i on) when symmetric, else its
    full rows."""
    tiles = tuple((lo, min(lo + _TILE, n)) for lo in range(0, n, _TILE))
    counts = tuple((hi - lo) * (n - lo) - (hi - lo) * (hi - lo - 1) // 2 if symmetric
                   else (hi - lo) * n for lo, hi in tiles)
    return tiles, counts


def sample_couplings(dist: EntryDistribution, profile: VarianceProfile, symmetric: bool,
                     gens: list, out: np.ndarray = None) -> np.ndarray:
    """Scaled couplings ``J = A / sqrt(N)``, one per generator, shape (C, N, N).

    Each generator, in list order, draws one ``A``: the upper triangle
    row-major, diagonal included, mirrored for a symmetric ensemble (which
    needs a symmetric profile), else the full matrix row-major.  Entries
    with ``m_ij = 0`` come out zero (``+0.0`` in a symmetric ensemble).

    The draw streams into the output in tiles of ``_TILE`` rows: each
    generator draws its tiles' entries straight into its matrix (the
    tile's upper staircase through a boolean mask, or its full rows), and
    consecutive draws give the values of one draw.  A list of one
    generator repeated, as the series-vs-MC check passes, draws a group
    of its matrices at a time, ``_GROUP_ENTRIES`` entries at most, and
    scatters the group tile by tile: the same values from one call per
    group, where the tiles take one per tile and matrix.  The stack is then
    finished in place, tile by tile: the diagonal block mirrored and the
    part left of it copied from the finished rows above, a slab of
    matrices at a time, then the upper part times ``sqrt(m)`` of the
    tile's rows, ``+ 0.0`` and ``/ sqrt(N)``.  A preset's unit variances
    change no bits, so its tiles are only divided by ``sqrt(N)``, and a
    zero diagonal is then written.  That gives the same bytes, unless a
    Gaussian draw is exactly -0.0 (a 2**-53 event per entry): a
    symmetric preset keeps it, where ``+ 0.0`` makes it +0.0.  Besides
    the output a call holds one tile's entries, mask and scales, a few
    ``_TILE * N`` arrays, and a mirror copy of about ``_TILE**2``
    entries.

    ``out``, when given, is a C-contiguous float64 array of shape
    (C, N, N) that receives the stack and is returned; every entry is
    overwritten, with the same bytes as a fresh draw.  An ``out`` of
    shape (C, N(N+1)/2) takes a symmetric ensemble's packed upper
    triangles instead (:func:`_sample_packed`).
    """
    n = profile.n
    if symmetric and not profile.is_symmetric:
        raise EnsembleError("symmetric ensemble requires a symmetric variance profile")
    if out is not None and out.ndim == 2:
        return _sample_packed(dist, profile, symmetric, gens, out)
    shape = (len(gens), n, n)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise EnsembleError(f"out must be a C-contiguous float64 array of shape {shape}")
    tiles, counts = _tile_plan(n, symmetric)
    # a tile's upper staircase, from column lo on: its row i keeps columns i..;
    # the masks are formed per call, as masks cached past the call raised the
    # peak RSS of a paired run by about 0.2 MB (heap layout)
    upper = np.arange(n) >= np.arange(min(_TILE, n))[:, None]
    masks = [upper[:hi - lo, :n - lo] for lo, hi in tiles]
    lower = ~upper[:, :min(_TILE, n)]
    group = _GROUP_ENTRIES // max(1, sum(counts))
    if group > 1 and len(gens) > 1 and all(gen is gens[0] for gen in gens):
        # one generator repeated: a group of its matrices is one draw, scattered by tile
        offsets = np.cumsum((0,) + counts)
        for c in range(0, len(gens), group):
            slab = out[c:c + group]
            entries = sample_entries(dist, (len(slab), offsets[-1]), gens[0])
            for (lo, hi), mask, start, stop in zip(tiles, masks, offsets, offsets[1:]):
                if symmetric:
                    slab[:, lo:hi, lo:][:, mask] = entries[:, start:stop]
                else:
                    slab[:, lo:hi] = entries[:, start:stop].reshape(len(slab), hi - lo, n)
            del entries  # before the next group's draw
    elif symmetric:
        for a, gen in zip(out, gens):
            for (lo, hi), mask, count in zip(tiles, masks, counts):
                a[lo:hi, lo:][mask] = sample_entries(dist, count, gen)
    else:
        for a, gen in zip(out, gens):
            for lo, hi in tiles:
                a[lo:hi] = sample_entries(dist, (hi - lo, n), gen)
    root = math.sqrt(n)
    for lo, hi in tiles:
        if symmetric:
            # the tile's lower part: its diagonal block mirrored, and left of it the
            # finished rows above.  numpy copies a transposed source that overlaps its
            # target whole, so a slab of matrices at a time keeps that copy to about
            # _TILE**2 entries
            step = max(1, _TILE * _TILE // ((hi - lo) * hi))
            for c in range(0, len(out), step):
                slab = out[c:c + step]
                block = slab[:, lo:hi, lo:hi]
                np.copyto(block, block.transpose(0, 2, 1), where=lower[:hi - lo, :hi - lo])
                slab[:, lo:hi, :lo] = slab[:, :lo, lo:hi].transpose(0, 2, 1)
            part = out[:, lo:hi, lo:]
        else:
            part = out[:, lo:hi]
        if profile.m is not None:
            part *= np.sqrt(profile.m[lo:hi, lo:] if symmetric else profile.m[lo:hi])
            if symmetric:
                # + 0.0 turns the -0.0 of a zero variance times a negative draw into +0.0
                part += 0.0
        part /= root
    if profile.m is None and profile.diagonal == 0.0:
        # x * 0.0 / root is +0.0 after the + 0.0 of a symmetric ensemble, else the
        # draw's signed zero x / root * 0.0
        diagonal = out.reshape(len(out), n * n)[:, ::n + 1]
        if symmetric:
            diagonal[...] = 0.0
        else:
            diagonal *= 0.0
    return out


def _sample_packed(dist: EntryDistribution, profile: VarianceProfile, symmetric: bool,
                   gens: list, out: np.ndarray) -> np.ndarray:
    """:func:`sample_couplings` into ``out``, of shape (C, N(N+1)/2): each
    matrix's packed upper triangle, row i from column i on, row after
    row, which is LAPACK's column-major ``'L'`` packed layout of the
    symmetric matrix.  A tile's upper staircase is one contiguous segment
    of it, so each generator draws its tiles straight into their
    segments, with no mask and no mirror, and each tile is finished with
    the same operations per entry as in the full matrix.  So the entries
    are byte for byte the full matrices' upper triangles.
    """
    n = profile.n
    if not symmetric:
        raise EnsembleError("a packed out takes the couplings of a symmetric ensemble")
    shape = (len(gens), n * (n + 1) // 2)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise EnsembleError(f"out must be a C-contiguous float64 array of shape {shape}")
    tiles, counts = _tile_plan(n, True)
    offsets = np.cumsum((0,) + counts)
    for a, gen in zip(out, gens):
        for start, stop in zip(offsets, offsets[1:]):
            a[start:stop] = sample_entries(dist, stop - start, gen)
    root = math.sqrt(n)
    upper = np.arange(n) >= np.arange(min(_TILE, n))[:, None]
    for (lo, hi), start, stop in zip(tiles, offsets, offsets[1:]):
        part = out[:, start:stop]
        if profile.m is not None:
            part *= np.sqrt(profile.m[lo:hi, lo:])[upper[:hi - lo, :n - lo]]
            # + 0.0 turns the -0.0 of a zero variance times a negative draw into +0.0
            part += 0.0
        part /= root
    if profile.m is None and profile.diagonal == 0.0:
        rows = np.arange(n)
        out[:, rows * n - rows * (rows - 1) // 2] = 0.0  # each row's first entry
    return out


@dataclass(frozen=True)
class InitialLaw:
    """Product law of the initial condition: ``n`` iid coordinates of ``dist``.

    Its exact moments are those of the entry law, :func:`entry_moment`.
    """

    dist: EntryDistribution
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.dist, EntryDistribution):
            raise EnsembleError(f"not an entry distribution: {self.dist!r}")
        if self.n < 1:
            raise EnsembleError("initial law needs at least one coordinate")

    def moment(self, i: int, ell: int) -> float:
        """Exact E[X_i(0)**ell] for coordinate i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"coordinate {i} out of range 1..{self.n}")
        return entry_moment(self.dist, ell)


def sample_initial(law: InitialLaw, stream: RngStream) -> np.ndarray:
    """One draw of the initial condition."""
    return sample_entries(law.dist, law.n, stream.generator())

