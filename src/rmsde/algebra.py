"""Monomial algebra for exact generator expansions.

A monomial is a coefficient times a product of symbolic coupling
entries ``J_ij`` and state factors ``x_i``, where the index 0 stands
for the constant 1.  Deterministic factors (drift matrix entries,
constant drifts, diffusion coefficients) are folded into the
coefficient when a generator letter is applied, so a monomial's
identity is its coupling multiset and its state monomial, the two
parts an expectation reads, and like terms are collected on exactly
that key.  Keeping placeholder ``x_0`` factors makes the state degree
``r = |x_idx|`` invariant under the generator letters, which is what
the term-count bookkeeping relies on.

Expectations factorize over independent entries: each distinct coupling
pair contributes its raw moment scaled by ``N**(-mult/2)``, each state
coordinate its initial moment, both supplied by a :class:`MomentOracle`.
For symmetric ensembles the pairs ``(i, j)`` and ``(j, i)`` refer to
the same entry and are identified by a canonical ``(min, max)`` key in
every counting or moment computation; storage keeps pairs as generated.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .ensembles import EntryDistribution, InitialLaw, VarianceProfile, entry_moment

__all__ = [
    "Monomial",
    "Polynomial",
    "MomentOracle",
    "canonical_pair",
    "state_counts",
    "expected_value",
    "difference_vanishes",
    "AlgebraError",
]


class AlgebraError(ValueError):
    """Malformed monomial, polynomial, or oracle input."""


def canonical_pair(pair: tuple, symmetric: bool) -> tuple:
    """Identify (i,j) with (j,i) under a symmetric ensemble."""
    if symmetric and pair[1] < pair[0]:
        return (pair[1], pair[0])
    return pair


def state_counts(x_idx: tuple) -> tuple:
    """``(i, multiplicity)`` of each genuine state factor of a sorted
    ``x_idx``, by increasing ``i``; the placeholder 0 is left out."""
    return tuple((i, x_idx.count(i)) for i in dict.fromkeys(x_idx) if i != 0)


def _sorted_pairs(pairs) -> tuple:
    out = []
    for p in pairs:
        i, j = int(p[0]), int(p[1])
        if i < 1 or j < 1:
            raise AlgebraError(f"coupling pair ({i},{j}) out of range")
        out.append((i, j))
    return tuple(sorted(out))


@dataclass(frozen=True)
class Monomial:
    """One term ``coeff * prod J_pairs * prod x_idx``.

    ``key`` is ``(j_pairs, x_idx)``, everything an expectation reads
    besides the coefficient.
    """

    coeff: float = 1.0
    j_pairs: tuple = ()
    x_idx: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "j_pairs", _sorted_pairs(self.j_pairs))
        x_idx = tuple(sorted(int(i) for i in self.x_idx))
        if x_idx and x_idx[0] < 0:
            raise AlgebraError("state indices must be >= 0")
        object.__setattr__(self, "x_idx", x_idx)

    @classmethod
    def from_x(cls, *indices: int, coeff: float = 1.0) -> "Monomial":
        return cls(coeff=coeff, x_idx=tuple(indices))

    @property
    def key(self) -> tuple:
        """Canonical identity ignoring the coefficient."""
        return (self.j_pairs, self.x_idx)

    @property
    def degree(self) -> int:
        """State degree r = |x_idx| (placeholders included)."""
        return len(self.x_idx)

    @classmethod
    def _trusted(cls, coeff: float, j_pairs: tuple, x_idx: tuple) -> "Monomial":
        """A monomial from parts that are already canonical, unchecked.

        ``coeff`` must be a float and both tuples sorted and in range, as
        the generator letters and products of monomials produce them.
        """
        mono = object.__new__(cls)
        mono.__dict__.update(coeff=coeff, j_pairs=j_pairs, x_idx=x_idx)
        return mono

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial._trusted(self.coeff * other.coeff,
                                 tuple(sorted(self.j_pairs + other.j_pairs)),
                                 tuple(sorted(self.x_idx + other.x_idx)))

    def evaluate(self, j: np.ndarray, x: np.ndarray) -> float:
        """Numeric value given coupling entries and a state (1-based)."""
        val = self.coeff
        for a, b in self.j_pairs:
            val *= j[a - 1, b - 1]
        for i in self.x_idx:
            if i != 0:
                val *= x[i - 1]
        return val

    def max_index(self) -> int:
        return max([0, *self.x_idx, *(i for pair in self.j_pairs for i in pair)])


def _collected(sums: dict) -> tuple:
    """The monomials of a key -> coefficient map, sorted by key, zeros dropped."""
    return tuple(Monomial._trusted(coeff, *key) for key, coeff in sorted(sums.items())
                 if coeff != 0.0)


class Polynomial:
    """Immutable sum of monomials with like terms collected.

    Terms with exactly zero coefficient are dropped; no epsilon
    thresholding happens anywhere, so cancellation is only ever exact.
    """

    __slots__ = ("_terms",)

    def __init__(self, monomials: Iterable[Monomial] = ()):
        acc: dict = {}
        for m in monomials:
            if not isinstance(m, Monomial):
                raise AlgebraError(f"not a monomial: {m!r}")
            key = m.key
            acc[key] = acc.get(key, 0.0) + m.coeff
        self._terms = _collected(acc)

    @classmethod
    def _from_sums(cls, sums: dict) -> "Polynomial":
        """The polynomial of per-key coefficient sums; every key canonical."""
        poly = object.__new__(cls)
        poly._terms = _collected(sums)
        return poly

    @classmethod
    def from_x(cls, *indices: int, coeff: float = 1.0) -> "Polynomial":
        return cls([Monomial.from_x(*indices, coeff=coeff)])

    @classmethod
    def one(cls) -> "Polynomial":
        return cls([Monomial(coeff=1.0)])

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(self._terms + other._terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(a * b for a in self._terms for b in other._terms)

    def evaluate(self, j: np.ndarray, x: np.ndarray) -> float:
        return sum(m.evaluate(j, x) for m in self._terms)

    def __repr__(self) -> str:
        return f"Polynomial({len(self._terms)} terms)"


@dataclass(frozen=True)
class MomentOracle:
    """Exact moment tables for the coupling entries and the initial law.

    ``entry_moment(pair, ell)`` must return the raw ``ell``-th moment of
    the (variance-scaled) entry at a canonical pair; ``init_moment(i,
    ell)`` the ``ell``-th moment of coordinate ``i`` at time zero.
    """

    n: int
    entry_moment: Callable
    init_moment: Callable
    symmetric: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise AlgebraError("oracle dimension must be positive")

    @classmethod
    def from_ensemble(cls, dist: EntryDistribution, profile: VarianceProfile,
                      init: InitialLaw, symmetric: bool = False) -> "MomentOracle":
        if profile.n != init.n:
            raise AlgebraError("profile and initial law dimensions differ")
        if symmetric and not profile.is_symmetric:
            raise AlgebraError("symmetric mode needs a symmetric variance profile")

        def em(pair, ell):
            m = profile.m[pair[0] - 1, pair[1] - 1]
            if m == 0.0 and ell > 0:
                return 0.0
            return m ** (ell / 2.0) * entry_moment(dist, ell)

        return cls(n=profile.n, entry_moment=em, init_moment=init.moment,
                   symmetric=symmetric)


def _canonical_counts(pairs, symmetric: bool) -> Counter:
    return Counter(canonical_pair(p, symmetric) for p in pairs)


def difference_vanishes(mono: Monomial, symmetric: bool = False) -> bool:
    """Whether the expectation is oracle-independent given matched variances.

    True when the full coupling multiset has a singleton pair (both
    expectations are zero) or consists entirely of doubled pairs (only
    the matched variances enter); equivalently, false exactly when
    every pair appears at least twice and some pair at least three
    times, in which case higher moments of the entry law can show up.
    """
    mults = list(_canonical_counts(mono.j_pairs, symmetric).values())
    return not (all(m >= 2 for m in mults) and any(m >= 3 for m in mults))


def _expectation_factors(key: tuple, oracle: MomentOracle):
    """What :func:`expected_value` multiplies onto a coefficient, in order.

    One factor per distinct canonical pair, then one per genuine state
    coordinate; ``None`` when some moment is zero.
    """
    j_pairs, x_idx = key
    factors = []
    for pair, mult in _canonical_counts(j_pairs, oracle.symmetric).items():
        moment = oracle.entry_moment(pair, mult)
        if moment == 0.0:
            return None
        factors.append(moment * oracle.n ** (-mult / 2.0))
    for i, mult in state_counts(x_idx):
        moment = oracle.init_moment(i, mult)
        if moment == 0.0:
            return None
        factors.append(moment)
    return factors


def expected_value(mono: Monomial, oracle: MomentOracle, memo: dict | None = None) -> float:
    """Exact expectation over independent entries and the initial law.

    ``memo``, a dict shared by the calls of one expansion with this
    oracle, keeps each key's factors, so a key seen before costs only
    the multiplications.
    """
    val = mono.coeff
    if val == 0.0:
        return 0.0
    key = mono.key
    if memo is None:
        factors = _expectation_factors(key, oracle)
    elif key in memo:
        factors = memo[key]
    else:
        factors = memo[key] = _expectation_factors(key, oracle)
    if factors is None:
        return 0.0
    for factor in factors:
        val *= factor
    return val
