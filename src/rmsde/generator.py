"""Generator letters, their polynomial action, and truncated series.

The generator of the diffusion splits into four letters: the symbolic
coupling part, the deterministic drift part, the constant drift part,
and the second-order diffusion part.  Each letter maps a monomial to a
controlled number of monomials (the product rule, grouped by distinct
coordinate), which gives exact polynomial expressions for ``L^k f`` and
hence truncated expansions of ``E[f(X_t)]``.

Deterministic parameter values (drift matrix, constant drift,
diffusion) fold into coefficients at application time; only coupling
entries stay symbolic so that expectations reduce to moment products.
At a fixed numeric coupling the same letters act with the coupling
folded into the drift, which is much faster; it is the right tool for
fixed-coupling conditional means.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple

import numpy as np

from .algebra import (AlgebraError, Monomial, MomentOracle, Polynomial, expected_value,
                      state_counts)
from .dynamics import SystemParams

__all__ = [
    "Letter",
    "TaylorResult",
    "apply_letter",
    "apply_generator",
    "taylor_mean",
    "taylor_mean_numericJ",
    "taylor_mean_multitime",
    "count_bound_check",
    "DEFAULT_TRUNCATION_CAP",
    "SYMBOLIC_DIMENSION_CAP",
    "TruncationError",
]

DEFAULT_TRUNCATION_CAP = 16
SYMBOLIC_DIMENSION_CAP = 8


class TruncationError(ValueError):
    """Requested order or dimension beyond the configured caps."""


class Letter(enum.Enum):
    """The four summands of the generator."""

    COUPLING = "J"
    DRIFT = "lam"
    CONSTANT = "h"
    DIFFUSION = "delta"


def _letter_actions(key: tuple, letter: Letter, params: SystemParams) -> list:
    """Raw product-rule terms of a letter on the monomial ``key``.

    One ``(multipliers, new_key)`` pair per (coordinate, target) choice:
    the term's coefficient is the monomial's times the multipliers, left
    to right, and ``new_key`` is canonical.  Zero-valued deterministic
    factors are skipped, so the term count is the nonzero count that
    the per-letter bounds refer to.
    """
    j_pairs, x_idx = key
    out = []
    for j, c in state_counts(x_idx):
        rest = list(x_idx)
        rest.remove(j)
        # multiplying by 1 is exact, so a multiplicity of 1 is left out
        lead = (c,) if c != 1 else ()
        if letter is Letter.CONSTANT:
            hj = float(params.h[j - 1])
            if hj != 0.0:
                out.append((lead + (hj,), (j_pairs, tuple(sorted(rest + [0])))))
        elif letter is Letter.COUPLING:
            for i in range(1, params.n + 1):
                out.append((lead, (tuple(sorted(j_pairs + ((i, j),))),
                                   tuple(sorted(rest + [i])))))
        elif letter is Letter.DRIFT:
            col = params.lam[:, j - 1].tolist()
            for i, lam in enumerate(col):
                if lam != 0.0:
                    out.append((lead + (lam,), (j_pairs, tuple(sorted(rest + [i + 1])))))
        elif letter is Letter.DIFFUSION:
            if c < 2:
                continue
            rest.remove(j)
            col = params.sigma[:, j - 1].tolist()
            nz = [(i, s) for i, s in enumerate(col) if s != 0.0]
            for i, s in nz:
                for i2, s2 in nz:
                    out.append(((c, c - 1, s, s2), (j_pairs, tuple(sorted(rest + [i, i2])))))
        else:
            raise AlgebraError(f"unhandled letter {letter}")
    return out


def _check_indices(monos: Iterable, params: SystemParams) -> None:
    for mono in monos:
        if mono.max_index() > params.n:
            raise AlgebraError(
                f"monomial touches coordinate {mono.max_index()} but the system has {params.n}")


def _apply(p: Polynomial, letters, params: SystemParams, memo: dict) -> Polynomial:
    """The letters applied to every monomial in turn, like terms collected.

    ``memo`` maps a key to the actions of all ``letters`` on it; terms
    are summed per key in the same order as the unmemoized product rule.
    """
    acc: dict = {}
    for mono in p:
        actions = memo.get(mono.key)
        if actions is None:
            _check_indices((mono,), params)
            actions = memo[mono.key] = [a for letter in letters
                                        for a in _letter_actions(mono.key, letter, params)]
        coeff = mono.coeff
        for multipliers, key in actions:
            val = coeff
            for factor in multipliers:
                val *= factor
            acc[key] = acc.get(key, 0.0) + val
    return Polynomial._from_sums(acc)


def apply_letter(p: Polynomial, letter: Letter, params: SystemParams) -> Polynomial:
    """One letter applied to every monomial, like terms collected."""
    return _apply(p, (letter,), params, {})


def apply_generator(p: Polynomial, params: SystemParams) -> Polynomial:
    """Full generator: sum of the four letter applications."""
    return _apply(p, Letter, params, {})


class TaylorResult(NamedTuple):
    """Truncated series value with a heuristic tail estimate.

    ``terms[k]`` sums the contributions of total order ``k`` and
    ``value`` sums the terms.  ``diverging`` is set when the terms were
    still growing at the truncation order, in which case ``tail_bound``
    is infinite and the value should not be trusted.  The geometric
    tail estimate is a heuristic, not a proven bound.
    """

    value: float
    tail_bound: float
    diverging: bool
    terms: tuple


def _tail_estimate(terms: tuple) -> tuple:
    if len(terms) < 2:
        return math.inf, False
    last, prev = abs(terms[-1]), abs(terms[-2])
    if last == 0.0:
        return 0.0, False
    if prev == 0.0 or last >= prev:
        return math.inf, True
    ratio = last / prev
    return last * ratio / (1.0 - ratio), False


def _validate_caps(k: int, cap: int, params: SystemParams, symbolic: bool) -> None:
    if k < 0:
        raise TruncationError("truncation order must be non-negative")
    if k > cap:
        raise TruncationError(f"truncation order {k} exceeds the cap {cap}")
    if symbolic and params.n > SYMBOLIC_DIMENSION_CAP:
        raise TruncationError(
            f"symbolic expansion supports dimension <= {SYMBOLIC_DIMENSION_CAP}, got {params.n}")


def taylor_mean(f: Polynomial, params: SystemParams, oracle: MomentOracle,
                t: float, k: int, cap: int = DEFAULT_TRUNCATION_CAP,
                memos: tuple | None = None) -> TaylorResult:
    """Truncated expansion of ``E[f(X_t)]`` over coupling and initial law.

    Computes ``sum_{k'=0..k} t^k'/k'! * E[L^k' f(X_0)]`` with the
    expectation taken through the moment oracle: the one-time case of
    :func:`taylor_mean_multitime`, which documents ``memos``.  Intended
    for small dimension; the coupling stays symbolic.
    """
    return taylor_mean_multitime([f], [t], params, oracle, k, cap, memos)


def taylor_mean_numericJ(f: Polynomial, params: SystemParams, x, t: float,
                         k: int, cap: int = DEFAULT_TRUNCATION_CAP) -> float:
    """Truncated conditional mean ``E[f(X_t) | X_0 = x]`` at fixed coupling.

    The numeric coupling folds into the drift letter, which then reads
    ``J + Lam``, and into the coefficients of ``f``.  Only state
    monomials remain, so this scales to higher truncation orders than
    the symbolic path.
    """
    _validate_caps(k, cap, params, symbolic=False)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.n,):
        raise AlgebraError(f"state must have shape ({params.n},), got {x.shape}")
    _check_indices(f, params)
    j = params.coupling
    folded = SystemParams(np.zeros_like(j), j + params.lam, params.h, params.sigma)
    poly = Polynomial(Monomial(math.prod([m.coeff] + [j[a - 1, b - 1] for a, b in m.j_pairs]),
                               (), m.x_idx) for m in f)
    total = 0.0
    memo: dict = {}
    for order in range(k + 1):
        if order > 0:
            poly = _apply(poly, (Letter.DRIFT, Letter.CONSTANT, Letter.DIFFUSION), folded, memo)
            if not len(poly):
                break
        total += t ** order / math.factorial(order) * poly.evaluate(None, x)
    return total


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to <= total."""
    if parts == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def taylor_mean_multitime(fs: Iterable, ts, params: SystemParams,
                          oracle: MomentOracle, k: int,
                          cap: int = DEFAULT_TRUNCATION_CAP,
                          memos: tuple | None = None) -> TaylorResult:
    """Truncated multi-time moment ``E[f1(X_{t1}) f2(X_{t2}) ...]``.

    Expands each semigroup gap to a truncated series with total order at
    most ``k``: the inner-most factor sits at the largest time, and each
    gap ``t_i - t_{i-1}`` contributes its own truncation index.  Term
    ``k'`` of the result sums the splits of total order ``k'``; a split
    with a zero weight is not expanded, so when every time is 0 the
    series is exact at order 0 and its tail is 0.

    Each key's letter actions and expectation factors are memoized for
    the call.  ``memos``, a pair of dicts ``(actions, factors)``, makes
    the calls that pass it share those memos; they must all pass the
    same ``params`` and ``oracle``.  The terms are the same bits either
    way.
    """
    fs = list(fs)
    times = [float(t) for t in np.atleast_1d(np.asarray(ts, dtype=np.float64))]
    if len(fs) != len(times) or not fs:
        raise AlgebraError("need one polynomial per time")
    if any(b < a for a, b in zip(times, times[1:])):
        raise AlgebraError("times must be non-decreasing")
    if any(t < 0 for t in times):
        raise AlgebraError("times must be non-negative")
    _validate_caps(k, cap, params, symbolic=True)
    if oracle.n != params.n:
        raise AlgebraError("oracle and system dimensions differ")
    levels = len(fs)
    gaps = [times[0]] + [b - a for a, b in zip(times, times[1:])]

    # memoized suffix expansions: poly(level, ks) = L^{ks[0]} (f_level * poly(level+1, ks[1:]))
    memo: dict = {(levels, ()): Polynomial.one()}
    actions, factors = ({}, {}) if memos is None else memos

    def suffix(level: int, ks: tuple) -> Polynomial:
        key = (level, ks)
        got = memo.get(key)
        if got is not None:
            return got
        if ks[0] == 0:
            poly = fs[level] * suffix(level + 1, ks[1:])
        else:
            poly = _apply(suffix(level, (ks[0] - 1,) + ks[1:]), Letter, params, actions)
        memo[key] = poly
        return poly

    by_order: dict = {}
    for ks in _compositions(k, levels):
        weight = 1.0
        for gap, order in zip(gaps, ks):
            weight *= gap ** order / math.factorial(order)
        if weight == 0.0:
            continue
        term = weight * sum(expected_value(m, oracle, factors) for m in suffix(0, ks))
        total = sum(ks)
        # a lone split is kept as computed, so one time gives t^k/k! * s exactly
        by_order[total] = by_order[total] + term if total in by_order else term
    terms = tuple(by_order.get(total, 0.0) for total in range(k + 1))
    tail, diverging = (0.0, False) if times[-1] == 0.0 else _tail_estimate(terms)
    return TaylorResult(sum(terms), tail, diverging, terms)


def count_bound_check(word: Iterable, f0: Monomial, params: SystemParams,
                      cap: int = DEFAULT_TRUNCATION_CAP) -> tuple:
    """Raw term count of a letter word against the a-priori product bound.

    Expands ``word`` applied to ``f0`` without collecting like terms and
    returns ``(actual, bound)`` where the bound multiplies the
    per-letter factors r, rN, r*n_lam, r*n_sigma**2 (r is the state
    degree, invariant along the word).  The grouped product rule never
    generates more terms than the ungrouped sums the bound counts, and
    a violation raises.
    """
    word = list(word)
    if len(word) > cap:
        raise TruncationError(f"word length {len(word)} exceeds the cap {cap}")
    _check_indices(Polynomial([f0]), params)
    r = f0.degree
    factors = {Letter.CONSTANT: r, Letter.COUPLING: r * params.n,
               Letter.DRIFT: r * params.n_lam,
               Letter.DIFFUSION: r * params.n_sigma ** 2}
    bound = 1
    leaves = [f0.key] if f0.coeff != 0.0 else []
    for letter in word:
        if not isinstance(letter, Letter):
            raise AlgebraError(f"not a generator letter: {letter!r}")
        bound *= factors[letter]
        leaves = [new for key in leaves for _, new in _letter_actions(key, letter, params)]
    actual = len(leaves)
    if actual > bound:
        raise AssertionError(
            f"term count {actual} exceeded the proven bound {bound}; this is a bug")
    return actual, bound
