#!/usr/bin/env python3
"""The generator as a sum of four letters, applied symbolically.

Applying the generator to a polynomial in the state produces another
polynomial whose coefficients carry symbolic coupling factors.  Taking
expectations term by term and stacking orders gives a truncated series
for E[f(X_t)]; for an Ornstein-Uhlenbeck coordinate the series lands on
the closed form.
"""

import math

import numpy as np

from rmsde.algebra import MomentOracle, Polynomial
from rmsde.dynamics import SystemParams
from rmsde.ensembles import EntryDistribution, InitialLaw, VarianceProfile
from rmsde.generator import Letter, apply_generator, apply_letter, taylor_mean


def describe(mono) -> str:
    bits = [f"{mono.coeff:+.3f}"]
    bits += [f"J[{a},{b}]" for a, b in mono.j_pairs]
    bits += [f"x{i}" if i else "1" for i in mono.x_idx]
    return " * ".join(bits)


def main() -> None:
    n = 2
    params = SystemParams(np.zeros((n, n)),        # coupling stays symbolic
                          np.array([[-1.0, 0.0], [0.3, -1.0]]),
                          np.array([0.5, 0.0]),
                          np.vstack([np.full(n, 0.4), np.zeros((n, n))]))
    f = Polynomial.from_x(1, 1)   # x1^2

    print("L applied to x1^2, one letter at a time:")
    for letter in Letter:
        terms = apply_letter(f, letter, params)
        print(f"  {letter.name:<9} -> " + ("0" if not len(terms) else
              "  +  ".join(describe(m) for m in terms)))
    print("full generator term count:", len(apply_generator(f, params)))

    # OU sanity check: E[x1(t)^2] = e^{-2t} + s^2 (1 - e^{-2t}) for
    # dx = -x dt + sqrt(2) s dB with x1(0)^2 = 1.  The off-diagonal
    # profile has no entries at n=1, which turns the coupling off.
    s, t = 0.4, 0.7
    ou = SystemParams(np.zeros((1, 1)), np.array([[-1.0]]), np.zeros(1),
                      np.array([[s], [0.0]]))
    oracle = MomentOracle.from_ensemble(
        EntryDistribution.GAUSSIAN, VarianceProfile.offdiagonal(1),
        InitialLaw(EntryDistribution.RADEMACHER, 1))
    res = taylor_mean(Polynomial.from_x(1, 1), ou, oracle, t, k=14)
    want = math.exp(-2 * t) + s * s * (1 - math.exp(-2 * t))
    print(f"\nOU second moment at t={t}: series {res.value:.10f}  "
          f"closed form {want:.10f}  tail bound {res.tail_bound:.1e}")


if __name__ == "__main__":
    main()
