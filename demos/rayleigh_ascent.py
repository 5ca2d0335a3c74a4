#!/usr/bin/env python3
"""Gradient ascent of the quotient x'Mx / x'x under the linear flow.

Running x' = Mx from a generic start turns the normalized quotient
into a weighted average of eigenvalues whose weights tilt toward the
top exponentially fast.  The curve below is computed in the eigenbasis
of a sampled symmetric coupling; the experiment wrapper repeats this
over replicas and both entry laws and reports how close every curve
gets to the top eigenvalue.
"""

import math

import numpy as np

from rmsde.ensembles import EntryDistribution, VarianceProfile, sample_couplings
from rmsde.experiments import (ExperimentConfig, SystemTemplate,
                               rayleigh_quotient_curve, run_rayleigh)
from rmsde.rng import PURPOSE_COUPLING, RngStream


def main() -> None:
    n = 64
    j = sample_couplings(EntryDistribution.GAUSSIAN,
                         VarianceProfile.offdiagonal(n), True,
                         [RngStream(2, 0, PURPOSE_COUPLING).generator()])[0]
    w, v = np.linalg.eigh(2.0 * j)
    x0 = np.random.default_rng(2).standard_normal(n)
    c2 = (v.T @ x0) ** 2

    times = np.linspace(0.0, 8.0, 9)
    curve = rayleigh_quotient_curve(w, c2, times)
    print(f"top three eigenvalues: {w[-1]:.4f} {w[-2]:.4f} {w[-3]:.4f}\n")
    print(f"{'t':>4} {'quotient':>10} {'top - q':>10}")
    for t, q in zip(times, curve):
        print(f"{t:>4g} {q:>10.4f} {w[-1] - q:>10.2e}")

    cfg = ExperimentConfig(template=SystemTemplate(langevin=True,
                                                   beta=math.inf),
                           sizes=(64,), seed=2, rayleigh_horizon=12.0,
                           rayleigh_points=25, rayleigh_replicas=4)
    rep = run_rayleigh(cfg)
    summary = dict(rep.summary)
    print(f"\n{len(rep.rows)} replica curves across both laws: "
          f"mean final deficit {summary['mean_gap']:.4f}, "
          f"all monotone: {summary['all_monotone']}")


if __name__ == "__main__":
    main()
