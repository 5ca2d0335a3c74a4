#!/usr/bin/env python3
"""Common random numbers across two coupling ensembles.

Replica r of arm A and replica r of arm B draw their coupling from
the same stream, so the two matrices differ only through the entry
law.  With the same law on both sides the paired difference is zero
bit for bit; with different laws the pairing strips away most of the
replica-to-replica variance and leaves the law dependence.
"""

import math

from rmsde.ensembles import EntryDistribution, VarianceProfile, sample_coupling
from rmsde.experiments import ExperimentConfig, run_universality
from rmsde.rng import PURPOSE_COUPLING, RngStream


def main() -> None:
    profile = VarianceProfile.offdiagonal(6)
    print("one replica, same stream, two entry laws")
    for dist in (EntryDistribution.GAUSSIAN, EntryDistribution.RADEMACHER):
        a = sample_coupling(dist, profile, True,
                            RngStream(7, 0, PURPOSE_COUPLING).generator())
        print(f"  {dist.value:<12} first row of J: "
              + " ".join(f"{v: .3f}" for v in a[0] / math.sqrt(profile.n)))

    cfg = ExperimentConfig(sizes=(16, 32), replicas=300, dt=0.05,
                           horizon=0.5, seed=7)
    print("\ngaussian arm vs rademacher arm (paired):")
    for r in run_universality(cfg).rows:
        print(f"  n={r.n:3d}  {r.observable:<22} delta={r.delta: .5f}"
              f"  se={r.se:.5f}")

    same = ExperimentConfig(dist_b=EntryDistribution.GAUSSIAN,
                            sizes=(16,), replicas=50, dt=0.05,
                            horizon=0.5, seed=7)
    rows = run_universality(same).rows
    print("\nsame law on both arms: every paired difference vanishes exactly")
    for r in rows:
        print(f"  n={r.n:3d}  {r.observable:<22} delta={r.delta}  se={r.se}")


if __name__ == "__main__":
    main()
