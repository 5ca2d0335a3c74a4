#!/usr/bin/env python3
"""Two-time memory of the noise-free gradient flow.

The normalized autocorrelation ratio C(s, t) / sqrt(C(s,s) C(t,t))
of the flow depends on how old the system is when you first look,
not just on the gap t - s.  The ratio is computed from a Lanczos-Gauss
rule of the sampled coupling, exact to rounding, and the confinement
cancels from it, so the
numbers are free of both time discretization and stabilization
choices.  Both entry laws give the same picture.
"""

import math

from rmsde.experiments import ExperimentConfig, SystemTemplate, run_aging


def main() -> None:
    cfg = ExperimentConfig(template=SystemTemplate(langevin=True,
                                                   beta=math.inf),
                           sizes=(128,), replicas=60,
                           s_values=(1.0, 2.0, 4.0, 8.0), lambdas=(1.0, 2.0),
                           seed=5)
    rep = run_aging(cfg)
    print("ratio at (s, lam*s), 60 replicas per arm, n=128\n")
    print(f"{'s':>4} {'lam':>4} {'gaussian':>10} {'rademacher':>11} {'gap':>9}")
    for r in rep.rows:
        print(f"{r.s:>4g} {r.lam:>4g} {r.mean_a:>10.6f} {r.mean_b:>11.6f} "
              f"{r.gap:>9.1e}")
    print("\nlam = 1 compares a time with itself, so those rows are")
    print("exactly 1; at lam = 2 the ratio keeps rising with the age s.")


if __name__ == "__main__":
    main()
