#!/usr/bin/env python3
"""How fast the entry law stops mattering.

Paired runs across sizes: the mean difference between the gaussian
arm and the rademacher arm shrinks as the system grows, and a log-log
fit of |delta| against n estimates the decay rate.
"""

import time

from rmsde.experiments import (ExperimentConfig, SystemTemplate,
                               run_universality)


def main() -> None:
    cfg = ExperimentConfig(template=SystemTemplate(langevin=True,
                                                   confinement=4.5),
                           sizes=(16, 32, 64, 128), replicas=600,
                           dt=0.05, horizon=1.0, seed=11, threads=4)
    t0 = time.perf_counter()
    rep = run_universality(cfg)
    print(f"{cfg.replicas} paired replicas per size, "
          f"{time.perf_counter() - t0:.1f}s\n")
    print(f"{'n':>4} {'observable':<18} {'|delta|':>10} {'se':>10}")
    for r in rep.rows:
        print(f"{r.n:>4} {r.observable:<18} {abs(r.delta):>10.5f} "
              f"{r.se:>10.5f}")
    print()
    summary = dict(rep.summary)
    for name in sorted({r.observable for r in rep.rows}):
        slope = summary[f"slope[{name}]"]
        if slope == "n/a":
            print(f"{name}: too few points above the noise floor for a fit")
        else:
            print(f"{name}: |delta| ~ n^{slope:.2f} "
                  f"(95% band {summary[f'slope_lo[{name}]']:.2f} .. "
                  f"{summary[f'slope_hi[{name}]']:.2f})")


if __name__ == "__main__":
    main()
