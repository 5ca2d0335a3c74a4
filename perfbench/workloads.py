"""Benchmark workloads: one pinned CLI configuration each.

Every workload is one ``rmsde`` experiment whose cost is dominated by a
different package module, so a change to one module moves one workload
and should leave the others alone (see README.md for the map).  Sizes
are chosen so that one CLI run takes about a second on a 2-core
machine, so that a measured run of the benchmark holds a dozen or more
CLI runs and its medians ride out short slowdowns of a shared host.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed at which the committed reference CSVs were generated (1 thread).
REFERENCE_SEED = 1

# Relative tolerance for the reference comparison of workloads whose
# float columns may change in the last bits under planned rewrites
# (Lanczos quadrature for aging, term collection for the series).  A
# value is accepted when |got - ref| <= RTOL * max(|got|, |ref|, scale),
# where scale is the largest magnitude in that reference column.
RTOL = 1e-9


@dataclass(frozen=True)
class Setup:
    """CLI config text and the Euler work it implies.

    ``euler`` is (steps, systems, n) of the Euler-Maruyama integration,
    used only for computed flop and byte counts.
    """

    config: str
    euler: tuple


@dataclass(frozen=True)
class Workload:
    """One pinned experiment run, at full size and scaled down for smoke tests.

    ``rtol`` is None when the CSV must equal the reference byte for byte.
    """

    name: str
    experiment: str
    csv: str
    threads: int
    full: Setup
    smoke: Setup
    rtol: float | None


def _paired(n: int, dt: float, replicas: int) -> Setup:
    config = (f"[experiment]\nsizes = {n}\nreplicas = {replicas}\n"
              f"[integrator]\ndt = {dt!r}\nhorizon = 1.0\n")
    return Setup(config, (round(1.0 / dt), 2 * replicas, n))


def _aging(n: int, replicas: int) -> Setup:
    config = f"[system]\nbeta = inf\n[experiment]\nsizes = {n}\nreplicas = {replicas}\n"
    return Setup(config, (0, 0, n))


def _taylor(n: int, k: int, paths: int) -> Setup:
    config = f"[experiment]\nsizes = {n}\ntruncation = {k}\nmc_paths = {paths}\n"
    # the default time 0.2 at the default dt 1e-3 is 200 Euler steps
    return Setup(config, (200, paths, n))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paired-n256", experiment="universality", csv="universality.csv",
        threads=2, full=_paired(256, 0.02, 128), smoke=_paired(64, 0.02, 40), rtol=None),
    Workload(
        name="paired-n128-fine", experiment="universality", csv="universality.csv",
        threads=1, full=_paired(128, 0.001, 48), smoke=_paired(32, 0.001, 8), rtol=None),
    Workload(
        name="aging-n512", experiment="aging", csv="aging.csv",
        threads=1, full=_aging(512, 10), smoke=_aging(64, 8), rtol=RTOL),
    Workload(
        name="taylor-n3k5", experiment="taylor-check", csv="taylor.csv",
        threads=1, full=_taylor(3, 5, 4096), smoke=_taylor(2, 3, 2000), rtol=RTOL),
)}


def euler_counts(setup: Setup) -> tuple:
    """Computed (flops, bytes) of the Euler drift products of one run.

    Each step of each system is one dense N x N matrix-vector product:
    2 N^2 flops, and 8 N^2 bytes to read the float64 drift matrix.
    """
    steps, systems, n = setup.euler
    products = steps * systems
    return 2 * products * n * n, 8 * products * n * n
