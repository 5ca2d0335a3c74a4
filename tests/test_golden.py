"""Golden outputs: sha256 of the CSV each experiment writes at tiny configs.

The hashes pin every byte of the results tables of the experiments that
run the Euler-Maruyama loop (universality, hopfield, concentration,
simulate, taylor-check) and of the spectral ones (aging, rayleigh), so
refactors of the integrator, the coupling sampler, the template builder
or the per-replica eigendecomposition cannot silently change the
numbers.  The cases cover both symmetric and non-symmetric ensembles,
the gradient-flow template, thresholds, two threads, a simulate run
long enough to span two noise blocks, a banded profile file with zero
variances off the diagonal, and aging with a fixed confinement that
drops replicas in both arms.  Two universality cases run the weighted
observables of the ``[observable]`` block: a quadratic read from a weight
file and an arity-2 tensor over two times.  Runs start in this directory, so a
profile file is named relative to it and the pinned config hash does
not depend on where the checkout lives.  Float formatting and BLAS
rounding are part of what is pinned, so the hashes are specific to the
numpy/BLAS build they were recorded with (numpy 2.4, OpenBLAS, x86-64).
"""

import hashlib
from pathlib import Path

import pytest

from rmsde.cli import main

# fixed confinement below some sampled spectral radii: replicas drop in both arms
FIXED_AGING = """
[system]
beta = inf
confinement = 3.6
[ensemble]
profile = full
[experiment]
sizes = 6, 10
replicas = 8
s_values = 1, 3
lambdas = 1, 2.5
confinement_mode = fixed
"""

CASES = {
    "simulate": ("simulate", "trajectory.csv", """
[system]
template = langevin
beta = 2.0
confinement = 1.5
thresholds = 0.1
[experiment]
sizes = 5
[integrator]
dt = 0.0001
horizon = 0.45
""",
        "08a80e4ecaa040570b62db258d1bec4daa1a7cb4a2029e3f06a3149b25d1323f"),
    "universality": ("universality", "universality.csv", """
[ensemble]
dist = uniform
[experiment]
sizes = 4, 8
replicas = 6
[integrator]
dt = 0.02
horizon = 0.1
""",
        "126269e822e0124689a3cd1c30688cb2cc6130a0d7ab1c990a1974883cde3a6b"),
    "universality-asymmetric": ("universality", "universality.csv", """
[run]
threads = 2
[ensemble]
symmetric = false
profile = full
[experiment]
sizes = 3, 6, 9
replicas = 5
[integrator]
dt = 0.05
horizon = 0.2
""",
        "f5e88bf0d536b117d0e25f6492ef36c2c17e3bda5ab21523eb47bf11f8a29ad1"),
    # symmetric tridiagonal variances: the sampler must give +0.0 off the band
    "universality-banded": ("universality", "universality.csv", """
[ensemble]
profile = profile_4x4_band.csv
dist = exponential
[ensemble_b]
dist = rademacher
[experiment]
sizes = 4
replicas = 6
[integrator]
dt = 0.02
horizon = 0.1
""",
        "b491403e763aa228d035d7a8cc013491844a683a3d49f3b47f9c07264cfb70e2"),
    # kind=quadratic with a weight file: an arity-1 observable over two times
    "universality-quadratic": ("universality", "universality.csv", """
[run]
threads = 2
[experiment]
sizes = 6
replicas = 6
[integrator]
dt = 0.02
horizon = 0.1
[observable]
kind = quadratic
times = 0.04, 0.1
blocks = g, m
a = weights_6.csv
""",
        "905591486e164bf8262cce637c3fda18a03cefc2dd1086418aa3ff9f5e282f91"),
    # kind=tensor of arity 2 over two times, on an asymmetric ensemble
    "universality-tensor": ("universality", "universality.csv", """
[ensemble]
symmetric = false
profile = full
[experiment]
sizes = 3, 5
replicas = 5
[integrator]
dt = 0.05
horizon = 0.2
[observable]
kind = tensor
times = 0.1, 0.2
blocks = x, g, m, one
a = 0.7
""",
        "f7f6affdf30c3d3a73f3fa3f8ea7dddf7e8fed6e537dcda5245c97e7ee23c043"),
    "hopfield": ("hopfield", "hopfield.csv", """
[system]
beta = 4.0
thresholds = 0.2
[experiment]
sizes = 4, 8
replicas = 5
[integrator]
dt = 0.02
horizon = 0.1
""",
        "20d283a9ff9000bc8b8313b62f13e1ace76842e6203feb69ae750e696b1131fd"),
    "concentration": ("concentration", "concentration.csv", """
[experiment]
sizes = 4, 8
replicas = 8
grid_points = 4
[integrator]
dt = 0.02
horizon = 0.1
""",
        "850847266891b537fe4d82c36f0a908ab5dc6604f94e622ec782554d14fc3c19"),
    "taylor-check": ("taylor-check", "taylor.csv", """
[system]
template = langevin
thresholds = 0.3
[experiment]
sizes = 3
time = 0.2
truncation = 4
mc_paths = 3000
[integrator]
dt = 0.01
horizon = 0.2
""",
        "04d1074c683ebe0e56a70525d5a7ed821de9cc6d867363f5ddd6c391b83e3070"),
    "taylor-check-asymmetric": ("taylor-check", "taylor.csv", """
[ensemble]
dist = exponential
symmetric = false
profile = full
[experiment]
sizes = 2
time = 0.1
truncation = 3
mc_paths = 1500
[integrator]
dt = 0.01
horizon = 0.1
""",
        "360bcad58ee58c2d22bb7ed855941adbba6da5f97133e6941b259573d078105b"),
    "aging": ("aging", "aging.csv", """
[system]
beta = inf
[ensemble]
dist = uniform
[experiment]
sizes = 8, 16
replicas = 5
s_values = 1, 4
lambdas = 1, 3
""",
        "332f7f02ecca1471c79c8cbd38258ca0d1b8c03e914e34012b1a4cba6848cc3a"),
    "aging-fixed": ("aging", "aging.csv", FIXED_AGING,
        "361157bab82110ad3b5d45e7cfd410e5c691b83f6de80355e99aa9cbe6f3311b"),
    "rayleigh": ("rayleigh", "rayleigh.csv", """
[system]
beta = inf
[ensemble_b]
dist = exponential
[experiment]
sizes = 12
rayleigh_replicas = 3
rayleigh_points = 9
rayleigh_horizon = 5.0
""",
        "7e48506bedf7875f085a5785c666ed4fed1ea9b30d53694b165752fc8714d6a3"),
}


def csv_digest(tmp_path, kind: str, csv_name: str, text: str) -> str:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256((out / csv_name).read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_matches_golden_hash(tmp_path, monkeypatch, case):
    monkeypatch.chdir(Path(__file__).parent)
    kind, csv_name, text, expected = CASES[case]
    assert csv_digest(tmp_path, kind, csv_name, text) == expected


def test_fixed_aging_case_drops_in_both_arms(tmp_path):
    csv_digest(tmp_path, "aging", "aging.csv", FIXED_AGING)
    summary = dict(line.split(" = ") for line in
                   (tmp_path / "out" / "summary.txt").read_text().splitlines())
    assert int(summary["dropped_a"]) >= 1
    assert int(summary["dropped_b"]) >= 1
