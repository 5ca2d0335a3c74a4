"""Command-line entry point.

One subcommand per experiment kind.  Every run reads an optional
configuration file, applies the command-line overrides, and writes its
artifacts (a CSV results table, a key-value summary, and the resolved
configuration) atomically into the output directory.  Outputs are a
pure function of the resolved configuration: reruns, at any worker
count, produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import (EXPERIMENT_KINDS, ConfigError, RunConfig, config_hash,
                     experiment_config, integrator_config, max_threads,
                     parse_config, serialize)
from .dynamics import ParameterError, SimulationBlowupError, simulate
from .ensembles import (EnsembleError, EntryDistribution, InitialLaw,
                        entry_moment, sample_couplings, sample_entries,
                        sample_initial)
from .experiments import (ExperimentError, Report, run_aging, run_concentration,
                          run_hopfield, run_rayleigh, run_taylor_vs_mc,
                          run_universality)
from .observables import ObservableError
from .output import atomic_write_text, render_csv, write_summary
from .rng import PURPOSE_COUPLING, PURPOSE_INITIAL, PURPOSE_NOISE, RngStream

__all__ = ["main", "run"]

_MOMENT_MAX_ORDER = 8


def _error_record(message: str, status: int, out: str = "") -> None:
    record = f"status = {status}\nerror = {message}\n"
    sys.stderr.write(record)
    if out:
        try:
            atomic_write_text(f"{out.rstrip('/')}/error.txt", record)
        except OSError:
            pass


def _run_moments_check(rc: RunConfig):
    """Exact entry moments against a sampling estimate, all entry laws."""
    cfg = experiment_config(rc)
    header = ("dist", "ell", "exact", "estimate", "se", "z")
    rows = []
    worst = 0.0
    for di, dist in enumerate(EntryDistribution):
        gen = RngStream(cfg.jseed, di, PURPOSE_COUPLING).generator()
        draws = sample_entries(dist, cfg.mc_paths, gen)
        for ell in range(1, _MOMENT_MAX_ORDER + 1):
            powers = draws ** ell
            exact = entry_moment(dist, ell)
            est = float(powers.mean())
            se = float(powers.std(ddof=1)) / math.sqrt(len(powers))
            z = (est - exact) / se if se else 0.0
            worst = max(worst, abs(z))
            rows.append((dist.value, ell, exact, est, se, z))
    return Report("moments.csv", header, rows, [("max_abs_z", worst)])


def _run_simulate(rc: RunConfig):
    cfg = experiment_config(rc)
    n = cfg.sizes[0]
    snapshots = rc.get("integrator", "snapshots")
    if not snapshots:
        snapshots = tuple(np.linspace(0.0, cfg.horizon, 11))
    icfg = integrator_config(rc, snapshots)
    j = sample_couplings(cfg.dist_a, cfg.make_profile(n), cfg.symmetric,
                         [RngStream(cfg.jseed, 0, PURPOSE_COUPLING).generator()])[0]
    params = cfg.template.build(j)
    x0 = sample_initial(InitialLaw(cfg.init_dist, n), RngStream(cfg.seed, 0, PURPOSE_INITIAL))
    traj = simulate(params, x0, icfg, RngStream(cfg.seed, 0, PURPOSE_NOISE))
    header = ("time", "coordinate", "x", "m")
    rows = []
    for row, t in enumerate(traj.times):
        for j in range(n):
            rows.append((float(t), j + 1, float(traj.x[row, j]), float(traj.m[row, j])))
    with np.errstate(over="ignore", invalid="ignore"):  # a finite state can still overflow these
        residual = traj.decomposition_residual(params)
        norm_sq = float(traj.x[-1] @ traj.x[-1]) / n
    if not (math.isfinite(residual) and math.isfinite(norm_sq)):
        raise ExperimentError("non-finite trajectory statistic: "
                              "the integration is numerically unstable")
    summary = [("n", n), ("steps", icfg.n_steps), ("dt", icfg.dt),
               ("snapshot_rounding", icfg.rounding),
               ("decomposition_residual", residual),
               ("final_norm_sq_density", norm_sq)]
    return Report("trajectory.csv", header, rows, summary)


# kind -> its Report from a RunConfig.  Each lambda names its experiment, so
# the name is looked up when the run starts and a wrapper set on this
# module's attribute after import (perfbench/spans.py) sees the call.
_RUNNERS = {
    "simulate": _run_simulate,
    "universality": lambda rc: run_universality(experiment_config(rc)),
    "concentration": lambda rc: run_concentration(experiment_config(rc)),
    "aging": lambda rc: run_aging(experiment_config(rc)),
    "taylor-check": lambda rc: run_taylor_vs_mc(experiment_config(rc)),
    "moments-check": _run_moments_check,
    "hopfield": lambda rc: run_hopfield(experiment_config(rc)),
    "rayleigh": lambda rc: run_rayleigh(experiment_config(rc)),
}


def run(rc: RunConfig) -> int:
    """Dispatch a resolved configuration and write its artifacts.

    Returns the process exit status: 0 on success, 2 for an unknown
    experiment kind or configuration problem, 1 for runtime failures.
    Every failure path emits a machine-readable ``key = value`` error
    record on stderr (and best-effort as ``error.txt``); a success
    removes the ``error.txt`` an earlier failed run left in ``out``.
    """
    out = rc.get("run", "out")
    kind = rc.get("run", "experiment")
    runner = _RUNNERS.get(kind)
    if runner is None:
        _error_record(f"unknown experiment kind {kind!r}", 2, out)
        return 2
    digest = config_hash(rc)
    try:
        report = runner(rc)
    except (ConfigError, EnsembleError, ParameterError, ObservableError) as exc:
        _error_record(str(exc), 2, out)
        return 2
    except (ExperimentError, SimulationBlowupError) as exc:
        _error_record(str(exc), 1, out)
        return 1
    base = out.rstrip("/")
    atomic_write_text(f"{base}/{report.csv}", render_csv(digest, report.header, report.rows))
    write_summary(f"{base}/summary.txt",
                  [("experiment", kind), ("config-hash", digest)] + list(report.summary))
    atomic_write_text(f"{base}/config.txt", serialize(rc))
    Path(f"{base}/error.txt").unlink(missing_ok=True)  # an earlier failed run's record
    return 0


def _load(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
    else:
        text = ""
    rc = parse_config(text)
    configured = rc.get("run", "experiment")
    if configured and configured != args.experiment:
        raise ConfigError(f"config requests experiment {configured!r} "
                          f"but the command line says {args.experiment!r}")
    rc = rc.replaced("run", "experiment", args.experiment)
    if args.seed is not None:
        if not 0 <= args.seed < 1 << 64:
            raise ConfigError("--seed must be an unsigned 64-bit integer")
        rc = rc.replaced("run", "seed", args.seed)
    if args.threads is not None:
        if not 1 <= args.threads <= max_threads():
            raise ConfigError(f"--threads must be >= 1 and <= {max_threads()}")
        rc = rc.replaced("run", "threads", args.threads)
    if args.out is not None:
        rc = rc.replaced("run", "out", args.out)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rmsde",
        description="Random-matrix SDE experiments: simulation, universality, "
                    "concentration, aging, and series-vs-sampling checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run configuration file")
    common.add_argument("--seed", metavar="U64", type=int, help="master seed override")
    common.add_argument("--threads", metavar="K", type=int, help="worker process count")
    common.add_argument("--out", metavar="DIR", help="output directory")
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="EXPERIMENT")
    for kind in EXPERIMENT_KINDS:
        sub.add_parser(kind, parents=[common],
                       help=f"run the {kind} experiment")
    args = parser.parse_args(argv)
    try:
        rc = _load(args)
    except ConfigError as exc:
        _error_record(str(exc), 2, args.out or "")
        return 2
    return run(rc)


if __name__ == "__main__":
    sys.exit(main())
