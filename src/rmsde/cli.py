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

import numpy as np

from .config import (EXPERIMENT_KINDS, ConfigError, RunConfig, config_hash,
                     experiment_config, integrator_config, parse_config,
                     serialize)
from .dynamics import ParameterError, SimulationBlowupError, simulate
from .ensembles import (EnsembleError, EntryDistribution, InitialLaw,
                        entry_moment, sample_couplings, sample_entries,
                        sample_initial)
from .experiments import (ExperimentError, run_aging, run_concentration,
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


def _slope_pairs(report) -> list:
    pairs = []
    for name, fit in sorted(report.slopes.items()):
        if fit is None:
            pairs.append((f"slope[{name}]", "n/a"))
        else:
            pairs.append((f"slope[{name}]", fit.slope))
            pairs.append((f"slope_lo[{name}]", fit.lo))
            pairs.append((f"slope_hi[{name}]", fit.hi))
    return pairs


def _universality_artifacts(rep) -> tuple:
    header = ("n", "observable", "delta", "se", "mean_a", "mean_b", "replicas")
    rows = [(r.n, r.observable, r.delta, r.se, r.mean_a, r.mean_b, r.replicas)
            for r in rep.rows]
    return header, rows, _slope_pairs(rep)


def _run_universality(rc: RunConfig):
    rep = run_universality(experiment_config(rc))
    header, rows, summary = _universality_artifacts(rep)
    return "universality.csv", header, rows, summary


def _run_hopfield(rc: RunConfig):
    rep = run_hopfield(experiment_config(rc))
    header, rows, summary = _universality_artifacts(rep)
    return "hopfield.csv", header, rows, summary


def _run_concentration(rc: RunConfig):
    cfg = experiment_config(rc)
    rep = run_concentration(cfg)
    header = ["n", "observable", "sup_std", "dev_std", "dev_mean", "replicas"]
    header += [f"tail[{lam:g}]" for lam in cfg.tail_thresholds]
    rows = []
    for r in rep.rows:
        rows.append((r.n, r.observable, r.sup_std, r.dev_std, r.dev_mean, r.replicas)
                    + tuple(count for _, count in r.tails))
    ratio = rep.rows[-1].sup_std / rep.rows[0].sup_std if rep.rows[0].sup_std else math.inf
    summary = [("sup_std_ratio_last_over_first", ratio)]
    return "concentration.csv", header, rows, summary


def _run_aging(rc: RunConfig):
    rep = run_aging(experiment_config(rc))
    header = ("n", "s", "lambda", "mean_a", "se_a", "mean_b", "se_b", "gap")
    rows = [(r.n, r.s, r.lam, r.mean_a, r.se_a, r.mean_b, r.se_b, r.gap)
            for r in rep.rows]
    summary = [("dropped_a", rep.dropped_a), ("dropped_b", rep.dropped_b),
               ("max_gap", max((r.gap for r in rep.rows), default=0.0))]
    return "aging.csv", header, rows, summary


def _run_rayleigh(rc: RunConfig):
    rep = run_rayleigh(experiment_config(rc))
    header = ("arm", "replica", "top_eigenvalue", "final_quotient", "deficit", "monotone")
    rows = [(r.arm, r.replica, r.top_eigenvalue, r.final_quotient, r.deficit, r.monotone)
            for r in rep.rows]
    summary = [("mean_gap", rep.mean_gap),
               ("all_monotone", all(r.monotone for r in rep.rows))]
    return "rayleigh.csv", header, rows, summary


def _run_taylor_check(rc: RunConfig):
    rep = run_taylor_vs_mc(experiment_config(rc))
    by_name = {r.observable: r for r in rep.rows}
    header = ("observable", "k", "term", "partial_sum", "mc_reference", "mc_se")
    rows = []
    for o in rep.orders:
        ref = by_name[o.observable]
        rows.append((o.observable, o.order, o.term, o.partial_sum, ref.mc_mean, ref.mc_se))
    summary = [("any_diverging", rep.any_diverging)]
    for r in rep.rows:
        summary.append((f"value[{r.observable}]", r.value))
        summary.append((f"z[{r.observable}]", r.z))
    return "taylor.csv", header, rows, summary


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
    return "moments.csv", header, rows, [("max_abs_z", worst)]


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
    x0 = sample_initial(InitialLaw.uniform(cfg.init_dist, n),
                        RngStream(cfg.seed, 0, PURPOSE_INITIAL))
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
    return "trajectory.csv", header, rows, summary


_HANDLERS = {
    "simulate": _run_simulate,
    "universality": _run_universality,
    "concentration": _run_concentration,
    "aging": _run_aging,
    "taylor-check": _run_taylor_check,
    "moments-check": _run_moments_check,
    "hopfield": _run_hopfield,
    "rayleigh": _run_rayleigh,
}


def run(rc: RunConfig) -> int:
    """Dispatch a resolved configuration and write its artifacts.

    Returns the process exit status: 0 on success, 2 for an unknown
    experiment kind or configuration problem, 1 for runtime failures.
    Every failure path emits a machine-readable ``key = value`` error
    record on stderr (and best-effort as ``error.txt``).
    """
    out = rc.get("run", "out")
    kind = rc.get("run", "experiment")
    handler = _HANDLERS.get(kind)
    if handler is None:
        _error_record(f"unknown experiment kind {kind!r}", 2, out)
        return 2
    digest = config_hash(rc)
    try:
        csv_name, header, rows, summary = handler(rc)
    except (ConfigError, EnsembleError, ParameterError, ObservableError) as exc:
        _error_record(str(exc), 2, out)
        return 2
    except (ExperimentError, SimulationBlowupError) as exc:
        _error_record(str(exc), 1, out)
        return 1
    base = out.rstrip("/")
    atomic_write_text(f"{base}/{csv_name}", render_csv(digest, header, rows))
    write_summary(f"{base}/summary.txt",
                  [("experiment", kind), ("config-hash", digest)] + list(summary))
    atomic_write_text(f"{base}/config.txt", serialize(rc))
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
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
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
