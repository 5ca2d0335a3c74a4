"""Benchmark runner for the ``rmsde`` command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload paired-n256 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload taylor-n3k5 --trace 1

Each workload is one pinned ``rmsde`` experiment (workloads.py).  The
runner runs it as a fresh child process, one at a time (a closed loop
with a single client), until ``--seconds`` have passed, and reports
medians and quartiles over the child runs.  Children use the sources
under ``src/`` of the current directory, with BLAS and OpenMP pinned to
one thread so that ``--threads`` is the only parallelism.

Every child's CSV is checked: finite values, byte-identical to the
first run of this invocation, and, at the reference seed, equal to the
committed reference (byte for byte, or within a relative tolerance for
the workloads that allow last-bit changes).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced children and prints the per-layer metrics of the
traced ones (spans.py) plus the tracing overhead.  The last line of
standard output is always one JSON object; a full record, with the
environment, goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spans
from workloads import REFERENCE_SEED, WORKLOADS, euler_counts

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
OUT_DIR = ".perfbench_out"
MIN_CHILDREN = 3       # per mode, so that quartiles exist
CHILD_LIMIT_S = 60.0   # a child still running after this is killed

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER_UNITS = {
    "config.resolve_s": "s",
    "rng.streams": "count",
    "ensembles.sample_matrix.calls": "count",
    "ensembles.sample_matrix_s": "s",
    "ensembles.sample_initial_s": "s",
    "ensembles.sample_entries.calls": "count",
    "ensembles.sample_entries_s": "s",
    "dynamics.system_params.calls": "count",
    "dynamics.system_params_s": "s",
    "dynamics.trajectory.calls": "count",
    "observables.suite.calls": "count",
    "observables.suite_s": "s",
    "experiments.self_s": "s",
    "experiments.euler_flops": "flop-computed",
    "experiments.euler_bytes": "B-computed",
    "experiments.euler_gflop_per_s": "GFLOP/s",
    "experiments.chunks": "count",
    "experiments.busy_share": "ratio",
    "experiments.eigh.calls": "count",
    "experiments.eigh_s": "s",
    "generator.apply_generator.calls": "count",
    "generator.apply_generator_s": "s",
    "generator.terms_out": "count",
    "generator.taylor_terms_s": "s",
    "generator.taylor_mean_s": "s",
    "generator.taylor_multitime_s": "s",
    "generator.self_s": "s",
    "algebra.expected_value.calls": "count",
    "algebra.expected_value_s": "s",
    "output.bytes": "B",
    "output.write_s": "s",
    "output.identical_runs": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

_PROBE = """
import json, platform, numpy, scipy
blas = "unknown"
try:
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{info['name']} {info['version']}"
except Exception:
    pass
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(root: str, env: dict) -> dict:
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"cannot import numpy/scipy: {done.stderr.strip()[-500:]}")
    info = json.loads(done.stdout)
    info.update({"pin": dict(PIN), "nproc": os.cpu_count(),
                 "cpu_model": _cpu_model(), "commit": _git_commit(root)})
    return info


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PIN)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# one child run


def run_child(workload, cfg_path: str, seed: int, threads: int, work: str,
              env: dict, traced: bool) -> dict:
    """Run one CLI child in a fresh ``work`` directory and measure it."""
    shutil.rmtree(work, ignore_errors=True)
    artifacts = os.path.join(work, "artifacts")
    os.makedirs(artifacts)
    record_path = os.path.join(work, "record.json")
    cmd = [sys.executable, CHILD, workload.experiment, "--config", cfg_path,
           "--seed", str(seed), "--threads", str(threads), "--out", artifacts]
    cenv = dict(env, PERFBENCH_RECORD=record_path, PERFBENCH_TRACE="1" if traced else "0")
    with open(os.path.join(work, "stdout.txt"), "w") as out, \
            open(os.path.join(work, "stderr.txt"), "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=cenv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"traced": traced, "exit": proc.returncode, "elapsed_s": t1 - t0}
    if proc.returncode != 0:
        with open(os.path.join(work, "stderr.txt")) as handle:
            result["reason"] = f"exit {proc.returncode}: {handle.read().strip()[-300:]}"
        return result
    with open(record_path) as handle:
        record = json.load(handle)
    result.update({
        "setup_s": record["run_start"] - t0,
        "wall_s": record["run_end"] - record["run_start"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "output_bytes": sum(os.path.getsize(os.path.join(artifacts, f))
                            for f in os.listdir(artifacts)),
    })
    with open(os.path.join(artifacts, workload.csv), newline="") as handle:
        result["csv"] = handle.read()
    if traced:
        result["record_path"] = record_path
        result["record"] = record
    return result


# ---------------------------------------------------------------------------
# output checks


def _rows(text: str) -> list:
    return list(csv.reader(text.splitlines()[1:]))


def _as_float(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def nonfinite(text: str):
    for row in _rows(text):
        for field in row:
            v = _as_float(field)
            if v is not None and not math.isfinite(v):
                return field
    return None


def within_tolerance(text: str, ref: str, rtol: float):
    """None when ``text`` matches ``ref`` within ``rtol``, else a reason."""
    if text.splitlines()[0] != ref.splitlines()[0]:
        return "config-hash line differs from the reference"
    got, want = _rows(text), _rows(ref)
    if len(got) != len(want) or got[0] != want[0]:
        return "header or row count differs from the reference"
    scale = [max((abs(v) for v in (_as_float(r[j]) for r in want[1:]) if v is not None),
                 default=0.0) for j in range(len(want[0]))]
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), 2):
        if len(g_row) != len(w_row):
            return f"row {i}: field count differs from the reference"
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            gv, wv = _as_float(g), _as_float(w)
            if gv is None or wv is None:
                if g != w:
                    return f"row {i} column {want[0][j]}: {g!r} != {w!r}"
            elif abs(gv - wv) > rtol * max(abs(gv), abs(wv), scale[j]):
                return f"row {i} column {want[0][j]}: {g} vs reference {w}"
    return None


def check_output(text: str, first, reference, rtol):
    """(reason or None, identical) for one child's CSV.

    ``first`` is this invocation's first CSV (None for the first run),
    ``reference`` the pinned CSV when running at the reference seed.
    """
    bad = nonfinite(text)
    if bad is not None:
        return f"non-finite value {bad!r}", False
    if first is not None and text != first:
        return "CSV differs from this invocation's first run", False
    if reference is None:
        return None, True
    if text == reference:
        return None, True
    if rtol is None:
        return "CSV differs from the reference", False
    return within_tolerance(text, reference, rtol), False


def load_reference(ref_dir: str, workload) -> str:
    """The pinned CSV of ``workload``, checked against its pinned sha256."""
    try:
        with open(os.path.join(ref_dir, "reference.json")) as handle:
            entry = json.load(handle)["workloads"][workload.name]
        with open(os.path.join(ref_dir, entry["csv"]), newline="") as handle:
            text = handle.read()
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no usable reference for {workload.name} in {ref_dir}: {exc}")
    if hashlib.sha256(text.encode()).hexdigest() != entry["sha256"]:
        raise BenchError(f"reference {entry['csv']} does not match its pinned sha256")
    return text


# ---------------------------------------------------------------------------
# reporting


def summarize(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    # a count stays a count: never the mean of the two middle values
    counts = all(isinstance(v, int) for v in values)
    median = statistics.median_low(values) if counts else statistics.median(values)
    return {"median": median, "q1": q[0], "q3": q[2], "n": len(values)}


def exact(value, n: int) -> dict:
    """A table entry for a value derived from all ``n`` runs at once."""
    return {"median": value, "q1": value, "q3": value, "n": n}


def print_table(rows: list) -> None:
    print(f"{'metric':34} {'unit':14} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}")
    for name, unit, s in rows:
        print(f"{name:34} {unit:14} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {s['n']:4d}")


def layer_shares(record: dict) -> dict:
    selfs = spans.layer_self(spans.span_totals(record["spans"]))
    total = sum(selfs.values()) or 1.0
    return {layer: {"self_s": s, "share": s / total}
            for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1])}


# ---------------------------------------------------------------------------
# modes


def write_reference(args, workload, root: str, env: dict) -> int:
    work = os.path.join(root, OUT_DIR, workload.name, "reference")
    cfg_path = write_config(root, workload, args.smoke)
    res = run_child(workload, cfg_path, args.seed, 1, work, env, traced=False)
    if res["exit"] != 0:
        raise BenchError(res["reason"])
    bad = nonfinite(res["csv"])
    if bad is not None:
        raise BenchError(f"reference run produced non-finite value {bad!r}")
    os.makedirs(args.reference_dir, exist_ok=True)
    index_path = os.path.join(args.reference_dir, "reference.json")
    try:
        with open(index_path) as handle:
            index = json.load(handle)
    except OSError:
        index = {"workloads": {}}
    csv_name = f"{workload.name}.csv"
    with open(os.path.join(args.reference_dir, csv_name), "w", newline="") as handle:
        handle.write(res["csv"])
    index["workloads"][workload.name] = {
        "csv": csv_name, "seed": args.seed, "threads": 1,
        "sha256": hashlib.sha256(res["csv"].encode()).hexdigest(),
        "generated_with": environment(root, env)}
    with open(index_path, "w") as handle:
        json.dump(index, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote reference {csv_name} ({len(res['csv'])} bytes) to {args.reference_dir}")
    return 0


def write_config(root: str, workload, smoke: bool) -> str:
    path = os.path.join(root, OUT_DIR, workload.name, "config.txt")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write((workload.smoke if smoke else workload.full).config)
    return path


def measure(args, workload, root: str, env: dict) -> int:
    threads = args.threads or workload.threads
    reference = load_reference(args.reference_dir, workload) if args.seed == REFERENCE_SEED else None
    cfg_path = write_config(root, workload, args.smoke)
    info = environment(root, env)
    modes = (False, True) if args.trace else (False,)
    results = []
    first = None
    identical = 0
    start = time.monotonic()
    for i in itertools.count():
        traced = modes[i % len(modes)]
        done = [r["elapsed_s"] for r in results if r["traced"] == traced]
        enough = all(sum(r["traced"] == m for r in results) >= MIN_CHILDREN for m in modes)
        elapsed = time.monotonic() - start
        # start no run that would end past the deadline, once every
        # mode has its minimum
        if enough and elapsed + (statistics.median(done) if done else 0.0) > args.seconds:
            break
        if elapsed > args.seconds + 30:
            break
        work = os.path.join(root, OUT_DIR, workload.name, f"child-{i % 2}")
        res = run_child(workload, cfg_path, args.seed, threads, work, env, traced)
        if res["exit"] == 0:
            reason, same = check_output(res["csv"], first, reference, workload.rtol)
            if first is None and reason is None:
                first = res["csv"]
            identical += same
            if reason is not None:
                res["reason"] = reason
        results.append(res)

    ran = [r for r in results if r["exit"] == 0]
    untraced = [r for r in ran if not r["traced"]]
    traced = [r for r in ran if r["traced"]]
    if not untraced or (args.trace and not traced):
        raise BenchError(f"every run of a mode failed; first error: {results[0]['reason']}")
    failed = sum("reason" in r for r in results)
    err = failed / len(results)
    table = {name: (unit, summarize([r[name] for r in untraced])) for name, unit in END_TO_END}
    table["error_rate"] = ("ratio", exact(err, len(results)))
    table["output.bytes"] = ("B", summarize([r["output_bytes"] for r in ran]))
    table["output.identical_runs"] = ("count", exact(identical, len(results)))
    shares = {}
    if args.trace:
        flops, nbytes = euler_counts(workload.smoke if args.smoke else workload.full)
        per_child = [spans.child_metrics(r["record"], threads, flops, nbytes) for r in traced]
        for name in per_child[0]:
            table[name] = (PER_LAYER_UNITS[name], summarize([m[name] for m in per_child]))
        overhead = statistics.median(r["wall_s"] for r in traced) - table["wall_s"][1]["median"]
        table["trace.overhead_s"] = ("s", exact(overhead, len(traced)))
        shares = layer_shares(traced[-1]["record"])
        shutil.copyfile(traced[-1]["record_path"], result_path(root, args, "spans"))
    reported = list(PER_LAYER_UNITS) if args.trace else [name for name, _ in END_TO_END]
    metrics = {name: {"value": table[name][1]["median"], "unit": table[name][0]}
               for name in reported}

    print(f"# perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"threads={threads} seconds={args.seconds:g} children={len(results)}"
          f"{' smoke' if args.smoke else ''}")
    print(f"# env: {json.dumps(info, sort_keys=True)}")
    for r in results:
        if "reason" in r:
            print(f"# failed run: {r['reason']}")
    print_table([(name, unit, s) for name, (unit, s) in table.items()])
    if shares:
        print("# layer self time of the last traced run (share of traced thread-seconds):")
        for name, v in shares.items():
            print(f"#   {name:12} {v['self_s']:10.4f} s  {100 * v['share']:5.1f} %")

    summary = {"correct": failed == 0, "attempted": len(results), "failed": failed,
               "metrics": metrics}
    with open(result_path(root, args, "result"), "w") as handle:
        json.dump(dict(summary, workload=workload.name, seed=args.seed, trace=args.trace,
                       seconds=args.seconds, threads=threads, smoke=args.smoke, env=info,
                       table={name: dict(s, unit=unit) for name, (unit, s) in table.items()},
                       layer_shares=shares,
                       runs=[{k: v for k, v in r.items()
                              if k not in ("csv", "record", "record_path")} for r in results]),
                  handle, indent=2)
    print(json.dumps(summary))
    return 0


def result_path(root: str, args, kind: str) -> str:
    path = os.path.join(root, OUT_DIR, "results")
    os.makedirs(path, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    return os.path.join(path, f"{tag}-{kind}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help=f"workload seed passed to the CLI (reference: {REFERENCE_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for this long (at least 3 runs per mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="override the workload's thread count")
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down configurations, for the smoke test")
    parser.add_argument("--reference-dir",
                        help="reference CSVs (default: perfbench/reference[/smoke])")
    parser.add_argument("--write-reference", action="store_true",
                        help="run once at 1 thread and store the CSV as the reference")
    args = parser.parse_args(argv)
    if args.reference_dir is None:
        args.reference_dir = os.path.join(HERE, "reference", *(("smoke",) if args.smoke else ()))
    root = os.getcwd()
    workload = WORKLOADS[args.workload]
    try:
        if not os.path.isfile(os.path.join(root, "src", "rmsde", "cli.py")):
            raise BenchError("run from the root of an rmsde checkout (no src/rmsde/cli.py)")
        env = child_env(root)
        if args.write_reference:
            return write_reference(args, workload, root, env)
        return measure(args, workload, root, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
