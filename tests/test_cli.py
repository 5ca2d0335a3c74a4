"""End-to-end command line runs: artifacts, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rmsde import dynamics, experiments
from rmsde.cli import main, run
from rmsde.dynamics import ParameterError, euler_maruyama
from rmsde.config import _SCHEMA, EXPERIMENT_KINDS, config_hash, parse_config

FAST = {
    "simulate": """
[run]
experiment = simulate
[experiment]
sizes = 4
[integrator]
dt = 0.01
horizon = 0.05
""",
    "universality": """
[experiment]
sizes = 4, 8
replicas = 6
[integrator]
dt = 0.02
horizon = 0.04
""",
    "concentration": """
[experiment]
sizes = 4, 8
replicas = 6
grid_points = 3
[integrator]
dt = 0.02
horizon = 0.04
""",
    "aging": """
[system]
template = langevin
beta = inf
[experiment]
sizes = 8
replicas = 4
s_values = 1, 2
lambdas = 1, 2
""",
    "taylor-check": """
[experiment]
sizes = 3
time = 0.2
truncation = 6
mc_paths = 2000
[integrator]
dt = 0.01
horizon = 0.2
""",
    "moments-check": """
[experiment]
mc_paths = 20000
""",
    "hopfield": """
[experiment]
sizes = 4, 8
replicas = 4
[integrator]
dt = 0.02
horizon = 0.04
""",
    "rayleigh": """
[system]
template = langevin
beta = inf
[experiment]
sizes = 8
rayleigh_points = 5
rayleigh_replicas = 2
rayleigh_horizon = 2.0
""",
}

CSV_NAMES = {
    "simulate": "trajectory.csv",
    "universality": "universality.csv",
    "concentration": "concentration.csv",
    "aging": "aging.csv",
    "taylor-check": "taylor.csv",
    "moments-check": "moments.csv",
    "hopfield": "hopfield.csv",
    "rayleigh": "rayleigh.csv",
}


def invoke(tmp_path, kind, text, extra=()):
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    status = main([kind, "--config", str(cfg), "--out", str(out)] + list(extra))
    return status, out


@pytest.mark.parametrize("kind", sorted(FAST))
def test_subcommand_writes_artifacts(tmp_path, kind):
    status, out = invoke(tmp_path, kind, FAST[kind])
    assert status == 0
    digest = config_hash(
        parse_config(FAST[kind]).replaced("run", "experiment", kind))

    csv_text = (out / CSV_NAMES[kind]).read_text()
    assert csv_text.startswith(f"# config-hash: {digest}\n")
    assert len(csv_text.split("\n")) > 2  # header plus at least one row

    summary = (out / "summary.txt").read_text().split("\n")
    assert summary[0] == f"experiment = {kind}"
    assert summary[1] == f"config-hash = {digest}"

    resolved = parse_config((out / "config.txt").read_text())
    assert resolved.get("run", "experiment") == kind
    assert resolved.get("run", "out") == str(out)


def test_rerun_is_byte_identical(tmp_path):
    _, first = invoke(tmp_path / "a", "simulate", FAST["simulate"])
    _, second = invoke(tmp_path / "b", "simulate", FAST["simulate"])
    assert (first / "trajectory.csv").read_bytes() == \
        (second / "trajectory.csv").read_bytes()


def test_thread_count_does_not_change_rows(tmp_path):
    _, one = invoke(tmp_path / "a", "universality", FAST["universality"],
                    ["--threads", "1"])
    _, four = invoke(tmp_path / "b", "universality", FAST["universality"],
                     ["--threads", "4"])
    assert (one / "universality.csv").read_bytes() == \
        (four / "universality.csv").read_bytes()


def test_thread_count_does_not_change_rows_under_small_drift_blocks(tmp_path, monkeypatch):
    # 150 replicas at N = 8 are one block; 2-replica drift blocks make them
    # 150 blocks of one replica per arm, each one drift block
    text = "[experiment]\nsizes = 8\nreplicas = 150\n[integrator]\ndt = 0.05\nhorizon = 0.2\n"
    _, whole = invoke(tmp_path / "a", "universality", text, ["--threads", "1"])
    monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_BYTES", 2 * 8 * 8 * 8)
    _, one = invoke(tmp_path / "b", "universality", text, ["--threads", "1"])
    _, two = invoke(tmp_path / "c", "universality", text, ["--threads", "2"])
    want = (whole / "universality.csv").read_bytes()
    assert (one / "universality.csv").read_bytes() == want
    assert (two / "universality.csv").read_bytes() == want


@pytest.mark.parametrize("kind", ["universality", "hopfield", "concentration"])
def test_thread_count_does_not_change_streamed_blocks(tmp_path, kind):
    # with two arms, N = 128 runs blocks of 4 (11 replicas leave a partial
    # block of 3) and N = 300 blocks of 1; concentration's one arm runs
    # blocks of 8 and 3 at N = 128
    assert [experiments._block_width(n, 2) for n in (128, 300)] == [4, 1]
    assert [experiments._block_width(n, 1) for n in (128, 300)] == [8, 1]
    text = ("[experiment]\nsizes = 128, 300\nreplicas = 11\ngrid_points = 3\n"
            "[integrator]\ndt = 0.05\nhorizon = 0.1\n")
    runs = [invoke(tmp_path / str(threads), kind, text, ["--threads", str(threads)])
            for threads in (1, 2, 4)]
    assert [status for status, _ in runs] == [0, 0, 0]
    want = (runs[0][1] / CSV_NAMES[kind]).read_bytes()
    for _, out in runs[1:]:
        assert (out / CSV_NAMES[kind]).read_bytes() == want


@pytest.mark.parametrize("kind", ["aging", "rayleigh"])
def test_worker_count_does_not_change_spectral_rows(tmp_path, kind):
    # 3 workers split 8 aging and 4 rayleigh replica-arms unevenly
    runs = [invoke(tmp_path / str(threads), kind, FAST[kind], ["--threads", str(threads)])
            for threads in (1, 3)]
    assert [status for status, _ in runs] == [0, 0]
    assert (runs[0][1] / CSV_NAMES[kind]).read_bytes() == \
        (runs[1][1] / CSV_NAMES[kind]).read_bytes()


@pytest.mark.parametrize("error,status", [(ParameterError, 2), (experiments.ExperimentError, 1)])
def test_failure_in_the_second_worker_exits_as_at_one_worker(tmp_path, monkeypatch, capsys,
                                                             error, status):
    # blocks of one replica per arm deal replicas 1, 3 and 5 to the second
    # of 2 workers, and only replica 3 fails
    monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_BYTES", 2 * 8 * 8 * 8)
    real = experiments.sample_initial

    def failing(law, stream):
        if stream.stream == 3:
            raise error("replica 3 cannot start")
        return real(law, stream)

    monkeypatch.setattr(experiments, "sample_initial", failing)
    text = "[experiment]\nsizes = 8\nreplicas = 6\n[integrator]\ndt = 0.02\nhorizon = 0.04\n"
    records = []
    for threads in (1, 2):
        got, _ = invoke(tmp_path / str(threads), "universality", text, ["--threads", str(threads)])
        records.append((got, capsys.readouterr().err))
    assert records[0] == records[1] == (status, f"status = {status}\nerror = replica 3 cannot start\n")


def test_aging_runs_the_gradient_flow_under_either_template(tmp_path):
    # aging is the spectral flow of 2J - K I and never reads system.template
    assert "template = langevin" in FAST["aging"]
    plain = FAST["aging"].replace("template = langevin\n", "")
    status_l, langevin = invoke(tmp_path / "a", "aging", FAST["aging"])
    status_p, default = invoke(tmp_path / "b", "aging", plain)
    assert status_l == status_p == 0
    rows_l = (langevin / "aging.csv").read_text().split("\n", 1)
    rows_p = (default / "aging.csv").read_text().split("\n", 1)
    assert rows_l[0] != rows_p[0]  # the config hashes differ
    assert rows_l[1] == rows_p[1]


def test_seed_override_changes_output(tmp_path):
    _, a = invoke(tmp_path / "a", "simulate", FAST["simulate"], ["--seed", "1"])
    _, b = invoke(tmp_path / "b", "simulate", FAST["simulate"], ["--seed", "2"])
    ta = (a / "trajectory.csv").read_text()
    tb = (b / "trajectory.csv").read_text()
    assert ta != tb
    assert ta.split("\n")[0] != tb.split("\n")[0]  # hash sees the seed


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nexperiment = aging\n")
    status = main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert "status = 2" in err
    assert "config requests experiment 'aging'" in err
    assert "the command line says 'simulate'" in err
    record = (tmp_path / "out" / "error.txt").read_text()
    assert record.startswith("status = 2\nerror = ")


def test_unreadable_config_file(tmp_path, capsys):
    status = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "out")])
    assert status == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_config_parse_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nsed = 1\n")
    status = main(["simulate", "--config", str(cfg)])
    assert status == 2
    assert "unknown key 'sed'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,fragment", [
    ("--seed", "-1", "--seed must be an unsigned 64-bit integer"),
    ("--seed", str(1 << 64), "--seed must be an unsigned 64-bit integer"),
    ("--threads", "0", "--threads must be >= 1"),
])
def test_override_validation(tmp_path, capsys, flag, value, fragment):
    status = main(["simulate", flag, value, "--out", str(tmp_path / "out")])
    assert status == 2
    assert fragment in capsys.readouterr().err


def test_run_rejects_unknown_kind(tmp_path, capsys):
    rc = parse_config("").replaced("run", "out", str(tmp_path / "out"))
    assert run(rc) == 2
    assert "unknown experiment kind ''" in capsys.readouterr().err
    assert (tmp_path / "out" / "error.txt").exists()


def test_handler_config_error_is_status_2(tmp_path, capsys):
    text = FAST["universality"] + \
        "[observable]\nkind = quadratic\ntimes = 0.0, 0.04\nblocks = x\n"
    status, out = invoke(tmp_path, "universality", text)
    assert status == 2
    assert "status = 2" in capsys.readouterr().err
    assert not (out / "universality.csv").exists()
    assert (out / "error.txt").exists()


def test_handler_experiment_error_is_status_1(tmp_path, capsys):
    # a fixed confinement below every sampled spectral radius drops all replicas
    text = FAST["aging"].replace("beta = inf", "beta = inf\nconfinement = 0.1") + \
        "confinement_mode = fixed\n"
    status, out = invoke(tmp_path, "aging", text)
    assert status == 1
    err = capsys.readouterr().err
    assert "status = 1" in err
    assert "dropped" in err
    assert (out / "error.txt").read_text().startswith("status = 1\n")


OFF_GRID = {
    # the default suite time 0.1 is not a multiple of dt = 0.03
    "universality": """
[experiment]
sizes = 4, 8
replicas = 4
[integrator]
dt = 0.03
horizon = 0.1
""",
    # the Monte Carlo times t/2 = 0.1 and t = 0.2 are not multiples of dt
    "taylor-check": """
[experiment]
sizes = 2
time = 0.2
truncation = 2
mc_paths = 10
[integrator]
dt = 0.03
horizon = 0.2
""",
}


@pytest.mark.parametrize("kind", sorted(OFF_GRID))
def test_off_grid_times_are_status_2(tmp_path, capsys, kind):
    status, out = invoke(tmp_path, kind, OFF_GRID[kind])
    assert status == 2
    err = capsys.readouterr().err
    assert "status = 2" in err
    assert "not on the step grid" in err
    assert (out / "error.txt").read_text().startswith("status = 2\n")
    assert not (out / CSV_NAMES[kind]).exists()


UNSTABLE = """
[system]
confinement = 0
[experiment]
sizes = 4, 8, 16
replicas = 20
[integrator]
dt = 5
horizon = 500
"""


@pytest.mark.parametrize("kind", ["universality", "hopfield", "concentration"])
def test_non_finite_statistics_are_status_1(tmp_path, capsys, kind):
    # dt = 5 without confinement overflows the squared deviations but not the state
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, out = invoke(tmp_path, kind, UNSTABLE)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert status == 1
    err = capsys.readouterr().err
    assert "status = 1" in err
    assert "non-finite" in err
    assert (out / "error.txt").read_text().startswith("status = 1\n")
    assert not (out / CSV_NAMES[kind]).exists()


PRECONDITIONS = {
    "universality-replicas":
        ("universality", FAST["universality"].replace("replicas = 6", "replicas = 1"), "replicas"),
    "concentration-replicas":
        ("concentration", FAST["concentration"].replace("replicas = 6", "replicas = 1"),
         "replicas"),
    "aging-replicas": ("aging", FAST["aging"].replace("replicas = 4", "replicas = 1"), "replicas"),
    "aging-beta": ("aging", FAST["aging"].replace("beta = inf", "beta = 2.0"), "beta = inf"),
    "rayleigh-beta":
        ("rayleigh", FAST["rayleigh"].replace("beta = inf", "beta = 2.0"), "beta = inf"),
    # Lanczos needs J = J^T, and the spectral flow has no constant drift
    "aging-asymmetric":
        ("aging", FAST["aging"] + "[ensemble]\nsymmetric = false\n", "symmetric ensemble"),
    "rayleigh-asymmetric":
        ("rayleigh", FAST["rayleigh"] + "[ensemble]\nsymmetric = false\n",
         "symmetric ensemble"),
    # keys the chosen kind never reads are rejected, not ignored
    "hamiltonian-blocks":
        ("universality", FAST["universality"]
         + "[observable]\nkind = hamiltonian\ntimes = 0.04\nblocks = q\na = 5\n",
         "observable.blocks is read only by kind = quadratic or tensor, not by kind = 'hamiltonian'"),
    "hamiltonian-weight":
        ("universality", FAST["universality"]
         + "[observable]\nkind = hamiltonian\ntimes = 0.04\na = 5\n",
         "observable.a is read only by kind = quadratic or tensor"),
    "aging-thresholds":
        ("aging", FAST["aging"].replace("beta = inf", "beta = inf\nthresholds = 0.5"),
         "thresholds = 0"),
    "taylor-check-size":
        ("taylor-check", FAST["taylor-check"].replace("sizes = 3", "sizes = 8"), "dimension"),
    "taylor-check-time":
        ("taylor-check", FAST["taylor-check"].replace("time = 0.2", "time = 0.6"), "times"),
    "universality-profile-size":
        ("universality", FAST["universality"].replace("sizes = 4, 8", "sizes = 3, 4")
         + f"[ensemble]\nprofile = {Path(__file__).with_name('profile_3x3.csv')}\n",
         "cannot run at size 4"),
    "taylor-check-truncation":
        ("taylor-check", FAST["taylor-check"].replace("truncation = 6", "truncation = 20"),
         "exceeds the cap"),
    "taylor-check-asymmetric-profile":
        ("taylor-check", FAST["taylor-check"].replace("sizes = 3", "sizes = 2")
         + f"[ensemble]\nprofile = {Path(__file__).with_name('profile_2x2_asymmetric.csv')}\n",
         "symmetric variance profile"),
    # a wrong-size weight file fails before any chunk integrates, not mid-run
    "universality-quadratic-weights":
        ("universality", FAST["universality"].replace("sizes = 4, 8", "sizes = 4")
         + "[observable]\nkind = quadratic\ntimes = 0, 0.04\nblocks = x, x\n"
         + f"a = {Path(__file__).with_name('weights_3.csv')}\n",
         "has 3 weights but size 4 needs 4"),
    "universality-tensor-weights":
        ("universality", FAST["universality"].replace("sizes = 4, 8", "sizes = 4")
         + "[observable]\nkind = tensor\ntimes = 0.04\nblocks = x, x\n"
         + f"a = {Path(__file__).with_name('weights_3.csv')}\n",
         "has 3 weights but size 4 needs 16"),
    "universality-quadratic-weight-matrix":
        ("universality", FAST["universality"].replace("sizes = 4, 8", "sizes = 9")
         + "[observable]\nkind = quadratic\ntimes = 0, 0.04\nblocks = x, x\n"
         + f"a = {Path(__file__).with_name('profile_3x3.csv')}\n",
         "kind=quadratic needs one row or column of weights"),
    # a non-finite weight fails at resolution, not at the first suite evaluation
    "universality-quadratic-nan-weight":
        ("universality", FAST["universality"].replace("sizes = 4, 8", "sizes = 4")
         + "[observable]\nkind = quadratic\ntimes = 0, 0.04\nblocks = x, x\na = nan\n",
         "observable.a must be finite"),
    "universality-tensor-arity":
        ("universality", FAST["universality"].replace("sizes = 4, 8", "sizes = 4")
         + "[observable]\nkind = tensor\ntimes = 0.04\nblocks = x, x, x, x\n",
         "arity <= 3, got 4"),
    # more steps times N than one run may take
    "universality-step-count":
        ("universality", FAST["universality"].replace("sizes = 4, 8", "sizes = 1")
         .replace("dt = 0.02", "dt = 1e-300"), "4e+298 Euler steps at size 1"),
    # each count's whole float64 array would be allocated at once
    "moments-check-paths":
        ("moments-check", FAST["moments-check"].replace("mc_paths = 20000",
                                                        "mc_paths = 10000000000000"),
         "experiment.mc_paths = 10000000000000 needs more than 256 MB"),
    "rayleigh-points":
        ("rayleigh", FAST["rayleigh"].replace("rayleigh_points = 5",
                                              "rayleigh_points = 100000000000"),
         "experiment.rayleigh_points = 100000000000 needs more than 256 MB"),
    "concentration-grid-points":
        ("concentration", FAST["concentration"].replace("grid_points = 3",
                                                        "grid_points = 100000000000"),
         "experiment.grid_points = 100000000000 needs more than 256 MB"),
    "universality-tensor-inf-weight":
        ("universality", FAST["universality"].replace("sizes = 4, 8", "sizes = 4")
         + "[observable]\nkind = tensor\ntimes = 0.04\nblocks = x\na = -inf\n",
         "observable.a must be finite"),
    "universality-quadratic-nonfinite-weight-file":
        ("universality", FAST["universality"].replace("sizes = 4, 8", "sizes = 4")
         + "[observable]\nkind = quadratic\ntimes = 0, 0.04\nblocks = x, x\n"
         + f"a = {Path(__file__).with_name('weights_4_nonfinite.csv')}\n",
         "holds non-finite weights"),
    # each size is one replica block, so no count of workers is ever started
    "universality-threads":
        ("universality", FAST["universality"]
         + f"[run]\nthreads = {4 * (os.cpu_count() or 1) + 1}\n",
         "run.threads must be >= 1 and <= "),
}


@pytest.mark.parametrize("kind,text,message", PRECONDITIONS.values(), ids=PRECONDITIONS)
def test_config_preconditions_are_status_2(tmp_path, capsys, monkeypatch, kind, text, message):
    steps = []

    def counted(*args, **kwargs):
        steps.append(1)
        return euler_maruyama(*args, **kwargs)

    monkeypatch.setattr(experiments, "euler_maruyama", counted)
    monkeypatch.setattr(dynamics, "euler_maruyama", counted)
    status, out = invoke(tmp_path, kind, text)
    assert status == 2
    assert steps == []  # rejected before any integration
    err = capsys.readouterr().err
    assert "status = 2" in err
    assert message in err
    assert (out / "error.txt").read_text().startswith("status = 2\n")
    assert not (out / CSV_NAMES[kind]).exists()


EMPTY_CSV = str(Path(__file__).with_name("empty.csv"))

# Configs the fuzz test below turned up, directly or through its wild
# values: each escaped as a numpy RuntimeWarning or UserWarning (a
# traceback under this suite's warning filter) instead of a status record.
FUZZ_REGRESSIONS = {
    "confinement-inf":
        ("universality", FAST["universality"] + "[system]\nconfinement = inf\n", 2,
         "confinement must be finite"),
    "euler-overflow":
        ("universality", FAST["universality"] + "[system]\nconfinement = 1e300\n", 1,
         "non-finite state at step 2"),
    "observable-overflow":
        ("hopfield", FAST["hopfield"] + "[system]\nthresholds = 1e300\n", 1, "non-finite"),
    "simulate-statistic-overflow":
        ("simulate", FAST["simulate"] + "[system]\nthresholds = 1e300\n", 1,
         "non-finite trajectory statistic"),
    "taylor-check-moment-overflow":
        ("taylor-check", FAST["taylor-check"] + "[system]\nbeta = 1e-300\n", 1,
         "non-finite Monte Carlo moment"),
    "aging-negative-s":
        ("aging", FAST["aging"].replace("s_values = 1, 2", "s_values = -1e300"), 2,
         "s_values entries must be finite and >= 0"),
    "aging-infinite-time":
        ("aging", FAST["aging"].replace("s_values = 1, 2", "s_values = 1e300")
         .replace("lambdas = 1, 2", "lambdas = 1e300"), 2, "infinite time"),
    "rayleigh-negative-horizon":
        ("rayleigh", FAST["rayleigh"].replace("rayleigh_horizon = 2.0", "rayleigh_horizon = -1e300"),
         2, "rayleigh_horizon must be finite and >= 0"),
    # numpy's loadtxt warns on a file with no data
    "quadratic-empty-weight-file":
        ("universality", FAST["universality"]
         + "[observable]\nkind = quadratic\ntimes = 0, 0.04\nblocks = x, x\n"
         + f"a = {EMPTY_CSV}\n",
         2, f"observable.a: {EMPTY_CSV!r} holds no data"),
    "empty-profile-file":
        ("universality", FAST["universality"]
         + f"[ensemble]\nprofile = {EMPTY_CSV}\n",
         2, f"ensemble.profile: {EMPTY_CSV!r} holds no data"),
}


@pytest.mark.parametrize("kind,text,status,message", FUZZ_REGRESSIONS.values(),
                         ids=FUZZ_REGRESSIONS)
def test_fuzz_regressions_exit_with_a_record(tmp_path, capsys, kind, text, status, message):
    got, out = invoke(tmp_path, kind, text)
    assert got == status
    err = capsys.readouterr().err
    assert err.startswith(f"status = {status}\nerror = ")
    assert message in err
    assert (out / "error.txt").read_text() == err
    assert not (out / CSV_NAMES[kind]).exists()


def test_cli_import_does_not_load_scipy():
    # scipy serves only the exact_mean_linear oracle; a command-line run never needs it
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", "import sys, rmsde.cli; print('scipy' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_paired_runs_do_not_load_the_symbolic_engine(tmp_path):
    # generator and algebra serve the series of taylor-check; a universality
    # run, and the CLI import before it, leave both unloaded
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = []
    for kind in ("universality", "taylor-check"):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(FAST[kind])
        argv.append([kind, "--config", str(cfg), "--out", str(tmp_path / kind)])
    code = ("import sys\nfrom rmsde.cli import main\n"
            "loaded = lambda: [m in sys.modules for m in ('rmsde.generator', 'rmsde.algebra')]\n"
            f"print(main({argv[0]!r}), loaded(), main({argv[1]!r}), loaded())")
    done = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 [False, False] 0 [True, True]"


def traced_span_names(tmp_path, kind):
    """Names of the layer spans that perfbench/child.py records in a FAST run."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.update(PERFBENCH_RECORD=str(tmp_path / "record.json"), PERFBENCH_TRACE="1")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST[kind])
    done = subprocess.run([sys.executable, str(root / "perfbench" / "child.py"), kind,
                           "--config", str(cfg), "--out", str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {span["name"] for span in json.loads((tmp_path / "record.json").read_text())["spans"]}


def test_benchmark_spans_find_their_targets(tmp_path):
    # perfbench/spans.py wraps package names (experiments._paired_chunk,
    # experiments.Trajectory, SystemTemplate.build, the sampler the
    # experiments import, ...); a renamed target must fail here, not first
    # in the benchmark's traced run, where its layer would just read zero.
    # The paired runs build no Trajectory, so its wrapper records no span
    assert {"cli.run", "experiments.chunk", "ensembles.sample_couplings",
            "dynamics.system_params",
            "observables.evaluate"} <= traced_span_names(tmp_path, "universality")


def test_benchmark_spans_find_the_spectral_targets(tmp_path):
    # the samplers are the ensembles layer of aging-n512; its tridiagonal
    # solves go to LAPACK's tridiagonal drivers, not through numpy's eigh
    names = traced_span_names(tmp_path, "aging")
    assert {"cli.run", "ensembles.sample_couplings", "ensembles.sample_initial"} <= names
    assert "numpy.eigh" not in names


def test_spectral_runs_do_not_load_scipy(tmp_path):
    # aging and rayleigh run the Lanczos-Gauss rule; at size 40 it passes two
    # convergence checks before it reaches N, and none of it may pull in scipy
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = []
    for kind in ("aging", "rayleigh"):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(FAST[kind].replace("sizes = 8", "sizes = 40"))
        argv.append([kind, "--config", str(cfg), "--out", str(tmp_path / kind)])
    code = ("import sys\nfrom rmsde.cli import main\n"
            f"print([main(a) for a in {argv!r}], 'scipy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0] False"
    assert (tmp_path / "aging" / "aging.csv").exists()
    assert (tmp_path / "rayleigh" / "rayleigh.csv").exists()


# ---------------------------------------------------------------- config fuzzing
#
# Every key of the schema may appear.  Each value is drawn from the key's
# domain, except for at most two keys per config, which draw from a wild
# set of out-of-range or unparsable values.  Both sets keep every run
# small: sizes <= 6, replicas <= 4, at most 50 Euler steps,
# mc_paths <= 64, two threads.  Keys whose defaults would make a large
# run are always written.

_HERE = Path(__file__).resolve().parent
_FILES = [str(_HERE / name) for name in
          ("profile_3x3.csv", "profile_2x2_asymmetric.csv", "weights_3.csv")]
_DTS = (0.01, 0.02, 0.05, 0.1, 0.5, 1.0)
_ALWAYS = {("integrator", "dt"), ("integrator", "horizon"), ("experiment", "sizes"),
           ("experiment", "replicas"), ("experiment", "grid_points"),
           ("experiment", "truncation"), ("experiment", "mc_paths"),
           ("experiment", "rayleigh_points"), ("experiment", "rayleigh_replicas")}


def _text(strategy):
    return strategy.map(lambda v: v if isinstance(v, str) else repr(v))


def _listed(strategy, min_size=1, max_size=3):
    return st.lists(_text(strategy), min_size=min_size, max_size=max_size).map(", ".join)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


_WILD_NUMBERS = st.sampled_from(["-1", "0", "-0.0", "x", "", "nan", "inf", "-inf"])
_WILD_FLOATS = st.one_of(_WILD_NUMBERS, st.sampled_from(["1e-300", "1e300", "-1e300"]))
_WILD = {  # per codec
    "u64": st.sampled_from(["-1", str(2 ** 64), "x"]),
    "seed": st.sampled_from(["-2", "x"]),
    "int": _WILD_NUMBERS,
    "float": _WILD_FLOATS,
    "bool": st.sampled_from(["yes", ""]),
    "str": st.sampled_from(["bogus", ""]),
    "floats": st.one_of(_WILD_FLOATS, st.just("1,,2")),
    "ints": st.one_of(_WILD_NUMBERS, st.just("1,,2")),
    "strs": st.sampled_from(["bogus", "x,,g", ""]),
}


def _domains(kind, dt, steps):
    """Per key, values in its domain; times lie on the step grid of ``dt``."""
    on_grid = st.integers(0, steps).map(lambda k: k * dt)
    dists = st.sampled_from(["gaussian", "rademacher", "uniform", "exponential"])
    return {
        ("run", "experiment"): st.sampled_from([kind, ""]),
        ("run", "seed"): st.integers(0, 2 ** 64 - 1),
        ("run", "threads"): st.integers(1, 2),
        ("ensemble", "dist"): dists,
        ("ensemble", "symmetric"): st.sampled_from(["true", "false"]),
        ("ensemble", "profile"): st.sampled_from(["offdiagonal", "full"] + _FILES),
        ("ensemble", "seed"): st.integers(-1, 2 ** 20),
        ("ensemble", "init"): dists,
        ("ensemble_b", "dist"): dists,
        ("system", "template"): st.sampled_from(["plain", "langevin"]),
        ("system", "beta"): st.one_of(_floats(0.01, 100), st.just("inf")),
        ("system", "confinement"): _floats(0, 10),
        ("system", "thresholds"): _floats(-2, 2),
        ("integrator", "dt"): st.just(dt),
        ("integrator", "horizon"): st.just(steps * dt),
        ("integrator", "snapshots"): _listed(on_grid, min_size=0),
        ("experiment", "sizes"): _listed(st.integers(1, 6)),
        ("experiment", "replicas"): st.integers(1, 4),
        ("experiment", "s_values"): _listed(_floats(0.1, 10)),
        ("experiment", "lambdas"): _listed(_floats(0.1, 5)),
        ("experiment", "confinement_mode"): st.sampled_from(["auto", "fixed"]),
        ("experiment", "tail_thresholds"): _listed(_floats(0, 1)),
        ("experiment", "grid_points"): st.integers(2, 8),
        ("experiment", "truncation"): st.integers(0, 3),
        ("experiment", "time"): st.integers(0, 50).map(lambda k: k * dt),
        ("experiment", "mc_paths"): st.integers(2, 64),
        ("experiment", "rayleigh_horizon"): _floats(0, 30),
        ("experiment", "rayleigh_points"): st.integers(2, 8),
        ("experiment", "rayleigh_replicas"): st.integers(1, 4),
        ("observable", "kind"): st.sampled_from(
            ["", "quadratic", "tensor", "autocorr", "hamiltonian", "gradsq", "overlap"]),
        ("observable", "times"): _listed(on_grid),
        ("observable", "a"): st.sampled_from(["1.0", "-0.5"] + _FILES),
        ("observable", "blocks"): _listed(st.sampled_from(["one", "x", "g", "m"]), max_size=4),
    }


@st.composite
def config_texts(draw, kind):
    dt = draw(st.sampled_from(_DTS))
    domains = _domains(kind, dt, draw(st.integers(0, 50)))
    wild_keys = draw(st.sets(st.sampled_from(sorted(domains)), max_size=2))
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (codec, _) in keys.items():
            if key == "out" or not ((section, key) in _ALWAYS or draw(st.booleans())):
                continue
            wild = (section, key) in wild_keys
            # wild times stay within 50 steps but may leave the grid; a wild
            # dt of 1e-300 asks for more steps than the noise cap allows
            if wild and key == "dt":
                value = draw(st.one_of(_WILD_NUMBERS, st.sampled_from(["1e300", "1e-300"])))
            elif wild and key in ("horizon", "snapshots", "times", "time"):
                value = draw(st.one_of(_WILD_NUMBERS, _listed(_floats(-dt, 50 * dt))))
            else:
                value = draw(_WILD[codec] if wild else _text(domains[(section, key)]))
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@given(st.sampled_from(EXPERIMENT_KINDS).flatmap(lambda k: st.tuples(st.just(k), config_texts(k))))
@settings(max_examples=150, deadline=None)
def test_fuzzed_configs_exit_0_1_or_2_with_a_record(case):
    kind, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main([kind, "--config", str(cfg), "--out", str(out)])
        assert status in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if status:
            record = f"status = {status}\nerror = "
            assert err.getvalue().startswith(record)
            assert (out / "error.txt").read_text().startswith(record)
        else:
            assert (out / "summary.txt").exists()
