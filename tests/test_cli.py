"""End-to-end command line runs: artifacts, exit codes, determinism."""

import warnings
from pathlib import Path

import pytest

from rmsde.cli import main, run
from rmsde.config import config_hash, parse_config

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
    "taylor-check-size":
        ("taylor-check", FAST["taylor-check"].replace("sizes = 3", "sizes = 8"), "dimension"),
    "taylor-check-time":
        ("taylor-check", FAST["taylor-check"].replace("time = 0.2", "time = 0.6"), "times"),
    "universality-profile-size":
        ("universality", FAST["universality"].replace("sizes = 4, 8", "sizes = 3, 4")
         + f"[ensemble]\nprofile = {Path(__file__).with_name('profile_3x3.csv')}\n",
         "cannot run at size 4"),
}


@pytest.mark.parametrize("kind,text,message", PRECONDITIONS.values(), ids=PRECONDITIONS)
def test_config_preconditions_are_status_2(tmp_path, capsys, kind, text, message):
    status, out = invoke(tmp_path, kind, text)
    assert status == 2
    err = capsys.readouterr().err
    assert "status = 2" in err
    assert message in err
    assert (out / "error.txt").read_text().startswith("status = 2\n")
    assert not (out / CSV_NAMES[kind]).exists()
