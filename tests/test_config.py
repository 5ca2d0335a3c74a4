"""Run-configuration parsing: strict schema, canonical serialization,
determinism hash, and the builder glue into experiment objects."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rmsde.config import (EXPERIMENT_KINDS, ConfigError, config_hash,
                          experiment_config, integrator_config,
                          observable_suite, parse_config, serialize,
                          system_template)
from rmsde.dynamics import IntegratorConfig, SystemParams, simulate
from rmsde.ensembles import EntryDistribution, VarianceProfile
from rmsde.experiments import ExperimentConfig
from rmsde.observables import SuiteItem, _constant, evaluate
from rmsde.rng import RngStream


def parse(text):
    return parse_config(text)


# ----------------------------------------------------------------- parsing

def test_empty_text_is_all_defaults():
    rc = parse("")
    assert rc.get("run", "seed") == 0
    assert rc.get("run", "threads") == 1
    assert rc.get("ensemble", "dist") == "gaussian"
    assert rc.get("ensemble_b", "dist") == "rademacher"
    assert rc.get("ensemble", "seed") == -1
    assert rc.get("integrator", "dt") == 1e-3
    assert rc.get("experiment", "sizes") == (32, 64, 128, 256)


def test_cli_defaults_equal_library_defaults():
    # every default is written in the schema and again in the dataclass fields
    assert experiment_config(parse("")) == ExperimentConfig()


def test_comments_and_blank_lines():
    rc = parse("# a comment\n\n[run]\n# another\nseed = 42\n\n")
    assert rc.get("run", "seed") == 42
    assert rc.get("run", "threads") == 1


def test_value_formats():
    rc = parse("""
[run]
seed = 0x10
threads = 3
[system]
beta = inf
[ensemble]
symmetric = false
[integrator]
dt = 0.01
snapshots = 0.0, 0.05, 0.1
horizon = 0.1
[experiment]
sizes = 8, 16
""")
    assert rc.get("run", "seed") == 16
    assert rc.get("system", "beta") == math.inf
    assert rc.get("ensemble", "symmetric") is False
    assert rc.get("integrator", "snapshots") == (0.0, 0.05, 0.1)
    assert rc.get("experiment", "sizes") == (8, 16)


def test_round_trip():
    rc = parse("[run]\nseed = 9\n[integrator]\ndt = 0.05\nhorizon = 2.5\n")
    text = serialize(rc)
    again = parse(text)
    assert again == rc
    assert text.startswith("[run]\n")


@pytest.mark.parametrize("text,fragment", [
    ("[runs]\n", "line 1: unknown section [runs]"),
    ("[run\n", "unterminated section header"),
    ("[run]\n[run]\n", "line 2: duplicate section [run] (first at line 1)"),
    ("seed = 1\n", "line 1: key outside any [section]"),
    ("[run]\nsed = 1\n", "line 2: unknown key 'sed' in section [run]"),
    ("[run]\nseed = 1\nseed = 2\n", "duplicate key run.seed: lines 2 and 3"),
    ("[run]\nseed\n", "expected 'key = value'"),
    ("[run]\nseed = -2\n", "bad value for run.seed"),
    ("[run]\nseed = 99999999999999999999\n", "bad value for run.seed"),
    ("[ensemble]\nsymmetric = yes\n", "bad value for ensemble.symmetric"),
    ("[system]\nbeta = nan\n", "bad value for system.beta"),
    ("[experiment]\nsizes = 8,,16\n", "bad value for experiment.sizes"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError, match=None) as exc:
        parse(text)
    assert fragment in str(exc.value)


def test_ensemble_seed_minus_one_inherits():
    rc = parse("[ensemble]\nseed = -1\n")
    assert rc.get("ensemble", "seed") == -1
    assert experiment_config(rc).coupling_seed is None
    rc = parse("[ensemble]\nseed = 77\n")
    assert experiment_config(rc).coupling_seed == 77


@pytest.mark.parametrize("text,fragment", [
    ("[run]\nthreads = 0\n", "run.threads"),
    ("[run]\nexperiment = tango\n", "run.experiment"),
    ("[ensemble]\ndist = cauchy\n", "ensemble.dist"),
    ("[ensemble]\ninit = cauchy\n", "ensemble.init"),
    ("[ensemble_b]\ndist = cauchy\n", "ensemble_b.dist"),
    ("[ensemble]\nprofile = nope.csv\n", "no preset or file named 'nope.csv'"),
    ("[system]\ntemplate = spherical\n", "system.template"),
    ("[system]\nbeta = 0\n", "system.beta"),
    ("[system]\nconfinement = -1\n", "system.confinement"),
    ("[integrator]\ndt = 0\n", "integrator.dt"),
    ("[integrator]\nhorizon = -1\n", "integrator.horizon"),
    ("[integrator]\nhorizon = inf\n", "integrator.horizon"),
    ("[experiment]\nsizes =\n", "experiment.sizes"),
    ("[experiment]\nreplicas = 0\n", "experiment.replicas"),
    ("[experiment]\nconfinement_mode = sometimes\n", "confinement_mode"),
    ("[experiment]\ngrid_points = 1\n", "grid_points"),
    ("[experiment]\nmc_paths = 1\n", "mc_paths"),
    ("[experiment]\nrayleigh_points = 1\n", "rayleigh_points"),
    ("[integrator]\nsnapshots = 0.0005\n", "not a multiple"),
    ("[integrator]\nsnapshots = 1.5\n", "outside"),
    ("[observable]\ntimes = 0.0105\n", "not a multiple"),
    ("[observable]\nkind = parabolic\n", "observable.kind"),
    ("[observable]\nkind = autocorr\n", "observable.times"),
    ("[observable]\nkind = autocorr\ntimes = 0.5, 1.0\na = weights.csv\n",
     "no file named 'weights.csv'"),
    ("[observable]\nkind = gradsq\ntimes = 0.5\nblocks = x\n", "observable.blocks is read only"),
    ("[observable]\nblocks = x, g\n", "not by kind = ''"),
    ("[observable]\nkind = overlap\ntimes = 0.5\na = 2.0\n", "observable.a is read only"),
])
def test_validation_errors(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert fragment in str(exc.value)


def test_beta_inf_is_valid():
    rc = parse("[system]\nbeta = inf\n")
    assert system_template(rc).beta == math.inf


# --------------------------------------------------------------- RunConfig

def test_replaced():
    rc = parse("")
    rc2 = rc.replaced("run", "seed", 5)
    assert rc2.get("run", "seed") == 5
    assert rc.get("run", "seed") == 0
    with pytest.raises(ConfigError, match="unknown key"):
        rc.replaced("run", "sed", 5)


def test_equality_ignores_defaulted():
    assert parse("") == parse("[run]\nseed = 0\n")


# ------------------------------------------------------------- config hash

def test_config_hash_shape_and_sensitivity():
    rc = parse("")
    h = config_hash(rc)
    assert len(h) == 64
    assert int(h, 16) >= 0
    assert config_hash(rc.replaced("run", "seed", 1)) != h


def test_config_hash_ignores_threads_and_out():
    rc = parse("")
    h = config_hash(rc)
    assert config_hash(rc.replaced("run", "threads", 8)) == h
    assert config_hash(rc.replaced("run", "out", "elsewhere")) == h


# ---------------------------------------------------------------- builders

def test_system_template_builder():
    rc = parse("[system]\ntemplate = langevin\nbeta = 4.0\nconfinement = 2.0\n"
               "thresholds = 0.3\n")
    t = system_template(rc)
    assert t.langevin
    assert t.beta == 4.0
    assert t.confinement == 2.0
    assert t.thresholds == 0.3


def test_integrator_builder():
    rc = parse("[integrator]\ndt = 0.01\nhorizon = 0.1\nsnapshots = 0.0, 0.1\n")
    cfg = integrator_config(rc)
    assert cfg.snapshot_steps == (0, 10)
    override = integrator_config(rc, snapshots=(0.05,))
    assert override.snapshot_steps == (5,)


def test_experiment_config_wiring():
    rc = parse("""
[run]
seed = 12
threads = 2
[ensemble]
dist = uniform
symmetric = false
init = rademacher
[ensemble_b]
dist = exponential
[experiment]
sizes = 8
replicas = 10
""")
    cfg = experiment_config(rc)
    assert cfg.dist_a is EntryDistribution.UNIFORM_CENTERED
    assert cfg.dist_b is EntryDistribution.EXPONENTIAL_CENTERED
    assert cfg.init_dist is EntryDistribution.RADEMACHER
    assert not cfg.symmetric
    assert cfg.seed == 12
    assert cfg.threads == 2
    assert cfg.sizes == (8,)
    assert cfg.jseed == 12


def test_profile_csv_file(tmp_path):
    path = tmp_path / "prof.csv"
    np.savetxt(path, np.full((3, 3), 0.5), delimiter=",")
    rc = parse(f"[ensemble]\nprofile = {path}\n[experiment]\nsizes = 3\n")
    cfg = experiment_config(rc)
    assert isinstance(cfg.profile, VarianceProfile)
    assert cfg.profile.n == 3
    assert np.all(cfg.profile.m == 0.5)


def test_profile_csv_must_be_square(tmp_path):
    path = tmp_path / "prof.csv"
    np.savetxt(path, np.ones((2, 3)), delimiter=",")
    rc = parse(f"[ensemble]\nprofile = {path}\n")
    with pytest.raises(ConfigError, match="cannot load"):
        experiment_config(rc)


# observable.times is checked against the grid as it is parsed; these times
# come from defaults
OFF_GRID = {
    # horizon 1.0 is not a multiple of dt = 0.3: the default suites' time is off the grid
    "universality-default": ("universality", "[integrator]\ndt = 0.3\nhorizon = 1.0\n"),
    "hopfield-default": ("hopfield", "[integrator]\ndt = 0.3\nhorizon = 1.0\n"),
    # the Monte Carlo times t/2 = 0.1 and t = 0.2 are not multiples of dt
    "taylor-check": ("taylor-check", "[experiment]\nsizes = 2\ntime = 0.2\n"
                     "[integrator]\ndt = 0.03\nhorizon = 0.2\n"),
}


@pytest.mark.parametrize("kind,text", OFF_GRID.values(), ids=OFF_GRID)
def test_off_grid_times_fail_at_resolution(kind, text):
    rc = parse(text).replaced("run", "experiment", kind)
    with pytest.raises(ConfigError, match="not on the step grid"):
        experiment_config(rc)


def test_concentration_snaps_its_grid_to_the_steps():
    rc = parse(OFF_GRID["universality-default"][1]).replaced("run", "experiment", "concentration")
    assert experiment_config(rc).horizon == 1.0


# ------------------------------------------------------- observable suites

def tiny_traj(n=3):
    rng = np.random.default_rng(0)
    params = SystemParams(rng.standard_normal((n, n)) / n, np.zeros((n, n)),
                          np.zeros(n), np.zeros((n + 1, n)))
    cfg = IntegratorConfig(0.01, 0.02, (0.0, 0.01, 0.02))
    return simulate(params, rng.uniform(-1, 1, n), cfg, RngStream(1))


def value(traj, item):
    """``item`` on one path, evaluated as a block of one replica."""
    (v,) = evaluate(item, item.rows(traj.config), traj.x[None], traj.m[None],
                    traj.coupling[None])
    return float(v)


def test_suite_empty_without_kind():
    assert observable_suite(parse("")) == ()


def test_suite_autocorr():
    rc = parse("[integrator]\ndt = 0.01\nhorizon = 0.02\n"
               "[observable]\nkind = autocorr\ntimes = 0.01, 0.02\n")
    (item,) = observable_suite(rc)
    assert item.name == "autocorr[0.01,0.02]"
    assert item.times == (0.01, 0.02)


def test_suite_autocorr_needs_two_times():
    rc = parse("[integrator]\ndt = 0.01\nhorizon = 0.05\n"
               "[observable]\nkind = autocorr\ntimes = 0.01\n")
    with pytest.raises(ConfigError, match="two times"):
        observable_suite(rc)


def test_suite_hamiltonian_one_item_per_time():
    rc = parse("[integrator]\ndt = 0.01\nhorizon = 0.05\n"
               "[observable]\nkind = hamiltonian\ntimes = 0.01, 0.03\n")
    items = observable_suite(rc)
    assert [i.name for i in items] == ["hamiltonian[0.01]", "hamiltonian[0.03]"]


def test_suite_quadratic_evaluates():
    rc = parse("[integrator]\ndt = 0.01\nhorizon = 0.02\n"
               "[observable]\nkind = quadratic\ntimes = 0.0, 0.02\n"
               "blocks = x, m\na = 2.0\n")
    (item,) = observable_suite(rc)
    traj = tiny_traj()
    want = float(np.full(3, 2.0) @ (traj.x[0] * traj.m[2])) / 3
    assert value(traj, item) == want
    assert (item.name, item.arity, item.weights) == ("quadratic[0,0.02]", 1, 2.0)


def test_suite_tensor_evaluates():
    rc = parse("[integrator]\ndt = 0.01\nhorizon = 0.02\n"
               "[observable]\nkind = tensor\ntimes = 0.02\nblocks = x, g\n")
    (item,) = observable_suite(rc)
    traj = tiny_traj()
    x = traj.x[2]
    want = float(x @ np.ones((3, 3)) @ (x @ traj.coupling)) / 9
    assert value(traj, item) == want
    assert item.name == "tensor[0.02]"


def test_suite_tensor_block_arity():
    rc = parse("[integrator]\ndt = 0.01\nhorizon = 0.02\n"
               "[observable]\nkind = tensor\ntimes = 0.0, 0.02\nblocks = x, g, m\n")
    with pytest.raises(ConfigError, match="blocks"):
        observable_suite(rc)
    rc = rc.replaced("observable", "blocks", ("x", "g", "m", "x")).replaced(
        "observable", "times", (0.02,))
    with pytest.raises(ConfigError, match="arity <= 3"):
        observable_suite(rc)


def test_suite_weights_from_file(tmp_path):
    path = tmp_path / "w.csv"
    np.savetxt(path, np.array([1.0, 2.0, 3.0]), delimiter=",")
    rc = parse("[integrator]\ndt = 0.01\nhorizon = 0.02\n"
               f"[observable]\nkind = quadratic\ntimes = 0.0, 0.0\n"
               f"blocks = x, x\na = {path}\n")
    (item,) = observable_suite(rc)
    traj = tiny_traj()
    want = float(np.array([1.0, 2.0, 3.0]) @ (traj.x[0] * traj.x[0])) / 3
    assert value(traj, item) == want


def test_suite_tensor_weights_from_2d_file(tmp_path):
    # a file's rows and columns are N ** m weights in C order, whatever m is
    a = np.random.default_rng(8).uniform(-1, 1, (3, 3, 3))
    path = tmp_path / "w.csv"
    np.savetxt(path, a.reshape(3, 9), delimiter=",")
    rc = parse("[integrator]\ndt = 0.01\nhorizon = 0.02\n"
               f"[observable]\nkind = tensor\ntimes = 0.02\nblocks = x, g, x\na = {path}\n")
    (item,) = observable_suite(rc)
    traj = tiny_traj()
    assert value(traj, item) == value(traj, SuiteItem("t", item.blocks, item.times, a))


@pytest.mark.parametrize("kind,obs_block", [
    ("quadratic", "times = 0, 0.04\nblocks = x, x\n"),
    ("tensor", "times = 0.04\nblocks = x, x\n"),
])
def test_suite_builds_each_observable_once_per_size(kind, obs_block):
    from rmsde.experiments import run_universality
    _constant.cache_clear()
    rc = parse("[run]\nexperiment = universality\nthreads = 1\n"
               "[experiment]\nsizes = 4, 8\nreplicas = 6\n"
               "[integrator]\ndt = 0.02\nhorizon = 0.04\n"
               f"[observable]\nkind = {kind}\n{obs_block}")
    report = run_universality(experiment_config(rc))
    assert len(report.rows) == 2
    # the constant weights are built once per size; per replica and arm would make 2 * 2 * 6
    assert _constant.cache_info().misses == 2


# --------------------------------------------------- generated round trips

DT = 0.01

config_values = st.fixed_dictionaries({
    ("run", "seed"): st.integers(0, (1 << 64) - 1),
    ("run", "threads"): st.integers(1, 8),
    ("run", "experiment"): st.sampled_from(("",) + EXPERIMENT_KINDS),
    ("ensemble", "dist"): st.sampled_from(
        ["gaussian", "rademacher", "uniform", "exponential"]),
    ("ensemble", "symmetric"): st.booleans(),
    ("ensemble", "seed"): st.one_of(st.just(-1), st.integers(0, (1 << 64) - 1)),
    ("ensemble_b", "dist"): st.sampled_from(["gaussian", "exponential"]),
    ("system", "template"): st.sampled_from(["plain", "langevin"]),
    ("system", "beta"): st.sampled_from([0.5, 1.0, math.inf]),
    ("system", "confinement"): st.floats(0.0, 5.0, allow_nan=False),
    ("integrator", "dt"): st.just(DT),
    ("integrator", "horizon"): st.integers(0, 50).map(lambda k: k * DT),
    ("experiment", "sizes"): st.lists(st.integers(1, 64), min_size=1,
                                      max_size=4).map(tuple),
    ("experiment", "replicas"): st.integers(1, 100),
    ("experiment", "time"): st.floats(0.0, 0.5, allow_nan=False),
})


@given(config_values)
@settings(max_examples=60, deadline=None)
def test_round_trip_property(assignments):
    rc = parse("")
    for (sec, key), value in assignments.items():
        rc = rc.replaced(sec, key, value)
    again = parse(serialize(rc))
    assert again == rc
    assert config_hash(again) == config_hash(rc)
