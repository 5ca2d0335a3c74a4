"""Strict line-oriented run-configuration files.

The format is ``key = value`` lines grouped under ``[section]``
headers, with ``#`` comment lines and blank lines ignored.  Parsing is
deliberately unforgiving: unknown sections or keys, duplicate keys,
malformed values, and dangling file references are all fatal, each
reported with the offending line number.  Silent typos in a run
configuration are worse than friction.

Every key has a documented default; ``parse_config("")`` is valid and
yields the fully defaulted configuration.  ``serialize`` writes the
resolved values back in canonical order so that
``parse_config(serialize(cfg)) == cfg``.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import IntegratorConfig, SystemTemplate
from .ensembles import PROFILE_PRESETS, EnsembleError, EntryDistribution, VarianceProfile
from .experiments import (CONFINEMENT_MODES, ExperimentConfig, ExperimentError, autocorr_item,
                          check_preconditions, gradsq_item, hamiltonian_item, overlap_item)
from .observables import BuildingBlock, SuiteItem

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "serialize",
    "config_hash",
    "experiment_config",
    "integrator_config",
    "system_template",
    "observable_suite",
    "max_threads",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = ("simulate", "universality", "concentration", "aging",
                    "taylor-check", "moments-check", "hopfield", "rayleigh")

# Each vocabulary of names is one table that both checks a name and maps it.
# ensemble.dist, ensemble.init and ensemble_b.dist name -> the entry law
_DISTS = {"gaussian": EntryDistribution.GAUSSIAN, "rademacher": EntryDistribution.RADEMACHER,
          "uniform": EntryDistribution.UNIFORM_CENTERED,
          "exponential": EntryDistribution.EXPONENTIAL_CENTERED}

# system.template name -> SystemTemplate.langevin
_TEMPLATES = {"plain": False, "langevin": True}

# observable.kind of one suite item per time -> the item at a time
_PER_TIME_ITEMS = {"hamiltonian": hamiltonian_item, "gradsq": gradsq_item, "overlap": overlap_item}

_OBSERVABLE_KINDS = ("quadratic", "tensor", "autocorr", *_PER_TIME_ITEMS)


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# value codecs


def _parse_u64(text: str) -> int:
    v = int(text, 0)
    if not 0 <= v < 1 << 64:
        raise ValueError("must be an unsigned 64-bit integer")
    return v


def _parse_seed(text: str) -> int:
    """Like u64 but -1 is allowed and means 'inherit the master seed'."""
    v = int(text, 0)
    if v == -1:
        return -1
    if not 0 <= v < 1 << 64:
        raise ValueError("must be -1 or an unsigned 64-bit integer")
    return v


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_float(text: str) -> float:
    v = float(text)
    if math.isnan(v):
        raise ValueError("nan is not a valid value")
    return v


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t == "true":
        return True
    if t == "false":
        return False
    raise ValueError("expected 'true' or 'false'")


def _parse_str(text: str) -> str:
    return text.strip()


def _split_list(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    items = [p.strip() for p in text.split(",")]
    if any(not p for p in items):
        raise ValueError("empty element in comma-separated list")
    return items


def _parse_floats(text: str) -> tuple:
    return tuple(_parse_float(p) for p in _split_list(text))


def _parse_ints(text: str) -> tuple:
    return tuple(_parse_int(p) for p in _split_list(text))


def _parse_strs(text: str) -> tuple:
    return tuple(_split_list(text))


def _show(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_show(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_CODECS = {
    "u64": _parse_u64,
    "seed": _parse_seed,
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": _parse_str,
    "floats": _parse_floats,
    "ints": _parse_ints,
    "strs": _parse_strs,
}

# section -> key -> (codec name, default value)
_SCHEMA = {
    "run": {
        "experiment": ("str", ""),
        "seed": ("u64", 0),
        "threads": ("int", 1),
        "out": ("str", "out"),
    },
    "ensemble": {
        "dist": ("str", "gaussian"),
        "symmetric": ("bool", True),
        "profile": ("str", "offdiagonal"),
        "seed": ("seed", -1),
        "init": ("str", "gaussian"),
    },
    # The second arm shares the variance profile, symmetry flag, and
    # coupling stream by construction; only its entry law may differ.
    "ensemble_b": {
        "dist": ("str", "rademacher"),
    },
    "system": {
        "template": ("str", "plain"),
        "beta": ("float", 1.0),
        "confinement": ("float", 1.0),
        "thresholds": ("float", 0.0),
    },
    "integrator": {
        "dt": ("float", 1e-3),
        "horizon": ("float", 1.0),
        "snapshots": ("floats", ()),
    },
    "experiment": {
        "sizes": ("ints", (32, 64, 128, 256)),
        "replicas": ("int", 2000),
        "s_values": ("floats", (2.0, 4.0, 8.0)),
        "lambdas": ("floats", (1.0, 2.0)),
        "confinement_mode": ("str", "auto"),
        "tail_thresholds": ("floats", (0.05, 0.1, 0.2, 0.4)),
        "grid_points": ("int", 21),
        "truncation": ("int", 8),
        "time": ("float", 0.2),
        "mc_paths": ("int", 100000),
        "rayleigh_horizon": ("float", 20.0),
        "rayleigh_points": ("int", 81),
        "rayleigh_replicas": ("int", 8),
    },
    "observable": {
        "kind": ("str", ""),
        "times": ("floats", ()),
        "a": ("str", "1.0"),
        "blocks": ("strs", ()),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration: every schema key bound to a typed value."""

    values: dict

    def get(self, section: str, key: str):
        return self.values[section][key]

    def replaced(self, section: str, key: str, value) -> "RunConfig":
        """This config with ``section.key`` set to ``value``, validated."""
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {section}.{key}")
        values = {s: dict(kv) for s, kv in self.values.items()}
        values[section][key] = value
        return _validate(RunConfig(values))


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text.

    Raises :class:`ConfigError` on any syntax error, unknown section or
    key, duplicate key (reporting both lines), malformed value, or
    reference to a file that does not exist.
    """
    values: dict = {s: {} for s in _SCHEMA}
    seen_sections: dict = {}
    seen_keys: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in seen_sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}] "
                                  f"(first at line {seen_sections[name]})")
            seen_sections[name] = lineno
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in seen_keys:
            raise ConfigError(f"duplicate key {section}.{key}: "
                              f"lines {seen_keys[(section, key)]} and {lineno}")
        seen_keys[(section, key)] = lineno
        codec = _CODECS[_SCHEMA[section][key][0]]
        try:
            values[section][key] = codec(rhs)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {exc}") from None

    for sec, keys in _SCHEMA.items():
        for key, (_, default) in keys.items():
            values[sec].setdefault(key, default)

    return _validate(RunConfig(values))


def max_threads() -> int:
    """Largest worker count a run may ask for, 4 per CPU: more only adds
    forked processes that wait for a core."""
    return 4 * (os.cpu_count() or 1)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _validate(rc: RunConfig) -> RunConfig:
    """``rc``, if every value is valid; else a :class:`ConfigError`."""
    g = rc.get
    cap = max_threads()
    _require(1 <= g("run", "threads") <= cap, f"run.threads must be >= 1 and <= {cap}")
    exp = g("run", "experiment")
    _require(exp == "" or exp in EXPERIMENT_KINDS,
             f"run.experiment must be one of {EXPERIMENT_KINDS}, got {exp!r}")
    for sec in ("ensemble", "ensemble_b"):
        for key in ("dist",) if sec == "ensemble_b" else ("dist", "init"):
            name = g(sec, key)
            _require(name in _DISTS,
                     f"{sec}.{key} must be one of {tuple(_DISTS)}, got {name!r}")
    profile = g("ensemble", "profile")
    if profile not in PROFILE_PRESETS:
        _require(os.path.exists(profile),
                 f"ensemble.profile: no preset or file named {profile!r}")
    _require(g("system", "template") in _TEMPLATES,
             f"system.template must be {' or '.join(map(repr, _TEMPLATES))}, "
             f"got {g('system', 'template')!r}")
    _require(g("system", "beta") > 0, "system.beta must be positive (inf allowed)")
    _require(0 <= g("system", "confinement") < math.inf,
             "system.confinement must be finite and >= 0")
    _require(g("integrator", "dt") > 0 and math.isfinite(g("integrator", "dt")),
             "integrator.dt must be positive and finite")
    _require(g("integrator", "horizon") >= 0 and math.isfinite(g("integrator", "horizon")),
             "integrator.horizon must be non-negative and finite")
    _require(len(g("experiment", "sizes")) > 0, "experiment.sizes must be non-empty")
    _require(all(n >= 1 for n in g("experiment", "sizes")),
             "experiment.sizes entries must be >= 1")
    _require(g("experiment", "replicas") >= 1, "experiment.replicas must be >= 1")
    _require(g("experiment", "confinement_mode") in CONFINEMENT_MODES,
             f"experiment.confinement_mode must be {' or '.join(map(repr, CONFINEMENT_MODES))}")
    _require(g("experiment", "grid_points") >= 2, "experiment.grid_points must be >= 2")
    _require(g("experiment", "truncation") >= 0, "experiment.truncation must be >= 0")
    _require(g("experiment", "mc_paths") >= 2, "experiment.mc_paths must be >= 2")
    _require(g("experiment", "rayleigh_points") >= 2, "experiment.rayleigh_points must be >= 2")
    _require(g("experiment", "rayleigh_replicas") >= 1, "experiment.rayleigh_replicas must be >= 1")
    _require(0 <= g("experiment", "rayleigh_horizon") < math.inf,
             "experiment.rayleigh_horizon must be finite and >= 0")
    for key in ("s_values", "lambdas"):
        _require(all(0 <= v < math.inf for v in g("experiment", key)),
                 f"experiment.{key} entries must be finite and >= 0")
    # the aging ratios read the flow at times 2s, s + lambda s and 2 lambda s
    _require(all(math.isfinite(2 * s * (1 + lam)) for s in g("experiment", "s_values")
                 for lam in g("experiment", "lambdas")),
             "experiment.s_values and lambdas give an infinite time")

    dt = g("integrator", "dt")
    horizon = g("integrator", "horizon")
    for label, times in (("integrator.snapshots", g("integrator", "snapshots")),
                         ("observable.times", g("observable", "times"))):
        for t in times:
            _require(0.0 <= t <= horizon + dt / 2,
                     f"{label}: time {t!r} outside [0, horizon]")
            _require(abs(t / dt - round(t / dt)) <= 1e-9 * max(1.0, abs(t / dt)),
                     f"{label}: time {t!r} is not a multiple of integrator.dt")

    kind = g("observable", "kind")
    _require(kind == "" or kind in _OBSERVABLE_KINDS,
             f"observable.kind must be one of {_OBSERVABLE_KINDS}, got {kind!r}")
    if kind:
        _require(len(g("observable", "times")) > 0,
                 "observable.times must be set when observable.kind is")
    a = g("observable", "a")
    try:
        weight = float(a)
    except ValueError:
        _require(os.path.exists(a), f"observable.a: not a number and no file named {a!r}")
    else:
        _require(math.isfinite(weight), f"observable.a must be finite, got {a!r}")
    if kind not in ("quadratic", "tensor"):
        for key, unset in (("blocks", ()), ("a", _SCHEMA["observable"]["a"][1])):
            _require(g("observable", key) == unset,
                     f"observable.{key} is read only by kind = quadratic or tensor, "
                     f"not by kind = {kind!r}")
    return rc


def serialize(rc: RunConfig) -> str:
    """Canonical text for a resolved configuration.

    All sections and keys appear, in schema order, so the output
    reparses to an equal :class:`RunConfig`.
    """
    lines = []
    for sec, keys in _SCHEMA.items():
        lines.append(f"[{sec}]")
        for key in keys:
            lines.append(f"{key} = {_show(rc.get(sec, key))}")
        lines.append("")
    return "\n".join(lines)


def config_hash(rc: RunConfig) -> str:
    """SHA-256 of the determinism-relevant configuration.

    Thread count and output directory affect scheduling and placement
    but never the computed numbers, so they are pinned to fixed values
    before hashing; reruns of one configuration at different ``--threads``
    or ``--out`` settings carry the same hash.
    """
    pinned = rc.replaced("run", "threads", 1).replaced("run", "out", "")
    return hashlib.sha256(serialize(pinned).encode()).hexdigest()


# ---------------------------------------------------------------------------
# builders


def _load_csv(key: str, spec: str, ndmin: int) -> np.ndarray:
    """The numbers in CSV file ``spec``; a :class:`ConfigError` naming ``key``
    if the file cannot be read or holds no data."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy warns on a file with no data
            return np.loadtxt(spec, delimiter=",", ndmin=ndmin)
    except UserWarning:
        raise ConfigError(f"{key}: {spec!r} holds no data") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot load {spec!r}: {exc}") from None


def _profile_value(rc: RunConfig):
    """Preset name, or a VarianceProfile loaded from a CSV matrix."""
    profile = rc.get("ensemble", "profile")
    if profile in PROFILE_PRESETS:
        return profile
    m = _load_csv("ensemble.profile", profile, 2)
    try:
        return VarianceProfile(m)
    except EnsembleError as exc:
        raise ConfigError(f"ensemble.profile: cannot load {profile!r}: {exc}") from None


def system_template(rc: RunConfig) -> SystemTemplate:
    return SystemTemplate(
        confinement=rc.get("system", "confinement"),
        beta=rc.get("system", "beta"),
        langevin=_TEMPLATES[rc.get("system", "template")],
        thresholds=rc.get("system", "thresholds"),
    )


def integrator_config(rc: RunConfig, snapshots: tuple = None) -> IntegratorConfig:
    if snapshots is None:
        snapshots = rc.get("integrator", "snapshots")
    return IntegratorConfig(rc.get("integrator", "dt"),
                            rc.get("integrator", "horizon"),
                            tuple(snapshots))


def _weight_file(spec: str):
    """The weights stored in CSV file ``spec``, or None when ``spec`` is a number."""
    try:
        float(spec)
        return None
    except ValueError:
        pass
    weights = _load_csv("observable.a", spec, 1)
    _require(np.all(np.isfinite(weights)), f"observable.a: {spec!r} holds non-finite weights")
    return weights


def observable_suite(rc: RunConfig) -> tuple:
    """The observable suite implied by the [observable] block.

    Empty when the block is absent, in which case each experiment uses
    its own default suite.
    """
    kind = rc.get("observable", "kind")
    if not kind:
        return ()
    times = rc.get("observable", "times")
    if kind == "autocorr":
        if len(times) != 2:
            raise ConfigError("observable.times must list two times for kind=autocorr")
        return (autocorr_item(times[0], times[1]),)
    if kind in _PER_TIME_ITEMS:
        return tuple(_PER_TIME_ITEMS[kind](t) for t in times)

    blocks = tuple(BuildingBlock.from_name(b) for b in rc.get("observable", "blocks"))
    a_spec = rc.get("observable", "a")
    weights = _weight_file(a_spec)

    # A quadratic is the arity-1 tensor over its two times.
    if kind == "quadratic":
        if len(times) != 2 or len(blocks) != 2:
            raise ConfigError("kind=quadratic needs exactly two times and two blocks")
        if weights is not None and weights.ndim != 1:
            raise ConfigError("observable.a: kind=quadratic needs one row or column of weights")
        name = f"quadratic[{times[0]:g},{times[1]:g}]"
    else:  # tensor, the one kind left
        if not blocks or len(blocks) % len(times):
            raise ConfigError("kind=tensor needs blocks as m rows flattened over p times")
        name = f"tensor[{','.join(f'{t:g}' for t in times)}]"
    m = len(blocks) // len(times)
    if m > 3:
        raise ConfigError(f"kind=tensor supports arity <= 3, got {m} block rows")
    rows = tuple(tuple(blocks[r * len(times):(r + 1) * len(times)]) for r in range(m))
    return (SuiteItem(name, rows, times, float(a_spec) if weights is None else weights.ravel()),)


def experiment_config(rc: RunConfig) -> ExperimentConfig:
    """Wire a parsed configuration into an :class:`ExperimentConfig`.

    The configured experiment's preconditions are checked here, so a
    configuration that cannot run is a :class:`ConfigError`.
    """
    ens_seed = rc.get("ensemble", "seed")
    try:
        cfg = ExperimentConfig(
            dist_a=_DISTS[rc.get("ensemble", "dist")],
            dist_b=_DISTS[rc.get("ensemble_b", "dist")],
            symmetric=rc.get("ensemble", "symmetric"),
            profile=_profile_value(rc),
            init_dist=_DISTS[rc.get("ensemble", "init")],
            template=system_template(rc),
            suite=observable_suite(rc),
            dt=rc.get("integrator", "dt"),
            horizon=rc.get("integrator", "horizon"),
            seed=rc.get("run", "seed"),
            coupling_seed=None if ens_seed < 0 else ens_seed,
            threads=rc.get("run", "threads"),
            # every [experiment] key is the ExperimentConfig field of its name
            **{key: rc.get("experiment", key) for key in _SCHEMA["experiment"]},
        )
        check_preconditions(rc.get("run", "experiment"), cfg)
    except (ExperimentError, EnsembleError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg
