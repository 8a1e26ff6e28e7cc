"""Declarative experiment files: one primary workload versus secondaries.

An experiment JSON names a cache geometry (preset, file path, or inline
fields), a primary workload, a list of secondary workloads, simulator
parameter overrides, and native-run options.  Workloads are written either
literally (threads + patterns) or through a generator shorthand:

    {"generator": "offchip", "threads": 15, "array_bytes": 2097152}
    {"generator": "onchip", "threads": 4}
    {"generator": "sweep", "threads": 2, "array_bytes": 67108864}
    {"generator": "stream", "kind": "triad", "n_elems": 65536}
    {"generator": "bucketsort", "n_keys": 4096, "seed": 7}

The loader renames the primary to "primary", requires unique secondary
names, and rebases every secondary above the primary's address range at a
conflict-stride multiple, so bank/set structure survives relocation and
each (primary, secondary) pair occupies disjoint arenas.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field, fields

from .geometry import (
    CacheGeometry,
    GeometryError,
    _check_json,
    conflict_stride,
    geometry_to_dict,
    resolve_geometry,
)
from .patterns import (
    MIB,
    PatternError,
    WorkloadSpec,
    gen_bucket_sort,
    gen_offchip_antagonist,
    gen_onchip_antagonist,
    gen_stream,
    relocate,
    validate_workloads,
    workload_from_dict,
    workload_to_dict,
)
from .simulator import MAX_PLAN_EVENTS, SimConfig, SimulationError

PRIMARY_NAME = "primary"


class ConfigError(ValueError):
    """Raised when an experiment file fails to parse or validate."""


@dataclass(frozen=True)
class NativeOptions:
    duration: float = 1.0

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ConfigError(f"native field 'duration' must be a positive number of "
                              f"seconds, got {json.dumps(self.duration)}")
        object.__setattr__(self, "duration", float(self.duration))


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    geometry: CacheGeometry
    sim: SimConfig
    primary: WorkloadSpec
    secondaries: tuple[WorkloadSpec, ...]
    native: NativeOptions = field(default_factory=NativeOptions)


def _gen_sweep(g: CacheGeometry, n_threads: int = 1, array_bytes: int = 64 * MIB) -> WorkloadSpec:
    """Per-thread line sweeps over huge private arrays, for hosts whose
    physical address mapping is unknown: every line of the arena is a miss."""
    w = gen_offchip_antagonist(g, n_threads, array_bytes, stride=g.line_size, strict=False)
    return _rename(w, "harm.sweep")


# the JSON fields of the top-level object and of the sim section; no
# command prints the hit/miss labels that record_hit_miss keeps
_EXPERIMENT_FIELDS = {"name": "str", "geometry": "str | dict", "sim": "dict",
                      "primary": "dict", "secondaries": "list", "native": "dict"}
_SIM_FIELDS = {f.name: f.type for f in fields(SimConfig)
               if f.name not in ("geometry", "record_hit_miss")}
# pins maps workload names to cpu lists, kept on each workload as its cpus
_NATIVE_FIELDS = {"duration": "float", "pins": "dict"}
# each generator: its function, whether it takes the geometry, its config
# fields with their annotations, and the required ones; every default lives
# in the gen_* signature.  An off-chip walker steps by the conflict stride,
# so array_bytes alone sets its lines per set.
_GENERATORS = {
    "offchip": (gen_offchip_antagonist, True, {"threads": "int", "array_bytes": "int",
                                               "op_mix": "str"}, ()),
    "onchip": (gen_onchip_antagonist, True, {"threads": "int"}, ()),
    "sweep": (_gen_sweep, True, {"threads": "int", "array_bytes": "int"}, ()),
    "stream": (gen_stream, False, {"kind": "str", "n_elems": "int"}, ("kind", "n_elems")),
    "bucketsort": (gen_bucket_sort, False, {"n_keys": "int", "n_buckets": "int",
                                            "iterations": "int", "seed": "int"}, ("n_keys",)),
}

# each generator that takes "threads": its n_threads default
_DEFAULT_THREADS = {kind: inspect.signature(gen).parameters["n_threads"].default
                    for kind, (gen, _, spec, _) in _GENERATORS.items() if "threads" in spec}


def _build_workload(d: dict, g: CacheGeometry, budget: int) -> WorkloadSpec:
    """The workload d describes; a generator whose threads could not run
    within the runaway guard's event bound at budget is refused unbuilt."""
    if type(d) is not dict or "generator" not in d:
        return workload_from_dict(d)
    kind = d["generator"]
    if type(kind) is not str or kind not in _GENERATORS:
        raise ConfigError(f"unknown generator {kind!r}")
    gen, takes_geometry, spec, required = _GENERATORS[kind]
    _check_json(d, {"generator": "str", "name": "str", **spec}, f"generator {kind!r}",
                ConfigError, required)
    # the config's "threads" is the generators' n_threads
    kwargs = {("n_threads" if k == "threads" else k): v
              for k, v in d.items() if k not in ("generator", "name")}
    if kind in _DEFAULT_THREADS:
        n = kwargs.get("n_threads", _DEFAULT_THREADS[kind])
        if n * budget > MAX_PLAN_EVENTS:
            raise ConfigError(f"refusing generator {kind!r}: {n} threads x budget {budget} "
                              f"is {n * budget} events, past the bound of "
                              f"{MAX_PLAN_EVENTS} events")
    w = gen(g, **kwargs) if takes_geometry else gen(**kwargs)
    return _rename(w, d["name"]) if "name" in d else w


def _rename(w: WorkloadSpec, name: str) -> WorkloadSpec:
    return WorkloadSpec(name, w.threads, w.cpus)


def _check_name(name: str, what: str) -> str:
    """Refuse a name that could leave the output directory when joined into a path."""
    if name in ("", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"{what} {json.dumps(name)} is not usable in a file name")
    return name


def experiment_from_dict(d: dict) -> ExperimentConfig:
    """Validate and build an experiment; raises ConfigError on any problem."""
    _check_json(d, _EXPERIMENT_FIELDS, "experiment", ConfigError, required=("primary",))
    try:
        g = resolve_geometry(d.get("geometry", "t1"))
    except (GeometryError, OSError) as e:
        raise ConfigError(f"bad geometry: {e}") from e

    sim_over = d.get("sim", {})
    _check_json(sim_over, _SIM_FIELDS, "sim", ConfigError)
    try:
        sim = SimConfig(geometry=g, **sim_over)
    except SimulationError as e:
        raise ConfigError(f"bad sim section: {e}") from e

    # rebase each secondary above the primary; conflict-stride alignment
    # keeps every access's (bank, set) unchanged by the move.  Each workload
    # is checked once, where it landed, and on its own: every secondary lands
    # at one base, and no two secondaries run together.
    stride = conflict_stride(g)
    budget = sim.per_thread_event_budget
    try:
        primary = _rename(_build_workload(d["primary"], g, budget), PRIMARY_NAME)
        sec_base = max((primary.end_address() + stride - 1) // stride * stride, stride)
        secondaries = [relocate(_build_workload(s, g, budget), sec_base)
                       for s in d.get("secondaries", [])]
        for w in (primary, *secondaries):
            validate_workloads([w], g.line_size)
    except PatternError as e:
        raise ConfigError(str(e)) from e

    names = [_check_name(s.name, "workload name") for s in secondaries]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate secondary names {dupes}")
    if PRIMARY_NAME in names or "idle" in names:
        raise ConfigError('secondary names "primary" and "idle" are reserved')

    native_over = d.get("native", {})
    _check_json(native_over, _NATIVE_FIELDS, "native", ConfigError)
    native = NativeOptions(**{k: v for k, v in native_over.items() if k != "pins"})
    pins = native_over.get("pins", {})
    known = {PRIMARY_NAME, *names}
    for pinned, cpus in pins.items():
        if not (type(cpus) is list and cpus
                and all(type(c) is int and c >= 0 for c in cpus)):
            raise ConfigError(f"native field 'pins' must map workload names to non-empty "
                              f"lists of cpu numbers >= 0, got {json.dumps(pinned)}: "
                              f"{json.dumps(cpus)}")
        if pinned not in known:
            raise ConfigError(f"pin target {pinned!r} is not a workload in this experiment")
    if PRIMARY_NAME in pins:
        primary = WorkloadSpec(primary.name, primary.threads, pins[PRIMARY_NAME])
    secondaries = [WorkloadSpec(s.name, s.threads, pins[s.name]) if s.name in pins else s
                   for s in secondaries]

    return ExperimentConfig(
        name=_check_name(d.get("name", "experiment"), "experiment name"),
        geometry=g,
        sim=sim,
        primary=primary,
        secondaries=tuple(secondaries),
        native=native,
    )


def load_experiment(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    return experiment_from_dict(d)


def experiment_to_dict(cfg: ExperimentConfig) -> dict:
    """Literal (generator-free) form; feeding it back reproduces cfg exactly."""
    return {
        "name": cfg.name,
        "geometry": geometry_to_dict(cfg.geometry),
        "sim": {f: getattr(cfg.sim, f) for f in sorted(_SIM_FIELDS)},
        "primary": workload_to_dict(cfg.primary),
        "secondaries": [workload_to_dict(s) for s in cfg.secondaries],
        "native": {
            "duration": cfg.native.duration,
            "pins": {w.name: list(w.cpus) for w in (cfg.primary, *cfg.secondaries) if w.cpus},
        },
    }

