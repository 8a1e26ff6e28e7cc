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

import json
import math
from dataclasses import dataclass, field, fields

from .geometry import CacheGeometry, GeometryError, conflict_stride, geometry_to_dict, resolve_geometry
from .patterns import (
    MIB,
    PatternError,
    WorkloadSpec,
    gen_bucket_sort,
    gen_offchip_antagonist,
    gen_onchip_antagonist,
    gen_stream,
    relocate,
    validate_workload,
    with_pinning,
    workload_from_dict,
    workload_to_dict,
)
from .simulator import SimConfig

PRIMARY_NAME = "primary"


class ConfigError(ValueError):
    """Raised when an experiment file fails to parse or validate."""


@dataclass(frozen=True)
class NativeOptions:
    duration: float = 1.0
    pins: dict[str, tuple[int, ...]] = field(default_factory=dict)
    hugepages: bool = False

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigError("native duration must be > 0 seconds")
        object.__setattr__(
            self, "pins", {k: tuple(v) for k, v in self.pins.items()}
        )


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


# every sim field but the geometry has a default of the field's exact type
_SIM_TYPES = {f.name: type(f.default) for f in fields(SimConfig) if f.name != "geometry"}
# generator fields that must be JSON integers (stride may also be null)
_GENERATOR_INTS = {"threads", "array_bytes", "stride", "n_elems", "n_keys",
                   "n_buckets", "iterations", "seed"}
# each generator: its function, whether it takes the geometry, and its
# required and optional config fields; every default lives in the gen_* signature
_GENERATORS = {
    "offchip": (gen_offchip_antagonist, True, (), ("threads", "array_bytes", "stride", "op_mix")),
    "onchip": (gen_onchip_antagonist, True, (), ("threads",)),
    "sweep": (_gen_sweep, True, (), ("threads", "array_bytes")),
    "stream": (gen_stream, False, ("kind", "n_elems"), ()),
    "bucketsort": (gen_bucket_sort, False, ("n_keys",), ("n_buckets", "iterations", "seed")),
}


def _build_workload(d: dict, g: CacheGeometry) -> WorkloadSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"workload must be an object, got {type(d).__name__}")
    if "generator" not in d:
        return workload_from_dict(d)
    args = dict(d)
    kind = args.pop("generator")
    name = args.pop("name", None)
    for key, value in args.items():
        # bool is an int subclass, so compare exact types
        if key in _GENERATOR_INTS and type(value) is not int and not (
            key == "stride" and value is None
        ):
            raise ConfigError(
                f"generator {kind!r} field {key!r} must be an integer, "
                f"got {json.dumps(value)}"
            )
    if kind not in _GENERATORS:
        raise ConfigError(f"unknown generator {kind!r}")
    gen, takes_geometry, required, optional = _GENERATORS[kind]
    unknown = args.keys() - {*required, *optional}
    if unknown:
        raise ConfigError(f"generator {kind!r} got unknown fields {sorted(unknown)}")
    for key in required:
        if key not in args:
            raise ConfigError(f"generator {kind!r} missing required field {key!r}")
    # the config's "threads" is the generators' n_threads
    kwargs = {("n_threads" if k == "threads" else k): v for k, v in args.items()}
    w = gen(g, **kwargs) if takes_geometry else gen(**kwargs)
    return w if name is None else _rename(w, str(name))


def _rename(w: WorkloadSpec, name: str) -> WorkloadSpec:
    return WorkloadSpec(name, w.threads)


def _check_name(name: str, what: str) -> str:
    """Refuse a name that could leave the output directory when joined into a path."""
    if not isinstance(name, str) or name in ("", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"{what} {json.dumps(name)} is not usable in a file name")
    return name


def experiment_from_dict(d: dict) -> ExperimentConfig:
    """Validate and build an experiment; raises ConfigError on any problem."""
    if not isinstance(d, dict):
        raise ConfigError("experiment file must contain a JSON object")
    unknown = set(d) - {"name", "geometry", "sim", "primary", "secondaries", "native"}
    if unknown:
        raise ConfigError(f"unknown top-level fields {sorted(unknown)}")
    try:
        g = resolve_geometry(d.get("geometry", "t1"))
    except (GeometryError, OSError) as e:
        raise ConfigError(f"bad geometry: {e}") from e

    sim_over = d.get("sim", {})
    if not isinstance(sim_over, dict):
        raise ConfigError("sim section must be an object")
    bad = sim_over.keys() - _SIM_TYPES
    if bad:
        raise ConfigError(f"unknown sim fields {sorted(bad)}")
    for key, value in sim_over.items():
        if type(value) is not _SIM_TYPES[key]:
            raise ConfigError(f"sim field {key!r} must be {_SIM_TYPES[key].__name__}, "
                              f"got {json.dumps(value)}")
    try:
        sim = SimConfig(geometry=g, **sim_over)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad sim section: {e}") from e

    if "primary" not in d:
        raise ConfigError("experiment needs a primary workload")
    secondary_specs = d.get("secondaries", [])
    if not isinstance(secondary_specs, list):
        raise ConfigError(f"secondaries must be a list of workloads, "
                          f"got {type(secondary_specs).__name__}")
    try:
        primary = _rename(_build_workload(d["primary"], g), PRIMARY_NAME)
        secondaries = [_build_workload(s, g) for s in secondary_specs]
    except PatternError as e:
        raise ConfigError(str(e)) from e

    names = [_check_name(s.name, "workload name") for s in secondaries]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate secondary names {dupes}")
    if PRIMARY_NAME in names or "idle" in names:
        raise ConfigError('secondary names "primary" and "idle" are reserved')

    # rebase each secondary above the primary; conflict-stride alignment
    # keeps every access's (bank, set) unchanged by the move
    stride = conflict_stride(g)
    end = primary.end_address()
    sec_base = max((end + stride - 1) // stride * stride, stride)
    secondaries = [relocate(s, sec_base) for s in secondaries]

    native_over = d.get("native", {})
    if not isinstance(native_over, dict):
        raise ConfigError("native section must be an object")
    bad = set(native_over) - {"duration", "pins", "hugepages"}
    if bad:
        raise ConfigError(f"unknown native fields {sorted(bad)}")
    duration = native_over.get("duration", 1.0)
    if type(duration) not in (int, float) or not 0 < duration < math.inf:
        raise ConfigError(f"native field 'duration' must be a positive number of "
                          f"seconds, got {json.dumps(duration)}")
    pins = native_over.get("pins", {})
    if not isinstance(pins, dict) or not all(
        isinstance(cpus, list) and all(type(c) is int for c in cpus) for cpus in pins.values()
    ):
        raise ConfigError(f"native field 'pins' must map workload names to lists "
                          f"of cpu numbers, got {json.dumps(pins)}")
    hugepages = native_over.get("hugepages", False)
    if type(hugepages) is not bool:
        raise ConfigError(f"native field 'hugepages' must be bool, got {json.dumps(hugepages)}")
    native = NativeOptions(duration=float(duration), pins=pins, hugepages=hugepages)
    known = {PRIMARY_NAME, *names}
    for pinned in native.pins:
        if pinned not in known:
            raise ConfigError(f"pin target {pinned!r} is not a workload in this experiment")

    cfg = ExperimentConfig(
        name=_check_name(str(d.get("name", "experiment")), "experiment name"),
        geometry=g,
        sim=sim,
        primary=primary,
        secondaries=tuple(secondaries),
        native=native,
    )
    # generators validate what they build, and relocation by a line multiple
    # keeps it valid; literal workloads are checked once, where they landed
    for w, spec in zip((cfg.primary, *cfg.secondaries), (d["primary"], *secondary_specs)):
        if "generator" not in spec:
            try:
                validate_workload(w, g.line_size)
            except PatternError as e:
                raise ConfigError(str(e)) from e
    return cfg


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
        "sim": {f: getattr(cfg.sim, f) for f in sorted(_SIM_TYPES)},
        "primary": workload_to_dict(cfg.primary),
        "secondaries": [workload_to_dict(s) for s in cfg.secondaries],
        "native": {
            "duration": cfg.native.duration,
            "pins": {k: list(v) for k, v in cfg.native.pins.items()},
            "hugepages": cfg.native.hugepages,
        },
    }


def pinned_workloads(cfg: ExperimentConfig) -> tuple[WorkloadSpec, list[WorkloadSpec]]:
    """Apply the native pin map to the experiment's workloads."""
    prim = cfg.primary
    if PRIMARY_NAME in cfg.native.pins:
        prim = with_pinning(prim, cfg.native.pins[PRIMARY_NAME])
    secs = [
        with_pinning(s, cfg.native.pins[s.name]) if s.name in cfg.native.pins else s
        for s in cfg.secondaries
    ]
    return prim, secs
