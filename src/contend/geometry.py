"""Cache geometry descriptions and physical-address -> (bank, set) mapping.

A geometry describes a banked set-associative cache by four sizes: line size,
bank count, sets per bank and associativity.  The first three must be powers
of two, and they fix the physical-address bit fields that select the bank and
the set, which tile the address contiguously above the line-offset bits:

    | tag ... | set bits | bank bits | line offset |

Single-banked caches have no bank field; the set bits then sit directly above
the offset bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

MAX_ADDR_BITS = 48


class GeometryError(ValueError):
    """Raised for inconsistent or unknown cache geometries."""


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _log2(n: int) -> int:
    return n.bit_length() - 1


@dataclass(frozen=True)
class CacheGeometry:
    """A banked set-associative cache, given by its sizes."""

    name: str
    line_size: int
    num_banks: int
    sets_per_bank: int
    associativity: int

    def __post_init__(self):
        validate_geometry(self)

    @property
    def capacity(self) -> int:
        return self.line_size * self.num_banks * self.sets_per_bank * self.associativity

    @property
    def num_sets(self) -> int:
        """Total (bank, set) slots across all banks."""
        return self.num_banks * self.sets_per_bank

    # the derived fields are cached: bank_of and set_of read them per address
    @cached_property
    def line_shift(self) -> int:
        """addr >> line_shift is the line address."""
        return _log2(self.line_size)

    @cached_property
    def bank_bits(self) -> tuple[int, int] | None:
        """Inclusive (hi, lo) address bits that select the bank; None for one bank."""
        if self.num_banks == 1:
            return None
        return self.set_bits[1] - 1, self.line_shift

    @cached_property
    def set_bits(self) -> tuple[int, int]:
        """Inclusive (hi, lo) address bits that select the set within a bank."""
        lo = self.line_shift + _log2(self.num_banks)
        return lo + _log2(self.sets_per_bank) - 1, lo


def validate_geometry(g: CacheGeometry) -> CacheGeometry:
    """Check all structural invariants; returns g unchanged if consistent."""
    for name, value in (
        ("line_size", g.line_size),
        ("num_banks", g.num_banks),
        ("sets_per_bank", g.sets_per_bank),
    ):
        if not _is_pow2(value):
            raise GeometryError(f"{g.name}: {name} must be a power of two, got {value}")
    # the set field is at least one bit wide
    if g.sets_per_bank < 2:
        raise GeometryError(f"{g.name}: sets_per_bank must be >= 2")
    if g.associativity < 1:
        raise GeometryError(f"{g.name}: associativity must be >= 1")
    if g.capacity >= (1 << MAX_ADDR_BITS):
        raise GeometryError(f"{g.name}: capacity {g.capacity} overflows {MAX_ADDR_BITS}-bit addresses")
    return g


def bank_of(addr: int, g: CacheGeometry) -> int:
    """Bank index selected by addr; 0 for single-banked geometries."""
    return (addr >> g.line_shift) & (g.num_banks - 1)


def set_of(addr: int, g: CacheGeometry) -> int:
    """Set index within the selected bank."""
    return (addr >> g.set_bits[1]) & (g.sets_per_bank - 1)


def conflict_stride(g: CacheGeometry) -> int:
    """Smallest address increment that preserves both bank and set index.

    Equal to line_size * num_banks * sets_per_bank: one full period of the
    offset+bank+set fields, so base + k*stride always collides with base.
    """
    return g.line_size * g.num_banks * g.sets_per_bank


def _builtin_presets() -> dict[str, CacheGeometry]:
    return {
        # Niagara-class 3 MiB L2: 4 banks selected by bits 7:6, 1024 sets
        # per bank from bits 17:8, 12-way, 64 B lines.
        "t1": CacheGeometry("t1", 64, 4, 1024, 12),
        # 4 MiB follow-on: 8 banks, 16-way; bank field widened to 8:6 and the
        # set field shifted up accordingly (512 sets per bank keeps 256 KiB
        # conflict stride and 4 MiB capacity).
        "t2": CacheGeometry("t2", 64, 8, 512, 16),
        # 6 MiB per-die L2, unbanked: 4096 sets from bits 17:6, 24-way.
        "harpertown": CacheGeometry("harpertown", 64, 1, 4096, 24),
        # Tiny geometry for brute-force oracle tests: 4 KiB total.
        "toy": CacheGeometry("toy", 32, 2, 16, 4),
    }


PRESETS = _builtin_presets()


def preset(name: str) -> CacheGeometry:
    try:
        return PRESETS[name]
    except KeyError:
        raise GeometryError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def preset_names() -> list[str]:
    return sorted(PRESETS)


def _bits_to_dict(bits: tuple[int, int] | None) -> dict | None:
    return None if bits is None else {"hi": bits[0], "lo": bits[1]}


def geometry_to_dict(g: CacheGeometry) -> dict:
    d = {
        "name": g.name,
        "line_size": g.line_size,
        "num_banks": g.num_banks,
        "sets_per_bank": g.sets_per_bank,
        "associativity": g.associativity,
        "set_bits": _bits_to_dict(g.set_bits),
    }
    if g.bank_bits is not None:
        d["bank_bits"] = _bits_to_dict(g.bank_bits)
    return d


_SIZES = ("line_size", "num_banks", "sets_per_bank", "associativity")


def geometry_from_dict(d: dict) -> CacheGeometry:
    """Build and validate a geometry from its JSON form (exact field names).

    bank_bits and set_bits may be left out; when present they must equal the
    fields that the sizes give.
    """
    if not isinstance(d, dict):
        raise GeometryError(f"geometry must be an object, got {type(d).__name__}")
    for key in d:
        if key not in ("name", *_SIZES, "bank_bits", "set_bits"):
            raise GeometryError(f"unknown geometry field {json.dumps(key)}")
    for key in ("name", *_SIZES):
        if key not in d:
            raise GeometryError(f"malformed geometry description: missing field {key!r}")
    if not isinstance(d["name"], str):
        raise GeometryError(f"geometry field 'name' must be a string, got {json.dumps(d['name'])}")
    for key in _SIZES:
        # bool is an int subclass, so compare exact types
        if type(d[key]) is not int:
            raise GeometryError(
                f"geometry field {key!r} must be an integer, got {json.dumps(d[key])}"
            )
    g = CacheGeometry(d["name"], *(d[key] for key in _SIZES))
    for key in ("bank_bits", "set_bits"):
        if key in d:
            derived = _bits_to_dict(getattr(g, key))
            # compared as JSON text, so 17.0 or true does not pass for 17 or 1
            if json.dumps(d[key], sort_keys=True) != json.dumps(derived, sort_keys=True):
                raise GeometryError(
                    f"{g.name}: {key} {json.dumps(d[key])} does not match "
                    f"{json.dumps(derived)}, which line_size, num_banks and "
                    f"sets_per_bank give"
                )
    return g


def load_geometry(path: str) -> CacheGeometry:
    with open(path) as f:
        return geometry_from_dict(json.load(f))


def resolve_geometry(spec) -> CacheGeometry:
    """Accept a preset name, a path to a geometry JSON file, or an inline dict."""
    if isinstance(spec, CacheGeometry):
        return spec
    if isinstance(spec, dict):
        return geometry_from_dict(spec)
    if isinstance(spec, str):
        if spec in PRESETS:
            return PRESETS[spec]
        if spec.endswith(".json"):
            return load_geometry(spec)
        raise GeometryError(
            f"unknown preset {spec!r}; available: {', '.join(sorted(PRESETS))}"
        )
    raise GeometryError(f"cannot interpret geometry spec {spec!r}")
