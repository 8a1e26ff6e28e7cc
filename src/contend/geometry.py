"""Cache geometry descriptions and physical-address -> (bank, set) mapping.

A geometry describes a banked set-associative cache by its line size, bank
count, sets per bank, associativity, and the physical-address bit fields that
select the bank and the set.  All counts must be powers of two and the bit
fields must tile the address contiguously above the line-offset bits:

    | tag ... | set bits | bank bits | line offset |

Single-banked caches have no bank field; the set bits then sit directly above
the offset bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

MAX_ADDR_BITS = 48


class GeometryError(ValueError):
    """Raised for inconsistent or unknown cache geometries."""


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class BitRange:
    """Inclusive physical-address bit field [hi:lo], LSB = bit 0."""

    hi: int
    lo: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise GeometryError(f"invalid bit range {self.hi}:{self.lo}")
        if self.width > MAX_ADDR_BITS:
            raise GeometryError(
                f"bit range {self.hi}:{self.lo} wider than {MAX_ADDR_BITS} bits"
            )

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def extract(self, addr: int) -> int:
        return (addr >> self.lo) & ((1 << self.width) - 1)


@dataclass(frozen=True)
class CacheGeometry:
    """A banked set-associative cache; bank_bits is None for one bank."""

    name: str
    line_size: int
    num_banks: int
    sets_per_bank: int
    associativity: int
    bank_bits: BitRange | None
    set_bits: BitRange

    def __post_init__(self):
        validate_geometry(self)

    @property
    def capacity(self) -> int:
        return self.line_size * self.num_banks * self.sets_per_bank * self.associativity

    @property
    def num_sets(self) -> int:
        """Total (bank, set) slots across all banks."""
        return self.num_banks * self.sets_per_bank


def validate_geometry(g: CacheGeometry) -> CacheGeometry:
    """Check all structural invariants; returns g unchanged if consistent."""
    for name, value in (
        ("line_size", g.line_size),
        ("num_banks", g.num_banks),
        ("sets_per_bank", g.sets_per_bank),
    ):
        if not _is_pow2(value):
            raise GeometryError(f"{g.name}: {name} must be a power of two, got {value}")
    if g.associativity < 1:
        raise GeometryError(f"{g.name}: associativity must be >= 1")

    if (1 << g.set_bits.width) != g.sets_per_bank:
        raise GeometryError(
            f"{g.name}: set bits {g.set_bits.hi}:{g.set_bits.lo} encode "
            f"{1 << g.set_bits.width} sets, geometry says {g.sets_per_bank}"
        )

    if g.num_banks > 1:
        if g.bank_bits is None:
            raise GeometryError(f"{g.name}: {g.num_banks} banks but no bank bits")
        if (1 << g.bank_bits.width) != g.num_banks:
            raise GeometryError(
                f"{g.name}: bank bits {g.bank_bits.hi}:{g.bank_bits.lo} encode "
                f"{1 << g.bank_bits.width} banks, geometry says {g.num_banks}"
            )
        # offset bits end exactly where the bank field starts, and the set
        # field sits immediately above the bank field
        if g.line_size != (1 << g.bank_bits.lo):
            raise GeometryError(
                f"{g.name}: line_size {g.line_size} != 2^bank_bits.lo"
            )
        if g.set_bits.lo != g.bank_bits.hi + 1:
            raise GeometryError(
                f"{g.name}: set bits must start at bit {g.bank_bits.hi + 1}, "
                f"got {g.set_bits.lo}"
            )
    else:
        if g.bank_bits is not None:
            raise GeometryError(f"{g.name}: single-bank geometry must not set bank_bits")
        if g.line_size != (1 << g.set_bits.lo):
            raise GeometryError(
                f"{g.name}: line_size {g.line_size} != 2^set_bits.lo"
            )

    if g.capacity >= (1 << MAX_ADDR_BITS):
        raise GeometryError(f"{g.name}: capacity {g.capacity} overflows {MAX_ADDR_BITS}-bit addresses")
    return g


def bank_of(addr: int, g: CacheGeometry) -> int:
    """Bank index selected by addr; 0 for single-banked geometries."""
    return 0 if g.bank_bits is None else g.bank_bits.extract(addr)


def set_of(addr: int, g: CacheGeometry) -> int:
    """Set index within the selected bank."""
    return g.set_bits.extract(addr)


def line_of(addr: int, g: CacheGeometry) -> int:
    """Line-granular address (addr divided by the line size)."""
    return addr // g.line_size


def conflict_stride(g: CacheGeometry) -> int:
    """Smallest address increment that preserves both bank and set index.

    Equal to line_size * num_banks * sets_per_bank: one full period of the
    offset+bank+set fields, so base + k*stride always collides with base.
    """
    return g.line_size * g.num_banks * g.sets_per_bank


def _mk(name, line_size, num_banks, sets_per_bank, ways, bank_bits, set_bits):
    return CacheGeometry(name, line_size, num_banks, sets_per_bank, ways, bank_bits, set_bits)


def _builtin_presets() -> dict[str, CacheGeometry]:
    return {
        # Niagara-class 3 MiB L2: 4 banks selected by bits 7:6, 1024 sets
        # per bank from bits 17:8, 12-way, 64 B lines.
        "t1": _mk("t1", 64, 4, 1024, 12, BitRange(7, 6), BitRange(17, 8)),
        # 4 MiB follow-on: 8 banks, 16-way; bank field widened to 8:6 and the
        # set field shifted up accordingly (512 sets per bank keeps 256 KiB
        # conflict stride and 4 MiB capacity).
        "t2": _mk("t2", 64, 8, 512, 16, BitRange(8, 6), BitRange(17, 9)),
        # 6 MiB per-die L2, unbanked: 4096 sets from bits 17:6, 24-way.
        "harpertown": _mk("harpertown", 64, 1, 4096, 24, None, BitRange(17, 6)),
        # Tiny geometry for brute-force oracle tests: 4 KiB total.
        "toy": _mk("toy", 32, 2, 16, 4, BitRange(5, 5), BitRange(9, 6)),
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


def geometry_to_dict(g: CacheGeometry) -> dict:
    d = {
        "name": g.name,
        "line_size": g.line_size,
        "num_banks": g.num_banks,
        "sets_per_bank": g.sets_per_bank,
        "associativity": g.associativity,
        "set_bits": {"hi": g.set_bits.hi, "lo": g.set_bits.lo},
    }
    if g.bank_bits is not None:
        d["bank_bits"] = {"hi": g.bank_bits.hi, "lo": g.bank_bits.lo}
    return d


def geometry_from_dict(d: dict) -> CacheGeometry:
    """Build and validate a geometry from its JSON form (exact field names)."""
    try:
        bank_bits = d.get("bank_bits")
        g = CacheGeometry(
            name=d["name"],
            line_size=int(d["line_size"]),
            num_banks=int(d["num_banks"]),
            sets_per_bank=int(d["sets_per_bank"]),
            associativity=int(d["associativity"]),
            bank_bits=BitRange(int(bank_bits["hi"]), int(bank_bits["lo"])) if bank_bits else None,
            set_bits=BitRange(int(d["set_bits"]["hi"]), int(d["set_bits"]["lo"])),
        )
    except GeometryError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise GeometryError(f"malformed geometry description: {e}") from e
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
