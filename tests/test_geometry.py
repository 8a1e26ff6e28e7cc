import json
import random

import pytest

from contend.geometry import (
    CacheGeometry,
    GeometryError,
    bank_of,
    conflict_stride,
    geometry_from_dict,
    geometry_to_dict,
    load_geometry,
    preset,
    preset_names,
    resolve_geometry,
    set_of,
    validate_geometry,
)


def test_preset_names():
    assert preset_names() == ["harpertown", "t1", "t2", "toy"]


def test_preset_capacities():
    assert preset("t1").capacity == 3 * 1024 * 1024
    assert preset("t2").capacity == 4 * 1024 * 1024
    assert preset("harpertown").capacity == 6 * 1024 * 1024
    assert preset("toy").capacity == 4096


def test_unknown_preset():
    with pytest.raises(GeometryError):
        preset("bogus")


def test_t1_field_layout():
    g = preset("t1")
    assert (g.line_size, g.num_banks, g.sets_per_bank, g.associativity) == (64, 4, 1024, 12)
    assert g.bank_bits == (7, 6)
    assert g.set_bits == (17, 8)


def test_harpertown_single_bank():
    g = preset("harpertown")
    assert g.num_banks == 1
    assert g.bank_bits is None
    assert g.set_bits == (17, 6)
    assert bank_of(0xDEADBEEF, g) == 0


def test_mapping_hand_values():
    g = preset("t1")
    # bits 7:6 of 0xC0 are 0b11; bits 17:8 of 0x100 are 1
    assert bank_of(0xC0, g) == 3
    assert set_of(0xC0, g) == 0
    assert set_of(0x100, g) == 1
    assert bank_of(0x100, g) == 0
    # 0x12345678: bank = bits 7:6 of 0x78 = 1; set = 0x123456 & 0x3ff = 86
    assert bank_of(0x12345678, g) == 1
    assert set_of(0x12345678, g) == 86


def test_conflict_strides():
    assert conflict_stride(preset("t1")) == 256 * 1024
    assert conflict_stride(preset("t2")) == 256 * 1024
    assert conflict_stride(preset("harpertown")) == 256 * 1024
    assert conflict_stride(preset("toy")) == 1024


def test_stride_preserves_mapping():
    rng = random.Random(99)
    for name in preset_names():
        g = preset(name)
        stride = conflict_stride(g)
        for _ in range(200):
            base = rng.randrange(0, 1 << 40)
            b0, s0 = bank_of(base, g), set_of(base, g)
            for k in (1, 2, 7, 31):
                a = base + k * stride
                assert bank_of(a, g) == b0
                assert set_of(a, g) == s0


def test_one_period_covers_every_pair():
    # walking one conflict-stride period line by line hits every (bank, set)
    for name in ("toy", "t1"):
        g = preset(name)
        pairs = set()
        for addr in range(0, conflict_stride(g), g.line_size):
            pairs.add((bank_of(addr, g), set_of(addr, g)))
        assert len(pairs) == g.num_banks * g.sets_per_bank


def test_capacity_formula():
    g = preset("toy")
    assert g.capacity == 32 * 2 * 16 * 4
    assert g.num_sets == 32


def test_validate_rejects_non_power_of_two():
    with pytest.raises(GeometryError):
        CacheGeometry("x", 48, 4, 1024, 12)
    with pytest.raises(GeometryError):
        CacheGeometry("x", 64, 3, 1024, 12)
    with pytest.raises(GeometryError):
        CacheGeometry("x", 64, 4, 1000, 12)


def test_validate_rejects_one_set_per_bank():
    # a set field is at least one bit wide
    with pytest.raises(GeometryError):
        CacheGeometry("x", 64, 4, 1, 12)


def test_validate_rejects_inconsistent_bits():
    for name, key, bits in [
        # set field one bit too narrow for 1024 sets
        ("t1", "set_bits", {"hi": 16, "lo": 8}),
        # bank field not directly above the line offset
        ("t1", "bank_bits", {"hi": 8, "lo": 7}),
        # set field not directly above the bank field
        ("t1", "set_bits", {"hi": 18, "lo": 9}),
        # a single-bank cache has no bank field at all
        ("harpertown", "bank_bits", {"hi": 6, "lo": 6}),
        # null where the cache has banks
        ("t1", "bank_bits", None),
        # the right numbers, but not as JSON integers
        ("t1", "set_bits", {"hi": 17.0, "lo": 8}),
    ]:
        d = geometry_to_dict(preset(name))
        d[key] = bits
        with pytest.raises(GeometryError, match=f"{name}: {key} "):
            geometry_from_dict(d)


def test_geometry_without_bit_fields_loads_as_preset():
    for name in preset_names():
        d = geometry_to_dict(preset(name))
        del d["set_bits"]
        d.pop("bank_bits", None)
        assert geometry_from_dict(d) == preset(name)


def test_validate_geometry_passes_presets():
    for name in preset_names():
        validate_geometry(preset(name))


def test_json_round_trip(tmp_path):
    for name in preset_names():
        g = preset(name)
        assert geometry_from_dict(geometry_to_dict(g)) == g
    p = tmp_path / "geom.json"
    p.write_text(json.dumps(geometry_to_dict(preset("t2"))))
    assert load_geometry(str(p)) == preset("t2")


def test_resolve_geometry_forms(tmp_path):
    assert resolve_geometry("t1") == preset("t1")
    assert resolve_geometry(geometry_to_dict(preset("toy"))) == preset("toy")
    p = tmp_path / "g.json"
    p.write_text(json.dumps(geometry_to_dict(preset("harpertown"))))
    assert resolve_geometry(str(p)) == preset("harpertown")
    with pytest.raises(GeometryError):
        resolve_geometry("no_such_preset_or_file")


def test_geometry_from_dict_rejects_junk():
    d = geometry_to_dict(preset("t1"))
    d["sets_per_bank"] = "many"
    with pytest.raises(GeometryError):
        geometry_from_dict(d)
    with pytest.raises(GeometryError):
        geometry_from_dict({"name": "x"})
