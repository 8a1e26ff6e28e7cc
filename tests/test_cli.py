import json
import os
import subprocess
import sys

import pytest

from contend import simulator
from contend.cli import main
from contend.experiment import (
    ConfigError,
    experiment_from_dict,
    experiment_to_dict,
    load_experiment,
)
from contend.geometry import conflict_stride, preset

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
TOY_DEMO = os.path.join(CONFIGS, "toy_demo.json")
T1_WORSTCASE = os.path.join(CONFIGS, "t1_worstcase.json")


def toy_config_dict(**overrides):
    d = {
        "name": "unit",
        "geometry": "toy",
        "sim": {"per_thread_event_budget": 800},
        "primary": {"generator": "stream", "kind": "triad", "n_elems": 32},
        "secondaries": [
            {"generator": "offchip", "threads": 2, "array_bytes": 2048},
        ],
    }
    d.update(overrides)
    return d


# ---------------------------------------------------------------------------
# experiment loading


def test_experiment_basic_shape():
    cfg = experiment_from_dict(toy_config_dict())
    assert cfg.name == "unit"
    assert cfg.geometry == preset("toy")
    assert cfg.primary.name == "primary"
    assert [s.name for s in cfg.secondaries] == ["harm.offchip"]
    assert cfg.sim.per_thread_event_budget == 800


def test_secondaries_rebased_above_primary():
    cfg = experiment_from_dict(toy_config_dict())
    stride = conflict_stride(cfg.geometry)
    p_end = cfg.primary.end_address()
    for s in cfg.secondaries:
        for lo, hi in s.arenas():
            assert lo >= p_end
            assert lo % stride == 0


def test_duplicate_secondary_names_rejected():
    d = toy_config_dict(secondaries=[
        {"generator": "offchip", "threads": 1, "array_bytes": 2048},
        {"generator": "offchip", "threads": 2, "array_bytes": 2048},
    ])
    with pytest.raises(ConfigError) as ei:
        experiment_from_dict(d)
    assert "duplicate" in str(ei.value)


def test_reserved_secondary_names_rejected():
    d = toy_config_dict(secondaries=[
        {"generator": "offchip", "threads": 1, "array_bytes": 2048, "name": "idle"},
    ])
    with pytest.raises(ConfigError):
        experiment_from_dict(d)


def test_unknown_generator_rejected():
    with pytest.raises(ConfigError):
        experiment_from_dict(toy_config_dict(primary={"generator": "wrecker"}))


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError):
        experiment_from_dict(toy_config_dict(sim={"latency": 3}))
    with pytest.raises(ConfigError):
        experiment_from_dict(toy_config_dict(extra=1))
    with pytest.raises(ConfigError):
        experiment_from_dict(toy_config_dict(
            primary={"generator": "stream", "kind": "triad", "n_elems": 8, "surprise": 1}
        ))


def test_missing_primary_rejected():
    d = toy_config_dict()
    del d["primary"]
    with pytest.raises(ConfigError):
        experiment_from_dict(d)


def test_pin_targets_must_exist():
    d = toy_config_dict(native={"pins": {"ghost": [0]}})
    with pytest.raises(ConfigError):
        experiment_from_dict(d)


def test_literal_workload_form():
    d = toy_config_dict(primary={
        "name": "anything",       # renamed on load
        "threads": [
            {"pattern": {"variant": "StreamKernel", "kind": "copy",
                         "n_elems": 16, "elem_bytes": 8}, "arena_base": 0},
        ],
    })
    cfg = experiment_from_dict(d)
    assert cfg.primary.name == "primary"
    assert cfg.primary.threads[0].pattern.kind == "copy"


def test_emitted_config_reparses_to_equal_value():
    cfg = experiment_from_dict(toy_config_dict())
    again = experiment_from_dict(experiment_to_dict(cfg))
    assert again == cfg
    assert experiment_to_dict(again) == experiment_to_dict(cfg)


def test_bundled_configs_load():
    for name in ("toy_demo.json", "t1_worstcase.json", "xeon_same_die.json",
                 "xeon_same_chip.json", "xeon_interleaved.json"):
        cfg = load_experiment(os.path.join(CONFIGS, name))
        assert cfg.primary.name == "primary"
        assert cfg.secondaries


def test_load_rejects_missing_and_invalid_files(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_experiment(str(bad))


# ---------------------------------------------------------------------------
# CLI surface


def test_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("t1", "t2", "harpertown", "toy"):
        assert name in out


def test_preset_shows_fields(capsys):
    assert main(["preset", "t1"]) == 0
    out = capsys.readouterr().out
    assert "capacity: 3145728" in out
    assert "conflict_stride: 262144" in out
    assert "bank_bits: 7:6" in out


PRESET_OUTPUT = {
    "list": """\
harpertown: 6291456 B, 1 banks x 4096 sets x 24 ways, 64 B lines
t1: 3145728 B, 4 banks x 1024 sets x 12 ways, 64 B lines
t2: 4194304 B, 8 banks x 512 sets x 16 ways, 64 B lines
toy: 4096 B, 2 banks x 16 sets x 4 ways, 32 B lines
""",
    "t1": """\
name: t1
line_size: 64
num_banks: 4
sets_per_bank: 1024
associativity: 12
bank_bits: 7:6
set_bits: 17:8
capacity: 3145728
conflict_stride: 262144
""",
    "t2": """\
name: t2
line_size: 64
num_banks: 8
sets_per_bank: 512
associativity: 16
bank_bits: 8:6
set_bits: 17:9
capacity: 4194304
conflict_stride: 262144
""",
    "harpertown": """\
name: harpertown
line_size: 64
num_banks: 1
sets_per_bank: 4096
associativity: 24
bank_bits: none (single bank)
set_bits: 17:6
capacity: 6291456
conflict_stride: 262144
""",
    "toy": """\
name: toy
line_size: 32
num_banks: 2
sets_per_bank: 16
associativity: 4
bank_bits: 5:5
set_bits: 9:6
capacity: 4096
conflict_stride: 1024
""",
}


@pytest.mark.parametrize("name", sorted(PRESET_OUTPUT))
def test_preset_output_frozen(capsys, name):
    assert main(["preset", name]) == 0
    assert capsys.readouterr().out == PRESET_OUTPUT[name]


def test_preset_unknown_exits_2(capsys):
    assert main(["preset", "bogus"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_gen_trace_to_stdout(capsys):
    assert main(["gen", TOY_DEMO, "--workload", "harm.offchip", "--limit", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "thread,seq,op,address"
    assert len(lines) == 1 + 2 * 4            # two walker threads
    for row in lines[1:]:
        thread, seq, op, addr = row.split(",")
        assert op in ("r", "w")
        assert int(addr, 16) >= 0


def test_gen_unknown_workload_exits_2(capsys):
    assert main(["gen", TOY_DEMO, "--workload", "ghost"]) == 2
    assert "ghost" in capsys.readouterr().err


def test_gen_negative_limit_exits_2(tmp_path, capsys):
    assert main(["gen", TOY_DEMO, "--limit", "-1"]) == 2
    assert "error: limit must be >= 0" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["--out", str(out), "gen", TOY_DEMO, "--limit", "-1"]) == 2
    assert "error: limit must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_gen_into_closed_pipe_exits_0():
    # the reader stops after one line, like `contend gen ... | head -1`
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "contend.cli", "gen", TOY_DEMO, "--limit", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"thread,seq,op,address\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_missing_config_exits_2(capsys):
    assert main(["sim", "/nonexistent/exp.json"]) == 2


def test_sim_writes_csv_with_schema(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sim", TOY_DEMO]) == 0
    text = (tmp_path / "toy_demo_sim.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == ("workload,accesses,hits,misses,mpka,lines_fetched,"
                        "elapsed_cycles,bandwidth_share,normalized_performance")
    byname = {row.split(",")[0]: row.split(",") for row in lines[1:]}
    assert byname["primary@idle"][-1] == "1.000000"
    assert "primary@harm.offchip" in byname
    assert "harm.offchip@primary" in byname
    summary = capsys.readouterr().out
    assert "idle" in summary and "1.000000" in summary


def test_run_sim_twice_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "run", TOY_DEMO, "--mode", "sim"]) == 0
    assert main(["--out", str(out2), "run", TOY_DEMO, "--mode", "sim"]) == 0
    a = (out1 / "toy_demo_sim.csv").read_bytes()
    b = (out2 / "toy_demo_sim.csv").read_bytes()
    assert a == b


def test_json_format(tmp_path):
    assert main(["--out", str(tmp_path), "--format", "json", "sim", TOY_DEMO]) == 0
    rows = json.loads((tmp_path / "toy_demo_sim.json").read_text())
    assert rows[0]["workload"] == "primary@idle"
    assert rows[0]["normalized_performance"] == "1.000000"


def test_duplicate_secondaries_config_exits_2(tmp_path, capsys):
    cfg = toy_config_dict(secondaries=[
        {"generator": "offchip", "threads": 1, "array_bytes": 2048},
        {"generator": "offchip", "threads": 1, "array_bytes": 2048},
    ])
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--mode", "sim"]) == 2
    assert "duplicate" in capsys.readouterr().err


# the probes behind the runaway guard: both once ran until they were killed
RUNAWAY_CONFIGS = [
    pytest.param({"sim": {"per_thread_event_budget": 5000},
                  "secondaries": [{"generator": "onchip", "threads": 100000}]},
                 "refusing to simulate 1000010000 events with line feeds of up to "
                 "983060000 bytes (49153 distinct patterns x budget 5000 x 4 B)",
                 id="onchip-100000-threads"),
    # one thread each, so that the loader's bound on a generator's threads
    # x budget lets it through to the plan's bound
    pytest.param({"sim": {"per_thread_event_budget": 2 * 10**9},
                  "secondaries": [{"generator": "offchip", "threads": 1}]},
                 "refusing to simulate 8000000000 events",
                 id="budget-2e9"),
]


@pytest.mark.parametrize("override, message", RUNAWAY_CONFIGS)
def test_runaway_config_refused_before_any_loop(tmp_path, capsys, monkeypatch,
                                                override, message):
    def never(*args):
        raise AssertionError("a runaway config reached a feed or a loop")

    for name in ("_line_feed", "_run_compiled", "_run"):
        monkeypatch.setattr(simulator, name, never)
    p = tmp_path / "runaway.json"
    p.write_text(json.dumps(toy_config_dict(
        geometry="t1", primary={"generator": "stream", "kind": "triad", "n_elems": 1024},
        **override)))
    assert main(["run", str(p), "--mode", "sim"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "the bounds are 4294967296 events and 268435456 bytes" in err


def test_large_plan_estimated_on_stderr(tmp_path, capsys, monkeypatch):
    p = tmp_path / "toy.json"
    p.write_text(json.dumps(toy_config_dict()))
    csv = tmp_path / "out" / "unit_sim.csv"
    runs = []
    for threshold in (simulator.ESTIMATE_EVENTS, 4799, 4800):
        monkeypatch.setattr(simulator, "ESTIMATE_EVENTS", threshold)
        assert main(["--seed", "1", "--out", str(tmp_path / "out"), "sim", str(p)]) == 0
        runs.append((capsys.readouterr(), csv.read_bytes()))
    (quiet, quiet_csv), (loud, loud_csv), (at, _) = runs
    # the triad alone, with the two off-chip walkers, and the walkers alone:
    # (1 + 3 + 2) threads x 800 events; the triad and one shared walk x 800 x 4 B
    assert loud.err == ("contend: simulating 4800 events with line feeds of up to 6400 "
                        "bytes (2 distinct patterns x budget 800 x 4 B)\n")
    assert quiet.err == at.err == ""
    assert (loud.out, loud_csv) == (quiet.out, quiet_csv)


TOY_GEOMETRY = {"name": "toy", "line_size": 32, "num_banks": 2, "sets_per_bank": 16,
                "associativity": 4}

# mistyped or unsafe fields that must be refused before anything is written
UNWRITABLE_CONFIGS = [
    ({"geometry": {**TOY_GEOMETRY, "associativity": 12.9}},
     "geometry field 'associativity' must be an integer, got 12.9"),
    ({"geometry": {**TOY_GEOMETRY, "associativity": True}},
     "geometry field 'associativity' must be an integer, got true"),
    ({"geometry": {**TOY_GEOMETRY, "line_size": "64"}},
     "geometry field 'line_size' must be an integer, got \"64\""),
    ({"geometry": {**TOY_GEOMETRY, "name": 7}},
     "geometry field 'name' must be a string, got 7"),
    ({"geometry": {**TOY_GEOMETRY, "bank_bits": {"hi": 6, "lo": 5}}},
     "toy: bank_bits {\"hi\": 6, \"lo\": 5} does not match {\"hi\": 5, \"lo\": 5}"),
    ({"native": {"hugepages": "no"}},
     "unknown native fields ['hugepages']"),
    ({"native": {"duration": True}},
     "native field 'duration' must be a number, got true"),
    ({"name": "../../escape"},
     "experiment name \"../../escape\" is not usable in a file name"),
    ({"geometry": {**TOY_GEOMETRY, "bank_bit": {"hi": 5, "lo": 5}}},
     "unknown geometry fields ['bank_bit']"),
    ({"primary": {"name": "p", "threads": [{"pattern": {
        "variant": "StreamKernel", "kind": "triad", "n_elems": 8}, "cpu_hint": "x"}]}},
     "unknown thread fields ['cpu_hint']"),
    ({"primary": {"name": "p", "threads": [{"pattern": {
        "variant": "StreamKernel", "kind": "triad", "n_elems": 8}, "cpu_hint": True}]}},
     "unknown thread fields ['cpu_hint']"),
]


def _literal(pattern, **thread):
    return {"primary": {"name": "p", "threads": [{"pattern": pattern, **thread}]}}


WALK = {"variant": "StridedWalk", "arena_bytes": 4096, "stride_bytes": 64}
# literal workloads with a float in an integer field or a field nobody reads
MALFORMED_LITERALS = [
    (_literal({**WALK, "arena_bytes": 4096.0}),
     "StridedWalk field 'arena_bytes' must be an integer, got 4096.0"),
    (_literal({**WALK, "start_offset": True}),
     "StridedWalk field 'start_offset' must be an integer, got true"),
    (_literal({"variant": "StreamKernel", "kind": "triad", "n_elems": 16.0}),
     "StreamKernel field 'n_elems' must be an integer, got 16.0"),
    (_literal({"variant": "SharedWalk", "arena": "shared", "arena_bytes": 4096,
               "stride_bytes": 64, "start_offset": 0}),
     "unknown pattern variant 'SharedWalk'"),
    (_literal({**WALK, "arena": "shared"}),
     "unknown StridedWalk fields ['arena']"),
    (_literal(WALK, cpu=0),
     "unknown thread fields ['cpu']"),
    ({"primary": {"name": "p", "threads": [{"pattern": WALK}],
                  "shared_arenas": {"shared": 0}}},
     "unknown workload fields ['shared_arenas']"),
]


# well-formed JSON that no command may accept
REFUSED_VALUES = [
    ({"name": 5}, "experiment field 'name' must be a string, got 5"),
    ({"secondaries": [{"generator": "onchip", "threads": 1, "name": None}]},
     "generator 'onchip' field 'name' must be a string, got null"),
    ({"secondaries": [{"generator": "offchip", "threads": 1, "array_bytes": 2048,
                       "stride": 0}]},
     "unknown generator 'offchip' fields ['stride']"),
    (_literal({"variant": "StreamKernel", "kind": "triad", "n_elems": 8}, arena_base=-4096),
     "an arena of 'primary' spans bytes [-4096, -3904), outside [0, 2**63)"),
    (_literal({"variant": "StreamKernel", "kind": "triad", "n_elems": 8}, arena_base=2**70),
     f"an arena of 'primary' spans bytes [{2**70}, {2**70 + 192}), outside [0, 2**63)"),
    (_literal(WALK, cpu_hint=-1),
     "unknown thread fields ['cpu_hint']"),
    ({"secondaries": [{"generator": ["offchip"], "threads": 1}]},
     "unknown generator ['offchip']"),
    ({"secondaries": [{"generator": "onchip", "threads": 2**70}]},
     f"refusing generator 'onchip': {2**70} threads x budget 800 is {2**70 * 800} events, "
     f"past the bound of 4294967296 events"),
    # 5368710 x 800 is the first multiple of the toy budget past 2**32
    ({"secondaries": [{"generator": "offchip", "threads": 5368710, "array_bytes": 2048}]},
     "refusing generator 'offchip': 5368710 threads x budget 800 is 4294968000 events"),
    # the off-chip generator's default of 15 threads
    ({"sim": {"per_thread_event_budget": 300000000},
      "secondaries": [{"generator": "offchip", "array_bytes": 2048}]},
     "refusing generator 'offchip': 15 threads x budget 300000000 is 4500000000 events"),
    ({"sim": {"record_hit_miss": True}}, "unknown sim fields ['record_hit_miss']"),
    ({"native": {"pins": {"primary": []}}},
     "native field 'pins' must map workload names to non-empty lists of cpu numbers >= 0, "
     "got \"primary\": []"),
    ({"native": {"pins": {"harm.offchip": [0, -1]}}},
     "native field 'pins' must map workload names to non-empty lists of cpu numbers >= 0, "
     "got \"harm.offchip\": [0, -1]"),
]


@pytest.mark.parametrize("override, message", [
    ({"secondaries": [{"generator": "offchip", "array_bytes": 4096.0}]},
     "generator 'offchip' field 'array_bytes' must be an integer, got 4096.0"),
    ({"secondaries": [{"generator": "onchip", "threads": "2"}]},
     "generator 'onchip' field 'threads' must be an integer, got \"2\""),
    ({"sim": {"hit_latency": True}},
     "sim field 'hit_latency' must be an integer, got true"),
    ({"primary": {"name": "p", "threads": [{"pattern": {
        "variant": "StreamKernel", "kind": "triad", "n_elems": 8}, "arena_base": "abc"}]}},
     "thread field 'arena_base' must be an integer, got \"abc\""),
    ({"primary": {"name": "p", "threads": [{"pattern": {
        "variant": "StreamKernel", "kind": "triad", "n_elems": 8}, "arena_base": 4096.5}]}},
     "thread field 'arena_base' must be an integer, got 4096.5"),
    ({"secondaries": {"a": {"generator": "onchip", "threads": 2}}},
     "experiment field 'secondaries' must be a list, got "
     "{\"a\": {\"generator\": \"onchip\", \"threads\": 2}}"),
    *UNWRITABLE_CONFIGS,
    ({"primary": {"name": "p", "threads": [{"pattern": {
        "variant": "StreamKernel", "kind": "triad", "n_elems": 8}, "arena_base": 2**70}]}},
     f"an arena of 'primary' spans bytes [{2**70}, {2**70 + 192}), outside [0, 2**63)"),
    *MALFORMED_LITERALS,
])
def test_mistyped_config_field_exits_2(tmp_path, capsys, override, message):
    p = tmp_path / "typed.json"
    p.write_text(json.dumps(toy_config_dict(**override)))
    assert main(["sim", str(p)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("override, message",
                         UNWRITABLE_CONFIGS + MALFORMED_LITERALS + REFUSED_VALUES)
@pytest.mark.parametrize("cmd", ["sim", "emit-config", "gen"])
def test_refused_config_writes_nothing(tmp_path, capsys, cmd, override, message):
    p = tmp_path / "cfg" / "typed.json"
    p.parent.mkdir()
    p.write_text(json.dumps(toy_config_dict(**override)))
    out = tmp_path / "a" / "b" / "out"
    assert main(["--out", str(out), cmd, str(p)]) == 2
    assert message in capsys.readouterr().err
    assert [q for q in tmp_path.rglob("*") if q.is_file()] == [p]
    assert not (tmp_path / "a").exists()


def test_unsafe_workload_name_refused():
    d = toy_config_dict(secondaries=[{"generator": "onchip", "threads": 1, "name": "x/y"}])
    with pytest.raises(ConfigError, match='workload name "x/y" is not usable'):
        experiment_from_dict(d)


def test_native_fields_keep_their_values():
    d = toy_config_dict(native={"duration": 2, "pins": {"primary": [0]}})
    cfg = experiment_from_dict(d)
    assert (cfg.native.duration, cfg.primary.cpus) == (2.0, (0,))
    with pytest.raises(ConfigError, match="native field 'pins'"):
        experiment_from_dict(toy_config_dict(native={"pins": {"primary": ["0"]}}))


def _keys(value):
    """Every object key anywhere in a parsed JSON value."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


def test_emit_config_round_trip(tmp_path, capsys):
    names = sorted(n for n in os.listdir(CONFIGS) if n.endswith(".json"))
    assert names
    for name in names:
        config = os.path.join(CONFIGS, name)
        assert main(["emit-config", config]) == 0
        emitted = json.loads(capsys.readouterr().out)
        # fields that repeat another one or change no output are not written
        assert not _keys(emitted) & {"cpu_hint", "stride", "hugepages", "record_hit_miss"}
        p = tmp_path / name
        p.write_text(json.dumps(emitted))
        assert load_experiment(str(p)) == load_experiment(config), name


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name", sorted(n[:-len(".json")] for n in os.listdir(CONFIGS)
                                        if n.endswith(".json")))
def test_emit_config_matches_golden(tmp_path, capsys, name):
    assert main(["--out", str(tmp_path), "emit-config", os.path.join(CONFIGS, f"{name}.json")]) == 0
    with open(os.path.join(GOLDEN, f"{name}_resolved.json"), "rb") as fh:
        assert (tmp_path / f"{name}_resolved.json").read_bytes() == fh.read()


def test_seed_reseeds_bucket_sort(tmp_path, capsys):
    cfg = toy_config_dict(primary={"generator": "bucketsort", "n_keys": 16,
                                   "n_buckets": 2, "iterations": 1})
    p = tmp_path / "bs.json"
    p.write_text(json.dumps(cfg))
    def trace(args):
        assert main(args) == 0
        return capsys.readouterr().out
    one = trace(["--seed", "1", "gen", str(p), "--limit", "66"])
    one_again = trace(["--seed", "1", "gen", str(p), "--limit", "66"])
    two = trace(["--seed", "2", "gen", str(p), "--limit", "66"])
    unseeded = trace(["gen", str(p), "--limit", "66"])
    assert one == one_again
    assert one != two
    assert unseeded != one          # config seed stands when --seed is absent


def test_native_refused_on_unsuitable_host_without_flag(capsys):
    # this sandbox exposes a single usable cpu and the config has no pin map,
    # so the hardware check must refuse with exit 3 and say why
    import contend.native as native
    if len(native.available_cpus()) >= 2:
        pytest.skip("host has multiple cpus; refusal path not triggered here")
    assert main(["run", TOY_DEMO, "--mode", "native"]) == 3
    err = capsys.readouterr().err
    assert "hardware check" in err
    assert "refusing" in err


def test_native_forced_run_reports_skip(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "run", TOY_DEMO, "--mode", "native",
               "--skip-hw-checks", "--duration", "0.05"])
    assert rc == 0
    captured = capsys.readouterr()
    text = (tmp_path / "toy_demo_native.csv").read_text()
    lines = text.splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == ("workload,threads,passes,bytes_touched,elapsed_s,"
                      "bandwidth_bytes_per_s,normalized_bandwidth")
    # the skip (or pass) verdict is recorded in the file, never silent
    assert any(l.startswith("# hw_checks:") for l in lines)
    rows = [l for l in lines if l.startswith("primary@idle,")]
    assert rows and rows[0].endswith("1.000000")


def test_native_pin_outside_mask_exits_2(tmp_path, capsys):
    from contend import native
    if not native.pinning_supported():
        pytest.skip("no cpu pinning on this host")
    cpu = max(native.available_cpus()) + 1
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(toy_config_dict(native={"pins": {"harm.offchip": [cpu]}})))
    out = tmp_path / "out"
    rc = main(["--out", str(out), "native", str(p), "--skip-hw-checks", "--duration", "0.05"])
    assert rc == 2
    assert f"pinned cpu {cpu} not in usable set" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_native_runs_what_sim_accepts(tmp_path, capsys):
    # a walk at arena_base 32 is line-aligned on the toy geometry's 32-byte
    # lines; native allocates its own page-aligned arenas
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(toy_config_dict(
        **_literal({**WALK, "arena_bytes": 1024, "stride_bytes": 32}, arena_base=32))))
    assert main(["sim", str(p)]) == 0
    assert main(["native", str(p), "--skip-hw-checks", "--duration", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "primary@harm.offchip," in out
