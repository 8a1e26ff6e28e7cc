"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also fails loudly through a plain assert.  The native direction
check is environment-sensitive: it needs at least two usable cpus and is
skipped (with the reason printed, never silently) on hosts without them or
when CONTEND_SKIP_HW_CHECKS is set.
"""

import json
import os
import random
import statistics
import time
from dataclasses import replace

import pytest

from contend.cli import main
from contend.experiment import load_experiment
from contend.geometry import bank_of, conflict_stride, preset, set_of
from contend.native import available_cpus, co_run, run_native
from contend.patterns import (
    BucketSort,
    StreamKernel,
    StridedWalk,
    ThreadSpec,
    WorkloadSpec,
    gen_offchip_antagonist,
    gen_onchip_antagonist,
    gen_stream,
    iter_ops,
)
from contend.simulator import (
    LruBankedCache,
    SimConfig,
    interference_report,
    simulate,
)
from oracle import lru_reference

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
BUNDLED = sorted(f for f in os.listdir(CONFIGS) if f.endswith(".json"))


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _skip(criterion: str, reason: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: SKIP ({reason})")
    pytest.skip(reason)


# ---------------------------------------------------------------------------
# 1. conflict-stride oracle


def test_stride_oracle_constancy():
    t0 = time.perf_counter()
    failures = 0
    checked = 0
    for name in ("t1", "harpertown"):
        g = preset(name)
        stride = conflict_stride(g)
        rng = random.Random(0xACCE55)
        for _ in range(10_000):
            base = rng.randrange(0, 1 << 44)
            b0, s0 = bank_of(base, g), set_of(base, g)
            for k in range(32):
                a = base + k * stride
                checked += 1
                if bank_of(a, g) != b0 or set_of(a, g) != s0:
                    failures += 1
    dt = time.perf_counter() - t0
    _verdict(
        "stride-oracle",
        failures == 0 and dt < 1.0,
        f"{checked} mappings, {failures} failures, {dt:.3f}s",
    )


# ---------------------------------------------------------------------------
# 2. preset capacities


def test_preset_capacities_exact():
    got = {n: preset(n).capacity for n in ("t1", "t2", "harpertown")}
    want = {"t1": 3 * 2**20, "t2": 4 * 2**20, "harpertown": 6 * 2**20}
    _verdict("capacities", got == want, f"{got}")


# ---------------------------------------------------------------------------
# 3. whole-cache walker coverage (brute force on the toy geometry)


def test_onchip_coverage_exact():
    g = preset("toy")
    w = gen_onchip_antagonist(g, 3)
    deviations = 0
    for ti, t in enumerate(w.threads):
        lines_per_pair = {}
        for _, addr in iter_ops(w, ti, t.pattern.pass_length):
            pair = (bank_of(addr, g), set_of(addr, g))
            lines_per_pair.setdefault(pair, set()).add(addr // g.line_size)
        if len(lines_per_pair) != g.num_banks * g.sets_per_bank:
            deviations += 1
        deviations += sum(
            1 for lines in lines_per_pair.values() if len(lines) != g.associativity
        )
    _verdict(
        "onchip-coverage",
        deviations == 0,
        f"{len(w.threads)} walkers x {g.num_banks * g.sets_per_bank} pairs, "
        f"{g.associativity} lines each, {deviations} deviations",
    )


# ---------------------------------------------------------------------------
# 4. replacement policy vs independent reference


def test_lru_matches_reference():
    g = preset("toy")
    rng = random.Random(0x17)
    traces = 0
    # functional engine on random address traces
    for _ in range(100):
        n = rng.randrange(1_000, 10_001)
        trace = [("w" if rng.random() < 0.3 else "r", rng.randrange(0, 1 << 14) * 8)
                 for _ in range(n)]
        cache = LruBankedCache(g)
        got = [cache.access(a, op == "w")[0] for op, a in trace]
        assert got == lru_reference(trace, g)
        traces += 1
    # full simulator on generated single-thread workloads
    for seed in range(20):
        r2 = random.Random(seed)
        pattern = r2.choice([
            StreamKernel(r2.choice(["copy", "scale", "add", "triad"]),
                         r2.randrange(8, 512)),
            StridedWalk(r2.choice([1024, 4096, 8192]), r2.choice([32, 64, 1024]),
                        op_mix=r2.choice(["read", "write", "readwrite"])),
            BucketSort(r2.randrange(16, 400), r2.randrange(2, 16), seed=seed),
        ])
        w = WorkloadSpec("w", (ThreadSpec(pattern),))
        budget = r2.randrange(500, 5_000)
        cfg = SimConfig(geometry=g, mc_service_interval=r2.randrange(1, 20),
                        per_thread_event_budget=budget, record_hit_miss=True)
        res = simulate([w], cfg)
        trace = list(iter_ops(w, 0, budget))
        assert res.hit_miss["w"][0] == lru_reference(trace, g)
        traces += 1
    _verdict("lru-oracle", True, f"{traces} traces, all hit/miss sequences identical")


# ---------------------------------------------------------------------------
# 5. conservation and bandwidth ceiling


def test_conservation_and_bandwidth_ceiling():
    g = preset("toy")
    checked = 0
    for seed in range(100):
        rng = random.Random(seed)
        a = WorkloadSpec("a", (
            ThreadSpec(StreamKernel(rng.choice(["copy", "scale", "add", "triad"]),
                                    rng.randrange(8, 256))),
        ))
        b = WorkloadSpec("b", (
            ThreadSpec(StridedWalk(rng.choice([1024, 2048, 8192]),
                                   rng.choice([32, 1024]),
                                   op_mix=rng.choice(["read", "write", "readwrite"])),
                       65536),
            ThreadSpec(StreamKernel("triad", rng.randrange(8, 64)), 131072),
        ))
        cfg = SimConfig(
            geometry=g,
            hit_latency=rng.randrange(1, 6),
            mem_latency=rng.randrange(10, 150),
            mc_service_interval=rng.randrange(1, 40),
            writeback_counts_as_slot=rng.random() < 0.5,
            per_thread_event_budget=rng.randrange(200, 1500),
        )
        res = simulate([a, b], cfg)
        expected_mc = 0
        for m in res.workloads:
            assert m.hits + m.misses == m.accesses
            expected_mc += m.lines_fetched
            if cfg.writeback_counts_as_slot:
                expected_mc += m.lines_written_back
        assert res.mc_serviced_lines == expected_mc
        assert res.mc_serviced_lines <= res.elapsed_cycles // cfg.mc_service_interval + 1
        checked += 1
    _verdict("conservation-ceiling", checked == 100, f"{checked} randomized co-runs")


# ---------------------------------------------------------------------------
# 6. qualitative interference orderings at the 3 MiB preset


def test_interference_orderings():
    cfg = load_experiment(os.path.join(CONFIGS, "t1_worstcase.json"))
    assert cfg.sim.per_thread_event_budget <= 10**7
    t0 = time.perf_counter()
    rows = interference_report(cfg.primary, list(cfg.secondaries), cfg.sim)
    dt = time.perf_counter() - t0
    by = {r.secondary: r.primary for r in rows}
    idle, off, on = by["idle"], by["harm.offchip"], by["harm.onchip"]
    perf_ok = (idle.normalized_performance == 1.0
               and 1.0 > on.normalized_performance > off.normalized_performance)
    miss_ok = on.misses >= off.misses >= idle.misses
    _verdict(
        "interference-orderings",
        perf_ok and miss_ok and dt < 60.0,
        f"norm idle=1.0 onchip={on.normalized_performance:.3f} "
        f"offchip={off.normalized_performance:.3f}; "
        f"misses solo={idle.misses} offchip={off.misses} onchip={on.misses}; "
        f"{dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. byte-identical repeat runs for every bundled experiment


def test_sim_runs_are_byte_identical(tmp_path):
    compared = []
    for fname in BUNDLED:
        cfg_path = os.path.join(CONFIGS, fname)
        stem = json.load(open(cfg_path))["name"]
        out1 = tmp_path / f"{stem}-1"
        out2 = tmp_path / f"{stem}-2"
        assert main(["--out", str(out1), "run", cfg_path, "--mode", "sim"]) == 0
        assert main(["--out", str(out2), "run", cfg_path, "--mode", "sim"]) == 0
        a = (out1 / f"{stem}_sim.csv").read_bytes()
        b = (out2 / f"{stem}_sim.csv").read_bytes()
        assert a == b, f"{fname} differs between runs"
        with open(os.path.join(GOLDEN, f"{stem}_sim.csv"), "rb") as fh:
            assert a == fh.read(), f"{fname} differs from its golden CSV"
        compared.append(fname)
    _verdict(
        "sim-determinism",
        len(compared) == len(BUNDLED) and len(compared) >= 1,
        f"{len(compared)} bundled configs, all byte-identical twice and to tests/golden",
    )


# ---------------------------------------------------------------------------
# 8. native direction check (environment-sensitive)


def _llc_bytes() -> int:
    for idx in ("index3", "index2"):
        path = f"/sys/devices/system/cpu/cpu0/cache/{idx}/size"
        try:
            text = open(path).read().strip()
        except OSError:
            continue
        if text.endswith("K"):
            return int(text[:-1]) * 1024
        if text.endswith("M"):
            return int(text[:-1]) * 1024 * 1024
    return 32 * 1024 * 1024


def test_native_offchip_degrades_stream_triad():
    crit = "native-direction"
    if os.environ.get("CONTEND_SKIP_HW_CHECKS"):
        _skip(crit, "CONTEND_SKIP_HW_CHECKS set")
    cpus = sorted(available_cpus())
    if len(cpus) < 2:
        _skip(crit, f"needs >= 2 usable cpus to pin victim and antagonist apart, "
                    f"have {cpus}")

    llc = _llc_bytes()
    n_elems = max((4 * llc + 23) // 24, 1 << 20)
    victim = replace(gen_stream("triad", n_elems), cpus=(cpus[0],))
    ant_cpus = cpus[1:][:4]
    ant = gen_offchip_antagonist(
        preset("harpertown"), len(ant_cpus),
        array_bytes=64 * 2**20, stride=64, strict=False, cpus=ant_cpus,
    )

    idle_bw, corun_bw = [], []
    for _ in range(3):
        idle_bw.append(run_native(victim, 0.6).aggregate_bandwidth)
        vres, _ = co_run(victim, ant, 0.6)
        corun_bw.append(vres.aggregate_bandwidth)
    idle_med = statistics.median(idle_bw)
    corun_med = statistics.median(corun_bw)
    drop = 1.0 - corun_med / idle_med
    _verdict(
        crit,
        drop >= 0.10,
        f"triad {idle_med / 1e9:.2f} GB/s idle vs {corun_med / 1e9:.2f} GB/s "
        f"co-run on cpus {cpus[:1 + len(ant_cpus)]}: {drop:.1%} degradation",
    )
