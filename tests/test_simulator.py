import ctypes
import os
import random
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from contend import _compiled, simulator
from contend.geometry import CacheGeometry, conflict_stride, preset
from contend.patterns import (
    BucketSort,
    PatternError,
    StreamKernel,
    StridedWalk,
    ThreadSpec,
    WorkloadSpec,
    gen_bucket_sort,
    gen_offchip_antagonist,
    gen_onchip_antagonist,
    gen_stream,
    iter_ops,
    relocate,
)
from contend.simulator import (
    InterferenceRow,
    LruBankedCache,
    SimConfig,
    SimulationError,
    interference_report,
    simulate,
)
from oracle import HAVE_CC, lru_reference, needs_cc

TOY = preset("toy")

# this thread's CPUs before any test ran; simulate must leave them as they are
AFFINITY = os.sched_getaffinity(0)


def pack(workloads, align):
    """Rebase workloads back to back at align-multiple bases (disjoint)."""
    out, next_base = [], 0
    for w in workloads:
        out.append(relocate(w, next_base))
        end = out[-1].end_address()   # 0 when w claims no bytes
        next_base = max(next_base, (end + align - 1) // align * align) or align
    return out


def toy_cfg(**kw):
    kw.setdefault("geometry", TOY)
    return SimConfig(**kw)


# ---------------------------------------------------------------------------
# cache replacement


def test_cache_second_touch_hits():
    c = LruBankedCache(TOY)
    assert c.access(0x40, False) == (False, False)
    assert c.access(0x40, False) == (True, False)
    assert c.access(0x44, False)[0] is True     # same 32-byte line


def test_cache_set_thrash_at_ways_plus_one():
    c = LruBankedCache(TOY)
    # five lines in the same (bank, set) of a 4-way cache: never a hit
    addrs = [k * 1024 for k in range(5)]
    for _ in range(3):
        for a in addrs:
            hit, _ = c.access(a, False)
            assert hit is False
    # four lines cycle cleanly: all hits after the first pass
    c = LruBankedCache(TOY)
    for a in addrs[:4]:
        c.access(a, False)
    for a in addrs[:4]:
        assert c.access(a, False)[0] is True


def test_cache_lru_evicts_oldest():
    c = LruBankedCache(TOY)
    for k in range(4):
        c.access(k * 1024, False)
    c.access(0, False)                   # refresh line 0
    c.access(4 * 1024, False)            # evicts line at 1024, not 0
    assert c.access(0, False)[0] is True
    assert c.access(1024, False)[0] is False


def test_cache_writeback_flag():
    c = LruBankedCache(TOY)
    c.access(0, True)                    # dirty
    for k in range(1, 4):
        c.access(k * 1024, False)
    hit, wrote_back = c.access(4 * 1024, False)   # evicts dirty line 0
    assert (hit, wrote_back) == (False, True)
    hit, wrote_back = c.access(5 * 1024, False)   # evicts clean line 1024
    assert (hit, wrote_back) == (False, False)


def test_lru_reference_matches_engine_on_random_traces():
    rng = random.Random(42)
    for _ in range(25):
        trace = [("w" if rng.random() < 0.3 else "r", rng.randrange(0, 8192) * 8)
                 for _ in range(1500)]
        cache = LruBankedCache(TOY)
        got = [cache.access(a, op == "w")[0] for op, a in trace]
        assert got == lru_reference(trace, TOY)


# ---------------------------------------------------------------------------
# counters and conservation


def test_second_pass_all_hits():
    # copy over 16 elems: a and c span 4 toy lines each; 8 compulsory misses
    w = gen_stream("copy", 16)
    res = simulate([w], toy_cfg(per_thread_event_budget=64))
    m = res.metrics("stream.copy")
    assert (m.accesses, m.misses, m.hits) == (64, 8, 56)
    assert m.mpka == 125.0
    assert m.lines_fetched == 8
    assert m.normalized_performance == 1.0


def test_conservation_and_ceiling_randomized():
    rng = random.Random(7)
    for _ in range(30):
        n1 = rng.randrange(8, 64)
        walk = StridedWalk(rng.choice([1024, 2048]), rng.choice([32, 64, 256]),
                           op_mix=rng.choice(["read", "write", "readwrite"]))
        w1 = WorkloadSpec("a", (ThreadSpec(StreamKernel("triad", n1), 0),))
        w2 = WorkloadSpec("b", (ThreadSpec(walk, 65536),))
        cfg = toy_cfg(
            hit_latency=rng.randrange(1, 5),
            mem_latency=rng.randrange(20, 120),
            mc_service_interval=rng.randrange(1, 30),
            writeback_counts_as_slot=rng.random() < 0.5,
            per_thread_event_budget=rng.randrange(200, 1500),
        )
        res = simulate([w1, w2], cfg)
        total_mc = 0
        for m in res.workloads:
            assert m.hits + m.misses == m.accesses
            assert m.misses == m.lines_fetched
            total_mc += m.lines_fetched
            if cfg.writeback_counts_as_slot:
                total_mc += m.lines_written_back
        assert res.mc_serviced_lines == total_mc
        ceiling = res.elapsed_cycles // cfg.mc_service_interval + 1
        assert res.mc_serviced_lines <= ceiling


def test_writeback_slot_accounting():
    # write-thrash one set so dirty evictions occur
    w = WorkloadSpec("w", (ThreadSpec(StridedWalk(8192, 1024, op_mix="write")),))
    with_wb = simulate([w], toy_cfg(per_thread_event_budget=100)).metrics("w")
    no_wb = simulate(
        [w], toy_cfg(per_thread_event_budget=100, writeback_counts_as_slot=False)
    ).metrics("w")
    assert with_wb.lines_written_back > 0
    assert with_wb.lines_written_back == no_wb.lines_written_back
    # occupying extra MC slots can only slow the workload down
    assert with_wb.elapsed_cycles >= no_wb.elapsed_cycles


def test_streaming_workload_misses_every_line():
    # arrays larger than the whole cache, walked cyclically: no reuse survives
    w = gen_stream("copy", 1024)         # 16 KiB of arrays vs 4 KiB cache
    m = simulate([w], toy_cfg(per_thread_event_budget=8192)).metrics("stream.copy")
    assert m.misses == 8192 // 4         # one miss per 4 accesses to a line
    assert m.hits == 8192 - 2048


# ---------------------------------------------------------------------------
# timing model


def test_miss_latency_dominates_elapsed():
    w = WorkloadSpec("w", (ThreadSpec(StridedWalk(8192, 1024)),))  # 8 lines, 4 ways
    cfg = toy_cfg(hit_latency=3, mem_latency=100, mc_service_interval=1,
                  per_thread_event_budget=80)
    m = simulate([w], cfg).metrics("w")
    assert m.misses == 80
    assert m.elapsed_cycles == 80 * 100   # back-to-back misses, no queueing


def test_hit_latency_only_when_resident():
    w = WorkloadSpec("w", (ThreadSpec(StridedWalk(1024, 256)),))   # 4 lines, fits
    cfg = toy_cfg(hit_latency=3, mem_latency=100, mc_service_interval=1,
                  per_thread_event_budget=100)
    m = simulate([w], cfg).metrics("w")
    assert m.misses == 4
    assert m.elapsed_cycles == 4 * 100 + 96 * 3


def test_mc_serializes_concurrent_misses():
    # two single-line streaming threads, interval 50 > mem 40: MC-bound
    w = WorkloadSpec("w", (
        ThreadSpec(StridedWalk(8192, 1024), 0),
        ThreadSpec(StridedWalk(8192, 1024), 8192),
    ))
    cfg = toy_cfg(hit_latency=1, mem_latency=40, mc_service_interval=50,
                  per_thread_event_budget=20)
    res = simulate([w], cfg)
    # 40 misses through one controller: last dequeue at >= 39 * 50
    assert res.elapsed_cycles >= 39 * 50
    assert res.mc_serviced_lines == 40


def test_single_thread_timing_does_not_change_hits():
    w = gen_stream("triad", 64)
    for interval in (1, 7, 33):
        cfg = toy_cfg(mc_service_interval=interval, per_thread_event_budget=1000,
                      record_hit_miss=True)
        res = simulate([w], cfg)
        trace = list(iter_ops(w, 0, 1000))
        assert res.hit_miss["stream.triad"][0] == lru_reference(trace, TOY)


# ---------------------------------------------------------------------------
# co-runs, normalization, interference


def test_solo_normalized_is_exactly_one():
    res = simulate([gen_stream("add", 32)], toy_cfg(per_thread_event_budget=500))
    assert res.metrics("stream.add").normalized_performance == 1.0


def test_corun_slows_victim():
    v = gen_stream("triad", 32)
    off = relocate(gen_offchip_antagonist(TOY, 2, array_bytes=4096), 8192)
    cfg = toy_cfg(per_thread_event_budget=2000)
    res = simulate([v, off], cfg)
    m = res.metrics("stream.triad")
    assert m.normalized_performance < 1.0
    solo = simulate([v], cfg).metrics("stream.triad")
    assert m.misses >= solo.misses
    assert m.elapsed_cycles > solo.elapsed_cycles


def test_normalized_uses_equal_budget_baseline():
    v = gen_stream("triad", 32)
    off = relocate(gen_offchip_antagonist(TOY, 2, array_bytes=4096), 8192)
    cfg = toy_cfg(per_thread_event_budget=1200)
    res = simulate([v, off], cfg)
    base = simulate([v], cfg).metrics("stream.triad").elapsed_cycles
    m = res.metrics("stream.triad")
    assert m.normalized_performance == base / m.elapsed_cycles


def test_antagonist_dominates_bandwidth_share():
    v = gen_stream("triad", 32)
    off = relocate(gen_offchip_antagonist(TOY, 2, array_bytes=4096), 8192)
    res = simulate([v, off], toy_cfg(per_thread_event_budget=2000))
    shares = {m.name: m.bandwidth_share for m in res.workloads}
    assert shares["harm.offchip"] > 0.5 > shares["stream.triad"]
    assert abs(sum(shares.values()) - 1.0) < 1e-12


def test_onchip_pollution_adds_victim_misses():
    # resident victim, long-lived thanks to a co-resident streamer thread
    v = WorkloadSpec("victim", (
        ThreadSpec(StreamKernel("triad", 32), 0),
        ThreadSpec(StreamKernel("triad", 256), 1024),
    ))
    on = relocate(gen_onchip_antagonist(TOY, 2), 8192)
    cfg = toy_cfg(hit_latency=3, mem_latency=20, mc_service_interval=2,
                  per_thread_event_budget=4000)
    solo = simulate([v], cfg).metrics("victim")
    polluted = simulate([v, on], cfg).metrics("victim")
    assert polluted.misses > solo.misses
    assert polluted.normalized_performance < 1.0


def test_simulation_is_deterministic():
    v = gen_stream("triad", 48)
    off = relocate(gen_offchip_antagonist(TOY, 3, array_bytes=2048), 8192)
    cfg = toy_cfg(per_thread_event_budget=3000)
    a = simulate([v, off], cfg)
    b = simulate([v, off], cfg)
    assert a == b


def test_interference_report_layout():
    v = gen_stream("triad", 32)
    off = relocate(gen_offchip_antagonist(TOY, 2, array_bytes=4096), 8192)
    on = relocate(gen_onchip_antagonist(TOY, 2), 8192)
    rows = interference_report(v, [off, on], toy_cfg(per_thread_event_budget=1500))
    assert [r.secondary for r in rows] == ["idle", "harm.offchip", "harm.onchip"]
    assert rows[0].primary.normalized_performance == 1.0
    assert rows[0].secondary_metrics is None
    for r in rows[1:]:
        assert isinstance(r, InterferenceRow)
        assert r.secondary_metrics.name == r.secondary
        assert r.primary.normalized_performance <= 1.0
    again = interference_report(v, [off, on], toy_cfg(per_thread_event_budget=1500))
    assert rows == again


def test_interference_report_rejects_duplicate_names():
    v = gen_stream("triad", 32)
    off = relocate(gen_offchip_antagonist(TOY, 2, array_bytes=4096), 8192)
    with pytest.raises(SimulationError):
        interference_report(v, [off, off], toy_cfg())


# ---------------------------------------------------------------------------
# input validation


def test_overlapping_arenas_rejected():
    a = gen_stream("copy", 64)
    b = WorkloadSpec("b", (ThreadSpec(StridedWalk(1024, 256), 512),))
    with pytest.raises(PatternError, match="arenas overlap"):
        simulate([a, b], toy_cfg())


def test_equal_walk_arenas_of_two_workloads_rejected():
    # walks share an arena only within one workload
    a = gen_onchip_antagonist(TOY, 2)
    simulate([a], toy_cfg(per_thread_event_budget=10))
    with pytest.raises(PatternError, match="b and harm.onchip: arenas overlap at 0x0"):
        simulate([a, WorkloadSpec("b", a.threads)], toy_cfg(per_thread_event_budget=10))


def test_duplicate_workload_names_rejected():
    a = gen_stream("copy", 8)
    b = relocate(gen_stream("copy", 8), 1024)
    with pytest.raises(SimulationError):
        simulate([a, b], toy_cfg())


def test_empty_run_rejected():
    with pytest.raises(SimulationError):
        simulate([], toy_cfg())


def test_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(geometry=TOY, hit_latency=0)
    with pytest.raises(SimulationError):
        SimConfig(geometry=TOY, mem_latency=1, hit_latency=3)
    with pytest.raises(SimulationError):
        SimConfig(geometry=TOY, mc_service_interval=0)
    with pytest.raises(SimulationError):
        SimConfig(geometry=TOY, per_thread_event_budget=0)
    # the most cycles one event can take, times the 2**32 events a plan may
    # hold, must fit the compiled loop's int64 clock
    SimConfig(geometry=TOY, mem_latency=2**31 - 25, mc_service_interval=12)
    with pytest.raises(SimulationError, match=r"below 2\*\*31"):
        SimConfig(geometry=TOY, mem_latency=2**31 - 24, mc_service_interval=12)


# ---------------------------------------------------------------------------
# compiled event loop against the oracle _run


@st.composite
def geometries(draw):
    return CacheGeometry(
        "random", 1 << draw(st.integers(2, 6)), 1 << draw(st.integers(0, 2)),
        1 << draw(st.integers(1, 4)), draw(st.integers(1, 5)),
    )


@st.composite
def private_patterns(draw, short=False):
    kind = "strided" if short else draw(st.sampled_from(["strided", "stream", "bucketsort"]))
    if kind == "strided":
        stride = draw(st.sampled_from([4, 12, 32, 64, 96, 256]))
        steps = draw(st.integers(1, 4 if short else 9))
        return StridedWalk(stride * steps, stride,
                           draw(st.sampled_from(["read", "write", "readwrite"])),
                           stride * draw(st.integers(0, steps - 1)))
    if kind == "stream":
        return StreamKernel(draw(st.sampled_from(["copy", "scale", "add", "triad"])),
                            draw(st.integers(0, 40)))
    # past 256 buckets the stable sort runs on uint16 rather than uint8; seeds
    # past one 32-bit word, and negative ones, seed random by several words
    return BucketSort(draw(st.integers(0, 30)), draw(st.integers(1, 6) | st.integers(250, 280)),
                      draw(st.integers(0, 2)),
                      draw(st.integers(0, 2**32 - 1) | st.integers(-2**96, 2**96)))


@st.composite
def workloads(draw, name, short=False):
    """short: walks of a few steps only, whose feeds cycle many times"""
    threads, base = [], 0
    for p in draw(st.lists(private_patterns(short), max_size=3)):
        threads.append(ThreadSpec(p, base))
        base += (p.arena_span + 255) // 256 * 256
    # walks that share one arena: one size, each its own stride, op mix and offset
    walkers = draw(st.integers(0, 3))
    if walkers:
        size = draw(st.sampled_from([8, 64, 128])) * draw(st.integers(1, 2 if short else 12))
        for _ in range(walkers):
            stride = draw(st.sampled_from([s for s in (8, 64, 128, 192) if size % s == 0]))
            offset = draw(st.integers(0, size // stride - 1)) * stride
            threads.append(ThreadSpec(StridedWalk(
                size, stride, draw(st.sampled_from(["read", "write", "readwrite"])), offset),
                base))
    if not threads:
        threads.append(ThreadSpec(StreamKernel("triad", 0)))
    return WorkloadSpec(name, tuple(threads))


@st.composite
def sim_runs(draw):
    g = draw(geometries())
    hit = draw(st.integers(1, 5))
    # short feeds under long budgets: states repeat, and the compiled loop
    # skips their periods
    short = draw(st.booleans())
    cfg = SimConfig(
        geometry=g,
        hit_latency=hit,
        mem_latency=hit + draw(st.integers(0, 40)),
        mc_service_interval=draw(st.integers(1, 50)),
        writeback_counts_as_slot=draw(st.booleans()),
        # up to 700, so that a bucket sort with 280 buckets reaches its permute phase
        per_thread_event_budget=draw(st.integers(500, 1500) if short
                                     else st.integers(1, 300) | st.integers(301, 700)),
        record_hit_miss=True,
    )
    n = draw(st.integers(1, 3))
    ws = [draw(workloads(f"w{i}", short)) for i in range(n)]
    # a lone first thread, a sort whose feed runs at most once: the compiled
    # loop runs its hits in streaks while the others wait on misses
    if draw(st.booleans()):
        sort = BucketSort(draw(st.integers(8, 80)), draw(st.integers(1, 16)), 1,
                          draw(st.integers(0, 2**32 - 1)))
        ws[0] = WorkloadSpec("w0", (ThreadSpec(sort),))
    return pack(ws, 256), cfg


@needs_cc
def test_compiled_kernel_loads():
    lib = _compiled.library()
    for fn in (lib.simcore_run, lib.simcore_bucket_sort):
        assert fn.argtypes and fn.restype is not None
    assert simulator._simcore() == lib.simcore_run


@needs_cc
def test_simcore_builds_without_warnings(tmp_path):
    source = _compiled._SIMCORE_SOURCE
    build = subprocess.run([shutil.which("cc"), *_compiled._CFLAGS, "-Wall", "-Wextra", "-Werror",
                            "-o", str(tmp_path / "simcore.so"), str(source)],
                           capture_output=True, text=True)
    assert build.returncode == 0, build.stderr


def run_compiled(ws, cfg, kernel=None):
    """_run_compiled on ws with the line feeds that _run_many builds."""
    feed_of = simulator._plan_feeds(dict.fromkeys(t.pattern for w in ws for t in w.threads),
                                    cfg.geometry.line_shift, cfg.per_thread_event_budget)
    return simulator._run_compiled(kernel or simulator._simcore(), ws, cfg, feed_of)


def kernel_counts(ws, cfg):
    """run_compiled's result, the events the loop ran in closed form, the
    events it skipped as repeats and those it ran in streaks (totals[2] and
    totals[3], after elapsed and serviced)."""
    kernel, counts = simulator._simcore(), []

    def recording(*args):
        closed = kernel(*args)
        counts.append((closed, *(ctypes.c_int64 * 4).from_address(args[-2])[2:]))
        return closed

    return (run_compiled(ws, cfg, recording), *counts[0])


@needs_cc
@settings(max_examples=300, deadline=None)
@given(sim_runs())
def test_compiled_loop_matches_run(run):
    ws, cfg = run
    assert run_compiled(ws, cfg) == oracle._run(ws, cfg)


LATENCY_PAIRS = [(100, 12), (10, 40)]


def fixed_runs():
    # past the 18 threads that sim_runs draws: dozens of threads wait in each
    # of the compiled loop's two ready queues, whose rings wrap many times
    many = pack([gen_stream("triad", 64),
                 gen_offchip_antagonist(TOY, 40, array_bytes=5 * conflict_stride(TOY),
                                        op_mix="readwrite"),
                 gen_onchip_antagonist(TOY, 29)], 4096)
    yield pytest.param(many, toy_cfg(mem_latency=150, mc_service_interval=2,
                                     per_thread_event_budget=400, record_hit_miss=True),
                       id="70-threads")
    # with mem_latency == hit_latency, a thread back from a miss and one after
    # a hit are often ready in the same cycle: the lower id goes first
    few = pack([gen_stream("triad", 48),
                gen_offchip_antagonist(TOY, 6, array_bytes=2 * conflict_stride(TOY)),
                gen_onchip_antagonist(TOY, 5)], 4096)
    for interval in (1, 2, 5):
        yield pytest.param(few, toy_cfg(hit_latency=4, mem_latency=4,
                                        mc_service_interval=interval,
                                        per_thread_event_budget=300, record_hit_miss=True),
                           id=f"latencies-tie-{interval}")
    # readwrite walks of one 160-line arena at steps 0, 1, 2 and 5: those at
    # 0 and 2 read one feed, those at 1 and 5 another, each from its own step
    walk = StridedWalk(160 * 32, 32, "readwrite")
    walks = WorkloadSpec("walks", tuple(ThreadSpec(replace(walk, start_offset=32 * step))
                                        for step in (0, 1, 2, 5)))
    shared = pack([gen_stream("triad", 48), walks], 4096)
    for budget in (100, 400):   # below one pass and above it
        yield pytest.param(shared, toy_cfg(per_thread_event_budget=budget, record_hit_miss=True),
                           id=f"shared-walk-feeds-{budget}")
    # 2**31 buckets: a feed that ends before the permuting writes allocates
    # no counters, so this run is as cheap as its 12 events
    sort = WorkloadSpec("sort", (ThreadSpec(BucketSort(4, 2**31, 1)),))
    yield pytest.param([sort], toy_cfg(per_thread_event_budget=12, record_hit_miss=True),
                       id="buckets-past-the-budget")
    # a triad and a bucket sort, alone and against each antagonist, with the
    # memory latency above the controller's interval and below it
    v = WorkloadSpec("victim", (ThreadSpec(StreamKernel("triad", 48), 0),
                                ThreadSpec(BucketSort(40, 4, 2, seed=3), 4096)))
    off = relocate(gen_offchip_antagonist(TOY, 3, array_bytes=2048, op_mix="readwrite"), 16384)
    on = relocate(gen_onchip_antagonist(TOY, 3), 32768)
    for mem_latency, interval in LATENCY_PAIRS:
        cfg = toy_cfg(mem_latency=mem_latency, mc_service_interval=interval,
                      per_thread_event_budget=700, record_hit_miss=True)
        for label, ws in (("victim", [v]), ("victim-offchip", [v, off]),
                          ("victim-onchip", [v, on])):
            yield pytest.param(ws, cfg, id=f"{label}-{mem_latency}-{interval}")


@needs_cc
@pytest.mark.parametrize("ws, cfg", fixed_runs())
def test_compiled_loop_matches_run_on_fixed_runs(ws, cfg):
    raw = oracle._run(ws, cfg)
    assert 0 < sum(raw["hits"]) < sum(raw["accesses"])
    assert run_compiled(ws, cfg) == raw


@needs_cc
@pytest.mark.parametrize("mem_latency, interval", LATENCY_PAIRS)
def test_thrash_writes_back_every_eviction(mem_latency, interval):
    cfg = toy_cfg(mem_latency=mem_latency, mc_service_interval=interval,
                  per_thread_event_budget=700, record_hit_miss=True)
    # two writers thrash one 4-way set with 16 lines: once it is full, every
    # access evicts a dirty line, to the very end
    thrash = WorkloadSpec("thrash", (ThreadSpec(StridedWalk(8192, 1024, "write"), 65536),
                                     ThreadSpec(StridedWalk(8192, 1024, "write"), 73728)))
    assert run_compiled([thrash], cfg) == oracle._run([thrash], cfg)
    written_back = simulate([thrash], cfg).metrics("thrash").lines_written_back
    assert written_back == 2 * 700 - TOY.associativity


def warm_runs():
    # the first pass misses, the second sets the wrap, the third is warm
    yield pytest.param([gen_onchip_antagonist(TOY, 1)], 5 * 128,
                       lambda raw: raw["fetched"] == [128], id="whole-cache-walker")
    # the triad's 6 lines and the walkers' 128 evict each other until the
    # triad, which hits more, finishes; then the walkers warm
    yield pytest.param(pack([gen_stream("triad", 8), gen_onchip_antagonist(TOY, 3)], 4096), 1000,
                       lambda raw: raw["finish"][0] < raw["finish"][1], id="triad-then-walkers")
    # readwrite walks of one cache-sized arena, from steps 0, 1, 40 and 85:
    # until the triad finishes, their misses evict dirty lines
    walk = StridedWalk(TOY.capacity, 32, "readwrite")
    walks = WorkloadSpec("walks", tuple(ThreadSpec(replace(walk, start_offset=32 * step))
                                        for step in (0, 1, 40, 85)))
    yield pytest.param(pack([gen_stream("triad", 8), walks], 4096), 1200,
                       lambda raw: raw["written_back"][1] > 0, id="readwrite-walks-of-one-arena")
    # 4 iterations of a 408-event pass over 832 bytes
    yield pytest.param([gen_bucket_sort(100, 8, iterations=4, seed=3)], 2000,
                       lambda raw: raw["accesses"] == [4 * 408], id="bucket-sort")


@needs_cc
@pytest.mark.parametrize("ws, budget, holds", warm_runs())
def test_closed_form_matches_run(ws, budget, holds):
    cfg = toy_cfg(per_thread_event_budget=budget, record_hit_miss=True)
    raw, closed, _, _ = kernel_counts(ws, cfg)
    assert raw == oracle._run(ws, cfg)
    assert closed > 0 and holds(raw)


def cold_runs():
    # every access misses, so no hit ever wraps a feed
    yield pytest.param([gen_offchip_antagonist(TOY, 3, array_bytes=2 * conflict_stride(TOY))],
                       lambda raw: raw["hits"] == [0], id="all-miss")
    # 150 lines from line 30: sets 0-21 hold 5 of them and miss on every
    # pass, while the wrap, at line 29 in set 29, hits
    walk = StridedWalk(150 * 32, 32, start_offset=30 * 32)
    yield pytest.param([WorkloadSpec("w", (ThreadSpec(walk),))], lambda raw: raw["hits"] > [0],
                       id="misses-between-hit-wraps")
    # the one-line walk is warm when it finishes, but the triad's 600-event
    # feed never wraps within 500 events
    one_line = WorkloadSpec("one-line", (ThreadSpec(StridedWalk(32, 32)),))
    yield pytest.param(pack([gen_stream("triad", 200), one_line], 4096),
                       lambda raw: raw["finish"][0] > raw["finish"][1], id="feed-never-wraps")


@needs_cc
@pytest.mark.parametrize("ws, holds", cold_runs())
def test_closed_form_waits_for_every_thread(ws, holds):
    cfg = toy_cfg(per_thread_event_budget=500, record_hit_miss=True)
    raw, closed, _, _ = kernel_counts(ws, cfg)
    assert raw == oracle._run(ws, cfg)
    assert closed == 0 and holds(raw)


def repeating_runs():
    cs = conflict_stride(TOY)
    # 3 walkers of 2 lines each in one 4-way set: every access misses, and
    # the state repeats every 6 events, with the controller busy throughout
    offchip = [gen_offchip_antagonist(TOY, 3, array_bytes=2 * cs)]
    for record in (True, False):
        yield pytest.param(offchip, toy_cfg(per_thread_event_budget=3000, record_hit_miss=record),
                           lambda raw: raw["hits"] == [0], id=f"all-miss-labels-{record}")
    # dirty lines fall off: a write-back takes a controller slot, or not
    readwrite = [gen_offchip_antagonist(TOY, 3, array_bytes=2 * cs, op_mix="readwrite")]
    for wb_slot in (True, False):
        yield pytest.param(readwrite, toy_cfg(writeback_counts_as_slot=wb_slot,
                                              per_thread_event_budget=3000, record_hit_miss=True),
                           lambda raw: raw["written_back"][0] > 0, id=f"readwrite-wb-slot-{wb_slot}")
    # feeds of 3 and 4 lines in one set, all missing: by the 4-line walk's
    # wraps, the 3-line walk's feed index repeats only every third, so the
    # state repeats after 12 events of each, the lcm of the feeds
    walks = WorkloadSpec("walks", (ThreadSpec(StridedWalk(3 * cs, cs)),
                                   ThreadSpec(StridedWalk(4 * cs, cs), 3 * cs)))
    yield pytest.param([walks], toy_cfg(per_thread_event_budget=3000, record_hit_miss=True),
                       lambda raw: raw["hits"] == [0], id="feeds-of-3-and-4-lines")
    # with mem_latency == hit_latency, the walkers back from a miss and the
    # one-line walk after a hit are often ready in the same cycle
    one_line = WorkloadSpec("one-line", (ThreadSpec(StridedWalk(32, 32)),))
    yield pytest.param(pack([offchip[0], one_line], 4096),
                       toy_cfg(hit_latency=4, mem_latency=4, mc_service_interval=3,
                               per_thread_event_budget=3000, record_hit_miss=True),
                       lambda raw: raw["hits"][1] == raw["accesses"][1] - 1, id="latencies-tie")
    # the triad's 603-event feed cannot run twice in 1200 events, so nothing
    # is compared until it finishes; the walkers then repeat on their own
    yield pytest.param(pack([gen_stream("triad", 201), offchip[0]], 8192),
                       toy_cfg(per_thread_event_budget=1200, record_hit_miss=True),
                       lambda raw: raw["finish"][0] < raw["finish"][1], id="victim-then-walkers")


@needs_cc
@pytest.mark.parametrize("ws, cfg, holds", repeating_runs())
def test_repeats_are_skipped(ws, cfg, holds):
    raw, _, skipped, _ = kernel_counts(ws, cfg)
    assert raw == oracle._run(ws, cfg)
    assert skipped > 0 and holds(raw)


def near_repeats():
    cs = conflict_stride(TOY)
    # at the first two steps of the anchor (the read walk, the first of the
    # longest feeds) the feed indices, times and queues agree, and the sets
    # agree but for one dirty bit, of line 0x205 in set 5, which the write
    # walk sets in between; the true repeat comes too late to skip in 29 events
    shared = WorkloadSpec("shared", (ThreadSpec(StridedWalk(192, 32, "read", 96), 16384),
                                     ThreadSpec(StridedWalk(192, 32, "write"), 16384)))
    yield pytest.param([WorkloadSpec("a", (ThreadSpec(StridedWalk(4 * cs, cs, "write")),)), shared],
                       toy_cfg(hit_latency=2, mem_latency=3, mc_service_interval=1,
                               per_thread_event_budget=29, record_hit_miss=True),
                       id="one-dirty-bit")
    # here, at the first two steps of the 5-line walk, the sets agree but for
    # the order of two lines of set 4
    walks = WorkloadSpec("w", (ThreadSpec(StridedWalk(4 * cs, cs, "read", cs)),
                               ThreadSpec(StridedWalk(384, 96, "readwrite"), 4096),
                               ThreadSpec(StridedWalk(160, 32, "read", 128), 5120),
                               ThreadSpec(StridedWalk(256, 64, "read", 64), 6144)))
    yield pytest.param([walks], toy_cfg(hit_latency=3, mem_latency=6, mc_service_interval=4,
                                        writeback_counts_as_slot=False,
                                        per_thread_event_budget=51, record_hit_miss=True),
                       id="one-set-order")


@needs_cc
@pytest.mark.parametrize("ws, cfg", near_repeats())
def test_sets_that_differ_are_not_a_repeat(ws, cfg):
    raw, _, skipped, _ = kernel_counts(ws, cfg)
    assert raw == oracle._run(ws, cfg)
    assert skipped == 0


def streak_runs():
    sort = gen_bucket_sort(200, 8, iterations=1, seed=3)
    walker = gen_onchip_antagonist(TOY, 1)
    # the keys are read 8 to a line: after each line's miss, 7 MRU hits; the
    # sort fits in the cache, so nothing dirty falls off
    yield pytest.param([sort], toy_cfg(per_thread_event_budget=1000, record_hit_miss=True),
                       lambda raw, closed: raw["written_back"] == [0], id="solo-sort")
    # the sort streaks while the walker waits on its misses
    yield pytest.param(pack([sort, walker], 4096),
                       toy_cfg(per_thread_event_budget=900, record_hit_miss=True),
                       lambda raw, closed: raw["finish"][0] < raw["finish"][1], id="sort-and-walker")
    # with mem_latency == hit_latency, the sort after a hit and the walker
    # back from a miss are often ready in the same cycle: the sort may run
    # such an event in a streak only when its id is the lower
    for first, ws in (("sort", [sort, walker]), ("walker", [walker, sort])):
        yield pytest.param(pack(ws, 4096),
                           toy_cfg(hit_latency=4, mem_latency=4, mc_service_interval=8,
                                   per_thread_event_budget=900, record_hit_miss=True),
                           lambda raw, closed: 0 < sum(raw["hits"]) < sum(raw["accesses"]),
                           id=f"latencies-tie-{first}-first")
    # a walk of 8 steps in one line, 14 events: after its miss and one hit,
    # a streak of 5 ends short of the feed's last entry, which wraps, and a
    # streak of 5 more ends one short of its last event
    one_line = WorkloadSpec("one-line", (ThreadSpec(StridedWalk(32, 4)),))
    yield pytest.param([one_line], toy_cfg(per_thread_event_budget=14, record_hit_miss=True),
                       lambda raw, closed: raw["accesses"] == [14] and raw["fetched"] == [1],
                       id="short-of-the-last-event")
    # the same walk streaks up to each wrap of its feed while a short sort
    # waits on misses; once the sort has finished, the walk is warm and the
    # closed form ends the run
    yield pytest.param(pack([WorkloadSpec("sort", (ThreadSpec(BucketSort(60, 4, 1, 5)),)),
                             one_line], 4096),
                       toy_cfg(per_thread_event_budget=1500, record_hit_miss=True),
                       lambda raw, closed: closed > 0 and raw["finish"][0] < raw["finish"][1],
                       id="short-of-a-wrap")


@needs_cc
@pytest.mark.parametrize("ws, cfg, holds", streak_runs())
def test_streaks_match_run(ws, cfg, holds):
    raw, closed, _, streaks = kernel_counts(ws, cfg)
    assert raw == oracle._run(ws, cfg)
    assert streaks > 0 and holds(raw, closed)


def count_feeds(monkeypatch):
    """The (pattern, entries) of every line feed built from now on."""
    built = []
    for cls in (StreamKernel, StridedWalk):
        def counted(self, line_shift, limit, line_feed=cls.line_feed):
            feed, n = line_feed(self, line_shift, limit)
            built.append((self, len(feed)))
            return feed, n
        monkeypatch.setattr(cls, "line_feed", counted)
    return built


@needs_cc
def test_interference_report_builds_each_feed_once(monkeypatch):
    v = gen_stream("triad", 32)
    off = relocate(gen_offchip_antagonist(TOY, 2, array_bytes=4096), 8192)
    on = relocate(gen_onchip_antagonist(TOY, 2), 8192)
    cfg = toy_cfg(per_thread_event_budget=1500)
    expected = interference_report(v, [off, on], cfg)
    built = count_feeds(monkeypatch)
    assert interference_report(v, [off, on], cfg) == expected
    # the triad, the off-chip walk shared by both its threads, and one feed
    # that both on-chip walks read, each from its own offset
    patterns = [p for p, _ in built]
    assert len(patterns) == len(set(patterns)) == 3


@needs_cc
def test_walks_share_a_feed_only_when_it_is_no_longer(monkeypatch):
    # one feed from step 0 to step 2**19 + 16 would replace two of 16 entries
    walk = StridedWalk((1 << 20) * 32, 32)
    w = WorkloadSpec("w", (ThreadSpec(walk),
                           ThreadSpec(replace(walk, start_offset=(1 << 19) * 32))))
    cfg = toy_cfg(per_thread_event_budget=16)
    expected = oracle._run([w], cfg)
    built = count_feeds(monkeypatch)
    assert simulator._run_many([[w]], cfg) == [expected]
    assert [n for _, n in built] == [16, 16]


@needs_cc
def test_start_past_a_feed_refused_before_the_loop(monkeypatch):
    def never(*args):
        raise AssertionError("a feed too short for a start reached the loop")

    line_feed = StridedWalk.line_feed
    monkeypatch.setattr(StridedWalk, "line_feed",
                        lambda self, line_shift, limit: (line_feed(self, line_shift, limit)[0][:2],
                                                         limit))
    monkeypatch.setattr(simulator, "_run_compiled", never)
    # steps 0 and 2 of one walk read one feed, the second from index 2
    w = WorkloadSpec("w", tuple(ThreadSpec(StridedWalk(16 * 32, 32, start_offset=32 * step))
                                for step in (0, 2)))
    with pytest.raises(SimulationError, match="unusable line feed"):
        simulate([w], toy_cfg(per_thread_event_budget=4))


@settings(max_examples=200, deadline=None)
@given(st.one_of(private_patterns(),
                 st.builds(StridedWalk, st.just(640), st.sampled_from([4, 64, 128]),
                           st.sampled_from(["read", "write", "readwrite"]),
                           st.sampled_from([0, 128, 512]))),
       st.integers(2, 6), st.integers(0, 200))
def test_line_feed_decodes_to_ops(pattern, line_shift, limit):
    # a bucket sort's feed needs the compiled library; every other feed is numpy alone
    assume(HAVE_CC or type(pattern) is not BucketSort)
    base = 7 << 12
    feed, n_events = pattern.line_feed(line_shift, limit)
    assert feed.dtype.name == "uint32"
    decoded = [("w" if e & 1 else "r", (base >> line_shift) + (e >> 1))
               for e in (int(feed[k % len(feed)]) for k in range(n_events))]
    expected = [(op, addr >> line_shift) for op, addr in islice(pattern.ops(base), limit)]
    assert decoded == expected


def report_and_runs():
    """A toy report with three secondaries, one a seeded bucket sort, and a
    co-run of all four workloads."""
    v = gen_stream("triad", 48)
    off = gen_offchip_antagonist(TOY, 3, array_bytes=2048, op_mix="readwrite")
    on = gen_onchip_antagonist(TOY, 2)
    sort = WorkloadSpec("sort", (ThreadSpec(BucketSort(40, 4, 2, seed=3)),))
    return pack([v, off, on, sort], 4096)


def all_results(cfg):
    v, off, on, sort = report_and_runs()
    solo = simulate([v], cfg).metrics(v.name).elapsed_cycles
    return (interference_report(v, [off, on, sort], cfg),
            simulate([v, off, on, sort], cfg),
            simulate([v, sort], cfg, baselines={v.name: solo}),
            simulate([v, on], cfg, baselines={v.name: solo, on.name: 1}))


@needs_cc
def test_results_do_not_depend_on_cpu_count(monkeypatch):
    cfg = toy_cfg(per_thread_event_budget=600, record_hit_miss=True)
    results = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)   # helpers and the caller interleave often
        for cpus in ({0}, set(range(8))):
            monkeypatch.setattr(simulator, "available_cpus", lambda cpus=cpus: cpus)
            results.append(all_results(cfg))
        monkeypatch.setattr(simulator, "_run_compiled",
                            lambda kernel, ws, cfg, feed_of: oracle._run(ws, cfg))
        results.append(all_results(cfg))
    finally:
        sys.setswitchinterval(interval)
    assert os.sched_getaffinity(0) == AFFINITY   # the caller is never pinned
    assert results[0] == results[1] == results[2]
    assert [r.hit_miss for r in results[0][1:]] == [r.hit_miss for r in results[2][1:]]


def recording(fn, idents):
    def call(*args):
        idents.append(threading.get_ident())
        return fn(*args)
    return call


def record_pins(monkeypatch):
    """The (thread, cpus) of every sched_setaffinity call, none carried out."""
    pins = []
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, cpus: pins.append((threading.get_ident(), set(cpus))))
    return pins


@needs_cc
def test_runs_share_the_allowed_cpus(monkeypatch):
    v, off, *_ = report_and_runs()
    cfg = toy_cfg(per_thread_event_budget=400)
    expected = simulate([v, off], cfg)
    baselines = {v.name: simulate([v], cfg).metrics(v.name).elapsed_cycles}
    # each run waits for the other: one thread running both would time out
    both_running = threading.Barrier(2, timeout=10)
    kernel = simulator._simcore()

    def meeting(*args):
        both_running.wait()
        return kernel(*args)

    idents = []
    monkeypatch.setattr(simulator, "available_cpus", lambda: {0, 1, 2})
    monkeypatch.setattr(simulator, "_this_cpu", lambda: 1)
    monkeypatch.setattr(simulator, "_simcore", lambda: recording(meeting, idents))
    pins = record_pins(monkeypatch)
    threads = threading.active_count()
    # the co-run and the off-chip walk's solo run; the victim's baseline is given
    assert simulate([v, off], cfg, baselines=baselines) == expected
    caller = threading.get_ident()
    assert len(idents) == 2 and caller in idents
    helper = next(i for i in idents if i != caller)
    # the helper keeps off the CPU the caller is on; the caller is not pinned
    assert pins == [(helper, {0, 2})]
    assert threading.active_count() == threads


@needs_cc
def test_caller_takes_the_longest_run(monkeypatch):
    v, off, *_ = report_and_runs()
    cfg = toy_cfg(per_thread_event_budget=400)
    expected = simulate([v, off], cfg)
    kernel, calls = simulator._simcore(), []

    def recording_threads(n_threads, *args):
        calls.append((threading.get_ident(), n_threads))
        return kernel(n_threads, *args)

    monkeypatch.setattr(simulator, "available_cpus", lambda: {0, 1})
    monkeypatch.setattr(simulator, "_simcore", lambda: recording_threads)
    record_pins(monkeypatch)
    # the co-run of 1 + 3 threads, then the two solo runs
    assert simulate([v, off], cfg) == expected
    assert len(calls) == 3
    assert next(n for ident, n in calls if ident == threading.get_ident()) == 4


@pytest.mark.parametrize("compiled", [pytest.param(True, marks=needs_cc), False])
def test_one_cpu_or_no_compiler_starts_no_thread(monkeypatch, compiled):
    v, off, on, sort = report_and_runs()
    cfg = toy_cfg(per_thread_event_budget=300)
    idents = []
    if compiled:
        expected = interference_report(v, [off, on, sort], cfg)
        kernel = simulator._simcore()
        monkeypatch.setattr(simulator, "available_cpus", lambda: {0})
        monkeypatch.setattr(simulator, "_simcore", lambda: recording(kernel, idents))
    else:
        def no_compiler():
            raise _compiled.CompilerError("no C compiler (cc) found")

        monkeypatch.setattr(simulator, "available_cpus", lambda: set(range(8)))
        monkeypatch.setattr(simulator, "_simcore", no_compiler)
        monkeypatch.setattr(simulator, "_plan_feeds", recording(simulator._plan_feeds, idents))
    pins = record_pins(monkeypatch)
    threads = threading.active_count()
    if compiled:
        assert interference_report(v, [off, on, sort], cfg) == expected
        assert idents and set(idents) == {threading.get_ident()}
    else:
        # refused before any feed is built
        with pytest.raises(_compiled.CompilerError, match="cc"):
            interference_report(v, [off, on, sort], cfg)
        assert idents == []
    assert pins == []
    assert threading.active_count() == threads


@needs_cc
def test_failed_run_in_a_helper_raises_in_the_caller(monkeypatch):
    v, off, *_ = report_and_runs()
    kernel = simulator._simcore()
    caller = threading.get_ident()
    both_running = threading.Barrier(2, timeout=10)

    def failing_in_helper(*args):
        both_running.wait()
        return kernel(*args) if threading.get_ident() == caller else -1

    monkeypatch.setattr(simulator, "available_cpus", lambda: {0, 1})
    monkeypatch.setattr(simulator, "_simcore", lambda: failing_in_helper)
    record_pins(monkeypatch)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="could not allocate"):
        simulate([v, off], toy_cfg(), baselines={v.name: 1})
    assert threading.active_count() == threads


def test_runaway_plan_refused_before_any_feed(monkeypatch):
    def never(*args):
        raise AssertionError("a runaway plan reached a feed or a loop")

    for name in ("_line_feed", "_run_compiled"):
        monkeypatch.setattr(simulator, name, never)
    # 70 threads x 2**26 events, past 2**32; one shared pattern, 256 MiB of feed at most
    off = gen_offchip_antagonist(TOY, 70, array_bytes=2048)
    with pytest.raises(SimulationError, match=r"^refusing to simulate 4697620480 events with "
                       r"line feeds of up to 268435456 bytes \(1 distinct patterns x budget "
                       r"67108864 x 4 B\); the bounds are 4294967296 events and 268435456 bytes$"):
        simulate([off], toy_cfg(per_thread_event_budget=1 << 26))
    # (1 + 5 + 4) threads x 2**24 events, within bounds; the triad and four
    # on-chip walks x 2**24 x 4 B, past 256 MiB
    v, on = pack([gen_stream("triad", 48), gen_onchip_antagonist(TOY, 4)], 4096)
    with pytest.raises(SimulationError, match=r"167772160 events .* 335544320 bytes "
                                              r"\(5 distinct patterns"):
        interference_report(v, [on], toy_cfg(per_thread_event_budget=1 << 24))


def test_arena_of_2_31_lines_refused():
    lines = 1 << 31
    below = WorkloadSpec("w", (ThreadSpec(StridedWalk((lines - 1) * 32, (lines - 1) * 32)),))
    assert simulate([below], toy_cfg(per_thread_event_budget=3)).metrics("w").misses == 1
    at = WorkloadSpec("w", (ThreadSpec(StridedWalk(lines * 32, lines * 32)),))
    with pytest.raises(SimulationError, match="2147483648 lines"):
        simulate([at], toy_cfg())


def test_arena_outside_63_bits_refused():
    # the compiled loop packs a cached line with its dirty bit into 64 bits
    top = WorkloadSpec("w", (ThreadSpec(StridedWalk(64, 32), (1 << 63) - 64),))
    assert simulate([top], toy_cfg(per_thread_event_budget=4)).metrics("w").misses == 2
    for base in ((1 << 63) - 32, 1 << 70, -64):
        w = WorkloadSpec("w", (ThreadSpec(StridedWalk(64, 32), base),))
        with pytest.raises(PatternError, match=r"outside \[0, 2\*\*63\)"):
            simulate([w], toy_cfg())
