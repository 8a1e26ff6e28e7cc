import os
import random
from dataclasses import replace
from itertools import accumulate

import pytest

from contend import native
from contend.geometry import preset
from contend.native import (
    _KERNELS,
    NativeError,
    _alloc_arena,
    _thread_cpus,
    available_cpus,
    bytes_per_pass,
    co_run,
    native_interference_report,
    run_native,
)
from contend.patterns import (
    BucketSort,
    StreamKernel,
    StridedWalk,
    ThreadSpec,
    WorkloadSpec,
    gen_offchip_antagonist,
    gen_onchip_antagonist,
    gen_stream,
)

DUR = 0.05   # seconds per timed run; enough for thousands of passes


def test_bytes_per_pass_frozen():
    assert bytes_per_pass(StridedWalk(2 * 1024 * 1024, 256 * 1024)) == 8 * 64
    assert bytes_per_pass(StridedWalk(4096, 64, "read", 1024)) == 64 * 64
    assert bytes_per_pass(StreamKernel("copy", 1000)) == 16_000
    assert bytes_per_pass(StreamKernel("scale", 1000)) == 16_000
    assert bytes_per_pass(StreamKernel("add", 1000)) == 24_000
    assert bytes_per_pass(StreamKernel("triad", 1000)) == 24_000
    assert bytes_per_pass(BucketSort(100, 10)) == 410 * 4


def test_run_native_accounts_bytes_exactly():
    res = run_native(gen_stream("triad", 4096), DUR)
    assert len(res.threads) == 1
    t = res.threads[0]
    assert t.passes >= 1
    assert t.bytes_touched == t.passes * 24 * 4096
    assert res.bytes_touched == t.bytes_touched
    assert res.aggregate_bandwidth > 0
    assert t.elapsed >= DUR


def _pass_fn(p, arena=None):
    return _KERNELS[type(p)](p, arena)


def _bucket_checksum(n_keys, n_buckets, seed):
    raw = random.Random(seed).randbytes(4 * n_keys)
    keys = [int.from_bytes(raw[i:i + 4], "little") for i in range(0, len(raw), 4)]
    counts = [0] * n_buckets
    for k in keys:
        counts[(k * n_buckets) >> 32] += 1
    starts = list(accumulate(counts, initial=0))[:-1]
    return (sum(keys) + sum(starts)) % (1 << 64)


def _stream_checksum(kind, n):
    # a, b, c start as i & 0x3FF, that + 1 and that + 2
    s = sum(i & 0x3FF for i in range(n))
    return {"copy": s, "scale": 3 * (s + 2 * n), "add": 2 * s + n,
            "triad": 4 * s + 7 * n}[kind]


def _walk_read_checksum(arena_bytes, stride_bytes):
    # walked arenas start as i & 0xFFFF in word i
    return sum(i & 0xFFFF for i in range(0, arena_bytes // 8, stride_bytes // 8))


@pytest.mark.parametrize("pattern, expected", [
    pytest.param(StridedWalk(1 << 20, 64, "read"), _walk_read_checksum(1 << 20, 64),
                 id="read-64"),
    pytest.param(StridedWalk(1 << 20, 4096, "read"), _walk_read_checksum(1 << 20, 4096),
                 id="read-4096"),
    pytest.param(StridedWalk(1 << 20, 64, "write"), 16383 * 16384 // 2, id="write"),
    pytest.param(StridedWalk(1 << 20, 64, "readwrite"), 16383 * 16384 // 2,
                 id="readwrite"),
    *[pytest.param(StreamKernel(kind, 3000), _stream_checksum(kind, 3000), id=kind)
      for kind in ("copy", "scale", "add", "triad")],
    pytest.param(BucketSort(5000, 37, seed=7), _bucket_checksum(5000, 37, 7),
                 id="bucketsort-seed7"),
    pytest.param(BucketSort(2048, 16, seed=1), _bucket_checksum(2048, 16, 1),
                 id="bucketsort-seed1"),
    pytest.param(StridedWalk(1 << 20, 64, "read", 64 * 1000),
                 _walk_read_checksum(1 << 20, 64), id="read-offset"),
    pytest.param(StridedWalk(1 << 20, 64, "write", 64 * 1000), 16383 * 16384 // 2,
                 id="write-offset"),
])
def test_kernel_checksum_closed_form(pattern, expected):
    run_pass = _pass_fn(pattern)
    assert [run_pass() for _ in range(3)] == [expected] * 3


def test_shared_walk_checksum_closed_form():
    # a walk from an offset over an arena the controller allocated
    for op_mix, expected in (("read", _walk_read_checksum(1 << 20, 64)),
                             ("write", 16383 * 16384 // 2)):
        walk = StridedWalk(1 << 20, 64, op_mix, start_offset=64 * 1000)
        run_pass = _pass_fn(walk, _alloc_arena(1 << 20))
        assert [run_pass() for _ in range(3)] == [expected] * 3


def test_pass_checksum_is_invariant():
    run_pass = _pass_fn(StreamKernel("triad", 1024))
    first = run_pass()
    assert all(run_pass() == first for _ in range(3))
    assert _pass_fn(StreamKernel("triad", 1024))() == first


def test_bucket_sort_checksum_seeded():
    a = _pass_fn(BucketSort(2048, 16, seed=1))
    b = _pass_fn(BucketSort(2048, 16, seed=1))
    c = _pass_fn(BucketSort(2048, 16, seed=2))
    assert a() == b()
    assert a() != c()


def test_walk_op_mixes_run():
    for mix in ("read", "write", "readwrite"):
        w = WorkloadSpec("w", (ThreadSpec(StridedWalk(65536, 64, op_mix=mix)),))
        res = run_native(w, DUR)
        assert res.threads[0].passes >= 1


def test_shared_arena_walkers(monkeypatch):
    # the walkers of one (base, end) get one array; the private walk its own.
    # Two shared arenas at one base stay apart: run_native checks no placement
    arenas = {}

    def recorded(p, arena):
        arenas[p] = arena
        return native._strided_kernel(p, arena)
    monkeypatch.setitem(_KERNELS, StridedWalk, recorded)
    on = gen_onchip_antagonist(preset("toy"), 2)
    half = [ThreadSpec(StridedWalk(2048, 64, "read", off), 0) for off in (0, 1024)]
    w = WorkloadSpec("w", (*on.threads, *half, ThreadSpec(StridedWalk(4096, 64), 8192)))
    res = run_native(w, DUR)
    assert len(res.threads) == 5
    for t, spec in zip(res.threads, w.threads):
        assert t.bytes_touched == t.passes * bytes_per_pass(spec.pattern)
    got = [arenas[t.pattern] for t in w.threads]
    assert got[0] is got[1] and len(got[0]) * 8 == preset("toy").capacity
    assert got[2] is got[3] and len(got[2]) * 8 == 2048
    assert got[4] is None


def test_stride_must_be_word_multiple():
    w = WorkloadSpec("w", (ThreadSpec(StridedWalk(64, 4)),))
    with pytest.raises(NativeError):
        run_native(w, DUR)


def test_duration_must_be_positive():
    with pytest.raises(NativeError):
        run_native(gen_stream("copy", 64), 0.0)


def test_thread_cpus_round_robin():
    w = gen_offchip_antagonist(preset("toy"), 3, array_bytes=2048)
    assert _thread_cpus(w) == [None, None, None]
    assert _thread_cpus(replace(w, cpus=(4, 5))) == [4, 5, 4]


def test_pin_to_unavailable_cpu_rejected():
    w = replace(gen_stream("copy", 1024), cpus=(max(available_cpus()) + 17,))
    with pytest.raises(NativeError):
        run_native(w, DUR)


def test_pin_to_current_cpu_works():
    cpu = min(available_cpus())
    w = replace(gen_stream("copy", 1024), cpus=(cpu,))
    res = run_native(w, DUR)
    assert res.threads[0].cpu == cpu


def test_co_run_rejects_pin_clash():
    cpu = min(available_cpus())
    a = replace(gen_stream("copy", 1024), cpus=(cpu,))
    b = WorkloadSpec("b", (ThreadSpec(StridedWalk(4096, 64)),), (cpu,))
    with pytest.raises(NativeError):
        co_run(a, b, DUR)


def test_co_run_pins_clash_only_where_threads_run():
    cpus = sorted(available_cpus())
    if len(cpus) < 2:
        pytest.skip("needs 2 usable cpus")
    c0, c1 = cpus[:2]
    # the 1-thread primary runs on c0 only, so c1 is free for the secondary
    a = replace(gen_stream("copy", 1024), cpus=(c0, c1))
    b = WorkloadSpec("b", (ThreadSpec(StridedWalk(4096, 64)),), (c1,))
    ra, rb = co_run(a, b, DUR)
    assert (ra.threads[0].cpu, rb.threads[0].cpu) == (c0, c1)


def test_co_run_returns_both_results():
    a = gen_stream("copy", 2048)
    b = WorkloadSpec("sweep", (ThreadSpec(StridedWalk(65536, 64)),))
    ra, rb = co_run(a, b, DUR)
    assert ra.workload == "stream.copy"
    assert rb.workload == "sweep"
    assert ra.threads[0].passes >= 1
    assert rb.threads[0].passes >= 1


def test_interference_report_idle_row():
    rows = native_interference_report(gen_stream("triad", 2048), [], DUR)
    assert len(rows) == 1
    assert rows[0].secondary == "idle"
    assert rows[0].normalized_bandwidth == 1.0
    assert rows[0].secondary_result is None


def test_interference_report_full():
    victim = gen_stream("triad", 2048)
    ant = WorkloadSpec("hog", (ThreadSpec(StridedWalk(65536, 64)),))
    rows = native_interference_report(victim, [ant], DUR)
    assert [r.secondary for r in rows] == ["idle", "hog"]
    assert rows[1].normalized_bandwidth > 0
    assert rows[1].secondary_result.workload == "hog"


def test_empty_workload_runs():
    res = run_native(WorkloadSpec("idle", ()), DUR)
    assert res.threads == ()
    assert res.bytes_touched == 0
    assert res.aggregate_bandwidth == 0.0
