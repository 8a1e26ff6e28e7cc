import io
import random
import shutil
from dataclasses import replace

import numpy as np
import pytest

from contend import patterns
from contend.experiment import experiment_from_dict
from contend.geometry import bank_of, conflict_stride, preset, set_of
from contend.patterns import (
    BucketSort,
    PatternError,
    StreamKernel,
    StridedWalk,
    ThreadSpec,
    WorkloadSpec,
    _bucket_positions,
    _draw_buckets,
    footprint,
    gen_bucket_sort,
    gen_offchip_antagonist,
    gen_onchip_antagonist,
    gen_stream,
    iter_ops,
    relocate,
    validate_workloads,
    workload_from_dict,
    workload_to_dict,
    write_trace_csv,
)

MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# pattern validation


def test_strided_walk_validation():
    StridedWalk(2 * MIB, 256 * 1024)
    with pytest.raises(PatternError):
        StridedWalk(1000, 256)          # arena not a stride multiple
    with pytest.raises(PatternError):
        StridedWalk(0, 64)
    with pytest.raises(PatternError):
        StridedWalk(1024, 64, op_mix="sometimes")


def test_shared_walk_validation():
    StridedWalk(4096, 32, "read", 2048)
    with pytest.raises(PatternError):
        StridedWalk(4096, 32, "read", 4096)     # offset outside arena
    with pytest.raises(PatternError):
        StridedWalk(4096, 32, "read", -32)      # offset outside arena
    with pytest.raises(PatternError):
        StridedWalk(4096, 32, "read", 17)       # offset not stride-aligned


def test_stream_kernel_validation():
    with pytest.raises(PatternError):
        StreamKernel("fma", 64)
    with pytest.raises(PatternError):
        StreamKernel("triad", 64, elem_bytes=4)
    assert StreamKernel("copy", 10).pass_length == 20
    assert StreamKernel("triad", 10).pass_length == 30
    assert StreamKernel("add", 10).arena_span == 240


def test_bucket_sort_lengths():
    p = BucketSort(100, n_buckets=10)
    assert p.pass_length == 4 * 100 + 10
    assert p.arena_span == 4 * (200 + 10)


# ---------------------------------------------------------------------------
# generators


def test_offchip_defaults_match_t1_recipe():
    g = preset("t1")
    w = gen_offchip_antagonist(g, 15)
    assert w.name == "harm.offchip"
    assert len(w.threads) == 15
    for t in w.threads:
        assert t.pattern.arena_bytes == 2 * MIB
        assert t.pattern.stride_bytes == conflict_stride(g) == 256 * 1024
        assert t.pattern.pass_length == 8
    # private arenas tile back to back
    assert [t.arena_base for t in w.threads] == [i * 2 * MIB for i in range(15)]


def test_offchip_hits_single_bank_and_set():
    g = preset("t1")
    w = gen_offchip_antagonist(g, 3)
    pairs = set()
    for i in range(3):
        for _, addr in iter_ops(w, i, w.threads[i].pattern.pass_length):
            pairs.add((bank_of(addr, g), set_of(addr, g)))
    assert pairs == {(0, 0)}
    assert footprint(w, g) == 1


def test_offchip_strict_stride_check():
    g = preset("t1")
    with pytest.raises(PatternError):
        gen_offchip_antagonist(g, 2, stride=128 * 1024)
    w = gen_offchip_antagonist(g, 2, stride=128 * 1024, strict=False)
    assert w.threads[0].pattern.stride_bytes == 128 * 1024


def test_offchip_stride_must_be_positive():
    with pytest.raises(PatternError, match="stride must be > 0, got 0"):
        gen_offchip_antagonist(preset("toy"), 1, stride=0)


def test_offchip_op_mix():
    g = preset("toy")
    w = gen_offchip_antagonist(g, 1, array_bytes=4096, op_mix="write")
    ops = {op for op, _ in iter_ops(w, 0, 8)}
    assert ops == {"w"}


def test_onchip_staggered_offsets():
    toy = preset("toy")
    w = gen_onchip_antagonist(toy, 2)
    assert w.name == "harm.onchip"
    offs = [t.pattern.start_offset for t in w.threads]
    assert offs == [0, 2048]
    assert [t.arena_base for t in w.threads] == [0, 0]
    t1 = preset("t1")
    w = gen_onchip_antagonist(t1, 4)
    offs = [t.pattern.start_offset for t in w.threads]
    assert offs == [0, 786432, 1572864, 2359296]
    for o in offs:
        assert o % t1.line_size == 0
    # every walker covers the shared capacity-sized arena
    for t in w.threads:
        assert t.pattern.arena_bytes == t1.capacity
        assert t.pattern.stride_bytes == t1.line_size


def test_onchip_covers_all_pairs():
    toy = preset("toy")
    w = gen_onchip_antagonist(toy, 2)
    assert footprint(w, toy) == toy.num_banks * toy.sets_per_bank


def test_sweep_antagonist():
    g = preset("harpertown")
    d = {"geometry": "harpertown", "primary": {"generator": "sweep", "threads": 2}}
    w = experiment_from_dict(d).primary
    assert w == replace(gen_offchip_antagonist(g, 2, 64 * MIB, stride=g.line_size,
                                               strict=False), name="primary")
    d["secondaries"] = [{"generator": "sweep"}]
    assert [s.name for s in experiment_from_dict(d).secondaries] == ["harm.sweep"]
    for t in w.threads:
        assert t.pattern.arena_bytes == 64 * MIB
        assert t.pattern.stride_bytes == g.line_size
        assert t.pattern.pass_length == MIB
    assert w.threads[1].arena_base == 64 * MIB


def test_stream_trace_copy_frozen():
    w = gen_stream("copy", 4)
    evs = list(iter_ops(w, 0, 8))
    assert evs == [("r", 0), ("w", 64), ("r", 8), ("w", 72),
                   ("r", 16), ("w", 80), ("r", 24), ("w", 88)]


def test_stream_trace_other_kinds_frozen():
    evs = list(iter_ops(gen_stream("triad", 2), 0, 6))
    assert evs == [("r", 16), ("r", 32), ("w", 0), ("r", 24), ("r", 40), ("w", 8)]
    evs = list(iter_ops(gen_stream("scale", 2), 0, 4))
    assert evs == [("r", 32), ("w", 16), ("r", 40), ("w", 24)]
    evs = list(iter_ops(gen_stream("add", 2), 0, 6))
    assert evs == [("r", 0), ("r", 16), ("w", 32), ("r", 8), ("r", 24), ("w", 40)]


def test_stream_wraps_to_next_pass():
    # arrays a, b, c back to back: a at 0, b at 16, c at 32
    w = gen_stream("copy", 2)
    evs = list(iter_ops(w, 0, 6))
    assert evs[:4] == [("r", 0), ("w", 32), ("r", 8), ("w", 40)]
    assert evs[4:] == [("r", 0), ("w", 32)]      # second pass restarts


# ---------------------------------------------------------------------------
# bucket sort


def _reference_bucket_trace(n_keys, n_buckets, seed, base=0):
    """Tiny independent model: count, prefix, then stable permute."""
    rng = random.Random(seed)
    keys = [rng.getrandbits(32) for _ in range(n_keys)]
    buckets = [(k * n_buckets) >> 32 for k in keys]
    key_addr = [base + 4 * i for i in range(n_keys)]
    cnt_addr = [base + 4 * n_keys + 4 * j for j in range(n_buckets)]
    out_base = base + 4 * (n_keys + n_buckets)
    evs = [("r", a) for a in key_addr]
    evs += [("w", cnt_addr[b]) for b in buckets]
    evs += [("w", a) for a in cnt_addr]
    counts = [0] * n_buckets
    for b in buckets:
        counts[b] += 1
    starts, total = [], 0
    for c in counts:
        starts.append(total)
        total += c
    placed = [0] * n_buckets
    for i, b in enumerate(buckets):
        pos = starts[b] + placed[b]
        placed[b] += 1
        evs.append(("r", key_addr[i]))
        evs.append(("w", out_base + 4 * pos))
    return evs


def test_bucket_sort_matches_reference():
    # 256, 65536 and 2**32 - 1 are the last bucket counts whose indices the
    # stable sort takes as uint8, uint16 and uint32; seed 116 puts a key in
    # bucket 65536, which a uint16 cast would wrap to 0
    for n_keys, n_buckets, seed in [(4, 2, 3), (37, 5, 11), (300, 1, 2), (300, 256, 3),
                                    (300, 257, 4), (800, 65536, 5), (800, 65537, 116)]:
        w = gen_bucket_sort(n_keys, n_buckets, iterations=1, seed=seed)
        got = list(iter_ops(w, 0, 4 * n_keys + n_buckets))
        assert got == _reference_bucket_trace(n_keys, n_buckets, seed)
    # one bucket: the stable sort keeps every key where it is
    _, pos = _bucket_positions(BucketSort(300, 1, seed=2))
    assert pos.tolist() == list(range(300))


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@needs_cc
def test_bucket_sort_feed_draws_only_the_keys_it_needs(monkeypatch):
    # a feed that ends before the permute phase draws the keys it counts and
    # places none; a longer one draws every key and places those whose
    # permuting write it holds
    p = BucketSort(50, 7, iterations=2, seed=9)
    full, _ = p.line_feed(2, p.pass_length)
    draws = []

    def spy(p, bucket, pos):
        _draw_buckets(p, bucket, pos)
        draws.append((len(bucket), len(pos)))
    monkeypatch.setattr(patterns, "_draw_buckets", spy)
    for limit in range(p.pass_length + 3):
        draws.clear()
        feed, n = p.line_feed(2, limit)
        assert n == limit
        assert feed.tolist() == full[:limit].tolist()
        # the permute phase starts at 2 * 50 + 7, a read then a write per key
        placed = max(min(limit, p.pass_length) - (2 * 50 + 7), 0) // 2
        assert draws == [(min(max(limit - 50, 0), 50), placed)]


@needs_cc
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70 + 5, -7])
def test_compiled_draw_matches_random(seed):
    # no keys; one bucket; more buckets than keys; past 256 buckets; the benchmark's sort
    for n_keys, n_buckets in [(0, 5), (37, 1), (50, 70000), (600, 300), (262144, 256)]:
        p = BucketSort(n_keys, n_buckets, seed=seed)
        keys = np.frombuffer(random.Random(seed).randbytes(4 * n_keys), "<u4").tolist()
        bucket = [(k * n_buckets) >> 32 for k in keys]
        pos = [0] * n_keys
        for at, i in enumerate(sorted(range(n_keys), key=bucket.__getitem__)):
            pos[i] = at
        got_buckets, got_pos = np.empty(n_keys, np.uint32), np.empty(n_keys, np.uint32)
        _draw_buckets(p, got_buckets, got_pos)
        assert got_buckets.tolist() == bucket
        assert got_pos.tolist() == pos
        # every other word, as in a line feed, and only the first positions
        words = np.zeros(n_keys, np.uint32)
        _draw_buckets(p, got_buckets, words[1::2])
        assert words[1::2].tolist() == pos[:n_keys // 2]
        assert not words[::2].any()
        # the count phase alone: a prefix of the buckets, no positions
        got_buckets = np.empty(n_keys // 3, np.uint32)
        _draw_buckets(p, got_buckets, np.empty(0, np.uint32))
        assert got_buckets.tolist() == bucket[:n_keys // 3]


def test_bucket_sort_seed_determinism():
    a = list(iter_ops(gen_bucket_sort(64, 8, seed=5), 0, 500))
    b = list(iter_ops(gen_bucket_sort(64, 8, seed=5), 0, 500))
    c = list(iter_ops(gen_bucket_sort(64, 8, seed=6), 0, 500))
    assert a == b
    assert a != c


def test_bucket_sort_iterations_repeat_trace():
    one = list(iter_ops(gen_bucket_sort(8, 2, iterations=1, seed=1), 0, 10_000))
    two = list(iter_ops(gen_bucket_sort(8, 2, iterations=2, seed=1), 0, 10_000))
    assert two == one * 2
    # a finite pattern stops by itself below the limit
    assert len(one) == 4 * 8 + 2


# ---------------------------------------------------------------------------
# expansion mechanics


def test_strided_walk_wraps():
    w = WorkloadSpec("w", (ThreadSpec(StridedWalk(1024, 256)),))
    addrs = [a for _, a in iter_ops(w, 0, 5)]
    assert addrs == [0, 256, 512, 768, 0]


def test_shared_walk_wraps_from_offset():
    w = WorkloadSpec("w", (ThreadSpec(StridedWalk(4096, 64, "read", 4032)),))
    addrs = [a for _, a in iter_ops(w, 0, 3)]
    assert addrs == [4032, 0, 64]


@pytest.mark.parametrize("w, limit, want", [
    # readwrite takes its op from the global event index: with an odd pass
    # length the ops flip at every pass boundary
    (WorkloadSpec("w", (ThreadSpec(StridedWalk(192, 64, "readwrite")),)), 7,
     [("r", 0), ("w", 64), ("r", 128), ("w", 0), ("r", 64), ("w", 128), ("r", 0)]),
    (WorkloadSpec("w", (ThreadSpec(StridedWalk(256, 64, "read", 128), 1024),)), 5,
     [("r", 1152), ("r", 1216), ("r", 1024), ("r", 1088), ("r", 1152)]),
    # the op cycle starts at the first event, wherever start_offset puts it
    (WorkloadSpec("w", (ThreadSpec(StridedWalk(192, 64, "readwrite", 128), 512),)), 7,
     [("r", 640), ("w", 512), ("r", 576), ("w", 640), ("r", 512), ("w", 576), ("r", 640)]),
])
def test_walk_stream_frozen(w, limit, want):
    assert list(iter_ops(w, 0, limit)) == want


def test_shared_walk_uses_arena_base():
    # two walks at one base share its arena, each from its own offset
    w = WorkloadSpec("w", (ThreadSpec(StridedWalk(256, 64, "read", 0), 1 << 20),
                           ThreadSpec(StridedWalk(256, 128, "write", 128), 1 << 20)))
    validate_workloads([w], 64)
    assert w.arenas() == {(1 << 20, (1 << 20) + 256): [0, 1]}
    assert list(iter_ops(w, 0, 5)) == [("r", (1 << 20) + a) for a in (0, 64, 128, 192, 0)]
    assert list(iter_ops(w, 1, 3)) == [("w", (1 << 20) + a) for a in (128, 0, 128)]


def test_footprint_empty_workload():
    assert footprint(WorkloadSpec("empty", ()), preset("toy")) == 0


# ---------------------------------------------------------------------------
# workload-level checks


def test_validate_rejects_unaligned_base():
    w = WorkloadSpec("w", (ThreadSpec(StridedWalk(1024, 256), arena_base=96),))
    with pytest.raises(PatternError):
        validate_workloads([w], line_size=64)
    validate_workloads([w], line_size=32)      # aligned for a 32-byte line


def test_validate_rejects_partial_walk_overlap():
    # one arena is shared only by walks whose ranges are equal
    w = WorkloadSpec("w", (ThreadSpec(StridedWalk(4096, 64)), ThreadSpec(StridedWalk(2048, 64))))
    with pytest.raises(PatternError, match="arenas overlap at 0x0"):
        validate_workloads([w], 64)
    w = WorkloadSpec("w", (ThreadSpec(StridedWalk(4096, 64)),
                           ThreadSpec(StridedWalk(4096, 64), 2048)))
    with pytest.raises(PatternError, match="arenas overlap at 0x800"):
        validate_workloads([w], 64)


@pytest.mark.parametrize("first, second", [
    (StreamKernel("triad", 64), StreamKernel("triad", 64)),
    (StridedWalk(1536, 64), StreamKernel("triad", 64)),
    (StreamKernel("triad", 64), StridedWalk(1536, 64)),
])
def test_validate_rejects_equal_arenas_unless_walks(first, second):
    w = WorkloadSpec("w", (ThreadSpec(first, 4096), ThreadSpec(second, 4096)))
    with pytest.raises(PatternError, match="thread 1 reuses the arena at 0x1000"):
        validate_workloads([w], 64)


def test_validate_names_the_first_thread_that_is_no_walk():
    walks = (ThreadSpec(StridedWalk(1536, 64), 4096),
             ThreadSpec(StridedWalk(1536, 64, "read", 64), 4096))
    w = WorkloadSpec("w", (*walks, ThreadSpec(StreamKernel("triad", 64), 4096)))
    with pytest.raises(PatternError, match="thread 2 reuses the arena at 0x1000"):
        validate_workloads([w], 64)


def test_arenas_and_end():
    w = gen_offchip_antagonist(preset("t1"), 2)
    assert w.arenas() == {(0, 2 * MIB): [0], (2 * MIB, 4 * MIB): [1]}
    assert w.end_address() == 4 * MIB
    on = gen_onchip_antagonist(preset("toy"), 2)
    assert on.arenas() == {(0, 4096): [0, 1]}
    # an empty stream claims no arena
    assert WorkloadSpec("e", (ThreadSpec(StreamKernel("copy", 0), 64),)).arenas() == {}


def test_relocate_preserves_mapping_at_stride_multiples():
    g = preset("t1")
    w = gen_offchip_antagonist(g, 2)
    moved = relocate(w, 8 * conflict_stride(g))
    orig = [(bank_of(a, g), set_of(a, g)) for _, a in iter_ops(w, 0, 8)]
    got = [(bank_of(a, g), set_of(a, g)) for _, a in iter_ops(moved, 0, 8)]
    assert got == orig
    assert moved.threads[0].arena_base == 8 * conflict_stride(g)


def test_relocate_keeps_shared_walks_together():
    w = gen_onchip_antagonist(preset("toy"), 2)
    moved = relocate(w, 4096)
    assert [t.arena_base for t in moved.threads] == [4096, 4096]
    assert moved.arenas() == {(4096, 8192): [0, 1]}
    assert [a for _, a in iter_ops(moved, 1, 1)] == [4096 + 2048]


# ---------------------------------------------------------------------------
# serialization and trace output


def test_workload_round_trip():
    sweep = gen_offchip_antagonist(preset("harpertown"), 2, 64 * MIB, stride=64, strict=False)
    samples = [
        gen_offchip_antagonist(preset("t1"), 3),
        gen_onchip_antagonist(preset("toy"), 2),
        gen_stream("triad", 128),
        gen_bucket_sort(50, 5, iterations=2, seed=9),
        sweep,
        WorkloadSpec("w", (ThreadSpec(StridedWalk(256, 64, "readwrite", 128), 1024),)),
    ]
    for w in samples:
        assert workload_from_dict(workload_to_dict(w)) == w
    # a config pins workloads through native.pins, so a workload's JSON has no cpus
    pinned = workload_to_dict(WorkloadSpec(sweep.name, sweep.threads, (0, 1)))
    assert sorted(pinned) == ["name", "threads"]
    assert [sorted(t) for t in pinned["threads"]] == [["arena_base", "pattern"]] * 2
    assert workload_from_dict(pinned) == sweep


def test_workload_from_dict_rejects_junk():
    with pytest.raises(PatternError):
        workload_from_dict({"name": "x"})
    with pytest.raises(PatternError):
        workload_from_dict({"name": "x", "threads": [{"pattern": {"variant": "Nope"}}]})


def test_trace_csv_format():
    buf = io.StringIO()
    write_trace_csv(gen_stream("copy", 2), 4, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "thread,seq,op,address"
    assert lines[1] == "0,0,r,0x0"
    assert lines[2] == "0,1,w,0x20"
    assert len(lines) == 5


def test_event_fields():
    # the thread and seq columns of a trace: seq counts events per thread,
    # restarting at 0 for every thread
    buf = io.StringIO()
    write_trace_csv(gen_stream("copy", 4), 3, buf)
    rows = [line.split(",")[:2] for line in buf.getvalue().splitlines()[1:]]
    assert rows == [["0", "0"], ["0", "1"], ["0", "2"]]
    buf = io.StringIO()
    write_trace_csv(gen_offchip_antagonist(preset("toy"), 2, array_bytes=2048), 2, buf)
    rows = [line.split(",")[:2] for line in buf.getvalue().splitlines()[1:]]
    assert rows == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
