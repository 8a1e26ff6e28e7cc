"""Deterministic access-pattern generators: cache antagonists and victims.

Workloads are built from three pattern kinds:

* StridedWalk   - an arena of arena_bytes walked with a fixed stride from
                  start_offset.  With the geometry's conflict stride over
                  private arenas it is the same-set walker that floods the
                  memory controller; walked line by line by several threads
                  at one arena_base, from staggered offsets, over a
                  capacity-sized arena, it is the whole-cache polluter.
* StreamKernel  - the copy/scale/add/triad vector kernels over three arrays.
* BucketSort    - a seeded bucket-sort memory model (read keys, count into
                  buckets, prefix pass, permuting writes).

Each pattern's ops(base) is its lazy (op, address) stream for one thread
whose arena starts at base; streams are bit-deterministic for fixed inputs.
line_feed(line_shift, limit) is the same stream for the compiled simulator:
a uint32 array of ((addr - base) >> line_shift) << 1 | is_write holding the
first min(cycle, limit) events, cycled to give the first n_events of ops().
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, cycle, islice, repeat
from typing import Iterator, Union

import numpy as np

from . import _compiled
from .geometry import CacheGeometry, _check_json, bank_of, conflict_stride, set_of

KIB = 1024
MIB = 1024 * 1024

READ = "r"
WRITE = "w"

STREAM_KINDS = ("copy", "scale", "add", "triad")
# kind -> (source arrays, destination array), 0/1/2 for a/b/c
_STREAM_ARRAYS = {"copy": ((0,), 2), "scale": ((2,), 1),
                  "add": ((0, 1), 2), "triad": ((1, 2), 0)}
# op_mix -> the ops a walk cycles through, indexed by the global event count
OP_MIXES = {"read": (READ,), "write": (WRITE,), "readwrite": (READ, WRITE)}


class PatternError(ValueError):
    """Raised for inconsistent pattern or workload descriptions."""


@dataclass(frozen=True)
class StridedWalk:
    arena_bytes: int
    stride_bytes: int
    op_mix: str = "read"
    start_offset: int = 0
    access_bytes = None      # bytes one access moves: None for a whole line

    def __post_init__(self):
        if self.stride_bytes <= 0 or self.arena_bytes <= 0:
            raise PatternError("arena and stride must be positive")
        if self.arena_bytes % self.stride_bytes != 0:
            raise PatternError(
                f"arena {self.arena_bytes} not a multiple of stride {self.stride_bytes}"
            )
        if self.op_mix not in OP_MIXES:
            raise PatternError(
                f"op_mix must be one of {tuple(OP_MIXES)}, got {self.op_mix!r}"
            )
        if not (0 <= self.start_offset < self.arena_bytes):
            raise PatternError(f"start_offset {self.start_offset} outside arena")
        if self.start_offset % self.stride_bytes != 0:
            raise PatternError(f"start_offset {self.start_offset} not stride-aligned")

    @property
    def arena_span(self) -> int:
        return self.arena_bytes

    @property
    def pass_length(self) -> int:
        """Accesses in one full pass over the arena."""
        return self.arena_bytes // self.stride_bytes

    @property
    def period(self) -> int:
        """Events after which the stream repeats: whole passes and op cycles."""
        return math.lcm(self.pass_length, len(OP_MIXES[self.op_mix]))

    def ops(self, base: int) -> Iterator[tuple[str, int]]:
        """Endless passes from start_offset, wrapping to the arena start;
        readwrite alternates ops from the first event, across pass boundaries."""
        addrs = range(base, base + self.arena_bytes, self.stride_bytes)
        walk = chain.from_iterable(repeat(addrs))
        if self.start_offset:
            walk = chain(addrs[self.start_offset // self.stride_bytes:], walk)
        return zip(cycle(OP_MIXES[self.op_mix]), walk)

    def line_feed(self, line_shift: int, limit: int) -> tuple[np.ndarray, int]:
        ops = OP_MIXES[self.op_mix]
        feed = _walk_lines(self.start_offset // self.stride_bytes, self.pass_length,
                           min(self.period, limit), self.stride_bytes, line_shift)
        for j, op in enumerate(ops):
            if op == WRITE:
                feed[j::len(ops)] |= 1
        return feed, limit


@dataclass(frozen=True)
class StreamKernel:
    kind: str
    n_elems: int
    elem_bytes: int = 8

    def __post_init__(self):
        if self.kind not in STREAM_KINDS:
            raise PatternError(f"kind must be one of {STREAM_KINDS}, got {self.kind!r}")
        if self.n_elems < 0:
            raise PatternError("n_elems must be >= 0")
        if self.elem_bytes != 8:
            raise PatternError("only 8-byte elements are supported")
        if 3 * self.n_elems >= 1 << 32:
            raise PatternError("3 * n_elems must be below 2**32 (32-bit element indices)")

    @property
    def arena_span(self) -> int:
        # arrays a, b, c laid out back to back
        return 3 * self.n_elems * self.elem_bytes

    @property
    def access_bytes(self) -> int:
        """Bytes one access moves: one element."""
        return self.elem_bytes

    @property
    def events_per_elem(self) -> int:
        return 2 if self.kind in ("copy", "scale") else 3

    @property
    def pass_length(self) -> int:
        return self.events_per_elem * self.n_elems

    def ops(self, base: int) -> Iterator[tuple[str, int]]:
        """Endless passes: per element, the source reads then the write."""
        n, eb = self.n_elems, self.elem_bytes
        if n == 0:
            return
        srcs, dst = _STREAM_ARRAYS[self.kind]
        srcs = [base + k * n * eb for k in srcs]
        dst = base + dst * n * eb
        while True:
            for off in range(0, n * eb, eb):
                for src in srcs:
                    yield (READ, src + off)
                yield (WRITE, dst + off)

    def line_feed(self, line_shift: int, limit: int) -> tuple[np.ndarray, int]:
        n, per = self.n_elems, self.events_per_elem
        if n == 0:
            return np.empty(0, np.uint32), 0
        length = min(self.pass_length, limit)
        elems = -(-length // per)
        feed = np.empty(elems * per, np.uint32)
        srcs, dst = _STREAM_ARRAYS[self.kind]
        for j, k in enumerate((*srcs, dst)):
            feed[j::per] = np.arange(k * n, k * n + elems, dtype=np.uint32)
        _words_to_lines(feed, self.access_bytes, line_shift)
        feed[per - 1::per] |= 1
        return feed[:length], limit


@dataclass(frozen=True)
class BucketSort:
    n_keys: int
    n_buckets: int = 10
    iterations: int = 10
    seed: int = 0
    access_bytes = 4         # bytes one access moves: one 32-bit word

    def __post_init__(self):
        if self.n_keys < 0:
            raise PatternError("n_keys must be >= 0")
        if self.n_buckets < 1:
            raise PatternError("n_buckets must be >= 1")
        if self.iterations < 0:
            raise PatternError("iterations must be >= 0")
        if 2 * self.n_keys + self.n_buckets >= 1 << 32:
            raise PatternError("2 * n_keys + n_buckets must be below 2**32 "
                               "(32-bit word indices)")

    @property
    def arena_span(self) -> int:
        # 32-bit keys, per-bucket counters, permuted output
        return 4 * (2 * self.n_keys + self.n_buckets)

    @property
    def pass_length(self) -> int:
        """Events in one iteration: read keys, count, prefix, permute."""
        return 4 * self.n_keys + self.n_buckets

    def keys(self, count: int | None = None) -> np.ndarray:
        """The seeded generator's first count (default n_keys) successive
        32-bit draws, as uint32: randbytes lays out getrandbits(32) words
        least significant first, so a shorter draw is a prefix of a longer.
        ops() and the native kernel use these; line_feed's compiled draw
        (_draw_buckets) gives the same keys without them."""
        n = self.n_keys if count is None else count
        return np.frombuffer(random.Random(self.seed).randbytes(4 * n), "<u4")

    def ops(self, base: int) -> Iterator[tuple[str, int]]:
        """iterations repeats of one pass; keys are drawn once per stream."""
        # memoryviews index as Python ints without a list's per-element objects
        buckets, pos = map(memoryview, _bucket_positions(self))
        cnt_base = base + 4 * self.n_keys
        out_base = cnt_base + 4 * self.n_buckets
        for _ in range(self.iterations):
            for i in range(self.n_keys):
                yield (READ, base + 4 * i)
            for i in range(self.n_keys):
                yield (WRITE, cnt_base + 4 * buckets[i])
            for b in range(self.n_buckets):
                yield (WRITE, cnt_base + 4 * b)
            for i in range(self.n_keys):
                yield (READ, base + 4 * i)
                yield (WRITE, out_base + 4 * pos[i])

    def line_feed(self, line_shift: int, limit: int) -> tuple[np.ndarray, int]:
        """One iteration; its 4-byte words are keys [0, n), counters
        [n, n + n_buckets), then the output.  The compiled library
        (_draw_buckets) writes the buckets and output positions into the
        feed itself: only the buckets of the keys counted, and the positions
        of the permuting writes in."""
        n, nb = self.n_keys, self.n_buckets
        total = self.iterations * self.pass_length
        length = min(self.pass_length, limit, total)
        perm = 2 * n + nb
        feed = np.empty(length, np.uint32)
        counted, placed = feed[n:2 * n], feed[perm + 1::2]
        _draw_buckets(self, counted, placed)

        def put(view, first):
            view[:] = np.arange(first, first + len(view), dtype=np.uint32)

        put(feed[:n], 0)
        counted += n
        put(feed[2 * n:perm], n)
        put(feed[perm::2], 0)
        placed += n + nb
        _words_to_lines(feed, self.access_bytes, line_shift)
        feed[n:perm] |= 1
        feed[perm + 1::2] |= 1
        return feed, min(limit, total)


Pattern = Union[StridedWalk, StreamKernel, BucketSort]


@dataclass(frozen=True)
class ThreadSpec:
    pattern: Pattern
    arena_base: int = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """A named set of threads.  cpus places them natively: thread i runs on
    cpus[i % len(cpus)]; an empty tuple leaves every thread unpinned."""
    name: str
    threads: tuple[ThreadSpec, ...]
    cpus: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "threads", tuple(self.threads))
        object.__setattr__(self, "cpus", tuple(self.cpus))

    def arenas(self) -> dict[tuple[int, int], list[int]]:
        """The threads of each non-empty half-open [base, end) byte range, in
        order of first use; threads whose ranges are equal share one arena."""
        arenas = {}
        for i, t in enumerate(self.threads):
            if (span := t.pattern.arena_span) > 0:
                arenas.setdefault((t.arena_base, t.arena_base + span), []).append(i)
        return arenas

    def end_address(self) -> int:
        return max((end for _, end in self.arenas()), default=0)


def validate_workloads(workloads, line_size: int) -> None:
    """Check that every arena of the given workloads is line-aligned and
    inside [0, 2**63), and that arenas are disjoint.  Walks of one workload
    whose arenas are equal share that arena; every other overlap, within a
    workload or across two, is refused."""
    spans = []
    for w in workloads:
        for i, t in enumerate(w.threads):
            if t.arena_base % line_size != 0:
                raise PatternError(
                    f"{w.name}: thread {i} arena base {t.arena_base:#x} not line-aligned"
                )
            end = t.arena_base + t.pattern.arena_span
            if t.arena_base < 0 or end > 1 << 63:   # the compiled loop caches line << 1 | dirty
                raise PatternError(f"an arena of {w.name!r} spans bytes "
                                   f"[{t.arena_base}, {end}), outside [0, 2**63)")
        for (base, end), users in w.arenas().items():
            if len(users) > 1:
                walks = [type(w.threads[i].pattern) is StridedWalk for i in users]
                if not all(walks):   # name the second claimant when the first is no walk
                    raise PatternError(f"{w.name}: thread {users[max(walks.index(False), 1)]} "
                                       f"reuses the arena at {base:#x}; only walks share an arena")
            spans.append((base, end, w.name))
    spans.sort()
    for (_, a1, an), (b0, _, bn) in zip(spans, spans[1:]):
        if b0 < a1:
            names = an if an == bn else f"{an} and {bn}"
            raise PatternError(f"{names}: arenas overlap at {b0:#x} (previous ends {a1:#x})")


# ---------------------------------------------------------------------------
# workload generators


def gen_offchip_antagonist(
    g: CacheGeometry,
    n_threads: int = 15,
    array_bytes: int = 2 * MIB,
    stride: int | None = None,
    op_mix: str = "read",
    strict: bool = True,
    cpus=(),
) -> WorkloadSpec:
    """Same-set strided walkers: maximal memory traffic, minimal set footprint.

    Each thread gets a private array_bytes arena walked with the geometry's
    conflict stride, so every access of a thread lands in one (bank, set)
    and, with enough threads, every access misses.
    """
    if n_threads < 1:
        raise PatternError("n_threads must be >= 1")
    if stride is None:
        stride = conflict_stride(g)
    if stride <= 0:
        raise PatternError(f"stride must be > 0, got {stride}")
    if strict and stride % conflict_stride(g) != 0:
        raise PatternError(
            f"stride {stride} is not a multiple of conflict stride "
            f"{conflict_stride(g)}; accesses would spread across sets "
            f"(pass strict=False to allow)"
        )
    if array_bytes % stride != 0:
        raise PatternError(f"array_bytes {array_bytes} not a multiple of stride {stride}")
    walk = StridedWalk(array_bytes, stride, op_mix)
    threads = [ThreadSpec(walk, t * array_bytes) for t in range(n_threads)]
    return WorkloadSpec("harm.offchip", threads, cpus)


def gen_onchip_antagonist(g: CacheGeometry, n_threads: int = 4) -> WorkloadSpec:
    """Whole-cache walkers over one shared capacity-sized arena.

    Threads advance line by line from equally spaced, line-aligned starting
    offsets; a full pass by any thread touches every line of the arena once,
    evicting every co-runner line from every set.
    """
    if n_threads < 1:
        raise PatternError("n_threads must be >= 1")
    cap = g.capacity
    line = g.line_size
    threads = [
        ThreadSpec(StridedWalk(cap, line, "read", (t * cap // n_threads) // line * line), 0)
        for t in range(n_threads)
    ]
    return WorkloadSpec("harm.onchip", threads)


def gen_stream(kind: str, n_elems: int, cpu: int | None = None) -> WorkloadSpec:
    """Single-threaded vector kernel over arrays a, b, c laid back to back."""
    k = StreamKernel(kind, n_elems)
    return WorkloadSpec(f"stream.{kind}", (ThreadSpec(k, 0),), () if cpu is None else (cpu,))


def gen_bucket_sort(
    n_keys: int,
    n_buckets: int = 10,
    iterations: int = 10,
    seed: int = 0,
) -> WorkloadSpec:
    """Single-threaded seeded bucket sort over 32-bit keys."""
    p = BucketSort(n_keys, n_buckets, iterations, seed)
    return WorkloadSpec("bucketsort", (ThreadSpec(p, 0),))


def relocate(w: WorkloadSpec, new_base: int) -> WorkloadSpec:
    """Shift every arena so the lowest base lands on new_base."""
    if not w.threads:
        return w
    delta = new_base - min(t.arena_base for t in w.threads)
    return WorkloadSpec(w.name, [ThreadSpec(t.pattern, t.arena_base + delta)
                                 for t in w.threads], w.cpus)


# ---------------------------------------------------------------------------
# expansion into access events


def _buckets(keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """Bucket index of each of the keys, as uint32."""
    # bucket indices (keys * n_buckets) >> 32 need 64-bit products
    wide = np.multiply(keys, n_buckets, dtype=np.uint64)
    # a fresh keys array passed in (this frame then holds its only reference)
    # is freed here, so the result can reuse its memory: held to the end, it
    # put bucketsort_onchip's setup_s 6% higher
    del keys
    wide >>= 32
    return wide.astype(np.uint32)


def _bucket_positions(p: BucketSort) -> tuple[np.ndarray, np.ndarray]:
    """Bucket index and stable output position of every key, as uint32, for
    ops(); _draw_buckets gives the same for line_feed.

    Linear in n_keys up to 65536 buckets: the stable sort runs on the bucket
    indices cast to the narrowest unsigned type that holds n_buckets - 1,
    and numpy's stable sort of an integer type of 16 bits or less is a radix
    sort.  With more buckets the same call is a merge sort on uint32."""
    buckets = _buckets(p.keys(), p.n_buckets)
    order = np.argsort(buckets.astype(np.min_scalar_type(p.n_buckets - 1)), kind="stable")
    pos = np.empty(p.n_keys, np.uint32)
    pos[order] = np.arange(p.n_keys, dtype=np.uint32)
    return buckets, pos


def _draw_buckets(p: BucketSort, bucket: np.ndarray, pos: np.ndarray) -> None:
    """In place, as _buckets and _bucket_positions give them: bucket[i] is
    the bucket index of key i, for i < len(bucket), and pos[i] the stable
    output position of key i, for i < len(pos); a non-empty pos needs every
    key's bucket, so len(bucket) must then be n_keys.  Both are uint32
    views, bucket contiguous and pos of any stride in whole words, such as
    every other word of a line feed.  The compiled library draws the keys as
    random.Random(seed) does and places them by a counting sort; with pos
    empty, nothing of n_buckets' size is allocated."""
    lib = _compiled.library()
    if lib is None:
        raise PatternError("a bucket sort's line feed needs the compiled library")
    if (bucket.dtype != np.uint32 or pos.dtype != np.uint32 or not bucket.flags.c_contiguous
            or pos.strides[0] % 4 or len(pos) and len(bucket) != p.n_keys):
        raise ValueError("unusable bucket or position view")
    seed = abs(p.seed)   # random.seed takes the words of abs(seed), least significant first
    words = np.frombuffer(seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little"),
                          "<u4").astype(np.uint32, copy=False)
    if lib.simcore_bucket_sort(words.ctypes.data, len(words), len(bucket), p.n_buckets,
                               bucket.ctypes.data, pos.ctypes.data, len(pos),
                               pos.strides[0] // 4) < 0:
        raise MemoryError("simcore_bucket_sort could not allocate its bucket counters")


def _words_to_lines(feed: np.ndarray, word_bytes: int, line_shift: int) -> None:
    """In place: word indices -> (index of the word's line) << 1."""
    word_shift = word_bytes.bit_length() - 1
    if line_shift >= word_shift:
        feed >>= line_shift - word_shift
    else:
        feed <<= word_shift - line_shift
    feed <<= 1


def _walk_lines(first: int, n: int, length: int, stride: int, line_shift: int) -> np.ndarray:
    """(line index << 1) of steps first, first + 1, ... (mod n) of a walk
    with n steps of stride bytes, length of them, as uint32."""
    if stride % (1 << line_shift) == 0:
        feed = np.arange(first, first + length, dtype=np.uint32)
        feed %= n
        feed *= (stride >> line_shift) << 1
        return feed
    # a stride that is not a whole number of lines: the byte offsets may
    # pass 2**32, so they are formed in 64 bits
    steps = np.arange(first, first + length, dtype=np.uint64) % n
    return ((steps * stride) >> line_shift << 1).astype(np.uint32)


def iter_ops(w: WorkloadSpec, thread_idx: int, limit: int) -> Iterator[tuple[str, int]]:
    """At most limit (op, address) pairs for one thread, lazily."""
    if limit < 0:
        raise PatternError("limit must be >= 0")
    t = w.threads[thread_idx]
    return islice(t.pattern.ops(t.arena_base), limit)


def footprint(w: WorkloadSpec, g: CacheGeometry) -> int:
    """Distinct (bank, set) pairs touched by one full pass of every thread."""
    validate_workloads([w], g.line_size)
    pairs = set()
    for i, t in enumerate(w.threads):
        for _, addr in iter_ops(w, i, t.pattern.pass_length):
            pairs.add((bank_of(addr, g), set_of(addr, g)))
    return len(pairs)


# ---------------------------------------------------------------------------
# serialization

_PATTERN_TYPES = (StridedWalk, StreamKernel, BucketSort)
# a literal workload's and thread's JSON fields; a workload's cpus come
# from the config's pin map
_WORKLOAD_FIELDS = {"name": "str", "threads": "list"}
_THREAD_FIELDS = {"pattern": "dict", "arena_base": "int"}


def _pattern_to_dict(p: Pattern) -> dict:
    d = {"variant": type(p).__name__}
    d.update({k: getattr(p, k) for k in p.__dataclass_fields__})
    return d


def _pattern_from_dict(d: dict) -> Pattern:
    kwargs = dict(d)
    variant = kwargs.pop("variant", None)
    # compared by equality: a variant need not be hashable
    cls = next((c for c in _PATTERN_TYPES if c.__name__ == variant), None)
    if cls is None:
        raise PatternError(f"unknown pattern variant {variant!r}")
    _check_json(kwargs, cls, cls.__name__, PatternError)
    return cls(**kwargs)


def workload_to_dict(w: WorkloadSpec) -> dict:
    return {
        "name": w.name,
        "threads": [
            {"pattern": _pattern_to_dict(t.pattern), "arena_base": t.arena_base}
            for t in w.threads
        ],
    }


def workload_from_dict(d: dict) -> WorkloadSpec:
    _check_json(d, _WORKLOAD_FIELDS, "workload", PatternError, required=("name", "threads"))
    threads = []
    for t in d["threads"]:
        _check_json(t, _THREAD_FIELDS, "thread", PatternError, required=("pattern",))
        threads.append(ThreadSpec(_pattern_from_dict(t["pattern"]), t.get("arena_base", 0)))
    return WorkloadSpec(d["name"], threads)


def write_trace_csv(w: WorkloadSpec, per_thread_limit: int, fh) -> None:
    """Emit the expanded trace as CSV: thread,seq,op,address (hex address)."""
    fh.write("thread,seq,op,address\n")
    for i in range(len(w.threads)):
        for seq, (op, addr) in enumerate(iter_ops(w, i, per_thread_limit)):
            fh.write(f"{i},{seq},{op},0x{addr:x}\n")
