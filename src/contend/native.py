"""Execute workload specs as real pinned OS threads and measure bandwidth.

Each pattern becomes one thread running a numpy kernel over mmap-backed
(page-aligned) arenas; numpy releases the GIL for large array operations, so
co-running workloads genuinely contend for the host's caches and memory
controllers.  Reads feed a checksum and writes store index-derived values,
so no access can be elided; whether an access is then satisfied from a cache
is exactly the effect under study.

Timing protocol: allocate and initialize per thread (first touch; an arena
that several walks share is allocated once, before the threads start), one
untimed warm-up pass, then all threads rendezvous on a barrier and run timed
full passes until the requested duration elapses.  Byte accounting is exact:
bytes_touched = passes * bytes_per_pass(pattern).
"""

from __future__ import annotations

import mmap
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .patterns import BucketSort, StreamKernel, StridedWalk, WorkloadSpec, _buckets

DEFAULT_LINE_SIZE = 64


class NativeError(RuntimeError):
    """Raised for allocation, pinning, or sizing failures in native runs."""


@dataclass(frozen=True)
class ThreadResult:
    thread: int
    cpu: int | None
    passes: int
    bytes_touched: int
    elapsed: float
    bandwidth: float
    checksum: int


@dataclass(frozen=True)
class NativeResult:
    workload: str
    threads: tuple[ThreadResult, ...]
    bytes_touched: int
    aggregate_bandwidth: float       # sum of per-thread bandwidths
    checksum: int                    # xor of per-thread checksums


def available_cpus() -> set[int]:
    try:
        return set(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return set(range(os.cpu_count() or 1))


def pinning_supported() -> bool:
    return hasattr(os, "sched_setaffinity")


def _alloc_words(n_words: int) -> np.ndarray:
    nbytes = max(n_words * 8, mmap.PAGESIZE)
    try:
        mm = mmap.mmap(-1, nbytes)
    except (OSError, OverflowError) as e:
        raise NativeError(f"cannot allocate {nbytes} bytes: {e}") from e
    # frombuffer holds a view of mm, keeping the mapping alive with the array
    return np.frombuffer(mm, dtype=np.int64, count=n_words)


def bytes_per_pass(pattern) -> int:
    """Exact bytes accounted to one full pass of a pattern: its accesses
    times the bytes one access moves, a whole line for the walks."""
    return pattern.pass_length * (pattern.access_bytes or DEFAULT_LINE_SIZE)


def _alloc_arena(n_bytes: int) -> np.ndarray:
    """Words of a walked arena, first-touched with index-derived values."""
    arr = _alloc_words(n_bytes // 8)
    arr[:] = np.arange(n_bytes // 8, dtype=np.int64) & 0xFFFF
    return arr


def _word_step(p) -> int:
    if p.stride_bytes % 8 != 0:
        raise NativeError(
            f"native walks step in 8-byte words; stride {p.stride_bytes} "
            "is not a multiple of 8"
        )
    return p.stride_bytes // 8


# Each kernel allocates a pattern's state and returns its pass function, which
# runs one full pass and returns a pass-invariant checksum.  arena holds the
# words of an arena that several threads walk, allocated by the controller,
# and is None for a private arena.


def _strided_kernel(p: StridedWalk, arena):
    step = _word_step(p)
    if arena is None:
        arena = _alloc_arena(p.arena_bytes)
    view = arena[::step]
    fill = np.arange(len(view), dtype=np.int64)
    # a pass runs from start_offset to the arena's end, then from its start
    first = p.start_offset // p.stride_bytes
    head, tail = view[first:], view[:first]
    if p.op_mix == "read":
        if first:
            return lambda: int(head.sum()) + int(tail.sum())
        return lambda: int(view.sum())
    head_fill, tail_fill = fill[first:], fill[:first]
    summed = fill if p.op_mix == "write" else view

    def write_pass():
        head[:] = head_fill
        if first:
            tail[:] = tail_fill
        return int(summed.sum())
    return write_pass


def _stream_kernel(p: StreamKernel, arena):
    n = p.n_elems
    a, b, c = (_alloc_words(n) for _ in range(3))
    idx = np.arange(n, dtype=np.int64) & 0x3FF
    a[:] = idx
    b[:] = idx + 1
    c[:] = idx + 2
    dst, value = {"copy": (c, lambda: a), "scale": (b, lambda: 3 * c),
                  "add": (c, lambda: a + b), "triad": (a, lambda: b + 3 * c)}[p.kind]

    def stream_pass():
        dst[:] = value()
        return int(dst.sum())
    return stream_pass


def _bucket_kernel(p: BucketSort, arena):
    keys = p.keys().astype(np.uint64)   # the simulator's keys and buckets
    buckets = _buckets(p, p.n_keys).astype(np.intp)
    out = np.zeros(p.n_keys, dtype=np.uint64)

    def sort_pass():
        counts = np.bincount(buckets, minlength=p.n_buckets)
        starts = np.cumsum(counts) - counts
        order = np.argsort(buckets, kind="stable")
        out[:] = keys[order]
        return int(out.sum() + starts.sum()) & 0xFFFFFFFFFFFFFFFF
    return sort_pass


_KERNELS = {
    StridedWalk: _strided_kernel,
    StreamKernel: _stream_kernel,
    BucketSort: _bucket_kernel,
}


def _thread_main(idx, pattern, arena, cpu, duration, barrier, results, errors):
    """Thread idx of its workload: pin, then allocate and first-touch the
    kernel's state on that cpu, warm up, and time passes; fills results[idx],
    or errors[idx] on failure."""
    try:
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except (AttributeError, OSError) as e:
                raise NativeError(f"cannot pin thread {threading.current_thread().name} "
                                  f"to cpu {cpu}: {e}") from e
        run_pass = _KERNELS[type(pattern)](pattern, arena)
        run_pass()  # warm-up, untimed
        barrier.wait()
        bpp = bytes_per_pass(pattern)
        monotonic = time.monotonic
        t0 = monotonic()
        passes = 0
        checksum = 0
        while monotonic() - t0 < duration:
            checksum = run_pass()
            passes += 1
        elapsed = monotonic() - t0
        results[idx] = ThreadResult(
            thread=idx,
            cpu=cpu,
            passes=passes,
            bytes_touched=passes * bpp,
            elapsed=elapsed,
            bandwidth=passes * bpp / elapsed if elapsed > 0 else 0.0,
            checksum=checksum & 0xFFFFFFFFFFFFFFFF,
        )
    except BaseException as e:  # surface failures to the controller
        errors[idx] = e
        try:
            barrier.wait(timeout=1.0)
        except threading.BrokenBarrierError:
            pass


def _thread_cpus(w: WorkloadSpec) -> list[int | None]:
    """The cpu of each of w's threads: its cpus round-robin, or None for all
    when the list is empty."""
    if not w.cpus:
        return [None] * len(w.threads)
    return [w.cpus[i % len(w.cpus)] for i in range(len(w.threads))]


def _check_pins(workloads, placements) -> None:
    usable = available_cpus()
    for w, cpus in zip(workloads, placements):
        for cpu in cpus:
            if cpu is not None:
                if not pinning_supported():
                    raise NativeError("cpu pinning is not supported on this host")
                if cpu not in usable:
                    raise NativeError(
                        f"{w.name}: pinned cpu {cpu} not in usable set {sorted(usable)}"
                    )


def _launch(workloads, duration) -> list[NativeResult]:
    """Run all workloads' threads concurrently behind one start barrier.

    Every arena is allocated here or by its thread, page-aligned; arena_base
    only says which walks share one arena."""
    if duration <= 0:
        raise NativeError("duration must be > 0 seconds")
    placements = [_thread_cpus(w) for w in workloads]
    _check_pins(workloads, placements)

    # an arena walked by several threads is allocated here, once, keyed by
    # (base, end) since co_run checks no placement; every other arena by its
    # own thread, which so first-touches it on its pinned cpu
    shared = [{(base, end): _alloc_arena(end - base)
               for (base, end), users in w.arenas().items() if len(users) > 1}
              for w in workloads]

    # per workload, indexed by thread
    results = [[None] * len(w.threads) for w in workloads]
    errors = [[None] * len(w.threads) for w in workloads]
    barrier = threading.Barrier(sum(map(len, results)) + 1)
    threads = [
        threading.Thread(
            target=_thread_main,
            args=(ti, t.pattern,
                  shared[wi].get((t.arena_base, t.arena_base + t.pattern.arena_span)),
                  placements[wi][ti], duration, barrier, results[wi], errors[wi]),
            name=f"{w.name}-{ti}",
            daemon=True,
        )
        for wi, w in enumerate(workloads) for ti, t in enumerate(w.threads)
    ]
    for th in threads:
        th.start()
    try:
        barrier.wait(timeout=max(300.0, 60.0 + duration))
    except threading.BrokenBarrierError:
        pass
    for th in threads:
        th.join()
    raised = [e for errs in errors for e in errs if e is not None]
    if raised:
        # a pre-barrier failure breaks the barrier for healthy threads too;
        # report the root cause, not the collateral BrokenBarrierError
        for e in raised:
            if isinstance(e, NativeError):
                raise e
        for e in raised:
            if not isinstance(e, threading.BrokenBarrierError):
                raise NativeError(str(e))
        raise NativeError("start barrier broken")

    out = []
    for w, trs in zip(workloads, results):
        checksum = 0
        for tr in trs:
            checksum ^= tr.checksum
        out.append(
            NativeResult(
                workload=w.name,
                threads=tuple(trs),
                bytes_touched=sum(tr.bytes_touched for tr in trs),
                aggregate_bandwidth=sum(tr.bandwidth for tr in trs),
                checksum=checksum,
            )
        )
    return out


def run_native(w: WorkloadSpec, duration: float) -> NativeResult:
    """Execute one workload natively for roughly duration seconds."""
    return _launch([w], duration)[0]


def co_run(
    primary: WorkloadSpec, secondary: WorkloadSpec, duration: float
) -> tuple[NativeResult, NativeResult]:
    """Run two workloads concurrently behind a common start barrier."""
    # only cpus that some thread runs on can clash
    clash = (set(_thread_cpus(primary)) & set(_thread_cpus(secondary))) - {None}
    if clash:
        raise NativeError(f"primary and secondary pinned to the same cpus: {sorted(clash)}")
    res = _launch([primary, secondary], duration)
    return res[0], res[1]


@dataclass(frozen=True)
class NativeRow:
    secondary: str
    normalized_bandwidth: float
    primary: NativeResult
    secondary_result: NativeResult | None


def native_interference_report(
    primary: WorkloadSpec, secondaries: list[WorkloadSpec], duration: float
) -> list[NativeRow]:
    """Primary bandwidth under each co-runner, normalized to the idle row."""
    idle = WorkloadSpec("idle", ())
    base_res, _ = co_run(primary, idle, duration)
    baseline = base_res.aggregate_bandwidth
    rows = [NativeRow("idle", 1.0, base_res, None)]
    for s in secondaries:
        pres, sres = co_run(primary, s, duration)
        norm = pres.aggregate_bandwidth / baseline if baseline > 0 else 0.0
        rows.append(NativeRow(s.name, norm, pres, sres))
    return rows
