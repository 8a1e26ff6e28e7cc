"""Slow, naive references that the fast paths are tested against.

_run is the simulator's timing model as a plain event loop over iter_ops and
LruBankedCache: it simulates every event, and the compiled loop in
contend/_simcore.c must give its result exactly.  lru_reference is the
cache alone, as linearly searched recency lists; footprint counts the
(bank, set) pairs one pass of a workload touches.  None of them is on a
path that a command runs.
"""

import heapq
import shutil

import pytest

from contend.geometry import CacheGeometry, bank_of, set_of, validate_geometry
from contend.patterns import WorkloadSpec, iter_ops, validate_workloads
from contend.simulator import LruBankedCache, SimConfig, _check_placement

HAVE_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")


def _run(workloads: list[WorkloadSpec], cfg: SimConfig) -> dict:
    """One raw timed run; returns per-workload counters and timings."""
    g = cfg.geometry
    _check_placement(workloads, g)

    cache = LruBankedCache(g)
    hit_latency = cfg.hit_latency
    mem_latency = cfg.mem_latency
    interval = cfg.mc_service_interval
    wb_slot = cfg.writeback_counts_as_slot
    budget = cfg.per_thread_event_budget
    record = cfg.record_hit_miss

    n_wl = len(workloads)
    accesses = [0] * n_wl
    hits = [0] * n_wl
    fetched = [0] * n_wl
    written_back = [0] * n_wl
    finish = [0] * n_wl
    labels = {w.name: [[] for _ in w.threads] for w in workloads} if record else {}

    iters = []
    ready = []
    for wi, w in enumerate(workloads):
        for ti in range(len(w.threads)):
            iters.append(iter_ops(w, ti, budget))
            heapq.heappush(ready, (0, wi, ti, len(iters) - 1))

    mc_free = 0
    mc_serviced = 0
    last_dequeue = 0
    heappush = heapq.heappush
    heappop = heapq.heappop
    cache_access = cache.access

    while ready:
        t, wi, ti, flat = heappop(ready)
        try:
            op, addr = next(iters[flat])
        except StopIteration:
            if t > finish[wi]:
                finish[wi] = t
            continue
        accesses[wi] += 1
        hit, wrote_back = cache_access(addr, op == "w")
        if record:
            labels[workloads[wi].name][ti].append(hit)
        if hit:
            hits[wi] += 1
            next_t = t + hit_latency
        else:
            dq = mc_free if mc_free > t else t
            mc_free = dq + interval
            last_dequeue = dq
            mc_serviced += 1
            fetched[wi] += 1
            next_t = dq + mem_latency
            if wrote_back:
                written_back[wi] += 1
                if wb_slot:
                    last_dequeue = mc_free
                    mc_free += interval
                    mc_serviced += 1
        heappush(ready, (next_t, wi, ti, flat))

    elapsed = max(finish + [last_dequeue])
    return {
        "accesses": accesses,
        "hits": hits,
        "fetched": fetched,
        "written_back": written_back,
        "finish": finish,
        "elapsed": elapsed,
        "mc_serviced": mc_serviced,
        "labels": labels,
    }



def lru_reference(trace, g: CacheGeometry) -> list[bool]:
    """Brute-force per-set recency-list LRU oracle; True means hit.

    Takes (op, addr) pairs.  Kept deliberately naive and independent of
    LruBankedCache: plain lists searched linearly.
    """
    validate_geometry(g)
    recency: dict[tuple[int, int], list[int]] = {}
    labels = []
    for _, addr in trace:
        key = (bank_of(addr, g), set_of(addr, g))
        line = addr // g.line_size
        lst = recency.setdefault(key, [])
        if line in lst:
            lst.remove(line)
            lst.append(line)
            labels.append(True)
        else:
            if len(lst) == g.associativity:
                lst.pop(0)
            lst.append(line)
            labels.append(False)
    return labels


def footprint(w: WorkloadSpec, g: CacheGeometry) -> int:
    """Distinct (bank, set) pairs touched by one full pass of every thread."""
    validate_workloads([w], g.line_size)
    pairs = set()
    for i, t in enumerate(w.threads):
        for _, addr in iter_ops(w, i, t.pattern.pass_length):
            pairs.add((bank_of(addr, g), set_of(addr, g)))
    return len(pairs)
