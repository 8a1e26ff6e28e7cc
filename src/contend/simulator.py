"""Trace-driven model of a shared banked set-associative cache plus a
finite-bandwidth memory controller.

Timing model: every thread is in-order and blocking.  A hit lets the thread
issue its next access hit_latency cycles later.  A miss enqueues one line
fetch into a single FIFO memory controller that starts at most one request
every mc_service_interval cycles; the fetch completes mem_latency cycles
after it is dequeued and the thread resumes then.  Replacement is true LRU
per set, writes allocate, and dirty evictions optionally consume a
controller slot.  Ties between threads ready in the same cycle go to the
lowest (workload, thread) id, so runs are bit-deterministic.

simulate runs the event loop compiled from _simcore.c, built with the
system C compiler on first use and cached under $XDG_CACHE_HOME/contend
(default ~/.cache/contend) by _compiled.  Without a compiler it falls back
to _run, the pure-Python loop that is also the compiled loop's reference.
A bucket sort's line feed takes its keys' buckets and output positions
from the same library, which draws the keys as random.Random(seed) does
and places them by a counting sort; _run reads ops(), whose keys come from
random itself.  The compiled
loop ends a run in closed form once no access can miss again: when every
unfinished thread has run a whole cycle of its feed, all hits, with no miss
anywhere since, every line left to touch is cached, and a hit evicts nothing
and leaves the controller alone, so the remaining events are added as hits
in one step.  It also skips repeats: once every unfinished thread can run
its feed twice over, it compares the whole state at wraps of one thread's
feed (feed indices, queues, ready times and controller relative to that
thread's, and every set the feeds map to), and when the state has come back
with every time later by the same delta, it adds whole periods at once, up
to the last one before some thread's final event.  And it runs streaks: a
hit on the most recent way of its set changes only that way's dirty bit and
its thread's time and feed index, so a thread alone among those ready after
a hit, and still first in (time, id) order against the miss queue's head,
runs its next such hits in one inner loop, short of its last event and of
its feed's last entry; a run that streaks too little goes back to the loop
without streaks for good.  _run simulates every event; both give the same
result.

The runs behind one result (a co-run and the solo runs that give its
baselines, or every run of an interference report) are independent, so
_run_many checks them all and builds each line feed once (walks of one
arena read one feed, each from its own step), then runs the compiled loops
side by side on the CPUs this process may use.  Every result is the one a
serial run gives.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import heapq
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _compiled
from .geometry import CacheGeometry, bank_of, set_of, validate_geometry
from .native import available_cpus
from .patterns import OP_MIXES, StridedWalk, WorkloadSpec, iter_ops, validate_workloads

# a line feed entry holds line << 1 | is_write in 32 bits
MAX_ARENA_LINES = 1 << 31
# the runaway guard: a plan of runs is refused above this many events, or
# when its distinct patterns' line feeds could take more than this many bytes
MAX_PLAN_EVENTS = 1 << 32
MAX_FEED_BYTES = 256 << 20
# a plan of more events than this has its size printed on stderr first
ESTIMATE_EVENTS = 10**8


class SimulationError(ValueError):
    """Raised for invalid simulator configurations or workload placement."""


@dataclass(frozen=True)
class SimConfig:
    geometry: CacheGeometry
    hit_latency: int = 3
    mem_latency: int = 100
    mc_service_interval: int = 12
    writeback_counts_as_slot: bool = True
    per_thread_event_budget: int = 100_000
    record_hit_miss: bool = False

    def __post_init__(self):
        validate_geometry(self.geometry)
        if self.hit_latency < 1:
            raise SimulationError("hit_latency must be >= 1")
        if self.mem_latency < self.hit_latency:
            raise SimulationError("mem_latency must be >= hit_latency")
        if self.mc_service_interval < 1:
            raise SimulationError("mc_service_interval must be >= 1")
        if self.per_thread_event_budget < 1:
            raise SimulationError("per_thread_event_budget must be >= 1")
        # an event advances the clock by at most this, so the at most 2**32
        # events of a plan keep the compiled loop's int64 cycles from overflowing
        if self.mem_latency + 2 * self.mc_service_interval >= 1 << 31:
            raise SimulationError("mem_latency + 2 * mc_service_interval must be below 2**31")


@dataclass(frozen=True)
class WorkloadMetrics:
    name: str
    accesses: int
    hits: int
    misses: int
    mpka: float
    lines_fetched: int
    lines_written_back: int
    elapsed_cycles: int
    bandwidth_share: float
    normalized_performance: float


@dataclass(frozen=True)
class SimResult:
    workloads: tuple[WorkloadMetrics, ...]
    elapsed_cycles: int           # whole run, including MC drain of the last slot
    mc_serviced_lines: int
    # per-workload per-thread hit/miss labels, only when cfg.record_hit_miss
    hit_miss: dict = field(default_factory=dict, compare=False)

    def metrics(self, name: str) -> WorkloadMetrics:
        for m in self.workloads:
            if m.name == name:
                return m
        raise KeyError(name)


class LruBankedCache:
    """Functional hit/miss state of the shared cache (no timing).

    One dict per (bank, set); insertion order is recency order, oldest first.
    Values are dirty flags.
    """

    __slots__ = ("sets", "assoc", "_line_shift", "_set_mask")

    def __init__(self, g: CacheGeometry):
        self.assoc = g.associativity
        self.sets = [dict() for _ in range(g.num_sets)]
        self._line_shift = g.line_shift
        self._set_mask = g.num_sets - 1

    def access(self, addr: int, is_write: bool) -> tuple[bool, bool]:
        """Returns (hit, dirty_line_evicted); allocates on miss."""
        line = addr >> self._line_shift
        s = self.sets[line & self._set_mask]   # _simcore.c's index
        if line in s:
            dirty = s.pop(line)
            s[line] = dirty or is_write   # reinsertion refreshes recency
            return True, False
        wrote_back = False
        if len(s) == self.assoc:
            victim = next(iter(s))
            wrote_back = s.pop(victim)
        s[line] = is_write
        return False, wrote_back


def _check_placement(workloads: list[WorkloadSpec], g: CacheGeometry) -> None:
    if len({w.name for w in workloads}) != len(workloads):
        raise SimulationError("workload names must be unique within a run")
    validate_workloads(workloads, g.line_size)
    for w in workloads:
        for lo, hi in w.arenas():
            if (hi - lo + g.line_size - 1) // g.line_size >= MAX_ARENA_LINES:
                raise SimulationError(
                    f"an arena of {w.name!r} spans {hi - lo} bytes, "
                    f"{MAX_ARENA_LINES} lines or more"
                )


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


def _simcore():
    """The compiled simcore_run, or None (after one line on stderr) when it
    cannot be built."""
    lib = _compiled.library()
    return None if lib is None else lib.simcore_run


def _line_feed(pattern, line_shift: int, limit: int, starts=(0,)) -> tuple[np.ndarray, int]:
    """pattern's (line feed, events) at limit, checked for the kernel, which
    reads it as contiguous uint32 from each of starts on."""
    feed, n = pattern.line_feed(line_shift, limit)
    if (feed.dtype != np.uint32 or not feed.flags.c_contiguous
            or (n and not all(0 <= s < len(feed) for s in starts))):
        raise SimulationError(f"unusable line feed from {pattern!r}")
    return feed, n


def _plan_feeds(patterns, line_shift: int, budget: int) -> dict:
    """Each pattern's (line feed, events, start index) at budget, each feed
    built once and checked for the kernel.

    Walks that differ only in their start step, by a multiple of their op
    cycle (a readwrite walk starts its cycle at its own first event), read
    one feed: the walk from their least step, long enough for the greatest
    to run budget events, each from its own step.  They do so only where
    that feed is no longer than the feeds it replaces; otherwise each walk
    has its own, from index 0, like every other pattern."""
    plan, walks = {}, collections.defaultdict(list)
    for p in patterns:
        if type(p) is StridedWalk:
            step = p.start_offset // p.stride_bytes
            walks[p.arena_bytes, p.stride_bytes, p.op_mix,
                  step % len(OP_MIXES[p.op_mix])].append((step, p))
        else:
            plan[p] = (*_line_feed(p, line_shift, budget), 0)
    for group in walks.values():
        # the steps of a group are distinct, so its (step, walk) pairs order by step
        (first, lead), last = min(group), max(group)[0]
        span = last - first + budget
        if min(lead.period, span) <= len(group) * min(lead.period, budget):
            feed, _ = _line_feed(lead, line_shift, span, [step - first for step, _ in group])
            plan.update((p, (feed, budget, step - first)) for step, p in group)
        else:
            plan.update((p, (*_line_feed(p, line_shift, budget), 0)) for _, p in group)
    return plan


def _run_compiled(kernel, workloads: list[WorkloadSpec], cfg: SimConfig,
                  feed_of: dict) -> dict:
    """_run's result from the compiled loop, for workloads whose placement
    _run_many has checked; feed_of maps each of their patterns to its
    (line feed, events, start index) at cfg."""
    g = cfg.geometry
    line_shift = g.line_shift
    feeds, starts, n_events, base_line, wl = [], [], [], [], []
    for wi, w in enumerate(workloads):
        for t in w.threads:
            feed, n, start = feed_of[t.pattern]   # walks of one arena may share a feed
            feeds.append(feed)
            starts.append(start)
            n_events.append(n)
            base_line.append(t.arena_base >> line_shift)
            wl.append(wi)
    n_wl = len(workloads)
    counters = np.zeros((5, n_wl), np.int64)
    # elapsed, serviced, events skipped in repeats, events run in streaks
    totals = np.zeros(4, np.int64)
    labels = np.zeros(sum(n_events), np.uint8) if cfg.record_hit_miss else None
    arrays = [np.array([f.ctypes.data for f in feeds], np.uintp),
              np.array([len(f) for f in feeds], np.int64), np.array(starts, np.int64),
              np.array(n_events, np.int64), np.array(base_line, np.uint64),
              np.array(wl, np.int32)]
    rc = kernel(len(feeds), *(a.ctypes.data for a in arrays),
                g.num_sets - 1, g.associativity, cfg.hit_latency, cfg.mem_latency,
                cfg.mc_service_interval, cfg.writeback_counts_as_slot,
                *(row.ctypes.data for row in counters), totals.ctypes.data,
                None if labels is None else labels.ctypes.data)
    if rc < 0:
        raise MemoryError("simcore_run could not allocate its cache state")
    out = {}
    if labels is not None:
        per_thread = iter(np.split(labels.view(np.bool_), np.cumsum(n_events)[:-1]))
        out = {w.name: [next(per_thread).tolist() for _ in w.threads] for w in workloads}
    accesses, hits, fetched, written_back, finish = counters.tolist()
    return {
        "accesses": accesses,
        "hits": hits,
        "fetched": fetched,
        "written_back": written_back,
        "finish": finish,
        "elapsed": int(totals[0]),
        "mc_serviced": int(totals[1]),
        "labels": out,
    }


@functools.cache
def _sched_getcpu():
    """libc's sched_getcpu, loaded once, or None where libc has none."""
    try:
        return ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):
        return None


def _this_cpu() -> int | None:
    """The CPU the calling thread runs on, or None where libc cannot say."""
    getcpu = _sched_getcpu()
    cpu = getcpu() if getcpu else -1
    return cpu if cpu >= 0 else None


def _pin(cpus: set[int]) -> None:
    """Keep the calling thread on cpus where the host allows it."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):   # not pinnable here: the scheduler places it
        pass


def _run_many(runs: list[list[WorkloadSpec]], cfg: SimConfig) -> list[dict]:
    """The raw result of each run, in the order given.

    In the calling thread: build the kernel, check every run's placement in
    order, refuse a runaway plan, print the size of a large one on stderr,
    and build the line feeds of all runs once (_plan_feeds: a feed that
    walks share is never longer than those it replaces, so the bound on
    feed bytes holds).  Then one worker per allowed CPU, the caller among
    them, takes the longest run left until none is; the compiled loop
    releases the interpreter lock, so the loops run side by side.  The
    caller takes the longest run before it starts any helper: the run most
    likely to end last then starts first, on the CPU the call is on, while
    the helpers start up (left to a race, the first helper took it).  The
    first failure in run order is raised once every worker has stopped.

    A new thread starts on its creator's CPU, and Linux may leave both there
    for longer than a run takes: on a 2-vCPU VM, unpinned workers shared one
    vCPU for whole reports while the other idled.  So each helper is pinned
    to the allowed CPUs other than the caller's when the call starts.  The
    caller itself is never pinned and no CPU is picked by its number, so
    concurrent callers spread as the scheduler places them.
    """
    kernel = _simcore()   # before any thread: the library's cache is not a lock
    g = cfg.geometry
    for ws in runs:
        _check_placement(ws, g)
    budget = cfg.per_thread_event_budget
    events = [budget * sum(len(w.threads) for w in ws) for ws in runs]
    patterns = dict.fromkeys(t.pattern for ws in runs for w in ws for t in w.threads)
    feed_bytes = len(patterns) * budget * 4
    plan = (f"{sum(events)} events with line feeds of up to {feed_bytes} bytes "
            f"({len(patterns)} distinct patterns x budget {budget} x 4 B)")
    if sum(events) > MAX_PLAN_EVENTS or feed_bytes > MAX_FEED_BYTES:
        raise SimulationError(f"refusing to simulate {plan}; the bounds are "
                              f"{MAX_PLAN_EVENTS} events and {MAX_FEED_BYTES} bytes")
    if sum(events) > ESTIMATE_EVENTS:
        print(f"contend: simulating {plan}", file=sys.stderr)
    feed_of = _plan_feeds(patterns, g.line_shift, budget) if kernel else {}

    raws, errors = [None] * len(runs), {}
    # longest first; sorted is stable, so equal runs keep their order
    todo = collections.deque(sorted(range(len(runs)), key=events.__getitem__, reverse=True))

    def run(i):
        try:
            raws[i] = (_run_compiled(kernel, runs[i], cfg, feed_of) if kernel
                       else _run(runs[i], cfg))
        except Exception as e:   # a thread's own exception would be lost
            errors[i] = e
            todo.clear()

    def work(cpus=None):
        if cpus:
            _pin(cpus)
        while True:
            try:
                i = todo.popleft()
            except IndexError:
                return
            run(i)

    mask = available_cpus()
    n_workers = min(len(mask), len(runs)) if kernel else 1
    away = mask - {_this_cpu()} if n_workers > 1 else None
    helpers = [threading.Thread(target=work, args=(away,)) for _ in range(n_workers - 1)]
    try:
        first = todo.popleft()   # the longest, before any helper can take it
        for t in helpers:
            t.start()
        run(first)
        work()
    finally:
        todo.clear()
        for t in helpers:
            if t.ident is not None:
                t.join()
    if errors:
        raise errors[min(errors)]
    return raws


def _build_result(workloads, cfg, raw, solo_elapsed) -> SimResult:
    wb_slot = cfg.writeback_counts_as_slot
    mc_lines = [
        raw["fetched"][i] + (raw["written_back"][i] if wb_slot else 0)
        for i in range(len(workloads))
    ]
    total_mc = sum(mc_lines)
    metrics = []
    for i, w in enumerate(workloads):
        acc = raw["accesses"][i]
        misses = acc - raw["hits"][i]
        co = raw["finish"][i]
        solo = solo_elapsed[w.name]
        norm = 1.0 if co == solo else (solo / co if co else 1.0)
        metrics.append(
            WorkloadMetrics(
                name=w.name,
                accesses=acc,
                hits=raw["hits"][i],
                misses=misses,
                mpka=1000.0 * misses / acc if acc else 0.0,
                lines_fetched=raw["fetched"][i],
                lines_written_back=raw["written_back"][i],
                elapsed_cycles=co,
                bandwidth_share=mc_lines[i] / total_mc if total_mc else 0.0,
                normalized_performance=norm,
            )
        )
    return SimResult(
        workloads=tuple(metrics),
        elapsed_cycles=raw["elapsed"],
        mc_serviced_lines=raw["mc_serviced"],
        hit_miss=raw["labels"],
    )


def simulate(
    workloads: list[WorkloadSpec],
    cfg: SimConfig,
    baselines: dict[str, int] | None = None,
) -> SimResult:
    """Co-run all workloads; normalized performance is solo cycles over
    co-run cycles at the same per-thread event budget.

    baselines maps workload name to a precomputed solo elapsed_cycles and
    saves the internal baseline runs when given.
    """
    workloads = list(workloads)
    if not workloads:
        raise SimulationError("need at least one workload")
    solo_elapsed = dict(baselines or {})
    alone = [w for w in workloads if w.name not in solo_elapsed] if len(workloads) > 1 else []
    raw, *solos = _run_many([workloads, *([w] for w in alone)], cfg)
    for w, solo in zip(alone, solos):
        solo_elapsed[w.name] = solo["finish"][0]
    solo_elapsed.setdefault(workloads[0].name, raw["finish"][0])   # a lone workload
    return _build_result(workloads, cfg, raw, solo_elapsed)


@dataclass(frozen=True)
class InterferenceRow:
    secondary: str                      # "idle" or the secondary's name
    primary: WorkloadMetrics            # primary's metrics in this scenario
    secondary_metrics: WorkloadMetrics | None


def interference_report(
    primary: WorkloadSpec,
    secondaries: list[WorkloadSpec],
    cfg: SimConfig,
) -> list[InterferenceRow]:
    """Primary's normalized performance against each co-runner.

    First row is the idle baseline (1.0 by definition), then one row per
    secondary in the given order.  Repeated invocations produce identical
    rows.
    """
    names = [s.name for s in secondaries]
    if len(set(names)) != len(names) or primary.name in names:
        raise SimulationError("secondary names must be unique and differ from the primary")
    n = len(secondaries)
    raws = _run_many([[primary], *([primary, s] for s in secondaries),
                      *([s] for s in secondaries)], cfg)
    solo_elapsed = {w.name: raw["finish"][0]
                    for w, raw in zip([primary, *secondaries], [raws[0], *raws[n + 1:]])}
    solo = _build_result([primary], cfg, raws[0], solo_elapsed)
    rows = [InterferenceRow("idle", solo.metrics(primary.name), None)]
    for s, raw in zip(secondaries, raws[1:n + 1]):
        res = _build_result([primary, s], cfg, raw, solo_elapsed)
        rows.append(
            InterferenceRow(s.name, res.metrics(primary.name), res.metrics(s.name))
        )
    return rows


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
