#!/usr/bin/env python3
"""contend benchmark: simulated co-runs and a native triad, timed end to end
and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload t1_offchip --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* t1_offchip, t1_onchip, bucketsort_onchip - `contend sim` of the experiment
  file perfbench/configs/<workload>.json, called in-process through
  contend.cli.main with stdout captured;
* native_triad - the STREAM triad pinned to one CPU, idle and then beside
  one off-chip strided walker pinned to a second CPU (contend.native.co_run).

--trace 0 repeats the workload for --seconds and prints the end-to-end
metrics (medians over repetitions).  --trace 1 makes one untraced run and
one traced run that records spans around the calls into each layer, then
prints the per-layer metrics and the tracing overhead.  --smoke swaps in the
toy geometry and tiny native arrays so that every path runs in seconds;
--workload all runs every workload, each in its own process so that peak
memory does not carry over.

Every run checks its outputs (perfbench/checks.py).  The last stdout line is
one JSON object with keys correct, attempted, failed and metrics; the exit
code is 0 only when every check passed.  A full record of each run, with the
host description and the spans, is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "contend" / "__init__.py").is_file():
    sys.exit(f"perfbench: no contend sources under {SRC}; "
             "run from the root of a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import contend  # noqa: E402
from contend import cli, native  # noqa: E402
from contend.experiment import load_experiment  # noqa: E402
from contend.geometry import preset  # noqa: E402
from contend.patterns import BucketSort, WorkloadSpec, gen_offchip_antagonist, gen_stream, iter_ops  # noqa: E402
from contend.simulator import LruBankedCache, simulate  # noqa: E402

if Path(contend.__file__).resolve().parent != SRC / "contend":
    sys.exit(f"perfbench: imported contend from {contend.__file__}, not {SRC}")

SIM_WORKLOADS = ("t1_offchip", "t1_onchip", "bucketsort_onchip")
NATIVE_WORKLOAD = "native_triad"
WORKLOADS = SIM_WORKLOADS + (NATIVE_WORKLOAD,)
PAIRINGS = ("idle", "corun")

# seed of the stored CSV of a seeded workload; unseeded workloads print the
# same CSV for every seed, so theirs is compared on every run
DEFAULT_SEED = 1
SETUP_SHARE = 0.05         # share of --seconds spent on repeated set-up probes
SETUP_BATCH_S = 0.1        # set-up probes timed under one calibration
MIN_SETUP_PROBES = 5
LLC_MULTIPLE = 4           # each native array is >= 4x the LLCs in use
WALK_STRIDE = 64           # native antagonist touches one line per access
NATIVE_DURATION_S = 1.0
SMOKE_ARRAY_BYTES = 1 << 20
SMOKE_DURATION_S = 0.05
CHILD_TIMEOUT_S = 600

SIM_COUNTERS = ("accesses", "hits", "misses", "lines_fetched", "lines_written_back",
                "mc_serviced_lines", "elapsed_cycles", "mc_utilization",
                "victim_normalized_performance")
SIM_COUNTER_UNITS = {"elapsed_cycles": "cycles", "mc_utilization": "ratio",
                     "victim_normalized_performance": "ratio"}
TRACE_UNITS = (("trace.overhead_ratio", "ratio"), ("trace.spans", "count"))
SIM_LAYER_UNITS = dict((
    ("experiment.load_s", "s"), ("patterns.first_event_s", "s"),
    ("patterns.expand_s", "s"), ("patterns.events", "count"),
    ("patterns.events_per_s", "1/s"), ("simulator.cache.access_s", "s"),
    ("simulator.cache.accesses_per_s", "1/s"), ("simulator.cache.replay_hit_ratio", "ratio"),
    ("simulator.run.simulate_s.idle", "s"), ("simulator.run.simulate_s.corun", "s"),
    ("simulator.run.self_s.idle", "s"), ("simulator.run.self_s.corun", "s"),
    ("simulator.run.ns_per_event", "ns"), ("cli.other_s", "s"),
    *((f"sim.{p}.{c}", SIM_COUNTER_UNITS.get(c, "count")) for p in PAIRINGS for c in SIM_COUNTERS),
    *TRACE_UNITS, ("host.speed_scale", "ratio"),
))
NATIVE_LAYER_UNITS = dict((
    ("native.setup_s", "s"), ("native.victim_gbps", "GB/s"),
    ("native.corun_victim_gbps", "GB/s"), ("native.antagonist_gbps", "GB/s"),
    ("native.normalized_bandwidth", "ratio"), ("native.passes", "count"), *TRACE_UNITS,
))


# ---------------------------------------------------------------------------
# host description


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_bytes(text: str) -> int:
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def llc_bytes(cpus) -> int | None:
    """Sum of the distinct last-level caches serving cpus, from /sys."""
    caches = {}
    for cpu in cpus:
        best = None
        base = f"/sys/devices/system/cpu/cpu{cpu}/cache"
        for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
            d = f"{base}/{index}"
            level, kind, size = _read(f"{d}/level"), _read(f"{d}/type"), _read(f"{d}/size")
            if not (level and size) or kind == "Instruction":
                continue
            if best is None or int(level) > best[0]:
                best = (int(level), _read(f"{d}/shared_cpu_list") or str(cpu), _size_bytes(size))
        if best is not None:
            caches[best[1]] = best[2]
    return sum(caches.values()) or None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(str(ROOT / ".git" / ref))
    if sha:
        return sha
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "contend").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    usable = sorted(native.available_cpus())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc_bytes": llc_bytes(usable),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# host speed
#
# On the 2-vCPU host this benchmark was defined on, a fixed pure-Python loop
# ran at speeds up to 2.5x apart from one 20-second window to the next, and
# for whole windows at a time (other tenants share the physical cores; no
# steal time is reported).  No statistic of raw host seconds was steady.  So
# every timed interval is bracketed by two runs of a calibration kernel
# shaped like the simulator's hot loop (set-indexed LRU dicts and a ready
# heap; it runs no contend code, so no change to the program moves it), and
# the kernel also runs from a SIGALRM handler every SAMPLE_PERIOD_S inside
# the interval, because the speed changes within a multi-second call; the
# time those samples take is taken out of the interval.  The benchmark
# reports host seconds at a reference speed:
#
#     seconds = raw seconds x REFERENCE_CALIBRATION_S / mean calibration seconds
#
# Raw seconds and the scale are kept in each run's record under perfbench/out/.

CAL_SETS = 4096
CAL_WAYS = 12
CAL_STEPS = 10_000
REFERENCE_CALIBRATION_S = 0.0075  # the kernel on an uncontended Xeon 2.0 GHz vCPU
SAMPLE_PERIOD_S = 0.25


class HostSpeed:
    """The calibration kernel and its warm state."""

    def __init__(self):
        self.sets = [{} for _ in range(CAL_SETS)]
        self.calibrate()  # fills the sets; later runs take the hit path

    def calibrate(self) -> float:
        """Seconds for one fixed run of the calibration kernel."""
        sets = self.sets
        ready = [(0, i) for i in range(16)]
        t0 = time.perf_counter()
        for i in range(CAL_STEPS):
            x = (i * 2654435761) & 0xFFFFFF
            s = sets[x & (CAL_SETS - 1)]
            line = x >> 6
            if line in s:
                s[line] = s.pop(line)
            else:
                if len(s) >= CAL_WAYS:
                    del s[next(iter(s))]
                s[line] = False
            t, j = heapq.heappop(ready)
            heapq.heappush(ready, (t + (x & 7), j))
        return time.perf_counter() - t0

    def scaled(self, fn, span=None):
        """Run fn between two calibrations, with more every SAMPLE_PERIOD_S
        inside it: (result, raw seconds of fn alone, scale); raw seconds x
        scale is the time at the reference speed.  span, when given, records
        each inside sample as a host.calibrate span."""
        inside = []
        span = span or _no_span

        def on_alarm(signum, frame):
            with span("host.calibrate"):
                inside.append(self.calibrate())

        before = self.calibrate()
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            raw = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        samples = [before, *inside, self.calibrate()]
        scale = REFERENCE_CALIBRATION_S * len(samples) / sum(samples)
        return out, raw - sum(inside), scale


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """In-memory spans: trace id, span id, parent span id, name, start and
    end in seconds from the tracer's creation, plus attributes such as the
    pairing."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"trace": self.trace_id, "id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "name": name, "start": time.perf_counter() - self._t0, "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def seconds(self, rec: dict) -> float:
        """A span's duration at the reference speed, less the calibration
        samples taken inside it."""
        sampled = sum(c["end"] - c["start"] for c in self.spans
                      if c["parent"] == rec["id"] and c["name"] == "host.calibrate")
        return (rec["end"] - rec["start"] - sampled) * rec.get("scale", 1.0)

    def total(self, name: str, **attrs) -> float:
        """Summed seconds() of the spans called name that carry attrs."""
        return sum(self.seconds(s) for s in self.spans
                   if s["name"] == name and all(s.get(k) == v for k, v in attrs.items()))

    def scaled(self, hs: HostSpeed, fn):
        """Run fn under calibration and give the spans it opened the
        measured speed scale."""
        first = len(self.spans)
        out, _, scale = hs.scaled(fn, span=self.span)
        for rec in self.spans[first:]:
            rec["scale"] = scale
        return out


def _no_span(name, **attrs):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# simulated workloads


class SimWorkload:
    """One experiment file, the facts its output checks need, and the
    contend argv that simulates it."""

    def __init__(self, name: str, seed: int, smoke: bool):
        prefix = "smoke_" if smoke else ""
        self.seed = seed
        self.path = str(BENCH_DIR / "configs" / f"{prefix}{name}.json")
        cfg = load_experiment(self.path)
        if len(cfg.secondaries) != 1:
            raise SystemExit(f"perfbench: {self.path} must name exactly one secondary")
        self.budget = cfg.sim.per_thread_event_budget
        self.threads = {w.name: len(w.threads) for w in (cfg.primary, *cfg.secondaries)}
        seeded = any(isinstance(t.pattern, BucketSort)
                     for w in (cfg.primary, *cfg.secondaries) for t in w.threads)
        self.expected = None
        if not seeded or seed == DEFAULT_SEED:
            self.expected = (BENCH_DIR / "expected" / f"{prefix}{name}.csv").read_text(
                encoding="utf-8")
        self.argv = ["--seed", str(seed), "sim", self.path]

    def run_cli(self) -> tuple[str, int]:
        """One untraced `contend sim`: (captured stdout, exit code)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv)
        return buf.getvalue(), rc

    def check(self, stdout: str, rc: int) -> tuple[str, list[str]]:
        """(the CSV, its check errors)."""
        text = checks.extract_csv(stdout)
        errors = [f"contend sim exited {rc}"] if rc else []
        return text, errors + checks.sim_errors(text, self.threads, self.budget, self.expected)

    def timed_cli(self, hs: HostSpeed) -> tuple[float, float, str, list[str]]:
        """(seconds at reference speed, raw seconds, CSV, check errors)."""
        (stdout, rc), raw, scale = hs.scaled(self.run_cli)
        return raw * scale, raw, *self.check(stdout, rc)

    def time_set_ups(self, seconds: float) -> list[float]:
        """Raw seconds of repeated set-ups, for at least the given time."""
        times = []
        t_end = time.perf_counter() + seconds
        while not times or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            self.set_up()
            times.append(time.perf_counter() - t0)
        return times

    def set_up(self, span=_no_span):
        """load_experiment, the CLI's seed step, and the first event of every
        thread (where bucket-sort keys are generated)."""
        with span("experiment.load_experiment"):
            cfg = load_experiment(self.path)
        with span("cli.apply_seed"):
            cfg = cli._apply_seed(cfg, self.seed)
        with span("patterns.first_event"):
            for w in (cfg.primary, *cfg.secondaries):
                for ti in range(len(w.threads)):
                    next(iter_ops(w, ti, self.budget))
        return cfg


def replay_round_robin(traces, g) -> int:
    """Feed the traces through one LruBankedCache, one access per thread per
    round; returns the number of hits."""
    access = LruBankedCache(g).access
    hits = 0
    for ops in zip_longest(*traces):
        for ev in ops:
            if ev is not None:
                hits += access(ev[1], ev[0] == "w")[0]
    return hits


def measure_sim(name: str, args) -> dict:
    wl = SimWorkload(name, args.seed, args.smoke)
    hs = HostSpeed()
    start = time.perf_counter()
    setups = []
    while (len(setups) < MIN_SETUP_PROBES
           or time.perf_counter() - start < SETUP_SHARE * args.seconds):
        batch, _, scale = hs.scaled(lambda: wl.time_set_ups(SETUP_BATCH_S))
        setups += [t * scale for t in batch]
    walls, raw_walls, rates, errors = [], [], [], []
    failed = 0
    while True:
        wall, raw, text, errs = wl.timed_cli(hs)
        walls.append(wall)
        raw_walls.append(raw)
        rates.append(sum(int(r["accesses"]) for r in checks.parse_rows(text)) / wall)
        failed += bool(errs)
        errors += errs
        if time.perf_counter() - start + raw > args.seconds:
            break
    return {
        "attempted": len(walls), "failed": failed, "errors": errors,
        "notes": {"setup_probes": len(setups), "repetitions": len(walls),
                  "raw_wall_s": statistics.median(raw_walls),
                  "speed_scale": statistics.median(w / r for w, r in zip(walls, raw_walls))},
        "metrics": {
            "wall_s": (statistics.median(walls), "s"),
            "events_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        },
    }


def _traced_counter_errors(other: str, res, rows: dict) -> list[str]:
    """Traced SimResult counters that differ from the CLI's CSV rows; other
    is the co-runner's name, or idle."""
    errors = []
    for m in res.workloads:
        label = f"primary@{other}" if m.name == "primary" else f"{m.name}@primary"
        row = rows.get(label)
        if row is None:
            errors.append(f"traced {label}: no such row in the sim CSV")
            continue
        for field, value in (("accesses", m.accesses), ("hits", m.hits),
                             ("misses", m.misses), ("lines_fetched", m.lines_fetched),
                             ("elapsed_cycles", m.elapsed_cycles)):
            if int(row[field]) != value:
                errors.append(f"traced {label}: {field} {value} != CSV {row[field]}")
    return errors


def trace_sim(name: str, args) -> dict:
    wl = SimWorkload(name, args.seed, args.smoke)
    hs = HostSpeed()
    wall, raw_wall, text, errors = wl.timed_cli(hs)
    rows = {r["workload"]: r for r in checks.parse_rows(text)}

    tr = Tracer(f"{name}-seed{args.seed}")
    span = tr.span
    counters, events, hits = {}, {}, 0
    with span("cli.sim"):
        cfg = tr.scaled(hs, lambda: wl.set_up(span))
        baselines = None
        for pairing, workloads in zip(PAIRINGS, ([cfg.primary], [cfg.primary, *cfg.secondaries])):
            with span("pairing", pairing=pairing):
                def expand():
                    with span("patterns.iter_ops", pairing=pairing):
                        return [list(iter_ops(w, ti, wl.budget))
                                for w in workloads for ti in range(len(w.threads))]

                def replay():
                    with span("simulator.cache.access", pairing=pairing):
                        return replay_round_robin(traces, cfg.geometry)

                def run():
                    with span("simulator.simulate", pairing=pairing):
                        return simulate(workloads, cfg.sim, baselines=baselines)

                traces = tr.scaled(hs, expand)
                events[pairing] = sum(map(len, traces))
                hits += tr.scaled(hs, replay)
                del traces
                res = tr.scaled(hs, run)
            if baselines is None:
                baselines = {"primary": res.metrics("primary").elapsed_cycles}
            other = workloads[-1].name if pairing == "corun" else "idle"
            errors += _traced_counter_errors(other, res, rows)
            simulated = sum(m.accesses for m in res.workloads)
            if simulated != events[pairing]:
                errors.append(f"{pairing}: expanded {events[pairing]} events, "
                              f"simulated {simulated}")
            counters[pairing] = {
                "accesses": simulated,
                "hits": sum(m.hits for m in res.workloads),
                "misses": sum(m.misses for m in res.workloads),
                "lines_fetched": sum(m.lines_fetched for m in res.workloads),
                "lines_written_back": sum(m.lines_written_back for m in res.workloads),
                "mc_serviced_lines": res.mc_serviced_lines,
                "elapsed_cycles": res.elapsed_cycles,
                "mc_utilization": (res.mc_serviced_lines * cfg.sim.mc_service_interval
                                   / res.elapsed_cycles),
                "victim_normalized_performance": res.metrics("primary").normalized_performance,
            }

    load_s = tr.total("experiment.load_experiment")
    expand_s = tr.total("patterns.iter_ops")
    access_s = tr.total("simulator.cache.access")
    simulate_s = {p: tr.total("simulator.simulate", pairing=p) for p in PAIRINGS}
    n_events = sum(events.values())
    # the traced run's share of what the untraced CLI run does
    traced_work = load_s + tr.total("cli.apply_seed") + sum(simulate_s.values())
    m = {
        "experiment.load_s": load_s,
        "patterns.first_event_s": tr.total("patterns.first_event"),
        "patterns.expand_s": expand_s,
        "patterns.events": n_events,
        "patterns.events_per_s": n_events / expand_s,
        "simulator.cache.access_s": access_s,
        "simulator.cache.accesses_per_s": n_events / access_s,
        "simulator.cache.replay_hit_ratio": hits / n_events,
        "simulator.run.ns_per_event": 1e9 * sum(simulate_s.values()) / n_events,
        "cli.other_s": wall - sum(simulate_s.values()) - load_s,
        "trace.overhead_ratio": traced_work / wall - 1.0,
        "trace.spans": sum(s["name"] != "host.calibrate" for s in tr.spans),
        "host.speed_scale": wall / raw_wall,
    }
    for p in PAIRINGS:
        m[f"simulator.run.simulate_s.{p}"] = simulate_s[p]
        # an estimate: the replay's round-robin order differs from the heap's
        m[f"simulator.run.self_s.{p}"] = (simulate_s[p]
                                          - tr.total("patterns.iter_ops", pairing=p)
                                          - tr.total("simulator.cache.access", pairing=p))
        for c in SIM_COUNTERS:
            m[f"sim.{p}.{c}"] = counters[p][c]
    return {"attempted": 1, "failed": int(bool(errors)), "errors": errors,
            "notes": {"untraced_wall_s": wall, "untraced_raw_wall_s": raw_wall},
            "spans": tr.spans, "metrics": _with_units(m, SIM_LAYER_UNITS)}


def _with_units(values: dict, units: dict) -> dict:
    return {name: (values[name], unit) for name, unit in units.items()}


# ---------------------------------------------------------------------------
# native workload


class NativeWorkload:
    """The pinned triad victim, its off-chip antagonist, and their expected
    checksums; unavailable (with the reason) on an unsuitable host."""

    def __init__(self, smoke: bool):
        self.reason = None
        cpus = sorted(native.available_cpus())
        self.llc_bytes = llc_bytes(cpus[:2])
        if not native.pinning_supported():
            self.reason = "cpu pinning (sched_setaffinity) is unavailable"
        elif len(cpus) < 2:
            self.reason = f"needs 2 usable cpus to pin victim and antagonist apart, have {cpus}"
        elif self.llc_bytes is None and not smoke:
            self.reason = "no last-level cache size under /sys to size the arrays against"
        if self.reason:
            return
        if smoke:
            self.array_bytes, self.duration = SMOKE_ARRAY_BYTES, SMOKE_DURATION_S
        else:
            need = LLC_MULTIPLE * self.llc_bytes
            self.array_bytes = -(-need // WALK_STRIDE) * WALK_STRIDE
            self.duration = NATIVE_DURATION_S
        self.n_elems = self.array_bytes // 8
        self.victim = gen_stream("triad", self.n_elems, cpu=cpus[0])
        self.antagonist = gen_offchip_antagonist(
            preset("t1"), 1, array_bytes=self.array_bytes, stride=WALK_STRIDE,
            strict=False, cpus=[cpus[1]])
        self.victim_checksum = checks.triad_checksum(self.n_elems)
        self.walk_checksum = checks.strided_read_checksum(self.array_bytes, WALK_STRIDE)

    def describe(self) -> dict:
        if self.reason:
            return {"unavailable": self.reason, "llc_bytes": self.llc_bytes}
        return {"llc_bytes": self.llc_bytes, "array_bytes": self.array_bytes,
                "arrays": 3, "antagonist_arena_bytes": self.array_bytes,
                "duration_s": self.duration}

    def rep(self, span=_no_span) -> dict:
        """Idle then co-run; one repetition of the native interference run."""
        out = {"wall_s": 0.0, "setup_s": 0.0, "accesses": 0, "timed_s": 0.0,
               "passes": 0, "errors": []}
        for pairing, other in zip(PAIRINGS, (WorkloadSpec("idle", ()), self.antagonist)):
            with span("native.co_run", pairing=pairing):
                t0 = time.perf_counter()
                vres, ares = native.co_run(self.victim, other, self.duration)
                wall = time.perf_counter() - t0
            timed = max(t.elapsed for t in (*vres.threads, *ares.threads))
            out["wall_s"] += wall
            out["setup_s"] += wall - timed
            out[f"{pairing}_gbps"] = vres.aggregate_bandwidth / 1e9
            out["errors"] += checks.native_errors(f"{pairing} victim", vres,
                                                  self.victim_checksum)
            if pairing == "corun":
                out["antagonist_gbps"] = ares.aggregate_bandwidth / 1e9
                out["errors"] += checks.native_errors("antagonist", ares, self.walk_checksum)
            for t in vres.threads:
                out["passes"] += t.passes
                out["accesses"] += 3 * self.n_elems * t.passes
                out["timed_s"] += t.elapsed
        return out


def measure_native(args) -> dict:
    nw = NativeWorkload(args.smoke)
    if nw.reason:
        return _unavailable(nw)
    start = time.perf_counter()
    reps = []
    while True:
        reps.append(nw.rep())
        if time.perf_counter() - start + reps[-1]["wall_s"] > args.seconds:
            break
    errors = [e for r in reps for e in r["errors"]]
    return {
        "attempted": len(reps), "failed": sum(bool(r["errors"]) for r in reps),
        "errors": errors,
        "notes": {**nw.describe(), "repetitions": len(reps)},
        "metrics": {
            "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
            "victim_gbps": (statistics.median(r["idle_gbps"] for r in reps), "GB/s"),
            "events_per_s": (statistics.median(r["accesses"] / r["timed_s"] for r in reps), "1/s"),
            "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        },
    }


def trace_native(args) -> dict:
    nw = NativeWorkload(args.smoke)
    if nw.reason:
        return _unavailable(nw)
    untraced = nw.rep()
    tr = Tracer(f"{NATIVE_WORKLOAD}-seed{args.seed}")
    with tr.span("native.report"):
        r = nw.rep(tr.span)
    errors = untraced["errors"] + r["errors"]
    m = {
        "native.setup_s": r["setup_s"],
        "native.victim_gbps": r["idle_gbps"],
        "native.corun_victim_gbps": r["corun_gbps"],
        "native.antagonist_gbps": r["antagonist_gbps"],
        "native.normalized_bandwidth": r["corun_gbps"] / r["idle_gbps"],
        "native.passes": r["passes"],
        "trace.overhead_ratio": tr.total("native.report") / untraced["wall_s"] - 1.0,
        "trace.spans": len(tr.spans),
    }
    return {"attempted": 2, "failed": int(bool(untraced["errors"])) + int(bool(r["errors"])),
            "errors": errors, "notes": {**nw.describe(), "untraced_wall_s": untraced["wall_s"]},
            "spans": tr.spans, "metrics": _with_units(m, NATIVE_LAYER_UNITS)}


def _unavailable(nw: NativeWorkload) -> dict:
    return {"attempted": 1, "failed": 1, "errors": [f"unavailable: {nw.reason}"],
            "notes": nw.describe(), "metrics": {}}


# ---------------------------------------------------------------------------
# entry point


def run_one(args) -> int:
    if args.workload == NATIVE_WORKLOAD:
        out = trace_native(args) if args.trace else measure_native(args)
    else:
        out = trace_sim(args.workload, args) if args.trace else measure_sim(args.workload, args)
    env = environment()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    tag = f"{'smoke-' if args.smoke else ''}{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": env, "notes": out["notes"],
              "errors": out["errors"], "result": result, "spans": out.get("spans", [])}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for e in out["errors"][:20]:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
    print(f"# {tag}")
    print(f"# env {json.dumps(env)}")
    print(f"# notes {json.dumps(out['notes'])}")
    for k, v in metrics.items():
        print(f"{k} {v['value']} {v['unit']}")
    print(f"error_rate {out['failed'] / out['attempted']} ratio "
          f"({out['failed']} of {out['attempted']} runs failed their output check)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a child process of its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            res = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and res["correct"] and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy geometry and tiny native arrays: every path in seconds")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
