"""Command-line front end: presets, trace dumps, simulated and native runs.

Result files are written under --out; the human-readable summary always goes
to stdout.  Simulated outputs contain no timestamps or environment data, so
repeat runs of the same experiment produce byte-identical files.

Exit codes: 0 success, 2 bad arguments or invalid experiment file, 3 failed
host hardware check in native mode (unless --skip-hw-checks).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .experiment import (
    ConfigError,
    ExperimentConfig,
    experiment_to_dict,
    load_experiment,
)
from .geometry import GeometryError, conflict_stride, preset, preset_names
from .native import (
    NativeError,
    NativeResult,
    available_cpus,
    native_interference_report,
    pinning_supported,
)
from .patterns import PatternError, WorkloadSpec, write_trace_csv
from .simulator import SimulationError, interference_report

SIM_HEADER = (
    "workload,accesses,hits,misses,mpka,lines_fetched,"
    "elapsed_cycles,bandwidth_share,normalized_performance"
)
NATIVE_HEADER = (
    "workload,threads,passes,bytes_touched,elapsed_s,"
    "bandwidth_bytes_per_s,normalized_bandwidth"
)

EXIT_CONFIG = 2
EXIT_HWCHECK = 3


def _reseed(w: WorkloadSpec, seed: int) -> WorkloadSpec:
    """Derive per-thread seeds of seeded patterns from the run seed, deterministically."""
    threads = []
    changed = False
    for i, t in enumerate(w.threads):
        if hasattr(t.pattern, "seed"):
            mixed = (seed * 1_000_003 + i) & 0xFFFFFFFF
            threads.append(
                dataclasses.replace(t, pattern=dataclasses.replace(t.pattern, seed=mixed))
            )
            changed = True
        else:
            threads.append(t)
    if not changed:
        return w
    return dataclasses.replace(w, threads=threads)


def _apply_seed(cfg: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    if seed is None:
        return cfg
    return dataclasses.replace(
        cfg,
        primary=_reseed(cfg.primary, seed),
        secondaries=tuple(_reseed(s, seed) for s in cfg.secondaries),
    )


# ---------------------------------------------------------------------------
# row building and emission


def _sim_rows(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for r in interference_report(cfg.primary, list(cfg.secondaries), cfg.sim):
        for label, m in ((f"primary@{r.secondary}", r.primary),
                         (f"{r.secondary}@primary", r.secondary_metrics)):
            if m is None:
                continue
            rows.append({
                "workload": label,
                "accesses": m.accesses,
                "hits": m.hits,
                "misses": m.misses,
                "mpka": f"{m.mpka:.6f}",
                "lines_fetched": m.lines_fetched,
                "elapsed_cycles": m.elapsed_cycles,
                "bandwidth_share": f"{m.bandwidth_share:.6f}",
                "normalized_performance": f"{m.normalized_performance:.6f}",
            })
    return rows


def _native_row(label: str, res: NativeResult, norm: float | None) -> dict:
    elapsed = max((t.elapsed for t in res.threads), default=0.0)
    return {
        "workload": label,
        "threads": len(res.threads),
        "passes": sum(t.passes for t in res.threads),
        "bytes_touched": res.bytes_touched,
        "elapsed_s": f"{elapsed:.6f}",
        "bandwidth_bytes_per_s": f"{res.aggregate_bandwidth:.1f}",
        # secondaries have no idle baseline of their own; leave blank
        "normalized_bandwidth": "" if norm is None else f"{norm:.6f}",
    }


def _native_rows(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for r in native_interference_report(cfg.primary, list(cfg.secondaries),
                                        cfg.native.duration):
        rows.append(_native_row(f"primary@{r.secondary}", r.primary,
                                r.normalized_bandwidth))
        if r.secondary_result is not None:
            rows.append(_native_row(f"{r.secondary}@primary", r.secondary_result, None))
    return rows


def _emit(rows: list[dict], header: str, path: str | None, fmt: str,
          comments: list[str] | None = None) -> None:
    cols = header.split(",")
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = [f"# {c}" for c in (comments or [])]
        lines.append(header)
        lines += [",".join(str(r[c]) for c in cols) for r in rows]
        text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _summary(cfg: ExperimentConfig, rows: list[dict], value_col: str) -> None:
    print(f"experiment {cfg.name}: geometry {cfg.geometry.name} "
          f"({cfg.geometry.capacity} B, {cfg.geometry.associativity}-way), "
          f"primary vs {len(cfg.secondaries)} secondaries")
    print(f"{'secondary':<24} {value_col}")
    for r in rows:
        name, _, scen = r["workload"].partition("@")
        if name != "primary":
            continue
        print(f"{scen:<24} {r[value_col]}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_preset(args) -> int:
    if args.name == "list":
        for n in preset_names():
            g = preset(n)
            print(f"{n}: {g.capacity} B, {g.num_banks} banks x "
                  f"{g.sets_per_bank} sets x {g.associativity} ways, "
                  f"{g.line_size} B lines")
        return 0
    g = preset(args.name)
    for f in ("name", "line_size", "num_banks", "sets_per_bank", "associativity"):
        print(f"{f}: {getattr(g, f)}")
    print("bank_bits: %d:%d" % g.bank_bits if g.bank_bits
          else "bank_bits: none (single bank)")
    print("set_bits: %d:%d" % g.set_bits)
    print(f"capacity: {g.capacity}")
    print(f"conflict_stride: {conflict_stride(g)}")
    return 0


def cmd_gen(args) -> int:
    if args.limit < 0:   # refused before any output exists
        raise ConfigError("limit must be >= 0")
    cfg = _apply_seed(load_experiment(args.config), args.seed)
    byname = {w.name: w for w in (cfg.primary, *cfg.secondaries)}
    if args.workload not in byname:
        raise ConfigError(
            f"no workload {args.workload!r}; have {sorted(byname)}"
        )
    w = byname[args.workload]
    if args.out is None:
        write_trace_csv(w, args.limit, sys.stdout)
        return 0
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{cfg.name}_{w.name}_trace.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_trace_csv(w, args.limit, fh)
    print(f"wrote {path}")
    return 0


def _outpath(args, cfg, suffix) -> str | None:
    if args.out is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    ext = "json" if args.format == "json" else "csv"
    return os.path.join(args.out, f"{cfg.name}_{suffix}.{ext}")


def _run_sim(cfg, args) -> int:
    rows = _sim_rows(cfg)
    path = _outpath(args, cfg, "sim")
    _emit(rows, SIM_HEADER, path, args.format)
    if path:
        print(f"wrote {path}")
    _summary(cfg, rows, "normalized_performance")
    return 0


def hardware_problems(cfg: ExperimentConfig) -> list[str]:
    """Reasons this host cannot give a meaningful native co-run."""
    problems = []
    if not pinning_supported():
        problems.append("cpu pinning (sched_setaffinity) unavailable")
    usable = available_cpus()
    if len(usable) < 2:
        problems.append(f"only {len(usable)} usable cpu(s); co-run threads would timeshare")
    if not any(w.cpus for w in (cfg.primary, *cfg.secondaries)):
        problems.append("no pin map in config; threads may share cores arbitrarily")
    return problems


def _run_native(cfg, args) -> int:
    problems = hardware_problems(cfg)
    if problems:
        for p in problems:
            print(f"hardware check: {p}", file=sys.stderr)
        if not args.skip_hw_checks:
            print("refusing native run (use --skip-hw-checks to force)", file=sys.stderr)
            return EXIT_HWCHECK
        print("hardware checks SKIPPED; native numbers may be meaningless",
              file=sys.stderr)
    if args.duration is not None:
        cfg = dataclasses.replace(
            cfg, native=dataclasses.replace(cfg.native, duration=args.duration)
        )
    rows = _native_rows(cfg)
    comments = [
        f"experiment: {cfg.name}",
        f"duration_s: {cfg.native.duration}",
        f"usable_cpus: {sorted(available_cpus())}",
        f"hw_checks: {'skipped: ' + '; '.join(problems) if problems else 'passed'}",
    ]
    path = _outpath(args, cfg, "native")
    _emit(rows, NATIVE_HEADER, path, args.format, comments=comments)
    if path:
        print(f"wrote {path}")
    _summary(cfg, rows, "normalized_bandwidth")
    return 0


def cmd_sim(args) -> int:
    return _run_sim(_apply_seed(load_experiment(args.config), args.seed), args)


def cmd_native(args) -> int:
    return _run_native(_apply_seed(load_experiment(args.config), args.seed), args)


def cmd_run(args) -> int:
    cfg = _apply_seed(load_experiment(args.config), args.seed)
    if args.mode in ("sim", "both"):
        rc = _run_sim(cfg, args)
        if rc:
            return rc
    if args.mode in ("native", "both"):
        rc = _run_native(cfg, args)
        if rc:
            return rc
    return 0


def cmd_emit_config(args) -> int:
    cfg = _apply_seed(load_experiment(args.config), args.seed)
    text = json.dumps(experiment_to_dict(cfg), indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{cfg.name}_resolved.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="contend",
        description="cache/bandwidth antagonists, contention simulator, native harness",
    )
    ap.add_argument("--out", help="directory for result files (default: stdout/cwd)")
    ap.add_argument("--seed", type=int, help="run seed; reseeds stochastic patterns")
    ap.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="result file format")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("preset", help="show a built-in cache geometry")
    p.add_argument("name", help="preset name, or 'list'")
    p.set_defaults(fn=cmd_preset)

    p = sub.add_parser("gen", help="dump a workload's access trace as CSV")
    p.add_argument("config", help="experiment JSON")
    p.add_argument("--workload", default="primary", help="workload name in the experiment")
    p.add_argument("--limit", type=int, default=1000, help="events per thread")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("sim", help="simulate the experiment's interference report")
    p.add_argument("config")
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("native", help="run the experiment natively on this host")
    p.add_argument("config")
    p.add_argument("--duration", type=float, help="seconds per timed co-run")
    p.add_argument("--skip-hw-checks", action="store_true",
                   help="run even on an unsuitable host (reported in output)")
    p.set_defaults(fn=cmd_native)

    p = sub.add_parser("run", help="run an experiment in sim, native, or both modes")
    p.add_argument("config")
    p.add_argument("--mode", choices=("sim", "native", "both"), default="sim")
    p.add_argument("--duration", type=float, help="seconds per timed native co-run")
    p.add_argument("--skip-hw-checks", action="store_true",
                   help="run natively even on an unsuitable host")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("emit-config", help="print the resolved experiment as literal JSON")
    p.add_argument("config")
    p.set_defaults(fn=cmd_emit_config)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader left early (`| head`); stdout can no longer be flushed,
        # so point it at /dev/null for the interpreter's exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ConfigError, GeometryError, NativeError, PatternError, SimulationError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
