"""Command-line front end: presets, trace dumps, simulated and native runs.

Every command but preset loads and seeds its experiment once, in main, and
writes its result through _write: to stdout, or to one file under --out; the
human-readable summary always goes to stdout.  sim and native are run with a
fixed mode.  Simulated outputs contain no timestamps or environment data, so
repeat runs of the same experiment produce byte-identical files.

Exit codes: 0 success, 2 bad arguments or invalid experiment file, 3 failed
host hardware check in native mode (unless --skip-hw-checks), 3 no usable C
compiler for a simulation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from ._compiled import CompilerError
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
EXIT_HOST = 3   # the host cannot run what was asked: hardware check, or no compiler


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


def _emit(rows: list[dict], header: str, fmt: str, record: dict | None = None) -> str:
    """The rows as CSV, after one `# key: value` comment per record entry, or
    as JSON: the list of rows, or {**record, "rows": rows} with a record."""
    if fmt == "json":
        return json.dumps(rows if record is None else {**record, "rows": rows},
                          indent=2) + "\n"
    cols = header.split(",")
    lines = [f"# {k}: {v}" for k, v in (record or {}).items()]
    lines.append(header)
    lines += [",".join(str(r[c]) for c in cols) for r in rows]
    return "\n".join(lines) + "\n"


def _write(args, filename: str, write) -> None:
    """Call write(fh) on stdout, or on --out/filename and say so."""
    if args.out is None:
        write(sys.stdout)
        return
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, filename)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write(fh)
    print(f"wrote {path}")


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


def cmd_gen(args, cfg: ExperimentConfig) -> int:
    byname = {w.name: w for w in (cfg.primary, *cfg.secondaries)}
    if args.workload not in byname:
        raise ConfigError(
            f"no workload {args.workload!r}; have {sorted(byname)}"
        )
    w = byname[args.workload]
    _write(args, f"{cfg.name}_{w.name}_trace.csv",
           lambda fh: write_trace_csv(w, args.limit, fh))
    return 0


def _run_sim(cfg, args) -> None:
    rows = _sim_rows(cfg)
    text = _emit(rows, SIM_HEADER, args.format)
    _write(args, f"{cfg.name}_sim.{args.format}", lambda fh: fh.write(text))
    _summary(cfg, rows, "normalized_performance")


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
            return EXIT_HOST
        print("hardware checks SKIPPED; native numbers may be meaningless",
              file=sys.stderr)
    if args.duration is not None:
        cfg = dataclasses.replace(
            cfg, native=dataclasses.replace(cfg.native, duration=args.duration)
        )
    rows = _native_rows(cfg)
    # the host and the verdict of its checks, recorded with the rows
    record = {
        "experiment": cfg.name,
        "duration_s": cfg.native.duration,
        "usable_cpus": sorted(available_cpus()),
        "hw_checks": "skipped: " + "; ".join(problems) if problems else "passed",
    }
    text = _emit(rows, NATIVE_HEADER, args.format, record)
    _write(args, f"{cfg.name}_native.{args.format}", lambda fh: fh.write(text))
    _summary(cfg, rows, "normalized_bandwidth")
    return 0


def cmd_run(args, cfg: ExperimentConfig) -> int:
    if args.mode in ("sim", "both"):
        _run_sim(cfg, args)
    if args.mode in ("native", "both"):
        return _run_native(cfg, args)
    return 0


def cmd_emit_config(args, cfg: ExperimentConfig) -> int:
    text = json.dumps(experiment_to_dict(cfg), indent=2) + "\n"
    _write(args, f"{cfg.name}_resolved.json", lambda fh: fh.write(text))
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

    native_opts = argparse.ArgumentParser(add_help=False)
    native_opts.add_argument("--duration", type=float,
                             help="seconds per timed native co-run")
    native_opts.add_argument("--skip-hw-checks", action="store_true",
                             help="run natively even on an unsuitable host "
                                  "(reported in output)")

    p = sub.add_parser("sim", help="simulate the experiment's interference report")
    p.add_argument("config")
    p.set_defaults(fn=cmd_run, mode="sim")

    p = sub.add_parser("native", parents=[native_opts],
                       help="run the experiment natively on this host")
    p.add_argument("config")
    p.set_defaults(fn=cmd_run, mode="native")

    p = sub.add_parser("run", parents=[native_opts],
                       help="run an experiment in sim, native, or both modes")
    p.add_argument("config")
    p.add_argument("--mode", choices=("sim", "native", "both"), default="sim")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("emit-config", help="print the resolved experiment as literal JSON")
    p.add_argument("config")
    p.set_defaults(fn=cmd_emit_config)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "config" not in args:
            return args.fn(args)
        if getattr(args, "limit", 0) < 0:   # refused before any output exists
            raise ConfigError("limit must be >= 0")
        return args.fn(args, _apply_seed(load_experiment(args.config), args.seed))
    except BrokenPipeError:
        # the reader left early (`| head`); stdout can no longer be flushed,
        # so point it at /dev/null for the interpreter's exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except CompilerError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_HOST
    except (ConfigError, GeometryError, NativeError, PatternError, SimulationError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
