"""Output checks for the contend benchmark.

Simulated runs: the CSV that `contend sim` prints is compared byte for byte
with a stored copy where one applies, and checked for invariants on every
run.  Native runs: each thread's pass-invariant checksum is compared with
its closed form.  Every function returns a list of error strings; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict

# the data-row checksums of contend.native._Runner, in closed form
TRIAD_INDEX_PERIOD = 0x400   # a, b, c are initialised from i & 0x3FF
WALK_VALUE_PERIOD = 0x10000  # walk arenas are initialised from i & 0xFFFF


def extract_csv(stdout: str) -> str:
    """The CSV block of `contend sim` stdout: header line through last row."""
    lines = stdout.splitlines(keepends=True)
    for start, line in enumerate(lines):
        if line.startswith("workload,"):
            break
    else:
        return ""
    width = lines[start].count(",")
    end = start + 1
    while end < len(lines) and lines[end].count(",") == width:
        end += 1
    return "".join(lines[start:end])


def parse_rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def _pairing(label: str) -> tuple[str, str]:
    """(workload, pairing) of a row label such as primary@idle or x@primary."""
    owner, _, other = label.partition("@")
    return owner, other if owner == "primary" else owner


def sim_errors(csv_text: str, threads: dict[str, int], budget: int,
               expected: str | None = None) -> list[str]:
    """Problems with one `contend sim` CSV.

    threads maps each workload name to its thread count; every thread runs
    exactly budget events.  expected, when given, must match byte for byte.
    """
    errors = []
    if expected is not None and csv_text != expected:
        errors.append("sim CSV differs from the stored expected CSV")
    rows = parse_rows(csv_text)
    if not rows:
        return errors + ["sim output holds no CSV rows"]
    shares: dict[str, float] = defaultdict(float)
    for r in rows:
        label = r["workload"]
        owner, pairing = _pairing(label)
        try:
            acc, hits, misses, fetched = (
                int(r[k]) for k in ("accesses", "hits", "misses", "lines_fetched")
            )
            shares[pairing] += float(r["bandwidth_share"])
        except (TypeError, ValueError) as e:
            errors.append(f"{label}: unparsable row ({e})")
            continue
        if owner not in threads:
            errors.append(f"{label}: unknown workload {owner!r}")
        elif acc != threads[owner] * budget:
            errors.append(f"{label}: accesses {acc} != {threads[owner]} threads x {budget}")
        if hits + misses != acc:
            errors.append(f"{label}: hits {hits} + misses {misses} != accesses {acc}")
        if misses != fetched:
            errors.append(f"{label}: misses {misses} != lines_fetched {fetched}")
    for pairing, total in shares.items():
        # each share is printed with 6 decimals
        if abs(total - 1.0) > 1e-5:
            errors.append(f"bandwidth shares of pairing {pairing} sum to {total}, not 1")
    return errors


def masked_sum(count: int, period: int) -> int:
    """sum(k % period for k in range(count)), in closed form."""
    full, rem = divmod(count, period)
    return full * period * (period - 1) // 2 + rem * (rem - 1) // 2


def triad_checksum(n_elems: int) -> int:
    """Checksum of one triad pass: a = b + 3c = 4 * (i & 0x3FF) + 7."""
    return 4 * masked_sum(n_elems, TRIAD_INDEX_PERIOD) + 7 * n_elems


def strided_read_checksum(arena_bytes: int, stride_bytes: int) -> int:
    """Checksum of one read pass of a strided walk over its own arena."""
    step = stride_bytes // 8
    if stride_bytes % 8 or WALK_VALUE_PERIOD % step:
        raise ValueError(f"stride {stride_bytes} must be 8 x a divisor of {WALK_VALUE_PERIOD}")
    count = -(-(arena_bytes // 8) // step)
    return step * masked_sum(count, WALK_VALUE_PERIOD // step)


def native_errors(label: str, result, expected_checksum: int) -> list[str]:
    """Problems with one contend.native.NativeResult."""
    errors = []
    if not result.threads:
        return [f"{label}: no threads ran"]
    for t in result.threads:
        if t.passes < 1:
            errors.append(f"{label}: thread {t.thread} completed no timed pass")
        if t.checksum != expected_checksum:
            errors.append(f"{label}: thread {t.thread} checksum {t.checksum} "
                          f"!= expected {expected_checksum}")
        if not t.bandwidth > 0:
            errors.append(f"{label}: thread {t.thread} bandwidth {t.bandwidth}")
    return errors
