#!/usr/bin/env python3
"""Compare two result JSON files, ignoring wall-clock-only fields.

Usage: golden_diff.py <committed.json> <regenerated.json>
       golden_diff.py --trend [<committed-history.jsonl>] <candidate.jsonl>

Exits 0 when the files agree on every deterministic field, 1 on drift
(with a short report of the first differences). Timing fields vary run
to run on shared hardware, so they are stripped recursively before the
comparison; everything else — plans, configs-evaluated counts, symbolic
program sizes, memory predictions — must match exactly.

Throughput fields are an exception to the "timing varies" rule: they
are excluded from exact equality, but a regenerated throughput more
than 10% below the committed baseline fails the check — the committed
bench_symbolic.json doubles as the performance baseline for the
compiled stage program and mem_pair the tuner's sweep runs. The
baseline is host-bound: it holds only on the machine that recorded it.

--trend validates the last line of a candidate history JSONL file: the
planner daemon's warm-start query must be strictly faster than its
cold query on the GPT-3 6.7B workload — the whole point of
warm-starting is doing less work, so a warm query that is not faster
is a regression even if its result is byte-identical. When a committed
history file is also given, the candidate's `tune_gpt3_6_7b_configs`
must not exceed the last committed entry's: the tune's row count
moves only when its search space or a sweep-skipping optimization
changes, and those may only shrink it, so a configs-evaluated count
that grows is a regression. The
candidate's `stage_rows_per_sec` must also stay within 10% of the
last committed entry's (skipped when the committed entry lacks the
field).
"""

import json
import sys

# Fields whose values are wall-clock measurements (or derived from
# them) or the pool's thread count. Everything else in the goldens is
# deterministic.
TIMING_FIELDS = {
    # The explain digest keeps every wall-clock-derived value (phase
    # timers, span totals, the self-time tree) under this one key so the
    # whole subtree strips in one go.
    "timing",
    # Planner-daemon responses keep every run-variable field — query
    # timing, cold/hit/warm provenance, configs evaluated, cache
    # counters, telemetry — under this one key; the `result` subtree
    # must then be byte-identical across cold, hit and warm answers.
    "work",
    "tuning_secs",
    "tuning_seconds",
    "elapsed_secs",
    "intra_secs",
    "inter_secs",
    "pool.workers",
    "stage_ns_per_batch",
    "stage_rows_per_sec",
    "mem_pair_ns_per_batch",
    "mem_pair_rows_per_sec",
}

# Rows/sec fields gated against regression: the regenerated value may
# wobble run to run, but must stay within 10% of the committed baseline.
THROUGHPUT_FIELDS = (
    "stage_rows_per_sec",
    "mem_pair_rows_per_sec",
)
THROUGHPUT_TOLERANCE = 0.9


def strip(value):
    if isinstance(value, dict):
        return {
            k: strip(v) for k, v in value.items() if k not in TIMING_FIELDS
        }
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def diff(path, a, b, out):
    if len(out) >= 10:
        return
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
    elif isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                out.append(f"{path}.{k}: only in regenerated")
            elif k not in b:
                out.append(f"{path}.{k}: only in committed")
            else:
                diff(f"{path}.{k}", a[k], b[k], out)
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(f"{path}[{i}]", x, y, out)
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def check_throughput(committed, regenerated):
    """Regenerated throughput must stay within tolerance of committed."""
    regressions = []
    for field in THROUGHPUT_FIELDS:
        base, fresh = committed.get(field), regenerated.get(field)
        if base is None or fresh is None:
            continue
        if fresh < THROUGHPUT_TOLERANCE * base:
            regressions.append(
                f"{field}: {fresh:.0f} rows/sec is "
                f"{100.0 * (1.0 - fresh / base):.1f}% below the committed "
                f"baseline {base:.0f}"
            )
    return regressions


def last_entry(path):
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    return json.loads(lines[-1]) if lines else None


def check_trend(path, baseline_path=None):
    """Warm-start queries must beat cold queries on the last entry, and
    configs-evaluated must not regress upward vs the committed history."""
    entry = last_entry(path)
    if entry is None:
        print(f"trend check: {path} is empty", file=sys.stderr)
        return 1
    cold = entry.get("query_cold_secs")
    warm = entry.get("query_warm_secs")
    if cold is None or warm is None:
        print(
            f"trend check: last entry of {path} lacks "
            "query_cold_secs/query_warm_secs",
            file=sys.stderr,
        )
        return 1
    if warm >= cold:
        print(
            f"trend check: warm-start query ({warm:.3f}s) is not faster "
            f"than the cold query ({cold:.3f}s) — warm-starting must "
            "strictly reduce work",
            file=sys.stderr,
        )
        return 1
    print(
        f"    trend ok: warm {warm:.3f}s < cold {cold:.3f}s "
        f"({100.0 * (1.0 - warm / cold):.1f}% faster)"
    )
    if baseline_path is not None:
        try:
            baseline = last_entry(baseline_path)
        except FileNotFoundError:
            baseline = None
        base = baseline.get("tune_gpt3_6_7b_configs") if baseline else None
        fresh = entry.get("tune_gpt3_6_7b_configs")
        if base is not None and fresh is not None:
            if fresh > base:
                print(
                    f"trend check: configs_evaluated grew from {base} to "
                    f"{fresh} — pruning/warm-start coverage regressed",
                    file=sys.stderr,
                )
                return 1
            print(
                f"    trend ok: configs_evaluated {fresh} <= committed "
                f"baseline {base}"
            )
        base_rps = baseline.get("stage_rows_per_sec") if baseline else None
        fresh_rps = entry.get("stage_rows_per_sec")
        if base_rps is not None and fresh_rps is not None:
            if fresh_rps < THROUGHPUT_TOLERANCE * base_rps:
                print(
                    f"trend check: stage_rows_per_sec {fresh_rps:.0f} is "
                    f"{100.0 * (1.0 - fresh_rps / base_rps):.1f}% below the "
                    f"committed baseline {base_rps:.0f} — the compiled "
                    "stage program's throughput regressed",
                    file=sys.stderr,
                )
                return 1
            print(
                f"    trend ok: stage program {fresh_rps:.0f} rows/sec "
                f"within 10% of committed baseline {base_rps:.0f}"
            )
    return 0


def main():
    if sys.argv[1] == "--trend":
        if len(sys.argv) > 3:
            return check_trend(sys.argv[3], baseline_path=sys.argv[2])
        return check_trend(sys.argv[2])
    committed, regenerated = sys.argv[1], sys.argv[2]
    with open(committed) as f:
        a_raw = json.load(f)
    with open(regenerated) as f:
        b_raw = json.load(f)
    a, b = strip(a_raw), strip(b_raw)
    failed = False
    if a != b:
        out = []
        diff("$", a, b, out)
        print(f"golden drift: {committed} vs {regenerated}", file=sys.stderr)
        for line in out:
            print(f"  {line}", file=sys.stderr)
        failed = True
    if isinstance(a_raw, dict) and isinstance(b_raw, dict):
        regressions = check_throughput(a_raw, b_raw)
        if regressions:
            print(
                f"throughput regression: {committed} vs {regenerated}",
                file=sys.stderr,
            )
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
