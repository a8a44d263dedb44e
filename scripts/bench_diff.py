#!/usr/bin/env python3
"""Compare two bench_suite.json artifacts and flag throughput regressions.

Usage:
    scripts/bench_diff.py BASELINE.json CURRENT.json [options]
    scripts/bench_diff.py "b1.json,b2.json,b3.json" \
        "c1.json,c2.json,c3.json" --repeat 3

Sweep records are matched on (scenario, graph, variant, threads,
read_percent, batch_size); a data point whose ops_per_ms dropped by more
than --threshold percent (default 10) is a regression. Memory-section
records are matched the same way on allocs_per_op (an *increase* beyond the
threshold is the regression there).

Either side may be a comma-separated list of artifacts from repeated
bench_suite runs: each data point is then the per-key *median* across the
runs, which removes most scheduler noise — the first step toward
hard-gating throughput in CI. --repeat N asserts both sides carry exactly
N artifacts (catches a forgotten run in scripted sweeps). Calibration
records are median-combined the same way.

Exit status: 0 = clean, 1 = regressions (or coverage loss), 2 = bad input.

Two classes of finding:
  * coverage loss — a (scenario x variant x ...) key present in the
    baseline but absent from the current run. Machine-independent, always
    an error unless --allow-missing.
  * throughput drop — ops_per_ms fell beyond the threshold. Throughput is
    machine-dependent, so CI compares a fresh run against a checked-in
    baseline with --warn-only (drops are reported, not fatal) while local
    before/after runs on one machine use the default hard mode (medians
    over --repeat runs recommended).
"""

import argparse
import json
import statistics
import sys

SWEEP_KEY = ("scenario", "graph", "variant", "threads", "read_percent",
             "batch_size")
MEMORY_KEY = ("scenario", "graph", "variant", "threads")


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    if "results" not in data:
        sys.exit(f"bench_diff: {path} has no 'results' array "
                 "(not a bench_suite artifact?)")
    return data


def load_side(spec, repeat, side):
    """One side of the diff: a path or a comma-separated list of paths from
    repeated runs. Returns the list of loaded artifacts."""
    paths = [p for p in spec.split(",") if p.strip()]
    if repeat and len(paths) != repeat:
        sys.exit(f"bench_diff: --repeat {repeat} but the {side} side lists "
                 f"{len(paths)} artifact(s): {spec}")
    return [load(p) for p in paths]


def index_one(results, section, key_fields, value_field):
    out = {}
    for r in results:
        if r.get("section") != section or r.get(value_field) is None:
            continue
        r = dict(r)
        if str(r.get("scenario", "")).startswith("trace-replay"):
            # The trace-replay family's "graph" is the trace file *path*,
            # which varies between runs/machines; normalize so the data
            # points match (covers trace-replay and trace-replay-dep).
            r["graph"] = "<trace>"
        key = tuple(r.get(k) for k in key_fields)
        out[key] = r[value_field]
    return out


def index(datas, section, key_fields, value_field, scale=1.0):
    """Index every artifact of one side and median-combine per key. A key
    only counts as covered if *some* run produced it (runs that missed a
    point — e.g. a crashed rerun — don't erase the side's coverage)."""
    runs = [index_one(d["results"], section, key_fields, value_field)
            for d in datas]
    keys = set().union(*runs) if runs else set()
    out = {}
    for key in keys:
        values = [r[key] for r in runs if key in r]
        out[key] = statistics.median(values) * scale
    return out


def calibration_ops_per_ms(datas):
    """The fixed single-thread coarse run bench_suite stamps into every
    artifact (section == "calibration"), median-combined across repeated
    runs; None for pre-calibration files."""
    values = []
    for data in datas:
        for r in data.get("results", []):
            if r.get("section") == "calibration" and r.get("ops_per_ms"):
                values.append(r["ops_per_ms"])
    return statistics.median(values) if values else None


def fmt_key(key_fields, key):
    return " ".join(f"{f}={v}" for f, v in zip(key_fields, key)
                    if v not in (None, "", 0) or f in ("scenario", "variant"))


def compare(name, key_fields, base, cur, threshold, higher_is_better):
    """Returns (regressions, missing, improvements) message lists."""
    regressions, missing, improvements = [], [], []
    for key, b in sorted(base.items(), key=str):
        if key not in cur:
            missing.append(f"  [{name}] missing: {fmt_key(key_fields, key)}")
            continue
        c = cur[key]
        if b <= 0:
            continue
        delta_pct = 100.0 * (c - b) / b
        drop = -delta_pct if higher_is_better else delta_pct
        fmt = ".1f" if min(b, c) >= 10 else ".4g"
        line = (f"  [{name}] {fmt_key(key_fields, key)}: "
                f"{b:{fmt}} -> {c:{fmt}} ({delta_pct:+.1f}%)")
        if drop > threshold:
            regressions.append(line)
        elif drop < -threshold:
            improvements.append(line)
    return regressions, missing, improvements


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report throughput drops without failing "
                         "(for cross-machine comparisons in CI)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="do not fail on scenario x variant coverage loss")
    ap.add_argument("--no-calibration", action="store_true",
                    help="compare raw throughput without scaling by the "
                         "calibration records (single-machine diffs)")
    ap.add_argument("--repeat", type=int, default=0,
                    help="expect N comma-separated artifacts per side and "
                         "compare per-key medians over them (noise "
                         "suppression for throughput gating)")
    args = ap.parse_args()

    base = load_side(args.baseline, args.repeat, "baseline")
    cur = load_side(args.current, args.repeat, "current")

    # Cross-machine normalization: both artifacts carry a fixed
    # single-thread coarse calibration run; scaling the current run's
    # throughput by base_cal/cur_cal removes the machine-speed component,
    # so the residual deltas are (mostly) code, not hardware.
    cal_scale = 1.0
    b_cal, c_cal = calibration_ops_per_ms(base), calibration_ops_per_ms(cur)
    if args.no_calibration:
        pass
    elif b_cal and c_cal:
        cal_scale = b_cal / c_cal
        print(f"calibration: baseline {b_cal:.1f} ops/ms, current "
              f"{c_cal:.1f} ops/ms -> throughput scale {cal_scale:.3f}")
    else:
        print("calibration: record missing from "
              + ("both artifacts" if not b_cal and not c_cal else
                 args.baseline if not b_cal else args.current)
              + "; comparing raw throughput")

    # allocs_per_op is machine-independent; only throughput is scaled.
    checks = [
        ("sweep", SWEEP_KEY, "ops_per_ms", True, cal_scale),
        ("memory", MEMORY_KEY, "allocs_per_op", False, 1.0),
    ]
    all_regressions, all_missing, all_improvements = [], [], []
    compared = 0
    for section, key_fields, value_field, higher, scale in checks:
        b = index(base, section, key_fields, value_field)
        c = index(cur, section, key_fields, value_field, scale)
        compared += len(b)
        r, m, i = compare(section, key_fields, b, c, args.threshold, higher)
        all_regressions += r
        all_missing += m
        all_improvements += i

    if compared == 0:
        sys.exit(f"bench_diff: no comparable records in {args.baseline}")

    print(f"bench_diff: {compared} baseline data points, "
          f"threshold {args.threshold:.0f}%")
    for title, lines in (("coverage loss", all_missing),
                         ("regressions", all_regressions),
                         ("improvements", all_improvements)):
        if lines:
            print(f"{title} ({len(lines)}):")
            for line in lines:
                print(line)
    if not (all_missing or all_regressions):
        print("no regressions")

    if all_missing and not args.allow_missing:
        return 1
    if all_regressions and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
