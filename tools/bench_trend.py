#!/usr/bin/env python3
"""Aggregate BENCH_JSON lines into a trend report.

Every bench_* binary emits one `BENCH_JSON {...}` line per measured
configuration (format documented in README.md).  This script scrapes those
lines out of one or more captured logs — one log per run, e.g. one per
commit — and prints a per-(bench, label) table of simulated seconds across
runs, the delta of the last run against the first, and any audit verdicts.

Usage:
    bench/bench_fig4_lossless_scaling | tee run1.log
    ...
    tools/bench_trend.py run1.log run2.log ...
    tools/bench_trend.py --json run*.log      # machine-readable summary
    some_bench | tools/bench_trend.py -       # single run from stdin

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys

PREFIX = "BENCH_JSON "


def scrape(stream):
    """Yields parsed BENCH_JSON objects from an iterable of lines."""
    for line in stream:
        idx = line.find(PREFIX)
        if idx < 0:
            continue
        payload = line[idx + len(PREFIX):].strip()
        try:
            yield json.loads(payload)
        except json.JSONDecodeError as e:
            print(f"warning: unparseable BENCH_JSON line ({e}): "
                  f"{payload[:80]}", file=sys.stderr)


def load_runs(paths):
    """Returns [(run_name, [record, ...]), ...] in argument order."""
    runs = []
    for path in paths:
        if path == "-":
            runs.append(("stdin", list(scrape(sys.stdin))))
        else:
            with open(path, "r", encoding="utf-8") as f:
                runs.append((path, list(scrape(f))))
    return runs


def key_of(rec):
    return (rec.get("bench", "?"), rec.get("label", "?"))


def build_trend(runs):
    """{(bench, label): {"series": [sim or None per run],
                         "audit": [audit or None per run],
                         "derived": [metrics or None per run]}}, key-ordered
    by first appearance.  `derived` is the flat dotted-key metrics registry
    (DESIGN.md §11) newer benches attach; records that predate it simply
    carry None, so old snapshots keep parsing."""
    trend = {}
    for run_idx, (_, records) in enumerate(runs):
        for rec in records:
            k = key_of(rec)
            row = trend.setdefault(
                k, {"series": [None] * len(runs),
                    "audit": [None] * len(runs),
                    "derived": [None] * len(runs)})
            row["series"][run_idx] = rec.get("sim_seconds")
            row["audit"][run_idx] = rec.get("audit")
            row["derived"][run_idx] = rec.get("derived")
    return trend


def fmt_seconds(v):
    return "-" if v is None else f"{v:.6g}"


def fmt_delta(first, last):
    if first is None or last is None or first == 0:
        return "-"
    pct = (last - first) / first * 100.0
    return f"{pct:+.1f}%"


def audit_verdict(audits):
    """Worst audit verdict across runs: '-' (never audited), 'clean', or
    'VIOLATIONS'."""
    seen = [a for a in audits if a is not None]
    if not seen:
        return "-"
    return "clean" if all(a.get("clean", False) for a in seen) else "VIOLATIONS"


def occupancy_note(derived_list):
    """Short per-row note from the latest derived metrics: the occupancy of
    the stage with the largest critical-path share ('-' when no record in
    the row carries derived metrics)."""
    latest = next((d for d in reversed(derived_list) if d), None)
    if not latest:
        return "-"
    best, share = None, -1.0
    for k, v in latest.items():
        parts = k.split(".")
        if len(parts) == 3 and parts[0] == "stage" \
                and parts[2] == "critical_path_share" and v > share:
            best, share = parts[1], v
    if best is None:
        return "-"
    occ = latest.get(f"stage.{best}.occupancy")
    return f"{best} {occ * 100:.0f}%" if occ is not None else best


def service_note(derived_list):
    """Service columns from the latest derived metrics (DESIGN.md §12):
    '(jobs/sec, p99 latency)' when the record carries service.* keys,
    ('-', '-') otherwise — encode-only benches keep their report shape."""
    latest = next((d for d in reversed(derived_list) if d), None)
    if not latest:
        return ("-", "-")
    jps = latest.get("service.jobs_per_sec")
    p99 = latest.get("service.p99_latency")
    return ("-" if jps is None else f"{jps:.2f}",
            "-" if p99 is None else f"{p99:.4g}")


def has_service_rows(trend):
    return any(service_note(row["derived"]) != ("-", "-")
               for row in trend.values())


def print_report(runs, trend, out=sys.stdout):
    run_names = [name for name, _ in runs]
    total = sum(len(records) for _, records in runs)
    print(f"{total} BENCH_JSON record(s) across {len(runs)} run(s):", file=out)
    for i, name in enumerate(run_names):
        print(f"  run[{i}] = {name} ({len(runs[i][1])} records)", file=out)
    print(file=out)

    # The service columns only appear when some record carries service.*
    # derived metrics, so encode-only reports are byte-stable.
    service = has_service_rows(trend)
    label_w = max((len(f"{b}:{l}") for b, l in trend), default=10)
    cols = "  ".join(f"run[{i}]".rjust(12) for i in range(len(runs)))
    header = (f"{'bench:label'.ljust(label_w)}  {cols}  {'Δ last/first':>12}  "
              f"{'audit':>10}  {'hot stage':>14}")
    if service:
        header += f"  {'jobs/s':>8}  {'p99 lat':>9}"
    print(header, file=out)
    for (bench, label), row in trend.items():
        name = f"{bench}:{label}"
        series = row["series"]
        vals = "  ".join(fmt_seconds(v).rjust(12) for v in series)
        firsts = [v for v in series if v is not None]
        delta = fmt_delta(firsts[0] if firsts else None,
                          firsts[-1] if firsts else None)
        line = (f"{name.ljust(label_w)}  {vals}  {delta:>12}  "
                f"{audit_verdict(row['audit']):>10}  "
                f"{occupancy_note(row['derived']):>14}")
        if service:
            jps, p99 = service_note(row["derived"])
            line += f"  {jps:>8}  {p99:>9}"
        print(line, file=out)


def selftest():
    """Unit check (invoked from ctest): records with and without the
    derived-metrics object aggregate side by side, the JSON shape carries
    both, and the occupancy note degrades gracefully."""
    old = ('BENCH_JSON {"bench":"b","label":"old","sim_seconds":1.5,'
           '"audit":{"clean":true}}')
    new = ('BENCH_JSON {"bench":"b","label":"new","sim_seconds":2.0,'
           '"derived":{"sim.seconds":2.0,"stage.t1.seconds":1.8,'
           '"stage.t1.occupancy":0.9,"stage.t1.critical_path_share":0.9,'
           '"stage.t2.critical_path_share":0.1,"stage.t2.occupancy":0.2}}')
    svc = ('BENCH_JSON {"bench":"service_throughput","label":"s",'
           '"sim_seconds":0.6,"derived":{"service.jobs_per_sec":19.5,'
           '"service.p99_latency":0.0093,"service.pool_occupancy":0.9}}')
    records = list(scrape([old, new, svc, "noise line",
                           "BENCH_JSON {broken"]))
    assert len(records) == 3, records
    trend = build_trend([("run0", records)])
    row_old = trend[("b", "old")]
    row_new = trend[("b", "new")]
    row_svc = trend[("service_throughput", "s")]
    assert row_old["derived"] == [None]
    assert row_new["derived"][0]["stage.t1.occupancy"] == 0.9
    assert occupancy_note(row_old["derived"]) == "-"
    assert occupancy_note(row_new["derived"]) == "t1 90%"
    assert audit_verdict(row_old["audit"]) == "clean"
    # Service columns: present for service.* rows, '-' elsewhere, and the
    # whole column pair only materialises when some row is a service row.
    assert service_note(row_svc["derived"]) == ("19.50", "0.0093")
    assert service_note(row_new["derived"]) == ("-", "-")
    assert has_service_rows(trend)
    assert not has_service_rows({("b", "old"): row_old})
    import io
    buf = io.StringIO()
    print_report([("run0", records)], trend, out=buf)
    assert "jobs/s" in buf.getvalue() and "19.50" in buf.getvalue()
    buf2 = io.StringIO()
    print_report([("run0", records[:2])],
                 build_trend([("run0", records[:2])]), out=buf2)
    assert "jobs/s" not in buf2.getvalue()
    # The --json shape round-trips both rows (old snapshots stay loadable).
    obj = {"rows": [{"bench": b, "label": l, "sim_seconds": r["series"],
                     "audit": r["audit"], "derived": r["derived"]}
                    for (b, l), r in trend.items()]}
    back = json.loads(json.dumps(obj))
    assert back["rows"][0]["derived"] == [None]
    assert back["rows"][1]["derived"][0]["sim.seconds"] == 2.0
    print("bench_trend selftest: OK")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Aggregate BENCH_JSON lines from captured bench logs "
                    "into a trend report.")
    ap.add_argument("logs", nargs="*",
                    help="log files in run order ('-' reads stdin)")
    ap.add_argument("--json", action="store_true",
                    help="emit the aggregated trend as JSON instead of a "
                         "table")
    ap.add_argument("--fail-on-dirty-audit", action="store_true",
                    help="exit 1 when any audited record is not clean")
    ap.add_argument("--selftest", action="store_true",
                    help="run the built-in unit checks and exit")
    args = ap.parse_args(argv)

    if args.selftest:
        return selftest()
    if not args.logs:
        ap.error("log files required (or --selftest)")

    runs = load_runs(args.logs)
    trend = build_trend(runs)
    if not trend:
        # Not an error: a log with no BENCH_JSON lines (filtered bench run,
        # smoke step with benches skipped) just yields an empty report.
        print("no BENCH_JSON records found", file=sys.stderr)
        return 0

    if args.json:
        obj = {
            "runs": [name for name, _ in runs],
            "rows": [
                {"bench": b, "label": l, "sim_seconds": row["series"],
                 "audit": row["audit"], "derived": row["derived"]}
                for (b, l), row in trend.items()
            ],
        }
        json.dump(obj, sys.stdout, indent=2)
        print()
    else:
        print_report(runs, trend)

    if args.fail_on_dirty_audit:
        for row in trend.values():
            if audit_verdict(row["audit"]) == "VIOLATIONS":
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
