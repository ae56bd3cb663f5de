#!/usr/bin/env python3
"""Perf-trajectory diff of two BENCH_*.json reports.

Compares a baseline (committed) report against a freshly produced one
from the same bench and prints percent deltas for everything that moved:
headline metrics, host speed (sim-MIPS and the per-phase
bound/fault/merge/weave breakdown), and the per-container tenant rows
(schema v3 "tenants" — walks, miss-latency p99, CoW privatizations,
shootdowns, DRAM interference extras).

The exit code makes it a CI gate: a sim-MIPS drop beyond --threshold on
any host row is a regression. Everything else — metric drift, tenant
drift, phase-time shifts — is reported but informational, because
direction-of-goodness is metric-specific and tenant counters move
whenever the model legitimately evolves. CI runs this as an *advisory*
step (non-blocking) against the committed baselines so the BENCH
trajectory is visible in every PR's logs without going red on noisy
runner hardware.

Each report's "host_meta" (CPU count, affinity, compiler, build type,
LTO; bench/report.hh) is compared first. When the two differ, or one
side does not record it, the tool prints a cross-host warning and
marks every host row, because a ratio across machines or builds says
nothing about the code. The git revision is listed but expected to
differ.

Usage:
  bench_diff.py BASELINE.json NEW.json [--threshold PCT] [--all]
  bench_diff.py --selftest

  --threshold PCT  sim-MIPS drop (in percent) that counts as a
                   regression (default 15, matching the BF_MIPS_GUARD
                   slack used for cross-hardware comparisons)
  --all            print every compared value, not just the ones whose
                   delta exceeds 0.5%

Exit codes:
  0  no regression (deltas printed are informational)
  1  REGRESSION: some host row's sim-MIPS dropped beyond --threshold
  2  usage error (argparse)
  3  a report could not be read or parsed
"""

import argparse
import json
import signal
import sys

# Die quietly when the consumer (head, a closed tee) goes away.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

EXIT_REGRESSION = 1
EXIT_BAD_REPORT = 3

# Deltas smaller than this are suppressed without --all.
PRINT_THRESHOLD_PCT = 0.5

# host_meta fields that must match for a like-for-like comparison.
HOST_FIELDS = ("nproc", "affinity_cpus", "affinity_mask", "compiler",
               "build_type", "lto")

# Tenant-row fields worth tracking PR-over-PR (the rest of the row is
# derivable or identity: name/pid/ccid/slot and the evicted_by maps).
TENANT_FIELDS = (
    "instructions", "walks", "l1_misses", "cow_privatizations",
    "shootdowns_caused", "shootdowns_received",
    "dram_data_extra", "dram_walk_extra",
)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        sys.exit(EXIT_BAD_REPORT)


def delta_pct(old, new):
    """Percent change new vs old, or None when old is zero."""
    if old == 0:
        return None
    return (new - old) / old * 100.0


class Printer:
    """Suppresses sub-threshold rows unless --all; counts what it hid."""

    def __init__(self, show_all):
        self.show_all = show_all
        self.hidden = 0

    def row(self, label, old, new):
        d = delta_pct(old, new)
        if d is None:
            moved = new != old
            txt = "new nonzero" if moved else "0"
        else:
            moved = abs(d) >= PRINT_THRESHOLD_PCT
            txt = f"{d:+.2f}%"
        if not moved and not self.show_all:
            self.hidden += 1
            return
        print(f"  {label:<48} {old:>14g} -> {new:>14g}  {txt}")

    def flush_hidden(self):
        if self.hidden:
            print(f"  ({self.hidden} value(s) within "
                  f"{PRINT_THRESHOLD_PCT}% hidden; --all shows them)")
            self.hidden = 0


def diff_metrics(old, new, pr):
    old_m = old.get("metrics", {})
    new_m = new.get("metrics", {})
    if not old_m and not new_m:
        return
    print("metrics:")
    for key in sorted(set(old_m) | set(new_m)):
        if key not in old_m:
            print(f"  {key:<48} (new metric) -> {new_m[key]:g}")
        elif key not in new_m:
            print(f"  {key:<48} {old_m[key]:g} -> (removed)")
        else:
            pr.row(key, old_m[key], new_m[key])
    pr.flush_hidden()


def host_mismatch(old, new):
    """Differing host_meta fields as (field, old, new); None = unknown."""
    old_m = old.get("host_meta")
    new_m = new.get("host_meta")
    if not isinstance(old_m, dict) or not isinstance(new_m, dict):
        return None
    return [(f, old_m.get(f), new_m.get(f)) for f in HOST_FIELDS
            if old_m.get(f) != new_m.get(f)]


def report_hosts(old, new):
    """Print the host comparison; True when the hosts may differ."""
    mismatch = host_mismatch(old, new)
    if mismatch is None:
        missing = [side for side, rep in (("baseline", old), ("new", new))
                   if not isinstance(rep.get("host_meta"), dict)]
        print("WARNING: cross-host comparison: no host_meta in "
              + " and ".join(missing)
              + "; the ratios below may compare different machines")
        return True
    revs = (old["host_meta"].get("git_rev"), new["host_meta"].get("git_rev"))
    print(f"host_meta: git_rev {revs[0]} -> {revs[1]}")
    if not mismatch:
        return False
    print("WARNING: cross-host comparison: the reports come from "
          "different hosts or builds; the ratios below are not a "
          "code-only change:")
    for field, o, n in mismatch:
        print(f"  {field}: {o!r} -> {n!r}")
    return True


def diff_host(old, new, pr, threshold, cross_host=False):
    """Returns the labels whose sim-MIPS regressed beyond threshold."""
    old_h = old.get("host", {})
    new_h = new.get("host", {})
    regressed = []
    if not old_h and not new_h:
        return regressed
    print("host (CROSS-HOST: not comparable as a code change):"
          if cross_host else "host:")
    for label in sorted(set(old_h) | set(new_h)):
        if label not in old_h or label not in new_h:
            side = "baseline" if label not in new_h else "new report"
            print(f"  {label:<48} only in {side}")
            continue
        o, n = old_h[label], new_h[label]
        pr.row(f"{label}.sim_mips", o.get("sim_mips", 0),
               n.get("sim_mips", 0))
        d = delta_pct(o.get("sim_mips", 0), n.get("sim_mips", 0))
        if d is not None and d < -threshold:
            regressed.append((label, d))
        for phase in ("bound", "fault", "merge", "weave"):
            op = o.get("phases", {}).get(phase)
            np = n.get("phases", {}).get(phase)
            if op is not None and np is not None:
                pr.row(f"{label}.phases.{phase}", op, np)
    pr.flush_hidden()
    return regressed


def diff_tenants(old, new, pr):
    old_runs = old.get("runs", {})
    new_runs = new.get("runs", {})
    header_printed = False
    for label in sorted(set(old_runs) & set(new_runs)):
        old_t = {row["slot"]: row
                 for row in old_runs[label].get("tenants", [])}
        new_t = {row["slot"]: row
                 for row in new_runs[label].get("tenants", [])}
        if not old_t and not new_t:
            continue
        if not header_printed:
            print("tenants (per run, per container):")
            header_printed = True
        for slot in sorted(set(old_t) | set(new_t)):
            if slot not in old_t or slot not in new_t:
                side = "baseline" if slot not in new_t else "new report"
                print(f"  {label}.t{slot:<44} only in {side}")
                continue
            o, n = old_t[slot], new_t[slot]
            name = n.get("name", f"t{slot}")
            for field in TENANT_FIELDS:
                if field in o and field in n:
                    pr.row(f"{label}.{name}[{slot}].{field}",
                           o[field], n[field])
            op99 = o.get("miss_latency", {}).get("p99")
            np99 = n.get("miss_latency", {}).get("p99")
            if op99 is not None and np99 is not None:
                pr.row(f"{label}.{name}[{slot}].miss_p99", op99, np99)
    if header_printed:
        pr.flush_hidden()


def selftest():
    """Check the host comparison on canned reports; runs no bench."""
    import contextlib
    import io

    meta = {"nproc": 4, "affinity_cpus": 4, "affinity_mask": "f",
            "compiler": "GNU 13.2.0 (13.2.0)", "build_type": "Release",
            "lto": True, "git_rev": "a"}
    base = {"bench": "b", "host": {"x": {"sim_mips": 100.0}},
            "host_meta": meta}

    def run(old, new):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cross = report_hosts(old, new)
            diff_host(old, new, Printer(True), 15.0, cross)
        return cross, out.getvalue()

    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    same = dict(base, host_meta=dict(meta, git_rev="b"))
    cross, text = run(base, same)
    check("same host, new rev: no warning",
          not cross and "WARNING" not in text and "a -> b" in text)
    moved = dict(base, host_meta=dict(meta, nproc=1, affinity_cpus=1,
                                      affinity_mask="1"))
    cross, text = run(base, moved)
    check("cpu change warns", cross and "cross-host" in text
          and "nproc: 4 -> 1" in text and "CROSS-HOST" in text)
    rebuilt = dict(base, host_meta=dict(meta, lto=False))
    cross, text = run(base, rebuilt)
    check("build change warns", cross and "lto: True -> False" in text)
    legacy = {k: v for k, v in base.items() if k != "host_meta"}
    cross, text = run(legacy, base)
    check("missing metadata warns",
          cross and "no host_meta in baseline" in text)
    with contextlib.redirect_stdout(io.StringIO()):
        regressed = diff_host(base, dict(base, host={"x": {"sim_mips": 50.0}}),
                              Printer(False), 15.0)
    check("regression still reported", regressed == [("x", -50.0)])
    for name in failures:
        print(f"selftest FAILED: {name}")
    print("selftest: " + ("ok" if not failures else "failed"))
    return 0 if not failures else 1


def main():
    if "--selftest" in sys.argv[1:]:
        sys.exit(selftest())
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed BENCH_*.json baseline")
    ap.add_argument("new", help="freshly produced BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="sim-MIPS drop (percent) that counts as a "
                         "regression (default %(default)s)")
    ap.add_argument("--all", action="store_true",
                    help="print every compared value, not just deltas "
                         f"beyond {PRINT_THRESHOLD_PCT}%%")
    args = ap.parse_args()

    old = load(args.baseline)
    new = load(args.new)
    if old.get("bench") != new.get("bench"):
        print(f"note: comparing different benches "
              f"({old.get('bench')!r} vs {new.get('bench')!r})")
    print(f"bench_diff: {args.baseline} -> {args.new} "
          f"(bench {new.get('bench')!r})")

    cross_host = report_hosts(old, new)
    pr = Printer(args.all)
    diff_metrics(old, new, pr)
    regressed = diff_host(old, new, pr, args.threshold, cross_host)
    diff_tenants(old, new, pr)

    if regressed:
        print(f"REGRESSION: sim-MIPS dropped more than "
              f"{args.threshold:g}% on:")
        for label, d in regressed:
            print(f"  {label}: {d:+.2f}%")
        sys.exit(EXIT_REGRESSION)
    print("no sim-MIPS regression beyond the threshold")


if __name__ == "__main__":
    main()
