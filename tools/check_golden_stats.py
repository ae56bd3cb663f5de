#!/usr/bin/env python3
"""Golden-stats determinism check.

Runs a bench binary with a pinned deterministic configuration and diffs
its exported JSON stats tree against a committed golden file. The
architectural stats (every counter under "runs", the headline "metrics",
"capped_runs", and the deterministic "config" knobs) must match exactly
— host-side optimizations are only allowed to move the host-timing
sections, never the modeled machine.

Ignored fields, by design:
  - schema_version      (additive schema growth is fine)
  - config.jobs         (thread count of the bench runner; stats are
                         identical across BF_JOBS by construction)
  - config.workers      (bound-phase threads inside each System; stats
                         are identical across BF_WORKERS by
                         construction — that is the determinism this
                         check enforces)
  - config.weave_workers (a retired knob: the weave is serial and
                         benches no longer report it, but the committed
                         golden still carries it)
  - config.batch        (core prefetch batching, BF_BATCH; a host-side
                         pull-ahead of the per-thread reference streams
                         with stats identical at any value)
  - config.ckpt_dir, config.restore_dir
                        (BF_CKPT / BF_RESTORE paths; the save/restore
                         round-trip gate proves checkpointing changes
                         no stats, so where the archive lives is
                         host-side bookkeeping)
  - host, notes         (host wall-clock / sim-MIPS and bookkeeping)
  - host_meta           (CPU count, affinity, compiler, build type, LTO
                         and git revision of the producing build)
  - series              (present for completeness; compared when both
                         sides have it)

Usage:
  check_golden_stats.py --bench PATH --golden GOLDEN.json [--update]
  check_golden_stats.py --json PRODUCED.json --golden GOLDEN.json
  check_golden_stats.py --bench PATH --reconcile [--golden GOLDEN.json]
  check_golden_stats.py --json PRODUCED.json --reconcile

With --bench the bench is run under the pinned environment
(BF_FAST=1 BF_SAMPLE_MS=0 BF_JOBS=1 BF_WORKERS=1 BF_SYNC_CHUNK=20000)
into a temp directory; the caller's environment is passed through
underneath, so checkpoint knobs (BF_CKPT / BF_RESTORE) layer onto the
pinned run — CI uses that for the save/restore round-trip gate. The
determinism axis BF_WORKERS may be overridden by the caller (it
defaults to the pinned 1): byte-identity of the stats at every worker
count is exactly the property this gate proves, so CI re-runs it at
BF_WORKERS 2 and 4. --update
rewrites the golden file from the produced output instead of diffing.
On drift the first mismatching stat paths are printed as a unified
golden(-) -> produced(+) diff.

--backend NAME runs the bench under BF_BACKEND=NAME (the translation
-backend zoo, DESIGN.md §16). Only the BabelFish reference backend owes
byte-identity to the committed goldens; competitor backends are
expected to drift whenever their model evolves, so their drift is
reported as an advisory (distinct exit code) rather than a hard
failure — CI surfaces it without going red.

--reconcile checks the produced report *against itself*: for every run
whose "tenants" array is non-empty, the per-container rows must sum to
the matching global counters in that run's stats tree bit-for-bit
(DESIGN.md §17) — the 14 MMU translation scalars and the miss-latency
distribution against the sum over core*.mmu, walks against
core*.mmu.walker, instructions against core*, cow_privatizations and
shootdowns against the kernel group. Runs without attribution
(BF_ATTRIB=0) are skipped, but if *no* run carried attribution the
check is vacuous and fails as a bench error. --reconcile composes with
every other flag: with --golden both checks run (reconcile first);
with --backend the reconciliation failure is always hard — every
backend owes attribution consistency, the advisory carve-out covers
golden drift only. --golden is optional when --reconcile is given (a
reconcile-only invocation needs no committed file) and required
otherwise.

Exit codes distinguish the failure classes so CI can tell them apart:
  0  stats match / tenant sums reconcile (or golden updated)
  1  STAT DRIFT or RECONCILE FAILED — hard failure
  2  usage error (bad flag combination; argparse prints the reason)
  3  BENCH FAILED: the bench crashed, produced no report, or
     --reconcile found no attributed runs to check
  4  ADVISORY DRIFT: a non-reference --backend diverges — informational
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Top-level keys that describe the host, not the modeled machine.
IGNORED_TOP_LEVEL = ("schema_version", "host", "notes", "host_meta")
# weave_workers stays listed because the committed golden still carries
# "config.weave_workers": 1 from when the weave could be sharded; the
# golden must stay byte-identical, so the key is ignored, not rewritten.
IGNORED_CONFIG_KEYS = ("jobs", "workers", "weave_workers", "batch",
                       "ckpt_dir", "restore_dir")

PINNED_ENV = {
    "BF_FAST": "1",
    "BF_SAMPLE_MS": "0",
    "BF_JOBS": "1",
    "BF_WORKERS": "1",
    "BF_SYNC_CHUNK": "20000",
    "BF_JSON": "1",
}

# How many mismatching stat paths to show in the diff.
DIFF_LIMIT = 20


def strip_ignored(doc):
    doc = dict(doc)
    for key in IGNORED_TOP_LEVEL:
        doc.pop(key, None)
    config = dict(doc.get("config", {}))
    for key in IGNORED_CONFIG_KEYS:
        config.pop(key, None)
    doc["config"] = config
    return doc


def diff(path, golden, produced, out, limit=DIFF_LIMIT):
    """Collect (path, old, new) triples of differing leaves.

    old/new are None when the path exists on only one side (shown as a
    one-sided diff line).
    """
    if len(out) >= limit:
        return
    if type(golden) is not type(produced):
        out.append((path, f"<{type(golden).__name__}> {golden!r}",
                    f"<{type(produced).__name__}> {produced!r}"))
        return
    if isinstance(golden, dict):
        for key in sorted(set(golden) | set(produced)):
            if key not in golden:
                out.append((f"{path}.{key}", None, produced[key]))
            elif key not in produced:
                out.append((f"{path}.{key}", golden[key], None))
            else:
                diff(f"{path}.{key}", golden[key], produced[key], out,
                     limit)
    elif isinstance(golden, list):
        if len(golden) != len(produced):
            out.append((path, f"length {len(golden)}",
                        f"length {len(produced)}"))
            return
        for i, (g, p) in enumerate(zip(golden, produced)):
            diff(f"{path}[{i}]", g, p, out, limit)
    elif golden != produced:
        out.append((path, golden, produced))


# Exit codes (see module docstring).
EXIT_DRIFT = 1
EXIT_BENCH_FAILED = 3
EXIT_ADVISORY_DRIFT = 4

# Per-tenant counters that mirror translate::TranslateStats member for
# member; each must sum (over the "tenants" rows) to the sum of the
# same-named scalar over every core's mmu group. DRAM interference
# extras are deliberately absent: they are billed shares of a shared
# resource, not mirrors of one global counter.
MMU_SCALARS = (
    "l1_hits", "l1_misses", "l2_data_hits", "l2_data_misses",
    "l2_instr_hits", "l2_instr_misses", "l2_data_shared_hits",
    "l2_instr_shared_hits", "l2_long_accesses", "minor_faults",
    "major_faults", "cow_faults", "shared_installs", "fault_cycles",
)


def core_groups(stats):
    """The per-core stat groups (children named core<N>) of one run."""
    children = stats.get("children", {})
    return [group for name, group in sorted(children.items())
            if name.startswith("core") and name[len("core"):].isdigit()]


def reconcile_run(label, run, problems):
    """Check one run's tenant rows against its global counters.

    Appends (path, global, tenant_sum) triples for every divergence.
    Returns True when the run carried attribution data and was checked,
    False when it was skipped (empty "tenants", i.e. BF_ATTRIB=0).
    """
    tenants = run.get("tenants") or []
    if not tenants:
        return False
    stats = run.get("stats") or {}
    cores = core_groups(stats)
    kernel = stats.get("children", {}).get("kernel", {})

    def tenant_sum(key):
        return sum(row[key] for row in tenants)

    def check(name, global_value, tenant_value):
        if global_value != tenant_value:
            problems.append((f"{label}.{name}", global_value,
                             tenant_value))

    for key in MMU_SCALARS:
        check(key,
              sum(c["children"]["mmu"]["scalars"][key] for c in cores),
              tenant_sum(key))
    check("walks",
          sum(c["children"]["mmu"]["children"]["walker"]["scalars"]
              ["walks"] for c in cores),
          tenant_sum("walks"))
    check("instructions",
          sum(c["scalars"]["instructions"] for c in cores),
          tenant_sum("instructions"))
    check("cow_privatizations",
          kernel.get("scalars", {}).get("cow_privatizations", 0),
          tenant_sum("cow_privatizations"))
    check("shootdowns_caused",
          kernel.get("scalars", {}).get("shootdowns", 0),
          tenant_sum("shootdowns_caused"))

    # The miss-latency distribution: count and sum are additive, max is
    # a max-reduction. Percentiles are derived values, so the three
    # moments here pin the same underlying buckets the percentiles read.
    lat = [c["children"]["mmu"]["distributions"]["miss_latency"]
           for c in cores]
    rows = [row["miss_latency"] for row in tenants]
    check("miss_latency.count", sum(d["count"] for d in lat),
          sum(r["count"] for r in rows))
    check("miss_latency.sum", sum(d["sum"] for d in lat),
          sum(r["sum"] for r in rows))
    check("miss_latency.max", max((d["max"] for d in lat), default=0),
          max((r["max"] for r in rows), default=0))
    return True


def reconcile(produced):
    """Run the tenant-vs-global check over every run; exit on failure."""
    problems = []
    checked = skipped = 0
    for label, run in produced.get("runs", {}).items():
        if reconcile_run(label, run, problems):
            checked += 1
        else:
            skipped += 1
    if problems:
        print(f"RECONCILE FAILED: {len(problems)} per-tenant sums "
              f"diverge from the global counters "
              f"(- global, + sum over tenants)")
        for path, global_value, tenant_value in problems:
            print(f"  - {path}: {global_value!r}")
            print(f"  + {path}: {tenant_value!r}")
        sys.exit(EXIT_DRIFT)
    if checked == 0:
        print("BENCH FAILED: --reconcile found no runs with attribution "
              "data (was the bench run with BF_ATTRIB=0?)",
              file=sys.stderr)
        sys.exit(EXIT_BENCH_FAILED)
    note = f", {skipped} without attribution skipped" if skipped else ""
    print(f"tenant sums reconcile with the global counters "
          f"({checked} run(s) checked{note})")

# The backend whose stats the goldens pin down (MmuParams default).
REFERENCE_BACKEND = "babelfish"


def run_bench(bench, out_dir, backend=None):
    env = dict(os.environ)
    pinned = dict(PINNED_ENV)
    # The determinism axis may be varied by the caller; everything else
    # stays pinned.
    if "BF_WORKERS" in os.environ:
        pinned.pop("BF_WORKERS", None)
    env.update(pinned)
    if backend:
        env["BF_BACKEND"] = backend
    env["BF_JSON_DIR"] = out_dir
    try:
        subprocess.run([bench], env=env, check=True,
                       stdout=subprocess.DEVNULL)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"BENCH FAILED: {bench}: {err}", file=sys.stderr)
        sys.exit(EXIT_BENCH_FAILED)
    reports = [f for f in os.listdir(out_dir) if f.startswith("BENCH_")]
    if len(reports) != 1:
        print(f"BENCH FAILED: expected exactly one BENCH_*.json in "
              f"{out_dir}, got {reports}", file=sys.stderr)
        sys.exit(EXIT_BENCH_FAILED)
    return os.path.join(out_dir, reports[0])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", help="bench binary to run deterministically")
    ap.add_argument("--json", help="pre-produced BENCH_*.json to check")
    ap.add_argument("--golden",
                    help="committed golden file (required unless the "
                         "invocation is reconcile-only)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file from the produced output")
    ap.add_argument("--backend",
                    help="run the bench under BF_BACKEND=NAME; golden "
                         f"drift of a non-{REFERENCE_BACKEND} backend is "
                         f"advisory (exit {EXIT_ADVISORY_DRIFT}), not a "
                         "failure — reconcile failures stay hard")
    ap.add_argument("--reconcile", action="store_true",
                    help="check that each run's per-tenant rows sum to "
                         "its global counters bit-for-bit")
    args = ap.parse_args()
    if bool(args.bench) == bool(args.json):
        ap.error("exactly one of --bench / --json is required")
    if args.json and args.backend:
        ap.error("--backend requires --bench (it sets the bench's "
                 "BF_BACKEND)")
    if not args.golden and not args.reconcile:
        ap.error("nothing to check: give --golden, --reconcile, or both")
    if args.update and not args.golden:
        ap.error("--update requires --golden (it rewrites that file)")

    if args.bench:
        with tempfile.TemporaryDirectory() as tmp:
            produced_path = run_bench(args.bench, tmp, args.backend)
            with open(produced_path) as f:
                produced = json.load(f)
    else:
        with open(args.json) as f:
            produced = json.load(f)

    # Reconcile first: a golden should never be updated (or matched)
    # from a report whose attribution does not add up.
    if args.reconcile:
        reconcile(produced)
        if not args.golden:
            return

    if args.update:
        with open(args.golden, "w") as f:
            json.dump(produced, f, separators=(",", ":"))
            f.write("\n")
        print(f"updated {args.golden}")
        return

    with open(args.golden) as f:
        golden = json.load(f)

    advisory = args.backend and args.backend != REFERENCE_BACKEND
    problems = []
    diff("$", strip_ignored(golden), strip_ignored(produced), problems)
    if problems:
        suffix = "+" if len(problems) >= DIFF_LIMIT else ""
        kind = ("ADVISORY DRIFT" if advisory else "STAT DRIFT")
        print(f"{kind}: {len(problems)}{suffix} differing stat "
              f"paths vs {args.golden} "
              f"(- golden, + produced; first {DIFF_LIMIT} shown)")
        for path, old, new in problems:
            if old is not None:
                print(f"  - {path}: {old!r}")
            if new is not None:
                print(f"  + {path}: {new!r}")
        if advisory:
            print(f"backend {args.backend} is not the reference "
                  f"({REFERENCE_BACKEND}); drift is informational")
            sys.exit(EXIT_ADVISORY_DRIFT)
        sys.exit(EXIT_DRIFT)
    print(f"golden stats match ({args.golden})")


if __name__ == "__main__":
    main()
