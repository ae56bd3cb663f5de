#!/usr/bin/env python3
"""Paired, interleaved A/B of two checkouts on the repository benchmark.

    python3 tools/ab.py BASE NEW --workload sweep --seeds 201-210 \\
        --seconds 55 [--trace 0|1] [--save ab.json]
    python3 tools/ab.py --selftest

BASE and NEW are the roots of two checkouts (e.g. a `git archive` of
the parent commit and the working tree). Both are built first
(`perfbench/run.py --selftest`); then, for each seed, the tool runs
`python3 perfbench/run.py --workload W --seed N --seconds S --trace T`
once in each checkout, alternating which side goes first, so slow
phases of the host fall on both sides alike.

For every metric BENCHMARK.json lists (end-to-end ones untraced,
per-layer ones with --trace 1) it prints each side's median and
quartiles, the median of the paired NEW/BASE ratios with a bootstrap
95% interval, how many pairs NEW won in the metric's better direction,
and whether the median moved by more than BASE's interquartile range.
It copies each side's `host:` line (seed left out), and warns when the
two sides report different machines or builds. Exits non-zero when a
run fails or reports failed operations.

--selftest checks the statistics and the parsing on canned numbers and
runs no benchmark.
"""

import argparse
import json
import os
import random
import subprocess
import sys

HOST_FIELDS = ("nproc", "affinity_cpus", "affinity_mask", "compiler",
               "build_type", "lto")
BOOTSTRAP_RESAMPLES = 2000


def quantile(xs, q):
    """Linear-interpolation quantile of a non-empty list."""
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(xs):
    return quantile(xs, 0.5)


def bootstrap_ci(xs, rng, resamples=BOOTSTRAP_RESAMPLES):
    """95% percentile-bootstrap interval of the median of xs."""
    meds = [median([rng.choice(xs) for _ in xs]) for _ in range(resamples)]
    return quantile(meds, 0.025), quantile(meds, 0.975)


def parse_seeds(text):
    """'201-210' or '1,5,9' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def parse_output(stdout):
    """run.py stdout -> (host dict without seed, result object)."""
    lines = stdout.strip().splitlines()
    host = {}
    for line in lines:
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
            host.pop("seed", None)
    return host, json.loads(lines[-1])


def summarize(metrics, base_runs, new_runs, rng):
    """One row per metric from paired result objects (same seed order)."""
    rows = []
    for m in metrics:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in base_runs]
        new = [r["metrics"][name]["value"] for r in new_runs]
        ratios = [n / b for b, n in zip(base, new) if b != 0]
        higher = m["better"] == "higher"
        wins = sum((n > b) if higher else (n < b) for b, n in zip(base, new))
        row = {
            "name": name, "unit": m["unit"], "better": m["better"],
            "base": [median(base), quantile(base, 0.25),
                     quantile(base, 0.75)],
            "new": [median(new), quantile(new, 0.25), quantile(new, 0.75)],
            "wins": wins, "pairs": len(base),
            "ratio": median(ratios) if ratios else None,
            "ratio_ci": list(bootstrap_ci(ratios, rng)) if ratios else None,
        }
        base_iqr = row["base"][2] - row["base"][1]
        row["beyond_base_iqr"] = abs(row["new"][0] - row["base"][0]) > base_iqr
        rows.append(row)
    return rows


def host_lines(runs):
    """Distinct host objects of one side, in first-seen order."""
    seen = []
    for host, _ in runs:
        if host not in seen:
            seen.append(host)
    return seen


def host_mismatch(base_hosts, new_hosts):
    """Host fields whose values differ between the two sides."""
    def values(hosts, field):
        return {json.dumps(h.get(field)) for h in hosts}
    return [f for f in HOST_FIELDS
            if values(base_hosts, f) != values(new_hosts, f)]


def fmt(v):
    return "-" if v is None else f"{v:.4g}"


def report(rows, base_hosts, new_hosts, out=sys.stdout):
    for label, hosts in (("base", base_hosts), ("new", new_hosts)):
        for h in hosts:
            print(f"host {label}: {json.dumps(h)}", file=out)
    differ = host_mismatch(base_hosts, new_hosts)
    if differ:
        print("WARNING: the sides ran on different hosts or builds "
              f"({', '.join(differ)}); the ratios compare them too",
              file=out)
    print(f"{'metric':28s} {'unit':6s} {'better':6s} "
          f"{'base median [q1, q3]':>30s} {'new median [q1, q3]':>30s} "
          f"{'new/base [95% CI]':>26s} {'wins':>6s} {'>IQR':>5s}", file=out)
    for r in rows:
        b, n = r["base"], r["new"]
        ci = r["ratio_ci"]
        ratio = (f"{fmt(r['ratio'])} [{fmt(ci[0])}, {fmt(ci[1])}]"
                 if ci else "-")
        print(f"{r['name']:28s} {r['unit']:6s} {r['better']:6s} "
              f"{fmt(b[0]) + ' [' + fmt(b[1]) + ', ' + fmt(b[2]) + ']':>30s} "
              f"{fmt(n[0]) + ' [' + fmt(n[1]) + ', ' + fmt(n[2]) + ']':>30s} "
              f"{ratio:>26s} {str(r['wins']) + '/' + str(r['pairs']):>6s} "
              f"{'yes' if r['beyond_base_iqr'] else 'no':>5s}", file=out)


def load_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_side(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab: {' '.join(cmd)} failed in {root} "
                 f"(exit {proc.returncode})")
    return parse_output(proc.stdout)


def selftest():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert median(xs) == 2.5
    assert quantile(xs, 0.25) == 1.75 and quantile(xs, 0.75) == 3.25
    assert parse_seeds("3-5,9") == [3, 4, 5, 9]

    stdout = "\n".join([
        'host: {"nproc": 4, "affinity_mask": "f", "seed": 7, "lto": true}',
        "  setup_s   0.8 s",
        '{"correct": true, "attempted": 3, "failed": 0, "metrics": '
        '{"setup_s": {"value": 0.8, "unit": "s"}}}'])
    host, result = parse_output(stdout)
    assert host == {"nproc": 4, "affinity_mask": "f", "lto": True}
    assert result["metrics"]["setup_s"]["value"] == 0.8

    def res(value):
        return {"metrics": {"setup_s": {"value": value},
                            "points_per_s": {"value": 10.0}}}
    base = [res(v) for v in (1.0, 0.9, 1.1, 1.0, 0.95)]
    new = [res(v) for v in (0.8, 0.7, 0.9, 1.05, 0.76)]
    metrics = [{"name": "setup_s", "unit": "s", "better": "lower"},
               {"name": "points_per_s", "unit": "1/s", "better": "higher"}]
    rows = summarize(metrics, base, new, random.Random(1))
    setup, points = rows
    assert setup["wins"] == 4 and setup["pairs"] == 5
    assert abs(setup["ratio"] - 0.8) < 1e-12  # ratios .8 .778 .818 1.05 .8
    lo, hi = setup["ratio_ci"]
    assert lo <= setup["ratio"] <= hi and hi <= 1.05
    assert setup["beyond_base_iqr"]  # 0.2 drop vs base IQR 0.05
    assert points["wins"] == 0 and points["ratio"] == 1.0
    assert not points["beyond_base_iqr"]
    # Same seed -> same interval.
    assert summarize(metrics, base, new, random.Random(1)) == rows

    a = {"nproc": 4, "lto": True, "rev": "x"}
    b = {"nproc": 8, "lto": True, "rev": "y"}
    assert host_mismatch([a], [dict(a, rev="y")]) == []
    assert host_mismatch([a], [b]) == ["nproc"]
    print("ab.py selftest: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?", help="root of the BASE checkout")
    parser.add_argument("new", nargs="?", help="root of the NEW checkout")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", help="e.g. 201-210 or 1,4,9")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's result here")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    if None in (args.base, args.new, args.workload, args.seeds,
                args.seconds):
        parser.error("BASE, NEW, --workload, --seeds and --seconds are "
                     "required")

    roots = {"base": os.path.abspath(args.base),
             "new": os.path.abspath(args.new)}
    for root in roots.values():
        if subprocess.run([sys.executable, "perfbench/run.py", "--selftest"],
                          cwd=root, stdout=sys.stderr).returncode != 0:
            sys.exit(f"ab: build or self-test failed in {root}")

    runs = {"base": [], "new": []}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            runs[side].append(run_side(roots[side], args.workload, seed,
                                       args.seconds, args.trace))
        print(f"ab: pair {i + 1} (seed {seed}, {order[0]} first) done",
              file=sys.stderr)

    rows = summarize(load_metrics(roots["new"], args.trace),
                     [r for _, r in runs["base"]],
                     [r for _, r in runs["new"]], random.Random(0))
    report(rows, host_lines(runs["base"]), host_lines(runs["new"]))
    bad = []
    for side, side_runs in runs.items():
        failed = sum(r["failed"] for _, r in side_runs)
        correct = all(r["correct"] for _, r in side_runs)
        print(f"{side}: {len(side_runs)} runs, correct={correct}, "
              f"{failed} failed operations")
        if failed or not correct:
            bad.append(side)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"args": vars(args), "rows": rows,
                       "runs": {s: [{"host": h, "result": r} for h, r in v]
                                for s, v in runs.items()}}, f, indent=1)
    if bad:
        sys.exit(f"ab: failed operations on {', '.join(bad)}")


if __name__ == "__main__":
    main()
