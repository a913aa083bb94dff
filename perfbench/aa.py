#!/usr/bin/env python3
"""A/A steadiness check for the ppm benchmark.

    python3 perfbench/aa.py run --workload <name> --seeds 1-10 --out <file.json>
    python3 perfbench/aa.py compare <set-a.json> <set-b.json>
    python3 perfbench/aa.py table <set.json>...

`run` measures one workload once per seed with the settings of
BENCHMARK.json (untraced) and stores every result with the machine's
steal time. For each end-to-end metric it prints the median and the
spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound.

`table` prints one markdown row per set and metric (median, spread,
bound, and the set's steal time as a share of all CPU time) for
STEADINESS.md.

`compare` takes two sets of the same workload, measured at different
times, and prints each metric's second median against the first as a
share of the first, next to the bound in the direction the metric
worsens.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def steal_ticks():
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def run_set(args):
    bench = load_bench()
    results = []
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds or bench["run_seconds"]), "--trace", "0",
        ]
        steal = steal_ticks()
        start = time.time()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.time() - start
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        record = lines[-2] if len(lines) > 1 else ""
        results.append({
            "seed": seed, "wall_s": wall, "steal_ticks": steal_ticks() - steal,
            "unix_s": int(start), "record": record, "result": result,
        })
        print(f"seed {seed}: {wall:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    doc = {"workload": args.workload, "results": results}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    summarize(doc, bench)


def values(doc, name):
    return [r["result"]["metrics"][name]["value"] for r in doc["results"]]


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else 0.0


def summarize(doc, bench):
    print(f"\n{doc['workload']}: {len(doc['results'])} runs")
    print(f"{'metric':<22} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for m in bench["end_to_end"]:
        med, sp = spread(values(doc, m["name"]))
        flag = "" if m["name"] == "setup_s" or sp < m["bound"] / 3 else "  <-- over bound/3"
        print(f"{m['name']:<22} {med:>14.6g} {sp:>8.4f} {m['bound']:>6} {m['bound'] / 3:>8.4f}{flag}")


def compare(args):
    bench = load_bench()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    print(f"{a['workload']}: second median vs first")
    for m in bench["end_to_end"]:
        ma = statistics.median(values(a, m["name"]))
        mb = statistics.median(values(b, m["name"]))
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        flag = "" if worse <= m["bound"] else "  <-- worse than bound"
        print(f"{m['name']:<22} {ma:>14.6g} {mb:>14.6g} worse by {worse:+.4f} (bound {m['bound']}){flag}")


def steal_pct(doc):
    """Steal time over the set as a share of all CPU time, in percent."""
    ticks = sum(r["steal_ticks"] for r in doc["results"])
    cpu = sum(r["wall_s"] for r in doc["results"]) * os.cpu_count() * os.sysconf("SC_CLK_TCK")
    return 100.0 * ticks / cpu


def table(args):
    bench = load_bench()
    print("| set | workload | taken (UTC) | metric | median | spread | bound | steal |")
    print("|---|---|---|---|---|---|---|---|")
    for path in args.sets:
        with open(path) as f:
            doc = json.load(f)
        starts = [r["unix_s"] for r in doc["results"]]
        taken = "–".join(time.strftime("%H:%M", time.gmtime(t)) for t in (min(starts), max(starts)))
        for m in bench["end_to_end"]:
            med, sp = spread(values(doc, m["name"]))
            print(f"| {os.path.basename(path)} | {doc['workload']} | {taken} | {m['name']} | "
                  f"{med:.6g} | {sp:.4f} | {m['bound']} | {steal_pct(doc):.2f}% |")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    t = sub.add_parser("table")
    t.add_argument("sets", nargs="+")
    args = parser.parse_args()
    {"run": run_set, "compare": compare, "table": table}[args.cmd](args)


if __name__ == "__main__":
    main()
