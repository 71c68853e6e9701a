#!/usr/bin/env python3
"""Steadiness check for the KV-stack benchmark.

Runs every workload of BENCHMARK.json in two independent sets of ten
end-to-end runs (seeds 1-10 and 11-20, run length run_seconds) and prints,
per (workload, metric), each set's median and quartiles, the spread between
the quartiles as a share of the median, and the set-to-set difference of
the medians as a share of the first set's median. A spread must stay within
its metric's bound (setup_s is exempt) and a median must not worsen from
one set to the next by more than the bound.

Run from the root of the source tree:

    python3 kvbench/steady.py [results.json]

The raw results are saved to the named file (default
.bench_build/steady.json).
"""

import json
import statistics
import subprocess
import sys
import time

SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = ["bash", "kvbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["wall_s"] = wall
    res["seed"] = seed
    return res


def report(bench, sets):
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [s[wl] for s in sets]
        fa = ", ".join("%d/%d" % (sum(x["failed"] for x in r), sum(x["attempted"] for x in r)) for r in runs)
        wall = max(x["wall_s"] for r in runs for x in r)
        print(f"\n== {wl}  (failed/attempted per set: {fa}; max wall {wall:.1f}s)")
        print(f"{'metric':<20} {'unit':<10} " + " ".join(
            f"{'set' + str(i + 1) + ' q1':>12} {'median':>12} {'q3':>12} {'spread':>7}" for i in range(len(runs)))
            + f" {'diff':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            cells, meds, spreads = [], [], []
            for r in runs:
                q1, q2, q3 = statistics.quantiles([x["metrics"][name]["value"] for x in r], n=4)
                spreads.append((q3 - q1) / q2)
                meds.append(q2)
                cells.append(f"{q1:>12.4g} {q2:>12.4g} {q3:>12.4g} {spreads[-1]:>7.1%}")
            verdict = "ok"
            if name != "setup_s" and max(spreads) > m["bound"] / 3:
                verdict = "spread>bound/3"
            if name != "setup_s" and max(spreads) > m["bound"]:
                verdict, ok = "SPREAD>BOUND", False
            d = (meds[1] - meds[0]) / meds[0]
            if (d if m["better"] == "lower" else -d) > m["bound"]:
                verdict, ok = "DRIFT>BOUND", False
            print(f"{name:<20} {m['unit']:<10} " + " ".join(cells) + f" {d:>+7.1%} {m['bound']:>6.2f}  {verdict}")
        shares = {sum(x["failed"] for x in r) / sum(x["attempted"] for x in r) for r in runs}
        if len(shares) > 1:
            print("failed share differs between sets")
            ok = False
        if not all(x["correct"] for r in runs for x in r):
            print("a run reported correct=false")
            ok = False
    return ok


def main():
    save = sys.argv[1] if len(sys.argv) > 1 else ".bench_build/steady.json"
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    sets = []
    for s in range(SETS):
        cur = {n: [] for n in names}
        for i in range(RUNS):
            for n in names:  # interleaved, so slow drift of the host hits every workload alike
                seed = 1 + s * RUNS + i
                res = run_once(n, seed, bench["run_seconds"])
                cur[n].append(res)
                print(f"set {s + 1} run {i + 1} {n} seed {seed}: wall {res['wall_s']:.1f}s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                      flush=True)
        sets.append(cur)
        with open(save, "w") as f:
            json.dump(sets, f)
    raise SystemExit(0 if report(bench, sets) else 1)


if __name__ == "__main__":
    main()
