"""Steadiness check: the whole benchmark as two sets of runs of the same code.

Run from the root of a checkout:

    python3 perfbench/steady.py

Each set runs every workload of ``BENCHMARK.json`` once per seed in
``SEEDS`` with ``--trace 0``, one run at a time, for ``run_seconds``.  For
every end-to-end metric and workload it prints each set's median and
quartiles, the spread (quartile distance over median) and the drift of
the second median against the first (positive when worse), both against
the metric's bound.  The benchmark is steady when every spread and the
size of every drift stay within the bound, every run is correct with no
failed operation, and the failed share is the same in both sets.  The
figures also go to ``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace0.json")
    with open(record, encoding="utf-8") as handle:
        result["raw_metrics"] = json.load(handle)["raw_metrics"]
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]

    sets = []
    for s in range(2):
        results = {}
        for workload in names:
            results[workload] = []
            for seed in SEEDS:
                results[workload].append(run_once(spec, workload, seed))
                print(f"set {s + 1} {workload} seed {seed} done", file=sys.stderr, flush=True)
        sets.append(results)

    report, steady = {}, True
    print(f"{'workload':<14} {'metric':<12} {'set':<4} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'raw':>7} {'drift':>7} {'bound':>6}  verdict")
    for workload in names:
        runs = [r for rs in sets for r in rs[workload]]
        incorrect = sum(1 for r in runs if not r["correct"])
        failed = sum(r["failed"] for r in runs)
        shares = [sum(r["failed"] for r in rs[workload]) / sum(r["attempted"] for r in rs[workload])
                  for rs in sets]
        report[workload] = {"failed_share": shares, "incorrect_runs": incorrect, "metrics": {}}
        steady = steady and incorrect == 0 and failed == 0 and shares[0] == shares[1]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in rs[workload]]) for rs in sets]
            raw = [summary([r["raw_metrics"][name]["value"] for r in rs[workload]]) for rs in sets]
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            ok = all(st["spread"] <= bound for st in stats) and abs(drift) <= bound
            steady = steady and ok
            report[workload]["metrics"][name] = {
                "sets": stats, "raw_sets": raw, "drift": drift, "bound": bound, "ok": ok
            }
            for i, st in enumerate(stats):
                tail = f"{drift:>7.3f} {bound:>6.2f}  {'ok' if ok else 'NOT STEADY'}" if i else ""
                print(f"{workload:<14} {name:<12} {i + 1:<4} {st['median']:>11.4f} {st['q1']:>11.4f} "
                      f"{st['q3']:>11.4f} {st['spread']:>7.3f} {raw[i]['spread']:>7.3f} {tail}")
        print(f"{workload:<14} incorrect runs: {incorrect}, failed operations: {failed}, "
              f"failed share per set: {shares}")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "steady.json"), "w", encoding="utf-8") as handle:
        json.dump({"seeds": list(SEEDS), "report": report, "runs": sets}, handle, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
