"""Repeat the benchmark and summarise it, for one checkout or a pair.

    python3 perfbench/compare.py --runs 10 .                 # one tree
    python3 perfbench/compare.py --runs 10 PARENT CHANGE     # paired

Every run is a fresh ``perfbench/run.py --trace 0`` process, for every
workload in BENCHMARK.json; this file's own copy of run.py is used in
every tree, so both sides of a comparison are measured by identical
benchmark code.  Round i uses seed ``--seed0 + i`` for every workload
and tree.  Rounds alternate the order of the workloads, and with two
trees also which tree runs first.

For each workload it prints each tree's crashed runs and ``fail_frac``
(failed over attempted operations, summed over the tree's runs), and for
each end-to-end metric the median and quartiles of each tree, with the
spread (q3 - q1) / median.  With two trees it adds the paired wins of
the second tree over the first in every round.  A round is a win only
when both runs finished, the second tree's run is correct and its value
is better; so a crashed or wrong CHANGE run counts as a loss.  The
verdict is
``FAILS`` when any CHANGE run crashed or CHANGE's ``fail_frac`` is higher
than PARENT's,
``WORSE`` when the second median is worse than the first by more than
the metric's bound in BENCHMARK.json, and
``gain`` when there are at least 10 rounds, the second tree wins at
least 9 in 10 of them, and the medians differ by more than the first
tree's quartile distance.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(tree: Path, workload: str, seed: int,
             seconds: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    got = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if got.returncode != 0:
        print(f"run failed in {tree}: {' '.join(cmd)}\n{got.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(got.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="*", type=Path, default=[Path(".")],
                   help="checkout roots; one to summarise, two to compare")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args(argv)
    if not 1 <= len(args.trees) <= 2:
        p.error("give one or two checkout roots")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"]}

    # results[workload][tree index] -> list of (seed, result) in round order
    results = {w: [[] for _ in args.trees] for w in workloads}
    for i in range(args.runs):
        seed = args.seed0 + i
        order = workloads if i % 2 == 0 else workloads[::-1]
        sides = list(range(len(args.trees)))
        if i % 2:
            sides.reverse()
        for w in order:
            for t in sides:
                res = run_once(args.trees[t], w, seed, seconds)
                results[w][t].append((seed, res))
                print(f"round {i + 1}/{args.runs} {w} seed {seed} "
                      f"{args.trees[t]}: "
                      f"{'ok' if res and res['correct'] else 'NOT CORRECT'}",
                      file=sys.stderr)

    summary = {}
    for w in workloads:
        print(f"\n== {w}")
        summary[w] = {}
        sides = results[w]
        health = []
        for t, runs in enumerate(sides):
            done = [r for _, r in runs if r is not None]
            attempted = sum(r["attempted"] for r in done)
            failed = sum(r["failed"] for r in done)
            crashed = len(runs) - len(done)
            fail_frac = failed / attempted if attempted else 1.0
            health.append({"crashed": crashed, "fail_frac": fail_frac})
            print(f"tree {t} {args.trees[t]}: {len(done)} runs, {crashed} "
                  f"crashed, fail_frac {fail_frac:.4g} ({failed}/{attempted})")
        summary[w]["health"] = health
        names = [n for n in declared
                 if any(r and n in r["metrics"] for _, r in sides[0])]
        for name in names:
            row = {"unit": declared[name]["unit"], "trees": []}
            for runs in sides:
                vals = [r["metrics"][name]["value"] for _, r in runs if r]
                q1, med, q3 = quartiles(vals)
                row["trees"].append({"median": med, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / med if med else 0.0,
                                     "n": len(vals)})
            line = f"{name:44s} {row['unit']:6s}" + "".join(
                f" | {s['median']:11.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                f"spread {s['spread']:.3f}" for s in row["trees"])
            if len(sides) == 2:
                row.update(paired(declared[name], sides, row["trees"],
                                  health))
                line += (f" | wins {row['wins']}/{row['pairs']} "
                         f"{row['verdict']}")
            print(line)
            summary[w][name] = row
    print(json.dumps(summary))
    return 0


def paired(decl: dict, sides, stats, health) -> dict:
    """Paired wins of tree 1 over tree 0 and the verdict for one metric.
    Every round is a pair; a crashed or not-correct tree-1 run, or a
    crashed tree-0 run, gives tree 1 no win."""
    name = decl["name"]
    sign = 1 if decl["better"] == "higher" else -1
    wins = pairs = 0
    for (_, r0), (_, r1) in zip(*sides):
        pairs += 1
        if r0 is None or r1 is None or not r1["correct"]:
            continue
        diff = sign * (r1["metrics"][name]["value"]
                       - r0["metrics"][name]["value"])
        wins += diff > 0
    a, b = stats
    worse = -sign * (b["median"] - a["median"]) / a["median"] \
        if a["median"] else 0.0
    verdict = "-"
    if health[1]["crashed"] or health[1]["fail_frac"] > health[0]["fail_frac"]:
        verdict = "FAILS"
    elif worse > decl["bound"]:
        verdict = "WORSE"
    elif pairs >= 10 and wins >= 0.9 * pairs and \
            abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        verdict = "gain"
    return {"wins": wins, "pairs": pairs, "worse_by": worse,
            "verdict": verdict}


if __name__ == "__main__":
    sys.exit(main())
