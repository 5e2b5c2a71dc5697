"""Run alternating benchmark pairs on two source trees and summarise them.

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload mesh3d-graph-train --seed 21 --pairs 10 --out BENCH_x.json

`--parent` and `--change` are two source trees, each with its own `src/`
and `benchmarks/`: say, a checkout of the parent commit (`git worktree add`
or an unpacked `git archive`) and the working tree. Pair k runs
`python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0` in
each tree, T being `BENCHMARK.json`'s `run_seconds`, the parent first when k is even and the change first when it is
odd. For each end-to-end metric of `BENCHMARK.json` (read from the change's
tree) it prints both sides' medians, the parent's interquartile range (its
run-to-run spread) and the pairs the change won, ties counting for neither;
the wall seconds the benchmark prints beside its `ref` timings and the
failed-operation ratio are reported the same way. It then runs
`tools/epoch_faults.py` once in each tree to count the faults per epoch.

Every run, the summary and the fault counts are appended as one set to the
`sets` list of `--out`, which is created if missing, so one file can collect
several workloads and seeds. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# printed by the benchmark beside the bounded metrics: wall seconds and the
# failed-operation ratio, summarised alike but bounded by nothing
EXTRA = (("epoch_s.p50", "lower"), ("epoch_s.tail", "lower"),
         ("predict_ms.p50", "lower"), ("setup_wall_s", "lower"),
         ("failed_ratio", "lower"))


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: every printed metric by name, its JSON
    result, and the environment line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark failed in {tree} (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    printed, env = {}, None
    for line in lines:
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ", 1)
            printed[name] = float(rest.split()[0])
        elif line.startswith("env "):
            env = json.loads(line[len("env "):])
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update({k: printed[k] for k, _ in EXTRA if k in printed})
    return {"values": values, "failed": result["failed"], "attempted": result["attempted"],
            "env": env}


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(runs: dict, metrics) -> dict:
    """Per metric: medians, quartile spread, the change's wins over the
    pairs, and whether the gap between the medians exceeds the parent's
    interquartile range."""
    out = {}
    for name, better in metrics:
        parent = [r["values"][name] for r in runs["parent"]]
        change = [r["values"][name] for r in runs["change"]]
        p50, c50 = statistics.median(parent), statistics.median(change)
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        spread = iqr(parent)
        out[name] = {"parent_median": p50, "change_median": c50,
                     "change_pct": 100.0 * (c50 / p50 - 1.0) if p50 else None,
                     "parent_iqr": spread, "change_iqr": iqr(change),
                     "wins": wins, "pairs": len(parent),
                     "gap_exceeds_parent_iqr": abs(c50 - p50) > spread}
    return out


def report(summary: dict) -> list[str]:
    lines = [f"{'metric':18} {'parent':>11} {'change':>11} {'change%':>8} "
             f"{'parent IQR':>11} {'wins':>6}  gap>IQR"]
    for name, s in summary.items():
        pct = "" if s["change_pct"] is None else f"{s['change_pct']:+.2f}"
        lines.append(f"{name:18} {s['parent_median']:11.5g} {s['change_median']:11.5g} "
                     f"{pct:>8} {s['parent_iqr']:11.4g} {s['wins']:>3}/{s['pairs']:<2}  "
                     f"{'yes' if s['gap_exceeds_parent_iqr'] else 'no'}")
    return lines


def run_faults(tree: Path, script: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(script), "--root", str(tree), "--workload", workload,
         "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", default=".", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]] + list(EXTRA)

    runs = {side: [] for side in SIDES}
    order = []
    for k in range(args.pairs):
        first = SIDES if k % 2 == 0 else SIDES[::-1]
        order.append(list(first))
        for side in first:
            runs[side].append(run_benchmark(trees[side], args.workload, args.seed, seconds))
            print(f"pair {k} {side}: " + ", ".join(
                f"{name} {runs[side][-1]['values'][name]:.5g}" for name, _ in metrics),
                flush=True)

    summary = summarise(runs, metrics)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    print("\n".join(report(summary)))
    record = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
              "seconds": seconds, "trees": {"parent": str(args.parent),
                                            "change": str(args.change)},
              "order": order, "summary": summary,
              "runs": {side: [{"values": r["values"], "failed": r["failed"],
                               "attempted": r["attempted"]} for r in runs[side]]
                       for side in SIDES},
              "env": runs["change"][0]["env"]}
    script = Path(__file__).resolve().with_name("epoch_faults.py")
    record["faults"] = {side: run_faults(trees[side], script, args.workload, args.seed)
                        for side in SIDES}
    for side in SIDES:
        f = record["faults"][side]
        print(f"{side}: minor faults per epoch {f['minor_faults']} "
              f"(median after the first: {f['minor_faults_per_epoch_median']:g})")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"sets": []}
    doc["sets"].append(record)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
