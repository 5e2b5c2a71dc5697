"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload chain-node-train --seed 1 --seconds 60 --trace 0

Passes run in a closed loop (one client; the next pass starts when the
previous one ends) for about --seconds: a pass starts only if half of the
last pass's time still fits. At least two run, so the results of one seed
can be compared. With --trace 0 the last line of output holds the
end-to-end metrics; with --trace 1 passes alternate between plain and
traced, and the last line holds the per-layer metrics of the traced passes.
The lines before it give the environment, every end-to-end metric of the
plain passes under its workload's own name, and with --trace 1 the tracing
overhead and the epoch split.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chain-node-train", "mesh3d-graph-train", "mesh3d-node-eval")
MIN_PASSES = 2
# no new pass starts after this, so a run ends well within three minutes
PASS_DEADLINE_S = 120.0

# (metric, unit, better, bound): the end-to-end metrics of every workload.
# A "ref" timing is the sample's time over the time of the benchmark's fixed
# reference work measured around it (workloads.Reference), so a drift of the
# host's speed cancels; the seconds are printed beside it. setup_s is the
# set-up's "ref" times Reference.NOMINAL_S, in seconds at a fixed speed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("epoch_ref.p50", "ref", "lower", 0.25),
    ("epoch_ref.tail", "ref", "lower", 0.25),
    ("predict_ref.p50", "ref", "lower", 0.25),
    ("predict_ref.tail", "ref", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# ROADMAP "Baseline" epoch split of the criterion-10 node-level config, percent
ROADMAP_SPLIT = {"processor_edge": 35.0, "processor_node": 18.0, "adam": 12.0,
                 "encoders": 11.0, "decoders": 5.0, "merge_batch": 1.0}


def tail(samples) -> tuple[float, float]:
    """(percentile, value) of the highest order statistic with at least ten
    samples above it, capped at p90 and floored at the median. Above p90 the
    1000+ per-graph calls of a run leave the tail to a few calls that other
    tenants of the machine slowed, and it varied by over a quarter from run
    to run."""
    n = len(samples)
    p = min(90.0, 100.0 * (n - 11) / (n - 1)) if n > 11 else 50.0
    p = max(p, 50.0)
    return p, float(np.percentile(samples, p))


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "OMP_THREAD_LIMIT"},
    }


def end_to_end(outcomes) -> tuple[dict, dict]:
    """(every end-to-end value printed, by name and unit; notes: sample counts
    and tail percentiles). The END_TO_END ones go into the JSON result."""
    from workloads import Reference

    metrics, notes = {}, {}
    setups = [t for o in outcomes for t in o.setup_ref]
    metrics["setup_s"] = (statistics.median(setups) * Reference.NOMINAL_S, "s")
    notes["setup_s"] = (f"median of {len(setups)} set-ups, at a reference time of "
                        f"{Reference.NOMINAL_S} s")
    metrics["setup_wall_s"] = (statistics.median(t for o in outcomes for t in o.setup_s), "s")
    for name, unit in (("epoch_ref", "ref"), ("epoch_s", "s"),
                       ("predict_ref", "ref"), ("predict_ms", "ms")):
        samples = [t for o in outcomes for t in getattr(o, name)]
        p, value = tail(samples)
        metrics[f"{name}.p50"] = (statistics.median(samples), unit)
        metrics[f"{name}.tail"] = (value, unit)
        notes[f"{name}.p50"] = f"n={len(samples)}"
        notes[f"{name}.tail"] = f"p{p:.1f} of n={len(samples)}"
    metrics["graphs_per_s"] = (sum(o.graphs for o in outcomes)
                               / sum(o.work_s for o in outcomes), "graphs/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def report_lines(workload: str, metrics: dict, notes: dict, outcomes,
                 attempted: int, failed: int) -> list[str]:
    """Every end-to-end metric under the name its workload gives it."""
    train = workload.endswith("-train")
    rename = {} if train else {"epoch_ref.p50": "pass_ref.p50", "epoch_ref.tail": "pass_ref.tail",
                               "epoch_s.p50": "pass_s.p50", "epoch_s.tail": "pass_s.tail"}
    rename["graphs_per_s"] = "train_graphs_per_s" if train else "eval_graphs_per_s"
    lines = [f"metric {rename.get(k, k)} = {v['value']:.6g} {v['unit']}"
             + (f"  ({notes[k]})" if k in notes else "") for k, v in metrics.items()]
    # printed without a bound: their spread across seeds is too wide for one
    featurize = [t for o in outcomes for t in o.featurize_s]
    lines.append(f"metric featurize_s = {statistics.median(featurize):.6g} s  "
                 f"(median of {len(featurize)})")
    eps = outcomes[0].eps_r_pct
    what = ("pooled graph eps_R, held-out" if workload == "mesh3d-graph-train"
            else "median node eps_R, " + ("held-out" if train else "eval set"))
    lines.append(f"metric eps_r_pct = {eps:.6g} %  ({what}; identical in every pass)")
    lines.append(f"metric failed_ratio = {failed / attempted:.6g} ratio  "
                 f"({failed} of {attempted} operations)")
    return lines


def split_lines(split: dict) -> list[str]:
    lines = []
    for part, stated in ROADMAP_SPLIT.items():
        got = split.get(part, 0.0)
        verdict = "agrees" if abs(got - stated) <= max(0.2 * stated, 1.0) else "DISAGREES"
        lines.append(f"split {part} = {got:.1f}% of epoch; ROADMAP baseline "
                     f"{'<' if part == 'merge_batch' else ''}{stated:g}%: {verdict}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; returns lines to print, the JSON result and the tracer."""
    from tracing import Tracer
    from workloads import Reference, workloads

    wl = workloads(smoke)[workload]
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_tmp"))
    tracer = Tracer() if trace else None
    reference = Reference()
    plain, traced_passes = [], []
    first_result = None
    attempted = failed = passes = 0
    try:
        inputs = wl.prepare(seed, workdir)
        reference.time()            # warm-up
        start = time.perf_counter()
        last = 0.0
        while passes < MIN_PASSES or time.perf_counter() - start + last / 2 < seconds:
            if time.perf_counter() - start > PASS_DEADLINE_S:
                break
            traced = trace and passes % 2 == 1
            passes += 1
            began = time.perf_counter()
            try:
                if traced:
                    with tracer.installed(), tracer.span("bench.pass"):
                        out = wl.run_pass(inputs, reference)
                else:
                    out = wl.run_pass(inputs, reference)
            except Exception:
                traceback.print_exc()
                attempted += 1
                failed += 1
                continue
            finally:
                last = time.perf_counter() - began
            for problem in out.problems:
                print(f"check failed: {problem}", file=sys.stderr)
            attempted += out.attempted
            failed += out.failed
            if first_result is None:
                first_result = out.result
            else:
                attempted += 1
                if out.result != first_result:
                    failed += 1
                    print("check failed: pass differs from the first pass of this seed",
                          file=sys.stderr)
            (traced_passes if traced else plain).append(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"tracer": tracer, "lines": []}
    if not plain or (trace and not traced_passes):
        return result
    # end-to-end numbers come from plain passes only
    printed, notes = end_to_end(plain)
    result["lines"] = report_lines(workload, printed, notes, plain, attempted, failed)
    metrics = {name: printed[name] for name, _, _, _ in END_TO_END}
    if trace:
        traced_epoch = statistics.median(t for o in traced_passes for t in o.epoch_ref)
        overhead = 100.0 * (traced_epoch / metrics["epoch_ref.p50"]["value"] - 1.0)
        metrics = tracer.per_layer(len(traced_passes))
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        result["lines"].append(
            f"tracing overhead = {overhead:.2f}% on the median epoch/pass "
            f"({len(traced_passes)} traced vs {len(plain)} plain passes)")
        if workload.endswith("-train"):
            result["lines"] += split_lines(tracer.epoch_split())
    result["json"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gnnsurrogate" / "__init__.py").is_file():
        print(f"no gnnsurrogate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    env = environment()
    print("env " + json.dumps(env), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if "json" not in result:
        print("no pass completed", file=sys.stderr)
        return 1
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"environment": env,
                                    "spans": result["tracer"].dump()}))
        print(f"spans written to {path.relative_to(ROOT)}")
    for line in result["lines"]:
        print(line)
    print(json.dumps(result["json"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
