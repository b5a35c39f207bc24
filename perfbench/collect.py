"""Run the benchmark over several seeds and summarise it as a BENCH_<tag>.json.

Usage, from the repository root:

    python3 perfbench/collect.py --tag seed --seeds 1-10 --out perfbench/BENCH_seed.json

For every workload in BENCHMARK.json this runs run.py once per seed with
tracing off, then once with tracing on at the pinned seed, where run.py
compares the work counts with the reference run's, one run at a time.  For
each end-to-end metric it records the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the inter-quartile
distance as a share of the median, next to the metric's bound.  Per-layer
metrics come from the traced run.  A run that fails or reports a wrong
answer makes the script exit non-zero after writing the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """Seeds from an inclusive range "a-b"."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: int):
    cmd = [*bench["command"], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    meta = next((json.loads(ln[5:]) for ln in lines if ln.startswith("meta ")), {})
    return meta, json.loads(lines[-1]), lines[:-1]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    pinned_seed = json.loads((HERE / "reference.json").read_text())["pinned_seed"]
    summary = {"tag": args.tag, "seeds": seeds, "run_seconds": seconds, "workloads": {}}
    all_correct = True
    for name in names:
        runs = []
        for seed in seeds:
            meta, result, _ = run_once(bench, name, seed, seconds, 0)
            summary.setdefault("meta", meta)
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.5g}" for m, v in result["metrics"].items()), flush=True)
        _, traced, notes = run_once(bench, name, pinned_seed, seconds, 1)
        entry = {
            "traced_seed": pinned_seed,
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "traced_notes": [ln for ln in notes if not ln.startswith("meta ")],
        }
        for metric in bench["end_to_end"]:
            stats = summarise([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            entry["end_to_end"][metric["name"]] = stats
            print(f"  {metric['name']}: median {stats['median']:.5g} {metric['unit']}, "
                  f"spread {stats['spread']:.4f} (bound {metric['bound']})", flush=True)
        all_correct &= entry["correct"]
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
