"""Run a set of benchmark runs and summarise its spread.

    python3 bench/sets.py --label first --runs 10 [--workloads a,b] [--seed0 100]
    python3 bench/sets.py --compare first second

A set runs each workload --runs times, each run with its own seed, one after
the other, with the command and run length of BENCHMARK.json.  For every
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound, and it
saves the set to .bench_out/set-<label>.json.  --compare prints, per workload
and metric, how far the second set's median moved from the first one's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "q1": q1, "q3": q3, "spread": (q3 - q1) / middle if middle else 0.0}


def take_set(args, spec: dict) -> None:
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = {}
    for workload in names:
        results = []
        for i in range(args.runs):
            result = run_once(spec, workload, args.seed0 + i, 0)
            results.append(result)
            print(f"{workload} seed {args.seed0 + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        share = {r["failed"] / r["attempted"] for r in results}
        stats = {
            name: summary([r["metrics"][name]["value"] for r in results]) for name in bounds
        }
        saved[workload] = {"failed_share": sorted(share), "metrics": stats,
                           "correct": all(r["correct"] for r in results)}
        print(f"== {workload}: correct={saved[workload]['correct']} failed share={sorted(share)}")
        for name, s in stats.items():
            steady = name == "setup_s" or s["spread"] <= bounds[name] / 3
            flag = "" if steady else "  <-- over a third of the bound"
            print(f"   {name:15s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f} (bound {bounds[name]}){flag}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"set-{args.label}.json").write_text(json.dumps(saved, indent=2) + "\n")


def compare(first: str, second: str, spec: dict) -> None:
    a = json.loads((OUT_DIR / f"set-{first}.json").read_text())
    b = json.loads((OUT_DIR / f"set-{second}.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in a:
        if workload not in b:
            continue
        shares = a[workload]["failed_share"], b[workload]["failed_share"]
        print(f"== {workload}: failed share {shares[0]} vs {shares[1]}")
        for name, bound in bounds.items():
            m1, m2 = a[workload]["metrics"][name]["median"], b[workload]["metrics"][name]["median"]
            moved = (m2 - m1) / m1
            print(f"   {name:15s} {m1:.6g} -> {m2:.6g}  moved {moved:+.3f} (bound {bound})"
                  + ("  <-- worse than the bound" if moved > bound else ""))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
    elif args.label:
        take_set(args, spec)
    else:
        parser.error("give --label or --compare")
    return 0


if __name__ == "__main__":
    sys.exit(main())
