#!/usr/bin/env python3
"""Alternating before/after runs of the benchmark, kept in BENCH_<commit>.json.

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in the parent checkout and in this one, N pairs, the parent first on odd
pairs and this checkout first on even ones; T is `run_seconds` from this
checkout's BENCHMARK.json.  Every run's metrics, each side's median and
quartiles, and the pairs each end-to-end metric won go into
BENCH_<short commit of this checkout's HEAD>.json at its root, under the
workload's name; workloads already in the file are kept.  Run before the
change is committed, the file is named after the parent commit, and each
run records the `src_sha256` of the sources it measured.  perfbench is
only invoked, never edited.

Usage: python scripts/bench_pairs.py PARENT_CHECKOUT --workload W --seed S --pairs N
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    *_, summary, result = done.stdout.strip().splitlines()
    summary, result = json.loads(summary), json.loads(result)
    return {
        "commit": summary["env"]["commit"],
        "src_sha256": summary["env"]["src_sha256"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in sorted(result["metrics"].items())},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")

    bench = json.loads((HERE / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": Path(args.parent).resolve(), "change": HERE}
    runs = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args.workload, args.seed, bench["run_seconds"])
            runs.append({"pair": pair, "side": side, **run})
            print(f"pair {pair} {side}: {json.dumps(run['metrics'])}", file=sys.stderr, flush=True)

    def values(side, name):
        return [r["metrics"][name] for r in runs if r["side"] == side]

    summary = {side: {name: spread(values(side, name)) for name in better} for side in sides}
    wins = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        pairs = zip(values("parent", name), values("change", name))
        wins[name] = sum(sign * (new - old) > 0 for old, new in pairs)

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                            capture_output=True, text=True, check=True).stdout.strip()
    path = HERE / f"BENCH_{commit}.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    record[args.workload] = {
        "seed": args.seed,
        "pairs": args.pairs,
        "run_seconds": bench["run_seconds"],
        "summary": summary,
        "change_wins": wins,
        "runs": runs,
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{path.name}: {args.workload} change wins {json.dumps(wins)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
