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

Each end-to-end metric also gets a verdict, kept in the record and
printed:
- `claim_met`: the change won at least 9/10 of the pairs (ties count for
  neither side) and its median beats the parent's by more than the
  parent's interquartile range;
- `within_bound`: the change's median is no worse than the parent's by
  more than the metric's `bound` in BENCHMARK.json, a fraction of the
  parent's median.

A run that exits non-zero stops the series: the pairs completed before it
are still summarised and written, the failed run is recorded with its exit
code and the tail of its stderr, and the script exits 1.

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
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        return {"exit_code": done.returncode, "stderr_tail": done.stderr.splitlines()[-20:]}
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
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"parent": Path(args.parent).resolve(), "change": HERE}
    runs, failed = [], None
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args.workload, args.seed, bench["run_seconds"])
            if "exit_code" in run:
                failed = {"pair": pair, "side": side, **run}
                print(f"pair {pair} {side}: exit code {run['exit_code']}", file=sys.stderr)
                print("\n".join(run["stderr_tail"]), file=sys.stderr)
                break
            runs.append({"pair": pair, "side": side, **run})
            print(f"pair {pair} {side}: {json.dumps(run['metrics'])}", file=sys.stderr, flush=True)
        if failed:
            break
    complete = failed["pair"] - 1 if failed else args.pairs  # only whole pairs are compared

    def values(side, name):
        return [r["metrics"][name] for r in runs if r["side"] == side and r["pair"] <= complete]

    summary, wins, claim_met, within_bound = {}, {}, {}, {}
    if complete >= 2:
        summary = {side: {name: spread(values(side, name)) for name in metrics} for side in sides}
        for name, metric in metrics.items():
            sign = 1 if metric["better"] == "higher" else -1
            pairs = zip(values("parent", name), values("change", name))
            wins[name] = sum(sign * (new - old) > 0 for old, new in pairs)
            old, new = summary["parent"][name], summary["change"][name]
            gain = sign * (new["median"] - old["median"])  # positive when the change is better
            claim_met[name] = wins[name] >= 0.9 * complete and gain > old["q3"] - old["q1"]
            within_bound[name] = gain >= -metric["bound"] * abs(old["median"])

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                            capture_output=True, text=True, check=True).stdout.strip()
    path = HERE / f"BENCH_{commit}.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    record[args.workload] = {
        "seed": args.seed,
        "pairs": complete,
        "run_seconds": bench["run_seconds"],
        "summary": summary,
        "change_wins": wins,
        "claim_met": claim_met,
        "within_bound": within_bound,
        "runs": runs,
    }
    if failed:
        record[args.workload]["failed_run"] = failed
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{path.name}: {args.workload}, {complete} pairs, change wins {json.dumps(wins)}")
    print(f"claim_met {json.dumps(claim_met)}")
    print(f"within_bound {json.dumps(within_bound)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
