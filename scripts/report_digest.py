#!/usr/bin/env python3
"""One sha256 over every benchmark job's report bytes and exit code.

Runs each job of each workload in perfbench/workloads.py, at the given
seeds, through `wmtrop.cli.run` and `render_json`, and prints the job
count and one digest over the rendered reports and exit codes.  A second
line gives one digest over `render_text` of the same reports, the text
format.  Two checkouts that print the same lines produce the same bytes on
every job, so a refactor that must not change a report can be checked
against a clone of its parent commit.

Every report is also rendered by the oracle `json.dumps(report.to_dict(),
sort_keys=True, indent=2) + "\n"`; if those bytes differ from
`render_json`'s on any job, the script names the first such job and exits 1.

The job list always comes from this checkout's perfbench/workloads.py,
loaded by path and only read; `wmtrop` is imported from CHECKOUT/src.

Usage: python scripts/report_digest.py [CHECKOUT] [--seeds 0 1 2]
"""

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", HERE / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", default=str(HERE), help="repository to import wmtrop from")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args(argv)

    src = Path(args.checkout).resolve() / "src"
    sys.path.insert(0, str(src))
    from wmtrop import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported wmtrop from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    digest, text_digest = hashlib.sha256(), hashlib.sha256()
    count = 0
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            for index, job in enumerate(workloads.generate(name, seed)):
                report = cli.run(cli.JobSpec(job.command, job.payload))
                text = cli.render_json(report)
                if text != json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n":
                    print(f"error: render_json differs from json.dumps on {name} seed {seed} "
                          f"job {index} ({job.command}, rung {job.rung})", file=sys.stderr)
                    return 1
                digest.update(f"{report.exit_code}\n".encode())
                digest.update(text.encode())
                text_digest.update(cli.render_text(report).encode())
                count += 1
    print(f"{count} jobs, sha256 {digest.hexdigest()}")
    print(f"text format, sha256 {text_digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
