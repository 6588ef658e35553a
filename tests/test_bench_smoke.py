"""The benchmark's job mixes still get right answers.

For each workload and command of perfbench/workloads.py, the cheapest job
of the seed-0 cycle runs through `cli.run` and `render_json`, and the
parsed report must meet the job's own construction oracle (for wmc-check,
the status, the violation kinds and the graded weights).  A passing
wmc-check is decided by the multiplicities of the weights and the ranks
of N^k, so the cheapest job of each failing wmc_tate variant runs too,
through the full comparison of the filtrations.  Nothing is timed.  The
workload module is loaded by path and only read.
"""

import json
import random

import pytest

from gens import load_workloads
from wmtrop import cli


def _cheapest_jobs() -> dict:
    workloads = load_workloads()
    cheapest = {}
    for name in workloads.WORKLOADS:
        for job in workloads.generate(name, 0):
            key = f"{name}:{job.command}"
            if key not in cheapest or job.cost < cheapest[key].cost:
                cheapest[key] = job
    return cheapest


CHEAPEST = _cheapest_jobs()


def test_every_workload_is_covered():
    assert {key.split(":")[0] for key in CHEAPEST} == {"wmc_tate", "weights_mix", "trop_witness"}


@pytest.mark.parametrize("key", sorted(CHEAPEST))
def test_cheapest_job_meets_its_oracle(key):
    job = CHEAPEST[key]
    report = cli.run(cli.JobSpec(job.command, job.payload))
    assert job.oracle(json.loads(cli.render_json(report))) is None, (job.rung, job.payload)


@pytest.mark.parametrize("variant", ["wrong_i", "commutation"])
def test_cheapest_failing_wmc_job_meets_its_oracle(variant):
    workloads = load_workloads()
    n, b = min(
        ((n, b) for n, b, v, _ in workloads.WMC_MIX if v == variant),
        key=lambda nb: (nb[0] + 1) * nb[1],
    )
    job = workloads._wmc_job(random.Random(0), n, b, variant)
    report = json.loads(cli.render_json(cli.run(cli.JobSpec(job.command, job.payload))))
    assert report["status"] == "fail"
    assert job.oracle(report) is None, (job.rung, job.payload)
