"""The benchmark's job mixes still get right answers.

For each workload and command of perfbench/workloads.py, the cheapest job
of the seed-0 cycle runs through `cli.run` and `render_json`, and the
parsed report must meet the job's own construction oracle (for wmc-check,
the status, the violation kinds and the graded weights).  Nothing is
timed.  The workload module is loaded by path and only read.
"""

import json

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
