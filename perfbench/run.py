"""End-to-end and per-layer benchmark of the wmtrop CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wmc_tate --seed 1 --seconds 30 --trace 0

The workload's jobs are generated from the seed (see workloads.py) and
driven through `wmtrop.cli.run` plus `render_json` in this process, one
job at a time (a closed loop with one client, no threads), in whole
cycles over the job list until `--seconds` have passed.  Fresh
`python -m wmtrop.cli` processes, one at a time, give the cold start.
Every time is in reference seconds of speed.py: the benchmark pins itself
to one CPU and scales each timed interval by the speed a probe measured
on that CPU while it ran, so that a change of host speed does not show.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced cycles and prints the per-layer metrics.  Every report is
checked against its construction oracle, and every repeat of a job must
render the same bytes.  The last line of stdout is the result object; a
summary with the environment, the tail percentile and its sample count,
and per-rung medians goes to the line before it and to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe, pin_to_one_cpu
from tracer import TOP_CALL, Tracer
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
COLD_STARTS = 20
RERUN_SAMPLE = 3
TAIL_PERCENTILES = (99.9, 99.0, 90.0)  # the highest one with >= 10 samples beyond it wins
MIN_SAMPLES = 120  # so that p90 has at least 12 samples beyond it, however slow the host


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(k)]


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest tail percentile with ten samples beyond it."""
    values = sorted(latencies)
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            return p, _percentile(values, p)
    return 50.0, statistics.median(values)


class Runner:
    """Runs jobs through the CLI layer and checks every report."""

    def __init__(self, cli, jobs, probe: SpeedProbe):
        self.cli = cli
        self.jobs = jobs
        self.probe = probe
        self.first: dict[int, str] = {}  # rendered bytes of each job's first run
        self.digest: dict[int, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []  # reference seconds
        self.cycles: list[list[float]] = []  # per-cycle latencies, in job order
        self.busy = 0.0  # summed net (wall) job time of all cycles
        self.rung_latencies: dict[str, list[float]] = {}

    def run_job(self, idx: int, tracer=None) -> tuple[float, float]:
        """Runs one job; returns its (net, reference) seconds."""
        job = self.jobs[idx]
        if tracer is not None:
            tracer.top_name, tracer.top_rung = TOP_CALL.get(job.command), job.rung
        self.attempted += 1
        mark = self.probe.mark()
        try:
            text = self.cli.render_json(self.cli.run(self.cli.JobSpec(job.command, job.payload)))
        except Exception:  # a crash is a counted failure, never the end of the run
            elapsed = self.probe.since(mark)
            self.failures.append(f"{job.command} {job.rung}: {traceback.format_exc(limit=3)}")
            return elapsed
        elapsed = self.probe.since(mark)
        digest = hashlib.blake2b(text.encode()).digest()
        if idx not in self.digest:
            self.digest[idx] = digest
            self.first[idx] = text
        elif digest != self.digest[idx]:
            self.failures.append(f"{job.command} {job.rung}: different bytes on a re-run")
        return elapsed

    def cycle(self, tracer=None, after_job=None) -> tuple[float, float]:
        """One pass over the job list; returns its summed (net, reference) job time."""
        self.cycles.append([])
        net_sum = 0.0
        for idx in range(len(self.jobs)):
            net, ref = self.run_job(idx, tracer)
            self.latencies.append(ref)
            self.cycles[-1].append(ref)
            self.rung_latencies.setdefault(self.jobs[idx].rung, []).append(ref)
            net_sum += net
            self.busy += net
            if after_job is not None:
                after_job()
        return net_sum, sum(self.cycles[-1])

    def check_oracles(self) -> None:
        """Check each job's first report against its oracle (repeats match it byte for byte)."""
        for idx, text in self.first.items():
            job = self.jobs[idx]
            reason = job.oracle(json.loads(text))
            if reason is not None:
                self.failures.append(f"{job.command} {job.rung}: {reason}")


def _warm_up(cli, jobs, probe: SpeedProbe) -> Runner:
    """Untimed pass over the cheapest job of each command."""
    cheapest = {}
    for idx, job in enumerate(jobs):
        if job.command not in cheapest or job.cost < jobs[cheapest[job.command]].cost:
            cheapest[job.command] = idx
    runner = Runner(cli, jobs, probe)
    for idx in cheapest.values():
        runner.run_job(idx)
    runner.check_oracles()
    return runner


class ColdStart:
    """Fresh `python -m wmtrop.cli` processes on one job, one at a time; stdout is checked."""

    def __init__(self, cli, job, probe: SpeedProbe):
        self.probe = probe
        report = cli.run(cli.JobSpec(job.command, job.payload))
        self.expected, self.code = cli.render_json(report), report.exit_code
        self.argv = [sys.executable, "-m", "wmtrop.cli", job.command, "--json", json.dumps(job.payload)]
        self.times: list[float] = []  # reference seconds
        self.net_times: list[float] = []
        self.failures: list[str] = []
        self.spawn()  # untimed: warms the file cache
        self.times.clear()
        self.net_times.clear()

    def spawn(self) -> None:
        mark = self.probe.mark()
        proc = subprocess.run(self.argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
        net, ref = self.probe.since(mark)
        self.net_times.append(net)
        self.times.append(ref)
        if proc.stdout != self.expected or proc.returncode != self.code:
            self.failures.append(f"cold start: exit {proc.returncode}, stdout differs from in-process")


def _import_seconds(probe: SpeedProbe) -> float:
    """Reference time to import wmtrop.cli in a fresh interpreter, measured
    inside it and scaled by the speed the probe saw while it ran."""
    code = "import time; t = time.perf_counter(); import wmtrop.cli; print(time.perf_counter() - t)"
    mark = probe.mark()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout) * probe.rate(mark)


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))


def _commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read from files, not git)."""
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


def _quartiles_ms(values: list[float]) -> list[float]:
    return [q * 1000 for q in statistics.quantiles(values, n=4)]


def _environment(seed: int, nproc: int, cpu: int) -> dict:
    import mpmath

    digest = hashlib.sha256()
    for path in sorted((SRC / "wmtrop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "machine": platform.machine(),
    }


def _rung_medians(samples: dict[str, list[float]], scale: float) -> dict[str, float]:
    def size(rung: str) -> tuple[str, int]:
        head = rung.rstrip("0123456789")
        return head, int(rung[len(head) :] or 0)

    return {r: statistics.median(v) * scale for r, v in sorted(samples.items(), key=lambda kv: size(kv[0]))}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "wmtrop" / "cli.py").is_file():
        print(f"error: no wmtrop sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # build: byte-compile once, untimed, so that neither set-up nor cold start pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "wmtrop")], check=True, timeout=120)
    sys.path.insert(0, str(SRC))

    from wmtrop import cli

    if Path(cli.__file__).resolve().parent != SRC / "wmtrop":
        print(f"error: imported wmtrop from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    probe = SpeedProbe()
    probe.start()
    try:
        imports, setups = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(_import_seconds(probe))
            mark = probe.mark()
            jobs = generate(args.workload, args.seed)
            warm = _warm_up(cli, jobs, probe)
            setups.append(probe.since(mark)[1])
        setup_s = statistics.median(imports) + statistics.median(setups)

        runner = Runner(cli, jobs, probe)
        summary: dict = {"workload": args.workload, "trace": args.trace, "env": _environment(args.seed, nproc, cpu)}
        if args.trace:
            metrics = _traced_pass(runner, args.seconds, summary)
        else:
            cold = ColdStart(cli, min(jobs, key=lambda j: j.cost), probe)
            metrics = _timed_pass(runner, cold, args.seconds, summary)
            runner.failures += cold.failures
            runner.attempted += len(cold.times) + 1
            metrics["setup_s"] = (setup_s, "s")
        summary.update(setup_s=setup_s, import_s_samples=imports, generate_and_warm_up_s_samples=setups)

        # re-run a seeded sample of the cheaper jobs: the bytes must not change
        cheap = sorted(range(len(jobs)), key=lambda i: jobs[i].cost)[: max(1, len(jobs) // 2)]
        for idx in random.Random(args.seed).sample(cheap, min(RERUN_SAMPLE, len(cheap))):
            runner.run_job(idx)
    finally:
        probe.stop()
    runner.check_oracles()
    summary["probe_ms"] = _quartiles_ms(probe.durations)

    attempted = runner.attempted + warm.attempted
    failures = warm.failures + runner.failures
    summary["fail_frac"] = len(failures) / attempted
    summary["failures"] = failures[:10]
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def _timed_pass(runner: Runner, cold: ColdStart, seconds: float, summary: dict) -> dict:
    """Whole cycles until `seconds` of job time.  The cold starts are spread
    evenly over that job time, so both sample the same stretch of machine time."""

    def spawn_when_due() -> None:
        if len(cold.times) < COLD_STARTS and runner.busy >= (len(cold.times) + 0.5) * seconds / COLD_STARTS:
            cold.spawn()

    busy = ref_busy = 0.0
    cycles = 0
    # end at the cycle boundary nearest to `seconds`
    while len(runner.latencies) < MIN_SAMPLES or busy + busy / cycles / 2 < seconds:
        net, ref = runner.cycle(after_job=spawn_when_due)
        busy += net
        ref_busy += ref
        cycles += 1
    while len(cold.times) < COLD_STARTS:
        cold.spawn()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = runner.latencies
    pct, tail = _tail(lat)
    summary.update(
        cycles=cycles,
        jobs_per_cycle=len(runner.jobs),
        samples=len(lat),
        tail_percentile=pct,
        samples_beyond_tail=sum(x > tail for x in lat),
        job_time_s=busy,
        job_reference_time_s=ref_busy,
        cold_start_ms_samples=[t * 1000 for t in cold.times],
        cold_start_net_ms_samples=[t * 1000 for t in cold.net_times],
        job_rungs=[job.rung for job in runner.jobs],
        latencies_ms=[[round(t * 1000, 4) for t in c] for c in runner.cycles],
        rung_job_p50_ms=_rung_medians(runner.rung_latencies, 1000),
    )
    return {
        "jobs_per_s": (len(lat) / ref_busy, "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "job_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cold_start_ms": (statistics.median(cold.times) * 1000, "ms"),
    }


def _traced_pass(runner: Runner, seconds: float, summary: dict) -> dict:
    tracer = Tracer()
    plain = [0.0, 0.0]  # (net, reference) seconds of the untraced cycles
    traced = [0.0, 0.0]  # and of the traced ones
    traced_wall = 0.0  # spans are timed in wall seconds, probes included
    cycles = 0

    def add(side: list[float], times: tuple[float, float]) -> None:
        side[0] += times[0]
        side[1] += times[1]

    while cycles == 0 or (plain[0] + traced[0]) * (1 + 1 / cycles / 2) < seconds:
        if cycles % 2:  # alternate which side of the pair runs first
            add(plain, runner.cycle())
        tracer.install()
        start = time.perf_counter()
        try:
            add(traced, runner.cycle(tracer))
        finally:
            traced_wall += time.perf_counter() - start
            tracer.uninstall()
        if not cycles % 2:
            add(plain, runner.cycle())
        cycles += 1
    scale = traced[1] / traced_wall
    metrics = {
        k: (v, "count") if k.endswith(".calls") else (v * scale, "ms")
        for k, v in tracer.layer_metrics(cycles).items()
    }
    ratios = tracer.ratios()
    for name, (value, _) in ratios.items():
        metrics[name] = (value, "ratio")
    metrics["trace.overhead_frac"] = (traced[1] / plain[1] - 1, "frac")
    metrics["trace.cycle_ms"] = (traced[1] * 1000 / cycles, "ms")
    shares = {
        "factor_rational+weil_weight": (
            tracer.total["polyfactor.factor_rational"] + tracer.total["monodromy.weil_weight"]
        ),
        "verify_section": tracer.total["tropbundle.verify_section"],
        "_rref": tracer.total["ratlin._rref"],
    }
    summary.update(
        cycles=cycles,
        ratio_bases={k: base for k, (_, base) in ratios.items()},
        share_of_traced_wall={k: v / traced_wall for k, v in shares.items()},
        rung_top_call_median_ms=_rung_medians(tracer.top_ms, scale),
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
