"""Runs one workload in a fresh process and prints a JSON summary as the
last line of stdout.

    python3 perfbench/worker.py --workload NAME --seed N --budget S --t0 T
        [--trace] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up time covers interpreter start,
``import confpara`` and building the seeded inputs.  Untraced, the worker
runs passes of the job list until the next pass would end after ``--budget``
seconds (at least one pass).  Traced, it installs the wrappers before
building the inputs, runs exactly one pass and then the layer probe, so its
counts do not depend on how fast the machine is.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_run"


def _judge(job, result, error, reference):
    """'ok', 'defect' (the recorded behaviour of a known defect) or a
    problem string."""
    if error is not None:
        return f"{type(error).__name__} escaped: {error}"
    if job.known_defect is not None and job.known_defect(result):
        return "defect"
    if job.fixed:
        if job.key not in reference:
            return "no reference entry"
        if json.loads(json.dumps(job.summary(result))) != reference[job.key]:
            return "output differs from the reference"
    problem = job.check(result) if job.check is not None else None
    return problem or "ok"


class Tally:
    def __init__(self):
        self.attempted = self.ok = self.defects = self.failed = 0
        self.problems = []

    def add(self, key, verdict):
        self.attempted += 1
        if verdict == "ok":
            self.ok += 1
        elif verdict == "defect":
            self.defects += 1
        else:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{key}: {verdict}")


def run_jobs(jobs, reference, tally, tracer, label):
    """One pass.  Returns each job's latency in seconds, raw and in reference
    seconds (see calibrate.py)."""
    raw, scaled = [], []
    meter = calibrate.Speedometer(sample_during=tracer is None)
    for job in jobs:
        if tracer is not None:
            tracer.job = f"{label}:{job.key}"
        result, error, latency, reference_s = meter.time(job.run)
        if tracer is not None:
            with tracer.paused():
                verdict = _judge(job, result, error, reference)
        else:
            verdict = _judge(job, result, error, reference)
        tally.add(job.key, verdict)
        raw.append(latency)
        scaled.append(reference_s)
    return raw, scaled


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, default=10.0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import confpara

    if not Path(confpara.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"confpara imported from {confpara.__file__}, not from this checkout")

    # the checking helpers are the benchmark's cost, not the program's
    t = time.monotonic()
    import layertrace
    import workloads
    helpers_s = time.monotonic() - t

    tracer = layertrace.Tracer().install() if args.trace else None
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        jobs = workloads.build(args.workload, args.seed, tmp)
        setup_s = time.monotonic() - args.t0 - helpers_s
        summary = {"setup_raw_s": setup_s,
                   "setup_s": setup_s * calibrate.speed_factor(),
                   "wrappers": layertrace.installed_wrappers()}
        if not args.setup_only:
            summary.update(_measure(args, jobs, tracer, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(summary))


def _measure(args, jobs, tracer, tmp):
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    tally = Tally()
    latencies, walls, raw_walls = [], [], []
    start = time.monotonic()
    while True:
        raw, scaled = run_jobs(jobs, reference[args.workload], tally, tracer,
                               f"pass{len(walls)}")
        latencies += scaled
        walls.append(sum(scaled))
        raw_walls.append(sum(raw))
        elapsed = time.monotonic() - start
        if tracer is not None or elapsed * (len(walls) + 1) / len(walls) > args.budget:
            break
    per_job = {job.key: latencies[i::len(jobs)] for i, job in enumerate(jobs)}
    result = {
        "pass_walls": walls,
        "raw_pass_walls": raw_walls,
        "job_medians": {k: statistics.median(v) for k, v in per_job.items()},
    }
    if tracer is not None:
        # the probe is a handful of cli-fixtures jobs, checked against its entries
        probe = workloads.layer_probe(tmp / "probe")
        run_jobs(probe, reference["cli-fixtures"], tally, tracer, "probe")
        tracer.uninstall()
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["id", "parent", "key", "start", "end", "job"],
            "spans": tracer.spans,
            "aggregates": tracer.aggregates(),
        }))
        result["layers"] = tracer.metrics()
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result.update(attempted=tally.attempted, ok=tally.ok, defects=tally.defects,
                  failed=tally.failed, problems=tally.problems,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


if __name__ == "__main__":
    main()
