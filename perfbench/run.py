"""confpara benchmark: one command, one workload (or all) per invocation.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh,
single-threaded worker process (``worker.py``), one process at a time.

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json.  Times
are in reference seconds (calibrate.py explains the scaling); the raw
wall-clock figures are kept in the result file.
    setup_s      median over seven fresh processes of start-to-first-job time
    wall_s       time of one pass of the job list (checks excluded): the sum
                 over the job list of each job's median latency across the
                 run's passes
    job_p50_ms   median over the job list of the same per-job medians
    job_p90_ms   90th percentile of the same per-job medians
    peak_rss_mb  ru_maxrss of the measuring process
    ok_ratio     jobs that ended as documented and matched their reference,
                 over jobs attempted (1 - failed_ratio)
--trace 1 prints the per-layer metrics: one untraced process for half the
time (the base of trace.overhead_ratio), then one traced process that runs
exactly one pass and the layer probe.

The last stdout line is the result object {"correct", "attempted", "failed",
"metrics"}.  ``failed`` counts jobs whose output differs from the reference
or whose independent check fails; a known defect that still behaves as
recorded is not ok but is not counted as failed.  A copy of the result with
the machine stamp and per-job details is written to .perfbench_run/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_run"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 175  # one workload's measurement ends within this, workers included

REQUIRED = ("BENCHMARK.json", "src/confpara/__init__.py", "tests/oracles.py",
            "tests/test_acceptance.py", "tests/fixtures/group_z4.json")


def _worker(workload, seed, budget, deadline, trace=False, setup_only=False):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--budget", str(budget)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    # fixed hash seed: set iteration order, and with it every count, repeats
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, q):
    """q-th percentile, as statistics.quantiles gives it (exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload, seed, seconds, deadline):
    setups = [_worker(workload, seed, 0, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    main = _worker(workload, seed, seconds, deadline)
    if main["wrappers"]:
        raise SystemExit("the untraced worker ran with tracing wrappers installed")
    setups.append(main["setup_s"])
    lat_ms = [v * 1000 for v in main["job_medians"].values()]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(main["job_medians"].values()),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": _percentile(lat_ms, 90),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ratio": main["ok"] / main["attempted"],
    }
    detail = {"setup_samples": setups, "setup_raw_s": main["setup_raw_s"],
              "passes": len(main["pass_walls"]), "pass_walls": main["pass_walls"],
              "raw_pass_walls": main["raw_pass_walls"], "jobs_per_pass": len(lat_ms),
              "job_medians_ms": dict(zip(main["job_medians"], lat_ms))}
    return main, metrics, detail


def per_layer(workload, seed, seconds, deadline):
    base = _worker(workload, seed, seconds / 2, deadline)
    traced = _worker(workload, seed, 0, deadline, trace=True)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = (
        traced["pass_walls"][0] / statistics.median(base["pass_walls"]) - 1)
    merged = {k: base[k] + traced[k] for k in ("attempted", "ok", "defects", "failed")}
    merged["problems"] = base["problems"] + traced["problems"]
    detail = {"untraced_pass_walls": base["pass_walls"],
              "traced_pass_wall": traced["pass_walls"][0],
              "spans_file": traced["spans_file"]}
    return merged, metrics, detail


def stamp(seed):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "confpara").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a confpara checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    info = stamp(args.seed)
    print("stamp " + json.dumps(info, sort_keys=True))
    total = {"attempted": 0, "failed": 0}
    out_metrics = {}
    for name in names if args.workload == "all" else [args.workload]:
        measure = per_layer if args.trace else end_to_end
        deadline = time.monotonic() + RUN_LIMIT_S
        counts, metrics, detail = measure(name, args.seed, args.seconds, deadline)
        if set(metrics) != set(units):
            raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} "
                             "do not match BENCHMARK.json")
        print(f"workload {name}: {counts['attempted']} jobs, {counts['ok']} ok, "
              f"{counts['defects']} known-defect, {counts['failed']} failed "
              f"(failed_ratio {1 - counts['ok'] / counts['attempted']:.4f})")
        for problem in counts["problems"]:
            print(f"  problem: {problem}")
        for key, value in metrics.items():
            print(f"  {key:40s} {value:>16.6g} {units[key]}")
        prefix = f"{name}." if args.workload == "all" else ""
        out_metrics.update({prefix + k: {"value": v, "unit": units[k]}
                            for k, v in metrics.items()})
        total["attempted"] += counts["attempted"]
        total["failed"] += counts["failed"]
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"stamp": info, "counts": counts, "metrics": metrics,
                        "detail": detail}, indent=1))
    print(json.dumps({"correct": total["failed"] == 0, **total, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
