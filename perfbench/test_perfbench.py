"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import layertrace  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spawn(*extra):
    argv = [sys.executable, str(HERE / "worker.py"), "--t0", repr(time.monotonic()), *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_plain():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_tracer_reports_exactly_the_declared_layers():
    declared = {m["name"] for m in SPEC["per_layer"]}
    produced = set(layertrace.Tracer().metrics()) | {"trace.overhead_ratio"}
    assert produced == declared
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_reference_raises_failed_ratio(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())["cli-fixtures"]
    jobs = workloads.build("cli-fixtures", 0, tmp_path)
    clean = worker.Tally()
    worker.run_jobs(jobs, reference, clean, None, "clean")
    assert clean.failed == 0 and clean.defects == 1

    corrupt = dict(reference)
    corrupt["con-finite"] = dict(corrupt["con-finite"], stdout_sha256="0" * 64)
    tally = worker.Tally()
    worker.run_jobs(jobs, corrupt, tally, None, "corrupt")
    assert tally.failed == 1
    assert tally.ok / tally.attempted < clean.ok / clean.attempted
    assert tally.problems == ["con-finite: output differs from the reference"]


def test_untraced_worker_has_no_wrappers():
    assert layertrace.installed_wrappers() == 0
    plain = _spawn("--workload", "cli-fixtures", "--seed", "1", "--budget", "0.1")
    assert plain["wrappers"] == 0 and plain["failed"] == 0
    traced = _spawn("--workload", "cli-fixtures", "--seed", "1", "--trace")
    assert traced["wrappers"] > 0 and traced["failed"] == 0


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        layers = _spawn("--workload", "cli-fixtures", "--seed", "2", "--trace")["layers"]
        counts.append({k: v for k, v in layers.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["cli.exit_undocumented"] == 1


def test_tracer_uninstalls():
    tracer = layertrace.Tracer().install()
    try:
        assert layertrace.installed_wrappers() > 0
    finally:
        tracer.uninstall()
    assert layertrace.installed_wrappers() == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-fixtures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
