"""Records the outputs of every fixed job into perfbench/reference.json.

    python3 perfbench/record_reference.py

Run it from the repository root on the commit whose outputs are the
reference.  Seed-dependent jobs are not recorded; the benchmark checks them
independently.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    os.chdir(ROOT)
    import workloads

    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            entries = reference[name] = {}
            for job in workloads.build(name, 0, tmp):
                if job.fixed:
                    entries[job.key] = json.loads(json.dumps(job.summary(job.run())))
            print(f"{name}: {len(entries)} fixed jobs recorded", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
