#!/usr/bin/env python3
"""Print the SHA-256 of every acceptance report, one ``slug sha256`` line each.

The reports are the canonical JSON bytes of the payload builders listed in
tests/test_acceptance.py::PAYLOAD_BUILDERS.  Running this script on two
checkouts and diffing the output shows whether a change left every report
byte-identical.  Usage: ``python3 scripts/report_digests.py`` (no flags).
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import test_acceptance as acceptance  # noqa: E402
from confpara.schemas import dumps_canonical  # noqa: E402


def main():
    for slug, build in acceptance.PAYLOAD_BUILDERS:
        digest = hashlib.sha256(dumps_canonical(build()).encode("utf-8")).hexdigest()
        print(f"{slug} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
