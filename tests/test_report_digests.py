"""The digests of every acceptance report, README command and coset recovery
against the checked-in golden listing.

``tests/golden/report_digests.txt`` is the output of
``scripts/report_digests.py``.  A change that alters an output on purpose
updates the file in the same change, so the diff names each moved line;
anything else that moves is a regression.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "report_digests.txt"


def test_report_digests_match_the_golden_listing():
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "scripts" / "report_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert script.main() == 0
    assert out.getvalue() == GOLDEN.read_text(encoding="utf-8")
