#!/usr/bin/env python3
"""Print the SHA-256 of every acceptance report, one ``slug sha256`` line each,
then of every README command-line example, one ``cli:<name> sha256`` line each.

The reports are the canonical JSON bytes of the payload builders listed in
tests/test_acceptance.py::PAYLOAD_BUILDERS.  The command-line examples are
``readme_commands`` below, run one after another through
``confpara.cli.main`` in this process; each digest hashes the exit code and
the stdout bytes.  Running this script on two checkouts and diffing the
output shows whether a change left every report and every command's output
byte-identical.  Usage: ``python3 scripts/report_digests.py`` (no flags).
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import test_acceptance as acceptance  # noqa: E402
from confpara import cli  # noqa: E402
from confpara.schemas import dumps_canonical  # noqa: E402


def readme_commands(out_dir):
    """The worked examples of the README's "Command line" section, by name,
    as ``cli.main`` argument lists, with ``--out`` writing under ``out_dir``."""
    fx = {p.stem: str(p) for p in (ROOT / "tests" / "fixtures").glob("*.json")}
    return [
        ("con", ["con", fx["pair_z4_parity"], "--format", "text"]),
        ("con-window", ["con", fx["pair_z_residue2"], "--window", "box=5",
                        "--format", "text"]),
        ("equiv", ["equiv", "--a", fx["group_z4"], "--b", fx["group_z2xz2"],
                   "-n", "1", "-m", "2"]),
        ("prefixes", ["prefixes", fx["pair_z_residue2"], "--depth", "1",
                      "--window", "box=6"]),
        ("recover", ["recover", "--h", fx["group_z4"], "--tuple", "0,1",
                     "--partition", fx["partition_z4_parity"], "--format", "text"]),
        ("paradox-verify", ["paradox", "verify", fx["decomposition_f2_standard"],
                            "--window", "ball=4", "--index-bound", "10"]),
        ("paradox-construct", ["paradox", "construct", "--kind", "singleton",
                               "--group", fx["group_z"], "--window", "box=4",
                               "--index-bound", "20",
                               "--out", str(Path(out_dir) / "singleton.json")]),
    ]


def main():
    for slug, build in acceptance.PAYLOAD_BUILDERS:
        digest = hashlib.sha256(dumps_canonical(build()).encode("utf-8")).hexdigest()
        print(f"{slug} {digest}")
    with tempfile.TemporaryDirectory() as out_dir:
        for name, argv in readme_commands(out_dir):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode("utf-8")).hexdigest()
            print(f"cli:{name} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
