#!/usr/bin/env python3
"""Print the SHA-256 of every acceptance report, one ``slug sha256`` line each,
then of every README command-line example and of ``equiv`` on two
presentations of one group, one ``cli:<name> sha256`` line each, then of
every coset recovery over the reconstruction groups, one
``recover:<group>-<k> sha256`` line each.

The reports are the canonical JSON bytes of the payload builders listed in
tests/test_acceptance.py::PAYLOAD_BUILDERS.  The command-line examples are
``readme_commands`` below, run one after another through
``confpara.cli.main`` in this process, then ``conjugate_commands``; each
digest hashes the exit code and the stdout bytes.  The recoveries are
``recover_digests`` below, one per normal subgroup.  Running this script on
two checkouts and diffing the output shows whether a change left every
report, every command's output and every recovery byte-identical.
Usage: ``python3 scripts/report_digests.py`` (no flags).
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
from confpara import cli, reconstruction  # noqa: E402
from confpara.actions import LeftTranslation  # noqa: E402
from confpara.catalog import reconstruction_groups  # noqa: E402
from confpara.configurations import ConfigPair, Partition  # noqa: E402
from confpara.errors import InputError  # noqa: E402
from confpara.groups import normal_subgroups, quotient_group  # noqa: E402
from confpara.schemas import dumps_canonical, make_manifest  # noqa: E402


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


def conjugate_commands(out_dir):
    """``equiv`` on two presentations of Z4, by name, in JSON and text: the
    fixture against a Cayley table of Z4 with its elements relabelled,
    whose manifest is written under ``out_dir``."""
    value = [2, 0, 3, 1]  # table index -> element of Z4
    index = {v: i for i, v in enumerate(value)}
    table = [[index[(a + b) % 4] for b in value] for a in value]
    path = Path(out_dir) / "group_z4_relabelled.json"
    path.write_text(dumps_canonical(make_manifest(
        "group", {"family": "table", "table": table, "identity": index[0]})))
    argv = ["equiv", str(ROOT / "tests" / "fixtures" / "group_z4.json"), str(path),
            "-n", "2", "-m", "3"]
    return [("equiv-conjugate", argv), ("equiv-conjugate-text", argv + ["--format", "text"])]


def _outcome(call, *args):
    """``repr`` of a call's value, or its ``InputError`` message."""
    try:
        return repr(call(*args))
    except InputError as exc:
        return f"InputError: {exc}"


def recover_digests():
    """``(name, bytes)`` per normal subgroup N (k-th in ``normal_subgroups``
    order) of each reconstruction group H.  The pair's blocks are the cosets
    of N right-translated by the least element of the last coset, so the
    identity's block is not index 1 when H/N is nontrivial, and its tuple is
    the greatest element of each coset.  The bytes are the ``repr`` of the
    recovered family, its ``IsoReport``, the table rows read off the pair's
    configurations, and ``validate_table`` of the quotient's table with its
    last entry moved one index on cyclically and with it out of range."""
    for name, h in reconstruction_groups().items():
        for k, normal in enumerate(normal_subgroups(h)):
            quotient, cosets, _reps = quotient_group(h, normal)
            table = reconstruction.multiplication_index_table(quotient, quotient.elements())
            s = min(cosets[-1])
            blocks = [frozenset(h.mul(x, s) for x in c) for c in cosets]
            pair = ConfigPair(tuple(max(c) for c in cosets), Partition.explicit(blocks))
            family = reconstruction.recover_cosets(h, pair, table)
            report = reconstruction.verify_normal_and_iso(h, family, table)
            inferred = reconstruction.table_from_configurations(LeftTranslation(h), pair)
            n = table.bound
            checks = []
            for last in (table.rows[-1][-1] % n + 1, n + 1):
                rows = table.rows[:-1] + (table.rows[-1][:-1] + (last,),)
                corrupted = reconstruction.MultiplicationIndexTable(n, rows, table.labels)
                checks.append(_outcome(reconstruction.validate_table, corrupted))
            text = repr((family, report, inferred.rows, checks))
            yield f"{name}-{k}", text.encode("utf-8")


def main():
    for slug, build in acceptance.PAYLOAD_BUILDERS:
        digest = hashlib.sha256(dumps_canonical(build()).encode("utf-8")).hexdigest()
        print(f"{slug} {digest}")
    with tempfile.TemporaryDirectory() as out_dir:
        for name, argv in readme_commands(out_dir) + conjugate_commands(out_dir):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode("utf-8")).hexdigest()
            print(f"cli:{name} {digest}")
    for name, data in recover_digests():
        print(f"recover:{name} {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
