"""The checked-in manifest fixtures stay canonical and buildable."""

import json
import pathlib

import pytest

from confpara.cli import main
from confpara.paradox import verify_paradoxical
from confpara.schemas import (
    build_action,
    build_decomposition,
    build_group,
    build_pair,
    dumps_canonical,
    loads_manifest,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ALL = sorted(FIXTURES.glob("*.json"))


def test_fixture_directory_is_populated():
    assert len(ALL) >= 12


@pytest.mark.parametrize("path", ALL, ids=lambda p: p.name)
def test_fixture_is_canonical_and_valid(path):
    text = path.read_text()
    # canonical emit of the parsed document reproduces the file exactly
    assert dumps_canonical(json.loads(text)) == text
    kind, payload, _ = loads_manifest(text)
    assert isinstance(payload, dict)


def load(name):
    return loads_manifest((FIXTURES / name).read_text())


def test_group_fixtures_build():
    for name, order in (
        ("group_z4.json", 4), ("group_z2.json", 2), ("group_z2xz2.json", 4),
        ("group_s3.json", 6),
    ):
        _, payload, _ = load(name)
        assert build_group(payload).order() == order
    for name in ("group_z.json", "group_f2.json"):
        _, payload, _ = load(name)
        assert not build_group(payload).is_finite


def test_action_fixture_builds():
    _, payload, _ = load("action_z_copies.json")
    action = build_action(payload)
    assert action.parse_point("(3;7)") == (3, 7)


def test_pair_fixtures_build():
    _, payload, _ = load("pair_z4_parity.json")
    action, pair = build_pair(payload)
    assert pair.elements == (0, 1)
    _, payload, _ = load("pair_z_residue2.json")
    action, pair = build_pair(payload)
    assert pair.partition.block_of(3) == 2


def test_decomposition_fixtures_verify():
    for name, window in (
        ("decomposition_singleton_z.json", {"box": 4}),
        ("decomposition_f2_standard.json", {"ball": 3}),
        ("decomposition_lift_even.json", {"box": 6}),
        ("decomposition_f2_explicit.json", {"ball": 3}),
    ):
        _, payload, _ = load(name)
        dec = build_decomposition(payload)
        assert verify_paradoxical(dec, dec.action.window(window), 10).verified, name


def test_fixtures_work_from_the_command_line(capsys):
    code = main(["con", str(FIXTURES / "pair_z4_parity.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["payload"]["configurations"] == [[1, 1, 2], [2, 2, 1]]
