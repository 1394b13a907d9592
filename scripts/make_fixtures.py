#!/usr/bin/env python3
"""Regenerate the checked-in manifest fixtures under tests/fixtures.

Every file is written in canonical form (sorted keys, two-space indent,
trailing newline), so reading one back and re-emitting it is a byte-level
identity.  Run from the repository root:

    python3 scripts/make_fixtures.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from confpara.schemas import dumps_canonical, make_manifest

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"


MANIFESTS = {
    "group_z4.json": ("group", {"family": "cyclic", "order": 4}),
    "group_z2.json": ("group", {"family": "cyclic", "order": 2}),
    "group_z2xz2.json": (
        "group",
        {
            "family": "direct-product",
            "factors": [
                {"family": "cyclic", "order": 2},
                {"family": "cyclic", "order": 2},
            ],
        },
    ),
    "group_s3.json": ("group", {"family": "symmetric", "degree": 3}),
    "group_z.json": ("group", {"family": "free-abelian", "rank": 1}),
    "group_f2.json": ("group", {"family": "free", "rank": 2}),
    "action_z_copies.json": (
        "action",
        {
            "kind": "product",
            "base": {
                "kind": "left-translation",
                "group": {"family": "free-abelian", "rank": 1},
            },
            "copies": "countable",
        },
    ),
    "partition_z4_parity.json": (
        "partition",
        {"kind": "blocks", "blocks": [["0", "2"], ["1", "3"]]},
    ),
    "partition_z4_halves.json": (
        "partition",
        {"kind": "blocks", "blocks": [["0", "1"], ["2", "3"]]},
    ),
    "partition_z_residue2.json": ("partition", {"kind": "residue", "modulus": 2}),
    "partition_f2_first_letter.json": ("partition", {"kind": "first-letter"}),
    "pair_z4_parity.json": (
        "pair",
        {
            "action": {
                "kind": "left-translation",
                "group": {"family": "cyclic", "order": 4},
            },
            "tuple": ["0", "1"],
            "partition": {"kind": "blocks", "blocks": [["0", "2"], ["1", "3"]]},
        },
    ),
    "pair_z_residue2.json": (
        "pair",
        {
            "action": {
                "kind": "left-translation",
                "group": {"family": "free-abelian", "rank": 1},
            },
            "tuple": ["1"],
            "partition": {"kind": "residue", "modulus": 2},
        },
    ),
    "decomposition_singleton_z.json": (
        "decomposition",
        {"construction": "singleton", "group": {"family": "free-abelian", "rank": 1}},
    ),
    "decomposition_f2_standard.json": (
        "decomposition",
        {"construction": "free2-standard"},
    ),
    "decomposition_lift_even.json": (
        "decomposition",
        {
            "construction": "lift",
            "group": {"family": "free-abelian", "rank": 1},
            "witness": "even-integers",
        },
    ),
    "decomposition_f2_explicit.json": (
        "decomposition",
        {
            "group": {"family": "free", "rank": 2},
            "a-pieces": [
                {"family": "first-letter", "letter": "a", "include": "a-neg-powers"},
                {"family": "first-letter", "letter": "a^-1", "exclude": "a-neg-powers"},
            ],
            "a-translators": ["e", "a"],
            "a-cover": "scan",
            "b-pieces": [
                {"family": "first-letter", "letter": "b"},
                {"family": "first-letter", "letter": "b^-1"},
            ],
            "b-translators": ["e", "b"],
            "b-cover": "scan",
        },
    ),
}


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, (kind, payload) in sorted(MANIFESTS.items()):
        path = FIXTURES / name
        path.write_text(dumps_canonical(make_manifest(kind, payload)))
        print(f"wrote {path.relative_to(FIXTURES.parent.parent)}")


if __name__ == "__main__":
    main()
