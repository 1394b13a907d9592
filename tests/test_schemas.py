"""Manifest envelope and payload builders: strict field checking with
JSON-pointer error locations, plus the window flag syntax."""

import json

import pytest

from confpara.actions import LeftTranslation, ProductAction, TableAction, TrivialAction
from confpara.configurations import ConfigPair
from confpara.errors import InputError, MalformedOracleError
from confpara.groups import CayleyTableGroup, FreeAbelianGroup, FreeGroup
from confpara.paradox import verify_paradoxical
from confpara.schemas import (
    OBJECT_KINDS,
    SCHEMA_VERSION,
    build_action,
    build_decomposition,
    build_group,
    build_pair,
    build_partition,
    build_window_spec,
    dumps_canonical,
    loads_manifest,
    make_manifest,
    parse_manifest,
    parse_window_flag,
)


def path_of(err):
    return err.value.path


# ---------------------------------------------------------------------------
# envelope


def test_make_and_parse_roundtrip():
    m = make_manifest("group", {"family": "cyclic", "order": 3})
    kind, payload, metadata = parse_manifest(m)
    assert kind == "group"
    assert payload == {"family": "cyclic", "order": 3}
    assert metadata is None
    assert m["schema-version"] == SCHEMA_VERSION


def test_metadata_passes_through():
    m = make_manifest("report", {"x": 1}, metadata={"bounds": {"cap": 10}})
    _, _, metadata = parse_manifest(m)
    assert metadata == {"bounds": {"cap": 10}}


def test_make_manifest_rejects_unknown_kind():
    with pytest.raises(InputError):
        make_manifest("blob", {})


def test_envelope_error_paths():
    good = make_manifest("group", {"family": "free", "rank": 2})

    def drop(key):
        d = dict(good)
        del d[key]
        return d

    with pytest.raises(InputError) as err:
        parse_manifest(drop("schema-version"))
    assert path_of(err) == "/schema-version"
    with pytest.raises(InputError) as err:
        parse_manifest({**good, "schema-version": 2})
    assert path_of(err) == "/schema-version"
    with pytest.raises(InputError) as err:
        parse_manifest(drop("object-kind"))
    assert path_of(err) == "/object-kind"
    with pytest.raises(InputError) as err:
        parse_manifest({**good, "object-kind": "gadget"})
    assert path_of(err) == "/object-kind"
    with pytest.raises(InputError) as err:
        parse_manifest(drop("payload"))
    assert path_of(err) == "/payload"
    with pytest.raises(InputError) as err:
        parse_manifest({**good, "payload": [1]})
    assert path_of(err) == "/payload"
    with pytest.raises(InputError) as err:
        parse_manifest({**good, "metadata": "notes"})
    assert path_of(err) == "/metadata"
    with pytest.raises(InputError) as err:
        parse_manifest({**good, "comment": "hi"})
    assert path_of(err) == "/comment"
    with pytest.raises(InputError) as err:
        parse_manifest(good, expected_kind="pair")
    assert path_of(err) == "/object-kind"


def test_loads_manifest_rejects_bad_json():
    with pytest.raises(InputError):
        loads_manifest("{not json")
    kind, payload, _ = loads_manifest(
        dumps_canonical(make_manifest("partition", {"kind": "blocks", "blocks": []}))
    )
    assert kind == "partition"


def test_canonical_dump_is_order_insensitive():
    a = dumps_canonical({"b": 1, "a": {"y": 2, "x": 3}})
    b = dumps_canonical({"a": {"x": 3, "y": 2}, "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": {"x": 3, "y": 2}, "b": 1}


def test_object_kinds_are_fixed():
    assert OBJECT_KINDS == (
        "group", "action", "partition", "pair", "decomposition", "verdict", "report",
    )


# ---------------------------------------------------------------------------
# groups


def test_build_group_families():
    assert build_group({"family": "cyclic", "order": 6}).order() == 6
    assert build_group({"family": "symmetric", "degree": 3}).order() == 6
    assert build_group({"family": "dihedral", "sides": 4}).order() == 8
    assert build_group({"family": "alternating4"}).order() == 12
    assert build_group({"family": "quaternion8"}).order() == 8
    free = build_group({"family": "free", "rank": 2})
    assert isinstance(free, FreeGroup) and free.rank == 2
    z = build_group({"family": "free-abelian", "rank": 1})
    assert isinstance(z, FreeAbelianGroup)
    prod = build_group({
        "family": "direct-product",
        "factors": [{"family": "cyclic", "order": 2}, {"family": "cyclic", "order": 3}],
    })
    assert prod.order() == 6


def test_build_group_table_family():
    g = build_group({
        "family": "table",
        "table": [[0, 1], [1, 0]],
        "identity": 0,
        "labels": ["e", "g"],
    })
    assert isinstance(g, CayleyTableGroup)
    assert g.order() == 2


def test_build_group_error_paths():
    with pytest.raises(InputError) as err:
        build_group({"family": "frobenius"})
    assert path_of(err) == "/payload/family"
    with pytest.raises(InputError) as err:
        build_group({"family": "cyclic"})
    assert path_of(err) == "/payload/order"
    with pytest.raises(InputError) as err:
        build_group({"family": "cyclic", "order": 3, "color": "red"})
    assert path_of(err) == "/payload/color"
    with pytest.raises(InputError) as err:
        build_group({"family": "direct-product", "factors": [{"family": "cyclic", "order": 2}]})
    assert path_of(err) == "/payload/factors"
    with pytest.raises(InputError) as err:
        build_group({
            "family": "direct-product",
            "factors": [{"family": "cyclic", "order": 2}, {"family": "cyclic"}],
        })
    assert path_of(err) == "/payload/factors/1/order"
    with pytest.raises(InputError) as err:
        build_group({"family": "table", "table": [[0, 1], [0, 1]], "identity": 0})
    assert path_of(err) == "/payload/table"
    with pytest.raises(InputError) as err:
        build_group({"family": "cyclic", "order": 0})
    assert path_of(err) == "/payload/order"


# ---------------------------------------------------------------------------
# actions


def test_build_action_kinds():
    a = build_action({"kind": "left-translation", "group": {"family": "cyclic", "order": 4}})
    assert isinstance(a, LeftTranslation)
    t = build_action({
        "kind": "table",
        "group": {"family": "cyclic", "order": 2},
        "points": ["p", "q"],
        "rows": [[0, 1], [1, 0]],
    })
    assert isinstance(t, TableAction)
    assert t.act(1, "p") == "q"
    tr = build_action({
        "kind": "trivial",
        "group": {"family": "cyclic", "order": 2},
        "points": [0, 1, 2],
    })
    assert isinstance(tr, TrivialAction)
    assert tr.act(1, 2) == 2
    trc = build_action({
        "kind": "trivial",
        "group": {"family": "free-abelian", "rank": 1},
        "countable": True,
    })
    assert trc.parse_point("10") == 10
    p = build_action({
        "kind": "product",
        "base": {"kind": "left-translation", "group": {"family": "free-abelian", "rank": 1}},
        "copies": "countable",
    })
    assert isinstance(p, ProductAction) and p.index_count is None
    p3 = build_action({
        "kind": "product",
        "base": {"kind": "left-translation", "group": {"family": "cyclic", "order": 2}},
        "copies": 3,
    })
    assert p3.index_count == 3


def test_build_action_error_paths():
    with pytest.raises(InputError) as err:
        build_action({"kind": "rotation"})
    assert path_of(err) == "/payload/kind"
    with pytest.raises(InputError) as err:
        build_action({
            "kind": "table",
            "group": {"family": "cyclic", "order": 2},
            "points": ["p", "q"],
            "rows": [[0, 1], [0, 0]],
        })
    assert path_of(err) == "/payload/rows"
    with pytest.raises(InputError) as err:
        build_action({
            "kind": "product",
            "base": {"kind": "left-translation", "group": {"family": "cyclic", "order": 2}},
            "copies": 0,
        })
    assert path_of(err) == "/payload/copies"


@pytest.mark.parametrize("group, points, rows, message, path", [
    ({"family": "cyclic", "order": 2}, ["p", "p"], [[0, 1], [1, 0]],
     "duplicate points in action table", "/payload/points"),
    ({"family": "free", "rank": 1}, ["p"], [[0]],
     "table actions require a finite group", "/payload/group"),
    ({"family": "cyclic", "order": 2}, ["p", "q"], [[0, 1]],
     "action table has wrong shape", "/payload/rows"),
], ids=["duplicate-points", "infinite-group", "short-rows"])
def test_table_action_errors_name_their_field(group, points, rows, message, path):
    with pytest.raises(InputError) as err:
        build_action({"kind": "table", "group": group, "points": points, "rows": rows})
    assert str(err.value) == f"{message} (at {path})"


# ---------------------------------------------------------------------------
# partitions


def zaction():
    return LeftTranslation(FreeAbelianGroup(1))


def test_blocks_partition_parses_points():
    act = build_action({
        "kind": "left-translation", "group": {"family": "cyclic", "order": 4},
    })
    part = build_partition({"kind": "blocks", "blocks": [["0", "2"], ["1", "3"]]}, act)
    assert part.block_of(0) == 1
    assert part.block_of(3) == 2


def test_residue_partition_on_the_integers():
    part = build_partition({"kind": "residue", "modulus": 3}, zaction())
    assert part.block_of(0) == 1
    assert part.block_of(-2) == 2  # python residues stay non-negative
    assert part.block_of(5) == 3
    assert part.block_count == 3


def test_residue_partition_guard():
    act = build_action({
        "kind": "left-translation", "group": {"family": "cyclic", "order": 6},
    })
    with pytest.raises(InputError) as err:
        build_partition({"kind": "residue", "modulus": 2}, act)
    assert path_of(err) == "/payload/kind"


def test_first_letter_partition_on_free_groups():
    act = LeftTranslation(FreeGroup(2))
    part = build_partition({"kind": "first-letter"}, act)
    assert part.block_of(()) == 1
    assert part.block_of((1, 2)) == 2
    assert part.block_of((-1,)) == 3
    assert part.block_of((2,)) == 4
    assert part.block_of((-2, 1)) == 5
    assert part.block_count == 5
    with pytest.raises(InputError) as err:
        build_partition({"kind": "first-letter"}, zaction())
    assert path_of(err) == "/payload/kind"


def test_partition_error_paths():
    act = build_action({
        "kind": "left-translation", "group": {"family": "cyclic", "order": 4},
    })
    with pytest.raises(InputError) as err:
        build_partition({"kind": "mosaic"}, act)
    assert path_of(err) == "/payload/kind"
    with pytest.raises(InputError) as err:
        build_partition({"kind": "blocks", "blocks": [["0", "9"]]}, act)
    assert path_of(err) == "/payload/blocks/0/1"


# ---------------------------------------------------------------------------
# pairs


def pair_payload():
    return {
        "action": {"kind": "left-translation", "group": {"family": "cyclic", "order": 4}},
        "tuple": ["1", "2"],
        "partition": {"kind": "blocks", "blocks": [["0", "2"], ["1", "3"]]},
    }


def test_build_pair():
    action, pair = build_pair(pair_payload())
    assert isinstance(action, LeftTranslation)
    assert isinstance(pair, ConfigPair)
    assert pair.elements == (1, 2)
    assert pair.partition.block_of(3) == 2
    assert not pair.generating


def test_build_pair_generating_flag():
    payload = dict(pair_payload(), generating=True)
    _, pair = build_pair(payload)
    assert pair.generating


def test_build_pair_error_paths():
    bad = dict(pair_payload())
    bad["tuple"] = ["1", "x"]
    with pytest.raises(InputError) as err:
        build_pair(bad)
    assert path_of(err) == "/payload/tuple/1"
    with pytest.raises(InputError) as err:
        build_pair(dict(pair_payload(), mood="good"))
    assert path_of(err) == "/payload/mood"


# ---------------------------------------------------------------------------
# windows


def test_window_specs():
    assert build_window_spec({"ball": 3}) == {"ball": 3}
    assert build_window_spec({"all": True}) == {"all": True}
    assert build_window_spec({"box": 2, "indices": [0, 4]}) == {
        "box": 2, "indices": [0, 4],
    }


def test_window_spec_errors():
    with pytest.raises(InputError) as err:
        build_window_spec({"sphere": 2})
    assert path_of(err) == "/payload/sphere"
    with pytest.raises(InputError) as err:
        build_window_spec({"ball": 2, "box": 2})
    assert path_of(err) == "/payload"
    with pytest.raises(InputError) as err:
        build_window_spec({"indices": [0, 3]})
    assert path_of(err) == "/payload"
    with pytest.raises(InputError) as err:
        build_window_spec({"box": 1, "indices": [0]})
    assert path_of(err) == "/payload/indices"
    with pytest.raises(InputError) as err:
        build_window_spec({"ball": -1})
    assert path_of(err) == "/payload/ball"


def test_window_flag_compact_forms():
    assert parse_window_flag("ball=2") == {"ball": 2}
    assert parse_window_flag("all") == {"all": True}
    assert parse_window_flag("box=5,indices=0..3") == {"box": 5, "indices": [0, 3]}
    assert parse_window_flag("prefix=12") == {"prefix": 12}


def test_window_flag_json_form():
    assert parse_window_flag('{"ball": 4}') == {"ball": 4}
    assert parse_window_flag('{"box": 2, "indices": [1, 2]}') == {
        "box": 2, "indices": [1, 2],
    }


def test_window_flag_errors():
    for bad in ("", "radius=2", "ball=big", "indices=0ip3", "{oops", '{"sphere": 1}'):
        with pytest.raises(InputError):
            parse_window_flag(bad)


# ---------------------------------------------------------------------------
# decompositions: named constructions


def test_named_constructions_build_and_verify():
    dec = build_decomposition({
        "construction": "singleton",
        "group": {"family": "free-abelian", "rank": 1},
    })
    w = dec.action.window({"box": 5})
    assert verify_paradoxical(dec, w, 15).verified

    dec = build_decomposition({"construction": "free2-standard"})
    assert verify_paradoxical(dec, dec.action.window({"ball": 3}), 2).verified

    dec = build_decomposition({
        "construction": "lift",
        "group": {"family": "free-abelian", "rank": 1},
        "witness": "even-integers",
    })
    assert dec.kind == "lift"
    assert verify_paradoxical(dec, dec.action.window({"box": 8}), 15).verified

    dec = build_decomposition({
        "construction": "lift",
        "group": {"family": "free", "rank": 2},
        "witness": "first-generator-powers",
    })
    assert verify_paradoxical(dec, dec.action.window({"ball": 2}), 10).verified

    dec = build_decomposition({
        "construction": "infinite-auto",
        "group": {"family": "free-abelian", "rank": 1},
    })
    assert dec.kind == "singleton"


def test_compress_and_refine_constructions():
    dec = build_decomposition({
        "construction": "compress",
        "inner": {
            "construction": "refine-singletons",
            "inner": {"construction": "free2-standard"},
        },
    })
    standard = build_decomposition({"construction": "free2-standard"})
    for wd in dec.action.window({"ball": 3}).points:
        assert dec.a_pieces.classifier(wd) == standard.a_pieces.classifier(wd)


def test_compress_construction_reports_uncompressible_inner():
    with pytest.raises(InputError) as err:
        build_decomposition({
            "construction": "compress",
            "bound": 50,
            "inner": {
                "construction": "singleton",
                "group": {"family": "free-abelian", "rank": 1},
            },
        })
    assert path_of(err) == "/payload/inner"


def test_glue_construction():
    dec = build_decomposition({
        "construction": "glue",
        "copies": "countable",
        "inner": {
            "construction": "singleton",
            "group": {"family": "free-abelian", "rank": 1},
        },
    })
    w = dec.action.window({"box": 4, "indices": [0, 2]})
    assert verify_paradoxical(dec, w, 12).verified
    with pytest.raises(InputError, match=r"^unknown field 'mode' \(at /payload/mode\)$") as err:
        build_decomposition({
            "construction": "glue",
            "copies": 2,
            "mode": "uniform",
            "inner": {"construction": "free2-standard"},
        })
    assert path_of(err) == "/payload/mode"


def test_unknown_construction_path():
    with pytest.raises(InputError) as err:
        build_decomposition({"construction": "origami"})
    assert path_of(err) == "/payload/construction"
    with pytest.raises(InputError) as err:
        build_decomposition({
            "construction": "lift",
            "group": {"family": "free-abelian", "rank": 1},
            "witness": "odd-integers",
        })
    assert path_of(err) == "/payload/witness"


# ---------------------------------------------------------------------------
# decompositions: explicit piece families


def explicit_f2_payload():
    return {
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
    }


def test_explicit_decomposition_builds_the_standard_paradox():
    dec = build_decomposition(explicit_f2_payload())
    assert dec.kind == "explicit"
    assert dec.a_translator_range == ((), (1,))
    assert dec.b_translator_range == ((), (2,))
    verdict = verify_paradoxical(dec, dec.action.window({"ball": 3}), 2)
    assert verdict.verified
    assert verdict.points_checked == 53


def test_explicit_decomposition_missing_cover():
    payload = explicit_f2_payload()
    del payload["a-cover"]
    with pytest.raises(InputError) as err:
        build_decomposition(payload)
    assert path_of(err) == "/payload/a-cover"


def test_explicit_decomposition_unknown_cover_name():
    payload = dict(explicit_f2_payload(), **{"b-cover": "magic"})
    with pytest.raises(InputError) as err:
        build_decomposition(payload)
    assert path_of(err) == "/payload/b-cover"


def test_explicit_decomposition_translator_count_mismatch():
    payload = dict(explicit_f2_payload(), **{"a-translators": ["e"]})
    with pytest.raises(InputError) as err:
        build_decomposition(payload)
    assert path_of(err) == "/payload/a-translators"


def test_explicit_decomposition_empty_side():
    payload = dict(explicit_f2_payload(), **{"a-pieces": [], "a-translators": []})
    with pytest.raises(InputError) as err:
        build_decomposition(payload)
    assert path_of(err) == "/payload/a-pieces"


def test_neg_powers_token_validation():
    payload = explicit_f2_payload()
    payload["a-pieces"][0]["include"] = "b-neg-powers"
    with pytest.raises(InputError) as err:
        build_decomposition(payload)
    assert path_of(err) == "/payload/a-pieces/0/include"
    payload = explicit_f2_payload()
    payload["a-pieces"][0]["include"] = "a-negpowers"
    with pytest.raises(InputError) as err:
        build_decomposition(payload)
    assert path_of(err) == "/payload/a-pieces/0/include"


def test_a_first_letter_piece_takes_include_or_exclude_not_both():
    # with both, adjoining would win and the piece would overlap piece 1 at e
    payload = explicit_f2_payload()
    payload["a-pieces"][1]["include"] = "a-neg-powers"
    with pytest.raises(InputError) as err:
        build_decomposition(payload)
    assert str(err.value) == ("a first-letter piece takes include or exclude, not both "
                              "(at /payload/a-pieces/1/exclude)")


def test_first_letter_family_guards():
    payload = explicit_f2_payload()
    payload["group"] = {"family": "free-abelian", "rank": 1}
    with pytest.raises(InputError) as err:
        build_decomposition(payload)
    assert path_of(err) == "/payload/a-pieces/0/family"
    payload = explicit_f2_payload()
    payload["a-pieces"][0]["letter"] = "a^2"
    with pytest.raises(InputError) as err:
        build_decomposition(payload)
    assert path_of(err) == "/payload/a-pieces/0/letter"


def test_explicit_points_family_and_scan_fallback():
    dec = build_decomposition({
        "group": {"family": "free-abelian", "rank": 1},
        "a-pieces": [{"family": "explicit", "points": ["0"]}],
        "a-translators": ["0"],
        "a-cover": "scan",
        "b-pieces": [{"family": "explicit", "points": ["1"]}],
        "b-translators": ["0"],
        "b-cover": "scan",
    })
    # 0 sits in no translated b-piece; the scan falls back and the
    # membership check turns that into an honest refutation
    verdict = verify_paradoxical(dec, dec.action.window({"box": 1}), 3)
    assert verdict.status == "refuted"
    assert verdict.witness.point == 0
    assert verdict.witness.equation == "b-cover-membership"


def test_overlapping_explicit_pieces_are_malformed_when_used():
    dec = build_decomposition({
        "group": {"family": "free-abelian", "rank": 1},
        "a-pieces": [
            {"family": "explicit", "points": ["0", "1"]},
            {"family": "explicit", "points": ["1", "2"]},
        ],
        "a-translators": ["0", "0"],
        "a-cover": "scan",
        "b-pieces": [{"family": "explicit", "points": ["3"]}],
        "b-translators": ["0"],
        "b-cover": "scan",
    })
    assert dec.a_pieces.classifier(0) == 1
    with pytest.raises(MalformedOracleError):
        dec.a_pieces.classifier(1)


def test_explicit_decomposition_unknown_field():
    payload = dict(explicit_f2_payload(), color="red")
    with pytest.raises(InputError) as err:
        build_decomposition(payload)
    assert path_of(err) == "/payload/color"


# ---------------------------------------------------------------------------
# every field error names its own pointer, once


def explicit_z_payload(point="1", translator="0"):
    return {
        "group": {"family": "free-abelian", "rank": 1},
        "a-pieces": [{"family": "explicit", "points": ["0"]}],
        "a-translators": [translator],
        "a-cover": "scan",
        "b-pieces": [{"family": "explicit", "points": [point]}],
        "b-translators": ["0"],
        "b-cover": "scan",
    }


Z2_GROUP = {"family": "cyclic", "order": 2}
FIELD_FAULTS = {
    "tuple": (
        lambda: build_pair(dict(pair_payload(), tuple=["1", 2])), "/payload/tuple/1",
    ),
    "blocks": (
        lambda: build_pair(dict(pair_payload(),
                                partition={"kind": "blocks", "blocks": [["0", 2], ["1", "3"]]})),
        "/payload/partition/blocks/0/1",
    ),
    "explicit-points": (
        lambda: build_decomposition(explicit_z_payload(point=1)),
        "/payload/b-pieces/0/points/0",
    ),
    "translators": (
        lambda: build_decomposition(explicit_z_payload(translator=0)),
        "/payload/a-translators/0",
    ),
    "table-name": (
        lambda: build_group({"family": "table", "table": [[0]], "identity": 0, "name": 3}),
        "/payload/name",
    ),
    "trivial-countable": (
        lambda: build_action({"kind": "trivial", "group": Z2_GROUP, "countable": "yes"}),
        "/payload/countable",
    ),
}


@pytest.mark.parametrize("field", sorted(FIELD_FAULTS))
def test_field_errors_name_their_pointer_once(field):
    build, pointer = FIELD_FAULTS[field]
    with pytest.raises(InputError) as err:
        build()
    assert path_of(err) == pointer
    message = str(err.value)
    assert message.endswith(f" (at {pointer})")
    assert message.count("(at ") == 1


def test_token_parse_errors_keep_their_pointer():
    with pytest.raises(InputError) as err:
        build_decomposition(explicit_z_payload(point="x"))
    assert str(err.value) == (
        "bad element 'x' for free-abelian(1) (at /payload/b-pieces/0/points/0)"
    )
    with pytest.raises(InputError) as err:
        build_decomposition(explicit_z_payload(translator="[1]"))
    assert str(err.value) == (
        "bad element '[1]' for free-abelian(1) (at /payload/a-translators/0)"
    )


@pytest.mark.parametrize("kind", ["table", "trivial"])
@pytest.mark.parametrize("point", [[0], {"x": 0}, True, 1.5, None],
                         ids=["array", "object", "boolean", "float", "null"])
def test_action_points_are_strings_or_integers(kind, point):
    payload = {"kind": kind, "group": Z2_GROUP, "points": ["p", point]}
    if kind == "table":
        payload["rows"] = [[0, 1], [1, 0]]
    with pytest.raises(InputError) as err:
        build_action(payload)
    assert path_of(err) == "/payload/points/1"
    assert str(err.value).count("(at ") == 1


def test_all_window_must_be_true():
    with pytest.raises(InputError) as err:
        build_window_spec({"all": False}, "/window")
    assert path_of(err) == "/window/all"
    with pytest.raises(InputError) as err:
        parse_window_flag('{"all": false}')
    assert path_of(err) == "/window/all"
