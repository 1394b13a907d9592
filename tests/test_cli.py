"""Command line driver: subcommands, manifest input in both argument styles,
exit codes, and the report/verdict envelopes on stdout."""

import importlib.util
import io
import json
import pathlib

import pytest

from confpara import cli, configurations
from confpara.catalog import symmetric
from confpara.cli import main
from confpara.schemas import dumps_canonical, make_manifest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def write_manifest(tmp_path, name, kind, payload):
    p = tmp_path / name
    p.write_text(dumps_canonical(make_manifest(kind, payload)))
    return str(p)


@pytest.fixture
def files(tmp_path):
    out = {}
    out["g_z4"] = write_manifest(
        tmp_path, "z4.json", "group", {"family": "cyclic", "order": 4}
    )
    out["g_z22"] = write_manifest(
        tmp_path, "z22.json", "group",
        {
            "family": "direct-product",
            "factors": [
                {"family": "cyclic", "order": 2},
                {"family": "cyclic", "order": 2},
            ],
        },
    )
    out["g_z2"] = write_manifest(
        tmp_path, "z2.json", "group", {"family": "cyclic", "order": 2}
    )
    out["g_z"] = write_manifest(
        tmp_path, "z.json", "group", {"family": "free-abelian", "rank": 1}
    )
    out["part_z4"] = write_manifest(
        tmp_path, "part_z4.json", "partition",
        {"kind": "blocks", "blocks": [["0", "2"], ["1", "3"]]},
    )
    out["pair_z4"] = write_manifest(
        tmp_path, "pair_z4.json", "pair",
        {
            "action": {"kind": "left-translation", "group": {"family": "cyclic", "order": 4}},
            "tuple": ["0", "1"],
            "partition": {"kind": "blocks", "blocks": [["0", "2"], ["1", "3"]]},
        },
    )
    out["pair_z4_const"] = write_manifest(
        tmp_path, "pair_z4_const.json", "pair",
        {
            "action": {"kind": "left-translation", "group": {"family": "cyclic", "order": 4}},
            "tuple": ["0", "2"],
            "partition": {"kind": "blocks", "blocks": [["0", "2"], ["1", "3"]]},
        },
    )
    out["pair_z_res"] = write_manifest(
        tmp_path, "pair_z_res.json", "pair",
        {
            "action": {"kind": "left-translation", "group": {"family": "free-abelian", "rank": 1}},
            "tuple": ["1"],
            "partition": {"kind": "residue", "modulus": 2},
        },
    )
    out["dec_singleton_z"] = write_manifest(
        tmp_path, "dec_singleton_z.json", "decomposition",
        {"construction": "singleton", "group": {"family": "free-abelian", "rank": 1}},
    )
    out["dec_f2"] = write_manifest(
        tmp_path, "dec_f2.json", "decomposition", {"construction": "free2-standard"}
    )
    out["dec_broken"] = write_manifest(
        tmp_path, "dec_broken.json", "decomposition",
        {
            "group": {"family": "free-abelian", "rank": 1},
            "a-pieces": [{"family": "explicit", "points": ["0"]}],
            "a-translators": ["0"],
            "a-cover": "scan",
            "b-pieces": [{"family": "explicit", "points": ["1"]}],
            "b-translators": ["0"],
            "b-cover": "scan",
        },
    )
    out["dir"] = tmp_path
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv, expect_kind):
    code, stdout, stderr = run(capsys, argv)
    doc = json.loads(stdout)
    assert doc["schema-version"] == 1
    assert doc["object-kind"] == expect_kind
    assert doc["metadata"]["pairing-function"] == "cantor"
    assert doc["metadata"]["enumeration-codec"] == "zigzag-shortlex"
    return code, doc, stderr


# ---------------------------------------------------------------------------
# con


def test_con_from_pair_manifest(files, capsys):
    code, doc, _ = run_json(capsys, ["con", files["pair_z4"]], "report")
    assert code == 0
    assert doc["payload"]["configurations"] == [[1, 1, 2], [2, 2, 1]]
    assert doc["payload"]["count"] == 2
    assert doc["payload"]["exact"] is True
    assert doc["metadata"]["bounds"]["window"] == "all(4)"


def test_con_from_flags(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["con", "--action", files["g_z4"], "--tuple", "0,1",
         "--partition", files["part_z4"]],
        "report",
    )
    assert code == 0
    assert doc["payload"]["configurations"] == [[1, 1, 2], [2, 2, 1]]


def test_con_partition_flag_needs_a_partition_manifest(files, capsys):
    code, stdout, stderr = run(
        capsys,
        ["con", "--action", files["g_z4"], "--tuple", "0,1", "--partition", files["pair_z4"]],
    )
    assert code == 4
    assert stdout == ""
    assert stderr == "error: expected a partition manifest, got 'pair' (at /object-kind)\n"


def test_con_text_format(files, capsys):
    code, stdout, _ = run(capsys, ["con", files["pair_z4"], "--format", "text"])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "1 1 2"
    assert lines[1] == "2 2 1"
    assert "2 configurations" in lines[2] and "(exact)" in lines[2]


def test_con_from_stdin(files, capsys, monkeypatch):
    text = open(files["pair_z4"], encoding="utf-8").read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, doc, _ = run_json(capsys, ["con", "-"], "report")
    assert code == 0
    assert doc["payload"]["count"] == 2


def test_con_windowed_on_the_integers(files, capsys):
    code, doc, _ = run_json(
        capsys, ["con", files["pair_z_res"], "--window", "box=5"], "report"
    )
    assert code == 0
    assert doc["payload"]["configurations"] == [[1, 2], [2, 1]]
    assert doc["payload"]["exact"] is False
    assert doc["payload"]["window"] == "box(5)"


def test_con_rejects_an_all_window_set_to_false(capsys):
    code, stdout, stderr = run(
        capsys, ["con", str(FIXTURES / "pair_z4_parity.json"), "--window", '{"all": false}']
    )
    assert code == 4
    assert stdout == ""
    assert stderr.count("(at /window/all)") == 1


def test_con_on_free_abelian_rank_two_tuples(tmp_path, capsys):
    # Z^2 fixing two points: tuple entries are vectors written [x,y]
    def pair(*tokens):
        return write_manifest(tmp_path, "pair_z2sq.json", "pair", {
            "action": {"kind": "trivial", "group": {"family": "free-abelian", "rank": 2},
                       "points": ["p", "q"]},
            "tuple": list(tokens),
            "partition": {"kind": "blocks", "blocks": [["p"], ["q"]]},
        })

    code, doc, _ = run_json(capsys, ["con", pair("[1,0]", " [0, -2] ")], "report")
    assert code == 0
    assert doc["payload"]["configurations"] == [[1, 1, 1], [2, 2, 2]]
    code, stdout, stderr = run(capsys, ["con", pair("[1,0]", "[1]")])
    assert code == 4
    assert stdout == ""
    assert stderr == "error: bad element '[1]' for free-abelian(2) (at /payload/tuple/1)\n"


def test_con_on_two_copies_takes_the_whole_index_range(tmp_path, capsys):
    # a product with finitely many copies and no "indices" spans them all
    pair = write_manifest(tmp_path, "pair_copies.json", "pair", {
        "action": {"kind": "product", "copies": 2,
                   "base": {"kind": "left-translation", "group": {"family": "cyclic", "order": 2}}},
        "tuple": ["1"],
        "partition": {"kind": "blocks", "blocks": [["(0;0)", "(1;0)"], ["(0;1)", "(1;1)"]]},
    })
    code, doc, _ = run_json(capsys, ["con", pair, "--window", "all"], "report")
    assert code == 0
    assert doc["payload"]["configurations"] == [[1, 1], [2, 2]]
    assert doc["payload"]["window"] == "all(2)x[0..1]" and doc["payload"]["exact"] is True


def test_con_countable_needs_window(files, capsys):
    code, stdout, stderr = run(capsys, ["con", files["pair_z_res"]])
    assert code == 4
    assert stdout == ""
    assert stderr.startswith("error:")


def test_con_missing_arguments(files, capsys):
    code, _, stderr = run(capsys, ["con"])
    assert code == 4
    assert "error:" in stderr


# ---------------------------------------------------------------------------
# equiv


def test_equiv_distinguishes_z4_from_z22(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["equiv", files["g_z4"], files["g_z22"], "-n", "1", "-m", "2"],
        "report",
    )
    assert code == 2
    assert doc["payload"]["equivalent"] is False
    assert doc["payload"]["family-sizes"] == [5, 4]
    assert doc["payload"]["only-in-first"] is not None
    assert doc["payload"]["only-in-second"] is None
    assert doc["metadata"]["bounds"]["n"] == 1


def test_equiv_flag_style_and_self_equivalence(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["equiv", "--a", files["g_z4"], "--b", files["g_z4"], "-n", "1", "-m", "2"],
        "report",
    )
    assert code == 0
    assert doc["payload"]["equivalent"] is True
    assert doc["payload"]["only-in-first"] is None


@pytest.mark.parametrize("argv", [
    ["{g_z4}", "--a", "{g_z22}", "--b", "{g_z4}"],
    ["{g_z4}", "--b", "{g_z22}"],
    ["--a", "{g_z22}", "{g_z4}", "{g_z4}"],
], ids=["one-positional-both-flags", "one-positional-one-flag", "flag-and-two-positional"])
def test_equiv_mixed_argument_styles_is_input_error(files, capsys, argv):
    # a flag next to a positional manifest would be ignored, comparing the wrong pair
    code, stdout, stderr = run(
        capsys, ["equiv", *(a.format(**files) for a in argv), "-n", "1", "-m", "2"]
    )
    assert code == 4
    assert stdout == ""
    assert "error: equiv takes two positional manifests or --a/--b, not both" in stderr


def test_equiv_loads_action_and_pair_manifests(files, tmp_path, capsys):
    # an action manifest and a pair manifest stand for their actions
    action = write_manifest(
        tmp_path, "z4_action.json", "action",
        {"kind": "left-translation", "group": {"family": "cyclic", "order": 4}},
    )
    code, stdout, _ = run(capsys, ["equiv", action, files["pair_z4"], "-n", "1", "-m", "2"])
    assert code == 0
    assert (code, stdout) == run(
        capsys, ["equiv", files["g_z4"], files["g_z4"], "-n", "1", "-m", "2"]
    )[:2]


def test_equiv_on_two_actions_without_points(tmp_path, capsys):
    # no point to colour: both families are empty, hence equal
    action = write_manifest(tmp_path, "empty.json", "action",
                            {"kind": "trivial", "group": {"family": "cyclic", "order": 2},
                             "points": []})
    code, doc, _ = run_json(capsys, ["equiv", action, action, "-n", "1", "-m", "1"], "report")
    assert code == 0
    assert doc["payload"]["equivalent"] is True
    assert doc["payload"]["family-sizes"] == [0, 0]


@pytest.mark.parametrize("argv,message", [
    (["equiv", "{dec_singleton_z}", "{g_z4}", "-n", "1", "-m", "1"],
     "expected a group, action or pair manifest, got 'decomposition' (at /object-kind)"),
    (["equiv", "{g_z4}", "-n", "1", "-m", "1"],
     "equiv needs two manifests (positional or --a/--b)"),
    (["paradox", "verify", "--window", "all"],
     "paradox verify needs a decomposition manifest"),
    (["paradox", "construct"], "paradox construct needs a decomposition manifest or --kind"),
], ids=["equiv-decomposition", "equiv-one-manifest", "verify-no-manifest",
        "construct-no-manifest"])
def test_missing_or_wrong_manifests_exit_4(files, capsys, argv, message):
    code, stdout, stderr = run(capsys, [a.format(**files) for a in argv])
    assert (code, stdout, stderr) == (4, "", f"error: {message}\n")


@pytest.mark.parametrize("kind", ["table", "trivial"])
@pytest.mark.parametrize("point", [[0], {"x": 0}], ids=["array", "object"])
def test_non_scalar_action_points_are_input_errors(kind, point, tmp_path, capsys):
    payload = {"kind": kind, "group": {"family": "cyclic", "order": 2}, "points": [point, [1]]}
    if kind == "table":
        payload["rows"] = [[0, 1], [1, 0]]
    action = write_manifest(tmp_path, "action.json", "action", payload)
    code, stdout, stderr = run(
        capsys, ["equiv", action, str(FIXTURES / "group_z2.json"), "-n", "1", "-m", "1"]
    )
    assert code == 4
    assert stdout == ""
    assert stderr.startswith("error: ")
    assert stderr.count("(at /payload/points/0)") == 1


def test_equiv_on_two_presentations_matches_the_two_family_path(tmp_path, capsys, monkeypatch):
    # scripts/report_digests.py's Z4 against a relabelled Z4 table, in JSON
    # and text: decided from one family, with the output of building both
    commands = report_digests().conjugate_commands(tmp_path)
    built = []
    real = configurations._configuration_family
    monkeypatch.setattr(configurations, "_configuration_family",
                        lambda *args: built.append(1) or real(*args))
    shortcut = [run(capsys, argv) for _name, argv in commands]
    assert len(built) == len(commands)
    assert [code for code, _, _ in shortcut] == [0, 0]
    monkeypatch.setattr(configurations, "_conjugate", lambda rows1, rows2: False)
    assert [run(capsys, argv) for _name, argv in commands] == shortcut
    assert len(built) == 3 * len(commands)


def test_equiv_text_format(files, capsys):
    code, stdout, _ = run(
        capsys,
        ["equiv", files["g_z4"], files["g_z22"], "-n", "1", "-m", "2",
         "--format", "text"],
    )
    assert code == 2
    assert stdout.startswith("distinguished at n=1, m=2")
    assert "witness" in stdout


def test_equiv_usage_error_exits_4(files, capsys):
    code = main(["equiv", files["g_z4"], files["g_z22"], "-n", "1"])
    capsys.readouterr()
    assert code == 4


def test_equiv_cap_exit(files, capsys):
    code, stdout, stderr = run(
        capsys,
        ["equiv", files["g_z4"], files["g_z22"], "-n", "2", "-m", "4",
         "--cap", "5"],
    )
    assert code == 3
    assert "resource cap exceeded" in stderr


def test_equiv_tuple_cap_exit(files, capsys, monkeypatch):
    # Z4 has 15 partitions into at most 4 blocks, within the default cap;
    # its 4^12 tuples per partition are not
    monkeypatch.delenv("CONFPARA_CAP", raising=False)
    code, stdout, stderr = run(
        capsys, ["equiv", files["g_z4"], files["g_z4"], "-n", "12", "-m", "4"]
    )
    assert (code, stdout) == (3, "")
    assert stderr == ("resource cap exceeded: tuples per partition (4^12) "
                      "exceed the cap of 500000\n")


def test_equiv_cap_from_environment(files, capsys, monkeypatch):
    monkeypatch.setenv("CONFPARA_CAP", "5")
    code, _, stderr = run(
        capsys, ["equiv", files["g_z4"], files["g_z22"], "-n", "2", "-m", "4"]
    )
    assert code == 3
    assert "resource cap exceeded" in stderr


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_equiv_non_positive_cap_is_input_error(files, capsys, cap):
    code, stdout, stderr = run(
        capsys,
        ["equiv", files["g_z4"], files["g_z22"], "-n", "2", "-m", "4", "--cap", cap],
    )
    assert code == 4
    assert stdout == ""
    assert "error: --cap must be >= 1" in stderr


# ---------------------------------------------------------------------------
# prefixes


def test_prefixes_on_residue_pair(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["prefixes", files["pair_z_res"], "--depth", "1", "--window", "box=5"],
        "report",
    )
    assert code == 0
    assert doc["payload"]["prefixes"] == [[1, 2], [2, 1]]
    assert doc["payload"]["exact"] is False
    assert doc["payload"]["note"] == "window under-approximation"
    assert doc["metadata"]["bounds"]["depth"] == 1


def test_prefixes_json_window_flag(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["prefixes", files["pair_z_res"], "--depth", "1",
         "--window", '{"box": 4}'],
        "report",
    )
    assert code == 0
    assert doc["payload"]["window"] == "box(4)"


def test_prefixes_depth_error(files, capsys):
    code, _, stderr = run(
        capsys,
        ["prefixes", files["pair_z_res"], "--depth", "3", "--window", "box=4"],
    )
    assert code == 4
    assert "depth exceeds" in stderr


@pytest.mark.parametrize("fixture,depth,window", [
    ("pair_z4_parity.json", 2, "all"),
    ("pair_z4_parity.json", 2, "prefix=2"),
    ("pair_z_residue2.json", 1, "box=5"),
])
def test_con_and_full_depth_prefixes_agree(capsys, fixture, depth, window):
    path = str(FIXTURES / fixture)
    code, con, _ = run_json(capsys, ["con", path, "--window", window], "report")
    assert code == 0
    code, pre, _ = run_json(
        capsys, ["prefixes", path, "--depth", str(depth), "--window", window], "report"
    )
    assert code == 0
    assert con["payload"]["configurations"] == pre["payload"]["prefixes"]
    assert con["payload"]["exact"] == pre["payload"]["exact"]
    assert con["payload"]["window"] == pre["payload"]["window"]


# ---------------------------------------------------------------------------
# recover


def test_recover_from_pair(files, capsys):
    code, doc, _ = run_json(capsys, ["recover", files["pair_z4"]], "report")
    assert code == 0
    p = doc["payload"]
    assert p["status"] == "recovered"
    assert p["subgroup"] == ["0", "2"]
    assert p["subgroup-order"] == 2
    assert p["coset-count"] == 2
    assert p["normal-and-iso"] is True
    assert p["refinement"]["matched"] is False
    assert "no quotient pair" in p["refinement"]["conclusion"]


def test_recover_with_target_group(files, capsys):
    code, doc, _ = run_json(
        capsys, ["recover", files["pair_z4"], "--g", files["g_z2"]], "report"
    )
    assert code == 0
    assert doc["payload"]["subgroup"] == ["0", "2"]


def test_recover_flag_style(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["recover", "--h", files["g_z4"], "--tuple", "0,1",
         "--partition", files["part_z4"]],
        "report",
    )
    assert code == 0
    assert doc["payload"]["status"] == "recovered"


def test_recover_with_a_target_table_whose_identity_is_not_0(tmp_path, capsys):
    # the target's enumeration starts at its identity, so --g recovers the
    # cosets that the pair's own table recovers, under the target's labels
    group = {"family": "table", "table": [[1, 0], [0, 1]], "identity": 1}
    g = write_manifest(tmp_path, "g.json", "group", group)
    pair = write_manifest(tmp_path, "pair.json", "pair", {
        "action": {"kind": "left-translation", "group": group},
        "tuple": ["1", "0"],
        "partition": {"kind": "blocks", "blocks": [["1"], ["0"]]},
    })
    code, doc, _ = run_json(capsys, ["recover", pair, "--g", g], "report")
    assert code == 0
    assert doc["payload"]["status"] == "recovered"
    assert doc["payload"]["isomorphism"] == [["1", 1], ["0", 2]]
    _code, own, _ = run_json(capsys, ["recover", pair], "report")
    assert own["payload"]["isomorphism"] == [["1", 1], ["2", 2]]
    assert {**own["payload"], "isomorphism": None} == {**doc["payload"], "isomorphism": None}


def _s3_right_translation():
    """S3 on itself by g.x = x g^-1, with singleton blocks."""
    s3 = symmetric(3)
    points = list(s3.elements())
    rows = [[s3.mul(x, s3.inv(g)) for x in points] for g in points]
    return {"family": "symmetric", "degree": 3}, points, rows, points, [[x] for x in points]


@pytest.mark.parametrize("group, points, rows, elements, blocks", [
    _s3_right_translation(),
    ({"family": "cyclic", "order": 2}, [0, 1, 2, 3], [[0, 1, 2, 3], [1, 0, 3, 2]],
     [0, 1], [[0, 2], [1, 3]]),
], ids=["s3-right-translation", "z2-on-four-points"])
def test_recover_refuses_a_pair_whose_action_is_not_left_translation(
        tmp_path, capsys, group, points, rows, elements, blocks):
    # recovery matches left translation's configuration set; read off another
    # action, the table was refuted (S3) or the partition missed a point (Z2)
    path = write_manifest(tmp_path, "pair.json", "pair", {
        "action": {"kind": "table", "group": group, "points": [str(x) for x in points],
                   "rows": rows},
        "tuple": [str(g) for g in elements],
        "partition": {"kind": "blocks", "blocks": [[str(x) for x in b] for b in blocks]},
    })
    code, stdout, stderr = run(capsys, ["recover", path])
    assert (code, stdout) == (4, "")
    assert stderr == "error: recovery needs a pair whose action is left translation\n"


@pytest.mark.parametrize("command, flag", [("con", "--action"), ("recover", "--h")])
def test_incomplete_pair_flags_name_the_commands_own_flag(files, capsys, command, flag):
    code, stdout, stderr = run(capsys, [command, "--tuple", "0,1"])
    assert code == 4 and stdout == ""
    assert f"or all of {flag}/--tuple/--partition" in stderr


def test_pair_flag_errors_name_the_flag_or_file(files, capsys):
    code, stdout, stderr = run(capsys, ["con", "--action", files["g_z4"], "--tuple", "0,x",
                                        "--partition", files["part_z4"]])
    assert (code, stdout) == (4, "")
    assert stderr == "error: unknown element 'x' of Z4 (at --tuple)\n"
    residue = str(FIXTURES / "partition_z_residue2.json")
    code, stdout, stderr = run(capsys, ["con", "--action", files["g_z4"], "--tuple", "0,1",
                                        "--partition", residue])
    assert (code, stdout) == (4, "")
    assert stderr == (
        "error: residue partitions live on the integers translating themselves "
        f"(at /payload/kind) in --partition {residue}\n"
    )


def test_partition_cover_errors_name_the_partition_file(files, capsys, tmp_path):
    parity = str(FIXTURES / "partition_z4_parity.json")
    code, stdout, stderr = run(capsys, ["con", "--action", str(FIXTURES / "group_z.json"),
                                        "--tuple", "0,1", "--partition", parity,
                                        "--window", "box=3"])
    assert (code, stdout) == (4, "")
    assert stderr == (
        f"error: explicit partitions require a finite point set in --partition {parity}\n"
    )
    short = write_manifest(tmp_path, "short.json", "partition",
                           {"kind": "blocks", "blocks": [["0", "2"], ["1"]]})
    code, stdout, stderr = run(capsys, ["con", "--action", files["g_z4"], "--tuple", "0,1",
                                        "--partition", short])
    assert (code, stdout) == (4, "")
    assert stderr == (
        f"error: partition does not cover the point set; missing [3] in --partition {short}\n"
    )
    # a pair manifest names no flag
    pair = write_manifest(tmp_path, "pair_short.json", "pair", {
        "action": {"kind": "left-translation", "group": {"family": "cyclic", "order": 4}},
        "tuple": ["0", "1"],
        "partition": {"kind": "blocks", "blocks": [["0", "2"], ["1"]]},
    })
    code, stdout, stderr = run(capsys, ["con", pair])
    assert (code, stdout) == (4, "")
    assert stderr == "error: partition does not cover the point set; missing [3]\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_recover_computes_the_configuration_set_once(capsys, monkeypatch, fmt):
    # the table is read off the same set that recovery matches; recovering
    # from the set recomputed prints the same bytes
    from confpara import reconstruction

    argv = ["recover", str(FIXTURES / "pair_z4_parity.json"), "--format", fmt]
    calls = []
    for module in (cli, reconstruction):
        real = module.windowed_configuration_set
        monkeypatch.setattr(module, "windowed_configuration_set",
                            lambda *a, real=real: calls.append(a) or real(*a))
    code, once, _ = run(capsys, argv)
    assert code == 0 and len(calls) == 1
    recover = cli.recover_cosets
    monkeypatch.setattr(cli, "recover_cosets",
                        lambda group, pair, table, _configs: recover(group, pair, table))
    assert run(capsys, argv)[:2] == (0, once)
    assert len(calls) == 3


def test_prefix_window_longer_than_a_finite_group(capsys):
    code, stdout, stderr = run(capsys, ["con", str(FIXTURES / "pair_z4_parity.json"),
                                        "--window", "prefix=5"])
    assert (code, stdout) == (4, "")
    assert stderr == "error: prefix window of 5 elements is longer than Z4, of order 4\n"
    code, _doc, _ = run_json(capsys, ["con", str(FIXTURES / "pair_z4_parity.json"),
                                      "--window", "prefix=4"], "report")
    assert code == 0


def test_recover_refinement_skips_under_cap(files, capsys):
    code, doc, _ = run_json(
        capsys, ["recover", files["pair_z4"], "--cap", "3"], "report"
    )
    assert code == 0
    assert "skipped" in doc["payload"]["refinement"]


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_recover_non_positive_cap_is_input_error(files, capsys, cap):
    # rejected before any recovery work, so a non-matching pair is no refutation
    for pair in ("pair_z4", "pair_z4_const"):
        code, stdout, stderr = run(capsys, ["recover", files[pair], "--cap", cap])
        assert code == 4
        assert stdout == ""
        assert "error: --cap must be >= 1" in stderr


def test_recover_non_matching_pair_is_refuted(files, capsys):
    code, stdout, _ = run(capsys, ["recover", files["pair_z4_const"]])
    assert code == 2
    doc = json.loads(stdout)
    assert doc["object-kind"] == "report"
    assert doc["payload"]["status"] == "refuted"
    assert doc["payload"]["reason"]


@pytest.mark.parametrize("group, elements, blocks, failures", [
    ({"family": "cyclic", "order": 4}, "0,2", [["0", "1"], ["2", "3"]],
     ["{'identity': 'subgroup-inverse', 'witness': '1'}", "{'identity': 'subgroup-closure'}"]),
    ({"family": "symmetric", "degree": 3}, "0,3,4", [["0", "2"], ["3", "5"], ["1", "4"]],
     ["{'identity': 'normality', 'witness': '1'}"]),
], ids=["z4-over-z2", "s3-over-z3"])
def test_recover_prints_the_certificate_of_a_refuted_recovery(
        tmp_path, capsys, group, elements, blocks, failures):
    # each tuple realizes the canonical set of Z_n, n blocks, but does not
    # generate, and the recovered blocks are no cosets of a normal subgroup
    h = write_manifest(tmp_path, "h.json", "group", group)
    g = write_manifest(tmp_path, "g.json", "group", {"family": "cyclic", "order": len(blocks)})
    part = write_manifest(tmp_path, "part.json", "partition", {"kind": "blocks", "blocks": blocks})
    argv = ["recover", "--h", h, "--tuple", elements, "--partition", part, "--g", g]
    code, doc, _ = run_json(capsys, argv, "report")
    p = doc["payload"]
    assert (code, p["status"], p["normal-and-iso"]) == (2, "refuted", False)
    assert p["failures"] == failures
    assert p["refinement"] == {"skipped": "recovery not certified"}
    code, stdout, _ = run(capsys, argv + ["--format", "text"])
    assert code == 2
    assert f"normal subgroup and index isomorphism FAILED: {failures}\n" in stdout
    assert stdout.endswith("refinement: skipped (recovery not certified)\n")


@pytest.mark.parametrize("argv", [
    ["con"], ["prefixes", "--depth", "1", "--window", "all"], ["recover"],
], ids=["con", "prefixes", "recover"])
def test_every_command_refutes_a_false_generating_claim(tmp_path, capsys, argv):
    # the same report bytes from every command, and one line under text
    pair = json.loads((FIXTURES / "pair_z4_parity.json").read_text())["payload"]
    path = write_manifest(tmp_path, "pair.json", "pair",
                          {**pair, "tuple": ["0", "2"], "generating": True})
    reason = "pair asserts a generating tuple but the elements do not generate"
    assert run(capsys, [argv[0], path, *argv[1:]]) == (2, f"""{{
  "metadata": {{
    "enumeration-codec": "zigzag-shortlex",
    "pairing-function": "cantor"
  }},
  "object-kind": "report",
  "payload": {{
    "reason": "{reason}",
    "status": "refuted"
  }},
  "schema-version": 1
}}
""", "")
    assert run(capsys, [argv[0], path, *argv[1:], "--format", "text"]) == (
        2, f"refuted: {reason}\n", "")


def test_recover_refutes_a_pair_with_more_configurations_than_elements(tmp_path, capsys):
    pair = write_manifest(tmp_path, "pair.json", "pair", {
        "action": {"kind": "left-translation", "group": {"family": "cyclic", "order": 4}},
        "tuple": ["0"],
        "partition": {"kind": "blocks", "blocks": [["0"], ["1"], ["2"], ["3"]]},
    })
    code, doc, _ = run_json(capsys, ["recover", pair], "report")
    assert code == 2
    assert doc["payload"] == {"status": "refuted",
                              "reason": "expected 1 distinct configurations, found 4"}


def test_recover_refuses_a_countable_pair(capsys):
    code, stdout, stderr = run(capsys, ["recover", str(FIXTURES / "pair_z_residue2.json")])
    assert code == 4
    assert stdout == ""
    assert stderr == "error: recovery runs on finite instances\n"


def test_recover_text_format(files, capsys):
    code, stdout, _ = run(
        capsys, ["recover", files["pair_z4"], "--format", "text"]
    )
    assert code == 0
    assert "subgroup F1 = {0, 2}" in stdout
    assert "certified" in stdout


# ---------------------------------------------------------------------------
# paradox verify


def test_verify_singleton_decomposition(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["paradox", "verify", files["dec_singleton_z"], "--window", "box=4"],
        "verdict",
    )
    assert code == 0
    p = doc["payload"]
    assert p["status"] == "verified-up-to"
    assert p["points-checked"] == 9
    assert p["witness"] is None
    assert doc["metadata"]["bounds"]["index-bound"] == 40


def test_verify_f2_with_json_window(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["paradox", "verify", files["dec_f2"],
         "--window", '{"ball": 4}', "--index-bound", "2"],
        "verdict",
    )
    assert code == 0
    assert doc["payload"]["points-checked"] == 161


def test_verify_refined_f2_whatever_the_index_bound(files, capsys):
    # the refined pieces name their claimants, so the bound costs nothing
    path = write_manifest(
        files["dir"], "dec_refined.json", "decomposition",
        {"construction": "refine-singletons", "inner": {"construction": "free2-standard"}},
    )
    code, doc, _ = run_json(
        capsys,
        ["paradox", "verify", path, "--window", "ball=3", "--index-bound", "1000000"],
        "verdict",
    )
    assert code == 0
    assert doc["payload"]["status"] == "verified-up-to"
    assert doc["payload"]["points-checked"] == 53


def test_verify_refuted_decomposition(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["paradox", "verify", files["dec_broken"], "--window", "box=1"],
        "verdict",
    )
    assert code == 2
    w = doc["payload"]["witness"]
    assert w["point"] == "0"
    assert w["equation"] == "b-cover-membership"


def test_verify_formats_free_abelian_rank_two_witnesses(tmp_path, capsys):
    dec = write_manifest(tmp_path, "dec_z2sq.json", "decomposition", {
        "group": {"family": "free-abelian", "rank": 2},
        "a-pieces": [{"family": "explicit", "points": ["[0,0]"]}],
        "a-translators": ["[0,0]"],
        "a-cover": "scan",
        "b-pieces": [{"family": "explicit", "points": ["[1,-1]"]}],
        "b-translators": ["[0,0]"],
        "b-cover": "scan",
    })
    code, doc, _ = run_json(capsys, ["paradox", "verify", dec, "--window", "box=1"], "verdict")
    assert code == 2
    assert doc["payload"]["witness"]["point"] == "[0,0]"


def test_verify_text_format(files, capsys):
    code, stdout, _ = run(
        capsys,
        ["paradox", "verify", files["dec_broken"], "--window", "box=1",
         "--format", "text"],
    )
    assert code == 2
    assert stdout.startswith("refuted on box(1)")
    assert "witness: b-cover-membership fails at 0" in stdout


def test_verify_wrong_manifest_kind(files, capsys):
    code, _, stderr = run(
        capsys, ["paradox", "verify", files["g_z4"], "--window", "all"]
    )
    assert code == 4
    assert "error:" in stderr


def test_verify_missing_file(files, capsys):
    code, _, stderr = run(
        capsys,
        ["paradox", "verify", str(files["dir"] / "nope.json"), "--window", "all"],
    )
    assert code == 4
    assert "cannot read" in stderr


def test_verify_overlapping_pieces_exits_4(files, capsys):
    # MalformedOracleError: a-pieces 1 and 2 both claim the words starting with a
    explicit = json.loads((FIXTURES / "decomposition_f2_explicit.json").read_text())
    explicit["payload"]["a-pieces"][1] = {"family": "first-letter", "letter": "a"}
    path = files["dir"] / "dec_overlap.json"
    path.write_text(json.dumps(explicit))
    code, stdout, stderr = run(
        capsys,
        ["paradox", "verify", str(path), "--window", "ball=2", "--index-bound", "2"],
    )
    assert code == 4
    assert stdout == ""
    assert stderr.startswith("error: ") and "overlap" in stderr


def test_recover_countable_target_group_exits_4(files, capsys):
    # UnsupportedOperationError: a countable target group has no element list
    code, stdout, stderr = run(
        capsys,
        ["recover", "--h", files["g_z4"], "--tuple", "0,1",
         "--partition", files["part_z4"], "--g", files["g_z"]],
    )
    assert code == 4
    assert stdout == ""
    assert stderr.startswith("error: ") and "not finite" in stderr


def _table_pair(table, **group):
    """A pair manifest argument over left translation of a table group."""
    return ("pair", {"action": {"kind": "left-translation",
                                "group": {"family": "table", "table": table, "identity": 0,
                                          **group}},
                     "tuple": ["0"], "partition": {"kind": "blocks", "blocks": [["0"]]}})


Z4_TRANSLATION = {"kind": "left-translation", "group": {"family": "cyclic", "order": 4}}
# an order-5 loop: a Latin square with an identity, yet (1 1) c differs
# from 1 (1 c), so its left translation is no action
LOOP5 = {"family": "table", "identity": 0,
         "table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                   [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}
Z_GROUP = {"family": "free-abelian", "rank": 1}
F2_EXPLICIT = json.loads((FIXTURES / "decomposition_f2_explicit.json").read_text())["payload"]


@pytest.mark.parametrize("argv, message", [
    (["con", ("pair", {"action": Z4_TRANSLATION, "tuple": "0",
                       "partition": {"kind": "blocks", "blocks": [["0", "2"], ["1", "3"]]}})],
     "expected an array, got str (at /payload/tuple)"),
    (["con", ("pair", {"action": {"kind": "trivial", "group": {"family": "cyclic", "order": 2},
                                  "points": ["p"], "countable": True},
                       "tuple": ["0"], "partition": {"kind": "blocks", "blocks": [["p"]]}})],
     "countable trivial action takes no explicit points (at /payload/action/points)"),
    (["con", ("pair", {"action": Z4_TRANSLATION, "tuple": ["0"],
                       "partition": {"kind": "blocks", "blocks": [["0", "2"], ["1", "2", "3"]]}})],
     "block 2 overlaps an earlier block (at /payload/partition/blocks)"),
    (["paradox", "verify", str(FIXTURES / "decomposition_singleton_z.json"),
      "--window", "box=3,indices=a..b"],
     "bad index range 'a..b'"),
    (["paradox", "verify", ("decomposition", {**F2_EXPLICIT, "a-pieces": [
        {"family": "circle"}, F2_EXPLICIT["a-pieces"][1]]}), "--window", "ball=1"],
     "unknown piece family 'circle' (at /payload/a-pieces/0/family)"),
    (["paradox", "verify", ("decomposition", {**F2_EXPLICIT, "a-pieces": [
        F2_EXPLICIT["a-pieces"][0],
        {**F2_EXPLICIT["a-pieces"][1], "include": "a-neg-powers"}]}), "--window", "ball=1"],
     "a first-letter piece takes include or exclude, not both "
     "(at /payload/a-pieces/1/exclude)"),
    (["paradox", "verify", ("decomposition", {
        "construction": "glue", "copies": 2, "inner": {
            "construction": "glue", "copies": 2,
            "inner": {"construction": "singleton", "group": Z_GROUP}}}), "--window", "box=1"],
     "glue expects an inner decomposition of the group itself (at /payload/inner)"),
    (["paradox", "verify", ("decomposition", {
        "construction": "glue", "copies": 2, "mode": "uniform",
        "inner": {"construction": "singleton", "group": Z_GROUP}}), "--window", "box=1"],
     "unknown field 'mode' (at /payload/mode)"),
    (["paradox", "verify", ("decomposition", {**F2_EXPLICIT, "a-translators": ["e", "a^x"]}),
      "--window", "ball=1"],
     "bad exponent in 'a^x' (at /payload/a-translators/1)"),
    (["prefixes", ("pair", {"action": {"kind": "trivial", "group": Z_GROUP, "countable": True},
                            "tuple": ["0"],
                            "partition": {"kind": "blocks", "blocks": [["0"], ["1"]]}}),
      "--depth", "1", "--window", "ball=2"],
     "no window of kind ['ball'] for trivial action"),
    (["con", _table_pair([])],
     "bad multiplication table: empty multiplication table (at /payload/action/group/table)"),
    (["con", _table_pair([[0, 1, 2], [2, 0, 1], [1, 2, 0]])],
     "bad multiplication table: index 0 is not a two-sided identity "
     "(at /payload/action/group/table)"),
    (["equiv", ("group", LOOP5), ("group", LOOP5), "-n", "1", "-m", "2"],
     "bad multiplication table: not associative at (1, 1) (at /payload/table)"),
    (["con", _table_pair([[0, 1], [1, 0]], labels=["e"])],
     "labels length must match table size (at /payload/action/group/labels)"),
    (["con", ("pair", {"action": {"kind": "left-translation",
                                  "group": {"family": "free-abelian", "rank": 2}},
                       "tuple": ["1"], "partition": {"kind": "blocks", "blocks": [["[0,0]"]]}})],
     "bad element '1' for free-abelian(2) (at /payload/tuple/0)"),
    (["con", ("pair", {"action": {"kind": "trivial", "group": {"family": "cyclic", "order": 2},
                                  "points": ["p", "p"]},
                       "tuple": ["0"], "partition": {"kind": "blocks", "blocks": [["p"]]}})],
     "duplicate points (at /payload/action/points)"),
], ids=["tuple-not-an-array", "countable-trivial-with-points", "overlapping-blocks",
        "bad-index-range", "unknown-piece-family", "include-and-exclude", "glue-of-a-glue",
        "glue-with-a-mode",
        "bad-exponent", "no-ball-for-a-trivial-action", "empty-table", "one-sided-identity",
        "non-associative-table", "labels-of-the-wrong-length", "rank-2-token-without-brackets",
        "trivial-action-with-duplicate-points"])
def test_refused_input_exits_4_with_its_message(tmp_path, capsys, argv, message):
    # a (kind, payload) argument is written to a manifest file first
    argv = [write_manifest(tmp_path, f"m{i}.json", *a) if isinstance(a, tuple) else a
            for i, a in enumerate(argv)]
    assert run(capsys, argv) == (4, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# paradox construct


def test_construct_singleton_inline_group(files, capsys):
    code, stdout, _ = run(
        capsys,
        ["paradox", "construct", "--kind", "singleton",
         "--group", '{"family": "free-abelian", "rank": 1}'],
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["object-kind"] == "decomposition"
    assert doc["payload"]["construction"] == "singleton"
    assert doc["metadata"]["construction-kind"] == "singleton"


def test_construct_with_self_check(files, capsys):
    code, stdout, _ = run(
        capsys,
        ["paradox", "construct", "--kind", "free2-standard",
         "--window", "ball=2", "--index-bound", "2"],
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["metadata"]["verdict"]["status"] == "verified-up-to"
    assert doc["metadata"]["verdict"]["points-checked"] == 17


def test_construct_lift(files, capsys):
    code, stdout, _ = run(
        capsys,
        ["paradox", "construct", "--kind", "lift", "--group", files["g_z"],
         "--witness", "even-integers", "--window", "box=6"],
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["payload"]["witness"] == "even-integers"
    assert doc["metadata"]["verdict"]["status"] == "verified-up-to"


def test_construct_writes_output_file(files, capsys, tmp_path):
    target = tmp_path / "out" / "dec.json"
    target.parent.mkdir()
    code, stdout, stderr = run(
        capsys,
        ["paradox", "construct", "--kind", "singleton", "--group", files["g_z"],
         "--out", str(target)],
    )
    assert code == 0
    assert f"wrote {target}" in stderr
    on_disk = json.loads(target.read_text())
    assert on_disk == json.loads(stdout)
    # the written manifest is directly consumable by verify
    code2, doc, _ = run_json(
        capsys, ["paradox", "verify", str(target), "--window", "box=3"], "verdict"
    )
    assert code2 == 0


def test_construct_from_manifest_echoes_payload(files, capsys):
    code, stdout, _ = run(
        capsys,
        ["paradox", "construct", files["dec_broken"], "--window", "box=1"],
    )
    assert code == 2  # built fine, self-check refutes
    doc = json.loads(stdout)
    assert doc["payload"]["a-translators"] == ["0"]
    assert doc["metadata"]["verdict"]["status"] == "refuted"


def test_construct_text_format(files, capsys):
    code, stdout, _ = run(
        capsys,
        ["paradox", "construct", "--kind", "singleton", "--group", files["g_z"],
         "--format", "text"],
    )
    assert code == 0
    assert "construction: singleton" in stdout


def test_construct_text_format_with_self_check(files, capsys):
    code, stdout, _ = run(
        capsys,
        ["paradox", "construct", "--kind", "free2-standard", "--window", "ball=1",
         "--index-bound", "3", "--format", "text"],
    )
    assert code == 0
    assert stdout == ("construction: free2-standard\n"
                      "self-check: verified-up-to on ball(1) (index bound 3)\n")


@pytest.mark.parametrize("bound, code", [("4", 0), ("3", 4)])
def test_construct_compress_takes_its_detection_bound(capsys, bound, code):
    got, stdout, stderr = run(
        capsys,
        ["paradox", "construct", "--kind", "compress", "--bound", bound,
         "--inner", str(FIXTURES / "decomposition_f2_standard.json")],
    )
    assert got == code
    if code == 0:
        doc = json.loads(stdout)
        assert doc["payload"]["bound"] == 4
        assert doc["metadata"]["construction-kind"] == "compress"
    else:
        assert stderr == "error: expected an integer >= 4, got 3 (at /payload/bound)\n"


def test_construct_glue_from_flags(files, capsys):
    code, stdout, _ = run(
        capsys,
        ["paradox", "construct", "--kind", "glue", "--copies", "countable",
         "--inner", files["dec_singleton_z"],
         "--window", "box=3,indices=0..1", "--index-bound", "12"],
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["metadata"]["verdict"]["status"] == "verified-up-to"
    assert doc["metadata"]["verdict"]["points-checked"] == 14


def test_construct_glue_has_no_mode_flag(files, capsys):
    code, stdout, stderr = run(
        capsys,
        ["paradox", "construct", "--kind", "glue", "--mode", "uniform", "--copies", "2",
         "--inner", files["dec_singleton_z"]],
    )
    assert (code, stdout) == (4, "")
    assert stderr.endswith("error: unrecognized arguments: --mode\n")


DECOMPOSITION_FIXTURES = ["f2_standard", "f2_explicit", "singleton_z", "lift_even"]


@pytest.mark.parametrize("flags", [
    ["--kind", "refine-singletons"],
    ["--kind", "compress"],
    *(["--kind", "glue", "--copies", copies] for copies in ("2", "countable")),
], ids=lambda flags: "-".join(flags[1::2]))
@pytest.mark.parametrize("fixture", DECOMPOSITION_FIXTURES)
def test_construct_over_every_fixture_ends_with_a_documented_exit(fixture, flags, capsys):
    # an uncaught exception would escape main() and fail the test before
    # the exit code is read; a documented outcome is a code and a message
    window = "prefix=6,indices=0..1" if "glue" in flags else "prefix=6"
    code, _, stderr = run(
        capsys,
        ["paradox", "construct", *flags, "--window", window, "--index-bound", "50",
         "--inner", str(FIXTURES / f"decomposition_{fixture}.json")],
    )
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr


@pytest.mark.parametrize("fixture", ["singleton_z", "lift_even"])
def test_refining_countably_many_pieces_is_unsupported(fixture, capsys):
    # nothing is refuted: the refinement is not defined for such a family
    code, stdout, stderr = run(
        capsys,
        ["paradox", "construct", "--kind", "refine-singletons",
         "--inner", str(FIXTURES / f"decomposition_{fixture}.json")],
    )
    assert code == 4
    assert stdout == ""
    assert stderr == "error: singleton refinement expects finite piece families\n"


@pytest.mark.parametrize("fixture", ["f2_standard", "f2_explicit"])
def test_construct_glue_of_finite_pieces(fixture, capsys):
    code, stdout, _ = run(
        capsys,
        ["paradox", "construct", "--kind", "glue", "--copies", "2", "--inner", str(FIXTURES / f"decomposition_{fixture}.json"),
         "--window", '{"ball": 2, "indices": [0, 1]}', "--index-bound", "10"],
    )
    assert code == 0
    assert json.loads(stdout)["metadata"]["verdict"]["status"] == "verified-up-to"


def test_construct_uncompressible_inner_is_input_error(files, capsys):
    code, _, stderr = run(
        capsys,
        ["paradox", "construct", "--kind", "compress",
         "--inner", files["dec_singleton_z"]],
    )
    assert code == 4
    assert "not compressible" in stderr


def test_construct_bad_inline_group_json(files, capsys):
    code, _, stderr = run(
        capsys,
        ["paradox", "construct", "--kind", "singleton", "--group", "{oops"],
    )
    assert code == 4
    assert "bad group JSON" in stderr


@pytest.mark.parametrize("case", ["unwritable-out", "non-utf8-manifest", "non-integer-copies"])
def test_unusable_files_and_flags_are_input_errors(case, files, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00bad")
    argv = {
        "unwritable-out": ["paradox", "construct", "--kind", "singleton", "--group",
                           files["g_z"], "--out", str(tmp_path / "missing" / "x.json")],
        "non-utf8-manifest": ["paradox", "verify", str(bad), "--window", "ball=1"],
        "non-integer-copies": ["paradox", "construct", "--kind", "glue", "--copies", "x",
                               "--inner", files["dec_singleton_z"]],
    }[case]
    code, _, stderr = run(capsys, argv)
    assert code == 4
    assert stderr.startswith("error: ")


# ---------------------------------------------------------------------------
# output determinism


def test_reports_are_byte_identical_across_runs(files, capsys):
    _, first, _ = run(capsys, ["con", files["pair_z4"]])
    _, second, _ = run(capsys, ["con", files["pair_z4"]])
    assert first == second
    _, v1, _ = run(
        capsys, ["paradox", "verify", files["dec_f2"], "--window", "ball=3",
                 "--index-bound", "2"],
    )
    _, v2, _ = run(
        capsys, ["paradox", "verify", files["dec_f2"], "--window", "ball=3",
                 "--index-bound", "2"],
    )
    assert v1 == v2


# ---------------------------------------------------------------------------
# one parser per process


def report_digests():
    """scripts/report_digests.py, loaded as a module."""
    path = pathlib.Path(__file__).parent.parent / "scripts" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_commands(out_dir):
    """scripts/report_digests.py's list of the README's command examples."""
    return report_digests().readme_commands(out_dir)


def test_repeated_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    # every subcommand, a usage error and --help, twice over in one process,
    # then each once more on a parser of its own
    commands = readme_commands(tmp_path)
    session = [argv for _name, argv in commands[:4]]
    session += [["equiv", "-n", "1"], ["--help"]]  # usage error, help
    session += [argv for _name, argv in commands[4:]]

    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    cli._parser.cache_clear()
    try:
        first = [run(capsys, argv) for argv in session]
        again = [run(capsys, argv) for argv in session]
        assert len(built) == 1
        fresh = []
        for argv in session:
            cli._parser.cache_clear()
            fresh.append(run(capsys, argv))
        assert len(built) == 1 + len(session)
    finally:
        cli._parser.cache_clear()
    assert again == first
    assert fresh == first
    codes = [code for code, _, _ in first]
    assert codes == [0, 0, 2, 0, 4, 0, 0, 0, 0]
    _, usage_out, usage_err = first[4]
    assert usage_out == "" and usage_err.startswith("usage: confpara equiv")
    _, help_out, help_err = first[5]
    assert help_out.startswith("usage: confpara") and help_err == ""
