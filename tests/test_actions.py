"""Actions and their windows."""

import pytest

from confpara.actions import (
    LeftTranslation,
    ProductAction,
    TableAction,
    TrivialAction,
)
from confpara.catalog import cyclic, symmetric
from confpara.errors import InputError, UnsupportedOperationError
from confpara.groups import FreeAbelianGroup, FreeGroup


def test_left_translation_windows():
    act = LeftTranslation(cyclic(5))
    w = act.window({"all": True})
    assert w.label == "all(5)" and len(w) == 5

    z = LeftTranslation(FreeAbelianGroup(1))
    w = z.window({"box": 3})
    assert sorted(w.point_set) == list(range(-3, 4))
    with pytest.raises(InputError):
        z.window({"all": True})
    with pytest.raises(InputError):
        z.window({"ball": 2})  # balls belong to free groups

    f = LeftTranslation(FreeGroup(2))
    assert len(f.window({"ball": 2})) == 17
    assert len(f.window({"prefix": 9})) == 9


def test_table_action_validates_rows():
    z3 = cyclic(3)
    pts = ["p", "q", "r"]
    rot = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    with pytest.raises(InputError):
        TableAction(z3, pts, rot)  # row 2 is not the identity's action
    ok = TableAction(z3, pts, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert ok.act(1, "p") == "q"
    assert ok.act(2, "p") == "r"


def test_table_action_rejects_non_action_table():
    z4 = cyclic(4)
    pts = [0, 1]
    # g=1 swaps, but g=2 must then be the identity on points; saying it
    # swaps again is fine (Z4 -> Z2 factor), squaring to a non-identity is not
    bad = [[0, 1], [1, 0], [1, 0], [0, 1]]
    with pytest.raises(InputError):
        TableAction(z4, pts, bad)


def test_trivial_action_modes():
    g = cyclic(3)
    fin = TrivialAction(g, points=["x", "y"])
    assert fin.act(2, "x") == "x"
    assert fin.points() == ("x", "y")

    nat = TrivialAction(g, countable=True)
    assert nat.act(1, 7) == 7
    w = nat.window({"prefix": 4})
    assert list(w) == [0, 1, 2, 3]
    assert nat.parse_point(" 7 ") == 7 and nat.format_point(7) == "7"
    with pytest.raises(InputError, match="bad point 'x'"):
        nat.parse_point(" x")
    with pytest.raises(InputError, match="points are natural numbers"):
        nat.parse_point("-1")
    with pytest.raises(UnsupportedOperationError):
        nat.points()
    with pytest.raises(InputError):
        TrivialAction(g)
    with pytest.raises(InputError):
        TrivialAction(g, points=["x"], countable=True)


def test_table_action_point_tokens_and_window():
    act = TableAction(cyclic(2), ["p", 7], [[0, 1], [1, 0]])
    assert act.parse_point(" p ") == "p"
    assert act.parse_point("7") == 7  # an integer point is named by its digits
    for bad in ("q", "8"):
        with pytest.raises(InputError, match=f"unknown point {bad!r}"):
            act.parse_point(bad)
    assert [act.format_point(x) for x in act.points()] == ["p", "7"]
    w = act.window({"all": True})
    assert w.label == "all(2)" and w.points == ("p", 7)
    with pytest.raises(InputError, match="only support the 'all' window"):
        act.window({"prefix": 1})


def test_finite_trivial_action_point_tokens():
    act = TrivialAction(cyclic(3), points=["x", 4])
    assert act.parse_point("x") == "x"
    assert act.parse_point(" 4") == 4
    for bad in ("y", "5"):
        with pytest.raises(InputError, match=f"unknown point {bad!r}"):
            act.parse_point(bad)
    assert [act.format_point(x) for x in act.points()] == ["x", "4"]


def test_countable_trivial_action_rejects_a_negative_prefix():
    nat = TrivialAction(FreeAbelianGroup(1), countable=True)
    with pytest.raises(InputError, match="window size must be >= 0"):
        nat.window({"prefix": -2})
    assert nat.window({"prefix": 0}).points == ()


def test_prefix_window_on_a_finite_group():
    w = LeftTranslation(cyclic(4)).window({"prefix": 3})
    assert w.label == "prefix(3)" and w.points == (0, 1, 2)
    s3 = symmetric(3)
    assert LeftTranslation(s3).window({"prefix": 6}).points == s3.elements()


def test_product_action_points_and_windows():
    base = LeftTranslation(cyclic(3))
    prod = ProductAction(base, 2)
    assert len(prod.points()) == 6
    assert prod.act(1, (0, 1)) == (1, 1)

    countable = ProductAction(base, None)
    w = countable.window({"all": True, "indices": [0, 3]})
    assert len(w) == 12
    with pytest.raises(InputError):
        countable.window({"all": True})  # needs explicit indices
    with pytest.raises(UnsupportedOperationError):
        countable.points()


def test_product_action_point_tokens():
    base = LeftTranslation(FreeAbelianGroup(1))
    prod = ProductAction(base, None)
    assert prod.parse_point("(5;2)") == (5, 2)
    assert prod.format_point((5, 2)) == "(5;2)"
    with pytest.raises(InputError):
        prod.parse_point("5,2")


def test_bools_are_not_natural_points_or_indices():
    # parse_point is the one membership gate: a point is a natural number,
    # and a product index one within the declared copies
    nat = TrivialAction(cyclic(3), countable=True)
    assert nat.parse_point("1") == 1
    with pytest.raises(InputError, match="^bad point 'True'$"):
        nat.parse_point("True")
    with pytest.raises(InputError, match="^points are natural numbers$"):
        nat.parse_point("-1")
    for count in (2, None):
        prod = ProductAction(LeftTranslation(cyclic(3)), count)
        assert prod.parse_point("(0;1)") == (0, 1)
        refused = [("(0;x)", "bad index in product point '(0;x)'"),
                   ("(0;True)", "bad index in product point '(0;True)'"),
                   ("(0;-1)", "point '(0;-1)' outside the action")]
        if count == 2:
            refused.append(("(0;2)", "point '(0;2)' outside the action"))
        for token, message in refused:
            with pytest.raises(InputError) as exc:
                prod.parse_point(token)
            assert str(exc.value) == message
