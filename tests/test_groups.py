"""Group backends: table groups, free groups, enumerated groups, and the
finite-group utilities the reconstruction suite leans on."""

import ast
import functools
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from confpara import codec
from confpara import configurations as cf
from confpara import paradox as px
from confpara import reconstruction as rc
from confpara.actions import LeftTranslation, ProductAction, TrivialAction
from confpara.catalog import alternating4, cyclic, dihedral, fixture_groups, quaternion8, symmetric
from confpara.errors import InputError, PreconditionError, UnsupportedOperationError
from confpara.groups import (
    CayleyTableGroup,
    EnumeratedGroup,
    FreeAbelianGroup,
    FreeGroup,
    closure,
    direct_product,
    is_generating,
    is_normal,
    normal_subgroups,
    quotient_group,
    subgroups,
)
from confpara.paradox import (
    compress_translators,
    glue_orbit_decompositions,
    product_orbit_structure,
    singleton_decomposition,
    verify_equidecomposable,
    verify_paradoxical,
)
from confpara.reconstruction import q_group_refinement_check

FIXTURES = fixture_groups()


def even_integers_enumerated():
    """2Z as an oracle-backed group: index a stands for 2 * zigzag(a)."""
    z = oracles.zigzag
    return EnumeratedGroup(lambda a, b: codec.zigzag_position(z(a) + z(b)),
                           lambda a: codec.zigzag_position(-z(a)))


# ---------------------------------------------------------------------------
# group laws on the finite fixtures

fixture_names = sorted(FIXTURES)


@st.composite
def group_and_triple(draw):
    name = draw(st.sampled_from(fixture_names))
    g = FIXTURES[name]
    n = g.order()
    picks = [g.element_at(draw(st.integers(min_value=1, max_value=n))) for _ in range(3)]
    return g, picks


@given(group_and_triple())
def test_fixture_group_laws(data):
    g, (a, b, c) = data
    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    assert g.mul(g.identity, a) == a
    assert g.mul(a, g.identity) == a
    assert g.mul(a, g.inv(a)) == g.identity
    assert g.mul(g.inv(a), a) == g.identity


@pytest.mark.parametrize("name", fixture_names)
def test_fixture_enumeration_roundtrip(name):
    g = FIXTURES[name]
    for pos in range(1, g.order() + 1):
        assert g.position_of(g.element_at(pos)) == pos
    assert g.element_at(1) == g.identity


@pytest.mark.parametrize("name,order", [
    ("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z2xZ2", 4), ("Z5", 5), ("Z6", 6),
    ("S3", 6), ("Z7", 7), ("Z8", 8), ("Z4xZ2", 8), ("Z2cube", 8),
    ("D4", 8), ("Q8", 8),
])
def test_fixture_orders(name, order):
    assert FIXTURES[name].order() == order


def test_fixture_parse_format_roundtrip():
    for g in FIXTURES.values():
        for x in g.elements():
            assert g.parse(g.format(x)) == x


# ---------------------------------------------------------------------------
# table validation


def test_table_group_rejects_non_latin_square():
    with pytest.raises(InputError):
        CayleyTableGroup([[0, 0], [1, 0]], 0)


def test_table_group_rejects_bad_identity():
    with pytest.raises(InputError):
        CayleyTableGroup([[0, 1], [1, 0]], 5)


def test_table_group_rejects_ragged_rows():
    with pytest.raises(InputError):
        CayleyTableGroup([[0, 1], [1]], 0)


def test_table_group_rejects_labels_of_the_wrong_length():
    with pytest.raises(InputError, match="^labels length must match table size$"):
        CayleyTableGroup([[0, 1], [1, 0]], 0, ["e"])


@pytest.mark.parametrize("group,labels", [
    (symmetric(3), ("()", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)")),
    (alternating4(), ("()", "(2 3 4)", "(2 4 3)", "(1 2)(3 4)", "(1 2 3)", "(1 2 4)",
                      "(1 3 2)", "(1 3 4)", "(1 3)(2 4)", "(1 4 2)", "(1 4 3)",
                      "(1 4)(2 3)")),
], ids=["S3", "A4"])
def test_permutation_groups_label_elements_by_their_cycles(group, labels):
    # 1-based points, each cycle from its least point, fixed points left out
    assert group.labels == labels


def test_dihedral_is_nonabelian():
    d4 = dihedral(4)
    assert any(
        d4.mul(a, b) != d4.mul(b, a)
        for a in d4.elements() for b in d4.elements()
    )


def test_quaternion_center():
    q8 = quaternion8()
    center = [
        x for x in q8.elements()
        if all(q8.mul(x, y) == q8.mul(y, x) for y in q8.elements())
    ]
    assert len(center) == 2


# ---------------------------------------------------------------------------
# free groups


def test_free_group_shortlex_prefix():
    f2 = FreeGroup(2)
    first = [f2.format(f2.element_at(i)) for i in range(1, 18)]
    assert first == [
        "e", "a", "a^-1", "b", "b^-1",
        "a^2", "a*b", "a*b^-1",
        "a^-2", "a^-1*b", "a^-1*b^-1",
        "b*a", "b*a^-1", "b^2",
        "b^-1*a", "b^-1*a^-1", "b^-2",
    ]


@given(st.integers(min_value=1, max_value=5000))
def test_free_group_rank2_enumeration_roundtrip(pos):
    f2 = FreeGroup(2)
    assert f2.position_of(f2.element_at(pos)) == pos


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=3))
def test_free_group_any_rank_roundtrip(pos, rank):
    g = FreeGroup(rank)
    assert g.position_of(g.element_at(pos)) == pos


@pytest.mark.parametrize("radius,size", [(0, 1), (1, 5), (2, 17), (3, 53)])
def test_free_group_ball_sizes(radius, size):
    f2 = FreeGroup(2)
    ball = f2.ball(radius)
    assert len(ball) == size
    assert size == oracles.free_ball_size(2, radius)
    assert set(ball.point_set) == oracles.free_ball(2, radius)


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12),
       st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
def test_free_group_mul_matches_stack_reduction(u, v):
    f2 = FreeGroup(2)
    a = oracles.reduce_word(u)
    b = oracles.reduce_word(v)
    assert f2.mul(a, b) == oracles.reduce_word(list(a) + list(b))


@pytest.mark.parametrize("a,b", [
    ((1, 2), ()),
    ((), ()),
    ((), (2, -1)),
    ((1, 2), (1, -2)),
    ((1, 2), (-2,)),
    ((1, 2, 1), (-1, -2, 2)),
    ((1, -2, 1), (-1, 2, -1)),
], ids=["right-empty", "both-empty", "left-empty", "no-cancellation", "right-absorbed",
        "partial", "full"])
def test_free_group_mul_at_the_junction(a, b):
    # concatenation when nothing cancels, the cancellation loop otherwise
    assert FreeGroup(2).mul(a, b) == oracles.reduce_word(a + b)


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10))
def test_free_group_inverse_cancels(u):
    f2 = FreeGroup(2)
    w = oracles.reduce_word(u)
    assert f2.mul(w, f2.inv(w)) == ()
    assert f2.parse(f2.format(w)) == w


def test_free_group_parse_examples():
    f2 = FreeGroup(2)
    assert f2.parse("e") == ()
    assert f2.parse("a*b^-1") == (1, -2)
    assert f2.parse("a^2*b") == (1, 1, 2)
    assert f2.parse("a*a^-1") == ()
    assert f2.parse("1") == f2.parse("") == ()
    with pytest.raises(InputError):
        f2.parse("c")


@pytest.mark.parametrize("token", ["*", "a*", "ab", "bc", "b^2*"])
def test_free_group_parse_refuses_a_factor_other_than_one_generator_letter(token):
    # an empty factor was read as a, and a longer name as its first letter
    with pytest.raises(InputError, match=rf"^unknown generator '\w*' in {re.escape(repr(token))}$"):
        FreeGroup(2).parse(token)


@pytest.mark.parametrize("rank", [1, 2, 3, 5, 6, 25])
def test_free_group_parse_inverts_format_on_the_ball(rank):
    # "e" is the identity's token, so generator 5 is named f
    g = FreeGroup(rank)
    for w in g.ball(3).points:
        assert g.parse(g.format(w)) == w


def test_free_group_contains_exactly_the_words_position_of_ranks():
    g = FreeGroup(2)
    assert all(g.contains(u) and g.position_of(u) == p for p, u in enumerate(g.ball(3), 1))
    for w in [(1, -1), (2, 1, -1), (0,), (3,), [1], (1.0,), (True, -2)]:
        assert not g.contains(w)
        with pytest.raises(InputError):
            g.position_of(w)


def test_free_group_generator_names_skip_the_identity_token():
    g = FreeGroup(25)
    assert [g.format((k,)) for k in (4, 5, 25)] == ["d", "f", "z"]
    with pytest.raises(InputError, match="unknown generator 'e' in 'a\\*e'"):
        g.parse("a*e")  # the identity's token is a whole word, not a factor
    with pytest.raises(InputError, match="between 1 and 25"):
        FreeGroup(26)


# ---------------------------------------------------------------------------
# free abelian groups


def test_integers_zigzag_enumeration():
    z = FreeAbelianGroup(1)
    assert [z.element_at(i) for i in range(1, 8)] == [0, 1, -1, 2, -2, 3, -3]
    assert [v for v in z.box(2)] == [0, 1, -1, 2, -2]


@given(st.integers(min_value=-2000, max_value=2000))
def test_integers_enumeration_roundtrip(v):
    z = FreeAbelianGroup(1)
    assert z.element_at(z.position_of(v)) == v


class Index(int):
    """An int subclass other than bool; groups accept it as an int."""


def test_integer_positions_match_the_zigzag_oracle():
    z = FreeAbelianGroup(1)
    for pos in range(1, 122):
        assert z.element_at(pos) == oracles.zigzag(pos - 1)
    for v in range(-30, 31):
        assert z.position_of(v) == oracles.zigzag_inverse(v) + 1


@pytest.mark.parametrize("pos", [10**30 - 1, 10**30, 10**30 + 1])
def test_far_integer_positions_match_the_codec(pos):
    # the oracle walks the order one step at a time; this far out the codec
    # is the reference
    z = FreeAbelianGroup(1)
    v = z.element_at(pos)
    assert type(v) is int and v == codec.zigzag_value(pos - 1)
    assert z.position_of(v) == codec.zigzag_position(v) + 1 == pos
    assert z.element_at(Index(pos)) == v
    assert z.position_of(Index(v)) == pos


@pytest.mark.parametrize("rank", [2, 3])
@given(data=st.data())
def test_free_abelian_mul_and_inv_are_componentwise(rank, data):
    vector = st.tuples(*[st.integers()] * rank)
    a, b = data.draw(vector), data.draw(vector)
    g = FreeAbelianGroup(rank)
    assert g.mul(a, b) == tuple(a[i] + b[i] for i in range(rank))
    assert g.inv(a) == tuple(-a[i] for i in range(rank))
    assert g.mul(a, g.inv(a)) == g.identity


@pytest.mark.parametrize("group,boolean,index,plain", [
    (FreeGroup(2), (True, -2), (Index(1), -2), (1, -2)),
    (cyclic(4), True, Index(1), 1),
    (FreeAbelianGroup(1), True, Index(1), 1),
    (FreeAbelianGroup(2), (True, 0), (Index(1), 0), (1, 0)),
    (even_integers_enumerated(), True, Index(1), 1),
], ids=["free", "table", "free-abelian-1", "free-abelian-2", "enumerated"])
def test_bools_are_not_group_elements(group, boolean, index, plain):
    # every kind rejects a bool where it takes an int, and keeps other int
    # subclasses
    assert not group.contains(boolean)
    with pytest.raises(InputError):
        group.position_of(boolean)
    assert group.contains(index)
    assert group.position_of(index) == group.position_of(plain)


def test_integer_pairs_box():
    z2 = FreeAbelianGroup(2)
    box1 = list(z2.box(1))
    assert len(box1) == 9
    assert box1[0] == (0, 0)
    assert set(box1) == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}
    assert len(z2.box(3)) == 49


@given(st.integers(min_value=1, max_value=2000))
def test_integer_pairs_enumeration_roundtrip(pos):
    z2 = FreeAbelianGroup(2)
    assert z2.position_of(z2.element_at(pos)) == pos


def test_no_order_for_infinite_groups():
    with pytest.raises(UnsupportedOperationError):
        FreeGroup(2).order()
    with pytest.raises(UnsupportedOperationError):
        FreeAbelianGroup(1).elements()


# ---------------------------------------------------------------------------
# canonical enumerations against the slow references

RADIUS = 4
ENUMERATIONS = [(kind, rank) for kind in ("free", "free-abelian") for rank in (1, 2, 3)]


def make_group(kind, rank):
    return FreeGroup(rank) if kind == "free" else FreeAbelianGroup(rank)


def window_size(kind, rank, radius):
    return oracles.free_ball_size(rank, radius) if kind == "free" else (2 * radius + 1) ** rank


def radius_window(group, radius):
    return group.ball(radius) if isinstance(group, FreeGroup) else group.box(radius)


@functools.lru_cache(maxsize=None)
def reference_order(kind, rank):
    """The enumeration up to radius RADIUS + 1, from the slow references."""
    if kind == "free":
        size = window_size(kind, rank, RADIUS + 1)
        return tuple(oracles.shortlex_word(rank, p) for p in range(1, size + 1))
    return tuple(v[0] if rank == 1 else v
                 for v in oracles.box_in_order(rank, RADIUS + 1))


@pytest.mark.parametrize("kind,rank", ENUMERATIONS)
def test_windows_and_ranks_on_each_side_of_every_shell_boundary(kind, rank):
    ref = reference_order(kind, rank)
    g = make_group(kind, rank)
    for radius in range(RADIUS + 1):
        size = window_size(kind, rank, radius)
        assert radius_window(g, radius).points == ref[:size]
        # the last element of shell `radius` and the first of the next; fresh
        # groups, so no rank leans on shells another call built
        for pos in (size, size + 1):
            assert make_group(kind, rank).element_at(pos) == ref[pos - 1]
            assert make_group(kind, rank).position_of(ref[pos - 1]) == pos


@given(st.sampled_from(ENUMERATIONS), st.data())
def test_enumeration_matches_the_reference(enumeration, data):
    kind, rank = enumeration
    ref = reference_order(kind, rank)
    g = make_group(kind, rank)
    pos = data.draw(st.integers(min_value=1, max_value=len(ref)), label="position")
    assert g.element_at(pos) == ref[pos - 1]
    assert g.position_of(ref[pos - 1]) == pos
    count = data.draw(st.integers(min_value=0, max_value=len(ref)), label="prefix")
    assert g.prefix_window(count).points == ref[:count]
    radius = data.draw(st.integers(min_value=0, max_value=RADIUS + 1), label="radius")
    assert radius_window(g, radius).points == ref[:window_size(kind, rank, radius)]


@given(st.integers(min_value=2, max_value=3), st.integers(min_value=1, max_value=10**40))
def test_free_group_far_positions_match_the_reference(rank, pos):
    g = FreeGroup(rank)
    w = oracles.shortlex_word(rank, pos)
    assert g.element_at(pos) == w
    assert g.position_of(w) == pos


def counting_calls(group, name):
    """Record the argument of every call to the instance's method ``name``."""
    calls = []
    method = getattr(group, name)

    def counted(arg):
        calls.append(arg)
        return method(arg)

    setattr(group, name, counted)
    return calls


@pytest.mark.parametrize("make,build", [
    (lambda: FreeGroup(2), lambda g: g.ball(6)),
    (lambda: FreeAbelianGroup(2), lambda g: g.box(20)),
    (lambda: FreeGroup(2), lambda g: g.prefix_window(500)),
    (lambda: FreeAbelianGroup(2), lambda g: g.prefix_window(500)),
], ids=["free-ball", "free-abelian-box", "free-prefix", "free-abelian-prefix"])
def test_windows_walk_the_enumeration_without_unranking(make, build):
    g = make()
    calls = counting_calls(g, "element_at")
    build(g)
    assert calls == []


# ---------------------------------------------------------------------------
# far free-abelian points: closed form against the table and a brute force


@given(st.integers(min_value=2, max_value=4), st.data())
def test_far_vectors_round_trip(rank, data):
    v = data.draw(st.tuples(*[st.integers(min_value=-10**6, max_value=10**6)] * rank))
    g = FreeAbelianGroup(rank)
    u = g.element_at(g.position_of(v))
    assert u == v and all(type(c) is int for c in u)


@st.composite
def shell_vectors(draw, rank, max_radius):
    """A vector of max-norm r in 1..max_radius: any coordinates in [-r, r],
    with one of them set to r or -r."""
    r = draw(st.integers(min_value=1, max_value=max_radius))
    v = draw(st.lists(st.integers(min_value=-r, max_value=r), min_size=rank, max_size=rank))
    v[draw(st.integers(min_value=0, max_value=rank - 1))] = draw(st.sampled_from((r, -r)))
    return tuple(v)


@settings(max_examples=60, deadline=None)
@given(st.one_of(shell_vectors(2, 40), shell_vectors(3, 9)))
@example((40, 0))
@example((-40, -40))
@example((-17, -40))
@example((39, 40))
@example((0, 9, -9))
@example((-9, 3, 9))
def test_far_ranks_match_a_brute_force_count(v):
    # a fresh group ranks in closed form, one that walked past v's shell
    # reads its table
    pos = oracles.box_position(v)
    fresh = FreeAbelianGroup(len(v))
    assert fresh.position_of(v) == pos
    assert fresh.element_at(pos) == v
    walked = FreeAbelianGroup(len(v))
    walked.box(max(map(abs, v)))
    assert walked.position_of(v) == pos
    assert walked.element_at(pos) == v


@pytest.mark.parametrize("query", [
    lambda g: g.position_of((300,) + (0,) * (g.rank - 1)),
    lambda g: g.element_at(10**12),
    lambda g: g.position_of((0,) * (g.rank - 1) + (-4,)),
    lambda g: g.element_at((2 * 4 + 1) ** g.rank),
], ids=["far-rank", "far-unrank", "rank-two-shells-out", "unrank-two-shells-out"])
@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("walked", [None, 2], ids=["fresh", "box-2"])
def test_far_queries_build_no_shell_and_grow_no_table(query, rank, walked):
    g = FreeAbelianGroup(rank)
    if walked is not None:
        g.box(walked)
    size = len(g._walked)
    calls = counting_calls(g, "_shell")
    query(g)
    assert calls == []
    assert len(g._walked) == len(g._positions) == size


@pytest.mark.parametrize("rank", [2, 3])
def test_a_query_just_past_the_table_grows_it_by_one_shell(rank):
    g = FreeAbelianGroup(rank)
    g.box(2)
    calls = counting_calls(g, "_shell")
    assert g.position_of((0,) * (rank - 1) + (3,)) == 5 ** rank + 1
    assert calls == [3] and len(g._walked) == len(g._positions) == 7 ** rank
    assert g.element_at(7 ** rank + 1) == (0,) * (rank - 1) + (4,)
    assert calls == [3, 4] and len(g._walked) == 9 ** rank
    assert g.box(4).points == reference_order("free-abelian", rank)[:9 ** rank]
    assert calls == [3, 4]


@pytest.mark.parametrize("rank", [2, 3])
def test_table_and_closed_form_agree_when_near_and_far_queries_interleave(rank):
    # downwards every shell but the origin's is met past the table, so it is
    # ranked in closed form; upwards each shell is met just past it and grows
    # it.  A far point between each pair of near queries.
    ref = reference_order("free-abelian", rank)
    far = [tuple((-1) ** i * (7 ** (i + 1) + j) for i in range(rank)) for j in range(len(ref))]
    g = FreeAbelianGroup(rank)
    order = [*range(len(ref), 0, -1), *range(1, len(ref) + 1)]
    for pos, v in zip(order, far + far):
        assert g.element_at(pos) == ref[pos - 1]
        assert g.position_of(ref[pos - 1]) == pos
        assert g.element_at(g.position_of(v)) == v
    assert g._walked == list(ref)
    assert tuple(itertools.islice(g.walk(), len(ref))) == ref


@pytest.mark.parametrize("call,message", [
    (lambda: FreeGroup(2).element_at(0), "enumeration position must be >= 1"),
    (lambda: FreeAbelianGroup(1).element_at(0), "enumeration position must be >= 1"),
    (lambda: FreeAbelianGroup(2).element_at(0), "enumeration position must be >= 1"),
    (lambda: FreeGroup(2).position_of((1, -1)), "not a reduced word: (1, -1)"),
    (lambda: FreeAbelianGroup(2).position_of((1,)), "not an element of free-abelian(2): (1,)"),
    (lambda: FreeAbelianGroup(1).position_of(True), "not an element of free-abelian(1): True"),
    (lambda: FreeAbelianGroup(1).position_of(1.0), "not an element of free-abelian(1): 1.0"),
    (lambda: FreeAbelianGroup(1).position_of((1, True)),
     "not an element of free-abelian(1): (1, True)"),
    (lambda: FreeAbelianGroup(2).position_of((1, True)),
     "not an element of free-abelian(2): (1, True)"),
    (lambda: FreeGroup(2).position_of((True, -2)), "not a reduced word: (True, -2)"),
    (lambda: FreeGroup(2).position_of((0,)), "not a reduced word: (0,)"),
    (lambda: FreeGroup(2).position_of((3,)), "not a reduced word: (3,)"),
    (lambda: FreeGroup(2).position_of([1]), "not a reduced word: [1]"),
    (lambda: FreeGroup(2).position_of((1.0,)), "not a reduced word: (1.0,)"),
    (lambda: cyclic(4).position_of(True), "not an element index: True"),
    (lambda: FreeGroup(2).ball(-1), "radius must be >= 0"),
    (lambda: FreeAbelianGroup(2).box(-1), "radius must be >= 0"),
    (lambda: FreeGroup(2).prefix_window(-1), "window size must be >= 0"),
    (lambda: FreeAbelianGroup(2).prefix_window(-1), "window size must be >= 0"),
    (lambda: cyclic(4).prefix_window(5),
     "prefix window of 5 elements is longer than Z4, of order 4"),
    (lambda: FreeAbelianGroup(0), "free-abelian rank must be >= 1"),
    (lambda: FreeGroup(2).generator(3), "generator index must be between 1 and 2"),
], ids=["free-at-0", "z-at-0", "z2-at-0", "free-unreduced", "z2-short", "z-bool",
        "z-float", "z-tuple", "z2-bool-coordinate", "free-bool-letter", "free-letter-0",
        "free-letter-3", "free-list", "free-float-letter", "table-bool",
        "ball-negative", "box-negative", "free-prefix-negative", "z2-prefix-negative",
        "finite-prefix-too-long", "free-abelian-rank-0", "free-generator-3"])
def test_enumeration_input_errors_keep_their_messages(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


EVERY_FAMILY = {
    "table": cyclic(4),
    "product": direct_product(cyclic(2), cyclic(3)),
    "quotient": quotient_group(cyclic(4), {0, 2})[0],
    "free": FreeGroup(2),
    "free-abelian-1": FreeAbelianGroup(1),
    "free-abelian-2": FreeAbelianGroup(2),
    "free-abelian-3": FreeAbelianGroup(3),
    "enumerated": even_integers_enumerated(),
    "enumerated-even": even_integers_enumerated(),
}


@pytest.mark.parametrize("name", EVERY_FAMILY)
@pytest.mark.parametrize("pos", [2.5, 2.0, True, False, "2", None, (2,)],
                         ids=["float", "integral-float", "true", "false", "str", "none", "tuple"])
def test_element_at_rejects_a_position_that_is_not_an_int(name, pos):
    with pytest.raises(InputError) as exc:
        EVERY_FAMILY[name].element_at(pos)
    assert str(exc.value) == f"enumeration position must be an integer, got {pos!r}"


@pytest.mark.parametrize("name", EVERY_FAMILY)
def test_element_at_keeps_int_subclasses_and_range_messages(name):
    group = EVERY_FAMILY[name]
    assert group.element_at(Index(2)) == group.element_at(2)
    with pytest.raises(InputError) as exc:
        group.element_at(Index(0))
    if group.is_finite:
        assert str(exc.value) == f"enumeration position must be between 1 and {group.order()}"
    else:
        assert str(exc.value) == "enumeration position must be >= 1"


@pytest.mark.parametrize("call,message", [
    (lambda v: FreeGroup(2).ball(v), "radius must be an integer, got {v!r}"),
    (lambda v: FreeAbelianGroup(1).box(v), "radius must be an integer, got {v!r}"),
    (lambda v: FreeAbelianGroup(1).prefix_window(v), "window size must be an integer, got {v!r}"),
    (lambda v: TrivialAction(cyclic(2), countable=True).window({"prefix": v}),
     "window size must be an integer, got {v!r}"),
    (FreeGroup, "free group rank must be an integer, got {v!r}"),
    (lambda v: FreeGroup(3).generator(v), "generator index must be an integer, got {v!r}"),
    (FreeAbelianGroup, "free-abelian rank must be an integer, got {v!r}"),
    (lambda v: verify_paradoxical(singleton_decomposition(FreeAbelianGroup(1)),
                                  FreeAbelianGroup(1).box(2), v),
     "index bound must be an integer, got {v!r}"),
    # the bound is checked before any other argument is read
    (lambda v: verify_equidecomposable(None, None, None, None, None, v),
     "index bound must be an integer, got {v!r}"),
    (lambda v: compress_translators(singleton_decomposition(FreeAbelianGroup(1)), v),
     "detection bound must be an integer, got {v!r}"),
    (lambda v: CayleyTableGroup(((0, 1), (1, 0)), v), "identity index must be an integer, got {v!r}"),
    (lambda v: ProductAction(LeftTranslation(cyclic(2)), 3).window({"all": True, "indices": [v, 1]}),
     "first product index must be an integer, got {v!r}"),
    (lambda v: ProductAction(LeftTranslation(cyclic(2))).window({"all": True, "indices": [0, v]}),
     "last product index must be an integer, got {v!r}"),
    (lambda v: cf.countable_config_prefixes(
        LeftTranslation(cyclic(4)), cf.ConfigPair((0, 1), cf.Partition.explicit([[0, 2], [1, 3]])),
        v, cyclic(4).all_window()),
     "depth must be an integer, got {v!r}"),
    (lambda v: cf.singleton_split(
        None, cf.CountablePair(lambda i: 0, cf.Partition.classifier(lambda x: 1, 2)), v),
     "block index must be an integer, got {v!r}"),
    (lambda v: cf.merge_blocks(cf.CountablePair(lambda i: 0, cf.Partition.explicit([[0]])), v),
     "cutoff must be an integer, got {v!r}"),
    (lambda v: cf.config_equiv_bounded(None, None, v, 2), "tuple length n must be an integer, got {v!r}"),
    (lambda v: cf.config_equiv_bounded(None, None, 2, v), "block count m must be an integer, got {v!r}"),
    (lambda v: cf.config_equiv_bounded(None, None, 2, 2, cap=v), "cap must be an integer, got {v!r}"),
    (lambda v: q_group_refinement_check(None, None, v), "cap must be an integer, got {v!r}"),
    (lambda v: ProductAction(LeftTranslation(cyclic(2)), v), "copy count must be an integer, got {v!r}"),
    (lambda v, a=ProductAction(LeftTranslation(FreeAbelianGroup(1))): glue_orbit_decompositions(
        a, product_orbit_structure(a), lambda rep: singleton_decomposition(a.group),
        validate_reps=v),
     "validate reps must be an integer, got {v!r}"),
], ids=["ball", "box", "prefix-window", "trivial-prefix", "free-rank", "free-generator",
        "free-abelian-rank", "index-bound", "equidecomposition-index-bound", "detection-bound",
        "identity-index", "first-product-index", "last-product-index", "depth", "block-index",
        "cutoff", "equiv-n", "equiv-m", "equiv-cap", "refinement-cap", "copy-count",
        "glue-validate-reps"])
@pytest.mark.parametrize("v", [True, 2.5, "2", -1.5], ids=["bool", "float", "str", "negative-float"])
def test_every_integer_argument_refuses_a_non_int(call, message, v):
    with pytest.raises(InputError) as exc:
        call(v)
    assert str(exc.value) == message.format(v=v)


@pytest.mark.parametrize("count", [0, -1])
def test_a_product_action_needs_at_least_one_copy(count):
    with pytest.raises(InputError) as exc:
        ProductAction(LeftTranslation(cyclic(2)), count)
    assert str(exc.value) == "copy count must be >= 1"


def _call_sites(node, matches, where=None):
    """The enclosing function's name (None at module level) of each call
    under ``node`` to a plain name for which ``matches(call)`` holds."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and matches(child):
            yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _call_sites(child, matches, inner)


def _package_trees():
    """File name -> parsed module, for each module of the package."""
    package = Path(__file__).resolve().parent.parent / "src" / "confpara"
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def _package_call_sites(matches):
    """(file name, enclosing function) of each matching call in the package."""
    return [(name, where) for name, tree in _package_trees().items()
            for where in _call_sites(tree, matches)]


def _tests_for_a_bool(call):
    return (call.func.id == "isinstance" and len(call.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(call.args[1])))


def test_only_is_int_and_as_bool_test_for_a_bool():
    # the integer rule lives in groups._is_int alone; schemas._as_bool
    # takes a JSON boolean
    assert _package_call_sites(_tests_for_a_bool) == [
        ("groups.py", "_is_int"), ("schemas.py", "_as_bool")]


def _words_an_integer_argument(call):
    words = ("must be an integer", "must be >=", "must be between")
    return call.func.id == "InputError" and any(
        isinstance(n, ast.Constant) and isinstance(n.value, str) and any(w in n.value for w in words)
        for arg in call.args for n in ast.walk(arg))


def test_only_require_int_words_an_integer_argument_refusal():
    # one wording per failure kind, type first and then range; the one other
    # site parses the CONFPARA_CAP string before handing it to the gate
    assert _package_call_sites(_words_an_integer_argument) == [
        ("configurations.py", "default_partition_cap"),
        ("groups.py", "_require_int"), ("groups.py", "_require_int"), ("groups.py", "_require_int")]


# A read-only record is a typing.NamedTuple: on CPython 3.11 each @dataclass
# decoration execs its generated methods at import, several times the cost of
# a NamedTuple class.  These keep the decorator, each for a reason a
# NamedTuple cannot carry.  An object whose method runs per point, such as
# paradox._FirstLetter, takes slots instead: a NamedTuple field read is not
# specialized on 3.11.
DATACLASSES = {
    ("groups.py", "Window"): "cached_property point_set, and its own __len__ and __iter__",
    ("configurations.py", "ConfigPair"): "__post_init__ coerces elements to a tuple",
    ("paradox.py", "PieceFamily"): "dataclasses.replace builds altered families",
    ("paradox.py", "Decomposition"): "dataclasses.replace builds altered decompositions",
}


def _is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_only_records_that_need_it_are_dataclasses():
    decorated = {(name, node.name) for name, tree in _package_trees().items()
                 for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 and any(map(_is_dataclass_decorator, node.decorator_list))}
    assert decorated == set(DATACLASSES)


def test_no_module_imports_string_and_reconstruction_not_dataclasses():
    imported = {}
    for name, tree in _package_trees().items():
        imported[name] = {alias.name.split(".")[0] for node in ast.walk(tree)
                          if isinstance(node, ast.Import) for alias in node.names}
        imported[name] |= {node.module.split(".")[0] for node in ast.walk(tree)
                           if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert [name for name, modules in imported.items() if "string" in modules] == []
    assert "dataclasses" not in imported["reconstruction.py"]


# every read-only record, with its fields in constructor order
RECORDS = {
    cf.CountablePair: ("element_at", "partition", "generating", "identity_tail_after"),
    cf.RefinementReport: ("ok", "violation"),
    cf.PrefixResult: ("prefixes", "exact", "depth", "window_label", "note"),
    cf.SplitPair: ("pair", "relabeling"),
    cf.PairWitness: ("direction", "tuple_tokens", "blocks", "configurations"),
    cf.EquivVerdict: ("equivalent", "n", "m", "only_in_first", "only_in_second", "family_sizes"),
    px.RefutationWitness: ("point", "equation", "detail"),
    px.Verdict: ("status", "window_label", "index_bound", "points_checked", "witness"),
    px.EquidecompositionWitness: ("pieces", "translator", "cover"),
    px.SubgroupWitness: ("subgroup", "from_subgroup", "decompose"),
    px.OrbitStructure: ("rep_of", "coset_of", "point_of", "rep_at", "count", "equivariant_for"),
    px.CompressionResult: ("status", "decomposition", "a_range", "b_range", "bound", "detection"),
    rc.MultiplicationIndexTable: ("bound", "rows", "labels"),
    rc.CosetFamily: ("blocks", "representatives", "relabeling", "identity_block_before"),
    rc.IsoReport: ("ok", "failures", "iso", "subgroup_order", "coset_count"),
    rc.RefinementSearchReport: ("subgroup_trivial", "conclusion", "refined_block_count",
                                "available_points", "pairs_searched", "matched"),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_a_read_only_record_keeps_the_dataclass_repr_and_is_frozen_and_hashable(record):
    fields = RECORDS[record]
    assert record._fields == fields
    values = tuple(range(len(fields)))
    built = record(*values)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(built) == f"{record.__name__}({shown})"
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(built, name, -1)
    twin = record(*values)
    assert twin == built and twin is not built and hash(twin) == hash(built)
    assert record(*values[:-1], -1) != built


def test_read_only_records_keep_their_defaults_and_a_verdict_reads_as_before():
    assert {record.__name__: record._field_defaults for record in RECORDS
            if record._field_defaults} == {
        "CountablePair": {"generating": False, "identity_tail_after": None},
        "OrbitStructure": {"count": None, "equivariant_for": None},
    }
    assert repr(px.Verdict("refuted", "box(3)", 10, 2, None)) == (
        "Verdict(status='refuted', window_label='box(3)', index_bound=10, "
        "points_checked=2, witness=None)")


# ---------------------------------------------------------------------------
# oracle-backed enumerated groups


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
def test_enumerated_integers_match_addition(a, b):
    # index a is the even integer 2 * zigzag(a), so indices add as zigzag values
    g = even_integers_enumerated()
    value = oracles.zigzag
    assert value(g.mul(a, b)) == value(a) + value(b)
    assert value(g.inv(a)) == -value(a)


@given(st.integers(min_value=0, max_value=300))
def test_enumerated_even_integers(a):
    g = even_integers_enumerated()
    assert g.mul(a, g.identity) == a
    assert g.mul(a, g.inv(a)) == g.identity == 0


def test_enumerated_elements_round_trip_through_their_index_tokens():
    g = even_integers_enumerated()
    for a in range(40):
        assert g.parse(g.format(a)) == a
    for token, message in (("x", "bad element index 'x'"), ("2.5", "bad element index '2.5'"),
                           ("-1", "element index must be >= 0")):
        with pytest.raises(InputError) as exc:
            g.parse(token)
        assert str(exc.value) == message


@pytest.mark.parametrize("name", EVERY_FAMILY)
def test_left_translation_acts_by_the_group_mul(name):
    # an instance acts through the group's mul itself; the class keeps its
    # act method, which code that looks methods up on the class reads
    group = EVERY_FAMILY[name]
    action, method = LeftTranslation(group), vars(LeftTranslation)["act"]
    sample = group.prefix_window(min(group.order(), 6) if group.is_finite else 6).points
    for h in sample:
        for x in sample:
            assert action.act(h, x) == method(action, h, x) == group.mul(h, x)


# ---------------------------------------------------------------------------
# finite-group utilities


INFINITE = {"Z": FreeAbelianGroup(1), "F2": FreeGroup(2)}


@pytest.mark.parametrize("name", sorted(INFINITE))
@pytest.mark.parametrize("call,message", [
    (lambda g: closure(g, [g.element_at(2)]), "closure requires a finite group"),
    (lambda g: is_generating(g, [g.element_at(2)]),
     "generation is undecidable here; assert it on the configuration pair"),
    (subgroups, "subgroup enumeration requires a finite group"),
    (lambda g: is_normal(g, {g.identity}), "{name} is not finite"),
    (lambda g: quotient_group(g, {g.identity, g.element_at(2)}), "{name} is not finite"),
], ids=["closure", "is_generating", "subgroups", "is_normal", "quotient_group"])
def test_finite_group_utilities_refuse_an_infinite_group(name, call, message):
    # each guard runs before the first read of a Cayley table
    group = INFINITE[name]
    message = re.escape(message.format(name=group.name))
    with pytest.raises(UnsupportedOperationError, match=f"^{message}$"):
        call(group)


def test_closure_and_generation():
    z6 = cyclic(6)
    assert closure(z6, [2]) == frozenset({0, 2, 4})
    assert closure(z6, [2, 3]) == frozenset(range(6))
    assert is_generating(z6, (2, 3))
    assert not is_generating(z6, (2,))


@pytest.mark.parametrize("make,count", [
    (lambda: symmetric(3), 6),
    (lambda: dihedral(4), 10),
    (lambda: quaternion8(), 6),
    (lambda: cyclic(12), 6),
])
def test_subgroup_counts(make, count):
    assert len(subgroups(make())) == count


@pytest.mark.parametrize("make,count", [
    (lambda: symmetric(3), 3),
    (lambda: alternating4(), 3),
    (lambda: quaternion8(), 6),
    (lambda: cyclic(8), 4),
])
def test_normal_subgroup_counts(make, count):
    assert len(normal_subgroups(make())) == count


def test_subgroups_are_subgroups():
    s3 = symmetric(3)
    for h in subgroups(s3):
        assert s3.identity in h
        assert all(s3.mul(a, b) in h for a in h for b in h)
        assert all(s3.inv(a) in h for a in h)


def test_is_normal_picks_a3():
    s3 = symmetric(3)
    normals = [h for h in subgroups(s3) if is_normal(s3, h)]
    assert sorted(len(h) for h in normals) == [1, 3, 6]


def test_quotient_of_z6():
    z6 = cyclic(6)
    quotient, cosets, reps = quotient_group(z6, frozenset({0, 3}))
    assert quotient.order() == 3
    assert len(cosets) == 3
    assert len(reps) == 3
    assert frozenset({0, 3}) in cosets
    # quotient is cyclic of order 3
    x = quotient.element_at(2)
    assert x != quotient.identity
    assert quotient.mul(x, quotient.mul(x, x)) == quotient.identity


def test_quotient_identity_coset_first():
    s3 = symmetric(3)
    a3 = next(h for h in normal_subgroups(s3) if len(h) == 3)
    quotient, cosets, reps = quotient_group(s3, a3)
    assert quotient.order() == 2
    assert reps[0] == s3.identity
    assert cosets[0] == a3


def test_quotient_rejects_non_normal():
    s3 = symmetric(3)
    h = next(h for h in subgroups(s3) if len(h) == 2)
    with pytest.raises(PreconditionError):
        quotient_group(s3, h)


@pytest.mark.parametrize("subset", [{0, 1}, {1, 3}, set()])
def test_quotient_rejects_a_conjugation_closed_non_subgroup(subset):
    # Z4 is abelian, so every subset is closed under conjugation
    z4 = cyclic(4)
    assert is_normal(z4, subset)
    with pytest.raises(PreconditionError, match="^conjugation-closed set is not a subgroup$"):
        quotient_group(z4, subset)


def test_direct_product_structure():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order() == 6
    # isomorphic to Z6: has an element of order 6
    orders = set()
    for x in g.elements():
        k, acc = 1, x
        while acc != g.identity:
            acc = g.mul(acc, x)
            k += 1
        orders.add(k)
    assert 6 in orders
