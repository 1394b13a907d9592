"""Group backends: table groups, free groups, enumerated groups, and the
finite-group utilities the reconstruction suite leans on."""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from confpara import codec
from confpara.catalog import alternating4, cyclic, dihedral, fixture_groups, quaternion8, symmetric
from confpara.errors import InputError, PreconditionError, UnsupportedOperationError
from confpara.groups import (
    CayleyTableGroup,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    closure,
    direct_product,
    even_integers_enumerated,
    is_generating,
    is_normal,
    normal_subgroups,
    quotient_group,
    subgroups,
)

FIXTURES = fixture_groups()


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
    with pytest.raises(InputError):
        f2.parse("c")


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


def counting_unranks(group):
    """Record every position the instance's ``element_at`` is asked for."""
    calls = []
    unrank = group.element_at

    def element_at(pos):
        calls.append(pos)
        return unrank(pos)

    group.element_at = element_at
    return calls


@pytest.mark.parametrize("make,build", [
    (lambda: FreeGroup(2), lambda g: g.ball(6)),
    (lambda: FreeAbelianGroup(2), lambda g: g.box(20)),
    (lambda: FreeGroup(2), lambda g: g.prefix_window(500)),
    (lambda: FreeAbelianGroup(2), lambda g: g.prefix_window(500)),
], ids=["free-ball", "free-abelian-box", "free-prefix", "free-abelian-prefix"])
def test_windows_walk_the_enumeration_without_unranking(make, build):
    g = make()
    calls = counting_unranks(g)
    build(g)
    assert calls == []


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
    (lambda: cyclic(4).position_of(True), "not an element index: True"),
    (lambda: FreeGroup(2).ball(-1), "radius must be >= 0"),
    (lambda: FreeAbelianGroup(2).box(-1), "radius must be >= 0"),
    (lambda: FreeGroup(2).prefix_window(-1), "window size must be >= 0"),
    (lambda: FreeAbelianGroup(2).prefix_window(-1), "window size must be >= 0"),
    (lambda: cyclic(4).prefix_window(5),
     "prefix window of 5 elements is longer than Z4, of order 4"),
], ids=["free-at-0", "z-at-0", "z2-at-0", "free-unreduced", "z2-short", "z-bool",
        "z-float", "z-tuple", "z2-bool-coordinate", "free-bool-letter", "table-bool",
        "ball-negative", "box-negative", "free-prefix-negative", "z2-prefix-negative",
        "finite-prefix-too-long"])
def test_enumeration_input_errors_keep_their_messages(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


class Unenumerated(FreeGroup):
    """A group with the interface's default enumeration: none."""

    element_at = Group.element_at


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
    "unenumerated": Unenumerated(2),
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
    if name == "unenumerated":
        with pytest.raises(UnsupportedOperationError):
            group.element_at(Index(2))
        return
    assert group.element_at(Index(2)) == group.element_at(2)
    with pytest.raises(InputError) as exc:
        group.element_at(Index(0))
    if group.is_finite:
        assert str(exc.value) == f"enumeration position 0 out of range 1..{group.order()}"
    else:
        assert str(exc.value) == "enumeration position must be >= 1"


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


# ---------------------------------------------------------------------------
# finite-group utilities


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
