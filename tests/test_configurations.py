"""Configuration sets, refinement cells, splits and bounded equivalence."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from confpara import configurations as cf
from confpara.actions import LeftTranslation, ProductAction, TableAction, TrivialAction
from confpara.catalog import cyclic, fixture_groups, reconstruction_groups, symmetric
from confpara.codec import zigzag_value
from confpara.configurations import (
    ConfigPair,
    EquivVerdict,
    PairWitness,
    Partition,
    check_partition_covers,
    config_equiv_bounded,
    conjugating_maps,
    configurations_finite,
    configurations_with_cells,
    countable_config_prefixes,
    default_partition_cap,
    merge_blocks,
    normalizer_maps,
    set_partitions,
    singleton_split,
    verify_refinement,
    windowed_configuration_set,
)
from confpara.errors import InputError, PreconditionError, ResourceCapExceeded
from confpara.groups import CayleyTableGroup, FreeAbelianGroup, direct_product, subgroups
from confpara.schemas import build_partition

FIXTURES = fixture_groups()


def residue_partition(modulus):
    """Z split by residue, as a residue partition manifest builds it."""
    return build_partition({"kind": "residue", "modulus": modulus},
                           LeftTranslation(FreeAbelianGroup(1)))


# ---------------------------------------------------------------------------
# partitions


def test_explicit_partition_blocks():
    p = Partition.explicit([[0, 2], [1, 3]])
    assert p.block_count == 2
    assert p.block_of(0) == 1 and p.block_of(3) == 2
    assert p.is_explicit
    with pytest.raises(InputError):
        p.block_of(7)


def test_explicit_partition_rejects_overlap():
    with pytest.raises(InputError):
        Partition.explicit([[0, 1], [1, 2]])
    with pytest.raises(InputError):
        Partition.explicit([[0], []])


def test_partition_messages():
    cases = [
        (lambda: Partition.explicit([]), "a partition needs at least one block"),
        (lambda: Partition.explicit([[0], []]), "block 2 is empty"),
        (lambda: Partition.explicit([[0, 1], [2], [1]]), "block 3 overlaps an earlier block"),
        (lambda: Partition.explicit([[0]]).block_of(5),
         "point 5 is not covered by the partition"),
        (lambda: Partition.classifier(lambda x: 0).block_of(1),
         "classifier returned bad block index 0"),
        (lambda: Partition.classifier(lambda x: "1").block_of(1),
         "classifier returned bad block index '1'"),
        (lambda: Partition.classifier(lambda x: True).block_of(1),
         "classifier returned bad block index True"),
        (lambda: Partition.classifier(lambda x: 3, block_count=2).block_of(1),
         "classifier returned block 3 beyond the declared count 2"),
    ]
    for call, message in cases:
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == message


def test_partition_kinds_and_enumerators():
    explicit = Partition.explicit([[0], [1, 2]])
    assert explicit.blocks == (frozenset({0}), frozenset({1, 2}))
    assert [explicit.block_of(x) for x in (0, 1, 2)] == [1, 2, 2]
    assert explicit.block_rank is None
    open_ended = Partition.classifier(lambda x: x + 1)
    assert not open_ended.is_explicit and open_ended.blocks is None
    assert open_ended.block_count is None and open_ended.block_of(41) == 42
    assert open_ended.block_rank is None


def test_partition_cover_check():
    act = LeftTranslation(cyclic(4))
    check_partition_covers(act, Partition.explicit([[0, 2], [1, 3]]))
    with pytest.raises(InputError):
        check_partition_covers(act, Partition.explicit([[0, 2], [1]]))


def test_residue_partition_enumerators():
    # block b enumerates b-1, b-1+m, b-1-m, ... by zigzag; rank inverts that
    m = 3
    p = residue_partition(m)
    for b in (1, 2, 3):
        for pos in range(6):
            v = (b - 1) + m * zigzag_value(pos)
            assert p.block_of(v) == b
            assert p.block_rank(b, v) == pos


# ---------------------------------------------------------------------------
# finite configuration sets


def test_z2_singletons():
    act = LeftTranslation(cyclic(2))
    pair = ConfigPair((1,), Partition.explicit([[0], [1]]))
    assert configurations_finite(act, pair) == ((1, 2), (2, 1))


def test_z3_two_blocks():
    act = LeftTranslation(cyclic(3))
    pair = ConfigPair((1,), Partition.explicit([[0], [1, 2]]))
    assert configurations_finite(act, pair) == ((1, 2), (2, 1), (2, 2))


def test_z4_pair_with_identity_entry():
    act = LeftTranslation(cyclic(4))
    pair = ConfigPair((0, 1), Partition.explicit([[0, 2], [1, 3]]))
    assert configurations_finite(act, pair) == ((1, 1, 2), (2, 2, 1))


def test_generating_assertion_checked():
    act = LeftTranslation(cyclic(6))
    pair = ConfigPair((2,), Partition.explicit([[0, 2, 4], [1, 3, 5]]),
                      generating=True)
    with pytest.raises(PreconditionError):
        configurations_finite(act, pair)


names = sorted(FIXTURES)


@st.composite
def fixture_pair(draw):
    g = FIXTURES[draw(st.sampled_from(names))]
    n = g.order()
    k = draw(st.integers(min_value=1, max_value=3))
    elements = tuple(
        g.element_at(draw(st.integers(min_value=1, max_value=n))) for _ in range(k)
    )
    raw = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n)]
    # normalize to first-occurrence labels so every block 1..max is hit
    seen = {}
    labels = []
    for v in raw:
        labels.append(seen.setdefault(v, len(seen) + 1))
    table = dict(zip(g.elements(), labels))
    partition = Partition.classifier(table.__getitem__, block_count=max(labels))
    return g, ConfigPair(elements, partition)


@given(fixture_pair())
@settings(max_examples=150)
def test_matches_naive_oracle(data):
    g, pair = data
    act = LeftTranslation(g)
    got = set(configurations_finite(act, pair))
    expected = oracles.naive_configurations(
        g.elements(), g.mul, pair.elements, pair.partition.block_of
    )
    assert got == expected


@given(fixture_pair())
@settings(max_examples=60)
def test_windowed_subset_of_full(data):
    g, pair = data
    act = LeftTranslation(g)
    full = set(configurations_finite(act, pair))
    half = g.elements()[: max(1, g.order() // 2)]
    from confpara.groups import Window

    window = Window(f"part({len(half)})", tuple(half))
    assert set(windowed_configuration_set(act, pair, window)) <= full


# ---------------------------------------------------------------------------
# cells and the refinement identity


def test_z4_cells():
    act = LeftTranslation(cyclic(4))
    pair = ConfigPair((1,), Partition.explicit([[0, 2], [1, 3]]))
    assert configurations_with_cells(act, pair) == {
        (1, 2): (frozenset({0, 2}), frozenset({1, 3})),
        (2, 1): (frozenset({1, 3}), frozenset({0, 2})),
    }


def test_cells_partition_block():
    # E_i is the disjoint union of cells x_j(C) over C with C_j = i
    act = LeftTranslation(FIXTURES["S3"])
    g = FIXTURES["S3"]
    pair = ConfigPair(
        (g.element_at(2), g.element_at(4)),
        Partition.explicit([[g.element_at(i) for i in (1, 2)],
                            [g.element_at(i) for i in (3, 4, 5, 6)]]),
    )
    by_config = configurations_with_cells(act, pair)
    for i in (1, 2):
        block_pts = {x for x in g.elements() if pair.partition.block_of(x) == i}
        for j in range(3):
            union = set()
            for c, cells in by_config.items():
                if c[j] == i:
                    assert union.isdisjoint(cells[j])
                    union |= cells[j]
            assert union == block_pts


@given(fixture_pair())
@settings(max_examples=60)
def test_refinement_identity_holds(data):
    g, pair = data
    act = LeftTranslation(g)
    report = verify_refinement(act, pair, configurations_with_cells(act, pair))
    assert report.ok, report.violation


def test_refinement_flags_corruption():
    act = LeftTranslation(cyclic(4))
    pair = ConfigPair((1,), Partition.explicit([[0, 2], [1, 3]]))
    cells = dict(configurations_with_cells(act, pair))
    # drop a point from a base cell: its position-0 tiling gains a gap
    (c0, cs0) = next(iter(sorted(cells.items())))
    cells[c0] = (frozenset(list(cs0[0])[1:]),) + cs0[1:]
    report = verify_refinement(act, pair, cells)
    assert not report.ok
    assert report.violation["kind"] in ("gap", "overlap", "wrong-block")


def test_refinement_flags_overlap():
    act = LeftTranslation(cyclic(4))
    pair = ConfigPair((1,), Partition.explicit([[0, 2], [1, 3]]))
    cells = dict(configurations_with_cells(act, pair))
    items = sorted(cells)
    a, b = items[0], items[1]
    # graft one base cell onto the other
    cells[b] = (cells[a][0] | cells[b][0],) + cells[b][1:]
    report = verify_refinement(act, pair, cells)
    assert not report.ok


def test_refinement_flags_a_cell_in_the_wrong_block():
    act = LeftTranslation(cyclic(4))
    pair = ConfigPair((1,), Partition.explicit([[0, 2], [1, 3]]))
    # the cells of test_z4_cells with the translates swapped: each position
    # still tiles the group once, but the translate of (1, 2) lies in block 1
    swapped = {(1, 2): ({0, 2}, {0, 2}), (2, 1): ({1, 3}, {1, 3})}
    report = verify_refinement(act, pair, swapped)
    assert not report.ok
    assert report.violation == {
        "kind": "wrong-block", "position": 1, "point": 0, "config": (1, 2),
        "expected-block": 2, "actual-block": 1,
    }


def _windowed_case(kind):
    z = LeftTranslation(FreeAbelianGroup(1))
    if kind == "z-box":
        return z, ConfigPair((1, -2), residue_partition(3)), z.window({"box": 6})
    act = ProductAction(z)
    parity = Partition.classifier(lambda x: (x[0] + x[1]) % 2 + 1, block_count=2)
    return act, ConfigPair((1, 3), parity), act.window({"box": 3, "indices": [0, 2]})


@pytest.mark.parametrize("kind", ["z-box", "product"])
def test_windowed_cells_match_naive_blocks(kind):
    act, pair, window = _windowed_case(kind)
    cells = configurations_with_cells(act, pair, window)
    assert list(cells) == list(windowed_configuration_set(act, pair, window))
    naive = oracles.naive_refinement_blocks(
        window.points, act.act, act.group.inv, pair.elements,
        pair.partition.block_of, list(cells),
    )
    assert cells == {c: tuple(map(frozenset, naive[c])) for c in naive}
    # translates leave the window; only points with a windowed preimage count
    assert any(not cell[1] <= window.point_set for cell in cells.values())
    report = verify_refinement(act, pair, cells, window)
    assert report.ok, report.violation


# ---------------------------------------------------------------------------
# countable prefixes


def test_prefixes_on_integer_window():
    act = LeftTranslation(FreeAbelianGroup(1))
    pair = ConfigPair((1,), residue_partition(2))
    res = countable_config_prefixes(act, pair, 1, act.window({"box": 5}))
    assert res.prefixes == ((1, 2), (2, 1))
    assert not res.exact


def test_prefixes_exact_when_fully_windowed():
    act = LeftTranslation(cyclic(4))
    pair = ConfigPair((1,), Partition.explicit([[0, 2], [1, 3]]))
    res = countable_config_prefixes(act, pair, 1, act.window({"all": True}))
    assert res.exact
    assert res.prefixes == ((1, 2), (2, 1))


def test_prefix_depth_bounds():
    act = LeftTranslation(cyclic(4))
    pair = ConfigPair((1,), Partition.explicit([[0, 2], [1, 3]]))
    with pytest.raises(InputError):
        countable_config_prefixes(act, pair, 3, act.window({"all": True}))


# ---------------------------------------------------------------------------
# singleton split and merge


def split_fixture(modulus, elements, block_index):
    act = LeftTranslation(FreeAbelianGroup(1))
    pair = ConfigPair(tuple(elements), residue_partition(modulus))
    return act, pair, singleton_split(act, pair, block_index)


def test_split_produces_singletons_with_identity_tail():
    act, pair, split = split_fixture(2, (1,), 1)
    sp = split.pair
    assert sp.identity_tail_after == 1
    assert sp.element_at(1) == 1
    assert sp.element_at(2) == 0 and sp.element_at(9) == 0
    # designated block 1 (evens) relabeled to 2, then singletons 2, 3, ...
    part = sp.partition
    seen = {part.block_of(v) for v in range(-6, 7)}
    assert 1 in seen  # odds keep a finite label
    evens = sorted({part.block_of(v) for v in range(-6, 7, 2)})
    assert len(evens) == 7  # every even lands in its own block
    assert min(evens) >= 2


def test_split_prefixes_repeat_base_past_tuple_length():
    # identity tail forces d_j = d_0 for every position past the real tuple
    act, pair, split = split_fixture(2, (1,), 2)
    window = act.window({"box": 8})
    res = countable_config_prefixes(act, split.pair, 4, window)
    assert res.prefixes
    for d in res.prefixes:
        assert d[2] == d[0] and d[3] == d[0] and d[4] == d[0]


def test_split_rejects_explicit_partition():
    act = LeftTranslation(cyclic(4))
    pair = ConfigPair((1,), Partition.explicit([[0, 2], [1, 3]]))
    with pytest.raises(PreconditionError):
        singleton_split(act, pair, 1)


def test_split_rejects_partition_without_enumerators():
    act = LeftTranslation(FreeAbelianGroup(1))
    pair = ConfigPair((1,), Partition.classifier(lambda v: v % 2 + 1, block_count=2))
    with pytest.raises(PreconditionError, match="designated block lacks an enumerator"):
        singleton_split(act, pair, 1)


@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_merge_undoes_split(modulus, elements, data):
    block_index = data.draw(st.integers(min_value=1, max_value=modulus))
    act, pair, split = split_fixture(modulus, elements, block_index)
    merged = merge_blocks(split.pair, cutoff=modulus)
    assert merged.elements == pair.elements
    window = act.window({"box": 25})
    got = set(windowed_configuration_set(act, merged, window))
    relabel = split.relabeling
    expected = {
        tuple(relabel[v - 1] for v in c)
        for c in windowed_configuration_set(act, pair, window)
    }
    assert got == expected


def test_split_and_merge_refuse_bool_indices():
    act, pair, split = split_fixture(2, (1,), 1)
    for bad in (True, False, 1.0):
        with pytest.raises(InputError, match="^block index must be an integer, got "):
            singleton_split(act, pair, bad)
        with pytest.raises(InputError, match="^cutoff must be an integer, got "):
            merge_blocks(split.pair, bad)
    assert merge_blocks(split.pair, 2).partition.block_count == 2


def test_split_and_merge_keep_their_range_messages():
    act, pair, split = split_fixture(2, (1,), 1)
    for bad in (0, 3):
        with pytest.raises(InputError, match="^block index must be between 1 and 2$"):
            singleton_split(act, pair, bad)
    with pytest.raises(InputError, match="^cutoff must be >= 1$"):
        merge_blocks(split.pair, 0)


def test_merge_requires_countable_pair():
    act = LeftTranslation(cyclic(4))
    pair = ConfigPair((1,), Partition.explicit([[0, 2], [1, 3]]))
    with pytest.raises(InputError, match="expects a countable pair"):
        merge_blocks(pair, 2)
    open_tail = cf.CountablePair(lambda i: 0, pair.partition)
    with pytest.raises(InputError, match="tuple length unknown"):
        merge_blocks(open_tail, 2)


# ---------------------------------------------------------------------------
# set partitions


@pytest.mark.parametrize("n,m", [(0, 2), (3, 0), (1, 1), (3, 2), (4, 4), (5, 3), (6, 2)])
def test_set_partition_counts(n, m):
    got = list(set_partitions(n, m))
    assert len(got) == oracles.partitions_up_to(n, m)
    assert len({labels for labels, _, _ in got}) == len(got)
    assert all(fixing == [] for _, _, fixing in got)  # no maps given


def test_set_partitions_are_restricted_growth():
    for labels, b, _ in set_partitions(5, 4):
        assert labels[0] == 1
        assert max(labels) == b
        for i in range(1, 5):
            assert labels[i] <= max(labels[:i]) + 1


def test_bell_numbers():
    # full partition counts against the recurrence oracle
    for n in range(1, 7):
        assert len(list(set_partitions(n, n))) == oracles.bell(n)


def test_large_point_sets_stay_within_the_recursion_limit():
    # the enumeration is iterative: a single-block partition of 1200 points
    assert next(set_partitions(1200, 2)) == ((1,) * 1200, 1, [])
    trivial = TrivialAction(cyclic(2), points=range(1200))
    verdict = config_equiv_bounded(trivial, TrivialAction(cyclic(2), points=range(1200)), 1, 1)
    assert verdict.equivalent and verdict.family_sizes == (1, 1)


# ---------------------------------------------------------------------------
# bounded equivalence


def test_trivial_vs_translation_distinguished():
    z2 = cyclic(2)
    translation = LeftTranslation(z2)
    trivial = TrivialAction(z2, points=[0, 1])
    verdict = config_equiv_bounded(translation, trivial, 1, 2)
    assert not verdict.equivalent
    assert verdict.only_in_first is not None
    w = verdict.only_in_first
    assert w.configurations == ((1, 2), (2, 1))


def test_z4_vs_z2xz2_distinguished_at_1_2():
    from confpara.groups import direct_product

    z4 = LeftTranslation(cyclic(4))
    z22 = LeftTranslation(direct_product(cyclic(2), cyclic(2)))
    verdict = config_equiv_bounded(z4, z22, 1, 2)
    assert not verdict.equivalent
    assert verdict.family_sizes == (5, 4)
    assert verdict.only_in_first is not None
    assert verdict.only_in_second is None  # smaller family embeds in the larger


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z2xZ2"])
def test_group_equivalent_to_itself(name):
    a1 = LeftTranslation(FIXTURES[name])
    a2 = LeftTranslation(FIXTURES[name])  # distinct instance: decided by a conjugator
    verdict = config_equiv_bounded(a1, a2, 1, 3)
    assert verdict.equivalent
    assert verdict.family_sizes[0] == verdict.family_sizes[1]


def test_equiv_respects_cap():
    a1 = LeftTranslation(cyclic(4))
    a2 = LeftTranslation(cyclic(4))
    with pytest.raises(ResourceCapExceeded):
        config_equiv_bounded(a1, a2, 1, 4, cap=3)


def test_default_cap_env(monkeypatch):
    monkeypatch.delenv("CONFPARA_CAP", raising=False)
    assert default_partition_cap() == 500_000
    monkeypatch.setenv("CONFPARA_CAP", "1234")
    assert default_partition_cap() == 1234
    monkeypatch.setenv("CONFPARA_CAP", "zero")
    with pytest.raises(InputError):
        default_partition_cap()


def test_equiv_refusals(monkeypatch):
    z2 = LeftTranslation(cyclic(2))
    for n, m, what in [(0, 1, "tuple length n"), (1, 0, "block count m")]:
        with pytest.raises(InputError, match=f"^{what} must be >= 1$"):
            config_equiv_bounded(z2, z2, n, m)
    for n, m, what in [(True, 2, "tuple length n"), (2, True, "block count m"),
                       (2.0, 2, "tuple length n")]:
        with pytest.raises(InputError, match=f"^{what} must be an integer, got "):
            config_equiv_bounded(z2, z2, n, m)
    with pytest.raises(InputError, match="^bounded equivalence compares finite actions$"):
        config_equiv_bounded(z2, LeftTranslation(FreeAbelianGroup(1)), 1, 1)
    monkeypatch.setenv("CONFPARA_CAP", "0")
    with pytest.raises(InputError, match="^CONFPARA_CAP must be >= 1$"):
        config_equiv_bounded(z2, z2, 1, 1)


def test_cap_is_checked_before_any_tuple(monkeypatch):
    # 3^30 tuples under the first partition, 2^31 codes per relabeling; the
    # 4 partitions exceed cap 3 before either is built
    def no_work(*args):
        raise AssertionError("partition work done before the cap check")

    monkeypatch.setattr(cf, "_tuple_codes", no_work)
    monkeypatch.setattr(cf, "_code_maps", no_work)
    z3 = LeftTranslation(cyclic(3))
    with pytest.raises(ResourceCapExceeded, match="partition enumeration exceeded the cap of 3$"):
        config_equiv_bounded(z3, LeftTranslation(cyclic(3)), 30, 2, cap=3)


@pytest.mark.parametrize("order, n, m, message", [
    (3, 30, 2, "tuples per partition (3^30) exceed the cap of 500000"),
    (2, 10, 4, "codes per relabeling map (4^11) exceed the cap of 500000"),
    (2, 10 ** 9, 2, "tuples per partition (2^1000000000) exceed the cap of 500000"),
], ids=["tuples", "codes", "huge-n"])
def test_tuples_and_codes_are_bounded_before_any_is_built(monkeypatch, order, n, m, message):
    # the partitions fit the default cap (4 on Z3, 2 on Z2); one partition's
    # tuples or one code map does not, and nothing is built before it raises
    def no_work(*args):
        raise AssertionError("work done before the cap check")

    for name in ("_tuple_codes", "_code_maps", "normalizer_maps", "set_partitions"):
        monkeypatch.setattr(cf, name, no_work)
    monkeypatch.delenv("CONFPARA_CAP", raising=False)
    group = cyclic(order)
    with pytest.raises(ResourceCapExceeded) as info:
        config_equiv_bounded(LeftTranslation(group), LeftTranslation(group), n, m)
    assert str(info.value) == message and info.value.cap == 500_000


def test_tuple_and_code_bounds_admit_their_cap():
    # |G|^n = cap and m^(n+1) = cap are within it
    z2 = LeftTranslation(cyclic(2))
    assert config_equiv_bounded(z2, z2, 3, 2, cap=16).equivalent
    with pytest.raises(ResourceCapExceeded, match=r"^codes per relabeling map \(2\^4\)"):
        config_equiv_bounded(z2, z2, 3, 2, cap=15)
    with pytest.raises(ResourceCapExceeded, match=r"^tuples per partition \(2\^3\)"):
        config_equiv_bounded(z2, z2, 3, 2, cap=7)


def test_cap_counts_skipped_partitions():
    # symmetric partitions are skipped but still count against the cap
    z6 = LeftTranslation(cyclic(6))
    total = oracles.partitions_up_to(6, 3)
    assert config_equiv_bounded(z6, z6, 1, 3, cap=total).equivalent
    with pytest.raises(ResourceCapExceeded):
        config_equiv_bounded(z6, z6, 1, 3, cap=total - 1)


# ---------------------------------------------------------------------------
# maps conjugating the action's rows to rows


def compiled_rows(action):
    pts = list(action.points())
    idx = {p: i for i, p in enumerate(pts)}
    return [tuple(idx[action.act(g, p)] for p in pts) for g in action.group.elements()]


def coset_action(group, subgroup):
    """``group`` acting on its left cosets of ``subgroup``, points 0..k-1."""
    cosets = []
    for x in group.elements():
        if not any(x in c for c in cosets):
            cosets.append(frozenset(group.mul(x, s) for s in subgroup))
    index = {y: k for k, c in enumerate(cosets) for y in c}
    rows = [[index[group.mul(g, min(c))] for c in cosets] for g in group.elements()]
    return TableAction(group, range(len(cosets)), rows)


def relabeled(action, perm):
    """The same action as a table, its points listed in the order ``perm``."""
    pts = list(action.points())
    order = [pts[i] for i in perm]
    where = {p: k for k, p in enumerate(order)}
    rows = [[where[action.act(g, p)] for p in order] for g in action.group.elements()]
    return TableAction(action.group, order, rows)


def commuting(maps, rows):
    """The maps that commute with every row."""
    return [phi for phi in maps
            if all(phi[r[x]] == r[phi[x]] for r in rows for x in range(len(phi)))]


def automorphism_count(g):
    """Bijections of the elements fixing the identity that preserve the
    product, counted by trying every one."""
    rest = [x for x in g.elements() if x != g.identity]
    count = 0
    for image in itertools.permutations(rest):
        f = {g.identity: g.identity, **dict(zip(rest, image))}
        if all(f[g.mul(x, y)] == g.mul(f[x], f[y]) for x in rest for y in rest):
            count += 1
    return count


@pytest.mark.parametrize("name", names)
def test_left_translation_maps_are_the_holomorph(name):
    # the normalizer of the left regular action is G x| Aut(G)
    g = FIXTURES[name]
    maps = normalizer_maps(compiled_rows(LeftTranslation(g)))
    assert len(set(maps)) == len(maps) == g.order() * automorphism_count(g)
    assert maps[0] == tuple(range(g.order()))


@pytest.mark.parametrize("name", names)
def test_left_translation_maps_are_right_translations(name):
    # the maps among them that commute with every row
    g = FIXTURES[name]
    pts = g.elements()
    idx = {p: i for i, p in enumerate(pts)}
    right = {tuple(idx[g.mul(x, h)] for x in pts) for h in pts}
    rows = compiled_rows(LeftTranslation(g))
    assert set(commuting(normalizer_maps(rows), rows)) == right


@pytest.mark.parametrize("name,order", [("S3", 2), ("D4", 2), ("A4", 3)])
def test_coset_action_maps_are_normalizer_quotient(name, order):
    # the maps commuting with a coset action are N(H)/H
    g = reconstruction_groups()[name]
    for sub in (s for s in subgroups(g) if len(s) == order):
        normalizer = [
            x for x in g.elements()
            if frozenset(g.mul(g.mul(x, h), g.inv(x)) for h in sub) == sub
        ]
        rows = compiled_rows(coset_action(g, sub))
        assert len(commuting(normalizer_maps(rows), rows)) == len(normalizer) // order


def test_finite_trivial_action_maps_are_every_permutation():
    maps = normalizer_maps(compiled_rows(TrivialAction(cyclic(3), points=[0, 1, 2])))
    assert maps[0] == (0, 1, 2)
    assert sorted(maps) == list(itertools.permutations(range(3)))


def test_maps_stay_within_the_bound(monkeypatch):
    # twelve points whose normalizer has 2^6 * 6! maps; a bounded search
    # returns a prefix of the full list
    rows = compiled_rows(ProductAction(LeftTranslation(cyclic(2)), 6))
    maps = normalizer_maps(rows)
    assert len(maps) == 2 ** 6 * 720
    assert normalizer_maps(rows, 100) == maps[:100]
    assert normalizer_maps(rows, 0) == []
    # bounded equivalence uses fewer nontrivial maps than |G|^n and than the
    # partitions
    used = []

    def spy(rows, limit=None):
        out = normalizer_maps(rows, limit)
        used.append((len(rows), len(out) - 1))
        return out

    monkeypatch.setattr(cf, "normalizer_maps", spy)
    for action, n, m in [
        (ProductAction(LeftTranslation(cyclic(2)), 6), 1, 2),
        (ProductAction(LeftTranslation(cyclic(2)), 6), 3, 2),
        (LeftTranslation(FIXTURES["Z2xZ2"]), 1, 2),
        (LeftTranslation(FIXTURES["Z2xZ2"]), 2, 2),
        (LeftTranslation(FIXTURES["Q8"]), 2, 3),
    ]:
        used.clear()
        config_equiv_bounded(action, action, n, m)
        points = len(action.points())
        bound = min(len(action.group.elements()) ** n, oracles.partitions_up_to(points, m) - 1)
        assert used == [(len(action.group.elements()), bound)]


D4_COSET = coset_action(FIXTURES["D4"], next(s for s in subgroups(FIXTURES["D4"]) if len(s) == 2))
ROW_ACTIONS = pytest.mark.parametrize("action", [
    LeftTranslation(FIXTURES["Q8"]),
    D4_COSET,
    ProductAction(LeftTranslation(FIXTURES["Z2xZ2"]), index_count=2),
    ProductAction(TrivialAction(cyclic(2), points=["u", "v"]), index_count=2),
    ProductAction(LeftTranslation(cyclic(2)), index_count=6),
], ids=["Q8", "D4-coset", "Z2xZ2-x2", "trivial-x2", "Z2-x6"])


def assert_conjugators(maps, rows, targets):
    """Every map is a permutation conjugating each row to one of ``targets``."""
    target_set = set(targets)
    assert len(set(maps)) == len(maps)
    for phi in maps:
        assert sorted(phi) == list(range(len(phi)))
        inverse = sorted(range(len(phi)), key=phi.__getitem__)
        assert all(tuple(phi[r[x]] for x in inverse) in target_set for r in set(rows))


@ROW_ACTIONS
def test_maps_conjugate_every_row_to_a_row(action):
    rows = compiled_rows(action)
    assert_conjugators(normalizer_maps(rows), rows, rows)


@ROW_ACTIONS
def test_conjugating_maps_carry_rows_onto_a_relabelled_presentation(action):
    # the conjugators onto a relabelled copy are one coset of the normalizer
    rows = compiled_rows(action)
    perm = list(range(len(rows[0])))
    random.Random(len(perm)).shuffle(perm)
    targets = compiled_rows(relabeled(action, perm))
    maps = conjugating_maps(rows, targets)
    assert_conjugators(maps, rows, targets)
    assert len(maps) == len(normalizer_maps(rows))
    assert conjugating_maps(rows, targets, 1) == maps[:1]


def semidirect_z4_z4():
    """Z4 x| Z4 with b a b^-1 = a^-1; a^i b^j has index 4j + i."""
    return CayleyTableGroup([
        [4 * ((j + l) % 4) + (i + (-1) ** j * k) % 4 for l in range(4) for k in range(4)]
        for j in range(4) for i in range(4)
    ], 0, name="Z4:Z4")


def s4_on(points):
    """S4 acting on ``points``: digits 0..3, or sets of them, nested."""
    def image(p, x):
        return p[x] if isinstance(x, int) else frozenset(image(p, y) for y in x)

    where = {x: i for i, x in enumerate(points)}
    perms = sorted(itertools.permutations(range(4)))  # symmetric(4)'s element order
    rows = [[where[image(p, x)] for x in points] for p in perms]
    return TableAction(symmetric(4), range(len(points)), rows)


EDGES = [frozenset(e) for e in itertools.combinations(range(4), 2)]
PAIRINGS = [frozenset({e, frozenset(range(4)) - e}) for e in EDGES if 0 in e]


def count_families(monkeypatch):
    """The point counts of the configuration families built from now on."""
    built = []
    real = cf._configuration_family

    def spy(compiled, *args):
        built.append(len(compiled[0]))
        return real(compiled, *args)

    monkeypatch.setattr(cf, "_configuration_family", spy)
    return built


def test_equal_cycle_types_without_a_conjugator_build_both_families(monkeypatch):
    first = LeftTranslation(direct_product(cyclic(4), cyclic(4)))
    other = LeftTranslation(semidirect_z4_z4())
    rows1, rows2 = compiled_rows(first), compiled_rows(other)
    assert sorted(map(cf._cycle_type, set(rows1))) == sorted(map(cf._cycle_type, set(rows2)))
    assert conjugating_maps(rows1, rows2, 1) == []
    built = count_families(monkeypatch)
    verdict = config_equiv_bounded(first, other, 1, 2)
    assert verdict == EquivVerdict(True, 1, 2, None, None, (5, 5))
    assert built == [16, 16]
    # a relabelled presentation is decided from one family
    built.clear()
    perm = list(range(16))
    random.Random(16).shuffle(perm)
    assert config_equiv_bounded(first, relabeled(first, perm), 1, 2) == verdict
    assert built == [16]


def test_a_map_from_the_search_is_checked_on_every_row(monkeypatch):
    # S4 on four digits and three pairings, and on six edges and a fixed
    # point: equal cycle types, no conjugator, distinguished at (2, 2).  A
    # search answering the identity must not decide the pair.
    first, other = s4_on([0, 1, 2, 3, *PAIRINGS]), s4_on([*EDGES, frozenset()])
    verdict = config_equiv_bounded(first, other, 2, 2)
    assert not verdict.equivalent and verdict.family_sizes == (30, 27)
    real = cf.conjugating_maps

    def identity_only(rows, targets, limit=None):
        if targets is rows:
            return real(rows, targets, limit)
        return [tuple(range(len(rows[0])))]

    monkeypatch.setattr(cf, "conjugating_maps", identity_only)
    assert config_equiv_bounded(first, other, 2, 2) == verdict


@pytest.mark.parametrize("first, other, n, m", [
    (TrivialAction(cyclic(2), points=range(4)),
     ProductAction(LeftTranslation(cyclic(2)), index_count=2), 1, 2),
    (ProductAction(LeftTranslation(cyclic(2)), index_count=2),
     LeftTranslation(FIXTURES["Z2xZ2"]), 2, 2),
], ids=["trivial-Z2x2", "Z2x2-Z2xZ2"])
def test_a_subgroup_presentation_is_not_a_conjugate(first, other, n, m):
    # the first action's rows conjugate into a proper subgroup of the
    # other's: the search alone finds a map, the distinct-row cycle types
    # refuse it
    assert conjugating_maps(compiled_rows(first), compiled_rows(other), 1)
    for a, b in [(first, other), (other, first)]:
        verdict = config_equiv_bounded(a, b, n, m)
        assert not verdict.equivalent
        assert verdict == naive_verdict(a, b, n, m)


# ---------------------------------------------------------------------------
# bounded equivalence against the naive enumerator

SUBGROUPS = {name: subgroups(g) for name, g in FIXTURES.items()}


@st.composite
def small_action(draw):
    """A left-coset action of a fixture group, or two copies of one, on at
    most six points, sometimes presented as a table in a random point order."""
    name = draw(st.sampled_from(names))
    g = FIXTURES[name]
    two_copies = draw(st.booleans())
    most = 3 if two_copies else 6
    subs = [s for s in SUBGROUPS[name] if g.order() // len(s) <= most]
    action = coset_action(g, draw(st.sampled_from(subs)))
    if two_copies:
        action = ProductAction(action, index_count=2)
    if draw(st.booleans()):
        action = relabeled(action, draw(st.permutations(range(len(action.points())))))
    return action


def naive_witness(action, family, other, direction):
    canon = next((c for c in family if c not in other), None)
    if canon is None:
        return None
    t, labels = family[canon]
    pts = list(action.points())
    block = dict(zip(pts, labels))
    return PairWitness(
        direction,
        tuple(action.group.format(g) for g in t),
        tuple(
            tuple(action.format_point(p) for p in pts if block[p] == i)
            for i in range(1, max(labels) + 1)
        ),
        tuple(sorted(oracles.naive_configurations(pts, action.act, t, block.__getitem__))),
    )


def naive_verdict(first, other, n, m):
    fam1, fam2 = (
        oracles.naive_configuration_family(a.points(), a.act, a.group.elements(), n, m)
        for a in (first, other)
    )
    return EquivVerdict(
        equivalent=fam1.keys() == fam2.keys(),
        n=n,
        m=m,
        only_in_first=naive_witness(first, fam1, fam2, "first-not-second"),
        only_in_second=naive_witness(other, fam2, fam1, "second-not-first"),
        family_sizes=(len(fam1), len(fam2)),
    )


@given(small_action(), small_action(), st.booleans(),
       st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3),
       st.data())
@settings(max_examples=100, deadline=None)
def test_equiv_matches_naive_enumerator(first, other, same, n, m, data):
    if same:
        perm = data.draw(st.permutations(range(len(first.points()))))
        other = relabeled(first, perm)
    assert config_equiv_bounded(first, other, n, m) == naive_verdict(first, other, n, m)


# two copies of Z4 on its cosets of {0, 2}: four points, and elements 0 and
# 2 (1 and 3) share a row, so each induced permutation picks the first
Z4_HALVES_TWICE = ProductAction(coset_action(FIXTURES["Z4"], {0, 2}), index_count=2)


@pytest.mark.parametrize("first, other, n, m", [
    (LeftTranslation(FIXTURES["Z4"]), LeftTranslation(FIXTURES["Z2xZ2"]), 2, 4),
    (LeftTranslation(FIXTURES["Z6"]), LeftTranslation(FIXTURES["S3"]), 1, 4),
    # distinct instances: Z5-Z5 is decided by a conjugator
    (LeftTranslation(FIXTURES["Z5"]), LeftTranslation(FIXTURES["Z5"]), 2, 4),
    (Z4_HALVES_TWICE, LeftTranslation(FIXTURES["Z4"]), 2, 4),
], ids=["Z4-Z2xZ2-n2", "Z6-S3-n1", "Z5-Z5-n2", "Z4-halves-twice-vs-Z4-n2"])
def test_equiv_matches_naive_enumerator_at_four_blocks(first, other, n, m):
    # all 24 relabelings of four blocks; the property above stops at m = 3
    assert config_equiv_bounded(first, other, n, m) == naive_verdict(first, other, n, m)


def naive_class(action, labels, t):
    """The configuration set of (t, labels) up to block relabeling, as its
    least relabeled sorted list."""
    pts = list(action.points())
    block = dict(zip(pts, labels))
    elements = action.group.elements()
    configs = oracles.naive_configurations(
        pts, action.act, [elements[g] for g in t], block.__getitem__)
    return min(tuple(sorted(tuple(sigma[c - 1] for c in cfg) for cfg in configs))
               for sigma in itertools.permutations(range(1, max(labels) + 1)))


@given(small_action(), st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=3))
# S3 on its three cosets of {0, 1}, partition (1, 1, 2): the one map fixing it
# moves element 1, so after the entry 1 it must stop barring element 4, or
# (1, 4), the first tuple of its class, is skipped
@example(coset_action(FIXTURES["S3"], frozenset({0, 1})), 2, 2)
@settings(max_examples=40, deadline=None)
def test_skipped_tuples_never_hold_the_first_of_a_class(action, n, m):
    # under each kept partition, the tuples evaluated are in product order
    # and include the first tuple of every class the full product realizes
    rows = compiled_rows(action)
    maps = normalizer_maps(rows)[1:]
    pairs = cf._induced_perms(rows, maps)
    for labels, b, fixing in set_partitions(len(rows[0]), m, maps):
        moving = [pairs[k] for k in fixing if pairs[k]]
        got = [t for t, _codes in cf._tuple_codes(labels, rows, n, m, moving)]
        assert got == sorted(got)
        firsts = {}
        for t in itertools.product(range(len(rows)), repeat=n):
            firsts.setdefault(naive_class(action, labels, t), t)
        assert set(firsts.values()) <= set(got)
        assert {naive_class(action, labels, t) for t in got} == firsts.keys()


@pytest.mark.parametrize("action", [
    LeftTranslation(FIXTURES["D4"]),
    D4_COSET,
    Z4_HALVES_TWICE,
    TrivialAction(cyclic(3), points=[0, 1, 2]),
], ids=["D4", "D4-coset", "Z4-halves-twice", "trivial"])
def test_induced_permutations_conjugate_rows(action):
    # phi r_g phi^-1 is the row of perm[g], the first element with that row;
    # a map that sends no element lower comes back as None
    rows = compiled_rows(action)
    maps = normalizer_maps(rows)
    pairs = cf._induced_perms(rows, maps)
    assert len(pairs) == len(maps)
    for phi, pair in zip(maps, pairs):
        inverse = sorted(range(len(phi)), key=phi.__getitem__)
        perm = [rows.index(tuple(phi[r[x]] for x in inverse)) for r in rows]
        lower = {g for g in range(len(rows)) if perm[g] < g}
        assert pair == ((perm, lower) if lower else None)


class Unread(tuple):
    """A point map whose images may not be read."""

    def __getitem__(self, x):
        raise AssertionError("a base point was read")

    def index(self, p):
        raise AssertionError("a base point was read")


def test_trivial_action_needs_no_base_point():
    # a single distinct row: every element's conjugate is element 0's row,
    # read off no point of the map
    rows = compiled_rows(TrivialAction(cyclic(3), points=[0, 1, 2]))
    maps = [Unread(phi) for phi in itertools.permutations(range(3))]
    assert cf._induced_perms(rows, maps) == [([0, 0, 0], {1, 2})] * 6


def test_each_family_resolves_its_symmetries_once(monkeypatch):
    # n > 1 and a map besides the identity: one _induced_perms call per
    # family, over all its symmetries
    calls = []
    real = cf._induced_perms

    def spy(rows, maps):
        calls.append((len(set(rows)), len(maps)))
        return real(rows, maps)

    monkeypatch.setattr(cf, "_induced_perms", spy)
    trivial = TrivialAction(cyclic(3), points=[0, 1, 2])
    translation = LeftTranslation(cyclic(3))
    verdict = config_equiv_bounded(trivial, translation, 2, 3)
    # each family takes fewer maps than its 5 partitions, the identity
    # not counted: 4 of the trivial action's 6 and of Z3's holomorph's 6
    assert calls == [(1, 4), (3, 4)]
    monkeypatch.undo()
    assert verdict == naive_verdict(trivial, translation, 2, 3)


def test_tuple_work_on_z8(monkeypatch):
    # Z8 with itself at (2, 3): 66 kept partitions of 64 tuples each are
    # 4,224 tuples; the two skip rules leave 2,473
    evaluated = []
    real = cf._tuple_codes

    def spy(*args):
        for item in real(*args):
            evaluated.append(item[0])
            yield item

    monkeypatch.setattr(cf, "_tuple_codes", spy)
    z8 = LeftTranslation(FIXTURES["Z8"])
    assert config_equiv_bounded(z8, z8, 2, 3).family_sizes == (966, 966)
    assert len(evaluated) == 2473


def test_relabeled_images_on_z8(monkeypatch):
    # Z8 with itself at (2, 3): probing every new code set builds 4,934
    # images; a set whose shape is new under its block count needs none
    built = []
    real = cf._relabeled

    def spy(codes, relabelings):
        for image in real(codes, relabelings):
            built.append(image)
            yield image

    monkeypatch.setattr(cf, "_relabeled", spy)
    z8 = LeftTranslation(FIXTURES["Z8"])
    assert config_equiv_bounded(z8, z8, 2, 3).family_sizes == (966, 966)
    assert len(built) == 3108


def naive_pattern(code, m, n):
    """The base-m digits of a code, renumbered in order of first occurrence."""
    first = {}
    return tuple(first.setdefault(code // m ** (n - j) % m, len(first)) for j in range(n + 1))


def codes_over(b, m, n):
    """Sets of one to eight codes of length n + 1 over the digits of b
    blocks, base m."""
    digits = st.tuples(*[st.integers(min_value=0, max_value=b - 1)] * (n + 1))
    return st.lists(digits, min_size=1, max_size=8, unique=True).map(
        lambda tuples: frozenset(sum(d * m ** (n - j) for j, d in enumerate(t)) for t in tuples))


@st.composite
def code_sets(draw):
    """(b, m, n, codes): a set of codes (see codes_over), b <= 4 and n <= 3."""
    b = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=b, max_value=4))
    n = draw(st.integers(min_value=0, max_value=3))
    return b, m, n, draw(codes_over(b, m, n))


def shape_of(weight, codes):
    return sum(map(weight.__getitem__, codes))


@given(code_sets())
@settings(max_examples=200, deadline=None)
def test_every_relabeling_keeps_a_code_sets_shape(drawn):
    b, m, n, codes = drawn
    maps = cf._code_maps(b, m, n)
    weight = cf._pattern_weights(m, n)
    for cm in maps:
        assert shape_of(weight, {cm[c] for c in codes}) == shape_of(weight, codes)


@given(code_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_sets_with_the_same_patterns_share_a_shape(drawn, data):
    # the other set relabels each code on its own: the same patterns, but
    # codes may merge, and the set is seldom a relabeling of the first.
    # Sets with different patterns may share a shape too, which costs only
    # the probe, so that direction is not checked.
    b, m, n, codes = drawn
    maps = cf._code_maps(b, m, n)
    other = {data.draw(st.sampled_from(maps))[c] for c in codes}
    weight = cf._pattern_weights(m, n)
    if sorted(naive_pattern(c, m, n) for c in codes) == sorted(
            naive_pattern(c, m, n) for c in other):
        assert shape_of(weight, codes) == shape_of(weight, other)


def test_pattern_weights_are_one_machine_word_per_pattern():
    # one 64-bit word per code, equal exactly for codes with one pattern,
    # however many patterns there are (Z3 with itself at n = 10, m = 3 has
    # 29,525 of them; a smaller table of that kind keeps the test quick)
    weight = cf._pattern_weights(3, 6)
    assert len(weight) == 3 ** 7
    by_pattern = {}
    for code, w in enumerate(weight):
        assert 0 <= w < 2 ** 64
        assert by_pattern.setdefault(naive_pattern(code, 3, 6), w) == w
    assert len(set(by_pattern.values())) == len(by_pattern) == 365


@pytest.mark.parametrize("m", [2, 3], ids=["two-blocks", "three-blocks"])
@given(action=small_action(), n=st.integers(min_value=1, max_value=2))
@settings(max_examples=50, deadline=None)
def test_family_matches_the_naive_family(m, action, n):
    # the classes in order, each with its first witness and its codes, over
    # partitions into at most two blocks and at most three
    pts, gels, _rows = compiled = cf._compile(action)
    family = cf._configuration_family(compiled, n, m, 10**6, {})
    naive = oracles.naive_configuration_family(pts, action.act, gels, n, m)
    got = []
    for codes, (t, labels, b) in family.items():
        configs = oracles.naive_configurations(
            pts, action.act, [gels[g] for g in t], dict(zip(pts, labels)).__getitem__)
        assert codes == {sum((c - 1) * m ** (n - j) for j, c in enumerate(cfg))
                         for cfg in configs}
        assert b == max(labels)
        got.append((naive_class(action, labels, t), (tuple(gels[g] for g in t), labels)))
    assert got == list(naive.items())


@pytest.mark.parametrize("first, other, n, m", [
    (TrivialAction(cyclic(2), points=[0]), TrivialAction(cyclic(2), points=[0]), 2, 1),
    (LeftTranslation(FIXTURES["Z4"]), LeftTranslation(FIXTURES["Z2xZ2"]), 1, 2),
], ids=["one-point", "n1"])
def test_no_base_without_a_map_to_resolve(monkeypatch, first, other, n, m):
    # one point keeps no map; at n = 1 the fixing maps are not resolved
    def no_lookup(rows, maps):
        raise AssertionError("maps resolved with no map to resolve")

    monkeypatch.setattr(cf, "_induced_perms", no_lookup)
    verdict = config_equiv_bounded(first, other, n, m)
    monkeypatch.undo()
    assert verdict == naive_verdict(first, other, n, m)


@pytest.mark.parametrize("first, other, n, m", [
    (LeftTranslation(FIXTURES["Z5"]), LeftTranslation(FIXTURES["Z5"]), 2, 4),
    (D4_COSET, relabeled(D4_COSET, [3, 1, 0, 2]), 2, 3),
], ids=["Z5-Z5-n2", "D4-coset-relabelled-n2"])
def test_two_family_path_on_conjugate_pairs(monkeypatch, first, other, n, m):
    # with the conjugation search finding nothing, both families are built
    # and compared, and the verdict is the one the shortcut gives
    real = cf.conjugating_maps
    monkeypatch.setattr(cf, "conjugating_maps", lambda rows, targets, limit=None:
                        real(rows, targets, limit) if targets is rows else [])
    built = count_families(monkeypatch)
    verdict = config_equiv_bounded(first, other, n, m)
    assert len(built) == 2
    assert verdict == naive_verdict(first, other, n, m)
    monkeypatch.undo()
    assert config_equiv_bounded(first, other, n, m) == verdict


@given(small_action(), st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=100, deadline=None)
def test_pruned_partitions_match_the_orbit_filter(action, m, data):
    # any list of permutations of the points, repeats included: maps of the
    # normalizer and arbitrary ones, since the pruning must not rely on a
    # group; ``fixing`` holds the position of each fixing map, so a map
    # listed twice is there once per occurrence
    maps = normalizer_maps(compiled_rows(action))
    n = len(action.points())
    chosen = data.draw(st.lists(
        st.one_of(st.sampled_from(maps), st.permutations(range(n)).map(tuple)), max_size=12))
    if chosen:
        chosen += data.draw(st.lists(st.sampled_from(chosen), max_size=3))
    got = [(labels, b, sorted(fixing)) for labels, b, fixing in set_partitions(n, m, chosen)]
    assert got == [
        (labels, b, [k for k, phi in enumerate(chosen) if oracles.fixes(labels, phi)])
        for labels, b, _ in set_partitions(n, m)
        if oracles.least_in_orbit(labels, chosen)
    ]
