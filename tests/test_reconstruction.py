"""Coset recovery from canonical configuration sets."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from confpara import configurations, reconstruction
from confpara.actions import LeftTranslation
from confpara.catalog import cyclic, reconstruction_groups
from confpara.configurations import ConfigPair, Partition
from confpara.errors import InputError, PreconditionError, ResourceCapExceeded
from confpara.groups import (
    FreeAbelianGroup,
    direct_product,
    is_normal,
    normal_subgroups,
    quotient_group,
    subgroups,
)
from confpara.reconstruction import (
    CosetFamily,
    MultiplicationIndexTable,
    multiplication_index_table,
    q_group_refinement_check,
    quotient_recovery_roundtrip,
    recover_cosets,
    refined_partition_of,
    table_from_canonical_enumeration,
    table_from_configurations,
    validate_table,
    verify_normal_and_iso,
)


# ---------------------------------------------------------------------------
# index tables


def test_z4_table_rows():
    z4 = cyclic(4)
    t = multiplication_index_table(z4, z4.elements())
    assert t.bound == 4
    assert t.rows == (
        (1, 2, 3, 4),
        (2, 3, 4, 1),
        (3, 4, 1, 2),
        (4, 1, 2, 3),
    )
    assert t.total
    assert t.inverse(2) == 4
    assert validate_table(t) == []


def test_table_requires_identity_first():
    z4 = cyclic(4)
    with pytest.raises(InputError):
        multiplication_index_table(z4, [1, 0, 2, 3])
    with pytest.raises(InputError):
        multiplication_index_table(z4, [0, 1, 1, 3])


def test_partial_table_on_integer_window():
    z = FreeAbelianGroup(1)
    t = table_from_canonical_enumeration(z, 5)  # 0, 1, -1, 2, -2
    assert t.entry(2, 2) == 4  # 1 + 1 = 2 sits at position 4
    assert t.entry(2, 4) is None  # 1 + 2 = 3 is outside the bound
    assert not t.total
    assert validate_table(t) == []


def test_validate_table_flags_corruption():
    # quasigroup but not associative: (2*2)*2 = 2 while 2*(2*2) = 1
    rows = ((1, 2, 3), (2, 3, 1), (3, 2, 1))
    t = MultiplicationIndexTable(3, rows, ("e", "g", "h"))
    kinds = {p["kind"] for p in validate_table(t)}
    assert "associativity" in kinds
    rows = ((1, 2), (1, 2))
    t = MultiplicationIndexTable(2, rows, ("e", "g"))
    kinds = {p["kind"] for p in validate_table(t)}
    assert "identity-column" in kinds


# ---------------------------------------------------------------------------
# reading a table off a configuration set


def test_table_from_configurations_z4():
    z4 = cyclic(4)
    act = LeftTranslation(z4)
    pair = ConfigPair((0, 1, 2, 3), Partition.explicit([[0], [1], [2], [3]]))
    t = table_from_configurations(act, pair)
    reference = multiplication_index_table(z4, z4.elements())
    assert t.rows == reference.rows


def test_table_from_configurations_rejects_non_canonical():
    z4 = cyclic(4)
    act = LeftTranslation(z4)
    pair = ConfigPair((0, 1), Partition.explicit([[0, 2], [1, 3]]))
    # two elements, two blocks: only two configurations, but bound 2 needs
    # first entries {1, 2} with rows forming a group table on 2 indices;
    # this one works and recovers the quotient table
    t = table_from_configurations(act, pair)
    assert t.bound == 2
    assert t.rows == ((1, 2), (2, 1))
    bad = ConfigPair((1, 2), Partition.explicit([[0, 2], [1, 3]]))
    with pytest.raises(PreconditionError):
        table_from_configurations(act, bad)


# ---------------------------------------------------------------------------
# recovery


def test_recover_z4_mod_evens():
    z4 = cyclic(4)
    t = multiplication_index_table(cyclic(2), cyclic(2).elements())
    pair = ConfigPair((0, 1), Partition.explicit([[0, 2], [1, 3]]))
    family = recover_cosets(z4, pair, t)
    assert family.subgroup == frozenset({0, 2})
    assert family.blocks == (frozenset({0, 2}), frozenset({1, 3}))
    assert family.identity_block_before == 1
    report = verify_normal_and_iso(z4, family, t)
    assert report.ok
    assert report.subgroup_order == 2 and report.coset_count == 2


def test_recover_normalizes_identity_block():
    z2 = cyclic(2)
    t = multiplication_index_table(z2, z2.elements())
    # identity sits in the second listed block; recovery relabels it to 1
    pair = ConfigPair((0, 1), Partition.explicit([[1], [0]]))
    family = recover_cosets(z2, pair, t)
    assert family.identity_block_before == 2
    assert family.subgroup == frozenset({0})
    assert family.blocks == (frozenset({0}), frozenset({1}))


def test_recover_accepts_non_generating_tuple():
    # the tuple need not generate: blocks of Z2 x Z2 by first coordinate,
    # translators e and (1,0); the second coordinate is never reached
    h = direct_product(cyclic(2), cyclic(2))  # 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
    t = multiplication_index_table(cyclic(2), cyclic(2).elements())
    pair = ConfigPair((0, 2), Partition.explicit([[0, 1], [2, 3]]))
    family = recover_cosets(h, pair, t)
    assert family.subgroup == frozenset({0, 1})
    assert verify_normal_and_iso(h, family, t).ok


def test_recover_rejects_wrong_configuration_set():
    z4 = cyclic(4)
    t = multiplication_index_table(cyclic(2), cyclic(2).elements())
    pair = ConfigPair((0, 1), Partition.explicit([[0, 1], [2, 3]]))
    with pytest.raises(PreconditionError):
        recover_cosets(z4, pair, t)


def test_recover_rejects_wrong_tuple_length():
    z4 = cyclic(4)
    t = multiplication_index_table(cyclic(2), cyclic(2).elements())
    pair = ConfigPair((0,), Partition.explicit([[0, 2], [1, 3]]))
    with pytest.raises(PreconditionError):
        recover_cosets(z4, pair, t)


def test_verify_flags_non_subgroup_blocks():
    z4 = cyclic(4)
    t = multiplication_index_table(cyclic(2), cyclic(2).elements())
    fake = CosetFamily(
        (frozenset({0, 1}), frozenset({2, 3})), (0, 1), (1, 2), 1
    )
    report = verify_normal_and_iso(z4, fake, t)
    assert not report.ok
    kinds = {f["identity"] for f in report.failures}
    assert "subgroup-closure" in kinds or "coset-product" in kinds


def test_out_of_range_entries_keep_their_input_error():
    # 3 is no index of a bound-2 table: read as a row, it is an error, not
    # a verdict
    for rows in [((1, 2), (2, 3)), ((1, 3), (2, 1))]:
        t = MultiplicationIndexTable(2, rows, ("e", "g"))
        with pytest.raises(InputError, match=r"^table indices \(1,3\) out of range 1\.\.2$"):
            validate_table(t)
        with pytest.raises(InputError, match=r"^table indices \(1,3\) out of range 1\.\.2$"):
            oracles.naive_validate_table(t)
    t = MultiplicationIndexTable(2, ((1, 2), (2, 1)), ("e", "g"))
    with pytest.raises(InputError, match=r"^table indices \(3,1\) out of range 1\.\.2$"):
        t.inverse(3)
    assert MultiplicationIndexTable(0, (), ()).inverse(3) is None


def test_partial_table_reports_every_associativity_failure():
    # entries outside the window are None; a known clash is still reported
    rows = ((1, 2, 3), (2, 1, 1), (3, 1, None))
    t = MultiplicationIndexTable(3, rows, ("e", "g", "h"))
    assert validate_table(t) == oracles.naive_validate_table(t) == [
        {"kind": "associativity", "at": (2, 2, 3), "left": 3, "right": 2},
        {"kind": "associativity", "at": (3, 2, 2), "left": 2, "right": 3},
    ]


def test_coset_law_failure_names_the_least_block():
    # the table read off this pair's configurations is no group table (its
    # identity sits in row 2), so the relabeled blocks break the coset law
    z3 = cyclic(3)
    pair = ConfigPair((1, 0, 2), Partition.explicit([[1], [2], [0]]))
    t = MultiplicationIndexTable(3, ((2, 3, 1), (1, 2, 3), (3, 1, 2)), ("1", "2", "3"))
    message = "translate of block 1 by tuple entry 1 is not block 2"
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        recover_cosets(z3, pair, t)
    with pytest.raises(oracles.Refusal, match=f"^{message}$"):
        oracles.naive_recover_cosets(z3.elements(), z3.mul, z3.identity, pair.elements,
                                     pair.partition.block_of, t)


def test_verify_takes_setwise_products_off_the_coset_shortcut():
    # Z4 over {0, 2}: an empty block, a block that is a coset plus one
    # element, and tables of other bounds each fall back to setwise
    # products, with the reference's failures or error
    z4 = cyclic(4)
    t = multiplication_index_table(cyclic(2), cyclic(2).elements())
    cosets = (frozenset({0, 2}), frozenset({1, 3}))
    cases = [
        ((frozenset({0, 2}), frozenset()), t),
        ((frozenset({0, 2}), frozenset({1, 2, 3})), t),
        (cosets, multiplication_index_table(cyclic(1), cyclic(1).elements())),
        (cosets, multiplication_index_table(z4, z4.elements())),
    ]
    outcomes = [_outcome(_verified, z4, blocks, table) for blocks, table in cases]
    assert outcomes == [_outcome(oracles.naive_verify_normal_and_iso, z4, blocks, table)
                        for blocks, table in cases]
    assert [o[0] for o in outcomes[:3]] == ["ok", "ok", "InputError"]
    assert not outcomes[0][1][0] and not outcomes[1][1][0]


def test_a_subset_outside_the_group_is_not_normal():
    # -2 indexes row 2 of Z4's table, so every conjugate of {0, 2, -2} lies
    # in {0, 2}: as sets they differ, though each conjugate is a member
    z4 = cyclic(4)
    sub = frozenset({0, 2, -2})
    assert is_normal(z4, {0, 2})
    assert not is_normal(z4, sub)
    assert not oracles.naive_is_normal(z4.elements(), z4.mul, z4.inv, sub)
    blocks = (sub, frozenset({1, 3}))
    t = multiplication_index_table(cyclic(2), cyclic(2).elements())
    report = _verified(z4, blocks, t)
    assert report == oracles.naive_verify_normal_and_iso(z4, blocks, t)
    assert {"identity": "normality", "witness": "0"} in report[1]


# ---------------------------------------------------------------------------
# the certificate against its slow reference


GROUPS = reconstruction_groups()


@functools.cache
def _subgroups(name):
    """(normal subgroups, non-normal subgroups) of a reconstruction group."""
    g = GROUPS[name]
    normal = {s: oracles.naive_is_normal(g.elements(), g.mul, g.inv, s) for s in subgroups(g)}
    return [s for s in normal if normal[s]], [s for s in normal if not normal[s]]


def _verified(group, blocks, table):
    """The fields of ``verify_normal_and_iso``'s report on these blocks."""
    report = verify_normal_and_iso(group, CosetFamily(blocks, (), (), 1), table)
    return report.ok, report.failures, report.iso, report.subgroup_order, report.coset_count


def _outcome(call, *args):
    """("ok", the call's value), or its exception as (class name, message)."""
    try:
        return "ok", call(*args)
    except oracles.Refusal as exc:
        return exc.kind, str(exc)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _recovered(group, pair, table):
    family = recover_cosets(group, pair, table)
    return family.blocks, family.relabeling, family.identity_block_before


def _left_cosets(group, sub):
    cosets = []
    for x in group.elements():
        coset = frozenset(group.mul(x, s) for s in sub)
        if coset not in cosets:
            cosets.append(coset)
    return cosets


CORRUPTIONS = ("none", "swap", "none-entry", "out-of-range", "tuple-entry", "read-off",
               "non-normal", "not-cosets", "empty-block")


@st.composite
def certificate_input(draw):
    """(H, pair, table, blocks): from H over a normal subgroup, the pair's
    blocks are the cosets right-translated by a coset and its tuple random
    coset representatives, the table is the quotient's, and the blocks to
    certify, besides any the pair recovers, are the cosets; then one
    corruption of the table, the tuple, the pair (with the table read off
    its configurations) or the blocks."""
    corruption = draw(st.sampled_from(CORRUPTIONS))
    names = sorted(GROUPS)
    if corruption == "non-normal":
        names = [name for name in names if _subgroups(name)[1]]
    name = draw(st.sampled_from(names))
    g = GROUPS[name]
    normals, non_normal = _subgroups(name)
    quotient, cosets, _reps = quotient_group(g, draw(st.sampled_from(normals)))
    n = len(cosets)
    s = min(cosets[draw(st.integers(0, n - 1))])
    pair_blocks = [frozenset(g.mul(x, s) for x in c) for c in cosets]
    elements = [draw(st.sampled_from(sorted(c))) for c in cosets]
    table = multiplication_index_table(quotient, quotient.elements())
    rows, labels = [list(r) for r in table.rows], table.labels
    blocks = list(cosets)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if corruption == "swap":
        (i1, j1), (i2, j2) = draw(cell), draw(cell)
        rows[i1][j1], rows[i2][j2] = rows[i2][j2], rows[i1][j1]
    elif corruption in ("none-entry", "out-of-range"):
        i, j = draw(cell)
        rows[i][j] = None if corruption == "none-entry" else draw(st.sampled_from((0, -1, n + 1)))
    elif corruption == "tuple-entry":
        elements[draw(st.integers(0, n - 1))] = draw(st.sampled_from(g.elements()))
    elif corruption == "read-off":
        # blocks and tuple each in a random order: the table's rows are
        # distinct translations of the cosets, but seldom a group table
        pair_blocks = [pair_blocks[k] for k in draw(st.permutations(range(n)))]
        elements = [elements[k] for k in draw(st.permutations(range(n)))]
        label = {x: b for b, block in enumerate(pair_blocks, start=1) for x in block}
        configs = oracles.naive_configurations(g.elements(), g.mul, elements, label.__getitem__)
        by_first = {c[0]: c for c in configs}
        if len(configs) == n and sorted(by_first) == list(range(1, n + 1)):
            rows = [[by_first[j][i] for j in range(1, n + 1)] for i in range(1, n + 1)]
    elif corruption == "non-normal":
        blocks = _left_cosets(g, draw(st.sampled_from(non_normal)))
        other = cyclic(len(blocks))
        other_table = multiplication_index_table(other, other.elements())
        rows, labels = [list(r) for r in other_table.rows], other_table.labels
    elif corruption == "not-cosets" and n > 1:
        k, other = draw(st.integers(1, n - 1)), draw(st.integers(0, n - 1))
        x = draw(st.sampled_from(sorted(blocks[k])))
        y = draw(st.sampled_from(sorted(blocks[other])))
        if other in (0, k):  # F_1 stays: the block gains an element
            blocks[k] = blocks[k] | {y}
        else:
            blocks[k], blocks[other] = blocks[k] - {x} | {y}, blocks[other] - {y} | {x}
    elif corruption == "empty-block" and n > 1:
        blocks[draw(st.integers(1, n - 1))] = frozenset()
    table = MultiplicationIndexTable(len(rows), tuple(map(tuple, rows)), labels)
    pair = ConfigPair(tuple(elements), Partition.explicit(pair_blocks))
    return g, pair, table, tuple(blocks)


@given(certificate_input())
@settings(max_examples=250, deadline=None)
def test_certificate_matches_its_slow_reference(case):
    g, pair, table, blocks = case
    assert _outcome(validate_table, table) == _outcome(oracles.naive_validate_table, table)
    recovered = _outcome(_recovered, g, pair, table)
    assert recovered == _outcome(
        oracles.naive_recover_cosets, g.elements(), g.mul, g.identity, pair.elements,
        pair.partition.block_of, table,
    )
    families = [blocks] + ([recovered[1][0]] if recovered[0] == "ok" else [])
    for blocks in families:
        assert _outcome(_verified, g, blocks, table) == _outcome(
            oracles.naive_verify_normal_and_iso, g, blocks, table
        )
        assert is_normal(g, blocks[0]) == oracles.naive_is_normal(
            g.elements(), g.mul, g.inv, blocks[0]
        )


# ---------------------------------------------------------------------------
# roundtrips over the catalog (the full sweep runs in the acceptance suite)


@pytest.mark.parametrize("name", ["Z4", "Z2cube", "S3", "Q8", "A4"])
def test_roundtrip_every_normal_subgroup(name):
    group = reconstruction_groups()[name]
    for normal in normal_subgroups(group):
        family, report, quotient = quotient_recovery_roundtrip(group, normal)
        assert report.ok, (name, sorted(normal), report.failures)
        assert family.subgroup == frozenset(normal)
        assert quotient.order() * len(normal) == group.order()


def test_roundtrip_whole_group_as_subgroup():
    z4 = cyclic(4)
    family, report, quotient = quotient_recovery_roundtrip(z4, frozenset(range(4)))
    assert report.ok
    assert quotient.order() == 1


# ---------------------------------------------------------------------------
# the refinement search


def test_refined_partition_shape():
    z4 = cyclic(4)
    t = multiplication_index_table(cyclic(2), cyclic(2).elements())
    pair = ConfigPair((0, 1), Partition.explicit([[0, 2], [1, 3]]))
    family = recover_cosets(z4, pair, t)
    refined = refined_partition_of(z4, family)
    assert refined.block_count == 3
    assert refined.block_of(0) == 1  # identity split off
    assert refined.block_of(2) == 2  # rest of the old subgroup
    assert refined.block_of(1) == 3


def test_refined_partition_needs_nontrivial_subgroup():
    z2 = cyclic(2)
    t = multiplication_index_table(z2, z2.elements())
    pair = ConfigPair((0, 1), Partition.explicit([[0], [1]]))
    family = recover_cosets(z2, pair, t)
    with pytest.raises(PreconditionError):
        refined_partition_of(z2, family)


def test_refinement_search_z4():
    z4 = cyclic(4)
    t = multiplication_index_table(cyclic(2), cyclic(2).elements())
    pair = ConfigPair((0, 1), Partition.explicit([[0, 2], [1, 3]]))
    family = recover_cosets(z4, pair, t)
    report = q_group_refinement_check(z4, family)
    assert not report.matched
    assert not report.subgroup_trivial
    assert report.refined_block_count == 3
    assert report.available_points == 2
    assert report.pairs_searched == 8  # 2 partitions of the 2 cosets x 2**2 tuples
    assert "no quotient pair reproduces" in report.conclusion


def test_refinement_search_trivial_subgroup():
    z2 = cyclic(2)
    t = multiplication_index_table(z2, z2.elements())
    pair = ConfigPair((0, 1), Partition.explicit([[0], [1]]))
    family = recover_cosets(z2, pair, t)
    report = q_group_refinement_check(z2, family)
    assert report.subgroup_trivial
    assert not report.matched


def test_refinement_search_computes_no_pair_on_any_quotient(monkeypatch):
    # every nontrivial normal subgroup, quotients of order 5 and 6 included:
    # the count is closed form, so the check enumerates no partition and
    # computes no configuration set, yet every pair counts against the cap
    cases = []
    for name, g in reconstruction_groups().items():
        for normal in normal_subgroups(g):
            if len(normal) > 1:
                family, _report, quotient = quotient_recovery_roundtrip(g, normal)
                cases.append((name, g, normal, family, quotient.order()))
    calls = []
    for module, attr in ((configurations, "_tuple_codes"),
                         (configurations, "set_partitions"),
                         (reconstruction, "windowed_configuration_set")):
        def counted(*args, _original=getattr(module, attr), _attr=attr):
            calls.append(_attr)
            return _original(*args)

        monkeypatch.setattr(module, attr, counted)
    for name, g, normal, family, qn in cases:
        expected = oracles.partitions_up_to(qn, qn) * qn ** qn
        report = q_group_refinement_check(g, family, cap=expected)
        assert report.pairs_searched == expected, (name, sorted(normal))
        assert report.refined_block_count == report.available_points + 1 == qn + 1
        assert report.matched is False
        if expected <= 200_000:  # within the default cap: the same report
            assert q_group_refinement_check(g, family) == report
        with pytest.raises(ResourceCapExceeded):
            q_group_refinement_check(g, family, cap=expected - 1)
    orders = [qn for *_rest, qn in cases]
    assert len(orders) == 84
    assert orders.count(5) == 1 and orders.count(6) == 5
    assert calls == []


def test_refinement_count_matches_the_naive_search():
    # the closed form against a search that computes every pair over the
    # quotient's left translation, aimed at the refined pair's configurations
    checked = 0
    for name, g in reconstruction_groups().items():
        for normal in normal_subgroups(g):
            family, _report, quotient = quotient_recovery_roundtrip(g, normal)
            qn = quotient.order()
            if len(normal) == 1 or qn > 4:
                continue
            refined = refined_partition_of(g, family)
            target = oracles.naive_configurations(
                g.elements(), g.mul, family.representatives, refined.block_of
            )
            action = LeftTranslation(quotient)
            expected = oracles.naive_search_configuration_set(
                action.points(), action.act, quotient.elements(),
                len(family.representatives), qn, target, cap=float("inf"),
            )
            report = q_group_refinement_check(g, family)
            assert (report.pairs_searched, report.matched) == expected, (name, sorted(normal))
            checked += 1
    assert checked == 78


def test_refinement_check_requires_the_cosets_of_f1():
    # F_1 = {0, 3} is normal in Z6, but the other block is not one coset
    z6 = cyclic(6)
    family = CosetFamily(
        (frozenset({0, 3}), frozenset({1, 2, 4, 5})), (0, 1), (1, 2), 1
    )
    with pytest.raises(PreconditionError, match="not the cosets of F_1"):
        q_group_refinement_check(z6, family)


def test_refinement_search_cap():
    z4 = cyclic(4)
    t = multiplication_index_table(cyclic(2), cyclic(2).elements())
    pair = ConfigPair((0, 1), Partition.explicit([[0, 2], [1, 3]]))
    family = recover_cosets(z4, pair, t)
    with pytest.raises(ResourceCapExceeded):
        q_group_refinement_check(z4, family, cap=3)
