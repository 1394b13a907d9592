"""Coset recovery from canonical configuration sets."""

import pytest

import oracles
from confpara import configurations, reconstruction
from confpara.actions import LeftTranslation
from confpara.catalog import cyclic, reconstruction_groups
from confpara.configurations import ConfigPair, Partition
from confpara.errors import InputError, PreconditionError, ResourceCapExceeded
from confpara.groups import FreeAbelianGroup, direct_product, normal_subgroups
from confpara.reconstruction import (
    CosetFamily,
    canonical_configurations,
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
    from confpara.reconstruction import MultiplicationIndexTable

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
# canonical configurations


def test_canonical_configurations_z2():
    z2 = cyclic(2)
    t = multiplication_index_table(z2, z2.elements())
    assert canonical_configurations(t, 2) == ((1, 2), (2, 1))


def test_canonical_configurations_z4():
    z4 = cyclic(4)
    t = multiplication_index_table(z4, z4.elements())
    cfgs = canonical_configurations(t, 4)
    assert cfgs[1] == (2, 3, 4, 1)
    assert cfgs[0] == (1, 2, 3, 4)


def test_canonical_configurations_need_known_entries():
    z = FreeAbelianGroup(1)
    t = table_from_canonical_enumeration(z, 5)
    # 1 + 2 = 3 falls outside the enumerated window, so C_4 is incomplete
    assert t.entry(2, 4) is None
    with pytest.raises(InputError):
        canonical_configurations(t, 2)


def test_canonical_depth_bounds():
    z2 = cyclic(2)
    t = multiplication_index_table(z2, z2.elements())
    with pytest.raises(InputError):
        canonical_configurations(t, 0)
    with pytest.raises(InputError):
        canonical_configurations(t, 3)


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
