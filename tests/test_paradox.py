"""Paradoxical decompositions: constructions, the window verifier, and the
transformations between presentations (lift, compress, refine, glue)."""

import dataclasses
import functools
import itertools
import pathlib
import re
import types
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from confpara.actions import LeftTranslation, ProductAction, TrivialAction
from confpara.catalog import cyclic
from confpara.codec import cantor_pair, cantor_unpair
from confpara.errors import (
    InputError,
    MalformedOracleError,
    PreconditionError,
    UnsupportedOperationError,
)
from confpara.groups import FreeAbelianGroup, FreeGroup
from confpara.paradox import (
    CompressionResult,
    Decomposition,
    EquidecompositionWitness,
    OrbitStructure,
    PieceFamily,
    compress_translators,
    countable_paradox_of_infinite,
    even_integers_witness,
    f2_standard_decomposition,
    generator_power_witness,
    glue_orbit_decompositions,
    identity_witness,
    lift_via_transversal,
    product_orbit_structure,
    refine_to_singletons,
    restrict_to_orbit,
    singleton_decomposition,
    transitive_orbit_structure,
    verify_equidecomposable,
    verify_paradoxical,
    _FirstLetter,
    _validate_orbit_equivariance,
)
from confpara.schemas import build_decomposition, loads_manifest

Z = FreeAbelianGroup(1)
Z2 = FreeAbelianGroup(2)
F2 = FreeGroup(2)
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def zwin(r):
    return LeftTranslation(Z).window({"box": r})


def fwin(r):
    return LeftTranslation(F2).window({"ball": r})


# ---------------------------------------------------------------------------
# piece families


def test_classify_checked_rejects_bad_indices():
    with pytest.raises(MalformedOracleError):
        PieceFamily(lambda x: 0).classify_checked(7)
    with pytest.raises(MalformedOracleError):
        PieceFamily(lambda x: "one").classify_checked(7)
    with pytest.raises(MalformedOracleError):
        PieceFamily(lambda x: 3, size=2).classify_checked(7)


# ---------------------------------------------------------------------------
# singleton construction


def test_singleton_z_piece_shape():
    dec = singleton_decomposition(Z)
    # enumeration 0, 1, -1, 2, -2, ...; even positions on the a side
    assert dec.a_pieces.classifier(1) == 1
    assert dec.a_pieces.classifier(2) == 2
    assert dec.a_pieces.classifier(0) is None
    assert dec.b_pieces.classifier(0) == 1
    assert dec.b_pieces.classifier(-1) == 2
    assert dec.b_pieces.classifier(1) is None
    assert dec.meta["construction"]["kind"] == "singleton"


def test_singleton_z_verifies_on_boxes():
    dec = singleton_decomposition(Z)
    for r in (3, 10, 25):
        verdict = verify_paradoxical(dec, zwin(r), 40)
        assert verdict.verified
        assert verdict.points_checked == 2 * r + 1
        assert verdict.witness is None
    assert verdict.window_label == "box(25)"


def test_singleton_needs_infinite_group():
    with pytest.raises(PreconditionError):
        singleton_decomposition(cyclic(5))


def test_countable_paradox_rejects_finite_groups():
    with pytest.raises(PreconditionError):
        countable_paradox_of_infinite(cyclic(6))


# ---------------------------------------------------------------------------
# the free group paradox


def test_f2_piece_classification():
    dec = f2_standard_decomposition(F2)
    acl, bcl = dec.a_pieces.classifier, dec.b_pieces.classifier
    # non-positive powers of the first generator ride with its piece
    assert acl(()) == 1
    assert acl((-1,)) == 1
    assert acl((-1, -1)) == 1
    assert acl((1,)) == 1
    assert acl((-1, 2)) == 2
    assert bcl((2,)) == 1
    assert bcl((-2,)) == 2
    assert bcl((-2, 1)) == 2
    assert acl((2,)) is None
    assert bcl(()) is None


def test_f2_cover_and_claimants_agree_with_the_classifier():
    # they read the first letter themselves: piece 1 where the classifier
    # says 1, piece 2 everywhere else
    dec = f2_standard_decomposition(F2)
    for fam, cover in ((dec.a_pieces, dec.a_cover), (dec.b_pieces, dec.b_cover)):
        for w in F2.ball(5):
            piece = 1 if fam.classifier(w) == 1 else 2
            assert cover(w) == piece
            assert fam.claimants(w) == (piece,)


def test_f2_verifies_on_balls():
    dec = f2_standard_decomposition(F2)
    v3 = verify_paradoxical(dec, fwin(3), 2)
    assert v3.verified and v3.points_checked == 53
    v4 = verify_paradoxical(dec, fwin(4), 2)
    assert v4.verified and v4.points_checked == 161


def test_f2_construction_requires_rank_two_free_group():
    with pytest.raises(PreconditionError):
        f2_standard_decomposition(FreeGroup(3))
    with pytest.raises(PreconditionError):
        f2_standard_decomposition(Z)


# ---------------------------------------------------------------------------
# refutations carry a concrete point and equation


def test_constant_cover_is_refuted_with_membership_witness():
    dec = singleton_decomposition(Z)
    broken = dataclasses.replace(dec, b_cover=lambda x: 1)
    verdict = verify_paradoxical(broken, zwin(5), 20)
    assert verdict.status == "refuted"
    assert not verdict.verified
    # 0 survives (it really is covered by translate 1); 1 is the first failure
    assert verdict.witness.point == 1
    assert verdict.witness.equation == "b-cover-membership"
    assert verdict.points_checked == 2


def test_classifier_gap_is_refuted_as_partition_failure():
    dec = singleton_decomposition(Z)
    base = dec.b_pieces.classifier
    broken = dataclasses.replace(
        dec, b_pieces=PieceFamily(lambda x: None if x == 0 else base(x))
    )
    verdict = verify_paradoxical(broken, zwin(5), 20)
    assert verdict.status == "refuted"
    assert verdict.witness.point == 0
    assert verdict.witness.equation == "combined-partition"
    assert dict(verdict.witness.detail) == {"a_piece": None, "b_piece": None}
    assert verdict.points_checked == 1


def test_classifier_gap_elsewhere_surfaces_through_a_cover():
    # a gap away from the window start is caught when the cover consults the
    # translated preimage of an earlier point
    dec = singleton_decomposition(Z)
    base = dec.a_pieces.classifier
    broken = dataclasses.replace(
        dec, a_pieces=PieceFamily(lambda x: None if x == 1 else base(x))
    )
    verdict = verify_paradoxical(broken, zwin(5), 20)
    assert verdict.status == "refuted"
    assert verdict.witness.point == 0
    assert verdict.witness.equation == "a-cover-membership"


def test_overlapping_translates_are_refuted_as_uniqueness_failure():
    # translates of both a-pieces land on the multiples of four
    dec = Decomposition(
        action=LeftTranslation(Z),
        a_pieces=PieceFamily(
            lambda x: (1 if x % 4 == 0 else 2) if x % 2 == 0 else None, size=2
        ),
        b_pieces=PieceFamily(lambda x: 1 if x % 2 == 1 else None, size=1),
        a_translator=lambda i: (0, 2)[i - 1],
        b_translator=lambda i: (1,)[i - 1],
        a_cover=lambda x: 1 if x % 4 == 0 else 2,
        b_cover=lambda x: 1,
    )
    verdict = verify_paradoxical(dec, zwin(6), 10)
    assert verdict.status == "refuted"
    assert verdict.witness.point == 0
    assert verdict.witness.equation == "a-cover-uniqueness"
    assert dict(verdict.witness.detail) == {"index": 1, "other": 2}
    assert verdict.points_checked == 1


def test_malformed_cover_raises_rather_than_refutes():
    dec = f2_standard_decomposition(F2)
    for bad in (lambda w: 0, lambda w: 5):
        broken = dataclasses.replace(dec, a_cover=bad)
        with pytest.raises(MalformedOracleError):
            verify_paradoxical(broken, fwin(1), 2)


def test_verifier_rejects_bad_index_bound():
    dec = singleton_decomposition(Z)
    with pytest.raises(InputError):
        verify_paradoxical(dec, zwin(2), 0)


def test_trivial_action_candidate_is_refuted():
    # nothing moves, so one side's cover membership must fail at every point
    act = TrivialAction(cyclic(2), points=(0, 1, 2, 3))
    dec = Decomposition(
        action=act,
        a_pieces=PieceFamily(lambda x: 1 if x < 2 else None, size=1),
        b_pieces=PieceFamily(lambda x: 1 if x >= 2 else None, size=1),
        a_translator=lambda i: 0,
        b_translator=lambda i: 0,
        a_cover=lambda x: 1,
        b_cover=lambda x: 1,
    )
    verdict = verify_paradoxical(dec, act.window({"all": True}), 4)
    assert verdict.status == "refuted"
    assert verdict.witness.point == 0
    assert verdict.witness.equation == "b-cover-membership"


# ---------------------------------------------------------------------------
# equidecomposability


def galileo_witness():
    # singleton pieces; piece i = {element_at(i)}, shifted by its own value
    pos = Z.position_of
    at = Z.element_at
    return EquidecompositionWitness(
        pieces=PieceFamily(pos),
        translator=at,
        cover=lambda v: pos(v // 2),
    )


def test_integers_match_even_integers_by_singletons():
    verdict = verify_equidecomposable(
        lambda v: True, lambda v: v % 2 == 0, galileo_witness(),
        LeftTranslation(Z), zwin(20), 30,
    )
    assert verdict.verified
    assert verdict.points_checked == 41


def test_swapped_translators_are_refuted():
    w = galileo_witness()
    at = Z.element_at
    swapped = EquidecompositionWitness(
        pieces=w.pieces,
        translator=lambda i: at({1: 2, 2: 1}.get(i, i)),
        cover=w.cover,
    )
    verdict = verify_equidecomposable(
        lambda v: True, lambda v: v % 2 == 0, swapped,
        LeftTranslation(Z), zwin(20), 30,
    )
    assert verdict.status == "refuted"
    assert verdict.witness.point == 0
    assert verdict.witness.equation == "translated-inside-target"


def test_equidecomposable_source_gap_is_refuted():
    w = galileo_witness()
    gappy = EquidecompositionWitness(
        pieces=PieceFamily(lambda v: None if v == 2 else Z.position_of(v)),
        translator=w.translator,
        cover=w.cover,
    )
    verdict = verify_equidecomposable(
        lambda v: True, lambda v: v % 2 == 0, gappy,
        LeftTranslation(Z), zwin(5), 12,
    )
    assert verdict.status == "refuted"
    assert verdict.witness.equation in ("source-coverage", "target-cover-membership")
    assert verdict.witness.point == 2


@pytest.mark.parametrize("cover, bad_at, message", [
    (lambda v: 0 if v == 2 else Z.position_of(v // 2), None,
     "target-cover returned bad index 0"),
    (lambda v: Z.position_of(5) if v == 2 else Z.position_of(v // 2), -3,
     "classifier returned bad index 0"),
], ids=["cover", "membership-probe"])
def test_a_malformed_target_read_is_refused(cover, bad_at, message):
    # at 2 the cover names 0, or piece {5}, whose preimage 2 - 5 = -3 lies
    # outside box(2); at bound 1 no index scan reads -3 first, so only the
    # target's membership probe reads it
    w = galileo_witness()
    pieces = PieceFamily(lambda v: 0 if v == bad_at else Z.position_of(v))
    broken = EquidecompositionWitness(pieces, w.translator, cover)
    with pytest.raises(MalformedOracleError, match=f"^{message}$"):
        verify_equidecomposable(lambda v: True, lambda v: v % 2 == 0, broken,
                                LeftTranslation(Z), zwin(2), 1)


# ---------------------------------------------------------------------------
# subgroup witnesses


@given(st.integers(-2000, 2000))
def test_even_witness_factorization(v):
    w = even_integers_witness(Z)
    h, t = w.decompose(v)
    assert t in (0, 1)
    assert w.from_subgroup(h) + t == v


def test_even_witness_bridges_subgroup_codes():
    w = even_integers_witness(Z)
    for i in range(50):
        assert w.decompose(w.from_subgroup(i)) == (i, 0)
    with pytest.raises(PreconditionError):
        even_integers_witness(F2)


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8))
def test_generator_power_witness_factorization(letters):
    w = generator_power_witness(F2)
    word = ()
    for l in letters:
        word = F2.mul(word, (l,))
    k, tail = w.decompose(word)
    assert not tail or abs(tail[0]) != 1
    assert F2.mul(w.from_subgroup(k), tail) == word


def test_generator_power_witness_guards():
    with pytest.raises(PreconditionError):
        generator_power_witness(Z)


# ---------------------------------------------------------------------------
# lifting through a subgroup


def test_lift_through_even_integers_verifies():
    dec = countable_paradox_of_infinite(Z, witness=even_integers_witness(Z))
    assert dec.meta["construction"]["kind"] == "lift"
    assert dec.meta["construction"]["subgroup"] == "even-integers"
    verdict = verify_paradoxical(dec, zwin(15), 25)
    assert verdict.verified
    assert verdict.points_checked == 31


def test_lift_through_generator_powers_verifies():
    dec = countable_paradox_of_infinite(F2, witness=generator_power_witness(F2))
    verdict = verify_paradoxical(dec, fwin(3), 20)
    assert verdict.verified
    assert verdict.points_checked == 53


def test_lift_through_identity_witness_is_the_direct_construction():
    direct = singleton_decomposition(Z)
    lifted = lift_via_transversal(Z, identity_witness(Z), singleton_decomposition(Z))
    for v in range(-8, 9):
        assert lifted.a_pieces.classifier(v) == direct.a_pieces.classifier(v)
        assert lifted.b_pieces.classifier(v) == direct.b_pieces.classifier(v)
    for i in range(1, 10):
        assert lifted.a_translator(i) == direct.a_translator(i)


def test_countable_paradox_defaults_to_own_enumeration():
    dec = countable_paradox_of_infinite(Z)
    assert dec.meta["construction"]["kind"] == "singleton"


# ---------------------------------------------------------------------------
# translator compression


def test_f2_compression_is_identity_on_piece_indices():
    dec = f2_standard_decomposition(F2)
    res = compress_translators(dec, 50)
    assert isinstance(res, CompressionResult)
    assert res.status == "compressed"
    assert res.detection == "declared"
    assert res.a_range == (F2.identity, (1,))
    assert res.b_range == (F2.identity, (2,))
    for w in fwin(3).points:
        assert res.decomposition.a_pieces.classifier(w) == dec.a_pieces.classifier(w)
        assert res.decomposition.b_pieces.classifier(w) == dec.b_pieces.classifier(w)


def test_compressed_cover_beyond_the_detected_range_is_malformed():
    # the scan up to 200 sees translator 0 only; a cover naming a later
    # index with a new translator raises as the classifier does, not KeyError
    dec = dataclasses.replace(
        singleton_decomposition(Z),
        a_translator=lambda i: 0 if i <= 400 else 7, b_translator=lambda i: 0,
        a_cover=lambda x: 1000,
    )
    res = compress_translators(dec, 200)
    assert res.status == "compressed"
    with pytest.raises(MalformedOracleError, match="outside the detected range"):
        verify_paradoxical(res.decomposition, zwin(4), 5)


def test_refined_f2_compresses_back_to_the_standard_pieces():
    dec = f2_standard_decomposition(F2)
    refined = refine_to_singletons(dec)
    res = compress_translators(refined, 50)
    assert res.status == "compressed"
    assert res.a_range == (F2.identity, (1,))
    assert res.b_range == (F2.identity, (2,))
    merged = res.decomposition
    for w in fwin(4).points:
        assert merged.a_pieces.classifier(w) == dec.a_pieces.classifier(w)
        assert merged.b_pieces.classifier(w) == dec.b_pieces.classifier(w)
    assert verify_paradoxical(merged, fwin(3), 2).verified


def test_a_repeated_declared_translator_merges_into_one_piece():
    dec = build_decomposition({
        "group": {"family": "free", "rank": 2},
        "a-pieces": [{"family": "first-letter", "letter": "a"},
                     {"family": "first-letter", "letter": "a^-1"}],
        "a-translators": ["e", "e"],
        "a-cover": "scan",
        "b-pieces": [{"family": "first-letter", "letter": "b"},
                     {"family": "first-letter", "letter": "b^-1"}],
        "b-translators": ["e", "b"],
        "b-cover": "scan",
    })
    res = compress_translators(dec, 50)
    assert res.detection == "declared"
    assert res.a_range == (F2.identity,)
    assert res.decomposition.a_pieces.size == 1
    for w in fwin(3).points:
        inner = dec.a_pieces.classifier(w)
        assert res.decomposition.a_pieces.classifier(w) == (None if inner is None else 1)
    scanned = compress_translators(
        dataclasses.replace(dec, a_translator_range=None, b_translator_range=None), 50
    )
    assert scanned.detection == "finite-family"
    assert (scanned.a_range, scanned.b_range) == (res.a_range, res.b_range)


@pytest.mark.parametrize("bound,message", [
    (3, "detection bound must be >= 4"),
    (4.5, "detection bound must be an integer, got 4.5"),
])
def test_compression_refuses_a_bad_detection_bound(bound, message):
    with pytest.raises(InputError) as exc:
        compress_translators(singleton_decomposition(Z), bound)
    assert str(exc.value) == message


def test_singleton_translators_do_not_compress():
    res = compress_translators(singleton_decomposition(Z), 200)
    assert res.status == "not-compressible-within-bound"
    assert res.decomposition is None
    assert res.bound == 200
    assert res.detection == "scan"


def test_compression_bound_must_allow_detection():
    with pytest.raises(InputError):
        compress_translators(f2_standard_decomposition(F2), 3)


# ---------------------------------------------------------------------------
# singleton refinement


def test_refinement_flattens_piece_and_rank():
    dec = f2_standard_decomposition(F2)
    refined = refine_to_singletons(dec)
    acl = refined.a_pieces.classifier
    # identity is the first member of a-piece 1 in shortlex order, "a" the second
    assert acl(()) == cantor_pair(0, 0) + 1
    assert acl((1,)) == cantor_pair(0, 1) + 1
    assert acl((-1, 2)) == cantor_pair(1, 0) + 1
    assert acl((2,)) is None
    assert refined.meta["construction"]["kind"] == "refine-singletons"


def test_refined_pieces_are_singletons():
    refined = refine_to_singletons(f2_standard_decomposition(F2))
    for cl in (refined.a_pieces.classifier, refined.b_pieces.classifier):
        seen = {}
        for w in fwin(2).points:
            i = cl(w)
            if i is not None:
                assert i not in seen
                seen[i] = w


def test_refined_f2_still_verifies():
    refined = refine_to_singletons(f2_standard_decomposition(F2))
    verdict = verify_paradoxical(refined, fwin(3), 25)
    assert verdict.verified


def test_refinement_rank_scan_walks_the_enumeration():
    group = FreeGroup(2)
    refined = refine_to_singletons(f2_standard_decomposition(group))
    unranked = []
    unrank = group.element_at
    group.element_at = lambda pos: unranked.append(pos) or unrank(pos)
    window = LeftTranslation(group).window({"ball": 4})
    assert verify_paradoxical(refined, window, 40).verified
    assert unranked == []


def test_refinement_needs_finite_pieces_and_translation_action():
    with pytest.raises(UnsupportedOperationError, match="expects finite piece families"):
        refine_to_singletons(singleton_decomposition(Z))
    dec = f2_standard_decomposition(F2)
    product = dataclasses.replace(dec, action=ProductAction(LeftTranslation(F2), 2))
    with pytest.raises(PreconditionError):
        refine_to_singletons(product)


def derived_with_windows(dec):
    """``dec`` and every construction over it that reads its oracles, each
    with a window: ``dec`` itself without claimants (checked by the index
    scan), the singleton refinement, the translator compression and the
    independent glue of two copies."""
    product = ProductAction(LeftTranslation(F2), 2)
    glued = glue_orbit_decompositions(
        product, product_orbit_structure(product), lambda rep: dec, mode="independent"
    )
    return (
        (dec, fwin(2)),
        (scanned(dec), fwin(2)),
        (refine_to_singletons(dec), fwin(2)),
        (compress_translators(dec).decomposition, fwin(2)),
        (glued, product.window({"ball": 2, "indices": [0, 1]})),
    )


def test_refinement_keeps_the_parent_classifier_contract():
    # an a-piece 3 (or 0) that the size-2 family does not have is malformed
    # in the parent; no derived decomposition may read it as a piece of its
    # own (refined piece (3, 1), a compressed piece, a flat glued index)
    dec = f2_standard_decomposition(F2)
    base = dec.a_pieces.classifier
    for index, message in ((3, "index 3 beyond the family size 2"), (0, "bad index 0")):
        bad = dataclasses.replace(dec, a_pieces=dataclasses.replace(
            dec.a_pieces, classifier=lambda w: index if w == (1,) else base(w)
        ))
        for d, window in derived_with_windows(bad):
            with pytest.raises(MalformedOracleError, match=f"^classifier returned {message}$"):
                verify_paradoxical(d, window, 2)


@pytest.mark.parametrize("side, index, message", [
    ("a", 3, "a-cover returned index 3 beyond the family size 2"),
    ("b", 0, "b-cover returned bad index 0"),
    ("b", 3, "b-cover returned index 3 beyond the family size 2"),
])
def test_refinement_keeps_the_parent_cover_contract(side, index, message):
    # a derived cover checks the parent cover's index before it looks the
    # translator up, so it raises the parent's error, not an IndexError
    dec = dataclasses.replace(f2_standard_decomposition(F2),
                              **{f"{side}_cover": lambda w: index})
    for d, window in derived_with_windows(dec):
        with pytest.raises(MalformedOracleError, match=f"^{message}$"):
            verify_paradoxical(d, window, 10)


# ---------------------------------------------------------------------------
# gluing along orbits


def product_setup():
    action = ProductAction(LeftTranslation(Z))
    return action, product_orbit_structure(action)


def test_uniform_glue_verifies_on_the_product():
    action, orbits = product_setup()
    glued = glue_orbit_decompositions(
        action, orbits, lambda rep: singleton_decomposition(Z),
        mode="uniform",
        validate_window=lambda rep: zwin(4),
    )
    assert glued.meta["construction"] == {"kind": "glue", "mode": "uniform"}
    verdict = verify_paradoxical(
        glued, action.window({"box": 6, "indices": [0, 3]}), 15
    )
    assert verdict.verified
    assert verdict.points_checked == 13 * 4


def test_independent_glue_pairs_piece_and_orbit():
    action, orbits = product_setup()
    glued = glue_orbit_decompositions(
        action, orbits, lambda rep: singleton_decomposition(Z), mode="independent"
    )
    # orbit index 3 (copy number 2), piece 1 on the a side
    assert glued.a_pieces.classifier((1, 2)) == cantor_pair(0, 2) + 1
    verdict = verify_paradoxical(
        glued, action.window({"box": 5, "indices": [0, 2]}), 12
    )
    assert verdict.verified


def test_glue_refuses_refutable_per_orbit_input():
    action, orbits = product_setup()
    broken = dataclasses.replace(singleton_decomposition(Z), b_cover=lambda x: 1)
    with pytest.raises(PreconditionError) as err:
        glue_orbit_decompositions(
            action, orbits, lambda rep: broken,
            mode="uniform", validate_window=lambda rep: zwin(4),
        )
    assert "not countably paradoxical" in str(err.value)


def test_glue_refuses_broken_orbit_decoding():
    action, orbits = product_setup()
    bad = OrbitStructure(
        rep_of=orbits.rep_of,
        coset_of=lambda x: -x[0],
        point_of=orbits.point_of,
        rep_index=orbits.rep_index,
        rep_at=orbits.rep_at,
    )
    with pytest.raises(PreconditionError):
        glue_orbit_decompositions(
            action, bad, lambda rep: singleton_decomposition(Z),
            mode="uniform", validate_window=lambda rep: zwin(4),
        )


@pytest.mark.parametrize("copies", [2, None])
@pytest.mark.parametrize("fixture", ["f2_standard", "f2_explicit"])
def test_independent_glue_of_finite_pieces_verifies(fixture, copies):
    # flat indices whose piece index exceeds the inner size, or whose orbit
    # is past the last of finitely many copies, are empty pieces with the
    # identity translator; probing them must neither crash nor reach the
    # inner translator beyond its range, and the decomposition is asked for
    # once, for the first copy
    _kind, payload, _meta = loads_manifest(
        (FIXTURES / f"decomposition_{fixture}.json").read_text(), "decomposition"
    )
    inner = build_decomposition(payload)
    action = ProductAction(LeftTranslation(F2), copies)
    orbits = product_orbit_structure(action)
    assert orbits.count == copies
    asked = set()
    glued = glue_orbit_decompositions(
        action, orbits, lambda rep: asked.add(rep) or inner, mode="independent"
    )
    empty = cantor_pair(2, 0) + 1  # piece 3 of the first copy
    assert glued.a_translator(empty) == glued.b_translator(empty) == F2.identity
    verdict = verify_paradoxical(
        glued, action.window({"ball": 2, "indices": [0, 1]}), 10
    )
    assert verdict.verified
    assert verdict.points_checked == 2 * 17
    assert asked == {(F2.identity, 0)}


@pytest.mark.parametrize("copies", [2, None])
@pytest.mark.parametrize("mode", ["uniform", "independent"])
@pytest.mark.parametrize("validated", [False, True])
def test_glue_asks_for_one_decomposition(mode, copies, validated):
    action = ProductAction(LeftTranslation(Z), copies)
    asked = []
    glued = glue_orbit_decompositions(
        action, product_orbit_structure(action),
        lambda rep: asked.append(rep) or singleton_decomposition(Z), mode=mode,
        validate_window=(lambda rep: Z.box(3)) if validated else None)
    assert verify_paradoxical(
        glued, action.window({"box": 4, "indices": [0, 1]}), 12
    ).verified
    assert asked == [(0, 0)]


@pytest.mark.parametrize("group, inner, window, copies", [
    (Z, singleton_decomposition(Z), {"box": 6}, None),
    (F2, f2_standard_decomposition(F2), {"ball": 2}, 2),
], ids=["singleton-z", "free2-standard"])
def test_independent_glue_is_uniform_glue_reindexed(group, inner, window, copies):
    # flat piece cantor_pair(u - 1, r) + 1 is uniform piece u on copy r, and
    # flat translator j is the inner translator of j's piece index; it is the
    # identity when that piece or copy does not exist
    action = ProductAction(LeftTranslation(group), copies)
    orbits = product_orbit_structure(action)
    uniform, independent = (
        glue_orbit_decompositions(action, orbits, lambda rep: inner, mode=mode)
        for mode in ("uniform", "independent")
    )
    indices = range(4 if copies is None else copies)
    points = [(g, r) for r in indices for g in LeftTranslation(group).window(window).points]
    for side in "ab":
        glued_pieces = getattr(uniform, f"{side}_pieces").classifier
        flat_pieces = getattr(independent, f"{side}_pieces").classifier
        glued_cover = getattr(uniform, f"{side}_cover")
        flat_cover = getattr(independent, f"{side}_cover")
        for x in points:
            u = glued_pieces(x)
            assert flat_pieces(x) == (None if u is None else cantor_pair(u - 1, x[1]) + 1)
            assert flat_cover(x) == cantor_pair(glued_cover(x) - 1, x[1]) + 1
        size = getattr(inner, f"{side}_pieces").size
        translator = getattr(inner, f"{side}_translator")
        flat_translator = getattr(independent, f"{side}_translator")
        for j in range(1, 40):
            i0, r0 = cantor_unpair(j - 1)
            missing = (size is not None and i0 >= size) or (copies is not None and r0 >= copies)
            assert flat_translator(j) == (group.identity if missing else translator(i0 + 1))


@pytest.mark.parametrize("mode", ["uniform", "independent"])
def test_glue_validates_only_orbits_that_exist(mode):
    # two representatives asked for, one copy: no decomposition or window is
    # asked for the missing copy (0, 1)
    action = ProductAction(LeftTranslation(Z), 1)
    asked, windows = [], []
    glue_orbit_decompositions(
        action, product_orbit_structure(action),
        lambda rep: asked.append(rep) or singleton_decomposition(Z), mode=mode,
        validate_window=lambda rep: windows.append(rep) or Z.box(3), validate_reps=2)
    assert asked == windows == [(0, 0)]


@pytest.mark.parametrize("group", [cyclic(4), Z], ids=["finite", "infinite"])
@pytest.mark.parametrize("decoding, message", [
    (lambda inv: {"rep_of": lambda x: x},
     "orbit decoding does not return the representative at (1, 0)"),
    (lambda inv: {"coset_of": lambda x: inv(x[0])}, "orbit decoding does not invert at (1, 0)"),
    (lambda inv: {"coset_of": lambda x: inv(x[0]), "point_of": lambda rep, g: (inv(g), rep[1])},
     "orbit map not translation-invariant at (0, 0) under 1"),
], ids=["representative", "inverse", "translation"])
def test_orbit_validation_refuses_a_decoding_that_does_not_commute(group, decoding, message):
    # over the prefix window 0, 1, ... of either group, the decoding breaks at
    # the second point, or at the first under the sampled element 1; a finite
    # group samples its first elements, an infinite one its prefix window
    action = ProductAction(LeftTranslation(group), 2)
    orbits = dataclasses.replace(product_orbit_structure(action), **decoding(group.inv))
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        _validate_orbit_equivariance(action, orbits, (group.identity, 0), group.prefix_window(4))


def test_glue_argument_errors():
    action, orbits = product_setup()
    per = lambda rep: singleton_decomposition(Z)
    with pytest.raises(InputError):
        glue_orbit_decompositions(action, orbits, per, mode="sideways")
    no_rep_at = dataclasses.replace(orbits, rep_at=None)
    with pytest.raises(InputError):
        glue_orbit_decompositions(action, no_rep_at, per, mode="uniform")


def test_restriction_recovers_the_per_orbit_input():
    action, orbits = product_setup()
    base = singleton_decomposition(Z)
    glued = glue_orbit_decompositions(
        action, orbits, lambda rep: base, mode="uniform"
    )
    restricted = restrict_to_orbit(glued, (7, 1), orbits)
    assert isinstance(restricted.action, LeftTranslation)
    for v in range(-10, 11):
        assert restricted.a_pieces.classifier(v) == base.a_pieces.classifier(v)
        assert restricted.b_pieces.classifier(v) == base.b_pieces.classifier(v)
    assert verify_paradoxical(restricted, zwin(6), 15).verified


def test_transitive_orbit_structure_is_the_group_itself():
    action = LeftTranslation(Z)
    s = transitive_orbit_structure(action)
    assert s.rep_of(5) == 0
    assert s.coset_of(5) == 5
    assert s.point_of(0, -3) == -3
    assert s.rep_index(0) == 1
    assert s.rep_at(1) == 0
    assert s.count == 1
    assert s.equivariant_for == (action, s.coset_of)
    assert transitive_orbit_structure(TrivialAction(Z, countable=True)).equivariant_for is None


# ---------------------------------------------------------------------------
# claimants against the index scan


def scanned(dec):
    """The same decomposition without claimants: the verifier probes every
    index instead of reading uniqueness off the claimants."""
    return dataclasses.replace(
        dec,
        a_pieces=dataclasses.replace(dec.a_pieces, claimants=None),
        b_pieces=dataclasses.replace(dec.b_pieces, claimants=None),
    )


def singleton_member(group, side, j):
    """The one member of piece j of ``singleton_decomposition(group)``."""
    return group.element_at(2 * j if side == "a" else 2 * j - 1)


F2_KINDS = ("powers-lift", "f2-standard", "refined-f2")
F2_FIRST_MEMBERS = {"a": ((), (-1, 2)), "b": ((2,), (-2,))}


def claimed_decomposition(kind):
    """(decomposition, window by radius, member(side, j) of piece j); for
    infinite pieces, one of their members, and for empty pieces the identity.
    The uniform glue's piece j holds member(side, j) in each of its copies."""
    if kind == "f2-standard":
        return (f2_standard_decomposition(F2), F2.ball,
                lambda side, j: F2_FIRST_MEMBERS[side][j - 1] if j <= 2 else F2.identity)
    if kind == "refined-f2":
        dec = refine_to_singletons(f2_standard_decomposition(F2))

        def member(side, j):
            if cantor_unpair(j - 1)[0] >= 2:
                return F2.identity
            cl = getattr(dec, f"{side}_pieces").classifier
            return next(w for w in map(F2.element_at, itertools.count(1)) if cl(w) == j)

        return dec, F2.ball, member
    if kind == "glue-uniform":
        action = ProductAction(LeftTranslation(Z), 3)
        dec = glue_orbit_decompositions(action, product_orbit_structure(action),
                                        lambda rep: singleton_decomposition(Z))
        return (dec, lambda r: action.window({"box": r, "indices": [0, 2]}),
                lambda side, j: singleton_member(Z, side, j))
    if kind in ("singleton-z", "singleton-z2"):
        group = Z if kind == "singleton-z" else Z2
        return (singleton_decomposition(group), group.box,
                lambda side, j: singleton_member(group, side, j))
    if kind == "even-lift":
        group, witness, window = Z, even_integers_witness(Z), Z.box
    else:
        group, witness, window = F2, generator_power_witness(F2), F2.ball
    return (
        countable_paradox_of_infinite(group, witness=witness), window,
        lambda side, j: witness.from_subgroup(singleton_member(witness.subgroup, side, j)),
    )


def claim_twice(dec, side, target, index):
    """``side`` also claims ``target`` (a point of the other side) as a member
    of piece ``index``; its claimants, if it names any, grow with the new
    translate, so they stay exact."""
    fam = getattr(dec, f"{side}_pieces")
    base_classifier, base_claimants = fam.classifier, fam.claimants
    image = dec.action.act(getattr(dec, f"{side}_translator")(index), target)

    def classifier(x):
        return index if x == target else base_classifier(x)

    def claimants(x):
        named = base_claimants(x)
        return named + ((index,) if x == image and index not in named else ())

    mutated = dataclasses.replace(fam, classifier=classifier,
                                  claimants=None if base_claimants is None else claimants)
    return dataclasses.replace(dec, **{f"{side}_pieces": mutated})


def reroute(dec, side, member, positions, last):
    """Move the translate of piece j <= len(positions) so that it sends
    member(side, j) onto the element at enumeration position
    positions[j - 1], so that several translates can meet; the cover names
    the first (or last) rerouted piece whose translate holds x, else what it
    named before.  The claimants, if the side names any, probe the rerouted
    pieces directly."""
    group, act = dec.action.group, dec.action.act
    fam = getattr(dec, f"{side}_pieces")
    translator = getattr(dec, f"{side}_translator")
    cover = getattr(dec, f"{side}_cover")
    n = len(positions)

    def rerouted_translator(j):
        if j > n:
            return translator(j)
        return group.mul(group.element_at(positions[j - 1]), group.inv(member(side, j)))

    def hits(x):
        return [
            j for j in range(1, n + 1)
            if fam.classifier(act(group.inv(rerouted_translator(j)), x)) == j
        ]

    def rerouted_cover(x):
        rerouted = hits(x)
        if rerouted:
            return rerouted[-1] if last else rerouted[0]
        return cover(x)

    def claimants(x):
        return tuple(j for j in fam.claimants(x) if j > n) + tuple(hits(x))

    return dataclasses.replace(dec, **{
        f"{side}_pieces": dataclasses.replace(
            fam, claimants=None if fam.claimants is None else claimants),
        f"{side}_translator": rerouted_translator, f"{side}_cover": rerouted_cover,
    })


def outcome(dec, window, bound):
    """The verdict, or the message of the malformed oracle it raises on."""
    try:
        return verify_paradoxical(dec, window, bound)
    except MalformedOracleError as exc:
        return str(exc)


@settings(max_examples=225, deadline=None)
@given(
    kind=st.sampled_from(["singleton-z", "singleton-z2", "even-lift", "powers-lift",
                          "f2-standard", "refined-f2", "glue-uniform"]),
    radius=st.integers(0, 30),
    bound=st.one_of(st.integers(1, 14), st.integers(15, 120)),
    mutation=st.sampled_from(
        ["none", "constant-cover", "shifted-cover", "claimed-twice", "rerouted"]
    ),
    side=st.sampled_from(["a", "b"]),
    data=st.data(),
)
def test_member_table_verdicts_match_the_scan(kind, radius, bound, mutation, side, data):
    dec, box, member = claimed_decomposition(kind)
    if kind == "singleton-z2":
        radius %= 5
    elif kind == "glue-uniform":
        radius %= 12
    elif kind in F2_KINDS:
        radius %= 4
    window = box(radius)
    if mutation == "constant-cover":
        dec = dataclasses.replace(dec, **{f"{side}_cover": lambda x: 1})
    elif mutation == "shifted-cover":
        cover = getattr(dec, f"{side}_cover")
        dec = dataclasses.replace(dec, **{f"{side}_cover": lambda x: cover(x) + 1})
    elif mutation == "claimed-twice":
        fam = getattr(dec, f"{side}_pieces")
        outside = [x for x in box(radius + 2).points if fam.classifier(x) is None]
        if outside:
            target = data.draw(st.sampled_from(outside))
            top = bound if fam.size is None else min(bound, fam.size)
            dec = claim_twice(dec, side, target, data.draw(st.integers(1, top)))
    elif mutation == "rerouted":
        positions = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
        dec = reroute(dec, side, member, positions, data.draw(st.booleans()))
    assert dec.a_pieces.claimants is not None and dec.b_pieces.claimants is not None
    assert outcome(dec, window, bound) == outcome(scanned(dec), window, bound)


@settings(max_examples=100, deadline=None)
@given(
    radius=st.integers(0, 30),
    bound=st.integers(1, 90),
    mutation=st.sampled_from(
        ["none", "constant-cover", "shifted-cover", "swapped", "rerouted"]
    ),
    data=st.data(),
)
def test_member_table_equidecomposition_matches_the_scan(radius, bound, mutation, data):
    w = galileo_witness()
    at, pos = Z.element_at, Z.position_of
    translator, cover, moved = w.translator, w.cover, ()
    if mutation == "constant-cover":
        cover = lambda v: 1
    elif mutation == "shifted-cover":
        cover = lambda v: w.cover(v) + 1
    elif mutation == "swapped":
        translator, moved = (lambda i: at({1: 2, 2: 1}.get(i, i))), (1, 2)
    elif mutation == "rerouted":
        # piece j <= n lands on the even number 2 * at(positions[j - 1])
        positions = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
        last = data.draw(st.booleans())
        n = len(positions)
        moved = tuple(range(1, n + 1))

        def translator(i):
            return 2 * at(positions[i - 1]) - at(i) if i <= n else w.translator(i)

        def cover(v):
            hits = [j for j in range(1, n + 1) if at(j) + translator(j) == v]
            if hits:
                return hits[-1] if last else hits[0]
            return w.cover(v)

    def claimants(v):
        # piece i = {at(i)}: an unmoved translate is {2 at(i)}
        named = (pos(v // 2),) if v % 2 == 0 else ()
        return tuple(j for j in named if j not in moved) + tuple(
            j for j in moved if at(j) + translator(j) == v
        )

    claimed = dataclasses.replace(w.pieces, claimants=claimants)
    verdicts = [
        verify_equidecomposable(
            lambda v: True, lambda v: v % 2 == 0,
            EquidecompositionWitness(pieces, translator, cover),
            LeftTranslation(Z), zwin(radius), bound,
        )
        for pieces in (claimed, dataclasses.replace(claimed, claimants=None))
    ]
    assert verdicts[0] == verdicts[1]


def test_claimed_point_is_refuted_by_the_table_as_by_the_scan():
    # a-piece 1 also claims the b-point (1, 1); its translate lands on (1, 0),
    # which a-translate 4 already holds, before (1, 1) is reached
    dec = claim_twice(singleton_decomposition(Z2), "a", (1, 1), 1)
    verdict = verify_paradoxical(dec, Z2.box(3), 30)
    assert verdict.witness.point == (1, 0)
    assert verdict.witness.equation == "a-cover-uniqueness"
    assert dict(verdict.witness.detail) == {"index": 4, "other": 1}
    assert verdict.points_checked == 4
    assert verdict == verify_paradoxical(scanned(dec), Z2.box(3), 30)


def test_conflict_at_the_index_bound_is_seen():
    # a-pieces 1 and 2 both land on 0 = at(1); the cover names piece 1
    dec, _box, member = claimed_decomposition("singleton-z")
    dec = reroute(dec, "a", member, [1, 1], last=False)
    at_bound = verify_paradoxical(dec, zwin(3), 2)
    assert at_bound.witness.point == 0
    assert at_bound.witness.equation == "a-cover-uniqueness"
    assert dict(at_bound.witness.detail) == {"index": 1, "other": 2}
    below = verify_paradoxical(dec, zwin(3), 1)
    # index 2 is past the bound, so 0 passes and 1 = at(2) is left uncovered
    assert below.witness.point == 1
    assert below.witness.equation == "a-cover-membership"
    for bound, verdict in ((2, at_bound), (1, below)):
        assert verdict == verify_paradoxical(scanned(dec), zwin(3), bound)


def counted(dec):
    """The decomposition with both classifiers counting their calls."""
    calls = [0]

    def counting(fam):
        classifier = fam.classifier

        def cl(x):
            calls[0] += 1
            return classifier(x)

        return dataclasses.replace(fam, classifier=cl)  # same pieces: claimants stay

    dec = dataclasses.replace(
        dec, a_pieces=counting(dec.a_pieces), b_pieces=counting(dec.b_pieces)
    )
    return dec, calls


@pytest.mark.parametrize("bound", [50, 500])
@pytest.mark.parametrize(
    "kind",
    ["singleton-z", "even-lift", "powers-lift", "f2-standard", "refined-f2", "glue-uniform"],
)
def test_claimants_cost_four_classifier_calls_per_point(kind, bound):
    # two partition calls and one cover-preimage probe per side, whatever
    # the index bound; the refined claimants read the parent's rank scan,
    # never the refined classifier
    dec, box, _member = claimed_decomposition(kind)
    dec, calls = counted(dec)
    window = box(4 if kind in F2_KINDS else 50)
    verdict = verify_paradoxical(dec, window, bound)
    assert verdict.verified and verdict.points_checked == len(window.points)
    assert calls[0] == 4 * verdict.points_checked


def counted_oracles(dec):
    """The decomposition with ``act`` and both sides' cover and claimants
    counting their calls."""
    calls = {"act": 0, "cover": 0, "claimants": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    action = types.SimpleNamespace(group=dec.action.group,
                                   act=counting("act", dec.action.act))
    return dataclasses.replace(
        dec, action=action,
        a_cover=counting("cover", dec.a_cover), b_cover=counting("cover", dec.b_cover),
        a_pieces=dataclasses.replace(
            dec.a_pieces, claimants=counting("claimants", dec.a_pieces.claimants)),
        b_pieces=dataclasses.replace(
            dec.b_pieces, claimants=counting("claimants", dec.b_pieces.claimants)),
    ), calls


@pytest.mark.parametrize(
    "kind",
    ["singleton-z", "even-lift", "powers-lift", "f2-standard", "refined-f2", "glue-uniform"],
)
def test_claimants_cost_two_acts_covers_and_claimants_per_point(kind):
    # one cover call, one act on the cover's preimage and one claimants call
    # per side: no fast path may skip an oracle
    dec, box, _member = claimed_decomposition(kind)
    dec, calls = counted_oracles(dec)
    window = box(4 if kind in F2_KINDS else 50)
    verdict = verify_paradoxical(dec, window, 50)
    assert verdict.verified and verdict.points_checked == len(window.points)
    n = verdict.points_checked
    assert calls == {"act": 2 * n, "cover": 2 * n, "claimants": 2 * n}


@pytest.mark.parametrize("side", ["a", "b"])
def test_a_bool_cover_index_names_piece_one(side):
    # True is refused, not read as piece 1: no group takes a bool for an int
    dec = singleton_decomposition(Z)
    cover = getattr(dec, f"{side}_cover")
    bool_dec = dataclasses.replace(dec, **{f"{side}_cover": lambda x: cover(x) == 1 or cover(x)})
    with pytest.raises(MalformedOracleError, match=f"^{side}-cover returned bad index True$"):
        verify_paradoxical(bool_dec, zwin(5), 10)
    with pytest.raises(InputError):
        dec.a_translator(True)


def test_scan_cost_without_member_lists():
    r = 50
    dec, calls = counted(singleton_decomposition(Z))
    assert verify_paradoxical(scanned(dec), zwin(r), 2 * r).verified
    assert calls[0] == 8 * r * r + 8 * r + 4


@pytest.mark.parametrize("claimants, named", [
    (lambda x: (), r"\(\)"),
    (lambda x: (Z.position_of(x), Z.position_of(x) + 1), r"\(1, 2\)"),
], ids=["cover-omitted", "other-misses"])
def test_wrong_claimants_are_malformed(claimants, named):
    # at 0 = at(1) the cover names a-piece 1, whose translate is {0} alone
    dec = singleton_decomposition(Z)
    broken = dataclasses.replace(
        dec, a_pieces=dataclasses.replace(dec.a_pieces, claimants=claimants)
    )
    with pytest.raises(MalformedOracleError,
                       match=f"a-claimants {named} of 0 disagree .*cover piece 1"):
        verify_paradoxical(broken, zwin(3), 6)


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("claimants, message", [
    (lambda x: (Z.position_of(x), 0), "bad index 0"),
    (lambda x: (Z.position_of(x), -3), "bad index -3"),
    (lambda x: (Z.position_of(x), "2"), "bad index '2'"),
    (lambda x: (1, True), "bad index True"),
    (lambda x: (True,) if x == 0 else (Z.position_of(x),), "bad index True"),
], ids=["zero", "negative", "str", "true-beside-1", "true-alone"])
def test_claimant_entries_are_checked_against_the_index_contract(side, claimants, message):
    # at 0 = at(1) both covers name piece 1; every claimant entry is checked
    # where the verifier reads it, before it is ordered, translated or read
    # as piece 1
    dec = singleton_decomposition(Z)
    fam = getattr(dec, f"{side}_pieces")
    broken = dataclasses.replace(
        dec, **{f"{side}_pieces": dataclasses.replace(fam, claimants=claimants)})
    with pytest.raises(MalformedOracleError, match=f"^{side}-claimants returned {message}$"):
        verify_paradoxical(broken, zwin(3), 10)


def test_a_claimant_past_the_family_size_is_malformed():
    # the size-2 a-family names a piece 3 beside the cover's piece 1 at e
    dec = f2_standard_decomposition(F2)
    broken = dataclasses.replace(dec, a_pieces=dataclasses.replace(
        dec.a_pieces, claimants=lambda w: (1, 3)))
    with pytest.raises(MalformedOracleError,
                       match="^a-claimants returned index 3 beyond the family size 2$"):
        verify_paradoxical(broken, fwin(1), 2)


@pytest.mark.parametrize("side", ["a", "b", "target"])
@pytest.mark.parametrize("claimants, shown", [
    (lambda x: None, "None"),
    (lambda x: Z.position_of(x), "1"),
    (lambda x: [Z.position_of(x)], r"\[1\]"),
], ids=["none", "int", "list"])
def test_claimants_that_are_not_a_tuple_are_malformed(side, claimants, shown):
    # at 0 = at(1) every cover names piece 1; None and 1 used to escape as a
    # bare TypeError, and [1], equal to no tuple, passed as the lone claimant
    if side == "target":
        w = galileo_witness()
        pieces = dataclasses.replace(w.pieces, claimants=claimants)
        broken = EquidecompositionWitness(pieces, w.translator, w.cover)
        run = functools.partial(verify_equidecomposable, lambda v: True,
                                lambda v: v % 2 == 0, broken, LeftTranslation(Z))
    else:
        dec = singleton_decomposition(Z)
        fam = getattr(dec, f"{side}_pieces")
        broken = dataclasses.replace(
            dec, **{f"{side}_pieces": dataclasses.replace(fam, claimants=claimants)})
        run = functools.partial(verify_paradoxical, broken)
    with pytest.raises(MalformedOracleError,
                       match=f"^{side}-claimants returned {shown} for 0, not a tuple$"):
        run(zwin(3), 10)


class OneClaimant(NamedTuple):
    piece: int


class TwoClaimants(NamedTuple):
    first: int
    second: int


def test_claimants_may_answer_with_a_tuple_subclass():
    # one entry takes the fast test named == (i,), two entries the full
    # read; either way a NamedTuple answer reads as the plain tuple does
    dec = singleton_decomposition(Z)
    one = dataclasses.replace(dec, a_pieces=dataclasses.replace(
        dec.a_pieces, claimants=lambda x: OneClaimant(Z.position_of(x))))
    assert verify_paradoxical(one, zwin(3), 10) == verify_paradoxical(dec, zwin(3), 10)
    # at 0 translates of both a-pieces hold the point: a uniqueness failure
    overlap = Decomposition(
        action=LeftTranslation(Z),
        a_pieces=PieceFamily(
            lambda x: (1 if x % 4 == 0 else 2) if x % 2 == 0 else None, size=2,
            claimants=lambda x: TwoClaimants(1, 2),
        ),
        b_pieces=PieceFamily(lambda x: 1 if x % 2 == 1 else None, size=1),
        a_translator=lambda i: (0, 2)[i - 1],
        b_translator=lambda i: (1,)[i - 1],
        a_cover=lambda x: 1 if x % 4 == 0 else 2,
        b_cover=lambda x: 1,
    )
    plain = dataclasses.replace(overlap, a_pieces=dataclasses.replace(
        overlap.a_pieces, claimants=lambda x: (1, 2)))
    verdict = verify_paradoxical(overlap, zwin(6), 10)
    assert verdict == verify_paradoxical(plain, zwin(6), 10)
    assert verdict.witness.equation == "a-cover-uniqueness"
    assert dict(verdict.witness.detail) == {"index": 1, "other": 2}


def test_lift_claimants_hold_through_any_transversal():
    # exact on finite transversals ({0, 1}, {0}) and an infinite one (the
    # words not starting with the first generator or its inverse)
    lifts = [
        (countable_paradox_of_infinite(Z, witness=even_integers_witness(Z)), zwin(12)),
        (lift_via_transversal(Z, identity_witness(Z), singleton_decomposition(Z)),
         zwin(12)),
        (countable_paradox_of_infinite(F2, witness=generator_power_witness(F2)),
         F2.ball(2)),
    ]
    for dec, window in lifts:
        group = dec.action.group
        for fam, translator in ((dec.a_pieces, dec.a_translator),
                                (dec.b_pieces, dec.b_translator)):
            for x in window.points:
                assert sorted(fam.claimants(x)) == [
                    j for j in range(1, 60)
                    if fam.classifier(group.mul(group.inv(translator(j)), x)) == j
                ]


def test_f2_and_refined_claimants_are_exact():
    # probed directly up to index 60; a refined claimant past 60 (a late
    # rank) is rechecked on its own
    decs = [
        f2_standard_decomposition(F2),
        refine_to_singletons(f2_standard_decomposition(F2)),
        refine_to_singletons(explicit_f2()),
    ]
    for dec in decs:
        for fam, translator in ((dec.a_pieces, dec.a_translator),
                                (dec.b_pieces, dec.b_translator)):
            top = 60 if fam.size is None else fam.size

            def holds(j, x):
                return fam.classifier(F2.mul(F2.inv(translator(j)), x)) == j

            for x in F2.ball(3).points:
                named = sorted(fam.claimants(x))
                assert [j for j in named if j <= top] == [
                    j for j in range(1, top + 1) if holds(j, x)
                ]
                assert all(holds(j, x) for j in named)


# ---------------------------------------------------------------------------
# the verifier against its slow reference


def explicit_f2():
    """The explicit-manifest twin of the F2 paradox: first-letter pieces and
    scan covers, no claimants."""
    return build_decomposition(loads_manifest(
        (FIXTURES / "decomposition_f2_explicit.json").read_text(), "decomposition"
    )[1])


def first_member(dec):
    """member(side, j): the first enumerated member of piece j of a
    decomposition over F2 with two pieces per side (or of its singleton
    refinement), the identity for a piece past the family or an empty
    refined piece."""
    refined = dec.a_pieces.size is None

    def member(side, j):
        if (cantor_unpair(j - 1)[0] + 1 if refined else j) > 2:
            return F2.identity
        cl = getattr(dec, f"{side}_pieces").classifier
        return next(w for w in map(F2.element_at, itertools.count(1)) if cl(w) == j)

    return member


def reference_case(kind):
    """(decomposition, window by radius, member(side, j) of piece j, or None
    for the independent glue, whose flat pieces have no member rule here).
    A uniform glue's member is its inner piece's, which the piece holds in
    every copy."""
    if kind in ("f2-standard", "f2-explicit", "refined-f2", "refined-explicit"):
        dec = explicit_f2() if kind.endswith("explicit") else f2_standard_decomposition(F2)
        if kind.startswith("refined"):
            dec = refine_to_singletons(dec)
        return dec, F2.ball, first_member(dec)
    if kind == "glue-f2-uniform":
        action = ProductAction(LeftTranslation(F2), 2)
        inner, window = f2_standard_decomposition(F2), (
            lambda r: action.window({"ball": r, "indices": [0, 1]}))
        mode, member = "uniform", first_member(inner)
    else:
        action = ProductAction(LeftTranslation(Z))
        inner, window = singleton_decomposition(Z), (
            lambda r: action.window({"box": r, "indices": [0, 2]}))
        mode = kind.split("-")[-1]
        member = (lambda side, j: singleton_member(Z, side, j)) if mode == "uniform" else None
    dec = glue_orbit_decompositions(action, product_orbit_structure(action),
                                    lambda rep: inner, mode=mode)
    return dec, window, member


def reference_outcome(verify, *args):
    try:
        return verify(*args)
    except MalformedOracleError as exc:
        return "MalformedOracleError", str(exc)
    except oracles.Refusal as exc:
        return exc.kind, str(exc)


def fast_outcome(dec, window, bound):
    v = verify_paradoxical(dec, window, bound)
    w = v.witness
    if w is None:
        return v.status, v.points_checked, None, None, None
    return v.status, v.points_checked, w.point, w.equation, w.detail


# two failures at the first point: at bound 2 a's uniqueness fails before
# b's membership; at bound 1 a's other holder lies past the bound (its
# claimants differ from (i,) but name no other piece within it), so b's
# membership is read and fails.  Once over claimants, once by scan
@example(kind="f2-standard", radius=1, bound=2, mutation="a-and-b-at-e", side="a", data=None)
@example(kind="f2-explicit", radius=1, bound=2, mutation="a-and-b-at-e", side="a", data=None)
@example(kind="f2-standard", radius=1, bound=1, mutation="a-and-b-at-e", side="a", data=None)
@example(kind="f2-explicit", radius=1, bound=1, mutation="a-and-b-at-e", side="a", data=None)
@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["f2-standard", "f2-explicit", "refined-f2", "refined-explicit",
                          "glue-uniform", "glue-independent", "glue-f2-uniform"]),
    radius=st.integers(0, 3),
    bound=st.one_of(st.integers(1, 6), st.integers(7, 60)),
    mutation=st.sampled_from(["none", "constant-cover", "zero-cover", "bool-cover",
                              "shifted-cover", "claimed-twice", "rerouted"]),
    side=st.sampled_from(["a", "b"]),
    data=st.data(),
)
def test_verifier_matches_its_slow_reference(kind, radius, bound, mutation, side, data):
    dec, window_of, member = reference_case(kind)
    if mutation == "constant-cover":
        dec = dataclasses.replace(dec, **{f"{side}_cover": lambda x: 1})
    elif mutation == "zero-cover":
        dec = dataclasses.replace(dec, **{f"{side}_cover": lambda x: 0})
    elif mutation == "bool-cover":
        cover = getattr(dec, f"{side}_cover")
        dec = dataclasses.replace(dec, **{f"{side}_cover": lambda x: cover(x) == 1 or cover(x)})
    elif mutation == "shifted-cover":
        cover = getattr(dec, f"{side}_cover")
        dec = dataclasses.replace(dec, **{f"{side}_cover": lambda x: cover(x) + 1})
    elif mutation == "claimed-twice":
        fam = getattr(dec, f"{side}_pieces")
        outside = [x for x in window_of(radius + 1).points if fam.classifier(x) is None]
        top = bound if fam.size is None else min(bound, fam.size)
        dec = claim_twice(dec, side, data.draw(st.sampled_from(outside)),
                          data.draw(st.integers(1, top)))
    elif mutation == "rerouted" and member is not None:
        positions = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
        dec = reroute(dec, side, member, positions, data.draw(st.booleans()))
    elif mutation == "a-and-b-at-e":
        # a-pieces 1 and 2 both land on e, which the a-cover gives to piece
        # 1, and the b-cover gives e to piece 1, whose translate misses it
        dec = reroute(dec, "a", member, [1, 1], last=False)
        cover = dec.b_cover
        dec = dataclasses.replace(dec, b_cover=lambda w: 1 if w == () else cover(w))
    window = window_of(radius)
    assert reference_outcome(fast_outcome, dec, window, bound) == reference_outcome(
        oracles.naive_verify_paradoxical, dec, window.points, bound)


@pytest.mark.parametrize("include, exclude", itertools.product([False, True], repeat=2))
def test_first_letter_members_match_their_definition(include, exclude):
    # adjoining the non-positive powers of a wins over removing them
    for letter in (1, -1, 2, -2):
        member = _FirstLetter(letter, include, exclude).member
        for w in F2.ball(4).points:
            neg_power = all(v == -1 for v in w)
            starts = len(w) > 0 and w[0] == letter
            expected = (include and neg_power) or (starts and not (exclude and neg_power))
            assert member(w) == expected, (letter, w)


def test_f2_side_oracles_agree_with_the_explicit_twin():
    # the F2 paradox's one-letter classifier and cover against the
    # manifest's first-letter members and scan cover
    dec, twin = f2_standard_decomposition(F2), explicit_f2()
    assert twin.a_pieces.claimants is None
    for w in F2.ball(6).points:
        for side in "ab":
            fam, twin_fam = getattr(dec, f"{side}_pieces"), getattr(twin, f"{side}_pieces")
            cover = getattr(dec, f"{side}_cover")
            assert fam.classifier(w) == twin_fam.classifier(w)
            assert cover(w) == getattr(twin, f"{side}_cover")(w)
            assert fam.claimants(w) == (cover(w),)


def test_uniform_glue_carries_one_decomposition_to_every_copy():
    # per_orbit is asked once, for the first representative, even with three
    # copies validated; the decomposition it offers for the other copies
    # (their a-pieces swapped) is never read, and every copy answers with the
    # first one's classifier, cover and claimants under its translators
    dec = f2_standard_decomposition(F2)
    base = dec.a_pieces.classifier
    swapped = dataclasses.replace(dec, a_pieces=dataclasses.replace(
        dec.a_pieces, classifier=lambda w: {1: 2, 2: 1}.get(base(w))))
    action = ProductAction(LeftTranslation(F2), 3)
    orbits = product_orbit_structure(action)
    asked = []
    glued = glue_orbit_decompositions(
        action, orbits, lambda rep: asked.append(rep) or (swapped if rep[1] else dec),
        mode="uniform", validate_window=lambda rep: fwin(1), validate_reps=3)
    assert asked == [orbits.rep_at(1)]
    for side in "ab":
        fam, glued_fam = getattr(dec, f"{side}_pieces"), getattr(glued, f"{side}_pieces")
        cover, glued_cover = getattr(dec, f"{side}_cover"), getattr(glued, f"{side}_cover")
        assert glued_fam.size == fam.size
        assert getattr(glued, f"{side}_translator") is getattr(dec, f"{side}_translator")
        for w in F2.ball(2).points:
            for r in range(3):
                assert glued_fam.classifier((w, r)) == fam.classifier(w)
                assert glued_cover((w, r)) == cover(w)
                assert glued_fam.claimants((w, r)) == fam.claimants(w)


@pytest.mark.parametrize("bad, message", [
    (0, "classifier returned bad index 0"),
    (3, "classifier returned index 3 beyond the family size 2"),
])
def test_uniform_glue_scan_probe_reads_the_inner_index_through_the_contract(bad, message):
    # the window holds only the identity of copy 0; the a-side scan probes
    # piece 2's preimage a^-1, where the inner classifier goes wrong
    dec = f2_standard_decomposition(F2)
    base = dec.a_pieces.classifier
    broken = dataclasses.replace(dec, a_pieces=dataclasses.replace(
        dec.a_pieces, classifier=lambda w: bad if w == (-1,) else base(w)))
    action = ProductAction(LeftTranslation(F2), 1)
    # without inner claimants the glue names none, so the verifier scans
    glued = glue_orbit_decompositions(action, product_orbit_structure(action),
                                      lambda rep: scanned(broken), mode="uniform")
    assert glued.a_pieces.claimants is None
    window = action.window({"ball": 0, "indices": [0, 0]})
    assert window.points == ((F2.identity, 0),)
    with pytest.raises(MalformedOracleError, match=f"^{message}$"):
        verify_paradoxical(glued, window, 2)


def swapped_decoding(x):
    """Copy 0 decoded with -4 and -3 swapped: not equivariant."""
    return {-4: -3, -3: -4}.get(x[0], x[0])


@pytest.mark.parametrize("how", ["hand-built", "replaced", "other-action"])
def test_an_unproved_decoding_keeps_the_scan(how):
    # the glue carries the inner claimants only through a decoding that
    # product_orbit_structure proved equivariant, for that action; the
    # swapped decoding, read through the claimants, would refute (2, 0) as a
    # b-cover-membership failure after 4 points instead
    action = ProductAction(LeftTranslation(Z), 1)
    proved = product_orbit_structure(action)
    assert proved.equivariant_for == (action, proved.coset_of)
    orbits = {
        "hand-built": OrbitStructure(proved.rep_of, swapped_decoding, proved.point_of,
                                     proved.rep_index, proved.rep_at, proved.count),
        "replaced": dataclasses.replace(proved, coset_of=swapped_decoding),
        "other-action": product_orbit_structure(ProductAction(LeftTranslation(Z), 1)),
    }[how]
    glued = glue_orbit_decompositions(action, orbits, lambda rep: singleton_decomposition(Z))
    assert glued.a_pieces.claimants is None and glued.b_pieces.claimants is None
    window = action.window({"box": 6, "indices": [0, 0]})
    verdict = verify_paradoxical(glued, window, 10)
    assert verdict == verify_paradoxical(scanned(glued), window, 10)
    assert fast_outcome(glued, window, 10) == oracles.naive_verify_paradoxical(
        glued, window.points, 10)
    if how == "other-action":
        assert verdict.verified
    else:
        assert verdict.witness.point == (1, 0)
        assert verdict.witness.equation == "b-cover-uniqueness"
        assert verdict.points_checked == 2


def test_claimants_carry_over_left_translations_only():
    # a decoding is proved equivariant only over a left-translation base, and
    # the inner claimants name translates under left multiplication: an inner
    # decomposition presented over another action does not lend them
    trivial = TrivialAction(Z, countable=True)
    assert product_orbit_structure(ProductAction(trivial, 2)).equivariant_for is None
    action = ProductAction(LeftTranslation(Z), 2)
    orbits = product_orbit_structure(action)
    dec = singleton_decomposition(Z)
    assert glue_orbit_decompositions(action, orbits, lambda rep: dec).a_pieces.claimants
    other = dataclasses.replace(dec, action=trivial)
    glued = glue_orbit_decompositions(action, orbits, lambda rep: other)
    assert glued.a_pieces.claimants is None and glued.b_pieces.claimants is None


def test_a_classifier_returning_true_names_piece_1():
    # True is refused, not read as piece 1, as a cover's True is
    message = "^classifier returned bad index True$"
    with pytest.raises(MalformedOracleError, match=message):
        PieceFamily(lambda x: True, size=2).classify_checked(7)
    dec = f2_standard_decomposition(F2)
    base = dec.a_pieces.classifier
    truthy = dataclasses.replace(dec, a_pieces=dataclasses.replace(
        dec.a_pieces, classifier=lambda w: True if base(w) == 1 else base(w)))
    with pytest.raises(MalformedOracleError, match=message):
        verify_paradoxical(truthy, fwin(3), 2)


MALFORMED_ANSWERS = pytest.mark.parametrize("bad, message", [
    (0, "classifier returned bad index 0"),
    (True, "classifier returned bad index True"),
    (3, "classifier returned index 3 beyond the family size 2"),
], ids=["zero", "true", "size-plus-one"])


def planted(dec, point, bad, side="a"):
    """``dec`` with the ``side`` classifier answering ``bad`` at ``point``;
    the claimants, which read the first letter, stay exact elsewhere."""
    pieces = getattr(dec, f"{side}_pieces")
    base = pieces.classifier
    return dataclasses.replace(dec, **{f"{side}_pieces": dataclasses.replace(
        pieces, classifier=lambda w: bad if w == point else base(w))})


@MALFORMED_ANSWERS
def test_a_malformed_answer_is_refused_at_the_partition_check(bad, message):
    # b is read by the partition check alone: its a-cover names piece 2,
    # whose preimage is a^-1 b, and ab, whose preimage it is, lies outside
    # ball(1); a loosened check would refute b as a combined-partition failure
    dec = f2_standard_decomposition(F2)
    assert verify_paradoxical(dec, fwin(1), 2).verified
    with pytest.raises(MalformedOracleError, match=f"^{message}$"):
        verify_paradoxical(planted(dec, (2,), bad), fwin(1), 2)


@MALFORMED_ANSWERS
def test_a_malformed_b_answer_is_refused_at_the_partition_check(bad, message):
    # the b-side twin: a is read by the b-classifier in the partition check
    # alone, since its b-cover names piece 2, whose preimage b^-1 a, and ba,
    # whose preimage a is, lie outside ball(1)
    dec = f2_standard_decomposition(F2)
    with pytest.raises(MalformedOracleError, match=f"^{message}$"):
        verify_paradoxical(planted(dec, (1,), bad, "b"), fwin(1), 2)


@MALFORMED_ANSWERS
@pytest.mark.parametrize("claims", [True, False], ids=["claimants", "scan"])
def test_a_malformed_answer_is_refused_at_the_membership_probe(claims, bad, message):
    # a^-1 b lies outside ball(1); the a-cover names piece 2 at b, so the
    # membership probe at b reads it first, before any index scan, and a
    # loosened check would refute b as a membership failure
    dec = f2_standard_decomposition(F2)
    dec = dec if claims else scanned(dec)
    assert (-1, 2) not in fwin(1).points
    assert verify_paradoxical(dec, fwin(1), 2).verified
    with pytest.raises(MalformedOracleError, match=f"^{message}$"):
        verify_paradoxical(planted(dec, (-1, 2), bad), fwin(1), 2)


@MALFORMED_ANSWERS
@pytest.mark.parametrize("claims", [True, False], ids=["claimants", "scan"])
def test_a_malformed_b_answer_is_refused_at_the_membership_probe(claims, bad, message):
    # the b-side twin: b^-1 a lies outside ball(1), and the b-cover names
    # piece 2 at a, so the b-membership probe at a reads it first
    dec = f2_standard_decomposition(F2)
    dec = dec if claims else scanned(dec)
    assert (-2, 1) not in fwin(1).points
    with pytest.raises(MalformedOracleError, match=f"^{message}$"):
        verify_paradoxical(planted(dec, (-2, 1), bad, "b"), fwin(1), 2)


@MALFORMED_ANSWERS
def test_a_malformed_answer_is_refused_inside_the_index_scan(bad, message):
    # a^-2 lies outside ball(1) and is the preimage of a^-1 under piece 2's
    # translator; the a-cover names piece 1 at a^-1, so only the index scan
    # reads it, and a loosened check would pass ball(1)
    dec = scanned(f2_standard_decomposition(F2))
    assert (-1, -1) not in fwin(1).points
    assert verify_paradoxical(dec, fwin(1), 2).verified
    with pytest.raises(MalformedOracleError, match=f"^{message}$"):
        verify_paradoxical(planted(dec, (-1, -1), bad), fwin(1), 2)


def test_equidecomposition_bound_and_source_checks():
    w = galileo_witness()
    action, window = LeftTranslation(Z), zwin(5)
    with pytest.raises(InputError, match="index bound must be >= 1"):
        verify_equidecomposable(lambda v: True, lambda v: v % 2 == 0, w, action, window, 0)
    with pytest.raises(InputError, match="^index bound must be an integer, got True$"):
        verify_equidecomposable(lambda v: True, lambda v: v % 2 == 0, w, action, window, True)
    # 3 lies in a piece but outside the source; 0, 1, -1, 2 and -2 come first
    verdict = verify_equidecomposable(
        lambda v: v != 3, lambda v: v % 2 == 0, w, action, window, 12,
    )
    assert verdict.status == "refuted"
    assert verdict.witness.point == 3
    assert verdict.witness.equation == "piece-inside-source"
    assert dict(verdict.witness.detail) == {"index": Z.position_of(3)}
    assert verdict.points_checked == 6
