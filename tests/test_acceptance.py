"""Whole-package acceptance checks.

Each check prints one summary line, so a full run reads as a checklist.
The work happens in payload builders that return plain JSON data with no
timing inside; the last check reruns every builder twice and compares
canonical bytes, which is what lets the reports serve as regression
anchors.  Wall-clock budgets are asserted where a check is expected to
stay cheap at desk scale.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

import oracles
from confpara.actions import LeftTranslation, ProductAction, TrivialAction
from confpara.catalog import fixture_groups, reconstruction_groups
from confpara.configurations import (
    ConfigPair,
    Partition,
    config_equiv_bounded,
    configurations_finite,
    configurations_with_cells,
    merge_blocks,
    singleton_split,
    verify_refinement,
    windowed_configuration_set,
)
from confpara.groups import FreeAbelianGroup, FreeGroup, normal_subgroups
from confpara.paradox import (
    Decomposition,
    PieceFamily,
    compress_translators,
    countable_paradox_of_infinite,
    even_integers_witness,
    f2_standard_decomposition,
    generator_power_witness,
    glue_orbit_decompositions,
    lift_via_transversal,
    product_orbit_structure,
    refine_to_singletons,
    restrict_to_orbit,
    singleton_decomposition,
    verify_paradoxical,
)
from confpara.reconstruction import quotient_recovery_roundtrip
from confpara.schemas import build_partition, dumps_canonical

Z = FreeAbelianGroup(1)
F2 = FreeGroup(2)

PARTITION_CAP = 500_000

# first payloads from the numbered checks, compared against fresh reruns
# by the determinism check when the whole module runs
_FIRST_RUN = {}


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# randomized pair sampling shared by the first two checks


def _normalized_labels(rng, count, max_blocks):
    # relabel by first appearance so indices are contiguous and every
    # block is nonempty
    raw = [rng.randint(1, max_blocks) for _ in range(count)]
    remap = {}
    out = []
    for v in raw:
        if v not in remap:
            remap[v] = len(remap) + 1
        out.append(remap[v])
    return tuple(out)


def _random_pairs(group, seed, count=200):
    """Seeded samples: tuple length up to 3, at most 4 blocks."""
    rng = random.Random(seed)
    pts = list(group.elements())
    out = []
    for _ in range(count):
        elems = tuple(rng.choice(pts) for _ in range(rng.randint(1, 3)))
        labels = _normalized_labels(rng, len(pts), rng.randint(1, min(4, len(pts))))
        out.append((elems, labels))
    return pts, out


def _explicit_blocks(pts, labels):
    return [
        [p for p, l in zip(pts, labels) if l == i]
        for i in range(1, max(labels) + 1)
    ]


# ---------------------------------------------------------------------------
# 1. configuration sets against the naive oracle


def build_oracle_agreement():
    payload = {"groups": {}, "pairs-per-group": 200}
    listing = []
    total = matched = 0
    for gi, (name, group) in enumerate(fixture_groups().items()):
        act = LeftTranslation(group)
        pts, pairs = _random_pairs(group, 11000 + gi)
        good = 0
        for elems, labels in pairs:
            lookup = dict(zip(pts, labels))
            pair = ConfigPair(elems, Partition.explicit(_explicit_blocks(pts, labels)))
            got = configurations_finite(act, pair)
            want = oracles.naive_configurations(pts, act.act, elems, lookup.__getitem__)
            good += got == tuple(sorted(want))
            listing.append([
                name,
                [group.format(g) for g in elems],
                list(labels),
                [list(c) for c in got],
            ])
        payload["groups"][name] = {"pairs": len(pairs), "matched": good}
        total += len(pairs)
        matched += good
    payload["total-pairs"] = total
    payload["total-matched"] = matched
    payload["digest"] = _digest(listing)
    return payload


def check_oracle_agreement():
    t0 = time.monotonic()
    payload = build_oracle_agreement()
    elapsed = time.monotonic() - t0
    _FIRST_RUN["oracle-agreement"] = payload
    ok = (
        payload["total-matched"] == payload["total-pairs"] == 2600
        and len(payload["groups"]) == 13
        and elapsed < 60.0
    )
    return ok, (
        f"{payload['total-matched']}/{payload['total-pairs']} sampled pairs match "
        f"the naive oracle across {len(payload['groups'])} groups, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. refinement identity on the same sampled pairs


def _union_identity_holds(pts, labels, elems, cells):
    """Each block must be the disjoint union, over configurations whose j-th
    entry carries its index, of the position-j cells; and the position-j
    cells must tile the whole point set."""
    by_block = {}
    for p, l in zip(pts, labels):
        by_block.setdefault(l, set()).add(p)
    for j in range(len(elems) + 1):
        for i in by_block:
            members = [y for cfg, cell in cells.items() if cfg[j] == i for y in cell[j]]
            if len(members) != len(set(members)):
                return False
            if set(members) != by_block[i]:
                return False
    return True


def build_refinement_identity():
    payload = {"groups": {}}
    listing = []
    checked = violations = 0
    for gi, (name, group) in enumerate(fixture_groups().items()):
        act = LeftTranslation(group)
        pts, pairs = _random_pairs(group, 11000 + gi)
        bad = 0
        for elems, labels in pairs:
            lookup = dict(zip(pts, labels))
            pair = ConfigPair(elems, Partition.explicit(_explicit_blocks(pts, labels)))
            cells = configurations_with_cells(act, pair)
            report = verify_refinement(act, pair, cells)
            want = oracles.naive_refinement_blocks(
                pts, act.act, group.inv, elems, lookup.__getitem__, sorted(cells)
            )
            same_cells = all(
                [set(c) for c in cells[cfg]] == [set(c) for c in want[cfg]]
                for cfg in cells
            )
            identity = _union_identity_holds(pts, labels, elems, want)
            checked += 1
            if not (report.ok and same_cells and identity):
                bad += 1
            listing.append([name, [group.format(g) for g in elems], list(labels),
                            bool(report.ok), bool(same_cells), bool(identity)])
        payload["groups"][name] = {"pairs": len(pairs), "violations": bad}
        violations += bad
    payload["pairs-checked"] = checked
    payload["violations"] = violations
    payload["digest"] = _digest(listing)
    return payload


def check_refinement_identity():
    t0 = time.monotonic()
    payload = build_refinement_identity()
    elapsed = time.monotonic() - t0
    _FIRST_RUN["refinement-identity"] = payload
    ok = payload["violations"] == 0 and payload["pairs-checked"] == 2600
    return ok, (
        f"{payload['pairs-checked']} pairs recross-checked, "
        f"{payload['violations']} violations, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 3. bounded equivalence: one genuine distinction, thirteen self comparisons


def _witness_payload(w):
    return {
        "direction": w.direction,
        "tuple": list(w.tuple_tokens),
        "blocks": [list(b) for b in w.blocks],
        "configurations": [list(c) for c in w.configurations],
    }


def _distinguish_z4():
    groups = fixture_groups()
    return config_equiv_bounded(
        LeftTranslation(groups["Z4"]), LeftTranslation(groups["Z2xZ2"]),
        2, 4, cap=PARTITION_CAP,
    )


def build_bounded_equivalence():
    v = _distinguish_z4()
    payload = {
        "distinguished": {
            "pair": ["Z4", "Z2xZ2"],
            "n": 2,
            "m": 4,
            "equivalent": v.equivalent,
            "family-sizes": list(v.family_sizes),
            "witnesses": [
                _witness_payload(w)
                for w in (v.only_in_first, v.only_in_second)
                if w is not None
            ],
        },
        "self-equivalence": {},
    }
    for name, group in fixture_groups().items():
        # two separate action instances so both families are computed
        sv = config_equiv_bounded(
            LeftTranslation(group), LeftTranslation(group), 2, 4, cap=PARTITION_CAP
        )
        payload["self-equivalence"][name] = {
            "equivalent": sv.equivalent,
            "family-size": sv.family_sizes[0],
            "sizes-agree": sv.family_sizes[0] == sv.family_sizes[1],
        }
    return payload


def check_bounded_equivalence():
    t0 = time.monotonic()
    payload = build_bounded_equivalence()
    rerun = _distinguish_z4()
    elapsed = time.monotonic() - t0
    _FIRST_RUN["bounded-equivalence"] = payload
    dist = payload["distinguished"]
    reproduced = [
        _witness_payload(w)
        for w in (rerun.only_in_first, rerun.only_in_second)
        if w is not None
    ] == dist["witnesses"]
    self_ok = [
        name
        for name, entry in payload["self-equivalence"].items()
        if entry["equivalent"] and entry["sizes-agree"]
    ]
    ok = (
        not dist["equivalent"]
        and len(dist["witnesses"]) >= 1
        and reproduced
        and len(self_ok) == 13
        and elapsed < 300.0
    )
    return ok, (
        f"Z4 vs Z2xZ2 distinguished with a stable witness; "
        f"{len(self_ok)}/13 self comparisons equivalent, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 4. coset recovery roundtrip over every normal subgroup


def build_coset_recovery():
    payload = {"groups": {}, "roundtrips": 0, "successes": 0}
    listing = []
    for name, h in reconstruction_groups().items():
        count = good = 0
        for normal in normal_subgroups(h):
            family, report, quotient = quotient_recovery_roundtrip(h, normal)
            ok = (
                report.ok
                and family.subgroup == frozenset(normal)
                and report.coset_count == quotient.order()
                and report.subgroup_order * report.coset_count == h.order()
            )
            count += 1
            good += ok
            listing.append([name, sorted(h.format(x) for x in normal), bool(ok)])
        payload["groups"][name] = {"normal-subgroups": count, "recovered": good}
        payload["roundtrips"] += count
        payload["successes"] += good
    payload["digest"] = _digest(listing)
    return payload


def check_coset_recovery():
    t0 = time.monotonic()
    payload = build_coset_recovery()
    elapsed = time.monotonic() - t0
    _FIRST_RUN["coset-recovery"] = payload
    small = all(g.order() <= 12 for g in reconstruction_groups().values())
    ok = (
        small
        and payload["roundtrips"] > 0
        and payload["successes"] == payload["roundtrips"]
        and elapsed < 60.0
    )
    return ok, (
        f"{payload['successes']}/{payload['roundtrips']} quotient roundtrips "
        f"recovered subgroup and certified the isomorphism "
        f"across {len(payload['groups'])} groups, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 5. split then merge reproduces windowed configuration sets


def build_split_merge():
    act = LeftTranslation(Z)
    rng = random.Random(5050)
    listing = []
    exact = 0
    for _ in range(50):
        modulus = rng.randint(2, 6)
        elems = tuple(rng.randint(-8, 8) for _ in range(rng.randint(1, 3)))
        window = act.window({"box": rng.randint(10, 40)})
        partition = build_partition({"kind": "residue", "modulus": modulus}, act)
        pair = ConfigPair(elems, partition)
        original = windowed_configuration_set(act, pair, window)
        split = singleton_split(act, pair, rng.randint(1, modulus))
        merged = merge_blocks(split.pair, modulus)
        back = windowed_configuration_set(act, merged, window)
        relabeled = tuple(sorted(
            tuple(split.relabeling[c - 1] for c in cfg) for cfg in original
        ))
        exact += back == relabeled
        listing.append([modulus, list(elems), window.label,
                        [list(c) for c in back]])
    return {"pairs": 50, "exact": exact, "digest": _digest(listing)}


def check_split_merge():
    payload = build_split_merge()
    _FIRST_RUN["split-merge-roundtrip"] = payload
    ok = payload["exact"] == payload["pairs"] == 50
    return ok, f"{payload['exact']}/{payload['pairs']} split-merge roundtrips exact"


# ---------------------------------------------------------------------------
# 6. the four-piece free group decomposition at a thousand-point scale


def build_free_group_paradox():
    dec = f2_standard_decomposition(F2)
    verdict = verify_paradoxical(dec, F2.ball(6), index_bound=2)
    return {
        "window": verdict.window_label,
        "points": verdict.points_checked,
        "index-bound": verdict.index_bound,
        "status": verdict.status,
        "pieces": [dec.a_pieces.size, dec.b_pieces.size],
    }


def check_free_group_paradox():
    t0 = time.monotonic()
    payload = build_free_group_paradox()
    elapsed = time.monotonic() - t0
    _FIRST_RUN["free-group-paradox"] = payload
    ok = (
        payload["status"] == "verified-up-to"
        and payload["points"] == 1457
        and payload["points"] >= 1000
        and payload["index-bound"] >= max(payload["pieces"])
        and elapsed < 30.0
    )
    return ok, (
        f"{payload['status']} on {payload['window']}, "
        f"{payload['points']} points, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 7. the countable constructions verify on their stated windows


def _verdict_payload(v):
    return {
        "status": v.status,
        "window": v.window_label,
        "index-bound": v.index_bound,
        "points": v.points_checked,
        "witness": None if v.witness is None else {
            "point": str(v.witness.point),
            "equation": v.witness.equation,
        },
    }


def build_countable_constructions():
    out = {}
    verdict = verify_paradoxical(singleton_decomposition(Z), Z.box(100), 500)
    out["integer-singletons"] = _verdict_payload(verdict)

    evens = even_integers_witness(Z)
    lifted = lift_via_transversal(Z, evens, singleton_decomposition(evens.subgroup))
    out["even-integers-lift"] = _verdict_payload(
        verify_paradoxical(lifted, Z.box(60), 200)
    )

    dec = countable_paradox_of_infinite(F2, generator_power_witness(F2))
    out["free2-generator-powers"] = _verdict_payload(
        verify_paradoxical(dec, F2.ball(3), 60)
    )
    return out


def check_countable_constructions():
    payload = build_countable_constructions()
    _FIRST_RUN["countable-constructions"] = payload
    wanted = {
        "integer-singletons": 201,
        "even-integers-lift": 121,
        "free2-generator-powers": 53,
    }
    ok = all(
        payload[k]["status"] == "verified-up-to" and payload[k]["points"] == n
        for k, n in wanted.items()
    )
    points = "/".join(str(payload[k]["points"]) for k in wanted)
    return ok, (
        f"integer singletons, even-integer lift, free2 lift all verified "
        f"({points} points)"
    )


# ---------------------------------------------------------------------------
# 8. compression undoes singleton refinement; singletons stay incompressible


def build_translator_compression():
    std = f2_standard_decomposition(F2)
    refined = refine_to_singletons(f2_standard_decomposition(F2))
    comp = compress_translators(refined, index_bound=200)
    window = F2.ball(4)
    mismatches = 0
    if comp.decomposition is not None:
        got = comp.decomposition
        for w in window.points:
            if got.a_pieces.classifier(w) != std.a_pieces.classifier(w):
                mismatches += 1
            if got.b_pieces.classifier(w) != std.b_pieces.classifier(w):
                mismatches += 1
            if got.a_cover(w) != std.a_cover(w) or got.b_cover(w) != std.b_cover(w):
                mismatches += 1
    flat = compress_translators(singleton_decomposition(Z), index_bound=200)
    return {
        "free2-refined": {
            "status": comp.status,
            "detection": comp.detection,
            "a-range": [F2.format(g) for g in (comp.a_range or ())],
            "b-range": [F2.format(g) for g in (comp.b_range or ())],
            "points-compared": len(window),
            "mismatches": mismatches,
        },
        "integer-singletons": {
            "status": flat.status,
            "bound": flat.bound,
            "has-decomposition": flat.decomposition is not None,
        },
    }


def check_translator_compression():
    payload = build_translator_compression()
    _FIRST_RUN["translator-compression"] = payload
    f2p = payload["free2-refined"]
    flat = payload["integer-singletons"]
    ok = (
        f2p["status"] == "compressed"
        and f2p["points-compared"] == 161
        and f2p["mismatches"] == 0
        and f2p["a-range"] == ["e", "a"]
        and f2p["b-range"] == ["e", "b"]
        and flat["status"] == "not-compressible-within-bound"
        and flat["bound"] == 200
        and not flat["has-decomposition"]
    )
    return ok, (
        f"refined free2 compresses back to the standard classifiers "
        f"({f2p['points-compared']} points, {f2p['mismatches']} mismatches); "
        f"integer singletons stay uncompressible at bound {flat['bound']}"
    )


# ---------------------------------------------------------------------------
# 9. gluing per-orbit decompositions across countably many orbits


def build_orbit_gluing():
    action = ProductAction(LeftTranslation(Z))
    orbits = product_orbit_structure(action)
    glued = glue_orbit_decompositions(
        action, orbits, lambda rep: singleton_decomposition(Z),
        validate_window=lambda rep: Z.box(6),
        validate_reps=2, validate_index_bound=40,
    )
    window = action.window({"box": 30, "indices": [0, 5]})
    verdict = verify_paradoxical(glued, window, index_bound=40)

    base = singleton_decomposition(Z)
    probe = Z.box(30)
    orbit_mismatches = 0
    compared = 0
    for i in range(6):
        back = restrict_to_orbit(glued, (0, i), orbits)
        compared += 1
        for g in probe.points:
            if back.a_pieces.classifier(g) != base.a_pieces.classifier(g):
                orbit_mismatches += 1
            if back.b_pieces.classifier(g) != base.b_pieces.classifier(g):
                orbit_mismatches += 1
            if back.a_cover(g) != base.a_cover(g) or back.b_cover(g) != base.b_cover(g):
                orbit_mismatches += 1
        for idx in range(1, 41):
            if back.a_translator(idx) != base.a_translator(idx):
                orbit_mismatches += 1
            if back.b_translator(idx) != base.b_translator(idx):
                orbit_mismatches += 1
    return {
        "verify": _verdict_payload(verdict),
        "orbits-compared": compared,
        "points-per-orbit": len(probe),
        "orbit-mismatches": orbit_mismatches,
    }


def check_orbit_gluing():
    payload = build_orbit_gluing()
    _FIRST_RUN["orbit-gluing"] = payload
    ok = (
        payload["verify"]["status"] == "verified-up-to"
        and payload["verify"]["points"] == 366
        and payload["orbits-compared"] == 6
        and payload["orbit-mismatches"] == 0
    )
    return ok, (
        f"glued decomposition verified on {payload['verify']['points']} points; "
        f"{payload['orbits-compared']} orbits restrict back with "
        f"{payload['orbit-mismatches']} mismatches"
    )


# ---------------------------------------------------------------------------
# 10. no candidate survives over a trivial action


def _trivial_candidate(action, seed):
    """Pseudo-random piece assignment over a trivial action: slots 0..3 put
    the point into one of the four pieces, slot 4 leaves it unclassified."""

    def slot(x):
        return (x * 2654435761 + 97 * seed + 13) % 5

    def a_classifier(x):
        s = slot(x)
        return s + 1 if s < 2 else None

    def b_classifier(x):
        s = slot(x)
        return s - 1 if s in (2, 3) else None

    identity = action.group.identity
    return Decomposition(
        action=action,
        a_pieces=PieceFamily(a_classifier, size=2),
        b_pieces=PieceFamily(b_classifier, size=2),
        a_translator=lambda i: identity,
        b_translator=lambda i: identity,
        a_cover=lambda x: a_classifier(x) or 1,
        b_cover=lambda x: b_classifier(x) or 1,
    )


def _witness_holds(dec, verdict):
    """Recheck a refutation witness from scratch against the decomposition."""
    w = verdict.witness
    if w is None:
        return False
    x = w.point
    act = dec.action.act
    inv = dec.action.group.inv
    detail = dict(w.detail)
    ia = dec.a_pieces.classifier(x)
    ib = dec.b_pieces.classifier(x)
    if w.equation == "combined-partition":
        return (ia is None) == (ib is None)
    side = w.equation[0]
    fam, cover, translator = (
        (dec.a_pieces, dec.a_cover, dec.a_translator)
        if side == "a"
        else (dec.b_pieces, dec.b_cover, dec.b_translator)
    )
    i = cover(x)
    if w.equation.endswith("cover-membership"):
        return detail["index"] == i and fam.classifier(act(inv(translator(i)), x)) != i
    if w.equation.endswith("cover-uniqueness"):
        j = detail["other"]
        return j != i and fam.classifier(act(inv(translator(j)), x)) == j
    return False


def build_trivial_action_refutation():
    action = TrivialAction(Z, countable=True)
    window = action.window({"prefix": 48})
    records = []
    refuted = valid = 0
    for seed in range(100):
        dec = _trivial_candidate(action, seed)
        verdict = verify_paradoxical(dec, window, index_bound=8)
        refuted += verdict.status == "refuted"
        valid += _witness_holds(dec, verdict)
        records.append({
            "seed": seed,
            "status": verdict.status,
            "point": None if verdict.witness is None else verdict.witness.point,
            "equation": None if verdict.witness is None else verdict.witness.equation,
        })
    return {
        "candidates": 100,
        "refuted": refuted,
        "valid-witnesses": valid,
        "records": records,
    }


def check_trivial_action_refutation():
    payload = build_trivial_action_refutation()
    _FIRST_RUN["trivial-action-refutation"] = payload
    equations = {r["equation"] for r in payload["records"]}
    ok = (
        payload["refuted"] == payload["valid-witnesses"] == 100
        and None not in equations
    )
    return ok, (
        f"{payload['refuted']}/100 candidates refuted, "
        f"{payload['valid-witnesses']}/100 witnesses recheck, "
        f"equations seen: {', '.join(sorted(equations))}"
    )


# ---------------------------------------------------------------------------
# 11. reports are byte-identical across reruns


PAYLOAD_BUILDERS = (
    ("oracle-agreement", build_oracle_agreement),
    ("refinement-identity", build_refinement_identity),
    ("bounded-equivalence", build_bounded_equivalence),
    ("coset-recovery", build_coset_recovery),
    ("split-merge-roundtrip", build_split_merge),
    ("free-group-paradox", build_free_group_paradox),
    ("countable-constructions", build_countable_constructions),
    ("translator-compression", build_translator_compression),
    ("orbit-gluing", build_orbit_gluing),
    ("trivial-action-refutation", build_trivial_action_refutation),
)


def check_report_determinism():
    t0 = time.monotonic()
    stable = []
    for slug, build in PAYLOAD_BUILDERS:
        first = dumps_canonical(build())
        second = dumps_canonical(build())
        same = first == second
        if slug in _FIRST_RUN:
            same = same and dumps_canonical(_FIRST_RUN[slug]) == first
        stable.append(same)
    elapsed = time.monotonic() - t0
    ok = all(stable) and len(stable) == 10
    return ok, (
        f"{sum(stable)}/{len(stable)} builders byte-identical across two "
        f"reruns, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# harness


CHECKS = (
    (1, "oracle-agreement", check_oracle_agreement),
    (2, "refinement-identity", check_refinement_identity),
    (3, "bounded-equivalence", check_bounded_equivalence),
    (4, "coset-recovery", check_coset_recovery),
    (5, "split-merge-roundtrip", check_split_merge),
    (6, "free-group-paradox", check_free_group_paradox),
    (7, "countable-constructions", check_countable_constructions),
    (8, "translator-compression", check_translator_compression),
    (9, "orbit-gluing", check_orbit_gluing),
    (10, "trivial-action-refutation", check_trivial_action_refutation),
    (11, "report-determinism", check_report_determinism),
)


def _run(index):
    num, slug, fn = CHECKS[index - 1]
    ok, detail = fn()
    print(f"acceptance {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{slug}: {detail}"


def test_01_oracle_agreement():
    _run(1)


def test_02_refinement_identity():
    _run(2)


def test_03_bounded_equivalence():
    _run(3)


def test_04_coset_recovery():
    _run(4)


def test_05_split_merge_roundtrip():
    _run(5)


def test_06_free_group_paradox():
    _run(6)


def test_07_countable_constructions():
    _run(7)


def test_08_translator_compression():
    _run(8)


def test_09_orbit_gluing():
    _run(9)


def test_10_trivial_action_refutation():
    _run(10)


def test_11_report_determinism():
    _run(11)
