#!/usr/bin/env python3
"""Run the checked-in mutants of src/confpara and report any that survive.

Each mutant in ``MUTANTS`` names a file under ``src/``, an exact source
snippet that occurs once in it, the snippet's replacement, and the pytest
node ids expected to kill it.  For each mutant the script copies ``src/``
to a temporary directory, applies the replacement there, and runs the
named tests against the copy (``-o pythonpath=`` points pytest at it; the
tests themselves are read from ``tests/`` in place).  All the named tests
are first run once on an unmutated copy, and must pass.  A mutant is killed
when pytest reports a failing test (exit status 1).  It survives when the
named tests all pass, and any other status (a node id not found, a
collection error) is reported as an error.

The script prints one line per mutant and exits 1 if any mutant survived
or erred, 2 if a snippet does not occur exactly once in its file, else 0.
``tests/test_mutants.py`` checks the snippets and node ids in Tier-1; the
full run is kept out of Tier-1, since each mutant costs a pytest start-up
and its tests.  Standard library only.

Usage: ``python3 scripts/mutants.py [mutant name ...]`` (all by default).
"""

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root, under src/
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    # the integer rule
    Mutant(
        "integer-rule-takes-a-bool",
        "src/confpara/groups.py",
        "    return type(v) is int or isinstance(v, int) and not isinstance(v, bool)\n",
        "    return type(v) is int or isinstance(v, int)\n",
        ("tests/test_groups.py::test_every_integer_argument_refuses_a_non_int",
         "tests/test_groups.py::test_bools_are_not_group_elements"),
    ),
    Mutant(
        "integer-gate-compares-before-type",
        "src/confpara/groups.py",
        "    if not _is_int(v):\n"
        "        raise InputError(f\"{what} must be an integer, got {v!r}\")\n"
        "    if maximum is not None and not minimum <= v <= maximum:\n"
        "        raise InputError(f\"{what} must be between {minimum} and {maximum}\")\n"
        "    if minimum is not None and v < minimum:\n"
        "        raise InputError(f\"{what} must be >= {minimum}\")\n",
        "    if maximum is not None and not minimum <= v <= maximum:\n"
        "        raise InputError(f\"{what} must be between {minimum} and {maximum}\")\n"
        "    if minimum is not None and v < minimum:\n"
        "        raise InputError(f\"{what} must be >= {minimum}\")\n"
        "    if not _is_int(v):\n"
        "        raise InputError(f\"{what} must be an integer, got {v!r}\")\n",
        ("tests/test_groups.py::test_every_integer_argument_refuses_a_non_int",),
    ),
    # table reads of the coset layer
    Mutant(
        "is-normal-conjugates-s-x",
        "src/confpara/groups.py",
        "if not all(t[row[s]][xi] in sub for s in sub):",
        "if not all(t[t[s][x]][xi] in sub for s in sub):",
        ("tests/test_groups.py::test_is_normal_picks_a3",
         "tests/test_reconstruction.py::test_coset_arithmetic_matches_its_slow_reference"),
    ),
    Mutant(
        "cosets-without-subgroup-check",
        "src/confpara/groups.py",
        "    if group.identity not in normal or not all(\n"
        "        normal.issuperset(map(t[a].__getitem__, normal)) for a in normal\n"
        "    ):\n",
        "    if False:\n",
        ("tests/test_groups.py::test_quotient_rejects_a_conjugation_closed_non_subgroup",
         "tests/test_reconstruction.py::test_coset_arithmetic_matches_its_slow_reference"),
    ),
    Mutant(
        "coset-law-reads-the-wrong-row",
        "src/confpara/reconstruction.py",
        "        products = t[hj]\n",
        "        products = t[j - 1]\n",
        ("tests/test_reconstruction.py::test_recover_accepts_non_generating_tuple",),
    ),
    Mutant(
        "certificate-reads-the-table-before-elements",
        "src/confpara/reconstruction.py",
        "    elements = group.elements()  # an infinite group raises here\n"
        "    t = group.table\n",
        "    t = group.table\n"
        "    elements = group.elements()\n",
        ("tests/test_reconstruction.py::test_coset_routines_refuse_an_infinite_group",),
    ),
    Mutant(
        "coset-law-names-the-greatest-block",
        "src/confpara/reconstruction.py",
        "            l = min(failing)\n",
        "            l = max(failing)\n",
        ("tests/test_reconstruction.py::test_coset_law_failure_names_the_least_block",),
    ),
    # the shape filter of bounded equivalence
    Mutant(
        "shape-of-the-raw-codes",
        "src/confpara/configurations.py",
        "    for p, _order in patterns:\n",
        "    for p in range(len(patterns)):\n",
        ("tests/test_configurations.py::test_every_relabeling_keeps_a_code_sets_shape",
         "tests/test_configurations.py::test_family_matches_the_naive_family"),
    ),
    # the orderly partition test and the relabeling probe of bounded equivalence
    Mutant(
        "partitions-need-the-lesser-index",
        "src/confpara/configurations.py",
        "        need = tuple(map(max, phi, range(n)))\n",
        "        need = tuple(map(min, phi, range(n)))\n",
        ("tests/test_configurations.py::test_pruned_partitions_match_the_orbit_filter",),
    ),
    Mutant(
        "renumbering-off-by-one",
        "src/confpara/configurations.py",
        "                    r = order.index(u) + 1\n",
        "                    r = order.index(u)\n",
        ("tests/test_configurations.py::test_pruned_partitions_match_the_orbit_filter",),
    ),
    Mutant(
        "probe-skips-a-relabeling",
        "src/confpara/configurations.py",
        "        others = code_maps[b][1:]  # the first map is the identity\n",
        "        others = code_maps[b][2:]  # the first map is the identity\n",
        ("tests/test_configurations.py::test_family_matches_the_naive_family",
         "tests/test_configurations.py::test_relabeled_images_on_z8"),
    ),
    Mutant(
        "fixing-maps-read-off-by-one-position",
        "src/confpara/configurations.py",
        "        moving = [pairs[k] for k in fixing if pairs[k]] if pairs else ()\n",
        "        moving = [pairs[k - 1] for k in fixing if pairs[k - 1]] if pairs else ()\n",
        ("tests/test_configurations.py::test_family_matches_the_naive_family",
         "tests/test_configurations.py::test_tuple_work_on_z8"),
    ),
    # earlier fast paths
    Mutant(
        "partitions-cut-on-a-later-reading",
        "src/confpara/configurations.py",
        "                    cut = r < labels[y]\n",
        "                    cut = r > labels[y]\n",
        ("tests/test_configurations.py::test_pruned_partitions_match_the_orbit_filter",),
    ),
    Mutant(
        "tuples-keep-every-map-alive",
        "src/confpara/configurations.py",
        "        if alive:\n"
        "            alive = [f for f in alive if f[0][g] == g]\n",
        "",
        ("tests/test_configurations.py::test_skipped_tuples_never_hold_the_first_of_a_class",),
    ),
    Mutant(
        "free-mul-junction-sign",
        "src/confpara/groups.py",
        "if not b or a[-1] != -b[0]:",
        "if not b or a[-1] != b[0]:",
        ("tests/test_groups.py::test_free_group_mul_at_the_junction",),
    ),
    Mutant(
        "zigzag-rank-puts-0-at-position-0",
        "src/confpara/groups.py",
        "return 2 * v if v > 0 else 1 - 2 * v",
        "return 2 * v if v >= 0 else 1 - 2 * v",
        ("tests/test_groups.py::test_integer_positions_match_the_zigzag_oracle",),
    ),
    Mutant(
        "zigzag-unrank-flips-the-sign",
        "src/confpara/groups.py",
        "return -half if pos % 2 else half",
        "return half if pos % 2 else -half",
        ("tests/test_groups.py::test_integers_zigzag_enumeration",),
    ),
    # enumeration ranks: the closed form, the table and the free-group pass
    Mutant(
        "closed-form-rank-drops-the-minus-r-offset",
        "src/confpara/groups.py",
        "                index += a * (box - inner) + (box if c < 0 else 0)\n",
        "                index += a * (box - inner)\n",
        ("tests/test_groups.py::test_far_ranks_match_a_brute_force_count",),
    ),
    Mutant(
        "table-grows-on-a-query-two-shells-out",
        "src/confpara/groups.py",
        "        if len(walked) == start:\n",
        "        if len(walked) >= self._inside(r - 1):\n",
        ("tests/test_groups.py::test_far_queries_build_no_shell_and_grow_no_table",),
    ),
    Mutant(
        "free-rank-skips-the-reducedness-test",
        "src/confpara/groups.py",
        "tuple(v for v in self._letters if v != -u)",
        "tuple(v for v in self._letters)",
        ("tests/test_groups.py::test_enumeration_input_errors_keep_their_messages",),
    ),
    Mutant(
        "f2-claimants-swap-the-empty-word",
        "src/confpara/paradox.py",
        "            return (1,) if self.absorb else (2,)\n",
        "            return (2,) if self.absorb else (1,)\n",
        ("tests/test_paradox.py::test_f2_cover_and_claimants_agree_with_the_classifier",),
    ),
    Mutant(
        "cover-scan-starts-at-2",
        "src/confpara/paradox.py",
        "for j in range(1, limit + 1):",
        "for j in range(2, limit + 1):",
        ("tests/test_paradox.py::test_claimed_point_is_refuted_by_the_table_as_by_the_scan",),
    ),
    Mutant(
        "f2-a-claimants-swapped",
        "src/confpara/paradox.py",
        "            return (1,)\n"
        "        return (2,)\n",
        "            return (2,) if self.absorb else (1,)\n"
        "        return (1,) if self.absorb else (2,)\n",
        ("tests/test_paradox.py::test_f2_cover_and_claimants_agree_with_the_classifier",),
    ),
    Mutant(
        "f2-b-claimant-widened",
        "src/confpara/paradox.py",
        "            return (1,)\n"
        "        return (2,)\n",
        "            return (1,)\n"
        "        return (2,) if self.absorb else (1, 2)\n",
        ("tests/test_paradox.py::test_f2_and_refined_claimants_are_exact",),
    ),
    Mutant(
        "refined-claimants-rank-off-by-one",
        "src/confpara/paradox.py",
        "                    named.append(cantor_pair(p - 1, got[1] - 1) + 1)\n",
        "                    named.append(cantor_pair(p - 1, got[1]) + 1)\n",
        ("tests/test_paradox.py::test_f2_and_refined_claimants_are_exact",),
    ),
    # the cover checks and the rank scan of the paradox verifier
    Mutant(
        "claimed-check-trusts-the-other-claimant",
        "src/confpara/paradox.py",
        "            if fam.classify_checked(act(t, x)) == other:\n",
        "            if True:\n",
        ("tests/test_paradox.py::test_wrong_claimants_are_malformed",),
    ),
    Mutant(
        "scanned-cover-index-one-past-the-size",
        "src/confpara/paradox.py",
        "        if not (type(i) is int and 0 < i <= top_b):\n",
        "        if not (type(i) is int and 0 < i <= top_b + 1):\n",
        ("tests/test_paradox.py::test_refinement_keeps_the_parent_cover_contract",),
    ),
    Mutant(
        "claimed-cover-index-one-past-the-size",
        "src/confpara/paradox.py",
        "        if not (type(i) is int and 0 < i <= top_a):\n",
        "        if not (type(i) is int and 0 < i <= top_a + 1):\n",
        ("tests/test_paradox.py::test_refinement_keeps_the_parent_cover_contract",),
    ),
    Mutant(
        "claimed-check-skips-claimants-for-f2-points",
        "src/confpara/paradox.py",
        "        named = None if claimants_a is None else claimants_a(x)\n",
        "        named = (i,) if isinstance(x, tuple) else (  # a free-group word\n"
        "            None if claimants_a is None else claimants_a(x))\n",
        ("tests/test_paradox.py::test_claimants_cost_two_acts_covers_and_claimants_per_point",),
    ),
    # the claimant entries, checked where they are read
    Mutant(
        "claimants-need-not-be-a-tuple",
        "src/confpara/paradox.py",
        "        if not isinstance(named, tuple):\n"
        "            raise MalformedOracleError(\n"
        "                f\"{claimants_name} returned {named!r} for {x!r}, not a tuple\")\n",
        "",
        ("tests/test_paradox.py::test_claimants_that_are_not_a_tuple_are_malformed",),
    ),
    Mutant(
        "claimant-entries-go-unchecked",
        "src/confpara/paradox.py",
        "        for j in named:\n"
        "            if not (type(j) is int and 0 < j <= top):\n"
        "                _checked_index(claimants_name, j, size)\n",
        "",
        ("tests/test_paradox.py::test_claimant_entries_are_checked_against_the_index_contract",
         "tests/test_paradox.py::test_a_claimant_past_the_family_size_is_malformed"),
    ),
    Mutant(
        "claimants-fast-test-reads-true-as-piece-1",
        "src/confpara/paradox.py",
        "        if named != (i,) or type(named[0]) is not int:\n"
        "            other = other_b(x, i, named)\n",
        "        if named != (i,):\n"
        "            other = other_b(x, i, named)\n",
        ("tests/test_paradox.py::test_claimant_entries_are_checked_against_the_index_contract",),
    ),
    # the index checks written where the verifier reads a classifier answer
    Mutant(
        "partition-check-takes-index-0",
        "src/confpara/paradox.py",
        "        if ia is not None and not (type(ia) is int and 0 < ia <= top_a):\n",
        "        if ia is not None and not (type(ia) is int and 0 <= ia <= top_a):\n",
        ("tests/test_paradox.py::test_a_malformed_answer_is_refused_at_the_partition_check",),
    ),
    Mutant(
        "partition-check-b-one-past-the-size",
        "src/confpara/paradox.py",
        "        if ib is not None and not (type(ib) is int and 0 < ib <= top_b):\n",
        "        if ib is not None and not (type(ib) is int and 0 < ib <= top_b + 1):\n",
        ("tests/test_paradox.py::test_a_malformed_b_answer_is_refused_at_the_partition_check",),
    ),
    Mutant(
        "claimed-membership-probe-takes-a-bool",
        "src/confpara/paradox.py",
        "        if c is not None and not (type(c) is int and 0 < c <= top_a):\n",
        "        if c is not None and not (0 < c <= top_a):\n",
        ("tests/test_paradox.py::test_a_malformed_answer_is_refused_at_the_membership_probe",),
    ),
    Mutant(
        "scanned-membership-probe-one-past-the-size",
        "src/confpara/paradox.py",
        "        if c is not None and not (type(c) is int and 0 < c <= top_b):\n",
        "        if c is not None and not (type(c) is int and 0 < c <= top_b + 1):\n",
        ("tests/test_paradox.py::test_a_malformed_b_answer_is_refused_at_the_membership_probe",),
    ),
    Mutant(
        "index-scan-takes-index-0",
        "src/confpara/paradox.py",
        "                if c is not None and not (type(c) is int and 0 < c <= top):\n",
        "                if c is not None and not (type(c) is int and 0 <= c <= top):\n",
        ("tests/test_paradox.py::test_a_malformed_answer_is_refused_inside_the_index_scan",),
    ),
    Mutant(
        "piece-ranks-count-from-0",
        "src/confpara/paradox.py",
        "counts[p] = k = counts.get(p, 0) + 1",
        "counts[p] = k = counts.get(p, -1) + 1",
        ("tests/test_paradox.py::test_refinement_flattens_piece_and_rank",),
    ),
    Mutant(
        "first-letter-removal-wins",
        "src/confpara/paradox.py",
        "            return (not self.exclude_neg_powers or self.include_neg_powers\n",
        "            return (not self.exclude_neg_powers\n",
        ("tests/test_paradox.py::test_first_letter_members_match_their_definition",),
    ),
    # the equivariance proof that lets the uniform glue carry claimants
    Mutant(
        "uniform-glue-ignores-the-proof",
        "src/confpara/paradox.py",
        "        carried = (proved_action is action and proved_coset_of is coset_of\n"
        "                   and isinstance(dec.action, LeftTranslation))\n",
        "        carried = isinstance(dec.action, LeftTranslation)\n",
        ("tests/test_paradox.py::test_an_unproved_decoding_keeps_the_scan",),
    ),
    Mutant(
        "uniform-glue-trusts-a-replaced-decoding",
        "src/confpara/paradox.py",
        "proved_action is action and proved_coset_of is coset_of\n",
        "proved_action is action\n",
        ("tests/test_paradox.py::test_an_unproved_decoding_keeps_the_scan",),
    ),
    Mutant(
        "uniform-glue-ignores-the-inner-action",
        "src/confpara/paradox.py",
        "                   and isinstance(dec.action, LeftTranslation))\n",
        "                   )\n",
        ("tests/test_paradox.py::test_claimants_carry_over_left_translations_only",),
    ),
    Mutant(
        "product-orbits-proved-over-any-base",
        "src/confpara/paradox.py",
        "    if isinstance(action.base, LeftTranslation):\n",
        "    if True:\n",
        ("tests/test_paradox.py::test_claimants_carry_over_left_translations_only",),
    ),
    # the search's orbit split and its code maps
    Mutant(
        "orbits-follow-the-first-generator-only",
        "src/confpara/configurations.py",
        "                for s in gens:\n"
        "                    if s[x] not in placed:\n",
        "                for s in gens[:1]:\n"
        "                    if s[x] not in placed:\n",
        ("tests/test_configurations.py::test_left_translation_maps_are_the_holomorph",
         "tests/test_configurations.py::test_maps_conjugate_every_row_to_a_row"),
    ),
    Mutant(
        "code-maps-ignore-the-relabeling",
        "src/confpara/configurations.py",
        "            codes = [c * m + s for c in codes for s in sigma]\n",
        "            codes = [c * m + s for c in codes for s in range(m)]\n",
        ("tests/test_configurations.py::test_family_matches_the_naive_family",),
    ),
    # independent glue: one decomposition, re-indexed by (piece, orbit)
    Mutant(
        "independent-glue-orbit-index-off-by-one",
        "src/confpara/paradox.py",
        "                return None\n"
        "            return cantor_pair(i - 1, orbits.rep_index(orbits.rep_of(x)) - 1) + 1\n",
        "                return None\n"
        "            return cantor_pair(i - 1, orbits.rep_index(orbits.rep_of(x))) + 1\n",
        ("tests/test_paradox.py::test_independent_glue_is_uniform_glue_reindexed",),
    ),
    Mutant(
        "independent-glue-drops-the-orbit-count-test",
        "src/confpara/paradox.py",
        "            if orbits.count is not None and r0 >= orbits.count:\n"
        "                return identity  # no such orbit: an empty flat piece\n",
        "",
        ("tests/test_paradox.py::test_independent_glue_is_uniform_glue_reindexed",),
    ),
    Mutant(
        "independent-glue-reads-an-unchecked-classifier",
        "src/confpara/paradox.py",
        "            i = fam.classify_checked(coset_of(x))\n",
        "            i = fam.classifier(coset_of(x))\n",
        ("tests/test_paradox.py::test_refinement_keeps_the_parent_classifier_contract",),
    ),
    Mutant(
        "conjugate-skips-its-final-check",
        "src/confpara/configurations.py",
        "    return all(tuple(phi[r[x]] for x in inverse) in targets for r in distinct1)\n",
        "    return True\n",
        ("tests/test_configurations.py::test_a_map_from_the_search_is_checked_on_every_row",),
    ),
)


def stale(mutants):
    """(mutant name, count) for every snippet that does not occur exactly
    once in its file."""
    out = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            out.append((m.name, count))
    return out


def pytest_on_a_copy(tests, mutant=None):
    """pytest's exit status on ``tests``, run against a copy of ``src/``
    with ``mutant`` applied (none: the copy is unchanged)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = Path(tmp) / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.snippet, mutant.replacement),
                              encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *tests],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def verdict(mutant):
    """'killed', 'SURVIVED' or 'ERROR (pytest exit status N)'."""
    status = pytest_on_a_copy(mutant.tests, mutant)
    if status == 1:
        return "killed"
    return "SURVIVED" if status == 0 else f"ERROR (pytest exit status {status})"


def main(argv):
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        raise SystemExit(f"unknown mutant(s): {', '.join(unknown)}")
    mutants = [by_name[name] for name in argv] if argv else list(MUTANTS)
    problems = stale(mutants)
    for name, count in problems:
        print(f"{name}: snippet occurs {count} times, not once")
    if problems:
        return 2
    tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
    status = pytest_on_a_copy(tests)
    if status != 0:  # a kill means nothing if the tests fail unmutated
        print(f"the named tests fail on an unmutated copy (pytest exit status {status})")
        return 1
    bad = 0
    for m in mutants:
        start = time.monotonic()
        result = verdict(m)
        bad += result != "killed"
        print(f"{m.name}: {result} ({time.monotonic() - start:.1f} s)", flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
