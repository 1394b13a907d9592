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
        "certificate-skips-the-membership-test",
        "src/confpara/reconstruction.py",
        "    if not f1.issubset(elements):\n",
        "    if False:\n",
        ("tests/test_reconstruction.py::test_certificate_refuses_an_f1_outside_the_group",),
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
    # the table shapes of recovery and certificate, the coset test, the
    # generating claim and the associativity of a table manifest
    Mutant(
        "recovery-takes-a-table-not-shaped-to-its-bound",
        "src/confpara/reconstruction.py",
        "    if _rows_in_range(table) is None:\n",
        "    if False:\n",
        ("tests/test_reconstruction.py::test_recover_refuses_a_table_not_shaped_to_its_bound",),
    ),
    Mutant(
        "certificate-takes-a-table-of-another-bound",
        "src/confpara/reconstruction.py",
        "    if rows is None or table.bound != n or len(table.labels) != n:\n",
        "    if rows is None or len(table.labels) != n:\n",
        ("tests/test_reconstruction.py::test_verify_refuses_a_table_not_shaped_to_the_blocks",),
    ),
    Mutant(
        "coset-representatives-skip-the-block-size",
        "src/confpara/reconstruction.py",
        "        if len(block) != len(f1):\n"
        "            break\n",
        "",
        ("tests/test_reconstruction.py::test_verify_names_the_first_block_that_is_no_coset",),
    ),
    Mutant(
        "coset-representatives-read-a-row-outside-the-group",
        "src/confpara/reconstruction.py",
        "        if a not in members:\n"
        "            break\n",
        "",
        ("tests/test_reconstruction.py::test_verify_names_the_first_block_that_is_no_coset",),
    ),
    Mutant(
        "pair-reader-skips-the-generating-claim",
        "src/confpara/cli.py",
        "        check_generating_assertion(action, pair)\n",
        "",
        ("tests/test_cli.py::test_every_command_refutes_a_false_generating_claim",),
    ),
    Mutant(
        "table-group-skips-associativity",
        "src/confpara/schemas.py",
        "                if t[ta[b]] != tuple(map(ta.__getitem__, tb)):\n",
        "                if False:\n",
        ("tests/test_cli.py::test_refused_input_exits_4_with_its_message",),
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
    # the cycle labels of a permutation group's elements
    Mutant(
        "cycle-label-counts-from-zero",
        "src/confpara/groups.py",
        'str(c + 1) for c in cyc',
        'str(c) for c in cyc',
        ("tests/test_groups.py::test_permutation_groups_label_elements_by_their_cycles",),
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
    Mutant(
        "first-letter-takes-include-and-exclude",
        "src/confpara/schemas.py",
        "            if include is not None:\n"
        "                _fail(\"a first-letter piece takes include or exclude, not both\",\n"
        "                      f\"{path}/exclude\")\n",
        "",
        ("tests/test_schemas.py::test_a_first_letter_piece_takes_include_or_exclude_not_both",
         "tests/test_cli.py::test_refused_input_exits_4_with_its_message"),
    ),
    # the even-integers witness: the subgroup's k stands for 2k
    Mutant(
        "even-witness-truncates-toward-zero",
        "src/confpara/paradox.py",
        "        decompose=lambda v: (v // 2, v % 2),\n",
        "        decompose=lambda v: (int(v / 2), v % 2),\n",
        ("tests/test_paradox.py::test_even_witness_factorization",),
    ),
    # the construction kind, the one field of a decomposition the CLI reports
    Mutant(
        "construction-kind-is-not-recorded",
        "src/confpara/paradox.py",
        "a[3], b[3], kind)\n",
        "a[3], b[3])\n",
        ("tests/test_cli.py::test_construct_singleton_inline_group",
         "tests/test_cli.py::test_construct_compress_takes_its_detection_bound"),
    ),
    # glue validation: a given window verifies the decomposition even when
    # no orbit's decoding is checked
    Mutant(
        "glue-verifies-only-inside-the-rep-loop",
        "src/confpara/paradox.py",
        "        if not verdict.verified:\n"
        "            raise PreconditionError(\n"
        "                f\"per-orbit decomposition refuted",
        "        if validate_reps and not verdict.verified:\n"
        "            raise PreconditionError(\n"
        "                f\"per-orbit decomposition refuted",
        ("tests/test_paradox.py::test_glue_refuses_refutable_per_orbit_input",),
    ),
    # the equivariance proof that lets the uniform glue carry claimants
    Mutant(
        "uniform-glue-ignores-the-proof",
        "src/confpara/paradox.py",
        "    carried = (proved_action is action and proved_coset_of is coset_of\n"
        "               and isinstance(dec.action, LeftTranslation))\n",
        "    carried = isinstance(dec.action, LeftTranslation)\n",
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
        "               and isinstance(dec.action, LeftTranslation))\n",
        "               )\n",
        ("tests/test_paradox.py::test_claimants_carry_over_left_translations_only",),
    ),
    Mutant(
        "product-orbits-proved-over-any-base",
        "src/confpara/paradox.py",
        "if isinstance(action.base, LeftTranslation) else None,\n",
        "if True else None,\n",
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
