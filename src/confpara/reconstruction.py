"""Recovering a group from configuration data.

Enumerate a group with the identity first, g_1 = e.  The multiplication
index table stores pi(i, j) = k whenever g_i g_j = g_k with all three inside
the enumerated range.  The canonical configuration attached to index j of
an n-element enumeration is C_j = (j, pi(2, j), ..., pi(n, j)): on a finite
group these are exactly the configurations of the left translation action
partitioned into singletons.

Conversely, when a pair (h_1, ..., h_N) with an N-block partition of a group
H realizes exactly the canonical configuration set of a finite group G and
the h_j generate H, the blocks are forced to be the left cosets of a normal
subgroup F_1 (the block containing the identity, relabeled to index 1) and
j -> F_j is an isomorphism G -> H / F_1; without the generating condition
they need not be cosets.  ``recover_cosets`` reads the blocks off the
pair and ``verify_normal_and_iso`` certifies them from scratch.  Both test
membership in blocks rather than compare sets.  For n blocks the recovery
costs about n |H| multiplications and block lookups, and the certificate,
which multiplies one element per coset, O(|H| |F_1| + n**2)
multiplications; each docstring gives its cost.  A multiplication is a read
of H's Cayley table (``group.table``), with the row of a fixed left factor
read once, not a call of ``mul``.  Their outputs are those of the setwise
definitions.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .actions import LeftTranslation
from .configurations import (
    ConfigPair,
    Partition,
    _partition_count,
    windowed_configuration_set,
)
from .errors import InputError, PreconditionError, ResourceCapExceeded
from .groups import Window, _cosets, _normality_witness, _require_int, quotient_group


class MultiplicationIndexTable(NamedTuple):
    """Partial 1-based multiplication table over enumeration indices.

    ``entry(i, j)`` is the index of g_i g_j or None when the product falls
    outside the enumerated range; ``inverse(i)`` likewise for inverses."""

    bound: int
    rows: tuple  # rows[i-1][j-1] = k or None
    labels: tuple

    def entry(self, i, j):
        if not (1 <= i <= self.bound and 1 <= j <= self.bound):
            raise InputError(f"table indices ({i},{j}) out of range 1..{self.bound}")
        return self.rows[i - 1][j - 1]

    def inverse(self, i):
        if not self.bound:
            return None
        self.entry(i, 1)  # the range check of every read in row i
        row = self.rows[i - 1]
        return next((j for j in range(1, self.bound + 1) if row[j - 1] == 1), None)

    @property
    def total(self):
        return all(None not in row for row in self.rows)


_ENTRY_TYPES = frozenset({int, type(None)})


def _rows_in_range(table):
    """``table.rows`` when they are ``bound`` rows of ``bound`` entries, each
    None or an int in 1..bound, else None.  Such rows are read directly,
    with no range check per read; ``validate_table`` reads any other table
    through ``entry``, which raises its ``InputError`` at the first index out
    of range, and ``recover_cosets`` and ``verify_normal_and_iso`` refuse
    it."""
    n = table.bound
    rows = table.rows
    allowed = {None, *range(1, n + 1)}
    if len(rows) == n and all(
        len(row) == n
        and _ENTRY_TYPES.issuperset(map(type, row))
        and allowed.issuperset(row)
        for row in rows
    ):
        return rows
    return None


def multiplication_index_table(group, enumeration):
    """Build the index table of a 1-based enumeration starting at the identity."""
    enumeration = list(enumeration)
    if not enumeration:
        raise InputError("empty enumeration")
    if enumeration[0] != group.identity:
        raise InputError("enumeration must start at the identity (g_1 = e)")
    pos = {}
    for i, g in enumerate(enumeration, start=1):
        if g in pos:
            raise InputError(f"duplicate enumeration entry at positions {pos[g]} and {i}")
        pos[g] = i
    rows = tuple(
        tuple(pos.get(group.mul(a, b)) for b in enumeration) for a in enumeration
    )
    labels = tuple(group.format(g) for g in enumeration)
    return MultiplicationIndexTable(len(enumeration), rows, labels)


def table_from_canonical_enumeration(group, bound):
    """Index table over the group's own canonical enumeration."""
    return multiplication_index_table(group, group.prefix_window(bound).points)


def table_from_configurations(action, pair, configurations=None):
    """Read a candidate index table off a pair's configuration set, given as
    ``configurations`` when the caller has it, else computed on every point.

    When the set is a canonical family, configuration j has the shape
    (j, pi(1,j), ..., pi(N,j)); the rows can be read straight off once the
    first entries are seen to enumerate 1..N.  The result still has to pass
    ``validate_table`` and the full matching check in ``recover_cosets``."""
    n = len(pair.elements)
    configs = configurations
    if configs is None:
        window = Window("all", tuple(action.points()))
        configs = windowed_configuration_set(action, pair, window)
    if len(configs) != n:
        raise PreconditionError(
            f"expected {n} distinct configurations, found {len(configs)}"
        )
    by_first = {}
    for cfg in configs:
        if len(cfg) != n + 1:
            raise PreconditionError(
                f"configuration {cfg} has length {len(cfg)}, expected {n + 1}"
            )
        if cfg[0] in by_first:
            raise PreconditionError(
                f"two configurations share the base block {cfg[0]}"
            )
        by_first[cfg[0]] = cfg
    if sorted(by_first) != list(range(1, n + 1)):
        raise PreconditionError(
            "configuration base blocks do not enumerate every index"
        )
    rows = tuple(zip(*(by_first[j][1:] for j in range(1, n + 1))))
    labels = tuple(str(j) for j in range(1, n + 1))
    table = MultiplicationIndexTable(n, rows, labels)
    problems = validate_table(table)
    if problems:
        raise PreconditionError(
            f"inferred table is not a group table: {problems[0]}"
        )
    return table


def validate_table(table):
    """Structural checks: identity row/column and associativity wherever all
    entries involved are known.  Returns a list of violations (empty = ok).

    A total table with every entry in 1..n costs n**2 row compositions, each
    one tuple of n reads, and only an (i, j) whose composition differs is
    checked entry by entry.  Any other table costs up to 4 n**3 reads, through
    ``entry`` when some entry is out of range, so the first such read raises
    its ``InputError``."""
    out = []
    n = table.bound
    rows = _rows_in_range(table)
    if rows is None:
        entry = table.entry
    else:
        def entry(i, j):
            return rows[i - 1][j - 1]
    for j in range(1, n + 1):
        if entry(1, j) != j:
            out.append({"kind": "identity-row", "at": (1, j), "got": entry(1, j)})
        if entry(j, 1) != j:
            out.append({"kind": "identity-column", "at": (j, 1), "got": entry(j, 1)})
    if rows is not None and all(None not in row for row in rows):
        # with zero[i][k] = pi(i + 1, k + 1) - 1, (i j) k = i (j k) for every
        # k is one tuple comparison; only a pair that fails it is read again
        zero = tuple(tuple(v - 1 for v in row) for row in rows)
        pairs = [(i + 1, j + 1) for i, zi in enumerate(zero) for j, zj in enumerate(zero)
                 if tuple(map(zi.__getitem__, zj)) != zero[zi[j]]]
    else:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for i, j in pairs:
        ij = entry(i, j)
        if ij is None:
            continue
        for k in range(1, n + 1):
            jk = entry(j, k)
            if jk is None:
                continue
            left = entry(ij, k)
            right = entry(i, jk)
            if left is not None and right is not None and left != right:
                out.append({"kind": "associativity", "at": (i, j, k),
                            "left": left, "right": right})
    return out


def _full_canonical_set(table):
    """Configurations of the full-enumeration pair, identity included: the
    tuple at position i >= 1 corresponds to translator g_i, so the entry
    after the base index duplicates it (g_1 = e).  The table must be total;
    every index read lies in 1..bound."""
    rows = table.rows
    n = table.bound
    return frozenset(
        tuple([j] + [rows[i][j - 1] for i in range(n)]) for j in range(1, n + 1)
    )


class CosetFamily(NamedTuple):
    """Recovered coset structure: ``blocks[0]`` is the subgroup F_1."""

    blocks: tuple  # tuple of frozensets, 1-based indices shifted by one
    representatives: tuple  # h_j with F_j = h_j F_1
    relabeling: tuple  # relabeling[old - 1] = new index after normalization
    identity_block_before: int

    @property
    def subgroup(self):
        return self.blocks[0]


def recover_cosets(group, pair, table, configurations=None):
    """Recover the coset family from a pair realizing the canonical
    configuration set of the table's group.  ``configurations``, when given,
    is the pair's configuration set under left translation on the whole
    group, already computed by the caller.

    The pair's tuple must have one entry per enumeration index (its first
    entry plays the identity's role), and the table must be ``bound`` rows
    of ``bound`` entries in 1..bound.  The block containing the identity is
    relabeled to index 1 by the right-translation relabeling that fixes the
    canonical set.  The blocks are read, not checked: on a group table the
    match forces the coset law h_j F_l = F_pi(j,l) and leaves no block
    empty, yet only a generating tuple forces the cosets of a normal
    subgroup.  ``verify_normal_and_iso`` certifies the blocks and refutes
    any that are not such cosets, whatever the tuple or table.

    Cost, for |H| elements and a table bound n: the configuration set takes
    n + 1 block lookups per element, and the blocks one more.
    """
    if not group.is_finite:
        raise InputError("coset recovery runs on finite instances")
    if not table.total:
        raise InputError("coset recovery needs a total index table")
    n = table.bound
    if _rows_in_range(table) is None:
        raise InputError(f"a table of bound {n} needs {n} rows of {n} entries in 1..{n}")
    if len(pair.elements) != n:
        raise PreconditionError(
            f"tuple length {len(pair.elements)} must equal the table bound {n}"
        )

    expected = _full_canonical_set(table)
    if configurations is None:
        window = Window("all", group.elements())
        configurations = windowed_configuration_set(LeftTranslation(group), pair, window)
    got = frozenset(configurations)
    if got != expected:
        raise PreconditionError(
            "configuration set does not match the canonical family: "
            f"{len(got ^ expected)} configurations differ"
        )

    block_of = pair.partition.block_of
    ident_block = block_of(group.identity)
    if ident_block == 1:
        relabeling = tuple(range(1, n + 1))
    else:
        inv_pos = table.inverse(ident_block)
        if inv_pos is None:
            raise PreconditionError(
                f"index {ident_block} has no inverse in the table"
            )
        relabeling = tuple(row[inv_pos - 1] for row in table.rows)

    blocks = [set() for _ in range(n)]
    for x in group.elements():
        blocks[relabeling[block_of(x) - 1] - 1].add(x)
    blocks = tuple(map(frozenset, blocks))
    return CosetFamily(blocks, tuple(pair.elements), relabeling, ident_block)


class IsoReport(NamedTuple):
    ok: bool
    failures: tuple
    iso: tuple  # (enumeration label, 1-based block index) pairs
    subgroup_order: int
    coset_count: int


def _coset_representatives(group, blocks):
    """Elements a_k with F_k = a_k F_1, one per block in order, up to the
    first block that is no left coset of F_1 (an empty one included).  F_1
    must be a subgroup: then for a in H, a F_1 has |F_1| elements, and it is
    the coset holding a, so any one element of a block decides."""
    f1 = blocks[0]
    t = group.table
    members = frozenset(group.elements())
    reps = []
    for block in blocks:
        if len(block) != len(f1):
            break
        a = next(iter(block))
        if a not in members:
            break
        row = t[a]
        if not all(row[s] in block for s in f1):
            break
        reps.append(a)
    return reps


def verify_normal_and_iso(group, family, table):
    """Certify from scratch that F_1 is a normal subgroup, that blocks
    multiply like the table (F_k F_j = F_{pi(k,j)}), and that index -> block
    is a group isomorphism onto the coset group.  A table with an unknown
    entry is refused, as ``recover_cosets`` refuses it, and so is one that
    is not n rows of n entries in 1..n with n labels, for n blocks.  An F_1
    with a member outside H is one ``subgroup-in-group`` failure, with no
    witness (its members need not sort together), and its inverses and
    closure are not read.  Once F_1 has passed the subgroup and normality
    checks, the first block that is no left coset of F_1 is the one
    ``coset-block`` failure; otherwise the coset products are checked.

    Cost, for |H| elements, n blocks and s = |F_1|: s**2 multiplications for
    closure and up to 2 |H| s for normality, each checked by membership,
    since conjugation is injective.  With every block a left coset a_k F_1,
    F_k F_j is the coset of a_k a_j, so each coset product is one
    multiplication and one membership test: |H| multiplications to find the
    a_k, n**2 for the products.  Each multiplication is a read of H's Cayley
    table, made after ``group.elements()``, so an infinite group raises its
    ``UnsupportedOperationError``."""
    if not table.total:
        raise InputError("coset recovery needs a total index table")
    blocks = family.blocks
    f1 = blocks[0]
    n = len(blocks)
    rows = _rows_in_range(table)
    if rows is None or table.bound != n or len(table.labels) != n:
        raise InputError(f"{n} blocks need {n} rows of {n} entries in 1..{n} and {n} labels")
    elements = group.elements()  # an infinite group raises here
    t = group.table
    failures = []
    if group.identity not in f1:
        failures.append({"identity": "identity-in-subgroup"})
    if not f1.issubset(elements):
        failures.append({"identity": "subgroup-in-group"})
    else:
        for a in sorted(f1):
            if group.inv(a) not in f1:
                failures.append({"identity": "subgroup-inverse", "witness": group.format(a)})
                break
        if not all(all(row[b] in f1 for b in f1) for row in map(t.__getitem__, f1)):
            failures.append({"identity": "subgroup-closure"})
    x = _normality_witness(group, f1)
    if x is not None:
        failures.append({"identity": "normality", "witness": group.format(x)})
    if not failures:
        reps = _coset_representatives(group, blocks)
        if len(reps) < n:
            failures.append({"identity": "coset-block", "witness": len(reps) + 1})
        else:
            for k, (ak, row) in enumerate(zip(reps, rows), start=1):
                products = t[ak]
                for j, aj in enumerate(reps, start=1):
                    if products[aj] not in blocks[row[j - 1] - 1]:
                        failures.append({"identity": "coset-product", "witness": (k, j)})
    if group.order() != n * len(f1):
        failures.append({
            "identity": "coset-count",
            "witness": (group.order(), n, len(f1)),
        })
    iso = tuple((table.labels[j - 1], j) for j in range(1, n + 1))
    return IsoReport(not failures, tuple(failures), iso, len(f1), n)


class RefinementSearchReport(NamedTuple):
    subgroup_trivial: bool
    conclusion: str
    refined_block_count: Optional[int]
    available_points: Optional[int]
    pairs_searched: int
    matched: bool


def refined_partition_of(group, family):
    """Split F_1 into the identity singleton and its complement, keeping the
    other blocks; block indices shift up by one."""
    f1 = family.subgroup
    if len(f1) < 2:
        raise PreconditionError("refinement needs |F_1| > 1")
    e = group.identity
    blocks = [frozenset([e]), frozenset(f1 - {e})]
    blocks.extend(family.blocks[1:])
    return Partition.explicit(blocks)


def q_group_refinement_check(group, family, cap=200_000):
    """Splitting the identity off F_1 yields a configuration set that no pair
    over the recovered quotient can reproduce, and the count of the pairs
    that rules it out.

    The blocks of ``family`` must be the left cosets of F_1, as every family
    ``verify_normal_and_iso`` certifies is (``PreconditionError``
    otherwise).  With |F_1| > 1 the refined partition then has qn + 1
    nonempty blocks, where qn = |G/F_1|, and every one of them heads a
    configuration, since the base point ranges over all of G.  A
    pair over the quotient's left translation labels its qn points with at
    most qn blocks, so counting rules a match out.  The report gives
    ``pairs_searched`` = S(qn, <=qn) * qn**n in closed form, the number of
    pairs over the quotient (S(qn, <=qn) the partitions of qn points, n the
    tuple length), without enumerating any, and raises
    ``ResourceCapExceeded`` when that count exceeds ``cap``.

    Cost: the normality and subgroup checks of F_1 and one |F_1|-element
    coset per coset, all table reads; no quotient group is built, so no
    quotient table, labels or second table validation."""
    _require_int("cap", cap, 1)
    group.order()  # an infinite group raises here, whatever |F_1| is
    f1 = family.subgroup
    if len(f1) == 1:
        return RefinementSearchReport(
            subgroup_trivial=True,
            conclusion="subgroup trivial: the recovery is already an isomorphism",
            refined_block_count=None,
            available_points=None,
            pairs_searched=0,
            matched=False,
        )
    cosets, _ = _cosets(group, f1)
    if set(family.blocks) != set(cosets):
        raise PreconditionError("the family's blocks are not the cosets of F_1")
    qn = len(cosets)
    pairs = _partition_count(qn, qn, cap) * qn ** len(family.representatives)
    if pairs > cap:
        raise ResourceCapExceeded(
            f"refinement search exceeded the cap of {cap}", cap=cap
        )
    return RefinementSearchReport(
        subgroup_trivial=False,
        conclusion=(
            f"no quotient pair reproduces the refined configuration set "
            f"({qn + 1} blocks needed, {qn} points available)"
        ),
        refined_block_count=qn + 1,
        available_points=qn,
        pairs_searched=pairs,
        matched=False,
    )


def _quotient_index_table(quotient):
    """``multiplication_index_table(quotient, quotient.elements())`` read off
    the quotient's Cayley table: its elements are 0..n-1 with the identity
    at 0 (see quotient_group), so element k has index k + 1."""
    rows = tuple(tuple(map((1).__add__, row)) for row in quotient.table)
    return MultiplicationIndexTable(
        len(rows), rows, tuple(map(quotient.format, quotient.elements()))
    )


def quotient_recovery_roundtrip(group, normal):
    """Forward-then-back check used by the randomized suites: quotient by a
    normal subgroup, present the cosets as a pair, recover, and certify.

    Returns (family, report, quotient)."""
    quotient, cosets, reps = quotient_group(group, normal)
    table = _quotient_index_table(quotient)
    partition = Partition.explicit(cosets)
    pair = ConfigPair(reps, partition)
    family = recover_cosets(group, pair, table)
    report = verify_normal_and_iso(group, family, table)
    return family, report, quotient
