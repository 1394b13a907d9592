"""Paradoxical decompositions and equidecomposability over countable piece
families, with a window-based verifier.

A decomposition of an action consists of two piece families (the a-side and
the b-side) that together partition the point set, one translator per piece,
and cover oracles naming, for every point, the piece whose translate holds
it.  Cover oracles are part of the witness because membership in a union of
countably many translated pieces is only semidecidable; with the oracle in
hand every reported refutation is a concrete point and equation, and a
"verified" verdict is always explicitly bounded by a window and an index
bound.

The two sides play the same part, so every construction is one per-side
rule, applied to each side in ``Decomposition.sides()``.

Piece indices, translator indices and enumeration positions are 1-based.
Flattened double indices use the Cantor pairing on 0-based components.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from .actions import LeftTranslation
from .codec import cantor_pair, cantor_unpair
from .errors import (
    InputError,
    MalformedOracleError,
    PreconditionError,
    UnsupportedOperationError,
)
from .groups import FreeAbelianGroup, FreeGroup, Group, _is_int, _require_int

# The inline index check's upper end for a countable family: a larger index
# goes to ``_checked_index``, which passes it.
_INLINE_TOP = sys.maxsize
_MISSING = object()  # a translator-inverse cache miss; no inverse is this object


def _checked_index(who, i, size):
    """``i`` when it is a piece index of a family with ``size`` pieces (None
    for countably many; see ``groups._is_int``); otherwise the
    ``MalformedOracleError`` naming ``who``, the oracle that returned it."""
    if not _is_int(i) or i < 1:
        raise MalformedOracleError(f"{who} returned bad index {i!r}")
    if size is not None and i > size:
        raise MalformedOracleError(
            f"{who} returned index {i} beyond the family size {size}"
        )
    return i


@dataclass
class PieceFamily:
    """Indexed family of disjoint sets, given by a classifier (point ->
    index, or None for points outside the family).  ``size`` is None for
    countably indexed families.

    ``claimants(x)``, when given, is the tuple of every piece index j whose
    translate t_j·(piece j) holds x, under the translators the family is
    paired with, no more and no fewer; the verifier then reads cover
    uniqueness off it instead of probing every index, and refuses an answer
    that is not a tuple or an entry that is not a piece index.  It is tied
    to the classifier and the translators: a family built with either
    changed must drop it (``claimants=None``) or supply a new one."""

    classifier: Callable[[Any], Optional[int]]
    size: Optional[int] = None
    claimants: Optional[Callable[[Any], tuple]] = None

    def classify_checked(self, x):
        i = self.classifier(x)
        # the common case without a call; anything else, bools included,
        # goes through _checked_index.  The verifiers and _cover_failure
        # write this test inline where they read an answer
        if i is None or type(i) is int and 0 < i and (self.size is None or i <= self.size):
            return i
        return _checked_index("classifier", i, self.size)


@dataclass
class Decomposition:
    """Two sides, each a piece family with its translators, its cover oracle
    and optionally a declared finite translator range.  Constructions read
    both sides through ``sides()`` and apply one per-side rule to each."""

    action: Any
    a_pieces: PieceFamily
    b_pieces: PieceFamily
    a_translator: Callable[[int], Any]
    b_translator: Callable[[int], Any]
    a_cover: Callable[[Any], int]
    b_cover: Callable[[Any], int]
    a_translator_range: Optional[tuple] = None  # declared finite range
    b_translator_range: Optional[tuple] = None
    meta: dict = field(default_factory=dict)

    def sides(self):
        """(name, pieces, translator, cover, translator range) of each side."""
        return (
            ("a", self.a_pieces, self.a_translator, self.a_cover, self.a_translator_range),
            ("b", self.b_pieces, self.b_translator, self.b_cover, self.b_translator_range),
        )


def _from_sides(action, a, b, kind, **construction):
    """The decomposition whose sides ``a`` and ``b`` are each (pieces,
    translator, cover, translator range), built by construction ``kind``."""
    return Decomposition(
        action, a[0], b[0], a[1], b[1], a[2], b[2], a[3], b[3],
        meta={"construction": {"kind": kind, **construction}},
    )


class RefutationWitness(NamedTuple):
    point: Any
    equation: str
    detail: tuple  # sorted (key, value) pairs, kept hashable


class Verdict(NamedTuple):
    status: str  # "verified-up-to" or "refuted"
    window_label: str
    index_bound: int
    points_checked: int
    witness: Optional[RefutationWitness]

    @property
    def verified(self):
        return self.status == "verified-up-to"


def _refuted(window, bound, checked, point, equation, **detail):
    return Verdict(
        "refuted",
        window.label,
        bound,
        checked,
        RefutationWitness(point, equation, tuple(sorted(detail.items()))),
    )


def _cover_failure(action, side, fam, translator, inverses, index_bound):
    """Cover uniqueness of one side for one verifier call: (x, i, named) ->
    the smallest piece index other than i, up to the index bound (and the
    family size), whose translate holds x, or None.  Here i is the cover's
    index at x, whose translate holds x, and ``named`` the claimants of x.

    The verifier calls it only where ``named == (i,)`` does not settle
    uniqueness: a family without claimants is probed index by index, and
    one whose claimants differ from (i,) is checked at the smallest claimant
    other than i, rechecked against the classifier.  ``inverses`` is the
    verifier's cache of this side's translator inverses."""
    act, inv = action.act, action.group.inv
    size, classify, claimants = fam.size, fam.classifier, fam.claimants
    top = _INLINE_TOP if size is None else size
    claimants_name = f"{side}-claimants"
    limit = index_bound if size is None else min(index_bound, size)

    # Every classifier answer of the index scan, and every claimant entry,
    # is checked against the index contract where it is read: a plain int in
    # 1..top (or None, for an answer) passes inline, and anything else goes
    # to ``_checked_index``, which raises (or passes an index of a countable
    # family above ``_INLINE_TOP``).  The translator inverses are cached
    # with ``dict.get``, so a miss raises nothing.

    def other_holder(x, i, named):
        if claimants is None:
            for j in range(1, limit + 1):
                if j == i:
                    continue
                t = inverses.get(j, _MISSING)
                if t is _MISSING:
                    t = inverses[j] = inv(translator(j))
                c = classify(act(t, x))
                if c is not None and not (type(c) is int and 0 < c <= top):
                    c = _checked_index("classifier", c, size)
                if c == j:
                    return j
            return None
        if not isinstance(named, tuple):
            raise MalformedOracleError(
                f"{claimants_name} returned {named!r} for {x!r}, not a tuple")
        for j in named:
            if not (type(j) is int and 0 < j <= top):
                _checked_index(claimants_name, j, size)
        if i in named:
            other = min((j for j in named if j != i and j <= limit), default=None)
            if other is None:
                return None
            t = inverses.get(other, _MISSING)
            if t is _MISSING:
                t = inverses[other] = inv(translator(other))
            if fam.classify_checked(act(t, x)) == other:
                return other
        raise MalformedOracleError(
            f"{claimants_name} {tuple(named)!r} of {x!r} disagree with "
            f"the classifier (cover piece {i})"
        )

    return other_holder


def verify_paradoxical(dec, window, index_bound):
    """Check, on every window point, that the two families partition the
    point set and that each point lies in exactly one translated a-piece and
    exactly one translated b-piece (uniqueness among indices up to
    ``index_bound``).  First failure in canonical window order wins; at a
    point the checks run partition, a-membership, a-uniqueness,
    b-membership, b-uniqueness.

    Cost: O(window) classifier calls when both families name their
    claimants (singletons and their lifts, the free group's four pieces,
    singleton refinements and the uniform glue of any of these over a
    decoding proved equivariant: four per point until a failure; a
    refinement's claimants add one rank lookup per parent piece), else
    O(window x index_bound).  The partition check, each side's membership
    probe and its claimants test ``named == (i,)`` are written out in the
    point loop, with the translator inverses cached, so a point costs its
    oracle calls and no other call; only the index scan and a recheck of
    other claimants go to ``_cover_failure``.

    The classifiers are called directly, and each answer, cover index and
    claimant entry is checked against the index contract where it is read:
    None (for an answer) or a plain int in 1..size passes inline; anything
    else goes to ``_checked_index``, so a malformed answer raises the same
    ``MalformedOracleError`` as ``PieceFamily.classify_checked``."""
    _require_int("index bound", index_bound, 1)
    act, inv = dec.action.act, dec.action.group.inv
    fam_a, fam_b = dec.a_pieces, dec.b_pieces
    classify_a, size_a, claimants_a = fam_a.classifier, fam_a.size, fam_a.claimants
    classify_b, size_b, claimants_b = fam_b.classifier, fam_b.size, fam_b.claimants
    cover_a, cover_b = dec.a_cover, dec.b_cover
    top_a = _INLINE_TOP if size_a is None else size_a
    top_b = _INLINE_TOP if size_b is None else size_b
    inverses_a, inverses_b = {}, {}
    other_a = _cover_failure(dec.action, "a", fam_a, dec.a_translator, inverses_a, index_bound)
    other_b = _cover_failure(dec.action, "b", fam_b, dec.b_translator, inverses_b, index_bound)
    checked = 0
    for x in window.points:
        checked += 1
        ia = classify_a(x)
        if ia is not None and not (type(ia) is int and 0 < ia <= top_a):
            ia = _checked_index("classifier", ia, size_a)
        ib = classify_b(x)
        if ib is not None and not (type(ib) is int and 0 < ib <= top_b):
            ib = _checked_index("classifier", ib, size_b)
        if (ia is None) == (ib is None):
            return _refuted(
                window, index_bound, checked, x, "combined-partition",
                a_piece=ia, b_piece=ib,
            )
        i = cover_a(x)
        if not (type(i) is int and 0 < i <= top_a):
            i = _checked_index("a-cover", i, size_a)
        t = inverses_a.get(i, _MISSING)
        if t is _MISSING:
            t = inverses_a[i] = inv(dec.a_translator(i))
        c = classify_a(act(t, x))
        if c is not None and not (type(c) is int and 0 < c <= top_a):
            c = _checked_index("classifier", c, size_a)
        if c != i:
            return _refuted(window, index_bound, checked, x, "a-cover-membership", index=i)
        named = None if claimants_a is None else claimants_a(x)
        if named != (i,) or type(named[0]) is not int:
            other = other_a(x, i, named)
            if other is not None:
                return _refuted(window, index_bound, checked, x, "a-cover-uniqueness",
                                index=i, other=other)
        i = cover_b(x)
        if not (type(i) is int and 0 < i <= top_b):
            i = _checked_index("b-cover", i, size_b)
        t = inverses_b.get(i, _MISSING)
        if t is _MISSING:
            t = inverses_b[i] = inv(dec.b_translator(i))
        c = classify_b(act(t, x))
        if c is not None and not (type(c) is int and 0 < c <= top_b):
            c = _checked_index("classifier", c, size_b)
        if c != i:
            return _refuted(window, index_bound, checked, x, "b-cover-membership", index=i)
        named = None if claimants_b is None else claimants_b(x)
        if named != (i,) or type(named[0]) is not int:
            other = other_b(x, i, named)
            if other is not None:
                return _refuted(window, index_bound, checked, x, "b-cover-uniqueness",
                                index=i, other=other)
    return Verdict("verified-up-to", window.label, index_bound, checked, None)


class EquidecompositionWitness(NamedTuple):
    """Pieces partitioning the source set, one translator per piece moving it
    into the target set, and a cover oracle naming each target point's piece."""

    pieces: PieceFamily
    translator: Callable[[int], Any]
    cover: Callable[[Any], int]


def verify_equidecomposable(source, target, witness, action, window, index_bound):
    """Check on the window that the witness pieces tile ``source`` and their
    translates tile ``target`` (membership predicates, not point lists);
    the target cover is checked as ``verify_paradoxical`` checks a side's."""
    _require_int("index bound", index_bound, 1)
    act, inv = action.act, action.group.inv
    fam, translator, cover = witness.pieces, witness.translator, witness.cover
    classify, size, claimants = fam.classifier, fam.size, fam.claimants
    top = _INLINE_TOP if size is None else size
    inverses = {}
    other_holder = _cover_failure(action, "target", fam, translator, inverses, index_bound)
    checked = 0
    for x in window.points:
        checked += 1
        i = fam.classify_checked(x)
        if i is None:
            if source(x):
                return _refuted(window, index_bound, checked, x, "source-coverage")
        else:
            if not source(x):
                return _refuted(
                    window, index_bound, checked, x, "piece-inside-source", index=i
                )
            if not target(act(translator(i), x)):
                return _refuted(
                    window, index_bound, checked, x, "translated-inside-target", index=i
                )
        if target(x):
            i = cover(x)
            if not (type(i) is int and 0 < i <= top):
                i = _checked_index("target-cover", i, size)
            t = inverses.get(i, _MISSING)
            if t is _MISSING:
                t = inverses[i] = inv(translator(i))
            c = classify(act(t, x))
            if c is not None and not (type(c) is int and 0 < c <= top):
                c = _checked_index("classifier", c, size)
            if c != i:
                return _refuted(window, index_bound, checked, x, "target-cover-membership",
                                index=i)
            named = None if claimants is None else claimants(x)
            if named != (i,) or type(named[0]) is not int:
                other = other_holder(x, i, named)
                if other is not None:
                    return _refuted(window, index_bound, checked, x,
                                    "target-cover-uniqueness", index=i, other=other)
    return Verdict("verified-up-to", window.label, index_bound, checked, None)


# ---------------------------------------------------------------------------
# constructions


def _require_infinite(group):
    if group.is_finite:
        raise PreconditionError(
            "finite groups admit no countable paradoxical decomposition "
            "(the two sides would double the count of a finite set)"
        )


def singleton_decomposition(group):
    """Four-line paradox of any countably enumerated infinite group: the
    singletons of even-position elements, each translated onto the full
    enumeration, against the odd-position singletons doing the same."""
    _require_infinite(group)
    pos = group.position_of
    at = group.element_at
    mul = group.mul
    inv = group.inv

    def side(odd):
        """Piece i is {at(2i - odd)}, moved onto {at(i)}."""

        def classifier(x):
            p = pos(x)
            return (p + odd) // 2 if p % 2 == odd else None

        def translator(i):
            return mul(at(i), inv(at(2 * i - odd)))

        # every translate is the singleton {at(i)}
        return PieceFamily(classifier, claimants=lambda x: (pos(x),)), translator, pos, None

    return _from_sides(LeftTranslation(group), side(0), side(1), "singleton")


class _FirstLetter:
    """Reduced words starting with ``letter``; optionally adjoin or remove
    the non-positive powers e, a^-1, a^-2, ... of the first generator (when
    both are asked for, adjoining wins).  The explicit manifest's
    first-letter pieces are these.

    Slots, not a NamedTuple: ``member`` is a per-point classifier, and on
    CPython 3.11 a slot read is specialized where a NamedTuple field read is
    not; ``member`` took about 50 ns a call with slots and 80 ns as a
    NamedTuple (2-core Xeon)."""

    __slots__ = ("letter", "include_neg_powers", "exclude_neg_powers")

    def __init__(self, letter, include_neg_powers=False, exclude_neg_powers=False):
        self.letter = letter
        self.include_neg_powers = include_neg_powers
        self.exclude_neg_powers = exclude_neg_powers

    def member(self, w):
        if w and w[0] == self.letter:
            return (not self.exclude_neg_powers or self.include_neg_powers
                    or w.count(-1) != len(w))
        return self.include_neg_powers and w.count(-1) == len(w)  # e too


class _F2Side:
    """One side of the F2 paradox: piece 1 is the words starting with
    ``letter``, piece 2 those starting with its inverse, and with ``absorb``
    e and the powers of the inverse of ``letter`` move from piece 2 (or from
    no piece, for e) into piece 1.

    A class, so that the rule is written once and a side is its two slots.
    The verifier calls each side's oracles from that side's own call sites,
    so per-side closures would cost no more; the class is kept for the one
    definition both sides share.  ``cover`` and
    ``claimants`` read the first letter themselves rather than call
    ``classifier``: piece 1 is where the classifier says 1, and everything
    else, the words outside both pieces included, goes to piece 2.  The
    saved call is about 4% of a ``paradox-windows`` pass (Python 3.11 on a
    2-core Xeon); the rule is written three times, so a change to a piece
    changes all three, and a test checks that they agree."""

    __slots__ = ("letter", "absorb")

    def __init__(self, letter, absorb=False):
        self.letter, self.absorb = letter, absorb

    def classifier(self, w):
        """1, 2 or None (outside both pieces), reading the first letter once."""
        if not w:
            return 1 if self.absorb else None
        first = w[0]
        if first == self.letter:
            return 1
        if first != -self.letter:
            return None
        return 1 if self.absorb and w.count(first) == len(w) else 2

    def cover(self, w):
        if not w:
            return 1 if self.absorb else 2
        first = w[0]
        if first == self.letter or (self.absorb and first == -self.letter
                                    and w.count(first) == len(w)):
            return 1
        return 2

    def claimants(self, w):
        if not w:
            return (1,) if self.absorb else (2,)
        first = w[0]
        if first == self.letter or (self.absorb and first == -self.letter
                                    and w.count(first) == len(w)):
            return (1,)
        return (2,)


def f2_standard_decomposition(group):
    """The four-piece paradox of the free group on two generators, with the
    non-positive powers of the first generator absorbed into its piece.

    Each side's claimants are exact: a·A2 (a times the words starting with
    a^-1 other than its powers) is every word not starting with a other than
    the non-positive powers of a, the complement of A1; and b·B2 is every
    word not starting with b, the complement of B1.  So x lies in the
    translate of piece 1 if it is in A1 (B1), else in that of piece 2 alone."""
    if not isinstance(group, FreeGroup) or group.rank != 2:
        raise PreconditionError("the standard four-piece paradox lives on free(2)")

    def side(generator, oracle):
        """Piece 1 kept in place, piece 2 moved by the generator."""
        translators = (group.identity, generator)
        return (
            PieceFamily(oracle.classifier, size=2, claimants=oracle.claimants),
            lambda i: translators[i - 1],
            oracle.cover,
            translators,
        )

    return _from_sides(
        LeftTranslation(group),
        side(group.generator(1), _F2Side(1, absorb=True)),
        side(group.generator(2), _F2Side(2)),
        "free2-standard",
    )


class SubgroupWitness(NamedTuple):
    """A countable subgroup H of G with a right transversal: every x in G
    factors uniquely as x = h t, delivered by ``decompose`` with h in H's
    own element representation; ``from_subgroup`` carries h back into G."""

    subgroup: Group
    from_subgroup: Callable[[Any], Any]
    decompose: Callable[[Any], tuple]
    label: str = "subgroup"


def even_integers_witness(group):
    """2Z inside Z with transversal {0, 1}."""
    from .groups import even_integers_enumerated
    from . import codec

    if not (isinstance(group, FreeAbelianGroup) and group.rank == 1):
        raise PreconditionError("the even-integers witness embeds into Z")
    h = even_integers_enumerated()

    def from_subgroup(i):
        return 2 * codec.zigzag_value(i)

    return SubgroupWitness(
        subgroup=h,
        from_subgroup=from_subgroup,
        decompose=lambda v: (codec.zigzag_position(v // 2), v % 2),
        label="even-integers",
    )


def generator_power_witness(group):
    """The cyclic subgroup generated by the first generator of a free group,
    with the words not starting by that generator as transversal."""
    if not isinstance(group, FreeGroup):
        raise PreconditionError("the generator-power witness lives on free groups")
    h = FreeAbelianGroup(1)

    def from_subgroup(k):
        return (1,) * k if k >= 0 else (-1,) * (-k)

    def decompose(w):
        run = 0
        while run < len(w) and abs(w[run]) == 1:
            run += 1
        k = sum(1 if v > 0 else -1 for v in w[:run])
        return k, w[run:]

    return SubgroupWitness(
        subgroup=h,
        from_subgroup=from_subgroup,
        decompose=decompose,
        label="first-generator-powers",
    )


def identity_witness(group):
    """The whole group as its own subgroup with the trivial transversal."""
    return SubgroupWitness(
        subgroup=group,
        from_subgroup=lambda x: x,
        decompose=lambda x: (x, group.identity),
        label="whole-group",
    )


def lift_via_transversal(group, witness, dec_of_h):
    """Carry a paradoxical decomposition of a subgroup H to all of G: each
    piece A becomes {a t : a in A, t in the transversal}, decoded through the
    unique factorization, with the same translators pushed into G.  The
    translators lie in H, so the claimants of h t are those of h."""
    decomp = witness.decompose

    def side(_name, fam, translator, cover, _range):
        claimants = None if fam.claimants is None else (
            lambda x: fam.claimants(decomp(x)[0])
        )
        family = PieceFamily(lambda x: fam.classifier(decomp(x)[0]), size=fam.size,
                             claimants=claimants)
        return (family, lambda i: witness.from_subgroup(translator(i)),
                lambda x: cover(decomp(x)[0]), None)

    a, b = (side(*s) for s in dec_of_h.sides())
    return _from_sides(LeftTranslation(group), a, b, "lift", subgroup=witness.label,
                       inner=dec_of_h.meta.get("construction"))


def countable_paradox_of_infinite(group, witness=None):
    """Every infinite group is countably paradoxical: directly through its
    own enumeration when it has one, else through a supplied countable
    subgroup witness."""
    if group.is_finite:
        raise PreconditionError(
            "finite groups are not countably paradoxical; no witness can exist"
        )
    if witness is None:
        return singleton_decomposition(group)
    return lift_via_transversal(
        group, witness, singleton_decomposition(witness.subgroup)
    )


# ---------------------------------------------------------------------------
# translator compression


class CompressionResult(NamedTuple):
    status: str  # "compressed" or "not-compressible-within-bound"
    decomposition: Optional[Decomposition]
    a_range: Optional[tuple]
    b_range: Optional[tuple]
    bound: int
    detection: str


def _detect_range(translator, size, declared, bound):
    """First-appearance tuple of translator values, or None when the scan
    cannot conclude the range is finite (a fresh value shows up in the last
    quarter of the scan)."""
    if declared is not None:
        return tuple(dict.fromkeys(declared)), "declared"
    if size is not None:
        return tuple(dict.fromkeys(map(translator, range(1, size + 1)))), "finite-family"
    first_seen = {}
    for i in range(1, bound + 1):
        first_seen.setdefault(translator(i), i)
    if max(first_seen.values()) > bound - bound // 4:
        return None, "scan"
    return tuple(first_seen), "scan"


def compress_translators(dec, index_bound=200):
    """Merge pieces sharing a translator.  Needs both translator maps to
    have finite range, declared or detected by scanning up to the bound;
    otherwise reports not-compressible-within-bound."""
    _require_int("detection bound", index_bound, 4)
    ranges, hows = zip(*(
        _detect_range(translator, fam.size, declared, index_bound)
        for _name, fam, translator, _cover, declared in dec.sides()
    ))
    if None in ranges:
        return CompressionResult("not-compressible-within-bound", None,
                                 *(values or None for values in ranges), index_bound, "scan")

    def side(name, fam, translator, cover, _declared, values):
        """Piece j merges the pieces whose translator is values[j - 1]; the
        inner classifier and cover are read through the inner contract."""
        index_of = {v: j for j, v in enumerate(values, start=1)}
        cover_name = f"{name}-cover"

        def merged_index(i):
            j = index_of.get(translator(i))
            if j is None:
                raise MalformedOracleError(
                    "translator value outside the detected range; "
                    "raise the detection bound"
                )
            return j

        def classifier(x):
            i = fam.classify_checked(x)
            return None if i is None else merged_index(i)

        def compressed_cover(x):
            return merged_index(_checked_index(cover_name, cover(x), fam.size))

        return (
            PieceFamily(classifier, size=len(values)),
            lambda j: values[j - 1],
            compressed_cover,
            values,
        )

    a, b = (side(*s, values) for s, values in zip(dec.sides(), ranges))
    merged = _from_sides(dec.action, a, b, "compress", inner=dec.meta.get("construction"))
    detection = hows[0] if hows[0] == hows[1] else "/".join(hows)
    return CompressionResult("compressed", merged, *ranges, index_bound, detection)


# ---------------------------------------------------------------------------
# singleton refinement (splitting every piece along the enumeration)


def _piece_ranks(group, classifier):
    """x -> (piece, 1-based rank of x inside its piece), or None for a point
    outside every piece, by a progressive scan of the group enumeration.
    ``classifier`` is the checked one, so a malformed parent index raises
    here rather than mislabel a point."""
    known, counts = {}, {}
    walk = group.walk()
    upto = 0

    def rank(x):
        nonlocal upto
        pos = group.position_of(x)
        while upto < pos:
            upto += 1
            y = next(walk)
            p = classifier(y)
            if p is not None:
                counts[p] = k = counts.get(p, 0) + 1
                known[y] = (p, k)
        return known.get(x)

    return rank


def refine_to_singletons(dec):
    """Split every piece of a finite-piece decomposition into the singletons
    of its members in enumeration order; piece (p, k) flattens to the index
    cantor_pair(p-1, k-1) + 1 and keeps piece p's translator.

    The translate of piece (p, k) is {t_p·y} for y the k-th member of p, so
    the claimants of x are exact for any parent: the pairs (p, k) with
    t_p^-1·x ranked k-th in p, one lookup in the rank scan per parent piece.
    The empty pieces (p > size) never claim."""
    group = dec.action.group
    _require_infinite(group)
    if not isinstance(dec.action, LeftTranslation):
        raise PreconditionError(
            "singleton refinement scans the group enumeration; restrict to an "
            "orbit presented over the group first"
        )
    if any(fam.size is None for _name, fam, *_ in dec.sides()):
        raise UnsupportedOperationError("singleton refinement expects finite piece families")

    act, inv = dec.action.act, group.inv

    def side(name, fam, translator, cover, _range):
        cover_name, size = f"{name}-cover", fam.size
        rank = _piece_ranks(group, fam.classify_checked)
        values = [translator(p) for p in range(1, size + 1)]
        inverses = [inv(t) for t in values]

        def classifier(x):
            got = rank(x)
            if got is None:
                return None
            p, k = got
            return cantor_pair(p - 1, k - 1) + 1

        def refined_translator(i):
            p0, _k0 = cantor_unpair(i - 1)
            if p0 + 1 > size:
                return group.identity  # empty refined piece; never matched
            return translator(p0 + 1)

        def refined_cover(x):
            p = _checked_index(cover_name, cover(x), size)
            y = act(inv(translator(p)), x)
            got = rank(y)
            k = got[1] if got is not None and got[0] == p else 1
            return cantor_pair(p - 1, k - 1) + 1

        def claimants(x):
            named = []
            for p, t_inv in enumerate(inverses, start=1):
                got = rank(act(t_inv, x))
                if got is not None and got[0] == p:
                    named.append(cantor_pair(p - 1, got[1] - 1) + 1)
            return tuple(named)

        return (
            PieceFamily(classifier, claimants=claimants),
            refined_translator,
            refined_cover,
            # identity backs the empty refined pieces
            tuple(dict.fromkeys([*values, group.identity])),
        )

    a, b = (side(*s) for s in dec.sides())
    return _from_sides(dec.action, a, b, "refine-singletons",
                       inner=dec.meta.get("construction"))


# ---------------------------------------------------------------------------
# orbit gluing


@dataclass
class OrbitStructure:
    """Decodes points of an action into (orbit representative, group element)
    under the trivial-stabilizer identification of each orbit with the group.

    ``equivariant_for``, when set, is the (action, coset_of) pair for which
    coset_of(act(g, x)) = g·coset_of(x) holds by construction.  Only the
    two orbit-structure functions below set it; a consumer trusts it only
    while both are the ones it holds, so a hand-built structure or one with
    a replaced decoding carries no proof."""

    rep_of: Callable[[Any], Any]
    coset_of: Callable[[Any], Any]
    point_of: Callable[[Any, Any], Any]
    rep_index: Callable[[Any], int]  # 1-based position among representatives
    rep_at: Optional[Callable[[int], Any]] = None
    count: Optional[int] = None  # number of orbits; None means countably many
    equivariant_for: Optional[tuple] = None


def product_orbit_structure(action):
    """Orbits of a product action over a left-translation base: orbit i is
    base x {i}, represented by (identity, i).  The decoding x -> x[0] is
    equivariant, and proved so, when the base is a left translation."""
    group = action.group
    e = group.identity
    orbits = OrbitStructure(
        rep_of=lambda x: (e, x[1]),
        coset_of=lambda x: x[0],
        point_of=lambda rep, g: (g, rep[1]),
        rep_index=lambda rep: rep[1] + 1,
        rep_at=lambda pos: (e, pos - 1),
        count=action.index_count,
    )
    if isinstance(action.base, LeftTranslation):
        orbits.equivariant_for = (action, orbits.coset_of)
    return orbits


def transitive_orbit_structure(action):
    """The single orbit of a left translation action: the group itself,
    with the identity decoding, which is equivariant."""
    e = action.group.identity
    orbits = OrbitStructure(
        rep_of=lambda x: e,
        coset_of=lambda x: x,
        point_of=lambda rep, g: g,
        rep_index=lambda rep: 1,
        rep_at=lambda pos: e,
        count=1,
    )
    if isinstance(action, LeftTranslation):
        orbits.equivariant_for = (action, orbits.coset_of)
    return orbits


def _validate_orbit_equivariance(action, orbits, rep, window, probes=3):
    """The window ranges over group elements; each is planted on the orbit of
    ``rep`` and the decoding maps are checked to commute with the action."""
    group = action.group
    if group.is_finite:
        sample_g = list(group.elements())[:probes]
    else:
        sample_g = group.prefix_window(probes).points
    for c in list(window.points)[: 2 * probes]:
        x = orbits.point_of(rep, c)
        if orbits.rep_of(x) != rep:
            raise PreconditionError(
                f"orbit decoding does not return the representative at {x!r}"
            )
        if orbits.coset_of(x) != c:
            raise PreconditionError(f"orbit decoding does not invert at {x!r}")
        for g in sample_g:
            left = orbits.point_of(rep, group.mul(g, c))
            right = action.act(g, x)
            if left != right:
                raise PreconditionError(
                    f"orbit map not translation-invariant at {x!r} under {group.format(g)}"
                )


def glue_orbit_decompositions(action, orbits, per_orbit, mode="uniform",
                              validate_window=None, validate_reps=2,
                              validate_index_bound=40):
    """Assemble a paradoxical decomposition of the group (``per_orbit(rep)``,
    presented over the group by left translation) into one decomposition of
    the whole free action.

    Both modes ask for one decomposition, ``per_orbit(rep_at(1))``, and carry
    it along the orbits through the representatives (Tomkowicz & Wagon, *The
    Banach-Tarski Paradox*, 2nd ed., 2016, ch. 1), so every orbit uses the
    same translators by construction.  A caller whose ``per_orbit`` answers
    differently for other representatives gets the first answer everywhere.

    ``uniform`` mode keeps the inner indices: x lies in piece
    inner(coset_of(x)), covered by cover(coset_of(x)), under the inner
    translators.  When the decoding is proved equivariant (``equivariant_for``
    names this action and decoding) and the inner action is a left
    translation, the inner claimants carry over too: j claims x iff
    inner(coset_of(t_j^-1·x)) = inner(t_j^-1·coset_of(x)) = j iff j is an
    inner claimant of coset_of(x).  Otherwise the glued families name none
    and the verifier scans.

    ``independent`` mode re-indexes the same decomposition: flat piece
    cantor_pair(i - 1, r - 1) + 1 is inner piece i on the r-th orbit, with
    inner translator i; it is empty, translated by the identity, when i
    exceeds a finite family or r the orbit count.  The inner classifier and
    cover are read through their contract (a malformed index raises), and the
    flat families name no claimants.

    When a validation window is supplied, the decomposition is verified on
    ``validate_window(rep_at(1))``, so a hopeless candidate (a fixed point's
    one-element orbit, say) is refused here, and the decoding is checked to
    commute with the action on each of the first ``validate_reps`` orbits
    that exist."""
    if mode not in ("uniform", "independent"):
        raise InputError(f"unknown glue mode {mode!r}")
    if orbits.rep_at is None:
        raise InputError("glue needs rep_at on the orbit structure")
    _require_int("validate reps", validate_reps, 0)
    dec = per_orbit(orbits.rep_at(1))
    if validate_window is not None:
        last = validate_reps if orbits.count is None else min(validate_reps, orbits.count)
        for pos in range(1, last + 1):
            rep = orbits.rep_at(pos)
            w = validate_window(rep)
            if pos == 1:
                verdict = verify_paradoxical(dec, w, validate_index_bound)
                if not verdict.verified:
                    raise PreconditionError(
                        f"per-orbit decomposition refuted at representative {rep!r}: "
                        f"{verdict.witness.equation} at {verdict.witness.point!r}; "
                        "the orbit is not countably paradoxical"
                    )
            _validate_orbit_equivariance(action, orbits, rep, w)

    coset_of = orbits.coset_of
    if mode == "uniform":
        proved_action, proved_coset_of = orbits.equivariant_for or (None, None)
        carried = (proved_action is action and proved_coset_of is coset_of
                   and isinstance(dec.action, LeftTranslation))

        def uniform_side(_name, fam, translator, cover, translator_range):
            inner, named = fam.classifier, fam.claimants
            claimants = None if named is None or not carried else (
                lambda x: named(coset_of(x))
            )
            family = PieceFamily(lambda x: inner(coset_of(x)), size=fam.size,
                                 claimants=claimants)
            return family, translator, lambda x: cover(coset_of(x)), translator_range

        a, b = (uniform_side(*s) for s in dec.sides())
        return _from_sides(action, a, b, "glue", mode="uniform")

    identity = action.group.identity

    def independent_side(name, fam, translator, cover, _range):
        cover_name, size = f"{name}-cover", fam.size

        def classifier(x):
            i = fam.classify_checked(coset_of(x))
            if i is None:
                return None
            return cantor_pair(i - 1, orbits.rep_index(orbits.rep_of(x)) - 1) + 1

        def flat_translator(j):
            i0, r0 = cantor_unpair(j - 1)
            if orbits.count is not None and r0 >= orbits.count:
                return identity  # no such orbit: an empty flat piece
            if size is not None and i0 >= size:
                return identity  # empty flat piece; never matched
            return translator(i0 + 1)

        def flat_cover(x):
            i = _checked_index(cover_name, cover(coset_of(x)), size)
            return cantor_pair(i - 1, orbits.rep_index(orbits.rep_of(x)) - 1) + 1

        return PieceFamily(classifier), flat_translator, flat_cover, None

    a, b = (independent_side(*s) for s in dec.sides())
    return _from_sides(action, a, b, "glue", mode="independent", pairing="cantor")


def restrict_to_orbit(dec, x, orbits):
    """Pull a decomposition of the whole action back to the orbit of ``x``,
    presented over the group via the trivial-stabilizer identification."""
    rep = orbits.rep_of(x)

    def pull(fn):
        return lambda g: fn(orbits.point_of(rep, g))

    def side(_name, fam, translator, cover, translator_range):
        family = PieceFamily(pull(fam.classifier), size=fam.size)
        return family, translator, pull(cover), translator_range

    a, b = (side(*s) for s in dec.sides())
    return _from_sides(LeftTranslation(dec.action.group), a, b, "restrict",
                       inner=dec.meta.get("construction"))
