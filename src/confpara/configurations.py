"""Configuration sets of group actions.

Given an ordered tuple (g_1, ..., g_n) of group elements and a partition
{E_1, ..., E_m} of the point set, the configuration of a point x is the
tuple (c(x), c(g_1 . x), ..., c(g_n . x)) of 1-based block indices.  The
configuration set is the set of tuples realized by at least one point, and
each realized tuple C owns a family of cells: the base cell of points
realizing C and its translates under each g_j.

Countable tuples and partitions are handled through windows: results over a
window are sound under-approximations and say so, except when the point set
is finite and fully covered, in which case they are exact.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import add
from typing import Any, Callable, NamedTuple, Optional

from .errors import InputError, PreconditionError, ResourceCapExceeded
from .groups import _cycles, _is_int, _perm_closure, _require_int, is_generating


class Partition:
    """Partition of the point set into 1-based blocks.

    Build one with ``explicit`` (the blocks are listed; ``blocks`` holds
    them) or ``classifier`` (a total function point -> block index, an
    optional block count, and an optional ``block_rank(block, x)``, the
    0-based position of x within its block, which the singleton-split
    construction needs for its designated block; ``blocks`` is None).
    Either way ``block_of`` is one function, built once by the constructor,
    that checks its answer.
    """

    def __init__(self, block_of, blocks, block_count, block_rank=None):
        self.block_of = block_of
        self.blocks = blocks
        self.block_count = block_count
        self.block_rank = block_rank

    @classmethod
    def explicit(cls, blocks):
        blocks = tuple(frozenset(b) for b in blocks)
        if not blocks:
            raise InputError("a partition needs at least one block")
        seen = set()
        for i, b in enumerate(blocks, start=1):
            if not b:
                raise InputError(f"block {i} is empty")
            if seen & b:
                raise InputError(f"block {i} overlaps an earlier block")
            seen |= b
        lookup = {x: i for i, b in enumerate(blocks, start=1) for x in b}

        def block_of(x):
            try:
                return lookup[x]
            except KeyError:
                raise InputError(f"point {x!r} is not covered by the partition") from None

        return cls(block_of, blocks, len(blocks))

    @classmethod
    def classifier(cls, classify, block_count=None, block_rank=None):
        def block_of(x):
            b = classify(x)
            # a plain int, the common answer, skips the call (see _is_int)
            if type(b) is not int and not _is_int(b) or b < 1:
                raise InputError(f"classifier returned bad block index {b!r}")
            if block_count is not None and b > block_count:
                raise InputError(
                    f"classifier returned block {b} beyond the declared count {block_count}"
                )
            return b

        return cls(block_of, None, block_count, block_rank)

    @property
    def is_explicit(self):
        return self.blocks is not None


def check_partition_covers(action, partition):
    """Explicit partitions must cover a finite point set exactly."""
    if not partition.is_explicit:
        return
    if not action.is_finite_points:
        raise InputError("explicit partitions require a finite point set")
    pts = set(action.points())
    covered = set().union(*partition.blocks)
    if covered - pts:
        raise InputError(f"partition block contains foreign points {sorted(covered - pts, key=repr)!r}")
    missing = pts - covered
    if missing:
        raise InputError(f"partition does not cover the point set; missing {sorted(missing, key=repr)!r}")


@dataclass(frozen=True)
class ConfigPair:
    """Finite ordered tuple of group elements plus a partition.

    ``generating`` is a caller assertion that the tuple entries generate the
    group; it is verified where that is decidable (finite groups)."""

    elements: tuple
    partition: Partition
    generating: bool = False

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))


class CountablePair(NamedTuple):
    """Countable tuple given by a 1-based oracle; ``identity_tail_after``
    declares that every entry past that position is the identity."""

    element_at: Callable[[int], Any]
    partition: Partition
    generating: bool = False
    identity_tail_after: Optional[int] = None


def check_generating_assertion(action, pair):
    if pair.generating and action.group.is_finite and isinstance(pair, ConfigPair):
        if not is_generating(action.group, pair.elements):
            raise PreconditionError(
                "pair asserts a generating tuple but the elements do not generate"
            )


def _realizers(block, act, elements, points):
    """Map each realized configuration to the points realizing it, in point
    order.  This is the only place a configuration tuple is built."""
    out = {}
    for x in points:
        out.setdefault((block(x), *[block(act(g, x)) for g in elements]), []).append(x)
    return out


def _checked_points(action, pair):
    if not action.is_finite_points:
        raise InputError("finite configuration sets need a finite point set; use a window")
    check_partition_covers(action, pair.partition)
    check_generating_assertion(action, pair)
    return action.points()


def configurations_finite(action, pair):
    """All realized configurations of a finite action, sorted lexicographically."""
    points = _checked_points(action, pair)
    return tuple(sorted(_realizers(pair.partition.block_of, action.act, pair.elements, points)))


def windowed_configuration_set(action, pair, window):
    """Configurations realized by window points: a sound under-approximation
    of the full configuration set (exact when the window covers a finite
    point set)."""
    return tuple(sorted(
        _realizers(pair.partition.block_of, action.act, pair.elements, window.points)
    ))


def _cells(action, elements, base):
    return (frozenset(base), *(frozenset(action.act(g, x) for x in base) for g in elements))


def configurations_with_cells(action, pair):
    """Mapping configuration -> cells, for every realized configuration of a
    finite action.  Position 0 of a configuration's cells is the base cell
    (its realizer set), position j its translate under g_j."""
    points = _checked_points(action, pair)
    by_config = _realizers(pair.partition.block_of, action.act, pair.elements, points)
    return {c: _cells(action, pair.elements, by_config[c]) for c in sorted(by_config)}


class RefinementReport(NamedTuple):
    ok: bool
    violation: Optional[dict]


def verify_refinement(action, pair, cells_by_config):
    """Check that for every position j the cells at position j refine the
    partition: each block is the disjoint union of the cells carrying its
    index, and the cells at one position tile the whole (finite) point set.
    Returns the first violation in canonical order, if any.
    """
    n = len(pair.elements)
    block = pair.partition.block_of
    items = sorted(cells_by_config.items())
    domain = action.points()
    for j in range(n + 1):
        owner = {}
        for config, cells in items:
            for y in sorted(cells[j], key=_point_key):
                if y in owner:
                    return RefinementReport(False, {
                        "kind": "overlap",
                        "position": j,
                        "point": y,
                        "configs": [owner[y], config],
                    })
                owner[y] = config
                if block(y) != config[j]:
                    return RefinementReport(False, {
                        "kind": "wrong-block",
                        "position": j,
                        "point": y,
                        "config": config,
                        "expected-block": config[j],
                        "actual-block": block(y),
                    })
        for y in domain:
            if y not in owner:
                return RefinementReport(False, {
                    "kind": "gap",
                    "position": j,
                    "point": y,
                    "block": block(y),
                })
    return RefinementReport(True, None)


def _point_key(x):
    return repr(x)


# ---------------------------------------------------------------------------
# countable tuples / partitions


class PrefixResult(NamedTuple):
    prefixes: tuple
    exact: bool
    depth: int
    window_label: str
    note: str


def countable_config_prefixes(action, pair, depth, window):
    """Depth-k prefixes of configurations realized by window points.

    Every reported prefix is realized (soundness); the listing is complete
    exactly when the point set is finite and the window covers it, which is
    the convention that finite data embeds into the countable setting.  For
    genuinely infinite partitions every block index is realized at depth 0,
    so the true prefix set is infinite and any finite window reports a
    labeled under-approximation.
    """
    _require_int("depth", depth, 0)
    if isinstance(pair, CountablePair):
        elems = [pair.element_at(i) for i in range(1, depth + 1)]
    else:
        if depth > len(pair.elements):
            raise InputError("depth exceeds the tuple length of a finite pair")
        elems = list(pair.elements[:depth])
    prefixes = sorted(_realizers(pair.partition.block_of, action.act, elems, window.points))
    exact = bool(action.is_finite_points) and set(action.points()) <= window.point_set
    note = "exact (finite point set fully windowed)" if exact else "window under-approximation"
    return PrefixResult(tuple(prefixes), exact, depth, window.label, note)


class SplitPair(NamedTuple):
    pair: CountablePair
    relabeling: tuple  # 1-based: relabeling[old - 1] = new block index


def singleton_split(action, pair, block_index):
    """Replace one infinite block by singletons and pad the tuple with the
    identity.

    The partition must carry a per-block rank.  The designated block is
    relabeled to the last finite index m; the m-th, (m+1)-th, ... blocks of
    the result are the singletons of its members in rank order, every tuple
    entry past the original length is the identity, and the correspondence
    with the original configuration set is recovered by merge_blocks at
    cutoff m.
    """
    part = pair.partition
    m = part.block_count
    if m is None:
        raise InputError("singleton split needs a declared finite block count")
    _require_int("block index", block_index, 1, m)
    if part.is_explicit:
        raise PreconditionError(
            "designated block is finite (explicit partitions have finite blocks)"
        )
    if part.block_rank is None:
        raise PreconditionError("designated block lacks an enumerator")

    # swap the designated block with the last index so singles get m, m+1, ...
    def relabel(b):
        if b == block_index:
            return m
        if b == m:
            return block_index
        return b

    relabeling = tuple(relabel(b) for b in range(1, m + 1))
    base_block_of = part.block_of
    base_rank = part.block_rank

    def classify(x):
        b = relabel(base_block_of(x))
        if b < m:
            return b
        return m + base_rank(block_index, x)

    split_partition = Partition.classifier(classify)
    n = len(pair.elements)
    elements = pair.elements
    identity = action.group.identity

    def element_at(i):
        if i < 1:
            raise InputError("tuple positions are 1-based")
        return elements[i - 1] if i <= n else identity

    return SplitPair(
        CountablePair(element_at, split_partition, pair.generating, identity_tail_after=n),
        relabeling,
    )


def merge_blocks(pair, cutoff):
    """Collapse every block with index >= cutoff into one block and truncate
    the countable tuple to its declared identity tail."""
    if not isinstance(pair, CountablePair):
        raise InputError("merge_blocks expects a countable pair")
    _require_int("cutoff", cutoff, 1)
    n = pair.identity_tail_after
    if n is None:
        raise InputError("tuple length unknown: use a pair with an identity tail")
    elements = tuple(pair.element_at(i) for i in range(1, n + 1))
    base_block_of = pair.partition.block_of

    def classify(x):
        return min(base_block_of(x), cutoff)

    return ConfigPair(
        elements,
        Partition.classifier(classify, block_count=cutoff),
        pair.generating,
    )


# ---------------------------------------------------------------------------
# bounded equivalence of actions


def set_partitions(n, max_blocks, maps=()):
    """Labeled set partitions of range(n) in restricted-growth order: yields
    (labels, block_count, fixing) with labels a tuple of 1-based block
    indices whose first occurrences are increasing.  The enumeration is
    iterative, so n is not limited by the recursion depth.

    ``maps`` are permutations phi of range(n), as tuples.  A partition is
    skipped when some phi reads it earlier: the labels[phi[0]],
    labels[phi[1]], ... renumbered in order of first occurrence come before
    ``labels`` in lexicographic order.  The test is made on prefixes.  Each
    pending map waits on the first index whose label its next comparison
    needs: the comparison at y reads labels[phi[y]] and labels[y], so it
    waits on need[y] = max(phi[y], y), a table built once per map.  A
    waiting entry is (k, phi, need, y, order), with k the map's position in
    ``maps`` and ``order`` the labels read through phi so far, in order of
    first occurrence, as a tuple of at most ``max_blocks`` labels shared by
    every entry that read them; the renumbered label of u is its position
    in ``order``, plus one.  A map that reads earlier there cuts the
    subtree, one that reads later is dropped for the subtree, and one that
    reads the same moves on to its next index.  The maps that read the same
    up to the last index carry the partition onto itself up to relabeling;
    ``fixing`` lists their positions in ``maps``, in no set order."""
    if n == 0 or max_blocks < 1:
        return
    labels = [0] * n
    tops = [0] * n  # tops[i]: the largest label among labels[:i]
    # waiting[w]: the entries whose next comparison waits on labels[w];
    # moved[i]: the lists the label at i appended to
    waiting = [[] for _ in range(n)]
    moved = [[] for _ in range(n)]
    for k, phi in enumerate(maps):
        need = tuple(map(max, phi, range(n)))
        waiting[need[0]].append((k, phi, need, 0, ()))
    last = n - 1
    i = 0
    while i >= 0:
        if moved[i]:
            for w in moved[i]:
                waiting[w].pop()
            moved[i].clear()
        v = labels[i] + 1
        if v > tops[i] + 1 or v > max_blocks:
            labels[i] = 0
            i -= 1
            continue
        labels[i] = v
        if i == last:
            fixing = []  # only the last index completes a comparison
        cut = False
        for k, phi, need, y, order in waiting[i]:
            while True:
                u = labels[phi[y]]
                if u in order:
                    r = order.index(u) + 1
                else:
                    order += (u,)
                    r = len(order)
                if r != labels[y]:
                    cut = r < labels[y]
                    break
                y += 1
                if y == n:
                    fixing.append(k)
                    break
                w = need[y]
                if w > i:
                    waiting[w].append((k, phi, need, y, order))
                    moved[i].append(w)
                    break
            if cut:
                break
        if cut:
            continue
        top = v if v > tops[i] else tops[i]
        if i == last:
            yield tuple(labels), top, fixing
        else:
            i += 1
            tops[i] = top


def _partition_count(n, m, cap):
    """S(n, 1) + ... + S(n, m), the partitions of an n-set into at most m
    blocks, or cap + 1 once that is exceeded.  The count never decreases
    with n, so the Stirling rows stop as soon as one exceeds ``cap``."""
    row = [1]  # S(i, k) for k = 0..min(i, m)
    for i in range(1, n + 1):
        row = [0] + [
            k * (row[k] if k < len(row) else 0) + row[k - 1]
            for k in range(1, min(i, m) + 1)
        ]
        if sum(row) > cap:
            return cap + 1
    return sum(row) if n else 0


def _power_exceeds(base, exponent, cap):
    """Whether base ** exponent > cap, without computing a power much
    larger than cap: with base >= 2, an exponent of cap's bit length or
    more exceeds it."""
    return base > 1 and (exponent >= cap.bit_length() or base ** exponent > cap)


def _cycle_type(perm):
    return tuple(sorted(map(len, _cycles(perm))))


def _generating_rows(rows):
    """Rows that generate the permutation group of ``rows``: each row not
    generated by the ones before it is kept."""
    gens = []
    group = {tuple(range(len(rows[0])))}
    for r in rows:
        if r not in group:
            gens.append(r)
            group = set(_perm_closure(len(r), gens))
    return gens


def conjugating_maps(rows, targets, limit=None):
    """Permutations phi of the points 0..N-1 of a compiled finite action
    that conjugate every row to one of ``targets``, the rows of a finite
    action on the same points: phi r phi^-1 is a target for each row r.
    Each map is a tuple with phi[x] the image of x; the identity comes
    first when it is one of them, and at most ``limit`` maps are returned.

    Backtracking: the image of the least point of the first orbit, then a
    target of the same cycle type for each generating row, then the image
    of the least point of each further orbit.  Each choice is propagated
    along the generators, phi(s x) = alpha(s) phi(x), and a clash or a
    repeated image rejects it.  Conjugating the generators to targets
    carries the group of the rows into the group of the targets, onto it
    when the two have as many distinct rows; with more distinct targets
    than rows, the image may be a proper subgroup."""
    size = len(rows[0])
    identity = tuple(range(size))
    if limit is not None and limit < 1:
        return []
    gens = _generating_rows(list(dict.fromkeys(rows)))
    by_shape = {}
    for r in dict.fromkeys(targets):
        by_shape.setdefault(_cycle_type(r), []).append(r)
    # each generator's own row first, when it is a target
    images = [sorted(by_shape.get(_cycle_type(s), ()), key=s.__ne__) for s in gens]
    reps, placed = [], set()
    for o in range(size):
        if o not in placed:
            reps.append(o)
            placed.add(o)
            orbit = [o]
            for x in orbit:
                for s in gens:
                    if s[x] not in placed:
                        placed.add(s[x])
                        orbit.append(s[x])
    # a slot is a point whose image is chosen, or a generator whose image row is
    slots = [(True, o) for o in reps[:1]] + [(False, j) for j in range(len(gens))] \
        + [(True, o) for o in reps[1:]]
    if not slots:
        return [identity]
    phi = [-1] * size
    taken = [False] * size
    alpha = [None] * len(gens)
    trail = []  # assigned points, in assignment order

    def settle(start, chosen, new=None):
        """Close phi under the first ``chosen`` generators: trail[:start]
        is closed already under all of them but ``new``."""
        k = 0 if new is not None else start
        while k < len(trail):
            x = trail[k]
            for j in (new,) if k < start else range(chosen):
                y, want = gens[j][x], alpha[j][phi[x]]
                if phi[y] < 0:
                    if taken[want]:
                        return False
                    phi[y] = want
                    taken[want] = True
                    trail.append(y)
                elif phi[y] != want:
                    return False
            k += 1
        return True

    def options(point, which):
        if not point:
            return iter(images[which])
        # the free points, the orbit's own point first
        return iter(sorted((p for p in range(size) if not taken[p]), key=lambda p: p != which))

    maps = []
    pending = [options(*slots[0])] + [None] * (len(slots) - 1)
    marks = [0] * len(slots)
    depth = 0
    while depth >= 0:
        while len(trail) > marks[depth]:
            y = trail.pop()
            taken[phi[y]] = False
            phi[y] = -1
        choice = next(pending[depth], None)
        if choice is None:
            depth -= 1
            continue
        point, which = slots[depth]
        chosen = min(depth, len(gens))
        if point:
            phi[which] = choice
            taken[choice] = True
            trail.append(which)
            ok = settle(marks[depth], chosen)
        else:
            alpha[which] = choice
            ok = settle(marks[depth], chosen, which)
        if not ok:
            continue
        if depth + 1 == len(slots):
            maps.append(tuple(phi))
            if limit is not None and len(maps) >= limit:
                break
            continue
        depth += 1
        marks[depth] = len(trail)
        pending[depth] = options(*slots[depth])
    return maps


def normalizer_maps(rows, limit=None):
    """The maps conjugating every row to a row (see conjugating_maps): the
    normalizer of the action's image in the symmetric group.  For a group
    acting on itself by left translation that is the holomorph, with
    |G| |Aut(G)| maps.  The identity comes first."""
    return conjugating_maps(rows, rows, limit)


def _code_maps(b, m, n):
    """For each relabeling of blocks 1..b, the induced map on configuration
    codes: a configuration (c_0, ..., c_n) is coded as the base-m integer
    with digits c_j - 1, position 0 most significant, so integer order is
    tuple order."""
    out = []
    for sigma in itertools.permutations(range(b)):
        sigma = sigma + tuple(range(b, m))
        codes = [0]
        for _ in range(n + 1):
            codes = [c * m + s for c in codes for s in sigma]
        out.append(codes)
    return out


def _compile(action):
    """A finite action as (points, elements, rows): rows[g][x] is the index
    of elements[g] . points[x]."""
    pts = list(action.points())
    idx = {p: i for i, p in enumerate(pts)}
    gels = action.group.elements()
    return pts, gels, [tuple(idx[action.act(g, p)] for p in pts) for g in gels]


def _induced_perms(rows, maps):
    """For each point map phi in ``maps``, each conjugating every row of a
    compiled action to a row, (perm, lower), or None when ``lower`` is
    empty: phi r_g phi^-1 is the row of element perm[g], the first element
    with that row, and ``lower`` holds the elements g with perm[g] < g.
    The row of g sends phi^-1(p) to columns[phi^-1(p)][g], so the conjugate
    sends p to phi of that, and it is told apart from the other rows by the
    images of a few base points, found once for all the maps.  A single
    distinct row, as in a trivial action, needs no base point."""
    columns = list(zip(*rows))
    classes = len(set(rows))
    base, keys = [], [()] * len(rows)
    for p, column in enumerate(columns):
        if len(set(keys)) == classes:
            break
        refined = list(zip(*[columns[q] for q in base], column))
        if len(set(refined)) > len(set(keys)):
            base.append(p)
            keys = refined
    # built backwards, so the first element with each key is the one kept
    index = dict(zip(reversed(keys), reversed(range(len(rows))))).__getitem__
    out = []
    for phi in maps:
        if base:  # else keys is all (), the one row's key
            image = phi.__getitem__
            keys = zip(*[map(image, columns[phi.index(p)]) for p in base])
        perm = list(map(index, keys))
        lower = frozenset([g for g, h in enumerate(perm) if h < g])
        out.append((perm, lower) if lower else None)
    return out


def _tuple_codes(labels, rows, n, m, fixing):
    """(t, code set) for tuples t of length n in product order, under the
    partition with block labels ``labels`` of a compiled action's points;
    codes are base m (see _code_maps).  ``base`` holds the position-0 term of
    each point's code, and the term at position j when the tuple's j-th
    entry is group element g is m^(n-j) times g's labeled row: the block
    labels, less one, of the images of the points under g.

    Two rules skip tuples whose configuration set an earlier tuple under the
    same partition realizes up to block relabeling; by induction on product
    order, the first tuple of each class is never skipped.  An entry is
    offered only when it is the first element with its labeled row, since
    elements with one labeled row give one configuration set.  ``fixing``
    holds the (perm, lower) pairs (see _induced_perms) of point maps phi that
    carry the partition onto itself up to a relabeling sigma: the tuple
    perm(t) then realizes sigma of the set t realizes, as phi sends each
    configuration of t at x to its sigma-image at phi(x).  A map is alive
    while perm fixes the entries chosen so far, and no alive map's
    ``lower`` may hold the next entry, since perm(t) would then be
    earlier."""
    lab = [v - 1 for v in labels]
    first = {}  # labeled row, 0-based -> the first element with it
    for g, row in enumerate(rows):
        first.setdefault(tuple(map(lab.__getitem__, row)), g)
    labeled = {g: key for key, g in first.items()}
    offered = list(labeled)
    base = [v * m ** n for v in lab]
    depth = n - 1  # the entries before the last

    def offer(alive):
        if not alive:
            return offered
        barred = set().union(*[lower for _perm, lower in alive])
        return [g for g in offered if g not in barred]

    # depth first in product order: (entries so far, their codes' terms
    # summed per point, the alive maps, the entries still to offer)
    stack = [((), base, fixing, iter(offer(fixing)))]
    while stack:
        head, acc, alive, pending = stack[-1]
        if len(head) == depth:
            stack.pop()
            for g in pending:
                yield head + (g,), frozenset(map(add, acc, labeled[g]))
            continue
        g = next(pending, None)
        if g is None:
            stack.pop()
            continue
        if alive:
            alive = [f for f in alive if f[0][g] == g]
        weight = m ** (depth - len(head))
        stack.append((head + (g,), list(map(add, acc, map(weight.__mul__, labeled[g]))),
                      alive, iter(offer(alive))))


def _pattern_weights(m, n):
    """The weight of each configuration code (see _code_maps) in the shape
    of a code set: a 64-bit mix of the code's pattern, its digits
    renumbered in order of first occurrence.  The codes of a set under b
    blocks use the digits 0..b-1, and a relabeling of those keeps each
    code's pattern, so it keeps the shape, the sum of the set's weights.
    Sets with different patterns may share a shape, which only sends a set
    to the probe it would get without shapes.  One machine word per code:
    the table is the size of one code map."""
    # (pattern, its digits in order of first occurrence) per prefix, in
    # code order, one position at a time
    patterns = [(0, ())]
    for _ in range(n + 1):
        patterns = [(p * m + order.index(s), order) if s in order
                    else (p * m + len(order), order + (s,))
                    for p, order in patterns for s in range(m)]
    out = []
    for p, _order in patterns:
        z = (p + 1) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
        out.append(z ^ z >> 29)
    return out


def _relabeled(codes, getters):
    """The images of a code set under each code map whose ``__getitem__``
    is in ``getters``, in order.  A lazy map of maps with no generator
    frame: a consumer that stops at the first image it wants, such as
    ``isdisjoint``, builds no image after it."""
    return map(frozenset, map(map, getters, itertools.repeat(codes)))


def _configuration_family(compiled, n, m, cap, code_maps):
    """One configuration set per class under block relabeling, over tuples
    of length n and partitions into at most m blocks, each mapped to its
    first witness, for a compiled action (see _compile).

    Every partition counts against ``cap``, and the count, S(N, 1) + ... +
    S(N, m) for N points, is checked before any is enumerated; then the
    |G|^n tuples under one partition and the m^(n+1) codes of one
    relabeling map (see _code_maps), which also bound the table of shape
    weights (see _pattern_weights), are, before any is built.  A partition
    is skipped when a map of the points that conjugates every row to a row
    (see normalizer_maps) carries it to an earlier partition.  The two
    realize the same configuration sets up to block relabeling, the tuple
    carried along by the induced automorphism, so the earlier one has
    already opened every class the skipped one would.  Any such maps are
    sound; at most |G|^n are used (the tuples under one partition), and
    fewer than the partitions, so the symmetry work per partition stays
    within the tuple work.  For n > 1, the maps that carry a kept
    partition onto itself skip tuples under it (see _tuple_codes); the
    permutation each map induces on the elements, and the base points it is
    read from, are computed once per family, before any partition.

    A configuration set is a set of integer codes (see _code_maps), and
    ``seen`` holds every one met.  A new one opens a class unless an image
    of it under another relabeling of its blocks is in ``seen``.  It joins
    ``seen`` only after that probe, since a relabeling may fix it.  The
    set's shape (see _pattern_weights) is looked up first.  Its images
    under b blocks use the same b digits, so only sets under b blocks can
    be among them, and they all have its shape; every set met under b
    blocks has its shape recorded, so a set whose shape is new under b
    opens a class without the probe.  Only probes that would find nothing
    are skipped, so the classes, their order and their first witnesses
    are those of probing every set.
    ``code_maps`` caches, by block count, the ``__getitem__`` of each map
    _code_maps builds, the identity first (see _relabeled)."""
    pts, _gels, rows = compiled
    total = _partition_count(len(pts), m, cap)
    if total > cap:
        raise ResourceCapExceeded(
            f"partition enumeration exceeded the cap of {cap}", cap=cap
        )
    if _power_exceeds(len(rows), n, cap):
        raise ResourceCapExceeded(
            f"tuples per partition ({len(rows)}^{n}) exceed the cap of {cap}", cap=cap
        )
    if _power_exceeds(m, n + 1, cap):
        raise ResourceCapExceeded(
            f"codes per relabeling map ({m}^{n + 1}) exceed the cap of {cap}", cap=cap
        )
    limit = min(len(rows) ** n, total - 1)
    symmetries = normalizer_maps(rows, limit + 1)[1:] if limit > 0 else ()
    # at n = 1 a skipped tuple saves one code set, which costs less than
    # the permutations the maps need on the small actions it runs on
    pairs = _induced_perms(rows, symmetries) if n > 1 and symmetries else ()
    weight = _pattern_weights(m, n)
    shapes = defaultdict(set)  # block count -> the shapes of the sets met under it
    seen = set()
    family = {}
    for labels, b, fixing in set_partitions(len(pts), m, symmetries):
        if b not in code_maps:
            code_maps[b] = [cm.__getitem__ for cm in _code_maps(b, m, n)]
        others = code_maps[b][1:]  # the first map is the identity
        met = shapes[b]
        # a map that sends no element lower never skips a tuple
        moving = [pairs[k] for k in fixing if pairs[k]] if pairs else ()
        for t, codes in _tuple_codes(labels, rows, n, m, moving):
            if codes in seen:
                continue
            shape = sum(map(weight.__getitem__, codes))
            if shape not in met:  # nor is any relabeled image in seen
                met.add(shape)
                family[codes] = (t, labels, b)
            elif seen.isdisjoint(_relabeled(codes, others)):
                family[codes] = (t, labels, b)
            seen.add(codes)
    return family


def _first_unmatched(family, other, code_maps):
    """The first class of ``family`` that ``other`` lacks: neither its
    configuration set nor any relabeling of it is a key of ``other``."""
    return next((
        codes for codes, (_t, _labels, b) in family.items()
        if other.keys().isdisjoint(_relabeled(codes, code_maps[b]))
    ), None)


class PairWitness(NamedTuple):
    direction: str
    tuple_tokens: tuple
    blocks: tuple  # tuple of tuples of point tokens
    configurations: tuple


class EquivVerdict(NamedTuple):
    equivalent: bool
    n: int
    m: int
    only_in_first: Optional[PairWitness]
    only_in_second: Optional[PairWitness]
    family_sizes: tuple


def _conjugate(rows1, rows2):
    """Whether some point map conjugates every row of one compiled action
    to a row of the other, on as many distinct rows.  The sorted cycle
    types of the distinct rows, which fix their count and degree, are
    compared first; a map the search returns is checked on every row."""
    distinct1, distinct2 = list(dict.fromkeys(rows1)), list(dict.fromkeys(rows2))
    if sorted(map(_cycle_type, distinct1)) != sorted(map(_cycle_type, distinct2)):
        return False
    maps = conjugating_maps(distinct1, distinct2, 1)
    if not maps:
        return False
    phi = maps[0]
    inverse = sorted(range(len(phi)), key=phi.__getitem__)
    targets = set(distinct2)
    return all(tuple(phi[r[x]] for x in inverse) in targets for r in distinct1)


def _witness_from(action, pts, gels, record, direction):
    t, labels, b = record
    group = action.group
    tuple_tokens = tuple(group.format(gels[i]) for i in t)
    blocks = tuple(
        tuple(action.format_point(p) for p, l in zip(pts, labels) if l == i)
        for i in range(1, b + 1)
    )
    block = dict(zip(pts, labels))
    configs = _realizers(block.__getitem__, action.act, [gels[g] for g in t], pts)
    return PairWitness(direction, tuple_tokens, blocks, tuple(sorted(configs)))


def config_equiv_bounded(action1, action2, n, m, cap=None):
    """Compare the families of configuration sets of two finite actions over
    all tuples of length n and partitions into at most m blocks, up to block
    relabeling.  Returns the verdict with first witnesses in enumeration
    order for both directions when the families differ.

    Each family keeps the first configuration set met of each class.  A
    class of one family is in the other when one of its relabeled images is
    among the other's kept sets, so no canonical form is computed.  Two
    conjugate presentations of one action, the same object or two whose
    permutations a point map carries onto each other (see _conjugate), are
    decided from the first family alone: the map carries each pair of one
    to a pair of the other with the same configuration set, so the two
    families are equal."""
    _require_int("tuple length n", n, 1)
    _require_int("block count m", m, 1)
    if cap is not None:
        _require_int("cap", cap, 1)
    for a in (action1, action2):
        if not a.is_finite_points:
            raise InputError("bounded equivalence compares finite actions")
    if cap is None:
        cap = default_partition_cap()
    code_maps = {}
    compiled1 = pts1, gels1, rows1 = _compile(action1)
    fam1 = _configuration_family(compiled1, n, m, cap, code_maps)
    compiled2 = pts2, gels2, rows2 = compiled1 if action2 is action1 else _compile(action2)
    if compiled2 is compiled1 or _conjugate(rows1, rows2):
        return EquivVerdict(True, n, m, None, None, (len(fam1), len(fam1)))
    fam2 = _configuration_family(compiled2, n, m, cap, code_maps)
    only1 = _first_unmatched(fam1, fam2, code_maps)
    only2 = _first_unmatched(fam2, fam1, code_maps)
    w1 = _witness_from(action1, pts1, gels1, fam1[only1], "first-not-second") if only1 else None
    w2 = _witness_from(action2, pts2, gels2, fam2[only2], "second-not-first") if only2 else None
    return EquivVerdict(
        equivalent=only1 is None and only2 is None,
        n=n,
        m=m,
        only_in_first=w1,
        only_in_second=w2,
        family_sizes=(len(fam1), len(fam2)),
    )


def default_partition_cap():
    import os

    raw = os.environ.get("CONFPARA_CAP")
    if raw is None:
        return 500_000
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"CONFPARA_CAP must be an integer, got {raw!r}") from None
    return _require_int("CONFPARA_CAP", cap, 1)
