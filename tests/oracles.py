"""Independent reference implementations used to pin expected values.

Nothing in this module imports the package under test.  Everything is the
most direct encoding of the definitions: triple loops, recursion, closed
formulas.  Slow is fine; these run on small instances only.
"""

import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# configuration sets, straight from the definition


def naive_configurations(points, act, elements, block_of):
    """{(block(x), block(g1 x), ..., block(gn x)) : x in points}"""
    out = set()
    for x in points:
        out.add(tuple([block_of(x)] + [block_of(act(g, x)) for g in elements]))
    return out


def naive_refinement_blocks(points, act, inv, elements, block_of, configs):
    """x_j(C) computed from scratch: x_0(C) is the set of base points whose
    configuration is C, and x_j(C) is its translate by g_j."""
    cells = {}
    for c in configs:
        base = [
            x for x in points
            if tuple([block_of(x)] + [block_of(act(g, x)) for g in elements]) == c
        ]
        cells[c] = [base] + [[act(g, x) for x in base] for g in elements]
    return cells


def naive_configuration_family(points, act, elements, n, m):
    """Every configuration set over tuples of length n (entries drawn from
    ``elements``) and partitions into at most m blocks, up to block
    relabeling.  Maps each canonical form (the least sorted list of relabeled
    configurations) to its first witness (tuple, labels), visiting
    partitions as restricted-growth label tuples in lexicographic order and
    tuples in product order, and sorting every relabeling in full."""
    points = list(points)
    family = {}
    for labels in itertools.product(range(1, m + 1), repeat=len(points)):
        if any(labels[i] > max(labels[:i], default=0) + 1 for i in range(len(points))):
            continue
        block = dict(zip(points, labels))
        b = max(labels)
        for t in itertools.product(elements, repeat=n):
            configs = naive_configurations(points, act, t, block.__getitem__)
            canon = tuple(min(
                sorted(tuple(sigma[c - 1] for c in cfg) for cfg in configs)
                for sigma in itertools.permutations(range(1, b + 1))
            ))
            if canon not in family:
                family[canon] = (t, labels)
    return family


def naive_search_configuration_set(points, act, elements, n, max_blocks, target, cap):
    """Search every partition into at most ``max_blocks`` blocks (restricted-
    growth label tuples in lexicographic order) and under each every tuple of
    length n (entries drawn from ``elements``, product order) for a pair
    whose configuration set is ``target``, computing every pair in full.
    Returns (pairs_searched, matched), stopping at the first match, or None
    once more than ``cap`` pairs have been searched."""
    points = list(points)
    target = set(target)
    searched = 0
    for labels in itertools.product(range(1, max_blocks + 1), repeat=len(points)):
        if any(labels[i] > max(labels[:i], default=0) + 1 for i in range(len(points))):
            continue
        block = dict(zip(points, labels))
        for t in itertools.product(elements, repeat=n):
            searched += 1
            if searched > cap:
                return None
            if naive_configurations(points, act, t, block.__getitem__) == target:
                return searched, True
    return searched, False


# ---------------------------------------------------------------------------
# set partitions


def partitions_of(items, max_blocks):
    """All partitions of a list into at most max_blocks nonempty blocks,
    as tuples of tuples, built by placing one item at a time."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in partitions_of(rest, max_blocks):
        for i in range(len(sub)):
            yield sub[:i] + ((first,) + sub[i],) + sub[i + 1:]
        if len(sub) < max_blocks:
            yield ((first,),) + sub


def least_in_orbit(labels, maps):
    """True when no map phi reads the partition earlier: the labels
    labels[phi[0]], labels[phi[1]], ... renumbered in order of first
    occurrence never form a tuple that comes before ``labels``."""
    for phi in maps:
        first = {}
        image = tuple(first.setdefault(labels[x], len(first) + 1) for x in phi)
        if image < tuple(labels):
            return False
    return True


def fixes(labels, phi):
    """True when phi carries the partition onto itself: the labels
    labels[phi[0]], labels[phi[1]], ... renumbered in order of first
    occurrence are ``labels`` again."""
    first = {}
    return tuple(first.setdefault(labels[x], len(first) + 1) for x in phi) == tuple(labels)


def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell(n):
    return sum(stirling2(n, k) for k in range(n + 1))


def partitions_up_to(n, m):
    """Number of partitions of an n-set into at most m blocks."""
    return sum(stirling2(n, k) for k in range(1, min(n, m) + 1))


# ---------------------------------------------------------------------------
# free words


def reduce_word(letters):
    """Free reduction with an explicit stack.  Letters are nonzero ints,
    -v is the inverse of v."""
    stack = []
    for v in letters:
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return tuple(stack)


def free_ball(rank, radius):
    """All reduced words of length <= radius by breadth-first growth."""
    letters = [v for i in range(1, rank + 1) for v in (i, -i)]
    seen = {()}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for v in letters:
                r = reduce_word(list(w) + [v])
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def shortlex_word(rank, position):
    """The reduced word at a 1-based shortlex position (letters ordered
    a < a^-1 < b < b^-1 < ...), unranked on its own: count the words of each
    length to find the length, then read the letters off as digits, base
    2·rank for the first and 2·rank - 1 (the non-cancelling letters) after."""
    letters = [v for i in range(1, rank + 1) for v in (i, -i)]
    a = len(letters)
    n = position - 1
    length, count = 0, 1
    while n >= count:
        n -= count
        length += 1
        count = a * (a - 1) ** (length - 1)
    word = []
    for i in range(length):
        choices = [v for v in letters if not word or v != -word[-1]]
        digit, n = divmod(n, (a - 1) ** (length - 1 - i))
        word.append(choices[digit])
    return tuple(word)


def free_ball_size(rank, radius):
    """1 + 2r((2r-1)^k - 1)/(2r-2) for rank r >= 2; 2k+1 on the line."""
    if rank == 1:
        return 2 * radius + 1
    q = 2 * rank - 1
    return int(1 + Fraction(2 * rank * (q ** radius - 1), q - 1))


# ---------------------------------------------------------------------------
# enumeration codecs


def zigzag(position):
    """0-based position -> value, walking the order 0, 1, -1, 2, -2, ..."""
    if position < 0:
        raise ValueError(position)
    value = 0
    for _ in range(position):
        value = -value + 1 if value <= 0 else -value
    return value


def zigzag_inverse(value):
    position = 0
    while zigzag(position) != value:
        position += 1
    return position


def box_in_order(rank, radius):
    """Every vector of the cube [-radius, radius]^rank, sorted by max-norm
    and then coordinatewise by zigzag position."""
    cube = itertools.product(range(-radius, radius + 1), repeat=rank)
    return sorted(cube, key=lambda v: (max(abs(c) for c in v),
                                       [zigzag_inverse(c) for c in v]))


def box_position(v):
    """1-based position of the vector ``v`` in the order of
    ``box_in_order``, by counting the vectors of its cube that sort before
    it under the same key."""
    r = max(abs(c) for c in v)
    zig = {c: zigzag_inverse(c) for c in range(-r, r + 1)}

    def key(u):
        return max(abs(c) for c in u), [zig[c] for c in u]

    mine = key(v)
    return 1 + sum(key(u) < mine for u in itertools.product(range(-r, r + 1), repeat=len(v)))


def cantor(i, j):
    """Pairing of (i, j) >= (0, 0), walking diagonal by diagonal."""
    n = 0
    for d in range(i + j):
        n += d + 1
    return n + j


def cantor_inverse(n):
    for d in range(n + 1):
        for j in range(d + 1):
            if cantor(d - j, j) == n:
                return d - j, j
    raise ValueError(n)


# ---------------------------------------------------------------------------
# coset recovery and its certificate, from the definitions: every table
# entry read through the table's bounds-checked ``entry``, every coset
# translate and product built as a set


class Refusal(Exception):
    """A reference check refusing its input; ``kind`` names the error class
    the package raises for the same refusal, and the message is its message."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def naive_validate_table(table):
    """Identity row and column, then associativity (ij)k = i(jk) at every
    (i, j, k) where all four entries involved are known."""
    out = []
    n = table.bound
    for j in range(1, n + 1):
        if table.entry(1, j) != j:
            out.append({"kind": "identity-row", "at": (1, j), "got": table.entry(1, j)})
        if table.entry(j, 1) != j:
            out.append({"kind": "identity-column", "at": (j, 1), "got": table.entry(j, 1)})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ij = table.entry(i, j)
            if ij is None:
                continue
            for k in range(1, n + 1):
                jk = table.entry(j, k)
                if jk is None:
                    continue
                left = table.entry(ij, k)
                right = table.entry(i, jk)
                if left is not None and right is not None and left != right:
                    out.append({"kind": "associativity", "at": (i, j, k),
                                "left": left, "right": right})
    return out


def naive_is_normal(elements, mul, inv, subset):
    """x S x^-1 = S, as sets, for every x."""
    sub = frozenset(subset)
    return all(frozenset(mul(mul(x, s), inv(x)) for s in sub) == sub for x in elements)


def naive_closure(mul, inv, identity, generators):
    """The least set holding the identity, the generators and their inverses
    that is closed under products: all pairwise products added until none is
    new."""
    sub = {identity, *generators, *map(inv, generators)}
    while True:
        bigger = sub | {mul(a, b) for a in sub for b in sub}
        if bigger == sub:
            return frozenset(sub)
        sub = bigger


def naive_quotient(elements, mul, inv, identity, normal):
    """(cosets, representatives, table) of the quotient by ``normal``: the
    distinct sets x N, the identity's first and then by least member; the
    identity representing its coset and the least member any other; and
    table[i][k] the index of the coset equal to the setwise product of cosets
    i and k.  Raises ``Refusal`` unless N is a normal subgroup."""
    normal = frozenset(normal)
    if not naive_is_normal(elements, mul, inv, normal):
        raise Refusal("PreconditionError", "subgroup is not normal")
    if identity not in normal or any(mul(a, b) not in normal for a in normal for b in normal):
        raise Refusal("PreconditionError", "conjugation-closed set is not a subgroup")
    cosets = sorted({frozenset(mul(x, s) for s in normal) for x in elements},
                    key=lambda c: (identity not in c, min(c)))
    reps = tuple(identity if identity in c else min(c) for c in cosets)
    table = tuple(
        tuple(cosets.index(frozenset(mul(a, b) for a in c for b in d)) for d in cosets)
        for c in cosets
    )
    return tuple(cosets), reps, table


def naive_recover_cosets(elements, mul, identity, translators, block_of, table):
    """The blocks of a pair realizing the table's full canonical
    configuration set, relabeled so the identity's block is 1 by right
    translation with the inverse of its old index; the blocks are not
    checked.  A table with an unknown entry is refused, and so is one that
    is not ``bound`` rows of ``bound`` entries in 1..bound.  Returns
    (blocks, relabeling, old identity block) or raises ``Refusal``."""
    n = table.bound
    if any(None in row for row in table.rows):
        raise Refusal("InputError", "coset recovery needs a total index table")
    if (len(table.rows) != n or any(len(row) != n for row in table.rows)
            or not all(type(v) is int and 1 <= v <= n for row in table.rows for v in row)):
        raise Refusal("InputError", f"a table of bound {n} needs {n} rows of {n} entries in 1..{n}")
    if len(translators) != n:
        raise Refusal("PreconditionError",
                      f"tuple length {len(translators)} must equal the table bound {n}")
    expected = {tuple([j] + [table.entry(i, j) for i in range(1, n + 1)])
                for j in range(1, n + 1)}
    got = naive_configurations(elements, mul, translators, block_of)
    if got != expected:
        raise Refusal("PreconditionError",
                      "configuration set does not match the canonical family: "
                      f"{len(got ^ expected)} configurations differ")
    old = block_of(identity)
    relabeling = tuple(range(1, n + 1))
    if old != 1:
        inverse = next((j for j in range(1, n + 1) if table.entry(old, j) == 1), None)
        if inverse is None:
            raise Refusal("PreconditionError", f"index {old} has no inverse in the table")
        relabeling = tuple(table.entry(b, inverse) for b in range(1, n + 1))
    blocks = tuple(frozenset(x for x in elements if relabeling[block_of(x) - 1] == b)
                   for b in range(1, n + 1))
    return blocks, relabeling, old


def naive_verify_normal_and_iso(group, blocks, table):
    """F_1 a normal subgroup (identity, members in H, inverses, closure,
    x F_1 x^-1 = F_1); once it is, the first block that is none of the left
    cosets x F_1, or, when every block is one, the setwise products
    F_k F_j = F_pi(k,j); then the coset count, with the failures in that
    order.  An F_1 with a member outside H has its inverses and closure
    unread, and is not normal at the first element, since every conjugate
    x F_1 x^-1 lies in H.  Returns (ok, failures, iso, |F_1|, #blocks), the
    fields of an ``IsoReport``.  A table with an unknown entry is refused,
    and so is one that is not n rows of n entries in 1..n with n labels,
    for n blocks."""
    if any(None in row for row in table.rows):
        raise Refusal("InputError", "coset recovery needs a total index table")
    f1 = blocks[0]
    n = len(blocks)
    entries = [v for row in table.rows for v in row]
    if (table.bound != n or len(table.labels) != n or len(table.rows) != n
            or any(len(row) != n for row in table.rows)
            or not all(type(v) is int and 1 <= v <= n for v in entries)):
        raise Refusal("InputError",
                      f"{n} blocks need {n} rows of {n} entries in 1..{n} and {n} labels")
    elements = group.elements()
    within = all(a in elements for a in f1)
    failures = []
    if group.identity not in f1:
        failures.append({"identity": "identity-in-subgroup"})
    if not within:
        failures.append({"identity": "subgroup-in-group"})
    else:
        for a in sorted(f1):
            if group.inv(a) not in f1:
                failures.append({"identity": "subgroup-inverse", "witness": group.format(a)})
                break
        if not all(group.mul(a, b) in f1 for a in f1 for b in f1):
            failures.append({"identity": "subgroup-closure"})
    for x in elements:
        if not within or frozenset(group.mul(group.mul(x, s), group.inv(x)) for s in f1) != f1:
            failures.append({"identity": "normality", "witness": group.format(x)})
            break
    if not failures:
        cosets = {frozenset(group.mul(x, s) for s in f1) for x in elements}
        k = next((k for k, block in enumerate(blocks, start=1) if block not in cosets), None)
        if k is not None:
            failures.append({"identity": "coset-block", "witness": k})
        else:
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    product = frozenset(group.mul(a, b)
                                        for a in blocks[k - 1] for b in blocks[j - 1])
                    if product != blocks[table.rows[k - 1][j - 1] - 1]:
                        failures.append({"identity": "coset-product", "witness": (k, j)})
    if group.order() != n * len(f1):
        failures.append({"identity": "coset-count",
                         "witness": (group.order(), n, len(f1))})
    iso = tuple((table.labels[j - 1], j) for j in range(1, n + 1))
    return not failures, tuple(failures), iso, len(f1), n


# ---------------------------------------------------------------------------
# paradoxical decompositions, checked on a window from the definition


def naive_verify_paradoxical(dec, points, index_bound):
    """Check a decomposition on the window ``points`` from the definition:
    at each point, in order, exactly one side's classifier names a piece,
    and on each side (a, then b) the piece its cover names holds the point
    in its translate while no other piece up to the index bound (and the
    family size) does.  Every index up to the bound is probed, through the
    action and the inverse of the translator, on both sides; claimants are
    never read.  A malformed index raises ``Refusal`` with the package's
    message.  Returns (status, points_checked, point, equation, detail), the
    last three None when every point passes."""
    act, inv = dec.action.act, dec.action.group.inv

    def index(who, i, size):
        if isinstance(i, bool) or not isinstance(i, int) or i < 1:
            raise Refusal("MalformedOracleError", f"{who} returned bad index {i!r}")
        if size is not None and i > size:
            raise Refusal("MalformedOracleError",
                          f"{who} returned index {i} beyond the family size {size}")
        return i

    def piece(fam, x):
        i = fam.classifier(x)
        return None if i is None else index("classifier", i, fam.size)

    sides = (("a", dec.a_pieces, dec.a_translator, dec.a_cover),
             ("b", dec.b_pieces, dec.b_translator, dec.b_cover))
    checked = 0
    for x in points:
        checked += 1
        ia, ib = piece(dec.a_pieces, x), piece(dec.b_pieces, x)
        if (ia is None) == (ib is None):
            return ("refuted", checked, x, "combined-partition",
                    (("a_piece", ia), ("b_piece", ib)))
        for name, fam, translator, cover in sides:
            i = index(f"{name}-cover", cover(x), fam.size)
            if piece(fam, act(inv(translator(i)), x)) != i:
                return "refuted", checked, x, f"{name}-cover-membership", (("index", i),)
            top = index_bound if fam.size is None else min(index_bound, fam.size)
            holders = [j for j in range(1, top + 1)
                       if piece(fam, act(inv(translator(j)), x)) == j]
            others = [j for j in holders if j != i]
            if others:
                return ("refuted", checked, x, f"{name}-cover-uniqueness",
                        (("index", i), ("other", others[0])))
    return "verified-up-to", checked, None, None, None
