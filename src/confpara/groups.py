"""Group representations and finite verification windows.

Element conventions:

* table-backed and oracle-backed (enumerated) groups: elements are 0-based
  integer indices into a fixed enumeration (the one built-in enumerated
  group is ``even_integers_enumerated``, the subgroup 2Z of Z that
  ``paradox.even_integers_witness`` lifts a paradox from);
* free groups: reduced words stored as tuples of signed generator numbers
  (``1`` = first generator, ``-1`` = its inverse, ``2`` = second, ...);
* free-abelian groups: plain integers for rank 1, integer tuples otherwise.

Group objects are immutable after construction and safe to share.  Countable
groups expose a canonical enumeration (``element_at`` / ``position_of``,
1-based) used by prefix windows and by the decomposition constructors:
shortlex order for free groups, box-shell order (zigzag within a shell) for
free-abelian groups, the oracle's own indexing for enumerated groups.
``walk`` yields the enumeration in order, and every window (``ball``,
``box``, ``prefix_window``) is a prefix of it, so a window costs O(window).
A free group's walk extends each shell of words by one letter, in order;
a free-abelian shell is generated in its own order and cached with an
index, so a rank costs O(1) once its shell is built, and a free-group rank
O(word length).
"""

from __future__ import annotations

import itertools
import operator
import string
from dataclasses import dataclass
from functools import cached_property

from . import codec
from .errors import InputError, PreconditionError, UnsupportedOperationError


def _position(pos, last=None):
    """``pos`` as an int when it is a 1-based enumeration position, at most
    ``last`` when that is given; otherwise an InputError.  As everywhere a
    group takes an int, a bool is refused and other int subclasses are
    kept.  Callers test ``type(pos) is not int`` with their range first, so
    a plain int in range never calls this."""
    if isinstance(pos, bool) or not isinstance(pos, int):
        raise InputError(f"enumeration position must be an integer, got {pos!r}")
    if last is None:
        if pos < 1:
            raise InputError("enumeration position must be >= 1")
    elif not 1 <= pos <= last:
        raise InputError(f"enumeration position {pos} out of range 1..{last}")
    return int(pos)


@dataclass(frozen=True)
class Window:
    """A finite, canonically ordered list of elements (or action points)
    against which semidecidable claims are checked."""

    label: str
    points: tuple

    @classmethod
    def prefix(cls, walk, count):
        """The first ``count`` points of the iterator ``walk``."""
        if count < 0:
            raise InputError("window size must be >= 0")
        return cls(f"prefix({count})", tuple(itertools.islice(walk, count)))

    @cached_property
    def point_set(self):
        return frozenset(self.points)

    def __contains__(self, x):
        return x in self.point_set

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class Group:
    """Common interface; concrete classes fill in the element conventions."""

    name = "group"
    is_finite = False

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def contains(self, a):
        raise NotImplementedError

    def order(self):
        raise UnsupportedOperationError(f"{self.name} is not finite")

    def elements(self):
        """Canonically ordered tuple of all elements (finite groups only)."""
        raise UnsupportedOperationError(f"{self.name} is not finite")

    # 1-based canonical enumeration, defined for every built-in kind.
    def element_at(self, pos):
        if type(pos) is not int:
            _position(pos)  # a bad position is an input error on every group
        raise UnsupportedOperationError(f"{self.name} has no canonical enumeration")

    def position_of(self, a):
        raise UnsupportedOperationError(f"{self.name} has no canonical enumeration")

    def parse(self, token):
        raise NotImplementedError

    def format(self, a):
        raise NotImplementedError

    def walk(self):
        """The canonical enumeration from position 1 on, as an iterator."""
        return map(self.element_at, itertools.count(1))

    def prefix_window(self, count):
        """First ``count`` elements of the canonical enumeration."""
        if self.is_finite and count > self.order():
            raise InputError(
                f"prefix window of {count} elements is longer than {self.name}, "
                f"of order {self.order()}"
            )
        return Window.prefix(self.walk(), count)


class CayleyTableGroup(Group):
    """Finite group given by its full multiplication table over indices 0..n-1.

    The table must be a Latin square with a two-sided identity and inverses;
    associativity is the caller's responsibility (property tests sample it).
    """

    is_finite = True

    def __init__(self, table, identity_index, labels=None, name="finite-cayley"):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise InputError("empty multiplication table")
        rng = range(n)
        full = frozenset(rng)
        for i, row in enumerate(table):
            if len(row) != n or frozenset(row) != full:
                raise InputError(f"table row {i} is not a permutation of 0..{n - 1}")
        for j in rng:
            if frozenset(table[i][j] for i in rng) != full:
                raise InputError(f"table column {j} is not a permutation of 0..{n - 1}")
        e = identity_index
        if not (0 <= e < n):
            raise InputError("identity index out of range")
        for i in rng:
            if table[e][i] != i or table[i][e] != i:
                raise InputError(f"index {e} is not a two-sided identity")
        inv = [None] * n
        for i in rng:
            for j in rng:
                if table[i][j] == e:
                    inv[i] = j
        if any(v is None for v in inv):
            raise InputError("table lacks inverses")
        self.table = table
        self._identity = e
        self._inv = tuple(inv)
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in rng)
        if len(self.labels) != n:
            raise InputError("labels length must match table size")
        self.name = name
        self._n = n

    @property
    def identity(self):
        return self._identity

    def order(self):
        return self._n

    def elements(self):
        return tuple(range(self._n))

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def contains(self, a):
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self._n

    def element_at(self, pos):
        if type(pos) is not int or not (1 <= pos <= self._n):
            pos = _position(pos, self._n)
        return pos - 1

    def position_of(self, a):
        if not self.contains(a):
            raise InputError(f"not an element index: {a!r}")
        return a + 1

    def parse(self, token):
        token = token.strip()
        try:
            v = int(token)
        except ValueError:
            try:
                return self.labels.index(token)
            except ValueError:
                raise InputError(f"unknown element {token!r} of {self.name}") from None
        if not self.contains(v):
            raise InputError(f"element index {v} out of range for {self.name}")
        return v

    def format(self, a):
        return str(a)

    def label(self, a):
        return self.labels[a]

    def all_window(self):
        return Window(f"all({self._n})", self.elements())


def _perm_closure(degree, generators):
    gens = [tuple(g) for g in generators]
    idg = frozenset(range(degree))
    for g in gens:
        if frozenset(g) != idg:
            raise InputError(f"not a permutation of 0..{degree - 1}: {g}")
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def _cycle_label(perm):
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + " ".join(str(c + 1) for c in cyc) + ")")
    return "".join(parts) if parts else "()"


def permutation_group(degree, generators, name="finite-perm"):
    """Close a generating set of permutations and return the resulting
    table-backed group.  Elements are indices into the lexicographically
    sorted closure; the identity permutation sorts first."""
    elems = _perm_closure(degree, generators)
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(p[q[i]] for i in range(degree))] for q in elems] for p in elems
    ]
    labels = [_cycle_label(p) for p in elems]
    return CayleyTableGroup(table, index[tuple(range(degree))], labels, name)


def _iroot(n, k):
    """Largest m with m**k <= n, by Newton's method from above."""
    if n < 2:
        return n
    m = 1 << (n.bit_length() // k + 1)
    while True:
        t = ((k - 1) * m + n // m ** (k - 1)) // k
        if t >= m:
            return m
        m = t


class FreeGroup(Group):
    """Free group of finite rank; elements are reduced words.

    Generators are named a, b, c, ... and a word is a tuple of nonzero ints
    whose absolute value names the generator and whose sign the exponent.
    Canonical enumeration is shortlex with letter order a < a^-1 < b < b^-1.
    """

    def __init__(self, rank):
        if not (1 <= rank <= 26):
            raise InputError("free group rank must be between 1 and 26")
        self.rank = rank
        self.name = f"free({rank})"
        # letters in canonical order: +1, -1, +2, -2, ...
        self._letters = tuple(
            s * g for g in range(1, rank + 1) for s in (1, -1)
        )
        self._letter_rank = {v: i for i, v in enumerate(self._letters)}

    @property
    def identity(self):
        return ()

    def contains(self, w):
        if not isinstance(w, tuple):
            return False
        for i, v in enumerate(w):
            if (type(v) is not int and (not isinstance(v, int) or isinstance(v, bool))
                    or v == 0 or abs(v) > self.rank):
                return False
            if i and w[i - 1] == -v:
                return False
        return True

    def mul(self, a, b):
        """The reduced product.  When either word is empty, or a's last
        letter does not cancel b's first, it is the concatenation; only a
        cancelling junction runs the cancellation loop."""
        if not a:
            return b
        if not b or a[-1] != -b[0]:
            return a + b
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a):
        return tuple(-v for v in reversed(a))

    def generator(self, k):
        """k-th generator, 1-based."""
        if not (1 <= k <= self.rank):
            raise InputError(f"generator index {k} out of range")
        return (k,)

    # shortlex walk and rank/unrank ---------------------------------------
    def _count_words(self, length):
        a = 2 * self.rank
        return 1 if length == 0 else a * (a - 1) ** (length - 1)

    def walk(self):
        """Reduced words in shortlex order: shell k + 1 extends each word of
        shell k, in order, by each non-cancelling letter in canonical order."""
        yield ()
        follow = {v: tuple(u for u in self._letters if u != -v) for v in self._letters}
        shell = [(v,) for v in self._letters]
        yield from shell
        while True:
            nxt = []
            for w in shell:
                for v in follow[w[-1]]:
                    u = w + (v,)
                    nxt.append(u)
                    yield u
            shell = nxt

    # The 0-based position of a one-letter word is 1 + the letter's order;
    # that of w·v with |w| >= 1 is (2·rank - 1)·pos(w) + 2 + the order of v
    # among the letters that do not cancel w's last letter.

    def position_of(self, w):
        """1-based shortlex position of a reduced word."""
        if not self.contains(w):
            raise InputError(f"not a reduced word: {w!r}")
        q = 2 * self.rank - 1
        n = 0
        for i, v in enumerate(w):
            order = self._letter_rank[v]
            if i:
                banned = self._letter_rank[-w[i - 1]]
                order -= 1 if order > banned else 0
                n = q * n + 2 + order
            else:
                n = order + 1
        return n + 1

    def element_at(self, pos):
        if type(pos) is not int or pos < 1:
            pos = _position(pos)
        n = pos - 1
        q = 2 * self.rank - 1
        orders = []
        while n > q + 1:  # two letters or more: peel the last one off
            n, order = divmod(n - 2, q)
            orders.append(order)
        if n == 0:
            return ()
        word = [self._letters[n - 1]]
        for order in reversed(orders):
            banned = self._letter_rank[-word[-1]]
            word.append(self._letters[order + 1 if order >= banned else order])
        return tuple(word)

    def ball(self, radius):
        """Window of all reduced words of length <= radius, shortlex order."""
        if radius < 0:
            raise InputError("radius must be >= 0")
        size = sum(self._count_words(l) for l in range(radius + 1))
        pts = tuple(itertools.islice(self.walk(), size))
        return Window(f"ball({radius})", pts)

    # element syntax ------------------------------------------------------
    def _gen_name(self, k):
        return string.ascii_lowercase[k - 1]

    def parse(self, token):
        token = token.strip()
        if token in ("e", "1", ""):
            return ()
        word = ()
        for part in token.split("*"):
            part = part.strip()
            if "^" in part:
                base, _, expt = part.partition("^")
                try:
                    n = int(expt)
                except ValueError:
                    raise InputError(f"bad exponent in {token!r}") from None
            else:
                base, n = part, 1
            base = base.strip()
            k = string.ascii_lowercase.find(base) + 1
            if not (1 <= k <= self.rank):
                raise InputError(f"unknown generator {base!r} in {token!r}")
            word = self.mul(word, (k,) * n if n >= 0 else (-k,) * (-n))
        return word

    def format(self, w):
        if not w:
            return "e"
        parts = []
        for v, run in itertools.groupby(w):
            n = len(list(run))
            g = self._gen_name(abs(v))
            if v < 0:
                n = -n
            parts.append(g if n == 1 else f"{g}^{n}")
        return "*".join(parts)


class FreeAbelianGroup(Group):
    """Free abelian group Z^k; rank 1 uses bare integers as elements.

    Canonical enumeration orders elements by box shell (max-norm), breaking
    ties coordinatewise by the zigzag order 0 < 1 < -1 < 2 < ...; for rank 1
    this is exactly 0, 1, -1, 2, -2, ...

    For rank 1, ``position_of`` and ``element_at`` compute the zigzag index
    inline, and ``position_of`` asks ``contains`` only about an argument
    whose type is not exactly ``int``.
    """

    def __init__(self, rank):
        if rank < 1:
            raise InputError("free-abelian rank must be >= 1")
        self.rank = rank
        self.name = f"free-abelian({rank})"
        # rank >= 2: shell r and its vector -> index map, built on first use
        self._shells = {}
        self._indices = {}

    @property
    def identity(self):
        return 0 if self.rank == 1 else (0,) * self.rank

    def contains(self, v):
        if self.rank == 1:
            return isinstance(v, int) and not isinstance(v, bool)
        return (
            isinstance(v, tuple)
            and len(v) == self.rank
            and all(isinstance(c, int) and not isinstance(c, bool) for c in v)
        )

    def mul(self, a, b):
        if self.rank == 1:
            return a + b
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        if self.rank == 1:
            return -a
        return tuple(map(operator.neg, a))

    def generator(self, k):
        if not (1 <= k <= self.rank):
            raise InputError(f"generator index {k} out of range")
        if self.rank == 1:
            return 1
        return tuple(1 if i == k - 1 else 0 for i in range(self.rank))

    def _shell(self, r):
        """Vectors of max-norm exactly r, in zigzag-lex order (rank >= 2).

        Built from the last coordinate up: a vector whose first coordinate c
        has |c| < r goes on in the shell of one rank less, one with |c| = r
        anywhere in the box of one rank less."""
        shell = self._shells.get(r)
        if shell is None:
            if r == 0:
                shell = ((0,) * self.rank,)
            else:
                line = (0, *itertools.chain.from_iterable((c, -c) for c in range(1, r + 1)))
                shell = [(r,), (-r,)]
                for m in range(1, self.rank):
                    box = list(itertools.product(line, repeat=m))
                    shell = [(c, *t) for c in line for t in (box if abs(c) == r else shell)]
                shell = tuple(shell)
            self._shells[r] = shell
        return shell

    def _shell_index(self, r):
        """vector -> 0-based index in ``_shell(r)``."""
        index = self._indices.get(r)
        if index is None:
            index = self._indices[r] = {v: i for i, v in enumerate(self._shell(r))}
        return index

    def _inside(self, r):
        """Number of vectors of max-norm < r: the box of radius r - 1."""
        return (2 * r - 1) ** self.rank if r else 0

    def walk(self):
        if self.rank == 1:
            return map(codec.zigzag_value, itertools.count())
        return itertools.chain.from_iterable(map(self._shell, itertools.count()))

    def element_at(self, pos):
        if type(pos) is not int or pos < 1:
            pos = _position(pos)
        if self.rank == 1:
            half = pos // 2
            return -half if pos % 2 else half
        n = pos - 1
        # the least r with n < (2r + 1)^k
        r = (_iroot(n, self.rank) + 1) // 2
        return self._shell(r)[n - self._inside(r)]

    def position_of(self, v):
        if self.rank == 1:
            if type(v) is int or self.contains(v):
                return 2 * v if v > 0 else 1 - 2 * v
        elif self.contains(v):
            r = max(map(abs, v))
            return self._inside(r) + self._shell_index(r)[v] + 1
        raise InputError(f"not an element of {self.name}: {v!r}")

    def box(self, radius):
        """Window of all vectors with every coordinate in [-radius, radius],
        listed in canonical enumeration order."""
        if radius < 0:
            raise InputError("radius must be >= 0")
        pts = tuple(itertools.islice(self.walk(), (2 * radius + 1) ** self.rank))
        return Window(f"box({radius})", pts)

    def parse(self, token):
        token = token.strip()
        try:
            if self.rank == 1:
                return int(token)
            if not (token.startswith("[") and token.endswith("]")):
                raise ValueError
            v = tuple(int(p) for p in token[1:-1].split(",")) if token[1:-1].strip() else ()
            if len(v) != self.rank:
                raise ValueError
            return v
        except ValueError:
            raise InputError(f"bad element {token!r} for {self.name}") from None

    def format(self, v):
        if self.rank == 1:
            return str(v)
        return "[" + ",".join(str(c) for c in v) + "]"


class EnumeratedGroup(Group):
    """Countable group given by oracles over 0-based natural indices.

    ``mul_index`` and ``inv_index`` are pure functions on indices, and an
    element is formatted as its index.  The identity's index must be a fixed
    point of the oracles in the usual way; windows of tests enforce
    mul(i, identity) = i and mul(inv(i), i) = identity.
    """

    def __init__(self, mul_index, inv_index, identity_index=0, name="enumerated"):
        self._mul = mul_index
        self._inv = inv_index
        self._identity = identity_index
        self.name = name

    @property
    def identity(self):
        return self._identity

    def contains(self, a):
        return isinstance(a, int) and not isinstance(a, bool) and a >= 0

    def mul(self, a, b):
        return self._mul(a, b)

    def inv(self, a):
        return self._inv(a)

    def element_at(self, pos):
        if type(pos) is not int or pos < 1:
            pos = _position(pos)
        return pos - 1

    def position_of(self, a):
        if not self.contains(a):
            raise InputError(f"not an element index: {a!r}")
        return a + 1

    def parse(self, token):
        try:
            v = int(token)
        except ValueError:
            raise InputError(f"bad element index {token!r}") from None
        if v < 0:
            raise InputError("element index must be >= 0")
        return v

    def format(self, a):
        return str(a)


def even_integers_enumerated():
    """The even integers under addition, indexed 0, 2, -2, 4, -4, ..."""

    def value(a):
        return 2 * codec.zigzag_value(a)

    def mul(a, b):
        return codec.zigzag_position((value(a) + value(b)) // 2)

    def inv(a):
        return codec.zigzag_position(-codec.zigzag_value(a))

    return EnumeratedGroup(mul, inv, 0, name="enumerated-even-integers")


# ---------------------------------------------------------------------------
# finite group utilities


def closure(group, elements):
    """Subgroup generated by ``elements`` inside a finite group (BFS over
    products with the generators and their inverses)."""
    if not group.is_finite:
        raise UnsupportedOperationError("closure requires a finite group")
    gens = set(elements) | {group.inv(x) for x in elements} | {group.identity}
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def is_generating(group, elements):
    """Whether ``elements`` generate the whole group.  Decidable only for
    finite groups; infinite groups must carry a caller assertion instead."""
    if not group.is_finite:
        raise UnsupportedOperationError(
            "generation is undecidable here; assert it on the configuration pair"
        )
    return len(closure(group, elements)) == group.order()


def subgroups(group):
    """All subgroups of a finite group, as frozensets of element indices."""
    if not group.is_finite:
        raise UnsupportedOperationError("subgroup enumeration requires a finite group")
    n = group.order()
    elems = group.elements()
    e = group.identity
    found = {frozenset([e]), frozenset(elems)}
    # grow from generated subgroups; order <= 12 keeps this cheap
    layer = {frozenset([e])}
    while layer:
        nxt = set()
        for sub in layer:
            for x in elems:
                if x in sub:
                    continue
                bigger = closure(group, set(sub) | {x})
                if bigger not in found:
                    found.add(bigger)
                    nxt.add(bigger)
        layer = nxt
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_normal(group, subset):
    """Whether x S x^-1 = S for every x.  Conjugation is injective, so for S
    within the group that holds iff every conjugate lies in S: |G| |S|
    membership tests, no set built per x."""
    sub = frozenset(subset)
    elements = group.elements()
    mul, inv = group.mul, group.inv
    return sub.issubset(elements) and all(
        mul(mul(x, s), xi) in sub
        for x, xi in zip(elements, map(inv, elements))
        for s in sub
    )


def normal_subgroups(group):
    return [s for s in subgroups(group) if is_normal(group, s)]


def quotient_group(group, normal):
    """Quotient of a finite group by a normal subgroup.

    Returns (quotient, cosets, representatives) where cosets is the tuple of
    left cosets ordered with the identity coset first and then by smallest
    member, and representatives picks the identity for the identity coset
    and the smallest member otherwise.  The quotient is table-backed with
    indices aligned to the coset order.
    """
    normal = frozenset(normal)
    if not is_normal(group, normal):
        raise PreconditionError("subgroup is not normal")
    mul = group.mul
    if group.identity not in normal or not all(
        mul(a, b) in normal for a in normal for b in normal
    ):
        raise PreconditionError("conjugation-closed set is not a subgroup")
    coset_of = {}
    cosets = []
    for x in group.elements():
        if x in coset_of:
            continue
        cs = frozenset(group.mul(x, s) for s in normal)
        for y in cs:
            coset_of[y] = cs
        cosets.append(cs)
    e = group.identity
    cosets.sort(key=lambda c: (e not in c, min(c)))
    index = {c: i for i, c in enumerate(cosets)}
    reps = tuple(e if e in c else min(c) for c in cosets)
    table = [
        [index[coset_of[group.mul(a, b)]] for b in reps] for a in reps
    ]
    labels = ["{" + ",".join(group.format(x) for x in sorted(c)) + "}" for c in cosets]
    q = CayleyTableGroup(table, 0, labels, name=f"{group.name}-quotient")
    return q, tuple(cosets), reps


def direct_product(a, b, name=None):
    """Direct product of two table-backed groups; element (x, y) has index
    x * |b| + y."""
    na, nb = a.order(), b.order()
    table = [
        [
            a.mul(x1, x2) * nb + b.mul(y1, y2)
            for x2 in range(na)
            for y2 in range(nb)
        ]
        for x1 in range(na)
        for y1 in range(nb)
    ]
    labels = [
        f"({a.label(x)},{b.label(y)})" for x in range(na) for y in range(nb)
    ]
    return CayleyTableGroup(
        table,
        a.identity * nb + b.identity,
        labels,
        name or f"{a.name}x{b.name}",
    )
