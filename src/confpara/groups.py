"""Group representations and finite verification windows.

Element conventions:

* table-backed and oracle-backed (enumerated) groups: elements are 0-based
  integer indices into a fixed enumeration (no package code builds an
  enumerated group: the subgroup witnesses of ``paradox`` present 2Z and
  the powers of a free generator as the free-abelian group of rank 1, its
  integer k standing for 2k or for a^k);
* free groups: reduced words stored as tuples of signed generator numbers
  (``1`` = first generator, ``-1`` = its inverse, ``2`` = second, ...);
* free-abelian groups: plain integers for rank 1, integer tuples otherwise;
* wherever the package takes an integer argument, ``_require_int`` checks
  it: the type first (``_is_int``: a bool is refused and other int
  subclasses are kept), then the range.

Group objects are immutable after construction and safe to share; the one
cache, a free-abelian group's table of its walked prefix, only grows, and
growing it twice by the same shell writes the same entries.  Countable
groups expose a canonical enumeration (``element_at`` / ``position_of``,
1-based) used by prefix windows and by the decomposition constructors:
shortlex order for free groups, box-shell order (zigzag within a shell) for
free-abelian groups, the oracle's own indexing for enumerated groups.
``walk`` yields the enumeration in order, and every window (``ball``,
``box``, ``prefix_window``) is a prefix of it, so a window costs O(window).
A free group's walk extends each shell of words by one letter, in order,
and its rank checks and ranks a word in one pass, in O(word length).  A
free-abelian walk generates each shell in its own order into the table, so
a rank or unrank inside the walked prefix is a table read, and one further
out is computed in closed form in O(rank).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

from . import codec
from .errors import InputError, PreconditionError, UnsupportedOperationError


def _is_int(v):
    """Whether ``v`` is taken as an integer: a block index, an enumeration
    position, a piece or translator index, a rank, a radius, a size or a
    bound.  A bool is refused everywhere, and other int subclasses are kept.
    Hot callers test ``type(v) is int`` first and call this only behind it."""
    return type(v) is int or isinstance(v, int) and not isinstance(v, bool)


def _require_int(what, v, minimum=None, maximum=None):
    """``v`` when ``_is_int(v)``, at least ``minimum`` and at most ``maximum``
    (each when given; ``maximum`` only with ``minimum``); otherwise the
    InputError naming ``what``.  The type is tested first, so a value that
    is no integer is never compared."""
    if not _is_int(v):
        raise InputError(f"{what} must be an integer, got {v!r}")
    if maximum is not None and not minimum <= v <= maximum:
        raise InputError(f"{what} must be between {minimum} and {maximum}")
    if minimum is not None and v < minimum:
        raise InputError(f"{what} must be >= {minimum}")
    return v


@dataclass(frozen=True)
class Window:
    """A finite, canonically ordered list of elements (or action points)
    against which semidecidable claims are checked."""

    label: str
    points: tuple

    @classmethod
    def prefix(cls, walk, count):
        """The first ``count`` points of the iterator ``walk``."""
        _require_int("window size", count, 0)
        return cls(f"prefix({count})", tuple(itertools.islice(walk, count)))

    @cached_property
    def point_set(self):
        return frozenset(self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class Group:
    """Common interface; concrete classes fill in the element conventions
    and define ``identity``, ``mul``, ``inv``, ``contains``, ``parse`` and
    ``format``."""

    name = "group"
    is_finite = False

    def order(self):
        raise UnsupportedOperationError(f"{self.name} is not finite")

    def elements(self):
        """Canonically ordered tuple of all elements (finite groups only)."""
        raise UnsupportedOperationError(f"{self.name} is not finite")

    def walk(self):
        """The canonical enumeration from position 1 on, as an iterator."""
        return map(self.element_at, itertools.count(1))

    def prefix_window(self, count):
        """First ``count`` elements of the canonical enumeration."""
        if self.is_finite and _require_int("window size", count, 0) > self.order():
            raise InputError(
                f"prefix window of {count} elements is longer than {self.name}, "
                f"of order {self.order()}"
            )
        return Window.prefix(self.walk(), count)


class CayleyTableGroup(Group):
    """Finite group given by its full multiplication table over indices 0..n-1.

    The table must be a Latin square with a two-sided identity and inverses.
    Associativity is not checked here: ``schemas.build_group`` checks it for a
    ``table`` manifest, and any other caller is responsible for it.
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
        e = _require_int("identity index", identity_index, 0, n - 1)
        for i in rng:
            if table[e][i] != i or table[i][e] != i:
                raise InputError(f"index {e} is not a two-sided identity")
        self.table = table
        self._identity = e
        self._inv = tuple(row.index(e) for row in table)  # each row is a permutation
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
        return _is_int(a) and 0 <= a < self._n

    def element_at(self, pos):
        if type(pos) is not int or not (1 <= pos <= self._n):
            pos = int(_require_int("enumeration position", pos, 1, self._n))
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


def _cycles(perm):
    """The cycles of a permutation of 0..n-1, fixed points included, each
    from its least point, in the order of those points."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = perm[i]
        if cyc:
            cycles.append(cyc)
    return cycles


def _cycle_label(perm):
    parts = ["(" + " ".join(str(c + 1) for c in cyc) + ")"
             for cyc in _cycles(perm) if len(cyc) > 1]
    return "".join(parts) or "()"


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


# ``_EXACT_INT.issuperset(map(type, v))``: every item of v is exactly an int,
# tested in C; a bool or another int subclass fails it and takes the slow path
_EXACT_INT = frozenset({int})

# the lowercase letters but "e", the identity's token, which no generator takes
_GENERATOR_NAMES = "abcdfghijklmnopqrstuvwxyz"


class FreeGroup(Group):
    """Free group of finite rank; elements are reduced words.

    Generators are named a, b, c, d, f, ... ("e" names the identity), up to
    rank 25, and a word is a tuple of nonzero ints whose absolute value
    names the generator and whose sign the exponent.
    Canonical enumeration is shortlex with letter order a < a^-1 < b < b^-1.
    """

    def __init__(self, rank):
        _require_int("free group rank", rank, 1, len(_GENERATOR_NAMES))
        self.rank = rank
        self.name = f"free({rank})"
        # letters in canonical order: +1, -1, +2, -2, ...
        self._letters = tuple(
            s * g for g in range(1, rank + 1) for s in (1, -1)
        )
        # the shortlex rule, stated once: the letters that may follow u, in order
        self._after = {u: tuple(v for v in self._letters if v != -u) for u in self._letters}
        # the rank's summands (see position_of): letter -> step as the first
        # letter, and after each letter u, each letter that may follow it -> step
        self._first_steps = {v: i + 1 for i, v in enumerate(self._letters)}
        self._steps_after = {
            u: {v: i + 2 for i, v in enumerate(after)}
            for u, after in self._after.items()
        }

    @property
    def identity(self):
        return ()

    def contains(self, w):
        """Whether ``w`` is a reduced word: exactly when ``position_of`` ranks it."""
        try:
            self.position_of(w)
        except InputError:
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
        return (_require_int("generator index", k, 1, self.rank),)

    # shortlex walk and rank/unrank ---------------------------------------
    def _count_words(self, length):
        a = 2 * self.rank
        return 1 if length == 0 else a * (a - 1) ** (length - 1)

    def walk(self):
        """Reduced words in shortlex order: shell k + 1 extends each word of
        shell k, in order, by each non-cancelling letter in canonical order."""
        yield ()
        after = self._after
        shell = [(v,) for v in self._letters]
        yield from shell
        while True:
            nxt = []
            for w in shell:
                for v in after[w[-1]]:
                    u = w + (v,)
                    nxt.append(u)
                    yield u
            shell = nxt

    # The 0-based position of a one-letter word is 1 + the letter's order;
    # that of w·v with |w| >= 1 is (2·rank - 1)·pos(w) + 2 + the order of v
    # among the letters that do not cancel w's last letter.

    def position_of(self, w):
        """1-based shortlex position of a reduced word, checked and ranked in
        one pass: a letter that is not an integer, names no generator or
        cancels the letter before it has no step, and ends the pass."""
        if isinstance(w, tuple):
            q = 2 * self.rank - 1
            after = self._steps_after
            steps = self._first_steps
            n = 0
            for v in w:
                if type(v) is not int and not _is_int(v):
                    break
                step = steps.get(v)
                if step is None:
                    break
                n = q * n + step
                steps = after[v]
            else:
                return n + 1
        raise InputError(f"not a reduced word: {w!r}")

    def element_at(self, pos):
        if type(pos) is not int or pos < 1:
            pos = int(_require_int("enumeration position", pos, 1))
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
            word.append(self._after[word[-1]][order])
        return tuple(word)

    def ball(self, radius):
        """Window of all reduced words of length <= radius, shortlex order."""
        _require_int("radius", radius, 0)
        size = sum(self._count_words(l) for l in range(radius + 1))
        pts = tuple(itertools.islice(self.walk(), size))
        return Window(f"ball({radius})", pts)

    # element syntax ------------------------------------------------------
    def _gen_name(self, k):
        return _GENERATOR_NAMES[k - 1]

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
            # one letter: find() would read "" as a and "ab" as a
            k = _GENERATOR_NAMES.find(base) + 1 if len(base) == 1 else 0
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

    For rank >= 2 the group keeps one table of the canonical prefix walked so
    far: the vectors in order, and each vector's position.  ``walk`` (so
    ``box`` and ``prefix_window``) grows it one shell at a time, by the shell
    generator ``_shell``, and so does a rank or unrank in the shell just past
    its end; within it a rank or unrank is a table read.  Further out both
    are computed in closed form in O(k) and the table does not grow.  The
    table grows by writing shell r at its own offset, so growing it twice by
    the same shell (two walks, or two threads) writes the same entries
    twice, and the group stays safe to share.
    """

    def __init__(self, rank):
        _require_int("free-abelian rank", rank, 1)
        self.rank = rank
        self.name = f"free-abelian({rank})"
        # rank >= 2: the walked prefix, position - 1 -> vector and
        # vector -> position
        self._walked = []
        self._positions = {}

    @property
    def identity(self):
        return 0 if self.rank == 1 else (0,) * self.rank

    def contains(self, v):
        if self.rank == 1:
            return _is_int(v)
        return isinstance(v, tuple) and len(v) == self.rank and all(map(_is_int, v))

    def mul(self, a, b):
        if self.rank == 1:
            return a + b
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        if self.rank == 1:
            return -a
        return tuple(map(operator.neg, a))

    def _shell(self, r):
        """Vectors of max-norm exactly r, in zigzag-lex order (rank >= 2).

        Built from the last coordinate up: a vector whose first coordinate c
        has |c| < r goes on in the shell of one rank less, one with |c| = r
        anywhere in the box of one rank less."""
        if r == 0:
            return [(0,) * self.rank]
        line = (0, *itertools.chain.from_iterable((c, -c) for c in range(1, r + 1)))
        shell = [(r,), (-r,)]
        for m in range(1, self.rank):
            box = list(itertools.product(line, repeat=m))
            shell = [(c, *t) for c in line for t in (box if abs(c) == r else shell)]
        return shell

    def _inside(self, r):
        """Number of vectors of max-norm < r: the box of radius r - 1."""
        return (2 * r - 1) ** self.rank if r else 0

    def _walks_to(self, r):
        """Whether the table holds shell r, once it has grown by shell r if
        that is the shell just past its end."""
        start = self._inside(r)
        walked = self._walked
        if len(walked) == start:
            shell = self._shell(r)
            walked[start:start + len(shell)] = shell
            self._positions.update(zip(shell, itertools.count(start + 1)))
        return len(walked) > start

    def _walked_shell(self, r):
        """Shell r, read from the table, which has grown by it if need be."""
        self._walks_to(r)
        return self._walked[self._inside(r):self._inside(r + 1)]

    # Closed form for shell r >= 1, with a = 2r - 1 and b = 2r + 1.  The
    # values |c| <= r of a coordinate take the zigzag positions 0..2r, r and
    # -r the last two (a and a + 1).  Fix a vector's first coordinates and
    # let m follow.  Before its first coordinate of absolute value r, the m
    # others must still reach the shell, in b^m - a^m ways; from it on they
    # are free in the box, in b^m ways.  So the vectors of the shell that
    # share the earlier coordinates and come first number zigzag(c)·(b^m -
    # a^m) for a coordinate c before that one, a·(b^m - a^m) for that one,
    # plus b^m when it is -r, and zigzag(c)·b^m for a coordinate after it.

    def _index_in_shell(self, v, r):
        """0-based index of ``v`` in shell r >= 1, in O(k)."""
        a, b = 2 * r - 1, 2 * r + 1
        first = list(map(abs, v)).index(r)
        index = 0
        box = inner = 1  # b^m and a^m, m the coordinates after i
        for i in range(self.rank - 1, -1, -1):
            c = v[i]
            if i > first:
                index += codec.zigzag_position(c) * box
            elif i == first:
                index += a * (box - inner) + (box if c < 0 else 0)
            else:
                index += codec.zigzag_position(c) * (box - inner)
            box *= b
            inner *= a
        return index

    def _vector_in_shell(self, r, index):
        """The vector at 0-based ``index`` of shell r >= 1, in O(k): the
        inverse of ``_index_in_shell``, from the first coordinate on."""
        a, b = 2 * r - 1, 2 * r + 1
        box, inner = b ** (self.rank - 1), a ** (self.rank - 1)
        v = []
        reached = False
        for _ in range(self.rank):
            if reached:
                z, index = divmod(index, box)
                v.append(codec.zigzag_value(z))
            elif index < a * (box - inner):
                z, index = divmod(index, box - inner)
                v.append(codec.zigzag_value(z))
            else:
                index -= a * (box - inner)
                reached = True
                if index < box:
                    v.append(r)
                else:
                    index -= box
                    v.append(-r)
            box //= b
            inner //= a
        return tuple(v)

    def walk(self):
        if self.rank == 1:
            return map(codec.zigzag_value, itertools.count())
        return itertools.chain.from_iterable(map(self._walked_shell, itertools.count()))

    def element_at(self, pos):
        if type(pos) is not int or pos < 1:
            pos = int(_require_int("enumeration position", pos, 1))
        if self.rank == 1:
            half = pos // 2
            return -half if pos % 2 else half
        return self._vector_at(pos)

    def _vector_at(self, pos):
        if pos <= len(self._walked):
            return self._walked[pos - 1]
        n = pos - 1
        # the least r with n < (2r + 1)^k
        r = (_iroot(n, self.rank) + 1) // 2
        if self._walks_to(r):
            return self._walked[n]
        return self._vector_in_shell(r, n - self._inside(r))

    def position_of(self, v):
        if self.rank == 1:
            if type(v) is int or self.contains(v):
                return 2 * v if v > 0 else 1 - 2 * v
        elif (type(v) is tuple and len(v) == self.rank and _EXACT_INT.issuperset(map(type, v))
              or self.contains(v)):
            return self._vector_position(v)
        raise InputError(f"not an element of {self.name}: {v!r}")

    def _vector_position(self, v):
        pos = self._positions.get(v)
        if pos is None:
            r = max(map(abs, v))
            if self._walks_to(r):
                return self._positions[v]
            pos = self._inside(r) + self._index_in_shell(v, r) + 1
        return pos

    def box(self, radius):
        """Window of all vectors with every coordinate in [-radius, radius],
        listed in canonical enumeration order."""
        _require_int("radius", radius, 0)
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
        return _is_int(a) and a >= 0

    def mul(self, a, b):
        return self._mul(a, b)

    def inv(self, a):
        return self._inv(a)

    def element_at(self, pos):
        if type(pos) is not int or pos < 1:
            pos = int(_require_int("enumeration position", pos, 1))
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
        return _require_int("element index", v, 0)

    def format(self, a):
        return str(a)


# ---------------------------------------------------------------------------
# finite group utilities
#
# Every finite group is a CayleyTableGroup, whose mul(a, b) is table[a][b]:
# the routines below read the table instead, each product one subscript with
# the row of a fixed left factor read once, and only after their finiteness
# guard or elements() call, so an infinite group raises as it always has.


def closure(group, elements):
    """Subgroup generated by ``elements`` inside a finite group (BFS over
    products with the generators and their inverses)."""
    if not group.is_finite:
        raise UnsupportedOperationError("closure requires a finite group")
    gens = set(elements) | {group.inv(x) for x in elements} | {group.identity}
    seen = set(gens)
    frontier = list(gens)
    t = group.table
    while frontier:
        nxt = []
        for x in frontier:
            row = t[x]
            for g in gens:
                y = row[g]
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


def _normality_witness(group, subset):
    """The first x with x S x^-1 != S, the first element when S is not
    within the group, or None when S is normal.  Conjugation is injective,
    so for S within the group x S x^-1 = S iff every conjugate lies in S:
    |G| |S| membership tests, no set built per x."""
    sub = frozenset(subset)
    elements = group.elements()
    if not sub.issubset(elements):
        return elements[0]
    t = group.table
    for x in elements:
        row, xi = t[x], group.inv(x)
        if not all(t[row[s]][xi] in sub for s in sub):
            return x
    return None


def is_normal(group, subset):
    """Whether x S x^-1 = S for every x."""
    return _normality_witness(group, subset) is None


def normal_subgroups(group):
    return [s for s in subgroups(group) if is_normal(group, s)]


def _cosets(group, normal):
    """The left cosets of ``normal`` in a finite group, in order of their
    least member, and the map from each element to its coset; a
    PreconditionError unless ``normal`` is a normal subgroup."""
    normal = frozenset(normal)
    if not is_normal(group, normal):
        raise PreconditionError("subgroup is not normal")
    t = group.table
    if group.identity not in normal or not all(
        normal.issuperset(map(t[a].__getitem__, normal)) for a in normal
    ):
        raise PreconditionError("conjugation-closed set is not a subgroup")
    coset_of = {}
    cosets = []
    for x in group.elements():
        if x in coset_of:
            continue
        cs = frozenset(map(t[x].__getitem__, normal))
        for y in cs:
            coset_of[y] = cs
        cosets.append(cs)
    return cosets, coset_of


def quotient_group(group, normal):
    """Quotient of a finite group by a normal subgroup.

    Returns (quotient, cosets, representatives) where cosets is the tuple of
    left cosets ordered with the identity coset first and then by smallest
    member, and representatives picks the identity for the identity coset
    and the smallest member otherwise.  The quotient is table-backed with
    indices aligned to the coset order.
    """
    cosets, coset_of = _cosets(group, normal)
    e = group.identity
    cosets.sort(key=lambda c: (e not in c, min(c)))
    index = {c: i for i, c in enumerate(cosets)}
    reps = tuple(e if e in c else min(c) for c in cosets)
    t = group.table
    table = [
        [index[coset_of[row[b]]] for b in reps] for row in map(t.__getitem__, reps)
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
