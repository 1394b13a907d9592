"""Left actions of groups on point sets, with window plumbing for countable
point sets.

Supported kinds: left translation of a group on itself, finite explicit
tables, trivial actions (finite or countable point sets), and product
actions X x I with the group acting on the first coordinate only.
"""

from __future__ import annotations

import itertools

from .errors import InputError, UnsupportedOperationError
from .groups import (
    FreeAbelianGroup,
    FreeGroup,
    Group,
    Window,
    _require_int,
)


class Action:
    """Common interface; concrete classes define ``act(g, x)`` and
    ``parse_point``."""

    group: Group
    is_finite_points = False

    def points(self):
        raise UnsupportedOperationError("point set is not finite")

    def format_point(self, x):
        return str(x)

    def all_window(self):
        pts = tuple(self.points())
        return Window(f"all({len(pts)})", pts)

    def window(self, spec):
        """Build a window from a small dict spec: {"all": true}, {"ball": r},
        {"box": r}, {"prefix": n}, optionally {"indices": [lo, hi]} for
        product actions."""
        raise InputError(f"no window of kind {spec!r} for this action")


class LeftTranslation(Action):
    """The group acting on itself by left multiplication."""

    def __init__(self, group):
        self.group = group
        self.is_finite_points = group.is_finite
        self.act = group.mul  # one call per act; shadows the method below

    def act(self, g, x):
        return self.group.mul(g, x)

    def points(self):
        return self.group.elements()

    def parse_point(self, token):
        return self.group.parse(token)

    def format_point(self, x):
        return self.group.format(x)

    def window(self, spec):
        g = self.group
        keys = set(spec)
        if keys == {"all"}:
            if not g.is_finite:
                raise InputError("'all' window requires a finite group")
            return self.all_window()
        if keys == {"ball"} and isinstance(g, FreeGroup):
            return g.ball(spec["ball"])
        if keys == {"box"} and isinstance(g, FreeAbelianGroup):
            return g.box(spec["box"])
        if keys == {"prefix"}:
            return g.prefix_window(spec["prefix"])
        raise InputError(f"no window of kind {sorted(keys)} for {g.name}")


def _listed_point(points, token):
    """The point of a finite listed point set that ``token`` names: the
    point itself, or an integer point by its digits."""
    token = token.strip()
    if token in points:
        return token
    try:
        if int(token) in points:
            return int(token)
    except ValueError:
        pass
    raise InputError(f"unknown point {token!r}")


class TableAction(Action):
    """Finite action given by a table: row per group element index, column
    per point index."""

    is_finite_points = True

    def __init__(self, group, points, table):
        if not group.is_finite:
            raise InputError("table actions require a finite group")
        self.group = group
        self._points = tuple(points)
        self._index = {p: i for i, p in enumerate(self._points)}
        if len(self._index) != len(self._points):
            raise InputError("duplicate points in action table")
        n, k = group.order(), len(self._points)
        table = tuple(tuple(row) for row in table)
        if len(table) != n or any(len(r) != k for r in table):
            raise InputError("action table has wrong shape")
        full = frozenset(range(k))
        for g, row in enumerate(table):
            if frozenset(row) != full:
                raise InputError(f"action row {g} is not a permutation of the points")
        e = group.identity
        if any(table[e][i] != i for i in range(k)):
            raise InputError("identity row of action table must fix every point")
        for g in group.elements():
            for h in group.elements():
                gh = group.mul(g, h)
                if any(table[gh][i] != table[g][table[h][i]] for i in range(k)):
                    raise InputError(
                        f"action table is not compatible with the group "
                        f"(rows {g} and {h})"
                    )
        self._table = table

    def act(self, g, x):
        return self._points[self._table[g][self._index[x]]]

    def points(self):
        return self._points

    def parse_point(self, token):
        return _listed_point(self._index, token)

    def window(self, spec):
        if set(spec) == {"all"}:
            return self.all_window()
        raise InputError("finite table actions only support the 'all' window")


class TrivialAction(Action):
    """Every group element fixes every point.  Points are either an explicit
    finite tuple or the naturals (countable mode)."""

    def __init__(self, group, points=None, countable=False):
        self.group = group
        self._countable = bool(countable)
        if self._countable:
            if points is not None:
                raise InputError("countable trivial action takes no explicit points")
            self._points = None
        else:
            if points is None:
                raise InputError("trivial action needs points or countable=True")
            self._points = tuple(points)
            if len(set(self._points)) != len(self._points):
                raise InputError("duplicate points")
            self.is_finite_points = True

    def act(self, g, x):
        return x

    def points(self):
        if self._points is None:
            raise UnsupportedOperationError("point set is not finite")
        return self._points

    def parse_point(self, token):
        if not self._countable:
            return _listed_point(self._points, token)
        try:
            v = int(token)
        except ValueError:
            raise InputError(f"bad point {token.strip()!r}") from None
        if v < 0:
            raise InputError("points are natural numbers")
        return v

    def window(self, spec):
        keys = set(spec)
        if keys == {"all"} and not self._countable:
            return self.all_window()
        if keys == {"prefix"} and self._countable:
            return Window.prefix(itertools.count(), spec["prefix"])
        raise InputError(f"no window of kind {sorted(keys)} for trivial action")


class ProductAction(Action):
    """Product of a base action with a fixed index set the group ignores:
    g . (x, i) = (g . x, i)."""

    def __init__(self, base, index_count=None):
        if index_count is not None:  # None means countable N
            _require_int("copy count", index_count, 1)
        self.base = base
        self.group = base.group
        self.index_count = index_count
        self.is_finite_points = base.is_finite_points and index_count is not None

    def act(self, g, x):
        y, i = x
        return (self.base.act(g, y), i)

    def points(self):
        if not self.is_finite_points:
            raise UnsupportedOperationError("point set is not finite")
        return tuple(
            (y, i) for i in range(self.index_count) for y in self.base.points()
        )

    def parse_point(self, token):
        token = token.strip()
        if not (token.startswith("(") and token.endswith(")")):
            raise InputError(f"bad product point {token!r}; expected (base;index)")
        left, _, right = token[1:-1].partition(";")
        y = self.base.parse_point(left)
        try:
            i = int(right)
        except ValueError:
            raise InputError(f"bad index in product point {token!r}") from None
        if i < 0 or self.index_count is not None and i >= self.index_count:
            raise InputError(f"point {token!r} outside the action")
        return (y, i)

    def format_point(self, x):
        y, i = x
        return f"({self.base.format_point(y)};{i})"

    def window(self, spec):
        spec = dict(spec)
        indices = spec.pop("indices", None)
        last = None if self.index_count is None else self.index_count - 1
        if indices is None:
            if last is None:
                raise InputError("product window needs 'indices': [lo, hi]")
            lo, hi = 0, last
        else:
            lo, hi = indices
            _require_int("first product index", lo, 0, last)
            _require_int("last product index", hi, lo, last)
        base_w = self.base.window(spec)
        pts = tuple((y, i) for i in range(lo, hi + 1) for y in base_w.points)
        label = f"{base_w.label}x[{lo}..{hi}]"
        return Window(label, pts)
