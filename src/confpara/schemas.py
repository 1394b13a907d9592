"""JSON manifests describing groups, actions, partitions, pairs and
decompositions, plus the verdict/report envelopes the command line emits.

Every manifest is an envelope {"schema-version": 1, "object-kind": ...,
"payload": {...}} with optional "metadata".  Validation is strict: unknown
fields are rejected, and every error carries the JSON pointer of the
offending field, so a typo in a nested group payload reads like
"/payload/action/group/order".  Decomposition payloads either name a
construction or spell out both piece families with their translators and a
cover oracle name.

Emission is canonical (sorted keys, two-space indent, trailing newline) so
identical objects always serialize to identical bytes.
"""

from __future__ import annotations

import json

from . import catalog, codec, paradox
from .actions import LeftTranslation, ProductAction, TableAction, TrivialAction
from .configurations import ConfigPair, Partition
from .errors import InputError, MalformedOracleError
from .groups import CayleyTableGroup, FreeAbelianGroup, FreeGroup, _is_int, direct_product

SCHEMA_VERSION = 1
OBJECT_KINDS = (
    "group", "action", "partition", "pair", "decomposition", "verdict", "report",
)


def _fail(msg, path):
    raise InputError(msg, path=path)


def _as_dict(v, path):
    if not isinstance(v, dict):
        _fail(f"expected an object, got {type(v).__name__}", path)
    return v


def _as_list(v, path):
    if not isinstance(v, list):
        _fail(f"expected an array, got {type(v).__name__}", path)
    return v


def _as_int(v, path, minimum=None):
    if not _is_int(v):
        _fail(f"expected an integer, got {v!r}", path)
    if minimum is not None and v < minimum:
        _fail(f"expected an integer >= {minimum}, got {v}", path)
    return v


def _as_str(v, path):
    if not isinstance(v, str):
        _fail(f"expected a string, got {type(v).__name__}", path)
    return v


def _as_bool(v, path):
    if not isinstance(v, bool):
        _fail(f"expected a boolean, got {v!r}", path)
    return v


def _parse_at(parse, token, path):
    """``parse(token)`` for a string token; its InputError is re-raised at
    ``path``, so every token error names its own field once."""
    _as_str(token, path)
    try:
        return parse(token)
    except InputError as exc:
        _fail(str(exc), path)


def _as_points(v, path):
    """Listed action points: strings and integers, which hash and print."""
    points = _as_list(v, path)
    for i, x in enumerate(points):
        if not (isinstance(x, str) or _is_int(x)):
            _fail(f"expected a string or an integer, got {type(x).__name__}", f"{path}/{i}")
    return points


def _as_copies(v, path):
    """A copy count: an integer >= 1, or "countable" (None)."""
    return None if v == "countable" else _as_int(v, path, minimum=1)


class _Fields:
    """Tracks which payload fields were consumed; leftovers are rejected."""

    def __init__(self, d, path):
        self.d = dict(_as_dict(d, path))
        self.path = path

    def take(self, key, required=True, default=None):
        if key in self.d:
            return self.d.pop(key)
        if required:
            _fail(f"missing field '{key}'", f"{self.path}/{key}")
        return default

    def finish(self):
        if self.d:
            k = sorted(self.d)[0]
            _fail(f"unknown field '{k}'", f"{self.path}/{k}")


# ---------------------------------------------------------------------------
# envelope


def make_manifest(kind, payload, metadata=None):
    if kind not in OBJECT_KINDS:
        raise InputError(f"unknown object kind {kind!r}")
    out = {"schema-version": SCHEMA_VERSION, "object-kind": kind, "payload": payload}
    if metadata is not None:
        out["metadata"] = metadata
    return out


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_manifest(data, expected_kind=None):
    """Validate the envelope; returns (kind, payload, metadata)."""
    f = _Fields(data, "")
    version = _as_int(f.take("schema-version"), "/schema-version")
    if version != SCHEMA_VERSION:
        _fail(f"unsupported schema version {version}", "/schema-version")
    kind = _as_str(f.take("object-kind"), "/object-kind")
    if kind not in OBJECT_KINDS:
        _fail(f"unknown object kind {kind!r}", "/object-kind")
    payload = _as_dict(f.take("payload"), "/payload")
    metadata = f.take("metadata", required=False)
    if metadata is not None:
        metadata = _as_dict(metadata, "/metadata")
    f.finish()
    if expected_kind is not None and kind != expected_kind:
        _fail(f"expected a {expected_kind} manifest, got {kind!r}", "/object-kind")
    return kind, payload, metadata


def loads_manifest(text, expected_kind=None):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}", path="") from None
    return parse_manifest(data, expected_kind)


# ---------------------------------------------------------------------------
# groups


# family -> (its one integer field, that field's minimum, constructor)
_ONE_INTEGER_FAMILIES = {
    "cyclic": ("order", 1, catalog.cyclic),
    "symmetric": ("degree", 1, catalog.symmetric),
    "dihedral": ("sides", 3, catalog.dihedral),
    "free": ("rank", 1, FreeGroup),
    "free-abelian": ("rank", 1, FreeAbelianGroup),
}


def build_group(payload, path="/payload"):
    f = _Fields(payload, path)
    family = _as_str(f.take("family"), f"{path}/family")
    if family in _ONE_INTEGER_FAMILIES:
        key, minimum, make = _ONE_INTEGER_FAMILIES[family]
        n = _as_int(f.take(key), f"{path}/{key}", minimum=minimum)
        f.finish()
        return make(n)
    if family == "alternating4":
        f.finish()
        return catalog.alternating4()
    if family == "quaternion8":
        f.finish()
        return catalog.quaternion8()
    if family == "direct-product":
        factors = _as_list(f.take("factors"), f"{path}/factors")
        if len(factors) != 2:
            _fail("expected exactly two factors", f"{path}/factors")
        f.finish()
        a = build_group(factors[0], f"{path}/factors/0")
        b = build_group(factors[1], f"{path}/factors/1")
        return direct_product(a, b)
    if family == "table":
        rows = _as_list(f.take("table"), f"{path}/table")
        identity = _as_int(f.take("identity"), f"{path}/identity", minimum=0)
        labels = f.take("labels", required=False)
        name = _as_str(f.take("name", required=False, default="finite-cayley"), f"{path}/name")
        f.finish()
        table = []
        for i, row in enumerate(rows):
            row = _as_list(row, f"{path}/table/{i}")
            table.append([
                _as_int(v, f"{path}/table/{i}/{j}", minimum=0)
                for j, v in enumerate(row)
            ])
        if labels is not None:
            labels = [
                _as_str(v, f"{path}/labels/{i}")
                for i, v in enumerate(_as_list(labels, f"{path}/labels"))
            ]
            # the constructor's own check, made here to name its field
            if len(labels) != len(table):
                _fail("labels length must match table size", f"{path}/labels")
        try:
            group = CayleyTableGroup(table, identity, labels, name=name)
        except InputError as exc:
            _fail(f"bad multiplication table: {exc}", f"{path}/table")
        # (ab)c = a(bc) for every c, one row composition per (a, b)
        t = group.table
        for a, ta in enumerate(t):
            for b, tb in enumerate(t):
                if t[ta[b]] != tuple(map(ta.__getitem__, tb)):
                    _fail(f"bad multiplication table: not associative at ({a}, {b})",
                          f"{path}/table")
        return group
    _fail(f"unknown group family {family!r}", f"{path}/family")


# ---------------------------------------------------------------------------
# actions


def build_action(payload, path="/payload"):
    f = _Fields(payload, path)
    kind = _as_str(f.take("kind"), f"{path}/kind")
    if kind == "left-translation":
        group = build_group(f.take("group"), f"{path}/group")
        f.finish()
        return LeftTranslation(group)
    if kind == "table":
        group = build_group(f.take("group"), f"{path}/group")
        points = _as_points(f.take("points"), f"{path}/points")
        rows = _as_list(f.take("rows"), f"{path}/rows")
        f.finish()
        rows = [
            [_as_int(v, f"{path}/rows/{i}/{j}", minimum=0) for j, v in
             enumerate(_as_list(row, f"{path}/rows/{i}"))]
            for i, row in enumerate(rows)
        ]
        # the constructor's own first two checks, made here to name their fields
        if not group.is_finite:
            _fail("table actions require a finite group", f"{path}/group")
        if len(set(points)) != len(points):
            _fail("duplicate points in action table", f"{path}/points")
        try:
            return TableAction(group, points, rows)
        except InputError as exc:
            _fail(str(exc), f"{path}/rows")
    if kind == "trivial":
        group = build_group(f.take("group"), f"{path}/group")
        points = f.take("points", required=False)
        countable = _as_bool(f.take("countable", required=False, default=False),
                             f"{path}/countable")
        f.finish()
        if points is not None:
            points = _as_points(points, f"{path}/points")
        try:
            return TrivialAction(group, points, countable=countable)
        except InputError as exc:
            _fail(str(exc), f"{path}/points")
    if kind == "product":
        base = build_action(f.take("base"), f"{path}/base")
        count = _as_copies(f.take("copies"), f"{path}/copies")
        f.finish()
        return ProductAction(base, count)
    _fail(f"unknown action kind {kind!r}", f"{path}/kind")


# ---------------------------------------------------------------------------
# partitions


def _residue_partition(modulus):
    """Block b holds the integers congruent to b-1; a point's rank in its
    block is the zigzag position of its quotient by the modulus."""
    def classify(v):
        return v % modulus + 1

    def rank(block, v):
        return codec.zigzag_position((v - (block - 1)) // modulus)

    return Partition.classifier(classify, block_count=modulus, block_rank=rank)


def _first_letter_partition(group):
    def classify(w):
        if not w:
            return 1
        v = w[0]
        return 2 * abs(v) + (0 if v > 0 else 1)

    return Partition.classifier(classify, block_count=2 * group.rank + 1)


def build_partition(payload, action, path="/payload"):
    f = _Fields(payload, path)
    kind = _as_str(f.take("kind"), f"{path}/kind")
    if kind == "blocks":
        blocks = _as_list(f.take("blocks"), f"{path}/blocks")
        f.finish()
        parsed = [
            [_parse_at(action.parse_point, token, f"{path}/blocks/{i}/{j}")
             for j, token in enumerate(_as_list(block, f"{path}/blocks/{i}"))]
            for i, block in enumerate(blocks)
        ]
        try:
            return Partition.explicit(parsed)
        except InputError as exc:
            _fail(str(exc), f"{path}/blocks")
    if kind == "residue":
        modulus = _as_int(f.take("modulus"), f"{path}/modulus", minimum=1)
        f.finish()
        group = action.group
        if not (isinstance(group, FreeAbelianGroup) and group.rank == 1
                and isinstance(action, LeftTranslation)):
            _fail("residue partitions live on the integers translating themselves",
                  f"{path}/kind")
        return _residue_partition(modulus)
    if kind == "first-letter":
        f.finish()
        group = action.group
        if not (isinstance(group, FreeGroup) and isinstance(action, LeftTranslation)):
            _fail("first-letter partitions live on free groups translating themselves",
                  f"{path}/kind")
        return _first_letter_partition(group)
    _fail(f"unknown partition kind {kind!r}", f"{path}/kind")


# ---------------------------------------------------------------------------
# pairs and windows


def build_pair(payload, path="/payload"):
    """A pair manifest carries its action plus the tuple and partition."""
    f = _Fields(payload, path)
    action = build_action(f.take("action"), f"{path}/action")
    tokens = _as_list(f.take("tuple"), f"{path}/tuple")
    partition_payload = f.take("partition")
    generating = _as_bool(f.take("generating", required=False, default=False),
                          f"{path}/generating")
    f.finish()
    elements = tuple(
        _parse_at(action.group.parse, token, f"{path}/tuple/{i}")
        for i, token in enumerate(tokens)
    )
    partition = build_partition(partition_payload, action, f"{path}/partition")
    return action, ConfigPair(elements, partition, generating)


_WINDOW_KEYS = {"all", "ball", "box", "prefix", "indices"}


def build_window_spec(payload, path="/payload"):
    """Validate a window payload into the small dict the actions consume."""
    d = _as_dict(payload, path)
    spec = {}
    for key in sorted(d):
        if key not in _WINDOW_KEYS:
            _fail(f"unknown window field '{key}'", f"{path}/{key}")
        v = d[key]
        if key == "all":
            if not _as_bool(v, f"{path}/{key}"):
                _fail("'all' must be true", f"{path}/{key}")
            spec[key] = True
        elif key == "indices":
            pairv = _as_list(v, f"{path}/{key}")
            if len(pairv) != 2:
                _fail("expected [lo, hi]", f"{path}/{key}")
            spec[key] = [
                _as_int(pairv[0], f"{path}/{key}/0", minimum=0),
                _as_int(pairv[1], f"{path}/{key}/1", minimum=0),
            ]
        else:
            spec[key] = _as_int(v, f"{path}/{key}", minimum=0)
    base = [k for k in spec if k != "indices"]
    if len(base) != 1:
        _fail("window needs exactly one of all/ball/box/prefix", path)
    return spec


def parse_window_flag(text):
    """Command-line window syntax: JSON ('{"ball": 4}') or the compact form
    "all", "ball=2", "prefix=12,indices=0..3"."""
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad window JSON: {exc}") from None
        return build_window_spec(data, "/window")
    spec = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "all":
            spec["all"] = True
            continue
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq or key not in _WINDOW_KEYS:
            raise InputError(f"bad window component {part!r}")
        value = value.strip()
        if key == "indices":
            lo, dots, hi = value.partition("..")
            if not dots:
                raise InputError("indices need the form lo..hi")
            try:
                spec["indices"] = [int(lo), int(hi)]
            except ValueError:
                raise InputError(f"bad index range {value!r}") from None
        else:
            try:
                spec[key] = int(value)
            except ValueError:
                raise InputError(f"bad window size {value!r}") from None
    if not spec:
        raise InputError("empty window spec")
    return build_window_spec(spec, "/window")


# ---------------------------------------------------------------------------
# decompositions: named constructions or explicit piece families


def _neg_powers_token(token, group, path):
    """Only the non-positive powers of the first generator are built in; the
    token must read "<first-generator>-neg-powers"."""
    name, sep, rest = _as_str(token, path).partition("-")
    if not sep or rest != "neg-powers":
        _fail(f"unknown adjustment set {token!r}", path)
    if _parse_at(group.parse, name, path) != (1,):
        _fail(
            "only the non-positive powers of the first generator are supported",
            path,
        )


def _build_family_member(payload, group, path):
    """One piece descriptor -> membership predicate over group elements."""
    f = _Fields(payload, path)
    family = _as_str(f.take("family"), f"{path}/family")
    if family == "first-letter":
        letter_tok = _as_str(f.take("letter"), f"{path}/letter")
        include = f.take("include", required=False)
        exclude = f.take("exclude", required=False)
        f.finish()
        if not isinstance(group, FreeGroup):
            _fail("first-letter families live on free groups", f"{path}/family")
        word = _parse_at(group.parse, letter_tok, f"{path}/letter")
        if len(word) != 1:
            _fail(f"expected a single letter, got {letter_tok!r}", f"{path}/letter")
        if include is not None:
            _neg_powers_token(include, group, f"{path}/include")
        if exclude is not None:
            if include is not None:
                _fail("a first-letter piece takes include or exclude, not both",
                      f"{path}/exclude")
            _neg_powers_token(exclude, group, f"{path}/exclude")
        return paradox._FirstLetter(
            word[0],
            include_neg_powers=include is not None,
            exclude_neg_powers=exclude is not None,
        ).member
    if family == "explicit":
        tokens = _as_list(f.take("points"), f"{path}/points")
        f.finish()
        points = frozenset(
            _parse_at(group.parse, token, f"{path}/points/{i}")
            for i, token in enumerate(tokens)
        )
        return points.__contains__
    _fail(f"unknown piece family {family!r}", f"{path}/family")


def _explicit_side(f, group, side, path):
    """Parse one side (pieces, translators, cover name) of an explicit
    decomposition payload into PieceFamily + translator + cover."""
    descs = _as_list(f.take(f"{side}-pieces"), f"{path}/{side}-pieces")
    members = [
        _build_family_member(p, group, f"{path}/{side}-pieces/{i}")
        for i, p in enumerate(descs)
    ]
    if not members:
        _fail("a side needs at least one piece", f"{path}/{side}-pieces")
    tokens = _as_list(f.take(f"{side}-translators"), f"{path}/{side}-translators")
    translators = [
        _parse_at(group.parse, token, f"{path}/{side}-translators/{i}")
        for i, token in enumerate(tokens)
    ]
    if len(translators) != len(members):
        _fail(
            f"expected {len(members)} translators, got {len(translators)}",
            f"{path}/{side}-translators",
        )
    cover_name = _as_str(f.take(f"{side}-cover"), f"{path}/{side}-cover")
    if cover_name != "scan":
        _fail(f"unknown cover oracle {cover_name!r}", f"{path}/{side}-cover")
    n = len(members)
    inverses = [group.inv(t) for t in translators]

    def classifier(x):
        hits = [i for i in range(1, n + 1) if members[i - 1](x)]
        if len(hits) > 1:
            raise MalformedOracleError(
                f"pieces {hits[0]} and {hits[1]} overlap at {group.format(x)}"
            )
        return hits[0] if hits else None

    def translator(i):
        if not 1 <= i <= n:
            raise MalformedOracleError(f"translator index {i} out of range 1..{n}")
        return translators[i - 1]

    def cover(x):
        for i, (member, t_inv) in enumerate(zip(members, inverses), start=1):
            if member(group.mul(t_inv, x)):
                return i
        return 1  # no translate contains x; membership check refutes honestly

    family = paradox.PieceFamily(classifier, size=n)
    return family, translator, cover, tuple(translators)


def _build_decomposition_explicit(payload, path):
    f = _Fields(payload, path)
    group = build_group(f.take("group"), f"{path}/group")
    a, b = (_explicit_side(f, group, side, path) for side in "ab")
    f.finish()
    return paradox._from_sides(LeftTranslation(group), a, b, "explicit")


def build_decomposition(payload, path="/payload"):
    d = _as_dict(payload, path)
    if "construction" not in d:
        return _build_decomposition_explicit(payload, path)
    f = _Fields(payload, path)
    kind = _as_str(f.take("construction"), f"{path}/construction")
    if kind == "singleton":
        group = build_group(f.take("group"), f"{path}/group")
        f.finish()
        return paradox.singleton_decomposition(group)
    if kind == "free2-standard":
        f.finish()
        return paradox.f2_standard_decomposition(FreeGroup(2))
    if kind == "lift":
        group = build_group(f.take("group"), f"{path}/group")
        witness_name = _as_str(f.take("witness"), f"{path}/witness")
        f.finish()
        makers = {
            "even-integers": paradox.even_integers_witness,
            "first-generator-powers": paradox.generator_power_witness,
        }
        if witness_name not in makers:
            _fail(f"unknown subgroup witness {witness_name!r}", f"{path}/witness")
        return paradox.countable_paradox_of_infinite(group, makers[witness_name](group))
    if kind == "infinite-auto":
        group = build_group(f.take("group"), f"{path}/group")
        f.finish()
        return paradox.countable_paradox_of_infinite(group)
    if kind == "compress":
        inner = build_decomposition(f.take("inner"), f"{path}/inner")
        bound = f.take("bound", required=False, default=200)
        f.finish()
        result = paradox.compress_translators(
            inner, index_bound=_as_int(bound, f"{path}/bound", minimum=4)
        )
        if result.status != "compressed":
            _fail("inner decomposition is not compressible within the bound",
                  f"{path}/inner")
        return result.decomposition
    if kind == "refine-singletons":
        inner = build_decomposition(f.take("inner"), f"{path}/inner")
        f.finish()
        return paradox.refine_to_singletons(inner)
    if kind == "glue":
        inner_payload = f.take("inner")
        copies = f.take("copies")
        f.finish()
        inner = build_decomposition(inner_payload, f"{path}/inner")
        if not isinstance(inner.action, LeftTranslation):
            _fail("glue expects an inner decomposition of the group itself",
                  f"{path}/inner")
        action = ProductAction(inner.action, _as_copies(copies, f"{path}/copies"))
        orbits = paradox.product_orbit_structure(action)
        return paradox.glue_orbit_decompositions(action, orbits, lambda rep: inner)
    _fail(f"unknown construction {kind!r}", f"{path}/construction")
