"""Command line front end.

Subcommands map one-to-one onto the library surface: ``con`` lists a pair's
configuration set, ``equiv`` compares two actions' families of configuration
sets at a bound, ``prefixes`` lists windowed prefixes in the countable
setting, ``recover`` rebuilds coset structure from a matching configuration
set, and ``paradox verify``/``paradox construct`` handle decompositions.

Exit codes: 0 when the requested object was computed or verified, 2 when the
outcome is a refutation (families distinguished, decomposition refuted,
recovery hypothesis failed), 3 when a resource cap stopped the search, and 4
for malformed input, which includes mutually inconsistent oracles (such as
overlapping pieces) and operations a countable object does not support.
Structured output goes to stdout as a report or verdict manifest;
diagnostics to stderr.  CONFPARA_CAP overrides the default
search cap where --cap is not given.

``main(argv)`` may be called repeatedly in one process: the parser is built
on the first call and reused, so a later call costs its command alone.
``con`` on the four-point fixture pair takes about 0.25 ms a call, and one
parser build takes 1.2-2.1 ms (2-core Xeon, Python 3.11).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import schemas
from .actions import LeftTranslation
from .configurations import (
    ConfigPair,
    check_generating_assertion,
    check_partition_covers,
    config_equiv_bounded,
    countable_config_prefixes,
    default_partition_cap,
    windowed_configuration_set,
)
from .errors import (
    ConfparaError,
    InputError,
    PreconditionError,
    ResourceCapExceeded,
)
from .groups import _require_int
from .paradox import verify_paradoxical
from .reconstruction import (
    multiplication_index_table,
    q_group_refinement_check,
    recover_cosets,
    table_from_configurations,
    verify_normal_and_iso,
)

_CODEC_NAMES = {
    "pairing-function": "cantor",
    "enumeration-codec": "zigzag-shortlex",
}


def _read_text(path_arg):
    try:
        if path_arg == "-":
            return sys.stdin.read()
        with open(path_arg, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path_arg}: {exc}") from None


def _read_manifest(path_arg, expected_kind=None):
    return schemas.loads_manifest(_read_text(path_arg), expected_kind)


def _load_action(path_arg):
    """An action manifest; group manifests act on themselves, and a pair
    manifest stands in when only its action matters."""
    kind, payload, _meta = _read_manifest(path_arg)
    if kind == "group":
        return LeftTranslation(schemas.build_group(payload))
    if kind == "action":
        return schemas.build_action(payload)
    if kind == "pair":
        action, _pair = schemas.build_pair(payload)
        return action
    raise InputError(
        f"expected a group, action or pair manifest, got {kind!r}",
        path="/object-kind",
    )


def _load_group(path_arg):
    _kind, payload, _meta = _read_manifest(path_arg, "group")
    return schemas.build_group(payload)


def _pair_from_args(args, what):
    """A pair given either as one manifest or assembled from flags; only a
    manifest can claim a generating tuple, and a false claim is refuted."""
    if args.manifest is not None:
        _kind, payload, _meta = _read_manifest(args.manifest, "pair")
        action, pair = schemas.build_pair(payload)
        check_generating_assertion(action, pair)
        return action, pair
    if args.action is None or args.tuple is None or args.partition is None:
        raise InputError(
            f"{what} needs a pair manifest, or all of "
            f"{args.action_flag}/--tuple/--partition"
        )
    action = _load_action(args.action)
    _kind, payload, _meta = _read_manifest(args.partition, "partition")
    with _naming_partition(args):
        partition = schemas.build_partition(payload, action)
    try:
        elements = tuple(action.group.parse(t.strip()) for t in args.tuple.split(","))
    except InputError as exc:
        raise InputError(str(exc), path="--tuple") from None
    return action, ConfigPair(elements, partition)


@contextlib.contextmanager
def _naming_partition(args):
    """Input errors raised inside name the --partition file of a pair
    assembled from flags."""
    try:
        yield
    except InputError as exc:
        if args.manifest is not None:
            raise
        raise InputError(f"{exc} in --partition {args.partition}") from None


def _emit(args, kind, payload, text_lines, bounds=None):
    metadata = dict(_CODEC_NAMES)
    if bounds:
        metadata["bounds"] = bounds
    if args.format == "json":
        manifest = schemas.make_manifest(kind, payload, metadata)
        sys.stdout.write(schemas.dumps_canonical(manifest))
    else:
        for line in text_lines:
            print(line)


def _window_for(action, flag):
    return action.window(schemas.parse_window_flag(flag))


def _cap(args):
    """The search cap: --cap, else CONFPARA_CAP, else the default."""
    if args.cap is None:
        return default_partition_cap()
    return _require_int("--cap", args.cap, 1)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_con(args):
    action, pair = _pair_from_args(args, "con")
    with _naming_partition(args):
        check_partition_covers(action, pair.partition)
    if args.window is None:
        if not action.is_finite_points:
            raise InputError("countable point sets need --window")
        window = action.all_window()
    else:
        window = _window_for(action, args.window)
    result = countable_config_prefixes(action, pair, len(pair.elements), window)
    configs, exact = result.prefixes, result.exact
    data = {
        "configurations": [list(c) for c in configs],
        "count": len(configs),
        "exact": exact,
        "window": window.label,
    }
    lines = [" ".join(str(v) for v in c) for c in configs]
    lines.append(
        f"{len(configs)} configurations on {window.label}"
        + (" (exact)" if exact else " (window under-approximation)")
    )
    _emit(args, "report", data, lines, bounds={"window": window.label})
    return 0


def _witness_data(w):
    if w is None:
        return None
    return {
        "direction": w.direction,
        "tuple": list(w.tuple_tokens),
        "blocks": [list(b) for b in w.blocks],
        "configurations": [list(c) for c in w.configurations],
    }


def _cmd_equiv(args):
    positional = args.first is not None or args.second is not None
    if positional and (args.a is not None or args.b is not None):
        raise InputError("equiv takes two positional manifests or --a/--b, not both")
    first, second = (args.first, args.second) if positional else (args.a, args.b)
    if first is None or second is None:
        raise InputError("equiv needs two manifests (positional or --a/--b)")
    action1 = _load_action(first)
    action2 = _load_action(second)
    cap = _cap(args)
    verdict = config_equiv_bounded(action1, action2, args.n, args.m, cap=cap)
    data = {
        "equivalent": verdict.equivalent,
        "n": verdict.n,
        "m": verdict.m,
        "family-sizes": list(verdict.family_sizes),
        "only-in-first": _witness_data(verdict.only_in_first),
        "only-in-second": _witness_data(verdict.only_in_second),
    }
    lines = [
        ("equivalent" if verdict.equivalent else "distinguished")
        + f" at n={verdict.n}, m={verdict.m} "
        + f"(family sizes {verdict.family_sizes[0]}/{verdict.family_sizes[1]})"
    ]
    for w in (verdict.only_in_first, verdict.only_in_second):
        if w is not None:
            lines.append(
                f"witness [{w.direction}]: tuple ({', '.join(w.tuple_tokens)}), "
                f"blocks {[list(b) for b in w.blocks]}"
            )
    _emit(args, "report", data, lines,
          bounds={"n": verdict.n, "m": verdict.m, "cap": cap})
    return 0 if verdict.equivalent else 2


def _cmd_prefixes(args):
    action, pair = _pair_from_args(args, "prefixes")
    window = _window_for(action, args.window)
    result = countable_config_prefixes(action, pair, args.depth, window)
    data = {
        "depth": result.depth,
        "prefixes": [list(p) for p in result.prefixes],
        "count": len(result.prefixes),
        "exact": result.exact,
        "note": result.note,
        "window": result.window_label,
    }
    lines = [" ".join(str(v) for v in p) for p in result.prefixes]
    lines.append(
        f"{len(result.prefixes)} depth-{result.depth} prefixes on "
        f"{result.window_label}: {result.note}"
    )
    _emit(args, "report", data, lines,
          bounds={"depth": result.depth, "window": result.window_label})
    return 0


def _format_block(group, block):
    return [group.format(x) for x in sorted(block, key=group.position_of)]


def _cmd_recover(args):
    cap = _cap(args)
    action, pair = _pair_from_args(args, "recover")
    if not isinstance(action, LeftTranslation):
        raise InputError("recovery needs a pair whose action is left translation")
    group = action.group
    if not group.is_finite:
        raise InputError("recovery runs on finite instances")
    # the set recover_cosets matches, and the table's source without --g
    configs = windowed_configuration_set(action, pair, action.all_window())
    if args.g is not None:
        target = _load_group(args.g)
        e = target.identity  # g_1 = e, then the rest in index order
        table = multiplication_index_table(
            target, [e] + [g for g in target.elements() if g != e])
    else:
        table = table_from_configurations(action, pair, configs)
    family = recover_cosets(group, pair, table, configs)
    report = verify_normal_and_iso(group, family, table)
    if not report.ok:
        refinement_data = {"skipped": "recovery not certified"}
    else:
        try:
            refinement = q_group_refinement_check(group, family, cap=cap)
            refinement_data = {
                "conclusion": refinement.conclusion,
                "matched": refinement.matched,
                "pairs-searched": refinement.pairs_searched,
            }
        except ResourceCapExceeded as exc:
            refinement_data = {"skipped": str(exc)}
    data = {
        "status": "recovered" if report.ok else "refuted",
        "subgroup": _format_block(group, family.subgroup),
        "blocks": [_format_block(group, b) for b in family.blocks],
        "normal-and-iso": report.ok,
        "failures": [repr(f) for f in report.failures],
        "subgroup-order": report.subgroup_order,
        "coset-count": report.coset_count,
        "isomorphism": [[label, index] for label, index in report.iso],
        "refinement": refinement_data,
    }
    lines = [
        f"subgroup F1 = {{{', '.join(data['subgroup'])}}} "
        f"(order {report.subgroup_order}, {report.coset_count} cosets)",
        "normal subgroup and index isomorphism "
        + ("certified" if report.ok else f"FAILED: {data['failures']}"),
    ]
    for j, block in enumerate(data["blocks"], start=1):
        lines.append(f"F{j} = {{{', '.join(block)}}}")
    if "conclusion" in refinement_data:
        lines.append(f"refinement: {refinement_data['conclusion']}")
    else:
        lines.append(f"refinement: skipped ({refinement_data['skipped']})")
    _emit(args, "report", data, lines, bounds={"cap": cap})
    return 0 if report.ok else 2


def _verdict_data(action, verdict):
    witness = None
    if verdict.witness is not None:
        witness = {
            "point": action.format_point(verdict.witness.point),
            "equation": verdict.witness.equation,
            "detail": {k: v for k, v in verdict.witness.detail},
        }
    return {
        "status": verdict.status,
        "window": verdict.window_label,
        "index-bound": verdict.index_bound,
        "points-checked": verdict.points_checked,
        "witness": witness,
    }


def _cmd_paradox_verify(args):
    if args.manifest is None:
        raise InputError("paradox verify needs a decomposition manifest")
    _kind, payload, _meta = _read_manifest(args.manifest, "decomposition")
    dec = schemas.build_decomposition(payload)
    window = _window_for(dec.action, args.window)
    verdict = verify_paradoxical(dec, window, args.index_bound)
    data = _verdict_data(dec.action, verdict)
    lines = [
        f"{verdict.status} on {verdict.window_label} "
        f"(index bound {verdict.index_bound}, {verdict.points_checked} points)"
    ]
    if data["witness"] is not None:
        w = data["witness"]
        lines.append(
            f"witness: {w['equation']} fails at {w['point']} {w['detail']}"
        )
    _emit(args, "verdict", data, lines,
          bounds={"window": verdict.window_label,
                  "index-bound": verdict.index_bound})
    return 0 if verdict.verified else 2


def _group_payload_from_flag(flag):
    """--group takes a group manifest path or an inline payload as JSON."""
    text = flag.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad group JSON: {exc}") from None
    _kind, payload, _meta = _read_manifest(flag, "group")
    return payload


def _construction_payload(args):
    if args.kind is None:
        if args.manifest is None:
            raise InputError(
                "paradox construct needs a decomposition manifest or --kind"
            )
        _kind, payload, meta = _read_manifest(args.manifest, "decomposition")
        return payload, meta
    payload = {"construction": args.kind}
    if args.group is not None:
        payload["group"] = _group_payload_from_flag(args.group)
    if args.witness is not None:
        payload["witness"] = args.witness
    if args.copies is not None:  # the schema rejects what is not a count
        c = args.copies
        payload["copies"] = int(c) if c.removeprefix("-").isdecimal() else c
    if args.bound is not None:
        payload["bound"] = args.bound
    if args.inner is not None:
        _kind, inner_payload, _meta = _read_manifest(args.inner, "decomposition")
        payload["inner"] = inner_payload
    return payload, None


def _cmd_paradox_construct(args):
    payload, meta = _construction_payload(args)
    dec = schemas.build_decomposition(payload)
    metadata = dict(meta or {})
    metadata["construction-kind"] = dec.kind
    code = 0
    if args.window is not None:
        window = _window_for(dec.action, args.window)
        verdict = verify_paradoxical(dec, window, args.index_bound)
        metadata["verdict"] = _verdict_data(dec.action, verdict)
        if not verdict.verified:
            code = 2
    manifest = schemas.make_manifest("decomposition", payload, metadata)
    out_text = schemas.dumps_canonical(manifest)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out_text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
        print(f"wrote {args.out}", file=sys.stderr)
    if args.format == "json":
        sys.stdout.write(out_text)
    else:
        lines = [f"construction: {metadata.get('construction-kind')}"]
        if "verdict" in metadata:
            v = metadata["verdict"]
            lines.append(
                f"self-check: {v['status']} on {v['window']} "
                f"(index bound {v['index-bound']})"
            )
        for line in lines:
            print(line)
    return code


# ---------------------------------------------------------------------------
# parser


def _add_format(p):
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="output style (default json)")


def _add_pair_flags(p, action_flag="--action"):
    p.add_argument("manifest", nargs="?",
                   help="pair manifest path, or - for stdin")
    p.add_argument(action_flag, dest="action",
                   help="action manifest (with --tuple and --partition)")
    p.add_argument("--tuple", help='comma-separated elements, e.g. "0,1"')
    p.add_argument("--partition", help="partition manifest path")
    p.set_defaults(action_flag=action_flag)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confpara",
        description="Configuration sets of group actions and countable "
        "paradoxical decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("con", help="configuration set of a pair")
    _add_pair_flags(p)
    p.add_argument("--window",
                   help='window spec, e.g. "all", "ball=2", \'{"box": 3}\'')
    _add_format(p)
    p.set_defaults(func=_cmd_con)

    p = sub.add_parser("equiv", help="compare two actions' configuration families")
    p.add_argument("first", nargs="?", help="group, action or pair manifest")
    p.add_argument("second", nargs="?", help="group, action or pair manifest")
    p.add_argument("--a", help="first manifest (alternative to positional)")
    p.add_argument("--b", help="second manifest (alternative to positional)")
    p.add_argument("-n", type=int, required=True, help="tuple length")
    p.add_argument("-m", type=int, required=True, help="maximum block count")
    p.add_argument("--cap", type=int, help="partition enumeration cap")
    _add_format(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("prefixes", help="windowed configuration prefixes")
    _add_pair_flags(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--window", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_prefixes)

    p = sub.add_parser("recover", help="recover coset structure from a pair")
    _add_pair_flags(p, action_flag="--h")
    p.add_argument("--g", help="group manifest fixing the target table "
                   "(default: inferred from the configuration set)")
    p.add_argument("--cap", type=int, help="refinement search cap")
    _add_format(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("paradox", help="decomposition commands")
    psub = p.add_subparsers(dest="paradox_command", required=True)

    v = psub.add_parser("verify", help="verify a decomposition on a window")
    v.add_argument("manifest", nargs="?",
                   help="decomposition manifest path, or - for stdin")
    v.add_argument("--window", required=True)
    v.add_argument("--index-bound", type=int, default=40)
    _add_format(v)
    v.set_defaults(func=_cmd_paradox_verify)

    c = psub.add_parser("construct", help="build a decomposition manifest")
    c.add_argument("manifest", nargs="?",
                   help="construction manifest path, or - for stdin")
    c.add_argument("--kind",
                   choices=("singleton", "free2-standard", "lift",
                            "infinite-auto", "compress", "refine-singletons",
                            "glue"),
                   help="build from flags instead of a manifest")
    c.add_argument("--group", help="group manifest path or inline JSON payload")
    c.add_argument("--witness",
                   help="subgroup witness name for --kind lift")
    c.add_argument("--copies", help='factor count for glue, or "countable"')
    c.add_argument("--bound", type=int, help="scan bound for --kind compress")
    c.add_argument("--inner", help="inner decomposition manifest")
    c.add_argument("--window", help="optional self-check window")
    c.add_argument("--index-bound", type=int, default=40)
    c.add_argument("--out", help="also write the manifest to this file")
    _add_format(c)
    c.set_defaults(func=_cmd_paradox_construct)

    return parser


@functools.cache
def _parser():
    """The parser ``main`` shares across calls, built by ``build_parser`` on
    first use.  It holds the ``_cmd_*`` handlers bound at that first build,
    and no state from one ``parse_args`` call to the next: argparse reads
    ``sys.stdout``, ``sys.stderr`` and the terminal width when it prints."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 for refutations only
        return 0 if exc.code == 0 else 4
    try:
        return args.func(args)
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        _emit(args, "report", {"status": "refuted", "reason": str(exc)}, [f"refuted: {exc}"])
        return 2
    except ConfparaError as exc:  # input errors, inconsistent oracles, unsupported operations
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
