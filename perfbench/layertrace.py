"""Per-layer tracing of confpara from outside the program.

``Tracer.install()`` replaces the public functions of each layer (module)
with timing wrappers.  A function is replaced where its callers look it up:
in its own module, in every confpara module that imported it by name, and on
the class for methods.  Nothing is patched unless a traced run asks for it,
so the untraced process runs the program as shipped.

Each wrapped call records, under its metric key:

* the call count;
* inclusive time, counted for the outermost call of that key only, so
  recursion and nested calls of one key are not counted twice;
* self time: inclusive time minus the time spent in wrapped calls of other
  layers underneath it.

Calls that can run more than ~1e5 times in a pass (group operations,
``act``, codecs, piece classifiers, windowed configuration sets, partition
steps, subgroup search) keep only these aggregates.  Every other call also
leaves a span ``(id, parent id, key, start, end, job)`` in memory; spans of
one job share its identifier and are written out once the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import oracles

from confpara import (
    actions as A,
    cli,
    codec,
    configurations as C,
    groups as G,
    paradox as P,
    reconstruction as R,
    schemas as S,
)
from confpara.errors import ResourceCapExceeded

MARK = "__perfbench_wrapper__"
DOCUMENTED_EXITS = (0, 2, 3, 4)  # confpara.cli's exit-code table
_LAYER = {"bench": "bench"}  # one string object per layer, compared with `is`

_ENUM = [(cls, name) for cls in (G.CayleyTableGroup, G.FreeGroup, G.FreeAbelianGroup,
                                 G.EnumeratedGroup)
         for name in ("element_at", "position_of")]
_ACTS = [(A.LeftTranslation, "act"), (A.TableAction, "act"), (A.TrivialAction, "act"),
         (A.ProductAction, "act")]

# metric key -> (hot, [(owner, attribute)])
TARGETS = {
    "configurations.equiv": (False, [(C, "config_equiv_bounded")]),
    "configurations.set_partitions": (True, [(C, "set_partitions")]),
    "configurations.windowed": (True, [(C, "windowed_configuration_set")]),
    "configurations.finite": (False, [(C, "configurations_finite"),
                                      (C, "countable_config_prefixes")]),
    "reconstruction.refine_search": (False, [(R, "q_group_refinement_check")]),
    "reconstruction.recover": (False, [(R, "recover_cosets")]),
    "reconstruction.certify": (False, [(R, "verify_normal_and_iso")]),
    "reconstruction.table": (False, [(R, "table_from_configurations"),
                                     (R, "multiplication_index_table"),
                                     (R, "table_from_canonical_enumeration")]),
    "reconstruction.roundtrip": (False, [(R, "quotient_recovery_roundtrip")]),
    "groups.subgroup": (True, [(G, "normal_subgroups"), (G, "subgroups"),
                               (G, "quotient_group"), (G, "closure")]),
    "groups.window": (False, [(G.FreeGroup, "ball"), (G.FreeAbelianGroup, "box"),
                              (G.Group, "prefix_window"), (G.CayleyTableGroup, "all_window"),
                              (A.Action, "all_window"), (A.LeftTranslation, "window"),
                              (A.TableAction, "window"), (A.TrivialAction, "window"),
                              (A.ProductAction, "window")]),
    "groups.enum": (True, _ENUM),
    "groups.mul": (True, [(cls, "mul") for cls, _ in _ENUM[::2]]),
    "groups.inv": (True, [(cls, "inv") for cls, _ in _ENUM[::2]]),
    "actions.act": (True, _ACTS),
    "paradox.verify": (False, [(P, "verify_paradoxical"), (P, "verify_equidecomposable")]),
    "paradox.probe": (True, [(P.PieceFamily, "classify_checked")]),
    "paradox.construct": (False, [(P, name) for name in (
        "singleton_decomposition", "f2_standard_decomposition", "lift_via_transversal",
        "countable_paradox_of_infinite", "compress_translators", "refine_to_singletons",
        "glue_orbit_decompositions", "restrict_to_orbit", "even_integers_witness",
        "generator_power_witness", "identity_witness")]),
    "codec": (True, [(codec, name) for name in (
        "zigzag_value", "zigzag_position", "cantor_pair", "cantor_unpair")]),
    "schemas.parse": (False, [(S, name) for name in (
        "loads_manifest", "parse_manifest", "build_group", "build_action",
        "build_partition", "build_pair", "build_window_spec", "parse_window_flag",
        "build_decomposition")]),
    "schemas.emit": (False, [(S, "make_manifest"), (S, "dumps_canonical")]),
    "cli.main": (False, [(cli, "main")]),
}


def _layer(key):
    name = key.partition(".")[0]
    return _LAYER.setdefault(name, name)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "confpara" or name.startswith("confpara."))]


def installed_wrappers():
    """Number of confpara attributes currently replaced by a wrapper."""
    seen = 0
    for mod in _modules():
        for value in list(vars(mod).values()):
            if getattr(value, MARK, False):
                seen += 1
            elif isinstance(value, type):
                seen += sum(1 for v in vars(value).values() if getattr(v, MARK, False))
    return seen


class Tracer:
    def __init__(self):
        self._agg = {key: [0, 0, 0.0, 0.0] for key in TARGETS}
        self.counts = defaultdict(int)
        self.spans = []
        self.job = None
        self.active = True
        self._stack = [[_LAYER["bench"], 0.0, 0]]
        self._ids = 0
        self._patched = []

    # -- installation ---------------------------------------------------
    def install(self):
        hooks = {  # by metric key, or by function name where a key has several
            "configurations.equiv": self._on_equiv,
            "configurations.windowed": self._on_windowed,
            "paradox.verify": self._on_verify,
            "reconstruction.refine_search": self._on_refine,
            "dumps_canonical": self._on_dumps,
            "cli.main": self._on_cli,
        }
        for key, (hot, sites) in TARGETS.items():
            for owner, name in sites:
                original = vars(owner)[name]
                if key == "configurations.set_partitions":
                    wrapper = self._wrap_generator(original, key)
                else:
                    hook = hooks.get(key) or hooks.get(name)
                    wrapper = self._wrap(original, key, hot, hook)
                if isinstance(owner, type):
                    self._patch(owner, name, original, wrapper)
                else:
                    for mod in _modules():
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, original, wrapper)
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name, original, wrapper):
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- wrappers -------------------------------------------------------
    # A frame is [layer, foreign seconds, span id].  When a call ends, its
    # time goes to its parent's foreign time if the parent is in another
    # layer; a same-layer parent takes over the call's own foreign time.
    # Per key, agg is [calls, open calls, inclusive s, self s].

    def _wrap(self, fn, key, hot, hook):
        layer = _layer(key)
        agg = self._agg[key]
        stack, spans = self._stack, self.spans
        push, pop = stack.append, stack.pop
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if hot:
                frame = [layer, 0.0, 0]
            else:
                tracer._ids += 1
                frame = [layer, 0.0, tracer._ids]
            push(frame)
            agg[1] += 1
            result = error = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf()
                d = end - start
                pop()
                if parent[0] is layer:
                    parent[1] += frame[1]
                else:
                    parent[1] += d
                agg[0] += 1
                agg[1] -= 1
                if not agg[1]:
                    agg[2] += d
                    agg[3] += d - frame[1]
                if not hot:
                    spans.append((frame[2], parent[2], key, start, end, tracer.job))
                if hook is not None:
                    hook(args, result, error)

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_generator(self, fn, key):
        """Times each step of a generator; counts the items it yields."""
        layer = _layer(key)
        agg = self._agg[key]
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                yield from it
                return
            agg[0] += 1
            while True:
                parent = stack[-1]
                frame = [layer, 0.0, 0]
                stack.append(frame)
                agg[1] += 1
                start = perf()
                try:
                    item = next(it)
                except StopIteration:
                    item = wrapper
                d = perf() - start
                stack.pop()
                parent[1] += frame[1] if parent[0] is layer else d
                agg[1] -= 1
                if not agg[1]:
                    agg[2] += d
                    agg[3] += d - frame[1]
                if item is wrapper:
                    return
                tracer.counts["partitions"] += 1
                yield item

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- hooks: domain counts read off arguments and results -------------
    def _on_equiv(self, args, verdict, exc):
        if verdict is None:
            return
        first, second, n, m = args[:4]
        computed = (first,) if second is first else (first, second)
        self.counts["pair_space"] += sum(
            oracles.partitions_up_to(len(a.points()), m) * a.group.order() ** n
            for a in computed)
        sizes = verdict.family_sizes
        self.counts["family_size"] += sizes[0] if second is first else sizes[0] + sizes[1]

    def _on_windowed(self, args, result, exc):
        self.counts["point_configs"] += len(args[2])

    def _on_verify(self, args, verdict, exc):
        if verdict is not None:
            self.counts["points_checked"] += verdict.points_checked
            self.counts["refuted"] += verdict.status == "refuted"

    def _on_refine(self, args, report, exc):
        if report is not None:
            self.counts["pairs_searched"] += report.pairs_searched
        elif isinstance(exc, ResourceCapExceeded):
            self.counts["pairs_searched"] += exc.cap

    def _on_dumps(self, args, text, exc):
        if text is not None:
            self.counts["bytes_out"] += len(text.encode("utf-8"))

    def _on_cli(self, args, code, exc):
        self.counts["commands"] += 1
        if exc is not None or code not in DOCUMENTED_EXITS:
            self.counts["exit_undocumented"] += 1

    # -- results --------------------------------------------------------
    def aggregates(self):
        """Per key: calls, inclusive and self seconds; plus the domain counts."""
        out = {k: {"calls": a[0], "inclusive_s": a[2], "self_s": a[3]}
               for k, a in self._agg.items()}
        out["counts"] = dict(self.counts)
        return out

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        c, i, s = ({k: a[j] for k, a in self._agg.items()} for j in (0, 2, 3))
        n = self.counts

        def per(a, b):
            return a / b if b else 0.0

        return {
            "configurations.equiv_s": i["configurations.equiv"],
            "configurations.set_partitions_s": i["configurations.set_partitions"],
            "configurations.partitions": n["partitions"],
            "configurations.pair_space_per_s": per(n["pair_space"],
                                                   i["configurations.equiv"]),
            "configurations.family_size": n["family_size"],
            "configurations.windowed_s": i["configurations.windowed"],
            "configurations.windowed_calls": c["configurations.windowed"],
            "configurations.point_configs": n["point_configs"],
            "configurations.finite_s": i["configurations.finite"],
            "reconstruction.refine_search_s": i["reconstruction.refine_search"],
            "reconstruction.refine_search_self_s": s["reconstruction.refine_search"],
            "reconstruction.pairs_searched": n["pairs_searched"],
            "reconstruction.pairs_searched_per_s": per(n["pairs_searched"],
                                                       i["reconstruction.refine_search"]),
            "reconstruction.recover_s": i["reconstruction.recover"],
            "reconstruction.certify_s": i["reconstruction.certify"],
            "reconstruction.table_s": i["reconstruction.table"],
            "groups.subgroup_s": i["groups.subgroup"],
            "groups.window_s": i["groups.window"],
            "groups.enum_calls": c["groups.enum"],
            "groups.enum_s": i["groups.enum"],
            "groups.mul_calls": c["groups.mul"],
            "groups.inv_calls": c["groups.inv"],
            "actions.act_calls": c["actions.act"],
            "actions.act_s": i["actions.act"],
            "paradox.verify_s": i["paradox.verify"],
            "paradox.verify_self_s": s["paradox.verify"],
            "paradox.points_checked": n["points_checked"],
            "paradox.probes": c["paradox.probe"],
            "paradox.probes_per_point": per(c["paradox.probe"], n["points_checked"]),
            "paradox.construct_s": i["paradox.construct"],
            "paradox.refuted": n["refuted"],
            "codec.calls": c["codec"],
            "codec.s": i["codec"],
            "schemas.parse_s": s["schemas.parse"],
            "schemas.emit_s": i["schemas.emit"],
            "schemas.bytes_out": n["bytes_out"],
            "cli.self_s": s["cli.main"],
            "cli.commands": n["commands"],
            "cli.exit_undocumented": n["exit_undocumented"],
        }
