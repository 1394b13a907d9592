"""Job lists of the benchmark's four workloads.

A job is one call into confpara whose output the benchmark checks.  Fixed
jobs (inputs that do not depend on the seed) are compared with
``reference.json``, recorded from the program by ``record_reference.py``.
Seed-dependent jobs are checked independently: configuration sets are
recomputed with ``tests/oracles.py``, refutation witnesses are rechecked
from scratch with the acceptance suite's ``_witness_holds``, and recovered
cosets are compared with cosets computed here from the multiplication table.

Everything a workload needs is built by ``build(name, seed, tmpdir)`` before
the first job runs, so building it counts as set-up.  Library calls go
through module attributes (``cf.config_equiv_bounded``) so that the traced
process sees the wrappers installed by ``layertrace``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import oracles
from test_acceptance import _trivial_candidate, _witness_holds

from layertrace import DOCUMENTED_EXITS

from confpara import actions, catalog, cli, configurations as cf, groups, paradox, reconstruction

WORKLOADS = ("equiv-sweep", "paradox-windows", "recover-roundtrip", "cli-fixtures")


@dataclass
class Job:
    """One timed call.  ``summary`` turns its result into JSON data; fixed
    jobs must reproduce the reference entry under ``key``.  ``check``
    returns a problem string or None.  ``known_defect`` recognises the
    recorded behaviour of a defect the program still has: such a run is not
    ok, but it is not a new failure either."""

    key: str
    run: Callable[[], Any]
    summary: Callable[[Any], Any] = lambda result: None
    fixed: bool = True
    check: Optional[Callable[[Any], Optional[str]]] = None
    known_defect: Optional[Callable[[Any], bool]] = None


def build(name, seed, tmpdir):
    """Job list of one workload; ``tmpdir`` receives generated manifests."""
    rng = random.Random(f"{name}:{seed}")
    if name == "equiv-sweep":
        return _equiv_sweep(rng)
    if name == "paradox-windows":
        return _paradox_windows(rng)
    if name == "recover-roundtrip":
        return _recover_roundtrip(rng)
    if name == "cli-fixtures":
        return _cli_fixtures(rng, Path(tmpdir))
    raise ValueError(f"unknown workload {name!r}")


def layer_probe(tmpdir):
    """Five CLI commands that between them call every layer; the traced run
    ends with them so each per-layer metric has a reading on every workload."""
    wanted = ("con-finite", "equiv-z4-z22-n1m2", "recover-z4-parity",
              "verify-singleton-z", "construct-singleton")
    tmpdir = Path(tmpdir)
    tmpdir.mkdir(exist_ok=True)
    jobs = {j.key: j for j in _cli_fixtures(random.Random(0), tmpdir)}
    return [jobs[k] for k in wanted]


# ---------------------------------------------------------------------------
# equiv-sweep: bounded configuration equivalence


def _witness_data(w):
    return {
        "direction": w.direction,
        "tuple": list(w.tuple_tokens),
        "blocks": [list(b) for b in w.blocks],
        "configurations": [list(c) for c in w.configurations],
    }


def _equiv_summary(v):
    return {
        "equivalent": v.equivalent,
        "family_sizes": list(v.family_sizes),
        "witnesses": [_witness_data(w) for w in (v.only_in_first, v.only_in_second)
                      if w is not None],
    }


def _witness_problem(action, act, w):
    """Recompute a witness's configuration set with the naive oracle; ``act``
    is the benchmark's own copy of the action map."""
    elements = [action.group.parse(t) for t in w.tuple_tokens]
    block = {action.parse_point(p): i
             for i, b in enumerate(w.blocks, start=1) for p in b}
    want = oracles.naive_configurations(list(block), act, elements, block.__getitem__)
    if want != set(w.configurations):
        return f"witness {w.direction} does not recompute with the naive oracle"
    return None


def _table_act(group):
    table = group.table
    return lambda g, x: table[g][x]


def _coset_action(rng, group, subgroup):
    """Left-coset action of ``group`` on ``group/subgroup``, its points
    labelled 0..k-1 in a seeded order."""
    cosets = []
    for x in group.elements():
        if not any(x in c for c in cosets):
            cosets.append(frozenset(group.table[x][s] for s in subgroup))
    index = {y: k for k, c in enumerate(cosets) for y in c}
    rows = [[index[group.table[g][min(c)]] for c in cosets] for g in group.elements()]
    labels = list(range(len(cosets)))
    rng.shuffle(labels)
    return actions.TableAction(group, labels, rows)


def _shuffled_copy(rng, action):
    """The same finite action presented with its points in another order."""
    points = list(action.points())
    index = {p: i for i, p in enumerate(points)}
    order = list(range(len(points)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    rows = [[where[index[action.act(g, points[i])]] for i in order]
            for g in action.group.elements()]
    return actions.TableAction(action.group, [points[i] for i in order], rows)


# (group, subgroup order): left-coset actions with nontrivial stabilizers.
# The seed picks a subgroup among the conjugates of the first non-normal one
# of that order (the first one when all are normal) and how the points are
# labelled and ordered.  Conjugate subgroups give isomorphic actions, so the
# work does not depend on the seed.
_COSET_CLASSES = (("S3", 2), ("D4", 2), ("A4", 3), ("Z8", 2),
                  ("D5", 2), ("D6", 2), ("A4", 2))


def _conjugates(group, order):
    subs = [s for s in groups.subgroups(group) if len(s) == order]
    first = next((s for s in subs if not groups.is_normal(group, s)), subs[0])
    t = group.table
    return sorted({frozenset(t[t[g][h]][group.inv(g)] for h in first)
                   for g in group.elements()}, key=sorted)


def _equiv_sweep(rng):
    fixture = catalog.fixture_groups()
    groups_all = catalog.reconstruction_groups()
    jobs = []

    def fixed_job(key, g1, g2, n, m):
        a1 = actions.LeftTranslation(g1)
        a2 = a1 if g2 is g1 else actions.LeftTranslation(g2)
        acts = {"first-not-second": (a1, _table_act(g1)),
                "second-not-first": (a2, _table_act(g2))}

        def check(v):
            for w in (v.only_in_first, v.only_in_second):
                if w is not None:
                    problem = _witness_problem(*acts[w.direction], w)
                    if problem:
                        return problem
            return None

        jobs.append(Job(key, lambda: cf.config_equiv_bounded(a1, a2, n, m),
                        _equiv_summary, check=check))

    for name, g in fixture.items():
        fixed_job(f"self-{name}-n2m3", g, g, 2, 3)
    for name, g in fixture.items():
        if g.order() <= 7:
            fixed_job(f"self-{name}-n2m4", g, g, 2, 4)
    for a, b, n, m in (("Z4", "Z2xZ2", 2, 4), ("Z6", "S3", 2, 4),
                       ("D4", "Q8", 2, 3), ("Z8", "Z4xZ2", 2, 3)):
        fixed_job(f"{a}-vs-{b}-n{n}m{m}", fixture[a], fixture[b], n, m)

    def seeded_job(key, first):
        second = _shuffled_copy(rng, first)

        def check(v):
            if not v.equivalent or v.family_sizes[0] != v.family_sizes[1]:
                return "two presentations of one action are not equivalent"
            return None

        jobs.append(Job(key, lambda: cf.config_equiv_bounded(first, second, 2, 3),
                        fixed=False, check=check))

    for gname, order in _COSET_CLASSES:
        g = groups_all[gname]
        sub = rng.choice(_conjugates(g, order))
        seeded_job(f"coset-{gname}-order{order}", _coset_action(rng, g, sub))
    # two copies of the regular action of each order-4 group
    for name in ("Z4", "Z2xZ2"):
        seeded_job(f"product-{name}-x2", actions.ProductAction(
            actions.LeftTranslation(fixture[name]), index_count=2))
    return jobs


# ---------------------------------------------------------------------------
# paradox-windows: the window verifier on countable decompositions


def _verdict_summary(v):
    w = v.witness
    return {
        "status": v.status,
        "window": v.window_label,
        "index_bound": v.index_bound,
        "points_checked": v.points_checked,
        "witness": None if w is None else {
            "point": repr(w.point), "equation": w.equation, "detail": repr(w.detail),
        },
    }


def _claim_twice(dec, target, bogus_index):
    """Mutate a decomposition so that both sides claim ``target``; the other
    side names an index past the bound, so no earlier point notices and the
    first refutation is the combined-partition check at ``target``."""

    def mutate(fam):
        def classifier(x):
            i = fam.classifier(x)
            return bogus_index if i is None and x == target else i

        return dataclasses.replace(fam, classifier=classifier)

    return dataclasses.replace(dec, a_pieces=mutate(dec.a_pieces),
                               b_pieces=mutate(dec.b_pieces))


def _paradox_windows(rng):
    Z = groups.FreeAbelianGroup(1)
    Z2 = groups.FreeAbelianGroup(2)
    F2 = groups.FreeGroup(2)
    jobs = []

    def verify_job(key, dec, window, bound):
        jobs.append(Job(key, lambda: paradox.verify_paradoxical(dec, window, bound),
                        _verdict_summary))

    verify_job("singleton-z", paradox.singleton_decomposition(Z), Z.box(400), 800)
    verify_job("singleton-z2", paradox.singleton_decomposition(Z2), Z2.box(10), 200)
    evens = paradox.even_integers_witness(Z)
    verify_job("even-integers-lift",
               paradox.lift_via_transversal(
                   Z, evens, paradox.singleton_decomposition(evens.subgroup)),
               Z.box(200), 400)
    verify_job("f2-generator-powers",
               paradox.countable_paradox_of_infinite(
                   F2, paradox.generator_power_witness(F2)),
               F2.ball(4), 100)
    verify_job("f2-refined-singletons",
               paradox.refine_to_singletons(paradox.f2_standard_decomposition(F2)),
               F2.ball(4), 40)
    product = actions.ProductAction(actions.LeftTranslation(Z))
    glued = paradox.glue_orbit_decompositions(
        product, paradox.product_orbit_structure(product),
        lambda rep: paradox.singleton_decomposition(Z), mode="uniform",
        validate_window=lambda rep: Z.box(6), validate_reps=2, validate_index_bound=40,
    )
    verify_job("glued-product-orbits", glued,
               product.window({"box": 30, "indices": [0, 5]}), 40)
    verify_job("f2-standard", paradox.f2_standard_decomposition(F2), F2.ball(8), 4)

    trivial = actions.TrivialAction(Z, countable=True)
    prefix = trivial.window({"prefix": 48})
    candidates = [_trivial_candidate(trivial, s) for s in range(100)]

    def refute_all():
        return [paradox.verify_paradoxical(d, prefix, 8) for d in candidates]

    def trivial_check(verdicts):
        held = sum(_witness_holds(d, v) for d, v in zip(candidates, verdicts))
        return None if held == 100 else f"{100 - held} refutation witnesses do not recheck"

    jobs.append(Job("trivial-action-candidates", refute_all,
                    lambda vs: [_verdict_summary(v) for v in vs], check=trivial_check))

    # seeded mutations whose first refutation lies deep in the window
    window = Z.box(200)
    bound = 400
    for lo, hi in ((0.60, 0.65), (0.75, 0.80), (0.90, 0.95)):
        pos = rng.randrange(int(lo * len(window)), int(hi * len(window)))
        target = window.points[pos]
        dec = _claim_twice(paradox.singleton_decomposition(Z), target,
                           bound + 1 + rng.randrange(1000))

        def check(v, dec=dec, pos=pos, target=target):
            if v.status != "refuted" or v.witness.point != target:
                return f"expected a refutation at {target}, got {v.status}"
            if v.witness.equation != "combined-partition" or v.points_checked != pos + 1:
                return "refutation is not the combined-partition check at the target"
            if not _witness_holds(dec, v):
                return "refutation witness does not recheck"
            return None

        jobs.append(Job(f"mutated-singleton-z-{int(lo * 100)}", 
                        lambda dec=dec: paradox.verify_paradoxical(dec, window, bound),
                        fixed=False, check=check))
    return jobs


# ---------------------------------------------------------------------------
# recover-roundtrip: coset recovery from configuration data


def _recover_roundtrip(rng):
    """Per normal subgroup N of each group H: the library's own roundtrip,
    then recovery from a seeded pair whose blocks are the cosets right-
    translated by a seeded coset (so the identity's block is not index 1)
    and whose tuple holds seeded coset representatives."""
    jobs = []
    for name, h in catalog.reconstruction_groups().items():
        for k, normal in enumerate(groups.normal_subgroups(h)):
            jobs.append(_recover_job(rng, f"{name}-normal{k}", h, normal))
    return jobs


def _recover_job(rng, key, h, normal):
    quotient, cosets, _reps = groups.quotient_group(h, normal)
    table = reconstruction.multiplication_index_table(quotient, quotient.elements())
    n = len(cosets)
    mul = h.table
    shift = rng.randrange(1, n) if n > 1 else 0  # right-translate by coset `shift`
    s = min(cosets[shift])
    blocks = [frozenset(mul[x][s] for x in c) for c in cosets]
    reps = tuple(rng.choice(sorted(c)) for c in cosets)
    pair = cf.ConfigPair(reps, cf.Partition.explicit(blocks))
    # the identity lies in the block of the coset holding s^-1
    s_inv = h.inv(s)
    identity_block = next(i for i, c in enumerate(cosets, start=1) if s_inv in c)
    true_cosets = {frozenset(mul[g][x] for x in normal) for g in h.elements()}
    action = actions.LeftTranslation(h)
    refine = n <= 5

    def run():
        family, report, _q = reconstruction.quotient_recovery_roundtrip(h, normal)
        seeded = reconstruction.recover_cosets(h, pair, table)
        seeded_report = reconstruction.verify_normal_and_iso(h, seeded, table)
        inferred = reconstruction.table_from_configurations(action, pair)
        search = (reconstruction.q_group_refinement_check(h, seeded, cap=200_000)
                  if refine else None)
        return family, report, seeded, seeded_report, inferred, search

    def summary(result):
        family, report, _seeded, _sr, _inferred, search = result
        return {
            "subgroup": sorted(family.subgroup),
            "certified": report.ok,
            "coset_count": report.coset_count,
            "pairs_searched": None if search is None else search.pairs_searched,
            "matched": None if search is None else search.matched,
        }

    def check(result):
        _family, _report, seeded, seeded_report, inferred, _search = result
        if seeded.subgroup != normal or not seeded_report.ok:
            return "seeded recovery did not certify the normal subgroup"
        if set(seeded.blocks) != true_cosets:
            return "recovered blocks are not the cosets of the subgroup"
        if seeded.identity_block_before != identity_block:
            return "identity block index does not follow the seeded relabelling"
        if inferred.rows != table.rows:
            return "table read off the configurations differs from the quotient table"
        return None

    return Job(key, run, summary, check=check)


# ---------------------------------------------------------------------------
# cli-fixtures: confpara.cli.main in a closed loop, one client


@dataclass
class CliResult:
    code: Optional[int]
    stdout: str
    stderr: str
    escaped: Optional[str]  # exception class that escaped main, if any


def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - what escaped is the observation
            escaped = type(exc).__name__
    return CliResult(code, out.getvalue(), err.getvalue(), escaped)


def _cli_summary(r):
    return {"exit": r.code, "escaped": r.escaped,
            "stdout_sha256": hashlib.sha256(r.stdout.encode()).hexdigest()}


def _documented(r):
    if r.escaped is not None:
        return f"{r.escaped} escaped cli.main"
    if r.code not in DOCUMENTED_EXITS:
        return f"exit code {r.code} is not documented"
    return None


def _write(path, kind, payload):
    path.write_text(json.dumps({"schema-version": 1, "object-kind": kind,
                                "payload": payload}, indent=2))
    return str(path)


def _relabelled_table(rng, group):
    """``group`` as a table manifest payload with its elements renumbered;
    returns (payload, old -> new index map)."""
    n = group.order()
    new = list(range(n))
    rng.shuffle(new)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[new[a]][new[b]] = new[group.table[a][b]]
    return {"family": "table", "table": table, "identity": new[group.identity]}, new


def _cli_fixtures(rng, tmp):
    fx = "tests/fixtures/"
    jobs = []

    def add(key, argv, **kw):
        argv = [str(a) for a in argv]
        check = kw.pop("check", None)

        def full_check(r):
            return _documented(r) or (check(r) if check else None)

        jobs.append(Job(key, lambda: _cli_run(argv), _cli_summary, check=full_check, **kw))

    add("con-finite", ["con", fx + "pair_z4_parity.json"])
    add("con-box", ["con", fx + "pair_z_residue2.json", "--window", "box=200"])
    add("prefixes-box", ["prefixes", fx + "pair_z_residue2.json", "--depth", "1",
                         "--window", "box=50"])
    z4, z22 = fx + "group_z4.json", fx + "group_z2xz2.json"
    add("equiv-z4-z22-n1m2", ["equiv", "--a", z4, "--b", z22, "-n", "1", "-m", "2"])
    add("equiv-z4-z22-n2m4", ["equiv", "--a", z4, "--b", z22, "-n", "2", "-m", "4"])
    add("recover-z4-parity", ["recover", "--h", z4, "--tuple", "0,1",
                              "--partition", fx + "partition_z4_parity.json"])
    add("verify-f2-standard", ["paradox", "verify", fx + "decomposition_f2_standard.json",
                               "--window", "ball=4", "--index-bound", "10"])
    add("verify-f2-explicit", ["paradox", "verify", fx + "decomposition_f2_explicit.json",
                               "--window", "ball=3", "--index-bound", "4"])
    add("verify-singleton-z", ["paradox", "verify", fx + "decomposition_singleton_z.json",
                               "--window", "box=20", "--index-bound", "40"])
    add("verify-lift-even", ["paradox", "verify", fx + "decomposition_lift_even.json",
                             "--window", "box=20", "--index-bound", "40"])
    add("construct-singleton", ["paradox", "construct", "--kind", "singleton",
                                "--group", fx + "group_z.json", "--window", "box=4",
                                "--index-bound", "20"])
    # error paths: a cap stop (exit 3) and an unknown manifest field (exit 4)
    add("equiv-cap-5", ["equiv", "--a", z4, "--b", z22, "-n", "2", "-m", "4",
                        "--cap", "5"])
    explicit = json.loads(Path(fx + "decomposition_f2_explicit.json").read_text())
    overlap = json.loads(json.dumps(explicit))
    overlap["payload"]["a-pieces"][1] = {"family": "first-letter", "letter": "a"}
    path = tmp / "decomposition_f2_overlap.json"
    path.write_text(json.dumps(overlap, indent=2))

    # Known defect: overlapping pieces raise MalformedOracleError, which
    # cli.main does not map to an exit code.  Once it does (exit 2 or 4),
    # the job counts as ok.
    def overlap_check(r):
        return None if r.code in (2, 4) else "overlapping pieces not reported as an error"

    add("verify-overlapping-pieces", ["paradox", "verify", path, "--window", "ball=2",
                                      "--index-bound", "2"],
        fixed=False, check=overlap_check,
        known_defect=lambda r: r.escaped == "MalformedOracleError")

    # seeded manifests
    stray = rng.choice(("colour", "weight", "orientation"))
    bad = json.loads(Path(fx + "pair_z4_parity.json").read_text())
    where = rng.choice((bad["payload"], bad["payload"]["action"],
                        bad["payload"]["partition"]))
    where[stray] = rng.randrange(100)
    add("unknown-field", ["con", _write(tmp / "pair_unknown_field.json", "pair",
                                        bad["payload"])],
        fixed=False, check=lambda r: None if r.code == 4 and not r.stdout
        else "unknown field not rejected with exit 4")

    g6 = catalog.fixture_groups()[rng.choice(("Z6", "S3"))]
    payload, new = _relabelled_table(rng, g6)
    inv_new = {v: k for k, v in enumerate(new)}
    pts = list(range(6))
    elems = [rng.randrange(6) for _ in range(2)]
    labels = [rng.randint(1, 3) for _ in pts]
    blocks = [[str(p) for p in pts if labels[p] == b] for b in sorted(set(labels))]
    pair_path = _write(tmp / "pair_seeded.json", "pair", {
        "action": {"kind": "left-translation", "group": payload},
        "tuple": [str(e) for e in elems],
        "partition": {"kind": "blocks", "blocks": blocks},
    })
    table = [[new[g6.table[inv_new[a]][inv_new[b]]] for b in pts] for a in pts]
    block_of = {int(p): i for i, b in enumerate(blocks, start=1) for p in b}
    want = sorted(oracles.naive_configurations(
        pts, lambda g, x: table[g][x], elems, block_of.__getitem__))

    def con_check(r):
        got = json.loads(r.stdout)["payload"]["configurations"]
        return None if [tuple(c) for c in got] == want else "configurations differ from the oracle"

    add("con-seeded-table", ["con", pair_path], fixed=False, check=con_check)

    fixture_path = {"Z6": None, "S3": fx + "group_s3.json"}[g6.name]
    if fixture_path is None:
        fixture_path = _write(tmp / "group_z6.json", "group", {"family": "cyclic", "order": 6})
    table_path = _write(tmp / "group_seeded_table.json", "group", payload)

    def equiv_check(r):
        body = json.loads(r.stdout)["payload"]
        sizes = body["family-sizes"]
        return None if r.code == 0 and body["equivalent"] and sizes[0] == sizes[1] \
            else "a relabelled table is not equivalent to its group"

    add("equiv-seeded-table-n1m2", ["equiv", "--a", fixture_path, "--b", table_path,
                                    "-n", "1", "-m", "2"], fixed=False, check=equiv_check)

    z6 = catalog.cyclic(6)
    normal = rng.choice([s for s in groups.normal_subgroups(z6) if 1 < len(s) < 6])
    _q, cosets, _reps = groups.quotient_group(z6, normal)
    s = min(cosets[rng.randrange(1, len(cosets))])
    part = [sorted((x + s) % 6 for x in c) for c in cosets]
    reps = [rng.choice(sorted(c)) for c in cosets]
    part_path = _write(tmp / "partition_seeded.json", "partition", {
        "kind": "blocks", "blocks": [[str(x) for x in b] for b in part]})
    z6_path = _write(tmp / "group_cyclic6.json", "group", {"family": "cyclic", "order": 6})

    def recover_check(r):
        body = json.loads(r.stdout)["payload"]
        ok = (r.code == 0 and body["status"] == "recovered"
              and body["subgroup"] == [str(x) for x in sorted(normal)])
        return None if ok else "recovered subgroup is not the seeded normal subgroup"

    add("recover-seeded-z6", ["recover", "--h", z6_path,
                              "--tuple", ",".join(str(x) for x in reps),
                              "--partition", part_path], fixed=False, check=recover_check)

    swapped = json.loads(json.dumps(explicit))
    for side in ("a", "b"):
        if rng.random() < 0.5:
            swapped["payload"][f"{side}-pieces"].reverse()
            swapped["payload"][f"{side}-translators"].reverse()
    radius = 3
    dec_path = tmp / "decomposition_seeded.json"
    dec_path.write_text(json.dumps(swapped, indent=2))
    points = oracles.free_ball_size(2, radius)

    def verify_check(r):
        body = json.loads(r.stdout)["payload"]
        ok = body["status"] == "verified-up-to" and body["points-checked"] == points
        return None if ok else "reordered explicit pieces do not verify on the ball"

    add("verify-seeded-explicit", ["paradox", "verify", dec_path, "--window",
                                   f"ball={radius}", "--index-bound", "4"],
        fixed=False, check=verify_check)
    return jobs
