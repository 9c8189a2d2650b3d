"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is exact
integer equality; randomized corpora use fixed seeds.
"""

import itertools
import json
import random
import time

import pytest

from percop.graphs import (
    Graph,
    Retraction,
    check_retraction,
    dismantle,
    hypercube_q3,
    petersen_graph,
)
from percop.periodic import PeriodicGraph, constant, footprint, induced, pad, pad_collapse_map
from percop.corners import find_k_temporal_corners, find_temporal_corners
from percop.solver import cop_number, is_k_copwin, static_cop_number, triple, verify_policy
from percop.treewidth import bag_strategy, exact_treewidth, smooth
from percop.search import (
    certify,
    get_spec,
    load_witness,
    load_witness_certificate,
    search,
)
from percop.census import _canonical_graph_masks, smallest_3copwin_scan
from percop.instancefile import dump_json, serialize
from percop.cli import main as cli_main

from conftest import (
    GOLDEN_NAMES,
    all_graphs,
    random_connected_graph,
    random_graph,
    random_temporally_connected,
)


def report(num, name, ok, detail=""):
    print("ACCEPTANCE %d (%s): %s %s" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


EXPECTED_TRIPLES = {
    "q3_rotation": (2, None, 3),
    "bowtie_221": (2, 2, 1),
    "petersen_132": (1, 3, 2),
    "petersen_231": (2, 3, 1),
    "petersen_311": (3, 1, 1),
}


def test_criterion_1_golden_triples(golden_triples):
    t0 = time.time()
    bad = []
    for name, want in EXPECTED_TRIPLES.items():
        got = golden_triples[name].abc
        if any(w is not None and w != g for w, g in zip(want, got)):
            bad.append((name, want, got))
    report(1, "golden triples", not bad,
           "all=%s %.1fs" % ({n: golden_triples[n].abc for n in GOLDEN_NAMES},
                             time.time() - t0) if not bad else str(bad))


def test_criterion_2_static_sanity():
    t0 = time.time()
    ok_named = (
        static_cop_number(petersen_graph()) == 3
        and static_cop_number(hypercube_q3()) == 2
    )
    rng = random.Random(2024)
    mismatches = 0
    sampled = 0
    while sampled < 500:
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.uniform(0.25, 0.7))
        if not g.is_connected():
            continue
        sampled += 1
        if dismantle(g) != (static_cop_number(g) == 1):
            mismatches += 1
    report(2, "static sanity", ok_named and mismatches == 0,
           "sampled=%d mismatches=%d %.1fs" % (sampled, mismatches, time.time() - t0))


def test_criterion_3_reconstruction_witnesses():
    t0 = time.time()
    names = ["thm112", "lem122", "circulant_123", "prop3_retract", "search_321"]
    failures = []
    for name in names:
        out = search(get_spec(name))
        if out.status != "found" or not out.certificates["verified"]:
            failures.append((name, out.status))
    # shipped witnesses must re-verify from their data files
    for name in names:
        pg, _meta = load_witness(name)
        certs = certify(pg, get_spec(name))
        if not certs["verified"]:
            failures.append((name, "shipped re-verify"))
    report(3, "reconstruction witnesses", not failures,
           "specs=%d %.1fs" % (len(names), time.time() - t0) if not failures
           else str(failures))


def _necessity_violation(pg, k):
    if not is_k_copwin(pg, k).copwin:
        return False
    corners = (
        find_temporal_corners(pg) if k == 1 else find_k_temporal_corners(pg, k)
    )
    return not corners


def test_criterion_4_corner_necessity():
    # Corner necessity holds for temporally connected instances, the
    # standing assumption of the source results; without it the saturated
    # placement (k >= n, empty snapshots) is a genuine degenerate escape.
    t0 = time.time()
    checked = 0
    violations = 0

    def run(pg):
        nonlocal checked, violations
        if not footprint(pg).is_connected():
            return
        checked += 1
        for k in (1, 2):
            if _necessity_violation(pg, k):
                violations += 1

    # exhaustive family: everything with n <= 4, p <= 2
    for n in (2, 3, 4):
        gs = all_graphs(n)
        for g0 in gs:
            run(PeriodicGraph([g0]))
        for g0 in gs:
            for g1 in gs:
                run(PeriodicGraph([g0, g1]))
    # n = 5: all statics, then canonical first snapshots against everything
    gs5 = all_graphs(5)
    for g in gs5:
        run(constant(g, 1))
    pairs, reps = _canonical_graph_masks(5)
    by_mask = {mk: gs5[mk] for mk in range(len(gs5))}
    for g0m in reps:
        for g1 in gs5:
            run(PeriodicGraph([by_mask[g0m], g1]))
    enumerated = checked
    # random larger corpus
    rng = random.Random(41)
    for _ in range(1000):
        n = rng.randint(6, 7)
        p = rng.randint(2, 3)
        run(PeriodicGraph([random_graph(rng, n, rng.uniform(0.2, 0.6))
                           for _ in range(p)]))
    report(4, "corner necessity", enumerated >= 10**4 and violations == 0,
           "enumerated=%d random=%d violations=%d %.1fs"
           % (enumerated, checked - enumerated, violations, time.time() - t0))


def test_criterion_5_padding_invariance(golden_specimens, golden_triples):
    t0 = time.time()
    bad = []
    for name in GOLDEN_NAMES:
        pg = golden_specimens[name].instance
        base = golden_triples[name].abc
        for target in (pg.n + 1, pg.n + 3):
            padded = pad(pg, target, 0)
            got = triple(padded).abc
            if got != base:
                bad.append((name, target, base, got))
    report(5, "padding invariance", not bad,
           "checked=%d %.1fs" % (2 * len(GOLDEN_NAMES), time.time() - t0)
           if not bad else str(bad))


def test_criterion_6_treewidth_bound():
    t0 = time.time()
    w_pet, _ = exact_treewidth(petersen_graph())
    bad_tw = w_pet != 4
    rng = random.Random(6)
    bound_violations = 0
    strategy_failures = 0
    for _ in range(200):
        n = rng.randint(4, 9)
        p = rng.randint(1, 3)
        pg = random_temporally_connected(rng, n, p, rng.uniform(0.3, 0.6))
        foot = footprint(pg)
        w, td = exact_treewidth(foot)
        c = cop_number(pg)
        if c > w + 1:
            bound_violations += 1
            continue
        policy = bag_strategy(pg, smooth(td, foot))
        if not verify_policy(pg, policy).wins:
            strategy_failures += 1
    ok = not bad_tw and bound_violations == 0 and strategy_failures == 0
    report(6, "treewidth bound", ok,
           "tw(Petersen)=%d bound_viol=%d strategy_fail=%d %.1fs"
           % (w_pet, bound_violations, strategy_failures, time.time() - t0))


def test_criterion_7_retract_transfer(golden_specimens):
    t0 = time.time()
    bad = []
    for name in GOLDEN_NAMES:
        pg = golden_specimens[name].instance
        target = pg.n + 2
        padded = pad(pg, target, 0)
        m = pad_collapse_map(pg, target, 0)
        kept = list(range(pg.n))
        if not check_retraction(Retraction(footprint(padded), kept, m)):
            bad.append((name, "footprint retraction"))
        if not all(
            check_retraction(Retraction(g, kept, m)) for g in padded.snapshots
        ):
            bad.append((name, "snapshot retraction"))
        sub, _ = induced(padded, kept)
        if cop_number(sub) > cop_number(padded):
            bad.append((name, "transfer inequality"))
    # the counterexample: retract inequality broken, premise broken too
    pg, _meta = load_witness("prop3_retract")
    sub, _ = induced(pg, [0, 1, 2, 3])
    c_full, c_sub = cop_number(pg), cop_number(sub)
    if not (c_sub > c_full):
        bad.append(("prop3", "expected violation missing"))
    foot = footprint(pg)
    for image in (1, 2):
        m = {v: v for v in range(5)}
        m[4] = image
        if not check_retraction(Retraction(foot, [0, 1, 2, 3], m)):
            bad.append(("prop3", "footprint map %d" % image))
        if all(check_retraction(Retraction(g, [0, 1, 2, 3], m))
               for g in pg.snapshots):
            bad.append(("prop3", "premise unexpectedly holds for %d" % image))
    report(7, "retract transfer", not bad,
           "c=%d < c(sub)=%d %.1fs" % (c_full, c_sub, time.time() - t0)
           if not bad else str(bad))


def test_criterion_8_theorem1_evidence(golden_triples):
    t0 = time.time()
    upper = golden_triples["q3_rotation"].copnum == 3
    scan = smallest_3copwin_scan(4, 3)
    ok = upper and scan["three_copwin_found"] == 0
    total = sum(c["enumerated"] for c in scan["counts"])
    report(8, "theorem 1 evidence", ok,
           "8-vertex witness + scan(n<=4,p<=3): %d enumerated, %d found %.1fs"
           % (total, scan["three_copwin_found"], time.time() - t0))


def test_criterion_9_table_harness(capsys):
    t0 = time.time()
    code = cli_main(["verify-table"])
    out = json.loads(capsys.readouterr().out)
    counts = out["summary"]
    ok = (
        code == 0
        and counts.get("PASS") == 11
        and counts.get("external") == 13
        and counts.get("UNDETERMINED") == 3
    )
    with capsys.disabled():
        report(9, "table harness", ok,
               "exit=%d summary=%s %.1fs" % (code, counts, time.time() - t0))


def test_criterion_10_determinism(capsys, tmp_path):
    t0 = time.time()

    def capture(argv):
        code = cli_main(argv)
        return code, capsys.readouterr().out

    samples = []
    q3 = tmp_path / "q3.json"
    capture(["generate", "q3_rotation", "--out", str(q3)])
    samples.append(capture(["triple", str(q3)]))
    samples.append(capture(["corners", str(q3), "--k", "2"]))
    samples.append(capture(["verify-table", "--skip-search-rows"]))
    out1 = search(get_spec("thm112"))
    rep1 = dump_json(out1.as_dict()) + serialize(out1.witness.instance)
    scan1 = dump_json(smallest_3copwin_scan(3, 2))

    repeats = []
    capture(["generate", "q3_rotation", "--out", str(q3)])
    repeats.append(capture(["triple", str(q3)]))
    repeats.append(capture(["corners", str(q3), "--k", "2"]))
    repeats.append(capture(["verify-table", "--skip-search-rows"]))
    out2 = search(get_spec("thm112"))
    rep2 = dump_json(out2.as_dict()) + serialize(out2.witness.instance)
    scan2 = dump_json(smallest_3copwin_scan(3, 2))

    ok = samples == repeats and rep1 == rep2 and scan1 == scan2
    with capsys.disabled():
        report(10, "determinism", ok,
               "reports=%d %.1fs" % (len(samples) + 2, time.time() - t0))
