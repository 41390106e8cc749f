"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

Each test prints exactly one ``ACCEPTANCE k: PASS`` or ``ACCEPTANCE k: FAIL``
line on the live terminal before asserting, so a full run always shows the
status of every criterion even when one of them fails.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from io import StringIO

import pytest

import morphring.check as check
from morphring import (
    Side,
    annihilator,
    commutation_profile,
    element_census,
    fg_ideal,
    ideal_bimodule,
    make_gf,
    make_zmod,
    matrix_ring,
    opposite,
    regularity_profile,
    ring_morphic_profile,
    direct_product,
    trivial_extension,
    truncated_poly,
    verify_finite_qf,
    verify_pseudo_consequences,
    verify_qz_suite,
    verify_quasi_equivalence,
    verify_reduced_equivalences,
    verify_regular_criteria,
    verify_witness_identities,
)
from morphring.cli import build_ring, default_corpus, parse_ring_expr, run_command

HIERARCHY = ("pseudo", "generalized", "quasi", "morphic")


def _report(capsys, criterion: int, ok: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def corpus64():
    return [(text, build_ring(parse_ring_expr(text)))
            for text in default_corpus(64)]


def test_criterion_1_worked_example_corpus(capsys):
    start = time.perf_counter()
    failures = []

    P = truncated_poly(make_zmod(4), 2)  # Z4[x]/(x^2); 2 -> 2, x -> 4, 2x -> 8
    l_2x = annihilator(P, Side.LEFT, [8])
    if l_2x != fg_ideal(P, Side.LEFT, [2, 4]) or l_2x.bit_count() != 8:
        failures.append("l(2x) is not the 8-element ideal 2R+xR")
    if any(fg_ideal(P, Side.LEFT, [b]) == l_2x for b in range(16)):
        failures.append("l(2x) unexpectedly principal")
    p_2x = fg_ideal(P, Side.LEFT, [8])
    meet = annihilator(P, Side.LEFT, [2]) & annihilator(P, Side.LEFT, [4])
    if p_2x != meet or p_2x != (1 | 1 << 8):
        failures.append("2xR != l(2) ∩ l(x) = {0, 2x}")
    if any(annihilator(P, Side.LEFT, [b]) == p_2x for b in range(16)):
        failures.append("2xR unexpectedly a single-element left annihilator")

    T = matrix_ring(make_zmod(2), 2, shape="lower_triangular")
    l_e21 = annihilator(T, Side.LEFT, [2])
    if l_e21 != fg_ideal(T, Side.LEFT, [6]) or l_e21.bit_count() != 4:
        failures.append("l(E21) is not the 4-element ideal R(E11+E21)")
    r_e21 = fg_ideal(T, Side.LEFT, [2])
    if r_e21 != (1 | 1 << 2):
        failures.append("R·E21 != {0, E21}")
    if any(annihilator(T, Side.LEFT, [b]) == r_e21 for b in range(8)):
        failures.append("R·E21 unexpectedly matches some l(β)")
    t_profile = ring_morphic_profile(T)
    if not t_profile.left.generalized.status or t_profile.left.pseudo.status:
        failures.append("T2 is not (generalized and not pseudo) on the left")
    census = element_census(T)
    if census.units.bit_count() != 2 or census.idempotents.bit_count() != 6:
        failures.append(
            f"T2 census: {census.units.bit_count()} units, "
            f"{census.idempotents.bit_count()} idempotents, expected 2 and 6")

    Q = truncated_poly(make_zmod(2), 2)
    if not commutation_profile(Q).symmetric.status:
        failures.append("Z2[x]/(x^2) not symmetric")
    if not ring_morphic_profile(Q).left.pseudo.status:
        failures.append("Z2[x]/(x^2) not left pseudo-morphic")
    if regularity_profile(Q).regular.status:
        failures.append("Z2[x]/(x^2) unexpectedly regular")

    z4 = ring_morphic_profile(make_zmod(4))
    if not (z4.left.morphic.status and z4.right.morphic.status):
        failures.append("Z4 not morphic on both sides")
    # Z4 is not a domain, so the paper's trivial-extension theorem does not
    # decide this ring; the verdict is re-derived from the raw table by check:
    # R·(0,2) has 2 elements, while every l(b) and r(b) has 1, 4 or 8.
    E = trivial_extension(make_zmod(4), ideal_bimodule(make_zmod(4), 2))
    a = E.labels.index("(0,2)")
    principal, right = (check.principals(mul)[a] for mul in (E.mul_table, E.mul_table.T))
    if principal != right:
        failures.append("trivext(z4,ideal(2)): R·(0,2) != (0,2)·R")
    if sorted(E.labels[x] for x in check.members(principal)) != ["(0,0)", "(0,2)"]:
        failures.append("trivext(z4,ideal(2)): R·(0,2) != {(0,0),(0,2)}")
    if any(principal in check.annihilators(mul, E.zero) for mul in (E.mul_table, E.mul_table.T)):
        failures.append("trivext(z4,ideal(2)): R·(0,2) is some l(b) or r(b)")
    e_profile = ring_morphic_profile(E)
    for side_name, side in (("left", e_profile.left),
                            ("right", e_profile.right)):
        for flag_name in ("pseudo", "morphic"):
            flag = getattr(side, flag_name)
            if flag.status or flag.counterexample != a:
                failures.append(
                    f"trivext(z4,ideal(2)) {side_name} {flag_name}: "
                    f"{flag.status}, counterexample {flag.counterexample}, "
                    f"expected False with counterexample {a} (the pair (0,2))")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report(capsys, 1, not failures)
    assert not failures, "; ".join(failures)


def test_criterion_2_witness_identities(corpus64, capsys):
    start = time.perf_counter()
    refuted = []
    for text, ring in corpus64:
        report = verify_witness_identities(ring)
        if report.status != "verified":
            refuted.append((text, report.status, report.details))
    Z12 = make_zmod(12)
    frozen = (
        fg_ideal(Z12, Side.LEFT, [4, 6]) == annihilator(Z12, Side.LEFT, [6])
        and annihilator(Z12, Side.LEFT, [4]) & annihilator(Z12, Side.LEFT, [6])
        == fg_ideal(Z12, Side.LEFT, [6]))
    elapsed = time.perf_counter() - start
    ok = not refuted and frozen and elapsed < 60.0
    _report(capsys, 2, ok)
    assert not refuted, refuted[:3]
    assert frozen, "Z12 instances R4+R6 = l(6) and l(4) ∩ l(6) = R6 failed"
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"


def test_criterion_3_pseudo_consequences(corpus64, capsys):
    reports = [(text, verify_pseudo_consequences(ring))
               for text, ring in corpus64]
    refuted = [(t, r.details) for t, r in reports if r.status == "refuted"]
    checked = sum(1 for _, r in reports if r.status == "verified")
    ok = not refuted and checked > 0
    _report(capsys, 3, ok)
    assert not refuted, refuted[:3]
    assert checked > 0


def test_criterion_4_equivalence_suites(corpus64, capsys):
    failures = []
    for text, ring in corpus64:
        for check in (verify_quasi_equivalence, verify_finite_qf):
            report = check(ring)
            if report.status == "refuted":
                failures.append((text, check.__name__, report.details))
            elif report.status == "indeterminate":
                if "overflow" not in str(report.details):
                    failures.append((text, check.__name__,
                                     "undeclared indeterminate"))
    _report(capsys, 4, not failures)
    assert not failures, failures[:3]


def test_criterion_5_reduced_ring_suite(corpus64, capsys):
    failures = []
    reduced_rings = (make_zmod(6), direct_product([make_zmod(2)] * 2),
                     make_zmod(30), make_gf(2, 2))
    for ring in reduced_rings:
        report = verify_reduced_equivalences(ring)
        if report.status != "verified" or not report.details.get("nine_way"):
            failures.append((ring.construction, report.status, report.details))
        profile = ring_morphic_profile(truncated_poly(ring, 2))
        if not (profile.left.morphic.status and profile.right.morphic.status):
            failures.append((f"poly({ring.construction},2)", "not morphic"))

    start = time.perf_counter()
    fresh = ring_morphic_profile(truncated_poly(make_zmod(6), 2))
    order36 = time.perf_counter() - start
    if not fresh.left.morphic.status or order36 >= 1.0:
        failures.append(f"order-36 elementwise check: {order36:.3f}s")

    in_corpus = {text for text, _ in corpus64}
    if "mat(z2,2)" not in in_corpus:
        failures.append("corpus does not include full M2(Z2)")
    for text, ring in corpus64:
        report = verify_regular_criteria(ring)
        if report.status == "refuted":
            failures.append((text, report.details))
    _report(capsys, 5, not failures)
    assert not failures, failures[:3]


def test_criterion_6_qz_suite(capsys):
    start = time.perf_counter()
    report = verify_qz_suite(48)
    elapsed = time.perf_counter() - start
    ok = report.status == "verified" and elapsed < 1.0
    _report(capsys, 6, ok)
    assert report.status == "verified", report.details
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_7_falsifier_run(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "morphring", "search", "--max-order", "512",
         "--json"],
        capture_output=True, text=True, timeout=590)
    ok = proc.returncode == 0
    record = None
    if ok:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = (record["status"] == "verified"
              and record["witness"]["hits"] == []
              and record["witness"]["rings"] == len(default_corpus(512)))
    _report(capsys, 7, ok)
    assert proc.returncode == 0, proc.stderr
    assert record["status"] == "verified", record
    assert record["witness"]["hits"] == [], record


def test_criterion_8_property_invariants(capsys):
    rng = random.Random(20260823)
    pool = default_corpus(512)
    samples = [rng.choice(pool) for _ in range(100)]
    failures = []
    built = {}
    for text in samples:
        if text not in built:
            built[text] = build_ring(parse_ring_expr(text))
        ring = built[text]
        profile = ring_morphic_profile(ring)
        for hierarchy in (profile.left, profile.right):
            if hierarchy.quasi.status and not (
                    hierarchy.pseudo.status and hierarchy.generalized.status):
                failures.append((text, "quasi without pseudo+generalized"))
            if hierarchy.morphic.status and not hierarchy.quasi.status:
                failures.append((text, "morphic without quasi"))
        opp = ring_morphic_profile(opposite(ring))
        for name in HIERARCHY:
            if (getattr(profile.left, name).status
                    != getattr(opp.right, name).status
                    or getattr(profile.right, name).status
                    != getattr(opp.left, name).status):
                failures.append((text, f"opposite duality broke on {name}"))
        for a in rng.sample(range(ring.order), min(3, ring.order)):
            left = annihilator(ring, Side.LEFT, [a])
            right_of = annihilator(ring, Side.RIGHT, left)
            if annihilator(ring, Side.LEFT, right_of) != left:
                failures.append((text, f"l(r(l({a}))) != l({a})"))

    for argv_a, argv_b in (
            (["search", "--max-order", "64", "--json"],
             ["search", "--max-order", "64", "--jobs", "3", "--json"]),
            (["corpus", "--json"], ["corpus", "--jobs", "2", "--json"])):
        out_a, out_b = StringIO(), StringIO()
        with redirect_stdout(out_a):
            run_command(argv_a)
        with redirect_stdout(out_b):
            run_command(argv_b)
        if out_a.getvalue() != out_b.getvalue():
            failures.append((argv_b, "parallel output diverged"))

    _report(capsys, 8, not failures)
    assert not failures, failures[:5]
