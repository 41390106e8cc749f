"""Theorem-checker tests with hand-frozen oracle values."""

import contextlib
import dataclasses
import hashlib
import signal
import time
import tracemalloc

import pytest

import morphring.check as check
import morphring.ideals as ideals_module
import morphring.verify as verify_module
from morphring import (
    CornerCase,
    Flag,
    Side,
    TriangularCase,
    TrivialExtensionCase,
    all_ideals,
    direct_product,
    annihilator,
    fg_ideal,
    ideal_bimodule,
    make_gf,
    make_zmod,
    mask_of,
    matrix_ring,
    regular_bimodule,
    ring_morphic_profile,
    search_counterexample,
    trivial_extension,
    truncated_poly,
    verify_extension_heredity,
    verify_finite_qf,
    verify_lemma_equivalences,
    verify_pseudo_consequences,
    verify_quasi_equivalence,
    verify_reduced_equivalences,
    verify_regular_criteria,
    verify_triangular_example_identity,
    verify_witness_identities,
)
from morphring.classify import PREDICATES
from morphring.cli import build_ring, default_corpus, parse_ring_expr

Z4 = make_zmod(4)
Z6 = make_zmod(6)
Z12 = make_zmod(12)
T2 = matrix_ring(make_zmod(2), 2, shape="lower_triangular")
M2 = matrix_ring(make_zmod(2), 2)
P2 = truncated_poly(make_zmod(2), 2)
TE = trivial_extension(Z4, ideal_bimodule(Z4, 2))


def test_report_record_shape():
    report = verify_lemma_equivalences(Z4)
    assert [f.name for f in dataclasses.fields(report)] == [
        "theorem", "expression", "status", "details"]
    assert report.expression == "z4"
    assert report == verify_lemma_equivalences(Z4)


def test_lemma_equivalence_verified_everywhere():
    for ring in (Z4, Z6, Z12, T2, M2, P2, TE, make_gf(2, 2)):
        report = verify_lemma_equivalences(ring)
        assert report.status == "verified", report.details


def test_lemma_equivalence_counts():
    # Morphic rings satisfy the chain condition at every element.
    for ring in (Z4, Z6, make_gf(2, 2)):
        assert verify_lemma_equivalences(ring).details["satisfying_both"] == ring.order
    # Lower triangular 2x2 over Z_2: only E21 fails (R*E21 = {0, E21} is
    # nobody's left annihilator), so 7 of 8 elements satisfy the chain.
    assert verify_lemma_equivalences(T2).details["satisfying_both"] == 7


def test_witness_identities_z12_instance():
    # Hand-checked chain at the pair (4, 6): R4 = l(3), R6 = l(2) give
    # b1 = 3 and c = 2 from R(6*3) = R6 = l(2), so R4 + R6 = l(3*2) = l(6).
    report = verify_witness_identities(Z12)
    assert report.status == "verified"
    assert report.details == {
        "checked_sum": 144,
        "skipped_sum": 0,
        "checked_intersection": 144,
        "skipped_intersection": 0,
    }
    assert fg_ideal(Z12, Side.LEFT, [4, 6]) == annihilator(Z12, Side.LEFT, [6])


def test_witness_identities_partial_coverage():
    # Sum-side witnesses b1 with R*a = l(b1) fail exactly at a = E21, which
    # removes 15 pairs, and the chain element a2*b1 lands on E21 for the two
    # pairs (E22, E21+E22) and (E21+E22, E22).  The ring is left generalized
    # morphic, so the intersection side always has witnesses.
    report = verify_witness_identities(T2)
    assert report.status == "verified"
    assert report.details == {
        "checked_sum": 47,
        "skipped_sum": 17,
        "checked_intersection": 64,
        "skipped_intersection": 0,
    }


def test_witness_identities_full_coverage_matrix_ring():
    report = verify_witness_identities(M2)
    assert report.status == "verified"
    assert report.details["skipped_sum"] == 0
    assert report.details["skipped_intersection"] == 0
    assert report.details["checked_sum"] == 256


def test_class_id_checks_match_element_pair_loops_on_corpus():
    # the two checks that work over class ids, against their definitions in check,
    # on every ring whose verify stdout test_cli pins by digest
    for text in default_corpus(512):
        R = build_ring(parse_ring_expr(text))
        for verify, expected in ((verify_lemma_equivalences, check.lemma(R.mul_table, R.zero)),
                                 (verify_witness_identities,
                                  check.witness_identities(R.add_table, R.mul_table, R.zero))):
            report = verify(R)
            assert (report.status, report.details) == expected, (text, verify.__name__)
            assert report.status == "verified", text


@contextlib.contextmanager
def _alarm(seconds):
    def expire(*_):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("entry", [(0, 1), (0, 3)])
@pytest.mark.parametrize("value", [1, 2, 3])
def test_sums_return_on_masks_that_are_not_subgroups(entry, value, assert_refused):
    # A sum whose first mask lacks zero once cycled forever in its doubling
    # step.  z4 with 0·0 = 2 and one more entry patched hung the check and
    # its reference; no FiniteRing holds such tables now.
    with _alarm(10):
        assert ideals_module.subgroup_sum(Z4, 0b0010, 0b0100) == 0b1111
        assert_refused(Z4, {(0, 0): 2, entry: value})


@pytest.mark.parametrize("ring", [Z12, T2], ids=["z12", "tri(z2,2)"])
def test_corrupted_tables_reported_alike(ring, assert_refused):
    # Each single entry of the multiplication table set to zero or one: the
    # result is no longer a ring, and FiniteRing refuses it with the axiom
    # and witness that check_ring_axioms reports.
    corrupted = 0
    for x in ring.elements:
        for y in ring.elements:
            for value in {ring.zero, ring.one} - {int(ring.mul_table[x, y])}:
                assert_refused(ring, {(x, y): value})
                corrupted += 1
    assert corrupted == {"z12": 244, "tri(z2,2)": 100}[ring.construction]  # 344 in all


def test_pseudo_consequences_z4():
    report = verify_pseudo_consequences(Z4)
    assert report.status == "verified"
    assert report.details == {"fg_ideals": 3, "minimal_right_principals": 1}


def _tri3_reaching_the_ideal_loops(monkeypatch):
    """``tri(z2,3)`` with the hypotheses of both f.g. checks patched true.

    Each side has 26 principal ideals and 40 ideals; the ideals generated by
    at most two elements number 39, as one ideal needs three generators.
    """
    for name in ("left_pseudo_morphic", "right_pseudo_morphic", "left_quasi_morphic",
                 "right_quasi_morphic", "p_injective_right"):
        monkeypatch.setitem(PREDICATES, name, lambda R: Flag(True))
    R = matrix_ring(make_zmod(2), 3, shape="lower_triangular")
    for side in Side:
        principal = verify_module._resolve(R, side)[1].principal_masks
        two = {ideals_module.subgroup_sum(R, m1, m2) for m1 in principal for m2 in principal}
        assert (len(principal), len(two)) == (26, 39) and two < set(all_ideals(R, side))
    return R


def test_pseudo_consequences_read_every_left_ideal(monkeypatch):
    R = _tri3_reaching_the_ideal_loops(monkeypatch)
    seen = []
    real = verify_module._double_annihilator_failure
    monkeypatch.setattr(verify_module, "_double_annihilator_failure",
                        lambda R, side, ideals: seen.append(ideals) or real(R, side, ideals))
    report = verify_pseudo_consequences(R)
    assert [list(ideals) for ideals in seen] == [all_ideals(R, Side.LEFT)] and len(seen[0]) == 40
    # tri(z2,3) is not left pseudo-morphic, so the real check refutes
    assert (report.status, report.details) == ("refuted", {"check": "lr(I)=I", "ideal": 5})


def test_exchange_laws_run_over_every_ideal(monkeypatch):
    R = _tri3_reaching_the_ideal_loops(monkeypatch)
    seen = {}

    def passing(R, side, ideals):  # so that both sides report their pair counts
        seen[side] = ideals

    monkeypatch.setattr(verify_module, "_exchange_failure", passing)
    report = verify_quasi_equivalence(R)
    assert {side: list(ideals) for side, ideals in seen.items()} == {
        side: all_ideals(R, side) for side in Side}
    assert report.status == "verified"
    assert report.details["exchange_pairs_left"] == report.details["exchange_pairs_right"] == 820


@pytest.mark.parametrize("ring, passes", [
    (lambda: make_zmod(12), 1),
    (lambda: matrix_ring(make_zmod(2), 2), 2),
], ids=["z12", "mat(z2,2)"])
def test_commutative_ring_runs_one_exchange_pass(monkeypatch, ring, passes):
    # on a commutative ring both sides compute on R, so the right pass would repeat the left
    R, exchange, calls = ring(), verify_module._exchange_failure, []
    monkeypatch.setattr(verify_module, "_exchange_failure",
                        lambda *args: calls.append(args[1]) or exchange(*args))
    report = verify_quasi_equivalence(R)
    assert (report.status, calls) == ("verified", [Side.LEFT, Side.RIGHT][:passes])
    assert report.details["exchange_pairs_left"] == report.details["exchange_pairs_right"]


def test_fg_checks_overflow_past_the_principal_count(monkeypatch):
    R = _tri3_reaching_the_ideal_loops(monkeypatch)
    monkeypatch.setenv("IDEAL_LATTICE_CAP", "5")
    note = "more than 26 left ideals; raise IDEAL_LATTICE_CAP"
    report = verify_pseudo_consequences(R)
    assert (report.status, report.details) == ("indeterminate", {"note": note})
    report = verify_quasi_equivalence(R)
    assert (report.status, report.details["note"]) == ("indeterminate", note)
    # a Bézout side is complete at any cap: its lattice is its principal ideals
    boolean = direct_product([make_zmod(2)] * 6)
    report = verify_pseudo_consequences(boolean)
    assert (report.status, report.details["fg_ideals"]) == ("verified", 64)


def test_pseudo_consequences_more_rings():
    for ring in (Z6, Z12, P2, M2, make_gf(3, 2)):
        assert verify_pseudo_consequences(ring).status == "verified"


def test_pseudo_consequences_vacuous():
    for ring in (T2, TE):
        report = verify_pseudo_consequences(ring)
        assert report.status == "vacuous"
        assert "not left pseudo-morphic" in report.details["note"]


def test_quasi_equivalence_z12():
    report = verify_quasi_equivalence(Z12)
    assert report.status == "verified"
    assert report.details["pseudo_both"] and report.details["quasi_both"]
    assert report.details["commutative_morphic"] is True
    assert report.details["exchange_pairs_left"] == 21
    assert report.details["exchange_pairs_right"] == 21


def test_quasi_equivalence_matrix_ring():
    report = verify_quasi_equivalence(M2)
    assert report.status == "verified"
    assert report.details["exchange_pairs_left"] == 15


def test_quasi_equivalence_degenerate_rings():
    # Rings on neither side of the biconditional still verify it.
    for ring in (T2, TE):
        report = verify_quasi_equivalence(ring)
        assert report.status == "verified"
        assert report.details["pseudo_both"] is False
        assert report.details["quasi_both"] is False


def test_finite_qf_z12():
    report = verify_finite_qf(Z12)
    assert report.status == "verified"
    assert report.details == {"left_ideals": 6, "right_ideals": 6}


def test_finite_qf_semiprime_branch():
    report = verify_finite_qf(Z6)
    assert report.status == "verified"
    assert report.details["semiprime_radical_zero"] is True


def test_finite_qf_matrix_ring():
    report = verify_finite_qf(M2)
    assert report.status == "verified"
    assert report.details["left_ideals"] == 5
    assert report.details["right_ideals"] == 5


def test_finite_qf_vacuous():
    for ring in (T2, TE):
        assert verify_finite_qf(ring).status == "vacuous"


# The battery reads classify's flags, so each refutation is reached by
# patching one table entry to fail: the payload names the check and carries
# the flag's counterexample.  Rows: (test id, entry, fault, details).
_FLAG_FAULTS = [
    ("_dual_ring", "dual_ring", lambda R: Flag(False, counterexample=5),
     {"check": "dual_ring", "counterexample": 5}),
    ("_bezout", "bezout_right", lambda R: Flag(False, counterexample=(2, 3)),
     {"check": "all_ideals_principal", "side": "right", "counterexample": (2, 3)}),
    ("_lear", "lear_left", lambda R: Flag(False, counterexample=21),
     {"check": "all_ideals_are_annihilators", "side": "left", "counterexample": 21}),
]


@pytest.mark.parametrize("_, name, fault, details", _FLAG_FAULTS,
                         ids=[f[0] for f in _FLAG_FAULTS])
def test_finite_qf_refutes_with_the_failing_flag(monkeypatch, _, name, fault, details):
    assert verify_finite_qf(Z12).status == "verified"
    monkeypatch.setitem(PREDICATES, name, fault)
    report = verify_finite_qf(Z12)
    assert (report.theorem, report.status, report.details) == (
        "finite_dual_ring_battery", "refuted", details)


def test_finite_qf_reads_no_strongly_clean_flag(monkeypatch):
    monkeypatch.setitem(PREDICATES, "strongly_clean", lambda R: Flag(False, counterexample=7))
    assert verify_finite_qf(Z12).status == "verified"


# Each theorem check refutes under a named fault: one PREDICATES entry that
# reads a wrong verdict.  Rows: (test id, check, entry, fault, expected details).
_THEOREM_FAULTS = [
    ("regular_criteria, z4 semiprime",
     lambda: verify_regular_criteria(Z4), "semiprime", Flag(True),
     {"semiprime_pseudo": True, "regular": False, "radical_zero": False}),
    ("regular_criteria, z6 not regular",
     lambda: verify_regular_criteria(Z6), "regular", Flag(False, counterexample=2),
     {"semiprime_pseudo": True, "regular": False, "radical_zero": True}),
    ("regular_criteria, z4 left p.p.",
     lambda: verify_regular_criteria(Z4), "pp_left", Flag(True),
     {"semiprime_pseudo": False, "regular": False, "radical_zero": False,
      "left_pp_right_pseudo": True, "check": "left_pp_right_pseudo"}),
    ("pseudo_quasi_equivalence, z12 not right quasi",
     lambda: verify_quasi_equivalence(Z12), "right_quasi_morphic", Flag(False, counterexample=3),
     {"pseudo_both": True, "quasi_both": False, "counterexample": {"left": None, "right": 3}}),
    ("pseudo_quasi_equivalence, z12 not left morphic",
     lambda: verify_quasi_equivalence(Z12), "left_morphic", Flag(False, counterexample=2),
     {"pseudo_both": True, "quasi_both": True, "counterexample": 2,
      "check": "commutative_pseudo_implies_morphic"}),
    ("triangular_example_identity, tri left pseudo",
     verify_triangular_example_identity, "left_pseudo_morphic", Flag(True),
     {"headline_claims": False, "identity_diverges": {"row": True, "transpose": True}}),
]


@pytest.mark.parametrize("_, check, name, fault, details", _THEOREM_FAULTS,
                         ids=[f[0] for f in _THEOREM_FAULTS])
def test_theorem_checks_refute_under_a_wrong_flag(monkeypatch, _, check, name, fault, details):
    verified = check()
    assert verified.status == "verified"
    monkeypatch.setitem(PREDICATES, name, lambda R: fault)
    report = check()
    assert (report.theorem, report.status, report.details) == (
        verified.theorem, "refuted", details)


def test_reduced_collapse_refuted_names_flags_by_record(monkeypatch):
    assert verify_reduced_equivalences(Z6).status == "verified"
    monkeypatch.setitem(PREDICATES, "unit_regular", lambda R: Flag(False))
    report = verify_reduced_equivalences(Z6)
    assert report.status == "refuted"
    assert report.details == {"reduced": True, "flags": {
        "left_pseudo_morphic": True, "right_pseudo_morphic": True,
        "left_quasi_morphic": True, "right_quasi_morphic": True,
        "left_morphic": True, "right_morphic": True,
        "regular": True, "unit_regular": False, "strongly_regular": True}}


def test_finite_qf_indeterminate_dual_flag(monkeypatch):
    monkeypatch.setitem(PREDICATES, "dual_ring", lambda R: Flag(None, note="too many"))
    report = verify_finite_qf(Z12)
    assert (report.status, report.details) == ("indeterminate", {"note": "too many"})


def test_pseudo_consequences_refutes_double_annihilator(monkeypatch):
    calls = []

    def fault(R, side, ideals):
        calls.append((side, list(ideals)))
        return 3

    monkeypatch.setattr(verify_module, "_double_annihilator_failure", fault)
    report = verify_pseudo_consequences(Z4)
    assert (report.theorem, report.status, report.details) == (
        "pseudo_morphic_consequences", "refuted", {"check": "lr(I)=I", "ideal": 3})
    assert calls == [(Side.LEFT, [mask_of([0]), mask_of([0, 2]), mask_of(range(4))])]


def test_double_annihilator_failure_names_the_first_bad_mask():
    from morphring.classify import _double_annihilator_failure

    ideals = all_ideals(Z12, Side.LEFT)
    assert _double_annihilator_failure(Z12, Side.LEFT, ideals) is None
    # {0, 1} is no ideal: its right annihilator is {0}, whose left one is Z4
    assert _double_annihilator_failure(Z4, Side.LEFT, [1, mask_of([0, 1]), 3]) == mask_of([0, 1])
    bad = _double_annihilator_failure(T2, Side.LEFT, all_ideals(T2, Side.LEFT))
    assert bad is not None and annihilator(T2, Side.LEFT, annihilator(T2, Side.RIGHT, bad)) != bad


def test_ring_theorems_table():
    assert list(verify_module.RING_THEOREMS) == [
        "annihilator_chain_equivalence", "sum_intersection_witnesses",
        "pseudo_morphic_consequences", "pseudo_quasi_equivalence",
        "finite_dual_ring_battery", "regular_criteria", "reduced_ring_collapse"]
    for name, check in verify_module.RING_THEOREMS.items():
        assert check(Z6).theorem == name
    assert verify_module.RING_THEOREMS["reduced_ring_collapse"] is verify_reduced_equivalences
    assert verify_reduced_equivalences.__name__ == "verify_reduced_equivalences"
    assert verify_reduced_equivalences(Z6, nmax=3).details["checked_degrees"] == [2, 3]


def test_theorem_checks_on_nine_z2_within_bound(monkeypatch):
    # z2^9 has 512 left classes, so 262,144 class pairs per witness identity,
    # each decided by counting; forming every sum took 5.6 to 6.8 s on 2 vCPUs
    monkeypatch.delenv("RING_ORDER_CAP", raising=False)
    R = direct_product([make_zmod(2)] * 9)
    start = time.perf_counter()
    statuses = {check(R).status for check in verify_module.RING_THEOREMS.values()}
    elapsed = time.perf_counter() - start
    assert statuses == {"verified"}
    assert elapsed < 2.5, f"{elapsed:.2f} s"


def test_witness_identities_on_ten_z2_within_bounds(monkeypatch):
    # z2^10 has 1,024 left classes, so 2^20 pairs per witness identity, each
    # counted when its three witnesses exist, one row per class a block at a
    # time; both bounds lie below the 0.2 s and 23.5 MB that a class x class
    # intersection-count table took on 2 vCPUs, so such a table fails them
    monkeypatch.delenv("RING_ORDER_CAP", raising=False)
    start = time.perf_counter()
    report = verify_witness_identities(direct_product([make_zmod(2)] * 10))
    elapsed = time.perf_counter() - start
    assert report.details == {"checked_sum": 1 << 20, "skipped_sum": 0,
                              "checked_intersection": 1 << 20, "skipped_intersection": 0}
    assert elapsed < 0.25, f"{elapsed:.2f} s"
    R = direct_product([make_zmod(2)] * 10)  # a fresh ring: no tables cached on it
    tracemalloc.start()
    try:
        verify_witness_identities(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20, f"peaked at {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("factors, digest", [
    (7, "e9d2fba01551484a8ac04e3ce70ee00a72097f5adc06c88f26e38e94641ee022"),
    (8, "a9e8d03c6baeff57327b7ba0bc76d2d4b78e674d291c2ee7b40fe3bb0e2445f9"),
    (9, "020dc1b2abdda68369f3e06c9ecdf4acff1ba363a0df18ed18aaacd1da97efe0"),
])
def test_verify_of_boolean_rings_is_pinned(monkeypatch, capsys, factors, digest):
    # SHA-256 of the stdout recorded when every sum was formed
    from morphring.cli import run_command

    for name in ("RING_ORDER_CAP", "IDEAL_LATTICE_CAP"):
        monkeypatch.delenv(name, raising=False)
    assert run_command(["verify", "prod(" + ",".join(["z2"] * factors) + ")", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_regular_criteria():
    for ring in (Z4, Z6, Z12, T2, M2, P2, TE, make_gf(2, 3)):
        report = verify_regular_criteria(ring)
        assert report.status == "verified", report.details
    semisimple = verify_regular_criteria(M2).details
    assert semisimple["semiprime_pseudo"] is True
    assert semisimple["regular"] is True
    assert semisimple["left_pp_right_pseudo"] is True
    local = verify_regular_criteria(Z4).details
    assert local["semiprime_pseudo"] is False
    assert local["regular"] is False
    assert local["radical_zero"] is False


def test_reduced_collapse_z6():
    report = verify_reduced_equivalences(Z6, nmax=3)
    assert report.status == "verified"
    assert report.details["reduced"] is True
    assert report.details["nine_way"] is True
    assert report.details["checked_degrees"] == [2, 3]


def test_reduced_collapse_field():
    report = verify_reduced_equivalences(make_gf(2, 2))
    assert report.status == "verified"
    assert report.details["nine_way"] is True


def test_reduced_collapse_non_reduced_transfer():
    for ring in (Z4, T2):
        report = verify_reduced_equivalences(ring)
        assert report.status == "verified"
        assert report.details["reduced"] is False
        assert report.details["checked_degrees"] == [2]


def test_reduced_collapse_cap_reported(monkeypatch):
    monkeypatch.setenv("RING_ORDER_CAP", "40")
    report = verify_reduced_equivalences(Z6, nmax=3)
    assert report.status == "verified"
    assert report.details["checked_degrees"] == [2]
    assert report.details["capped_degrees"] == [3]


def test_reduced_collapse_rejects_bad_degree():
    with pytest.raises(ValueError, match="nmax"):
        verify_reduced_equivalences(Z6, nmax=1)


def test_heredity_triangular():
    z2 = make_zmod(2)
    case = TriangularCase(z2, z2, regular_bimodule(z2))
    report = verify_extension_heredity(case)
    assert report.status == "verified"
    assert report.details["checked"] == ["generalized_to_corners"]
    assert report.details["vacuous"] == [
        "left_pseudo_to_right_corner",
        "right_pseudo_to_left_corner",
    ]


def test_heredity_trivial_extension_vacuous():
    # Z4 x 2Z4 with componentwise squaring zero is not generalized morphic,
    # so the heredity implication has nothing to check.
    report = verify_extension_heredity(TrivialExtensionCase(Z4, ideal_bimodule(Z4, 2)))
    assert report.status == "vacuous"
    assert report.details["vacuous"] == ["generalized_to_base"]


def test_heredity_trivial_extension_verified():
    z2 = make_zmod(2)
    report = verify_extension_heredity(TrivialExtensionCase(z2, regular_bimodule(z2)))
    assert report.status == "verified"
    assert report.details["checked"] == ["generalized_to_base"]


def test_heredity_corner_product_ring():
    from morphring import direct_product

    R = direct_product([make_zmod(2), make_zmod(3)])
    report = verify_extension_heredity(CornerCase(R, 3))
    assert report.status == "verified"
    assert report.details["checked"] == [
        "generalized_to_both_corners",
        "left_pseudo_to_complement_corner",
        "right_pseudo_to_corner",
    ]
    assert report.details["vacuous"] == []


def test_heredity_corner_triangular():
    # e = E22 satisfies (1-e)Re = E11*T*E22 = 0 in the lower triangular ring.
    report = verify_extension_heredity(CornerCase(T2, 1))
    assert report.status == "verified"
    assert report.details["checked"] == ["generalized_to_both_corners"]


def test_heredity_corner_hypothesis_violated():
    # e = E11 has (1-e)Re containing E22*E21*E11 = E21, so nothing applies.
    report = verify_extension_heredity(CornerCase(T2, 4))
    assert report.status == "vacuous"
    assert "(1-e)Re != 0" in report.details["note"]


_Z2 = make_zmod(2)


# The big rings here have order 4 or more, the rings of the claims 2 or 3;
# each case pins the (order, side) of every consequent checked, in order.
@pytest.mark.parametrize("case, fails_on, consequents, details", [
    (TriangularCase(_Z2, _Z2, regular_bimodule(_Z2)), lambda R: R is _Z2, [(2, "left")],
     {"checked": ["generalized_to_corners"],
      "vacuous": ["left_pseudo_to_right_corner", "right_pseudo_to_left_corner"],
      "failures": ["generalized_to_corners"]}),
    (TrivialExtensionCase(_Z2, regular_bimodule(_Z2)), lambda R: R is _Z2, [(2, "left")],
     {"checked": ["generalized_to_base"], "vacuous": [], "failures": ["generalized_to_base"]}),
    # in Z2 x Z3 with e = 3, eRe has order 2 and (1-e)R(1-e) order 3
    (CornerCase(direct_product([_Z2, make_zmod(3)]), 3), lambda R: R.order == 3,
     [(2, "left"), (3, "left"), (3, "left"), (2, "right")],
     {"checked": ["generalized_to_both_corners", "left_pseudo_to_complement_corner",
                  "right_pseudo_to_corner"],
      "vacuous": [],
      "failures": ["generalized_to_both_corners", "left_pseudo_to_complement_corner"]}),
])
def test_heredity_refuted_when_a_consequent_fails(monkeypatch, case, fails_on, consequents, details):
    seen = []

    def faulty(name):
        real = PREDICATES[name]

        def flag(R):
            if R.order < 4:
                seen.append((R.order, name.partition("_")[0]))
            return Flag(False, counterexample=0) if fails_on(R) else real(R)
        return flag

    for name in ("left_generalized_morphic", "left_pseudo_morphic", "right_pseudo_morphic"):
        monkeypatch.setitem(PREDICATES, name, faulty(name))
    report = verify_extension_heredity(case)
    assert report.status == "refuted"
    assert report.details == details
    assert seen == consequents


def test_heredity_corner_rejects_non_idempotent():
    with pytest.raises(ValueError, match="idempotent"):
        verify_extension_heredity(CornerCase(Z4, 3))
    # an index outside the ring is rejected as such, before any product is read
    for e in (6, -1):
        with pytest.raises(ValueError, match=r"element index -?\d+ out of range \[0, 6\)"):
            verify_extension_heredity(CornerCase(Z6, e))


def test_raw_flags_agree_with_classifier():
    for ring in (Z4, Z6, T2, M2, P2, TE):
        raw_pseudo, raw_generalized = check.left_flags(ring.mul_table, ring.zero)
        profile = ring_morphic_profile(ring).left
        assert raw_pseudo == bool(profile.pseudo.status)
        assert raw_generalized == bool(profile.generalized.status)


def test_search_no_counterexample():
    corpus = [Z4, Z6, Z12, T2, M2, P2, TE]
    report = search_counterexample(corpus)
    assert report.status == "verified"
    assert report.details["rings"] == 7
    assert report.details["hits"] == []
    expected = hashlib.sha256(
        "\n".join(sorted(r.construction for r in corpus)).encode()
    ).hexdigest()
    assert report.details["fingerprint"] == expected
    assert search_counterexample(corpus) == report


def test_search_consumes_a_generator_in_one_pass():
    corpus = [Z4, Z6, Z12, T2, M2, P2, TE]
    seen = []

    def stream():
        for ring in corpus:
            seen.append(ring)
            yield ring

    report = search_counterexample(stream())
    assert seen == corpus
    assert report == search_counterexample(corpus)


def test_search_hit_is_revalidated_by_raw_scans(monkeypatch):
    # z4 is morphic; a classifier that wrongly calls it not left quasi-morphic
    # makes it a hit, which the raw scans then show to be left generalized
    # morphic, so it is reported but not confirmed
    monkeypatch.setitem(PREDICATES, "left_quasi_morphic", lambda R: Flag(False, counterexample=0))
    report = search_counterexample([Z4])
    assert report.status == "verified"
    assert report.details["hits"] == [{
        "expression": Z4.construction, "quasi_counterexample": 0,
        "raw_revalidation": {"left_pseudo": True, "left_generalized": True},
        "confirmed": False}]


def test_triangular_example_identity():
    report = verify_triangular_example_identity()
    assert report.status == "verified"
    assert report.details["headline_claims"] is True
    assert report.details["identity_diverges"] == {"row": True, "transpose": True}
