"""Tests for element and ring classification."""

from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import morphring.check as check
import morphring.rings as rings
from morphring import (
    BimoduleSpec,
    FiniteRing,
    OrderCapExceeded,
    Side,
    annihilator,
    classify_ring,
    commutation_profile,
    element_class,
    element_census,
    fg_ideal,
    ideal_bimodule,
    make_gf,
    make_zmod,
    mask_members,
    matrix_ring,
    opposite,
    principal_ideal,
    regularity_profile,
    ring_from_tables,
    ring_morphic_profile,
    structural_profile,
    trivial_extension,
    truncated_poly,
)
from morphring.classify import PREDICATES
from morphring.ideals import _lattice
from morphring.cli import build_ring, default_corpus, parse_ring_expr


def T2():
    return matrix_ring(make_zmod(2), 2, shape="lower_triangular")


def Z4_ext():
    Z4 = make_zmod(4)
    return trivial_extension(Z4, ideal_bimodule(Z4, 2))


def test_element_class_zmod4():
    R = make_zmod(4)
    c = element_class(R, Side.LEFT, 2)
    assert c.pseudo and c.generalized and c.quasi and c.morphic
    assert c.pseudo_witness == 2
    assert c.generalized_witness == 2
    assert c.morphic_witness == 2
    assert c.quasi_witnesses == (2, 2)


def test_element_class_t2_corner():
    T = T2()
    E21, E11 = 2, 4
    c = element_class(T, Side.LEFT, E21)
    assert c.generalized and not c.pseudo
    assert not c.quasi and not c.morphic
    # least witness is E11; the larger witness E11+E21 also satisfies Rb = l(a)
    assert c.generalized_witness == E11
    assert principal_ideal(T, Side.LEFT, E11 + E21) == annihilator(T, Side.LEFT, [E21])
    assert c.morphic_witness is None


def test_element_class_truncated_z4():
    P = truncated_poly(make_zmod(4), 2)
    c = element_class(P, Side.LEFT, 8)  # the element 2x
    assert not c.pseudo
    assert not c.generalized


def test_element_class_validates_index():
    with pytest.raises(ValueError):
        element_class(make_zmod(4), Side.LEFT, 4)


def test_witnesses_satisfy_their_equations():
    for R in (make_zmod(12), T2(), truncated_poly(make_zmod(2), 2)):
        for side in (Side.LEFT, Side.RIGHT):
            for a in R.elements:
                c = element_class(R, side, a)
                if c.pseudo:
                    assert principal_ideal(R, side, a) == annihilator(R, side, [c.pseudo_witness])
                if c.generalized:
                    assert annihilator(R, side, [a]) == principal_ideal(R, side, c.generalized_witness)
                if c.morphic:
                    b = c.morphic_witness
                    assert principal_ideal(R, side, a) == annihilator(R, side, [b])
                    assert annihilator(R, side, [a]) == principal_ideal(R, side, b)


def test_witness_vectors_match_set_scans_on_corpus():
    for text in default_corpus(128):
        R = build_ring(parse_ring_expr(text))
        profile = ring_morphic_profile(R)
        for side in Side:
            raw = check.witnesses(R.mul_table if side is Side.LEFT else R.mul_table.T, R.zero)
            for a, (pseudo, generalized, morphic) in enumerate(raw):
                c = element_class(R, side, a)
                assert (c.pseudo_witness, c.generalized_witness, c.morphic_witness) == \
                    (pseudo, generalized, morphic), (text, side, a)
            holds = {
                "pseudo": [w[0] is not None for w in raw],
                "generalized": [w[1] is not None for w in raw],
                "quasi": [w[0] is not None and w[1] is not None for w in raw],
                "morphic": [w[2] is not None for w in raw],
            }
            for name, per_element in holds.items():
                flag = getattr(getattr(profile, side.value), name)
                first = next((a for a, ok in enumerate(per_element) if not ok), None)
                assert (flag.status, flag.counterexample) == (first is None, first), \
                    (text, side, name)


def test_hierarchy_monotonicity():
    for R in (make_zmod(8), T2(), Z4_ext(), make_gf(2, 2)):
        for side in (Side.LEFT, Side.RIGHT):
            for a in R.elements:
                c = element_class(R, side, a)
                if c.morphic:
                    assert c.quasi
                if c.quasi:
                    assert c.pseudo and c.generalized


def test_ring_profile_zmod_all_morphic():
    for n in (4, 6, 8, 9, 12, 30):
        p = ring_morphic_profile(make_zmod(n))
        for h in (p.left, p.right):
            assert h.pseudo.status and h.generalized.status
            assert h.quasi.status and h.morphic.status


def test_ring_profile_t2():
    p = ring_morphic_profile(T2())
    assert p.left.generalized.status is True
    assert p.left.pseudo.status is False
    assert p.left.pseudo.counterexample == 2  # the corner element
    assert p.left.quasi.status is False
    assert p.left.morphic.status is False
    # the transpose anti-automorphism onto the upper triangular ring makes
    # the right side behave the same way
    assert p.right.generalized.status is True
    assert p.right.pseudo.status is False


def test_ring_profile_trivial_extension_z4():
    p = ring_morphic_profile(Z4_ext())
    for h in (p.left, p.right):
        assert h.pseudo.status is False
        assert h.generalized.status is False
        assert h.morphic.status is False
        assert h.pseudo.counterexample == 1  # the element (0,2)


def test_ring_profile_truncated_z2():
    p = ring_morphic_profile(truncated_poly(make_zmod(2), 2))
    for h in (p.left, p.right):
        assert h.pseudo.status and h.morphic.status


def test_ring_profile_full_matrix_ring():
    p = ring_morphic_profile(matrix_ring(make_zmod(2), 2))
    for h in (p.left, p.right):
        assert h.morphic.status


def test_side_duality_via_opposite():
    for R in (T2(), Z4_ext(), make_zmod(12)):
        mine = ring_morphic_profile(R)
        theirs = ring_morphic_profile(opposite(R))
        assert mine.left.pseudo.status == theirs.right.pseudo.status
        assert mine.left.generalized.status == theirs.right.generalized.status
        assert mine.right.morphic.status == theirs.left.morphic.status


def test_unit_translates_of_pseudo_are_pseudo():
    for R in (make_zmod(12), T2()):
        units = mask_members(element_census(R).units)
        for a in R.elements:
            if not element_class(R, Side.LEFT, a).pseudo:
                continue
            for u in units:
                assert element_class(R, Side.LEFT, R.mul(u, a)).pseudo
                assert element_class(R, Side.LEFT, R.mul(a, u)).pseudo


def test_regularity_zmod6():
    p = regularity_profile(make_zmod(6))
    assert p.regular.status and p.unit_regular.status and p.strongly_regular.status


def test_regularity_truncated_z2():
    p = regularity_profile(truncated_poly(make_zmod(2), 2))
    assert p.regular.status is False
    assert p.regular.counterexample == 2  # the element x
    assert p.unit_regular.status is False
    assert p.strongly_regular.status is False


def test_regularity_full_matrix_ring():
    M = matrix_ring(make_zmod(2), 2)
    p = regularity_profile(M)
    assert p.regular.status and p.unit_regular.status
    assert p.strongly_regular.status is False
    assert p.strongly_regular.counterexample == 2  # E21, the first nilpotent
    # the other off-diagonal unit E12 fails the defining equation as well
    E12 = 4
    assert all(M.mul(M.mul(E12, E12), x) != E12 for x in M.elements)


@pytest.mark.parametrize("block", [None, 5], ids=["default blocks", "5 entries per block"])
def test_class_table_flags_match_element_definitions(monkeypatch, block):
    # at 5 entries every block of the E·U gather is one idempotent row
    if block is not None:
        monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block)
    for text in default_corpus(128):
        ring = build_ring(parse_ring_expr(text))
        for R in (ring, opposite(ring)):
            flags = {**vars(regularity_profile(R)), "semiprime": commutation_profile(R).semiprime}
            for name, holds in check.element_definitions(R.mul_table, R.zero, R.one).items():
                first = next((a for a in R.elements if not holds(a)), None)
                assert (flags[name].status, flags[name].counterexample) == (first is None, first), \
                    (text, R is ring, name)


def test_regularity_and_commutation_of_gf_2_12_read_the_tables():
    import time

    from morphring.ideals import _resolve

    R = make_gf(2, 12)
    for side in Side:
        _resolve(R, side)
    element_census(R)
    start = time.perf_counter()
    profiles = regularity_profile(R), commutation_profile(R)
    elapsed = time.perf_counter() - start
    assert all(flag.status for profile in profiles for flag in vars(profile).values())
    # about 0.04 s reading the class tables; n gathers of n products per
    # element flag, as element loops, took about 0.9 s
    assert elapsed < 0.2, f"regularity and commutation of gf(2,12) took {elapsed:.2f} s"


def test_regular_implies_quasi():
    for R in (make_zmod(6), make_gf(2, 2), matrix_ring(make_zmod(2), 2)):
        assert regularity_profile(R).regular.status
        p = ring_morphic_profile(R)
        assert p.left.quasi.status and p.right.quasi.status


def test_commutation_truncated_z2():
    p = commutation_profile(truncated_poly(make_zmod(2), 2))
    assert p.reduced.status is False
    assert p.reduced.counterexample == 2  # x is nilpotent
    assert p.symmetric.status is True
    assert p.reversible.status is True
    assert p.semiprime.status is False
    assert p.directly_finite.status is True


def test_commutation_zmod6():
    p = commutation_profile(make_zmod(6))
    assert p.reduced.status and p.reversible.status and p.symmetric.status
    assert p.semiprime.status and p.directly_finite.status


def test_commutation_t2():
    p = commutation_profile(T2())
    assert p.semiprime.status is False
    assert p.semiprime.counterexample == 2  # E21 R E21 = 0
    assert p.reversible.status is False
    assert p.reversible.counterexample == (2, 1)  # E21 E22 = 0, E22 E21 = E21
    assert p.symmetric.status is False
    a, b, c = p.symmetric.counterexample
    T = T2()
    assert T.mul(T.mul(a, b), c) == T.zero
    assert T.mul(T.mul(b, a), c) != T.zero or T.mul(T.mul(a, c), b) != T.zero


# Q8 as signed units: element 2u + s is (-1)^s times the unit u of 1, i, j, k;
# _Q8_UNITS[u][v] is the (unit, sign) of the product of units u and v
_Q8_UNITS = [[(0, 0), (1, 0), (2, 0), (3, 0)],
             [(1, 0), (0, 1), (3, 0), (2, 1)],
             [(2, 0), (3, 1), (0, 1), (1, 0)],
             [(3, 0), (2, 0), (1, 1), (0, 1)]]


def _f2_q8():
    """The group algebra F2[Q8]: element x is the sum of the group elements of its bits."""
    g = np.arange(8)
    units = np.array(_Q8_UNITS)[g[:, None] // 2, g[None, :] // 2]
    group = 2 * units[..., 0] + (g[:, None] % 2 ^ g[None, :] % 2 ^ units[..., 1])
    bits = (np.arange(256)[:, None] >> g) & 1
    coeff = np.zeros((256, 256, 8), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            coeff[:, :, group[a, b]] += bits[:, a, None] * bits[None, :, b]
    mul = ((coeff % 2) << g).sum(axis=2)
    return ring_from_tables(np.arange(256)[:, None] ^ np.arange(256), mul, 0, 1)


def _frobenius_trivext():
    """F4 extended by F4 with its right action twisted by Frobenius: m . s = m s^2."""
    F = make_gf(2, 2)
    frob = F.mul_table[np.arange(4), np.arange(4)]
    M = BimoduleSpec(4, F.add_table, F.mul_table, F.mul_table[:, frob], F.zero, F.labels)
    return trivial_extension(F, M)


def test_symmetric_scan_on_noncommutative_reversible_ring():
    # the block scan runs only on a noncommutative reversible ring. F2[Q8] and
    # its opposite are reversible and not symmetric (Marks, JPAA 2002); the
    # twisted extension is symmetric. The scan tests abc = 0 against acb
    # alone; the reference tests bac as well, which a reversible ring makes
    # redundant
    for ring, violation in ((_f2_q8(), (5, 17, 86)), (opposite(_f2_q8()), (5, 17, 85)),
                            (_frobenius_trivext(), None)):
        mul = ring.mul_table
        assert not np.array_equal(mul, mul.T)
        is_zero = mul == ring.zero
        assert np.array_equal(is_zero, is_zero.T)
        p = commutation_profile(ring)
        assert p.reversible.status is True
        assert p.symmetric.status is (violation is None)
        assert p.symmetric.counterexample == violation == check.symmetry_violation(mul, ring.zero)


def test_structural_zmod12():
    p = structural_profile(make_zmod(12))
    assert p.bezout_left.status and p.bezout_right.status
    assert p.dual_ring.status and p.qf_finite.status
    assert p.lear_left.status and p.lear_right.status
    assert p.p_injective_left.status and p.p_injective_right.status
    assert p.ikeda_nakayama_left.status and p.ikeda_nakayama_right.status
    assert p.strongly_clean.status
    # 6 is nilpotent, so annihilators are not all idempotent-generated
    assert p.pp_left.status is False
    assert p.pp_right.status is False


def test_structural_t2():
    p = structural_profile(T2())
    assert p.lear_left.status is False
    # the offending ideal is R·E21 = {0, E21}
    assert p.lear_left.counterexample == 0b101
    assert p.p_injective_left.status is False
    assert p.p_injective_left.counterexample == 2
    assert p.p_injective_right.status is False
    assert p.dual_ring.status is False


def test_structural_semisimple_rings():
    for R in (make_zmod(6), make_gf(2, 2), matrix_ring(make_zmod(2), 2)):
        p = structural_profile(R)
        assert p.pp_left.status and p.pp_right.status
        assert p.dual_ring.status
        assert p.lear_left.status and p.lear_right.status
        assert p.strongly_clean.status
        assert p.ikeda_nakayama_left.status and p.ikeda_nakayama_right.status


def test_structural_bezout_t2():
    # R·E22 + R·E21 is the bottom-row plane {0, E22, E21, E21+E22}, which is
    # not principal, so T2 is not left Bezout
    T = T2()
    p = structural_profile(T)
    assert p.bezout_left.status is False
    a, b = p.bezout_left.counterexample
    total = fg_ideal(T, Side.LEFT, [a, b])
    assert all(principal_ideal(T, Side.LEFT, d) != total for d in T.elements)


def test_classify_ring_assembles_and_caps(monkeypatch):
    profile = classify_ring(make_zmod(4))
    assert profile.order == 4
    assert profile.expression == "z4"
    assert profile.morphic.left.morphic.status
    assert profile.structural.qf_finite.status
    monkeypatch.setenv("RING_ORDER_CAP", "3")
    with pytest.raises(OrderCapExceeded):
        classify_ring(make_zmod(4))


def test_classify_lattice_heavy_ring_in_seconds(monkeypatch):
    import time

    monkeypatch.setenv("RING_ORDER_CAP", "1024")
    T = matrix_ring(make_zmod(2), 4, shape="lower_triangular")
    assert T.order == 1024
    start = time.perf_counter()
    profile = classify_ring(T)
    elapsed = time.perf_counter() - start
    assert profile.structural.bezout_left.status is False
    assert profile.structural.dual_ring.status is False
    assert elapsed < 5.0, f"classify tri(z2,4) took {elapsed:.1f} s"


def test_classify_poly_z2_11_peak_memory(monkeypatch):
    import tracemalloc

    monkeypatch.setenv("RING_ORDER_CAP", "2048")
    R = truncated_poly(make_zmod(2), 11)
    tracemalloc.start()
    classify_ring(R)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # about 2.0 MB, in the side tables: 1 MB of packed rows, the columns of half a block and
    # one bool block; the commutation scan's block is as large; the last block's arrays still
    # alive would add 0.75 MB, an n x n bool temporary 4 MB, a block-wide intp index 4 MB,
    # and forming the addition table 8 MB
    assert peak < 2.3 * 2**20, f"classify poly(z2,11) peaked at {peak / 2**20:.2f} MB"


def test_flag_text():
    from morphring import Flag

    assert Flag(True).text == "true"
    assert Flag(False, counterexample=1).text == "false"
    assert Flag(None, note="overflow").text == "indeterminate"


def test_predicate_table_is_the_record_list():
    assert len(PREDICATES) == 29
    for text in ("z4", "z6", "tri(z2,2)", "mat(z2,2)", "trivext(z4,ideal(2))"):
        ring = build_ring(parse_ring_expr(text))
        profile = classify_ring(ring)
        assert list(profile.flags) == list(PREDICATES)
        assert {name: read(ring) for name, read in PREDICATES.items()} == profile.flags, text


def test_profile_groups_are_computed_once_per_ring():
    R = make_zmod(12)
    assert regularity_profile(R) is regularity_profile(R)
    assert PREDICATES["unit_regular"](R) is regularity_profile(R).unit_regular
    assert PREDICATES["left_morphic"](R) is ring_morphic_profile(R).left.morphic


def test_dual_scan_is_shared_and_follows_the_lattice_cap(monkeypatch):
    R = make_zmod(12)  # six ideals on each side
    dual = PREDICATES["dual_ring"](R)
    assert dual.status is True and PREDICATES["dual_ring"](R) is dual
    qf = PREDICATES["qf_finite"](R)
    assert qf.note and replace(qf, note=None) == dual
    monkeypatch.setenv("IDEAL_LATTICE_CAP", "5")
    for name in ("dual_ring", "qf_finite"):
        assert PREDICATES[name](R).status is None, name
    monkeypatch.delenv("IDEAL_LATTICE_CAP")
    assert PREDICATES["dual_ring"](R) is dual


def test_pseudo_morphic_iff_every_ideal_an_annihilator():
    # The title theorem on finite rings: left pseudo-morphic iff every left
    # ideal is l(b) for one b, as Ra1 + Ra2 = l(b1 c) is the witness identity
    # and every ideal of a finite ring is finitely generated.  The witness
    # vectors and the lattice scan decide the two sides independently.
    tally = defaultdict(int)
    for text in default_corpus(512):
        R = build_ring(parse_ring_expr(text))
        for side in Side:
            pseudo = PREDICATES[f"{side.value}_pseudo_morphic"](R).status
            assert PREDICATES[f"lear_{side.value}"](R).status is pseudo, (text, side)
            tally[pseudo] += 1
    assert tally == {True: 322, False: 156}


def test_ikeda_nakayama_is_read_off_a_dual_ring(monkeypatch):
    # l and r are inverse anti-isomorphisms of a dual ring's two lattices,
    # so its exchange laws hold with no pair loop; other rings run the loop
    import morphring.classify as classify_module

    exchange, calls = classify_module._exchange_failure, []
    monkeypatch.setattr(classify_module, "_exchange_failure",
                        lambda *args: calls.append(args[1]) or exchange(*args))
    assert classify_ring(make_zmod(12)).structural.ikeda_nakayama_left.status
    assert calls == []
    assert not classify_ring(T2()).structural.dual_ring.status
    assert calls == [Side.LEFT, Side.RIGHT]
    tally = defaultdict(int)
    for text in default_corpus(512):
        R = build_ring(parse_ring_expr(text))
        dual = PREDICATES["dual_ring"](R).status
        for side in Side:
            failure = exchange(R, side, _lattice(R, side))
            flag = PREDICATES[f"ikeda_nakayama_{side.value}"](R)
            assert (flag.status, flag.counterexample) == (
                failure is None, failure and failure[:2]), (text, side)
            tally[dual, flag.status] += 1
    assert tally == {(True, True): 362, (False, False): 116}


def test_p_injectivity_and_dual_rings_match_their_definitions_on_corpus():
    # both flags read one double-annihilator law; the references state each by definition
    for text in default_corpus(256):
        R = build_ring(parse_ring_expr(text))
        for side, mul in zip(Side, (R.mul_table, R.mul_table.T)):
            flag, least = PREDICATES[f"p_injective_{side.value}"](R), check.p_injective(mul, R.zero)
            assert (flag.status, flag.counterexample) == (least is None, least), (text, side)
        flag, failure = PREDICATES["dual_ring"](R), check.dual_failure(R.add_table, R.mul_table, R.zero)
        assert (flag.status, flag.counterexample) == (failure is None, failure), text


@pytest.fixture(scope="module")
def corpus_statuses():
    """Each flag's statuses over ``default_corpus(128)``, 155 rings."""
    statuses = defaultdict(set)
    for text in default_corpus(128):
        for name, flag in classify_ring(build_ring(parse_ring_expr(text))).flags.items():
            statuses[name].add(flag.status)
    return statuses


# Every finite ring is directly finite and strongly clean, so these two flags
# are true on every ring; the one-entry corruptions of z4's multiplication
# that once made them false are no FiniteRing.
_CORRUPTED_Z4 = {"directly_finite": ((2, 3), 1), "strongly_clean": ((3, 3), 0)}


@pytest.mark.parametrize("name", list(PREDICATES))
def test_every_flag_is_both_true_and_false_somewhere(corpus_statuses, name):
    if name not in _CORRUPTED_Z4:
        assert {True, False} <= corpus_statuses[name]
        return
    assert corpus_statuses[name] == {True}
    (x, y), value = _CORRUPTED_Z4[name]
    z4 = make_zmod(4)
    mul = z4.mul_table.copy()
    mul[x, y] = value
    with pytest.raises(ValueError, match="tables violate ring axiom"):
        FiniteRing(z4.order, z4.add_table, mul, z4.zero, z4.one, z4.labels)


_BLOCK_SCAN_RINGS = {
    "tri(z2,2)": T2,
    "F2[Q8]": _f2_q8,
    "twisted trivext": _frobenius_trivext,
}


@pytest.mark.parametrize("name", list(_BLOCK_SCAN_RINGS))
def test_commutation_scans_agree_across_block_sizes(monkeypatch, name):
    # at the default size each ring is one block; at 5 entries every scan
    # of two or three indices is one row per block
    default, small = _BLOCK_SCAN_RINGS[name](), _BLOCK_SCAN_RINGS[name]()
    expected = commutation_profile(default)
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 5)
    assert commutation_profile(small) == expected


def test_readme_lists_every_predicate():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert [name for name in PREDICATES if f"`{name}`" not in readme] == []
